//! Bounded, batched ingest with typed back-pressure.
//!
//! The serving layer must never buffer a hostile or merely over-eager
//! writer without bound: the [`IngestQueue`] holds at most a configured
//! number of *batches*; a submission that finds the queue full is rejected
//! immediately with [`SubmitOutcome::Busy`] (counted in
//! [`crate::EngineStats::busy_rejections`]) instead of growing the heap.
//! Accepted batches are drained by one worker thread that applies each
//! batch to the [`AuditEngine`] under a **single store-lock acquisition**
//! ([`AuditEngine::ingest_batch`]), so ingest pays for the lock — and for
//! the auditors it excludes — once per batch rather than once per record.
//!
//! The queue is what a network front-end (see `piprov-serve`) answers
//! `IngestBatch` requests with: `Accepted` becomes an `IngestAck` frame,
//! `Busy` becomes a typed `Busy` frame the client can back off on — and
//! a remote `Flush` frame becomes a ticket, [`IngestQueue::flush_then`]:
//! once the batches accepted before it are applied, the drain worker
//! syncs the store and runs the ticket's callback with the result.  No
//! thread waits for a ticket, a ticket never flips the pause hook, and
//! batches accepted after it cannot delay it, so producers that keep the
//! queue full cannot starve a flusher.

use crate::engine::AuditEngine;
use crate::trace::{RequestKind, Span, SpanKind, TraceCollector, TraceContext, TraceRecord};
use piprov_store::{ProvenanceRecord, StoreError};
use std::collections::VecDeque;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// The immediate answer to one batch submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The batch was queued; `queue_depth` batches (including this one)
    /// are now waiting for the worker.
    Accepted {
        /// Batches waiting after the submission.
        queue_depth: usize,
    },
    /// The queue was full (or shut down): nothing was buffered, the caller
    /// should back off and retry.
    Busy {
        /// Batches waiting at the moment of rejection.
        queue_depth: usize,
    },
}

impl SubmitOutcome {
    /// `true` for [`SubmitOutcome::Accepted`].
    pub fn is_accepted(&self) -> bool {
        matches!(self, SubmitOutcome::Accepted { .. })
    }
}

/// What a flush ticket runs on the drain worker: `Ok` once the batches
/// accepted before the ticket are applied and the store is synced, or the
/// first store error the worker hit since the last ticket ran.
pub type FlushDone = Box<dyn FnOnce(Result<(), StoreError>) + Send>;

/// Mutable queue state, guarded by one mutex.
struct QueueState {
    /// Accepted batches, each stamped with its submit instant so the
    /// drain worker can record submit→applied queue-wait latency, plus the
    /// trace context of the submitting request (if it was sampled) so the
    /// asynchronous queue-wait span lands in the same trace.
    batches: VecDeque<(Instant, Vec<ProvenanceRecord>, Option<TraceContext>)>,
    /// Batches accepted over the queue's lifetime.
    accepted: u64,
    /// Batches applied over the queue's lifetime.  `accepted - applied`
    /// counts the queued batches plus the one the worker is applying.
    applied: u64,
    /// Flush tickets in submission order, each with the `accepted` count
    /// it waits for.  The worker runs a ticket as soon as `applied`
    /// reaches that count, before it starts any later batch.
    tickets: VecDeque<(u64, FlushDone)>,
    /// While paused the worker leaves the queue untouched — a test hook
    /// that makes back-pressure deterministic to observe.
    paused: bool,
    closed: bool,
    /// First store error the worker hit; surfaced by the next ticket.
    error: Option<StoreError>,
}

struct Shared {
    engine: Arc<AuditEngine>,
    state: Mutex<QueueState>,
    /// Wakes the worker: new batch, new ticket, unpause or close.
    work: Condvar,
    capacity: usize,
    /// Where the drain worker deposits queue-wait spans for traced batches.
    collector: Option<Arc<TraceCollector>>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The **only** place the engine's `queue_depth`/`snapshot_lag` gauges
    /// are written.  Called under the state lock at every transition that
    /// can move them (submit — accepted *or* rejected — pop, and
    /// after-apply), so the gauges can never drift from the state they
    /// describe as call sites multiply.
    fn publish_gauges(&self, state: &QueueState) {
        self.engine.set_queue_depth(state.batches.len());
        // A popped batch no longer counts against the queue depth but is
        // still invisible to readers until its snapshot publishes — the
        // lag an operator watches where `queue_depth` alone would hide it.
        self.engine
            .set_snapshot_lag((state.accepted - state.applied) as usize);
    }

    /// `Some(queue_depth)` when a non-empty batch would be refused now —
    /// the queue is full or shut down — having counted the rejection and
    /// refreshed the gauges; `None` when it would be accepted.
    fn refuse_if_full(&self, state: &QueueState) -> Option<usize> {
        let depth = state.batches.len();
        if !state.closed && depth < self.capacity {
            return None;
        }
        // Refresh the gauges on rejection too: a Busy flood must leave
        // them describing the real queue, not the last acceptance.
        self.publish_gauges(state);
        self.engine.note_busy_rejection();
        Some(depth)
    }
}

/// A bounded ingest queue with one drain worker.
///
/// Dropping the queue shuts it down: remaining batches are drained, the
/// worker joins.  Use [`IngestQueue::shutdown`] to also observe errors.
#[derive(Debug)]
pub struct IngestQueue {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestQueueShared")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl IngestQueue {
    /// Starts a queue holding at most `capacity` batches (clamped to at
    /// least 1) draining into `engine`.
    pub fn start(engine: Arc<AuditEngine>, capacity: usize) -> Self {
        IngestQueue::start_with_trace(engine, capacity, None)
    }

    /// [`IngestQueue::start`] with a trace collector: the drain worker
    /// deposits a queue-wait span into `collector` for every traced batch
    /// it applies, keyed by the submitting request's trace id.
    pub fn start_with_trace(
        engine: Arc<AuditEngine>,
        capacity: usize,
        collector: Option<Arc<TraceCollector>>,
    ) -> Self {
        let shared = Arc::new(Shared {
            engine,
            state: Mutex::new(QueueState {
                batches: VecDeque::new(),
                accepted: 0,
                applied: 0,
                tickets: VecDeque::new(),
                paused: false,
                closed: false,
                error: None,
            }),
            work: Condvar::new(),
            capacity: capacity.max(1),
            collector,
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("piprov-ingest".into())
            .spawn(move || drain_loop(&worker_shared))
            .expect("spawn ingest worker");
        IngestQueue {
            shared,
            worker: Some(worker),
        }
    }

    /// The engine this queue drains into.
    pub fn engine(&self) -> &Arc<AuditEngine> {
        &self.shared.engine
    }

    /// Maximum number of batches held.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Batches currently waiting (excluding one the worker may be
    /// applying).
    pub fn queue_depth(&self) -> usize {
        self.shared.lock().batches.len()
    }

    /// Submits one batch without blocking.  An empty batch is accepted as
    /// a no-op.  A full (or shut-down) queue rejects with
    /// [`SubmitOutcome::Busy`] — nothing is buffered, and the rejection is
    /// counted in the engine's `busy_rejections`.
    pub fn try_submit(&self, batch: Vec<ProvenanceRecord>) -> SubmitOutcome {
        self.try_submit_traced(batch, None)
    }

    /// [`IngestQueue::try_submit`] for a traced request: `trace` rides
    /// along with the batch so the drain worker can stamp the asynchronous
    /// queue-wait span into the same trace.
    pub fn try_submit_traced(
        &self,
        batch: Vec<ProvenanceRecord>,
        trace: Option<TraceContext>,
    ) -> SubmitOutcome {
        let mut state = self.shared.lock();
        let depth = state.batches.len();
        if batch.is_empty() {
            return SubmitOutcome::Accepted { queue_depth: depth };
        }
        if let Some(queue_depth) = self.shared.refuse_if_full(&state) {
            return SubmitOutcome::Busy { queue_depth };
        }
        state.batches.push_back((Instant::now(), batch, trace));
        state.accepted += 1;
        let queue_depth = state.batches.len();
        self.shared.publish_gauges(&state);
        drop(state);
        self.shared.work.notify_one();
        SubmitOutcome::Accepted { queue_depth }
    }

    /// Answers for a non-empty batch not yet in hand: `Some(queue_depth)`
    /// when [`IngestQueue::try_submit`] would answer `Busy` now, counting
    /// the rejection and refreshing the gauges as it does, or `None` when
    /// the batch would be accepted.  A front end asks this before it
    /// decodes a batch, so a refused one costs no decode; a batch that
    /// finds the queue full by the time it is submitted is still refused.
    pub fn refuse_if_full(&self) -> Option<usize> {
        self.shared.refuse_if_full(&self.shared.lock())
    }

    /// Pauses or resumes the drain worker.  While paused, accepted batches
    /// stay queued and overflow turns into `Busy` — the hook that makes
    /// back-pressure tests deterministic.
    pub fn set_paused(&self, paused: bool) {
        self.shared.lock().paused = paused;
        self.shared.work.notify_all();
    }

    /// Blocks until every batch accepted before the call has been applied,
    /// then syncs the engine's store, so everything submitted before the
    /// call is both queryable and durable after it.
    ///
    /// Unpauses the worker first (a paused queue would otherwise never
    /// drain) and waits without bound — this is the owner/test path; a
    /// network front-end answering remote `Flush` frames takes a ticket
    /// with [`IngestQueue::flush_then`] instead, which neither touches the
    /// pause hook nor blocks a thread.
    ///
    /// # Errors
    ///
    /// Surfaces the first error the worker hit since the last flush, or a
    /// sync failure.
    pub fn flush(&self) -> Result<(), StoreError> {
        self.set_paused(false);
        let (sender, receiver) = mpsc::channel();
        self.flush_then(Box::new(move |result| {
            let _ = sender.send(result);
        }));
        receiver.recv().expect("the drain worker runs every ticket")
    }

    /// Takes a flush ticket and returns at once: the wire-facing flush.
    /// Once every batch accepted before the call has been applied, and
    /// before it starts any later batch, the drain worker syncs the
    /// engine's store and runs `done` with the result — or, without a
    /// sync, with the first store error it hit since the last ticket ran.
    /// Batches accepted after the call cannot delay it.
    ///
    /// Unlike [`IngestQueue::flush`], this is safe to expose to untrusted
    /// remote callers: it **never touches the pause hook** (behind a
    /// paused queue's batches the ticket waits until the owner resumes
    /// the queue; on an idle queue it runs at once, paused or not), and no
    /// thread waits for it.  `done` runs on the drain worker, so it should
    /// hand its result on rather than do slow work.
    pub fn flush_then(&self, done: FlushDone) {
        let mut state = self.shared.lock();
        let target = state.accepted;
        state.tickets.push_back((target, done));
        drop(state);
        self.shared.work.notify_one();
    }

    /// Drains the queue, stops the worker and surfaces any deferred error.
    ///
    /// # Errors
    ///
    /// As [`IngestQueue::flush`].
    pub fn shutdown(mut self) -> Result<(), StoreError> {
        let result = self.flush();
        self.close_and_join();
        result
    }

    fn close_and_join(&mut self) {
        {
            let mut state = self.shared.lock();
            state.closed = true;
        }
        self.shared.work.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for IngestQueue {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// The worker: run each ticket whose batches are applied, else pop a
/// batch (unless paused), apply it under one store lock and publish the
/// gauges; repeat until closed and drained.
fn drain_loop(shared: &Shared) {
    loop {
        let (submitted, batch, trace) = {
            let mut state = shared.lock();
            loop {
                if matches!(state.tickets.front(), Some(&(target, _)) if target <= state.applied) {
                    let (_, done) = state.tickets.pop_front().expect("a ticket is due");
                    let error = state.error.take();
                    drop(state);
                    // The worker syncs before it starts any later batch,
                    // so no batch holds the store lock the sync waits for.
                    done(error.map_or_else(|| shared.engine.sync(), Err));
                    state = shared.lock();
                    continue;
                }
                // A closed queue still drains what was accepted.
                if !state.paused || state.closed {
                    if let Some(stamped) = state.batches.pop_front() {
                        shared.publish_gauges(&state);
                        break stamped;
                    }
                }
                if state.closed && state.batches.is_empty() {
                    return;
                }
                state = match shared.work.wait(state) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        let result = shared.engine.ingest_batch(batch);
        // Submit → applied: the wait a producer's read-your-writes poll
        // experiences, queue time and apply time included.
        let waited = u64::try_from(submitted.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // The serve layer already recorded the synchronous half of the
        // trace (decode/handle/write around the IngestAck); this record
        // carries only the asynchronous queue-wait span and merges with it
        // by trace id at snapshot time.
        let trace_id = trace.filter(|t| t.sampled).map(|t| t.trace_id);
        if let (Some(collector), Some(trace_id)) = (shared.collector.as_ref(), trace_id) {
            collector.record(&TraceRecord {
                trace_id,
                kind: RequestKind::Ingest,
                total_ns: 0,
                spans: vec![Span::new(SpanKind::QueueWait, waited)],
            });
        }
        shared
            .engine
            .metrics_registry()
            .record_stage(SpanKind::QueueWait, waited, trace_id);
        let mut state = shared.lock();
        state.applied += 1;
        shared.publish_gauges(&state);
        if let (Err(error), None) = (result, state.error.as_ref()) {
            state.error = Some(error);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piprov_core::name::{Channel, Principal};
    use piprov_core::provenance::{Event, Provenance};
    use piprov_core::value::Value;
    use piprov_store::Operation;
    use std::path::PathBuf;
    use std::time::Duration;

    fn temp_dir(name: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("piprov-ingestq-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record(i: u64) -> ProvenanceRecord {
        let who = Principal::new(format!("p{}", i % 5));
        let k = Provenance::single(Event::output(who.clone(), Provenance::empty()));
        ProvenanceRecord::new(
            i,
            who,
            Operation::Send,
            "m",
            Value::Channel(Channel::new(format!("item{}", i))),
            k,
        )
    }

    fn batch(from: u64, len: u64) -> Vec<ProvenanceRecord> {
        (from..from + len).map(record).collect()
    }

    #[test]
    fn flooding_a_one_deep_queue_yields_busy_not_buffering() {
        let dir = temp_dir("busy");
        let engine = Arc::new(AuditEngine::open(&dir).unwrap());
        let queue = IngestQueue::start(Arc::clone(&engine), 1);
        queue.set_paused(true);
        assert!(queue.try_submit(batch(0, 4)).is_accepted());
        // The queue is full and the worker is paused: every further batch
        // is rejected with a typed Busy — no unbounded buffering.
        for _ in 0..3 {
            assert_eq!(
                queue.try_submit(batch(100, 2)),
                SubmitOutcome::Busy { queue_depth: 1 }
            );
        }
        assert_eq!(queue.queue_depth(), 1);
        let stats = engine.stats();
        assert_eq!(stats.busy_rejections, 3);
        assert_eq!(stats.queue_depth, 1);
        assert_eq!(stats.ingested, 0, "nothing applied while paused");
        // Resume: the accepted batch lands, the rejected ones never will.
        queue.flush().unwrap();
        let stats = engine.stats();
        assert_eq!(stats.ingested, 4);
        assert_eq!(stats.ingest_batches, 1);
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(engine.record_count(), 4);
        // The queue accepts again after draining.
        assert!(queue.try_submit(batch(200, 1)).is_accepted());
        queue.shutdown().unwrap();
        assert_eq!(engine.record_count(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batches_apply_under_one_lock_acquisition_each() {
        let dir = temp_dir("batches");
        let engine = Arc::new(AuditEngine::open(&dir).unwrap());
        let queue = IngestQueue::start(Arc::clone(&engine), 8);
        for b in 0..5u64 {
            assert!(queue.try_submit(batch(b * 10, 10)).is_accepted());
        }
        queue.flush().unwrap();
        let stats = engine.stats();
        assert_eq!(stats.ingested, 50);
        assert_eq!(stats.ingest_batches, 5, "one lock acquisition per batch");
        assert_eq!(stats.busy_rejections, 0);
        queue.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_batches_are_accepted_no_ops() {
        let dir = temp_dir("empty");
        let engine = Arc::new(AuditEngine::open(&dir).unwrap());
        let queue = IngestQueue::start(Arc::clone(&engine), 1);
        assert_eq!(
            queue.try_submit(Vec::new()),
            SubmitOutcome::Accepted { queue_depth: 0 }
        );
        queue.shutdown().unwrap();
        assert_eq!(engine.stats().ingest_batches, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drop_drains_accepted_batches() {
        let dir = temp_dir("drop");
        let engine = Arc::new(AuditEngine::open(&dir).unwrap());
        {
            let queue = IngestQueue::start(Arc::clone(&engine), 4);
            assert!(queue.try_submit(batch(0, 3)).is_accepted());
            assert!(queue.try_submit(batch(10, 2)).is_accepted());
            // Dropped without an explicit flush.
        }
        assert_eq!(engine.record_count(), 5, "drop drains, not discards");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Takes a ticket whose result arrives on the returned channel.
    fn ticket(queue: &IngestQueue) -> mpsc::Receiver<Result<(), StoreError>> {
        let (sender, receiver) = mpsc::channel();
        queue.flush_then(Box::new(move |result| {
            let _ = sender.send(result);
        }));
        receiver
    }

    #[test]
    fn a_ticket_never_unpauses_and_runs_once_the_owner_resumes() {
        const RUN: Duration = Duration::from_secs(30);
        let dir = temp_dir("ticket");
        let engine = Arc::new(AuditEngine::open(&dir).unwrap());
        let queue = IngestQueue::start(Arc::clone(&engine), 4);
        queue.set_paused(true);
        assert!(queue.try_submit(batch(0, 3)).is_accepted());
        // The ticket must not flip the pause hook: behind the paused
        // queue's batch it does not run...
        let answer = ticket(&queue);
        assert!(matches!(
            answer.recv_timeout(Duration::from_millis(50)),
            Err(mpsc::RecvTimeoutError::Timeout)
        ));
        // ...and the queue is still paused: nothing was applied.
        assert_eq!(
            engine.stats().ingested,
            0,
            "the ticket left the pause alone"
        );
        assert_eq!(queue.queue_depth(), 1);
        // Once the owner resumes, the same ticket runs.
        queue.set_paused(false);
        answer.recv_timeout(RUN).unwrap().unwrap();
        assert_eq!(engine.stats().ingested, 3);
        // An idle queue's ticket runs at once even while paused.
        queue.set_paused(true);
        ticket(&queue).recv_timeout(RUN).unwrap().unwrap();
        queue.set_paused(false);
        queue.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_ticket_waits_only_for_the_batches_accepted_before_it() {
        // Records that each carry one 1,000-event history: a batch of
        // 2,000 takes ~0.4 s to apply in a release build and seconds in a
        // debug one.  The ticket reads the visible count on the drain
        // worker, so a ticket that waited for that batch would see it.
        let dir = temp_dir("later-batches");
        let engine = Arc::new(AuditEngine::open(&dir).unwrap());
        let queue = IngestQueue::start(Arc::clone(&engine), 4);
        let history =
            Provenance::from_events((0..1_000).map(|i| {
                Event::output(Principal::new(format!("p{}", i % 7)), Provenance::empty())
            }));
        let slow: Vec<ProvenanceRecord> = (0..2_000u64)
            .map(|i| {
                let value = Value::Channel(Channel::new(format!("slow{}", i)));
                ProvenanceRecord::new(i, "p0", Operation::Send, "m", value, history.clone())
            })
            .collect();
        queue.set_paused(true);
        assert!(queue.try_submit(batch(0, 1)).is_accepted());
        let (sender, answer) = mpsc::channel();
        let counted = Arc::clone(&engine);
        queue.flush_then(Box::new(move |result| {
            let _ = sender.send((result, counted.record_count()));
        }));
        assert!(queue.try_submit(slow).is_accepted());
        queue.set_paused(false);
        let (result, visible) = answer.recv().unwrap();
        result.expect("the ticket waits for the first batch alone");
        assert_eq!(visible, 1, "the ticket ran before the later batch applied");
        queue.flush().unwrap();
        assert_eq!(engine.record_count(), 2_001);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gauges_match_queue_state_at_quiescence_and_after_a_busy_flood() {
        let dir = temp_dir("gauges");
        let engine = Arc::new(AuditEngine::open(&dir).unwrap());
        let queue = IngestQueue::start(Arc::clone(&engine), 2);
        // Pause, fill to capacity, then flood: the Busy path must refresh
        // the gauges too, so they describe the real queue afterwards.
        queue.set_paused(true);
        assert!(queue.try_submit(batch(0, 2)).is_accepted());
        assert!(queue.try_submit(batch(10, 2)).is_accepted());
        for i in 0..20u64 {
            assert!(!queue.try_submit(batch(100 + i * 10, 1)).is_accepted());
        }
        let stats = engine.stats();
        assert_eq!(stats.queue_depth as usize, queue.queue_depth());
        assert_eq!(stats.queue_depth, 2);
        assert_eq!(
            stats.snapshot_lag, 2,
            "paused worker: lag is exactly the queued batches"
        );
        assert_eq!(stats.busy_rejections, 20);
        // Drain to quiescence: both gauges return to zero and agree with
        // the queue's own accounting.
        queue.flush().unwrap();
        let stats = engine.stats();
        assert_eq!(queue.queue_depth(), 0);
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.snapshot_lag, 0);
        queue.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traced_submissions_deposit_a_queue_wait_span() {
        use crate::trace::{SpanKind, TraceCollector, TraceConfig, TraceContext};
        let dir = temp_dir("traced");
        let engine = Arc::new(AuditEngine::open(&dir).unwrap());
        let collector = Arc::new(TraceCollector::new(TraceConfig {
            slow_threshold: Duration::ZERO,
            ..TraceConfig::default()
        }));
        let queue =
            IngestQueue::start_with_trace(Arc::clone(&engine), 4, Some(Arc::clone(&collector)));
        let sampled = TraceContext {
            trace_id: 0xfeed,
            sampled: true,
        };
        let unsampled = TraceContext {
            trace_id: 0xdead,
            sampled: false,
        };
        assert!(queue
            .try_submit_traced(batch(0, 3), Some(sampled))
            .is_accepted());
        assert!(queue
            .try_submit_traced(batch(10, 2), Some(unsampled))
            .is_accepted());
        assert!(queue.try_submit(batch(20, 1)).is_accepted());
        queue.flush().unwrap();
        let traces = collector.snapshot(0);
        assert_eq!(traces.len(), 1, "only the sampled batch leaves a trace");
        assert_eq!(traces[0].trace_id, 0xfeed);
        assert_eq!(traces[0].spans.len(), 1);
        assert_eq!(traces[0].spans[0].kind, SpanKind::QueueWait);
        assert!(traces[0].spans[0].duration_ns > 0);
        queue.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_submitters_never_exceed_capacity() {
        use std::thread;
        let dir = temp_dir("concurrent");
        let engine = Arc::new(AuditEngine::open(&dir).unwrap());
        let queue = Arc::new(IngestQueue::start(Arc::clone(&engine), 2));
        let submitters: Vec<_> = (0..4)
            .map(|t| {
                let queue = Arc::clone(&queue);
                thread::spawn(move || {
                    let mut accepted = 0u64;
                    let mut attempts = 0u64;
                    for i in 0..200u64 {
                        attempts += 1;
                        if queue
                            .try_submit(batch(t * 10_000 + i * 10, 3))
                            .is_accepted()
                        {
                            accepted += 1;
                        }
                        assert!(queue.queue_depth() <= 2);
                    }
                    (accepted, attempts)
                })
            })
            .collect();
        let mut accepted = 0u64;
        for handle in submitters {
            let (a, _) = handle.join().unwrap();
            accepted += a;
        }
        let queue = Arc::try_unwrap(queue).expect("all submitters joined");
        queue.shutdown().unwrap();
        let stats = engine.stats();
        assert_eq!(stats.ingested, accepted * 3);
        assert_eq!(stats.ingest_batches, accepted);
        assert_eq!(
            stats.busy_rejections,
            4 * 200 - accepted,
            "every attempt either lands or is counted busy"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
