//! Bounded, batched ingest with typed back-pressure.
//!
//! The serving layer must never buffer a hostile or merely over-eager
//! writer without bound: the [`IngestQueue`] holds at most a configured
//! number of *batches*; a submission that finds the queue full is rejected
//! immediately with [`SubmitOutcome::Busy`] (counted in
//! [`crate::EngineStats::busy_rejections`]) instead of growing the heap.
//! Accepted batches are drained by one worker thread that applies each
//! batch to the [`AuditEngine`] under a **single write-lock acquisition**
//! ([`AuditEngine::ingest_batch`]), so ingest pays for the lock — and for
//! the auditors it excludes — once per batch rather than once per record.
//!
//! The queue is what a network front-end (see `piprov-serve`) answers
//! `IngestBatch` requests with: `Accepted` becomes an `IngestAck` frame,
//! `Busy` becomes a typed `Busy` frame the client can back off on — and
//! remote `Flush` frames are answered by [`IngestQueue::barrier`], the
//! bounded wait that (unlike the owner-facing [`IngestQueue::flush`])
//! never flips the pause hook and never parks a server thread forever.

use crate::engine::AuditEngine;
use crate::trace::{RequestKind, Span, SpanKind, TraceCollector, TraceContext, TraceRecord};
use piprov_store::{ProvenanceRecord, StoreError};
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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

/// Mutable queue state, guarded by one mutex.
struct QueueState {
    /// Accepted batches, each stamped with its submit instant so the
    /// drain worker can record submit→applied queue-wait latency, plus the
    /// trace context of the submitting request (if it was sampled) so the
    /// asynchronous queue-wait span lands in the same trace.
    batches: VecDeque<(Instant, Vec<ProvenanceRecord>, Option<TraceContext>)>,
    /// The worker is currently applying a popped batch (it no longer counts
    /// against the capacity, but a flush must still wait for it).
    in_flight: bool,
    /// While paused the worker leaves the queue untouched — a test hook
    /// that makes back-pressure deterministic to observe.
    paused: bool,
    closed: bool,
    /// First store error the worker hit; surfaced by flush/shutdown.
    error: Option<StoreError>,
}

struct Shared {
    engine: Arc<AuditEngine>,
    state: Mutex<QueueState>,
    /// Wakes the worker: new batch, unpause, or close.
    work: Condvar,
    /// Wakes flushers: the queue drained and the worker went idle.
    idle: Condvar,
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
        let depth = state.batches.len();
        self.engine.set_queue_depth(depth);
        // A popped batch no longer counts against the queue depth but is
        // still invisible to readers until its snapshot publishes — the
        // lag an operator watches where `queue_depth` alone would hide it.
        self.engine
            .set_snapshot_lag(depth + state.in_flight as usize);
    }
}

/// Why [`IngestQueue::barrier`] did not come back clean.
#[derive(Debug)]
pub enum BarrierError {
    /// The queue did not drain within the allowed wait.  The queue itself
    /// is unharmed — batches keep draining; only this caller gave up.
    TimedOut {
        /// Batches still waiting when the barrier gave up.
        queue_depth: usize,
        /// Whether the worker was mid-application at that moment.
        in_flight: bool,
    },
    /// The worker (or the final store sync) hit a store error.
    Store(StoreError),
}

impl fmt::Display for BarrierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BarrierError::TimedOut {
                queue_depth,
                in_flight,
            } => write!(
                f,
                "ingest barrier timed out ({} batches queued, worker {})",
                queue_depth,
                if *in_flight { "applying" } else { "idle" }
            ),
            BarrierError::Store(error) => write!(f, "ingest barrier: {}", error),
        }
    }
}

impl std::error::Error for BarrierError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BarrierError::TimedOut { .. } => None,
            BarrierError::Store(error) => Some(error),
        }
    }
}

impl From<StoreError> for BarrierError {
    fn from(error: StoreError) -> Self {
        BarrierError::Store(error)
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
                in_flight: false,
                paused: false,
                closed: false,
                error: None,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
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
        if state.closed || depth >= self.shared.capacity {
            // Refresh the gauges on rejection too: a Busy flood must leave
            // them describing the real queue, not the last acceptance.
            self.shared.publish_gauges(&state);
            drop(state);
            self.shared.engine.note_busy_rejection();
            return SubmitOutcome::Busy { queue_depth: depth };
        }
        state.batches.push_back((Instant::now(), batch, trace));
        let queue_depth = state.batches.len();
        self.shared.publish_gauges(&state);
        drop(state);
        self.shared.work.notify_one();
        SubmitOutcome::Accepted { queue_depth }
    }

    /// Pauses or resumes the drain worker.  While paused, accepted batches
    /// stay queued and overflow turns into `Busy` — the hook that makes
    /// back-pressure tests deterministic.
    pub fn set_paused(&self, paused: bool) {
        self.shared.lock().paused = paused;
        self.shared.work.notify_all();
    }

    /// Blocks until every queued batch has been applied and the worker is
    /// idle, then syncs the engine's store, so everything submitted before
    /// the call is both queryable and durable after it.
    ///
    /// Unpauses the worker first (a paused queue would otherwise never
    /// drain) and waits without bound — this is the owner/test path; a
    /// network front-end answering remote `Flush` frames must use
    /// [`IngestQueue::barrier`] instead, which touches neither the pause
    /// hook nor a thread's patience.
    ///
    /// # Errors
    ///
    /// Surfaces the first error the worker hit since the last flush, or a
    /// sync failure.
    pub fn flush(&self) -> Result<(), StoreError> {
        let mut state = self.shared.lock();
        state.paused = false;
        self.shared.work.notify_all();
        while !state.batches.is_empty() || state.in_flight {
            state = match self.shared.idle.wait(state) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        if let Some(error) = state.error.take() {
            return Err(error);
        }
        drop(state);
        self.shared.engine.sync()
    }

    /// Waits — at most `timeout` — for every queued batch to be applied
    /// and the worker to go idle, then syncs the engine's store: the
    /// wire-facing flush barrier.
    ///
    /// Unlike [`IngestQueue::flush`], this is safe to expose to untrusted
    /// remote callers:
    ///
    /// * it **never touches the pause hook** — a queue deliberately paused
    ///   by its owner (a deterministic test, an operator) stays paused; the
    ///   barrier simply times out if the queue cannot drain;
    /// * the wait is **bounded** — a slow or hostile flusher parks the
    ///   calling thread for at most `timeout`, not forever.
    ///
    /// # Errors
    ///
    /// [`BarrierError::TimedOut`] if the queue did not drain in time (the
    /// queue keeps draining; only this wait gave up), or
    /// [`BarrierError::Store`] surfacing the first error the worker hit
    /// since the last flush/barrier, or a sync failure.
    pub fn barrier(&self, timeout: Duration) -> Result<(), BarrierError> {
        let deadline = Instant::now().checked_add(timeout);
        let mut state = self.shared.lock();
        while !state.batches.is_empty() || state.in_flight {
            let remaining = deadline
                .map(|d| d.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::MAX);
            if remaining.is_zero() {
                return Err(BarrierError::TimedOut {
                    queue_depth: state.batches.len(),
                    in_flight: state.in_flight,
                });
            }
            let (guard, _) = match self.shared.idle.wait_timeout(state, remaining) {
                Ok(result) => result,
                Err(poisoned) => poisoned.into_inner(),
            };
            state = guard;
        }
        if let Some(error) = state.error.take() {
            return Err(BarrierError::Store(error));
        }
        drop(state);
        self.shared.engine.sync()?;
        Ok(())
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

/// The worker: pop a batch (unless paused), apply it under one write lock,
/// publish the depth gauge, repeat until closed and drained.
fn drain_loop(shared: &Shared) {
    loop {
        let batch = {
            let mut state = shared.lock();
            loop {
                // A closed queue still drains what was accepted.
                if !state.paused || state.closed {
                    if let Some(stamped) = state.batches.pop_front() {
                        state.in_flight = true;
                        shared.publish_gauges(&state);
                        break Some(stamped);
                    }
                }
                if state.closed {
                    break None;
                }
                state = match shared.work.wait(state) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        let Some((submitted, batch, trace)) = batch else {
            shared.idle.notify_all();
            return;
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
        state.in_flight = false;
        shared.publish_gauges(&state);
        if let (Err(error), None) = (result, state.error.as_ref()) {
            state.error = Some(error);
        }
        if state.batches.is_empty() {
            drop(state);
            shared.idle.notify_all();
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

    #[test]
    fn barrier_never_unpauses_and_times_out_bounded() {
        let dir = temp_dir("barrier");
        let engine = Arc::new(AuditEngine::open(&dir).unwrap());
        let queue = IngestQueue::start(Arc::clone(&engine), 4);
        queue.set_paused(true);
        assert!(queue.try_submit(batch(0, 3)).is_accepted());
        // The barrier must not flip the pause hook: the queue cannot
        // drain, so the bounded wait times out with the typed error...
        let started = Instant::now();
        let error = queue.barrier(Duration::from_millis(50)).unwrap_err();
        assert!(
            matches!(
                error,
                BarrierError::TimedOut {
                    queue_depth: 1,
                    in_flight: false
                }
            ),
            "{:?}",
            error
        );
        assert!(error.to_string().contains("timed out"));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the wait is bounded"
        );
        // ...and the queue is still paused: nothing was applied.
        assert_eq!(engine.stats().ingested, 0, "barrier left the pause alone");
        assert_eq!(queue.queue_depth(), 1);
        // Once the owner resumes, the same barrier succeeds.
        queue.set_paused(false);
        queue.barrier(Duration::from_secs(30)).unwrap();
        assert_eq!(engine.stats().ingested, 3);
        // An idle queue's barrier returns immediately even while paused.
        queue.set_paused(true);
        queue.barrier(Duration::from_millis(1)).unwrap();
        queue.set_paused(false);
        queue.shutdown().unwrap();
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
