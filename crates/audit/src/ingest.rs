//! Bounded, batched ingest with typed back-pressure.
//!
//! The serving layer must never buffer a hostile or merely over-eager
//! writer without bound: the [`IngestQueue`] holds at most a configured
//! number of *batches*, and at most [`MAX_QUEUED_BYTES`] of encoded record
//! bodies; a submission that does not fit is rejected immediately with
//! [`SubmitOutcome::Busy`] (counted in
//! [`crate::EngineStats::busy_rejections`]) instead of growing the heap.
//! Accepted batches are drained by one worker thread that applies each
//! batch to the [`AuditEngine`] under a **single store-lock acquisition**
//! ([`AuditEngine::ingest_batch`]), so ingest pays for the lock — and for
//! the auditors it excludes — once per batch rather than once per record.
//!
//! A network front-end (see `piprov-serve`) admits an `IngestBatch` frame
//! with [`IngestQueue::admit`] before anything in it is decoded: `Accepted`
//! becomes an `IngestAck` frame, which means *queued*, and `Busy` a typed
//! `Busy` frame the client can back off on.  The drain worker decodes an
//! admitted batch's record bodies outside the store lock, and applies the
//! batch only if every body decodes.  Each batch carries its *origin*, the
//! id of whoever submitted it (a connection), and a failure belongs to
//! that origin alone: the origin's next flush ticket
//! ([`IngestQueue::flush_then`]) reports it, no other origin's ticket sees
//! it, and [`IngestQueue::forget`] drops it once the origin has gone.
//!
//! A ticket runs on the drain worker once the batches accepted before it
//! are applied, and before any later batch starts.  Tickets that fall due
//! together share one store sync (group commit).  No thread waits for a
//! ticket, a ticket never flips the pause hook, and batches accepted after
//! it cannot delay it, so producers that keep the queue full cannot
//! starve a flusher.

use crate::engine::AuditEngine;
use crate::trace::{RequestKind, Span, SpanKind, TraceCollector, TraceContext, TraceRecord};
use piprov_store::codec::{decode_bodies, encode_body, Bytes};
use piprov_store::{ProvenanceRecord, StoreError};
use std::collections::{HashMap, VecDeque};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// The most encoded record-body bytes the queue holds.  A batch that
/// would take the queue past it is refused `Busy`, unless the queue is
/// empty: an empty queue admits one batch of any size, so every frame the
/// wire's size cap lets through can be admitted.
pub const MAX_QUEUED_BYTES: usize = 64 << 20;

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
/// first failure among its origin's batches since that origin's last
/// ticket ran.
pub type FlushDone = Box<dyn FnOnce(Result<(), StoreError>) + Send>;

/// One accepted batch.
struct Batch {
    /// When it was accepted: the drain worker records submit → applied
    /// as the batch's queue wait.
    submitted: Instant,
    /// One record body per record, which the drain worker decodes.
    bodies: Vec<Bytes>,
    origin: u64,
    /// Encoded bytes it holds.
    bytes: usize,
    /// The submitting request's trace context (if it was sampled), so the
    /// asynchronous queue-wait span lands in the same trace.
    trace: Option<TraceContext>,
}

/// A flush ticket: the `accepted` count it waits for, its origin, and what
/// it runs — nothing for the mark that its origin has gone.
type Ticket = (u64, u64, Option<FlushDone>);

/// Mutable queue state, guarded by one mutex.
struct QueueState {
    batches: VecDeque<Batch>,
    /// Encoded bytes held by `batches`.
    bytes: usize,
    /// Batches accepted over the queue's lifetime.
    accepted: u64,
    /// Batches applied over the queue's lifetime.  `accepted - applied`
    /// counts the queued batches plus the one the worker is applying.
    applied: u64,
    /// Tickets in submission order.  The worker runs a ticket as soon as
    /// `applied` reaches its target, before it starts any later batch.
    tickets: VecDeque<Ticket>,
    /// The first failure of each origin that no ticket of that origin
    /// has taken yet.
    failures: HashMap<u64, StoreError>,
    /// While paused the worker leaves the queue untouched — a test hook
    /// that makes back-pressure deterministic to observe.
    paused: bool,
    closed: bool,
}

struct Shared {
    engine: Arc<AuditEngine>,
    state: Mutex<QueueState>,
    /// Wakes the worker: new batch, new ticket, unpause or close.
    work: Condvar,
    capacity: usize,
    /// Where the drain worker deposits queue-wait spans for traced batches.
    collector: Option<Arc<TraceCollector>>,
    /// Store syncs the drain worker has run.
    #[cfg(test)]
    syncs: std::sync::atomic::AtomicU64,
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

    /// Queues a ticket behind every batch accepted so far.
    fn ticket(&self, origin: u64, done: Option<FlushDone>) {
        let mut state = self.lock();
        let target = state.accepted;
        state.tickets.push_back((target, origin, done));
        drop(state);
        self.work.notify_one();
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
    /// The origin of [`IngestQueue::try_submit`]'s batches, which
    /// [`IngestQueue::flush`] reports on.
    pub const OWNER: u64 = 0;

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
                bytes: 0,
                accepted: 0,
                applied: 0,
                tickets: VecDeque::new(),
                failures: HashMap::new(),
                paused: false,
                closed: false,
            }),
            work: Condvar::new(),
            capacity: capacity.max(1),
            collector,
            #[cfg(test)]
            syncs: Default::default(),
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

    /// Origins whose failure no ticket has taken yet: each holds one
    /// error until its next ticket, or [`IngestQueue::forget`], takes it.
    pub fn unclaimed_failures(&self) -> usize {
        self.shared.lock().failures.len()
    }

    /// Submits one batch of records without blocking, as
    /// [`IngestQueue::OWNER`]: encodes each record's body and
    /// [`IngestQueue::admit`]s them, so the batch takes the wire's path
    /// through the queue.  Like a wire batch, it counts its encoded bytes
    /// against [`MAX_QUEUED_BYTES`], and it applies only if the drain
    /// worker decodes every record: one the decoder refuses (for example,
    /// one nested deeper than [`piprov_store::record::MAX_PROVENANCE_DEPTH`])
    /// fails the whole batch, and [`IngestQueue::flush`] reports it.
    pub fn try_submit(&self, batch: Vec<ProvenanceRecord>) -> SubmitOutcome {
        let bodies = batch.iter().map(encode_body).collect();
        self.admit(Self::OWNER, bodies, None)
    }

    /// Admits a batch still encoded — one record body per record, in the
    /// store's body format — on behalf of `origin`, without blocking and
    /// without decoding anything: a front end answers its ingest frames
    /// with this.  An empty batch is accepted as a no-op.  The batch
    /// counts against the queue's batch capacity and against
    /// [`MAX_QUEUED_BYTES`]; a full (or shut-down) queue rejects it with
    /// [`SubmitOutcome::Busy`] — nothing is buffered, and the rejection
    /// is counted in the engine's `busy_rejections`.
    ///
    /// The drain worker decodes the bodies outside the store lock and
    /// applies the batch only if every body decodes.  A body that fails
    /// to decode, or a failed append, is recorded against `origin`: its
    /// next ticket reports it, and no other origin's does.  Every body is
    /// checked before any is interned, so a batch that fails to decode
    /// leaves nothing in the interner.  `trace` rides along so the drain
    /// worker can stamp the asynchronous queue-wait span into the same
    /// trace.
    pub fn admit(
        &self,
        origin: u64,
        bodies: Vec<Bytes>,
        trace: Option<TraceContext>,
    ) -> SubmitOutcome {
        let shared = &self.shared;
        let bytes = bodies.iter().map(Bytes::len).sum();
        let mut state = shared.lock();
        let depth = state.batches.len();
        if bodies.is_empty() {
            return SubmitOutcome::Accepted { queue_depth: depth };
        }
        let too_big = depth > 0 && state.bytes + bytes > MAX_QUEUED_BYTES;
        if state.closed || depth >= shared.capacity || too_big {
            // Refresh the gauges on rejection too: a Busy flood must leave
            // them describing the real queue, not the last acceptance.
            shared.publish_gauges(&state);
            shared.engine.note_busy_rejection();
            return SubmitOutcome::Busy { queue_depth: depth };
        }
        state.bytes += bytes;
        state.batches.push_back(Batch {
            submitted: Instant::now(),
            bodies,
            origin,
            bytes,
            trace,
        });
        state.accepted += 1;
        shared.publish_gauges(&state);
        drop(state);
        shared.work.notify_one();
        SubmitOutcome::Accepted {
            queue_depth: depth + 1,
        }
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
    /// Surfaces the first failure among [`IngestQueue::OWNER`]'s batches
    /// since its last flush, or a sync failure.  An admitted batch's
    /// failure belongs to its own origin, and this never reports it.
    pub fn flush(&self) -> Result<(), StoreError> {
        self.set_paused(false);
        let (sender, receiver) = mpsc::channel();
        self.flush_then(
            Self::OWNER,
            Box::new(move |result| {
                let _ = sender.send(result);
            }),
        );
        receiver.recv().expect("the drain worker runs every ticket")
    }

    /// Takes a flush ticket for `origin` and returns at once: the
    /// wire-facing flush.  Once every batch accepted before the call has
    /// been applied, and before it starts any later batch, the drain
    /// worker runs `done` with `origin`'s first failure since its last
    /// ticket, if it has one, or else with the result of a store sync
    /// that every ticket falling due with this one shares.  Batches
    /// accepted after the call cannot delay it.
    ///
    /// Unlike [`IngestQueue::flush`], this is safe to expose to untrusted
    /// remote callers: it **never touches the pause hook** (behind a
    /// paused queue's batches the ticket waits until the owner resumes
    /// the queue; on an idle queue it runs at once, paused or not), and no
    /// thread waits for it.  `done` runs on the drain worker, so it should
    /// hand its result on rather than do slow work.
    pub fn flush_then(&self, origin: u64, done: FlushDone) {
        self.shared.ticket(origin, Some(done));
    }

    /// Says that `origin` has gone: once its batches accepted so far are
    /// applied, the drain worker drops its unclaimed failure, so an origin
    /// that never flushes leaves nothing behind.  The origin must submit
    /// nothing after this.
    pub fn forget(&self, origin: u64) {
        self.shared.ticket(origin, None);
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

/// The worker: run every ticket whose batches are applied, else pop a
/// batch (unless paused), decode and apply it under one store lock and
/// publish the gauges; repeat until closed and drained.
fn drain_loop(shared: &Shared) {
    loop {
        let batch = {
            let mut state = shared.lock();
            loop {
                let mut due = Vec::new();
                while let Some(&(target, origin, _)) = state.tickets.front() {
                    if target > state.applied {
                        break;
                    }
                    let (_, _, done) = state.tickets.pop_front().expect("a ticket");
                    let failure = state.failures.remove(&origin);
                    due.extend(done.map(|done| (done, failure)));
                }
                if !due.is_empty() {
                    drop(state);
                    // The worker syncs before it starts any later batch,
                    // so no batch holds the store lock the sync waits for.
                    answer_tickets(shared, due);
                    state = shared.lock();
                    continue;
                }
                // A closed queue still drains what was accepted.
                if !state.paused || state.closed {
                    if let Some(batch) = state.batches.pop_front() {
                        state.bytes -= batch.bytes;
                        shared.publish_gauges(&state);
                        break batch;
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
        // Decode every body before the first append, outside the store
        // lock: a body that fails leaves the whole batch unapplied, and
        // nothing of it interned.
        let result =
            decode_bodies(batch.bodies).and_then(|records| shared.engine.ingest_batch(records));
        // Submit → applied: the wait a producer's read-your-writes poll
        // experiences, queue time, decode and apply time included.
        let waited = u64::try_from(batch.submitted.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // The serve layer already recorded the synchronous half of the
        // trace (decode/handle/write around the IngestAck); this record
        // carries only the asynchronous queue-wait span and merges with it
        // by trace id at snapshot time.
        let trace_id = batch.trace.filter(|t| t.sampled).map(|t| t.trace_id);
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
        if let Err(error) = result {
            state.failures.entry(batch.origin).or_insert(error);
        }
    }
}

/// Runs the tickets that fell due together, each with its origin's
/// failure if it has one, or else with the result of one shared sync.
fn answer_tickets(shared: &Shared, due: Vec<(FlushDone, Option<StoreError>)>) {
    let needs_sync = due.iter().any(|(_, failure)| failure.is_none());
    let synced = needs_sync.then(|| {
        #[cfg(test)]
        shared
            .syncs
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        shared.engine.sync()
    });
    for (done, failure) in due {
        done(match (failure, &synced) {
            (Some(failure), _) => Err(failure),
            (None, Some(Err(error))) => Err(copy_error(error)),
            (None, _) => Ok(()),
        });
    }
}

/// One more value of a store error, for each ticket a failed sync fails:
/// [`StoreError`] is not `Clone`, because `std::io::Error` is not.
fn copy_error(error: &StoreError) -> StoreError {
    match error {
        StoreError::Io(e) => StoreError::Io(std::io::Error::new(e.kind(), e.to_string())),
        other => StoreError::Io(std::io::Error::other(other.to_string())),
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

    /// Takes a ticket for `origin` whose result arrives on the returned
    /// channel.
    fn ticket_for(queue: &IngestQueue, origin: u64) -> mpsc::Receiver<Result<(), StoreError>> {
        let (sender, receiver) = mpsc::channel();
        queue.flush_then(
            origin,
            Box::new(move |result| {
                let _ = sender.send(result);
            }),
        );
        receiver
    }

    /// Takes a ticket as the queue's owner.
    fn ticket(queue: &IngestQueue) -> mpsc::Receiver<Result<(), StoreError>> {
        ticket_for(queue, IngestQueue::OWNER)
    }

    /// The record bodies of `records`, as a front end admits them.
    fn bodies(records: &[ProvenanceRecord]) -> Vec<Bytes> {
        records
            .iter()
            .map(piprov_store::codec::encode_body)
            .collect()
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
        queue.flush_then(
            IngestQueue::OWNER,
            Box::new(move |result| {
                let _ = sender.send((result, counted.record_count()));
            }),
        );
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
            .admit(7, bodies(&batch(0, 3)), Some(sampled))
            .is_accepted());
        assert!(queue
            .admit(7, bodies(&batch(10, 2)), Some(unsampled))
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

    /// The body of `record` with its root reference pointed past its node
    /// table: it fails to decode.
    fn dangling_body(record: &ProvenanceRecord) -> Bytes {
        let mut body = piprov_store::codec::encode_body(record).to_vec();
        let root = body.len() - 4;
        body[root..].copy_from_slice(&999u32.to_be_bytes());
        Bytes::from(body)
    }

    /// Before group commit every ticket synced on its own: three that fell
    /// due together cost three syncs.
    #[test]
    fn three_tickets_that_fall_due_together_cost_one_sync() {
        let dir = temp_dir("group-commit");
        let engine = Arc::new(AuditEngine::open(&dir).unwrap());
        let queue = IngestQueue::start(Arc::clone(&engine), 4);
        queue.set_paused(true);
        assert!(queue.try_submit(batch(0, 2)).is_accepted());
        let answers: Vec<_> = (1..=3).map(|origin| ticket_for(&queue, origin)).collect();
        queue.set_paused(false);
        for answer in answers {
            answer.recv().unwrap().unwrap();
        }
        let syncs = &queue.shared.syncs;
        assert_eq!(syncs.load(std::sync::atomic::Ordering::Relaxed), 1);
        // A ticket whose origin failed answers its failure and needs no
        // sync of its own.
        assert!(queue
            .admit(5, vec![dangling_body(&record(9))], None)
            .is_accepted());
        assert!(ticket_for(&queue, 5).recv().unwrap().is_err());
        assert_eq!(syncs.load(std::sync::atomic::Ordering::Relaxed), 1);
        queue.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Before per-origin attribution one error slot went to whichever
    /// ticket ran next, and a failing batch's good records were stored.
    #[test]
    fn a_failed_batch_applies_nothing_and_fails_only_its_own_origins_ticket() {
        let dir = temp_dir("attribution");
        let engine = Arc::new(AuditEngine::open(&dir).unwrap());
        let queue = IngestQueue::start(Arc::clone(&engine), 4);
        queue.set_paused(true);
        let mut failing = bodies(&batch(0, 2));
        failing.push(dangling_body(&record(2)));
        assert!(queue.admit(1, failing, None).is_accepted());
        assert!(queue.admit(2, bodies(&batch(10, 1)), None).is_accepted());
        let second = ticket_for(&queue, 2);
        let first = ticket_for(&queue, 1);
        queue.set_paused(false);
        second.recv().unwrap().expect("origin 2's batch applied");
        match first.recv().unwrap() {
            Err(StoreError::Corrupt(what)) => assert!(what.contains("reference"), "{}", what),
            other => panic!("expected origin 1's decode failure, got {:?}", other),
        }
        assert_eq!(engine.record_count(), 1, "the failed batch applied nothing");
        assert_eq!(queue.unclaimed_failures(), 0, "the ticket took the failure");
        // The failure was reported once: origin 1's next ticket is clean.
        ticket_for(&queue, 1).recv().unwrap().unwrap();
        queue.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An owner's batch takes the wire's path: it counts its encoded
    /// bytes, and a record the decoder refuses fails the whole batch.
    #[test]
    fn a_submitted_batch_counts_its_bytes_and_fails_whole() {
        let dir = temp_dir("submitted-whole");
        let engine = Arc::new(AuditEngine::open(&dir).unwrap());
        let queue = IngestQueue::start(Arc::clone(&engine), 4);
        let deep = (0..=piprov_store::record::MAX_PROVENANCE_DEPTH)
            .fold(Provenance::empty(), |channel, _| {
                Provenance::single(Event::output(Principal::new("p"), channel))
            });
        let mut failing = batch(0, 2);
        failing.push(ProvenanceRecord {
            provenance: deep,
            ..record(2)
        });
        let encoded: usize = bodies(&failing).iter().map(Bytes::len).sum();
        queue.set_paused(true);
        assert!(queue.try_submit(failing).is_accepted());
        assert_eq!(queue.shared.lock().bytes, encoded);
        match queue.flush() {
            Err(StoreError::Corrupt(what)) => assert!(what.contains("deeper"), "{}", what),
            other => panic!("expected the deep record's decode failure, got {:?}", other),
        }
        assert_eq!(engine.record_count(), 0, "the failed batch applied nothing");
        assert!(queue.try_submit(batch(10, 1)).is_accepted());
        queue.shutdown().unwrap();
        assert_eq!(engine.record_count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_forgotten_origin_leaves_no_failure_behind() {
        let dir = temp_dir("forget");
        let engine = Arc::new(AuditEngine::open(&dir).unwrap());
        let queue = IngestQueue::start(Arc::clone(&engine), 4);
        let failing = || vec![dangling_body(&record(0))];
        // Forgotten after its failure was recorded...
        assert!(queue.admit(3, failing(), None).is_accepted());
        queue
            .flush()
            .expect("the owner hears of no other origin's failure");
        assert_eq!(queue.unclaimed_failures(), 1);
        queue.forget(3);
        queue.flush().unwrap();
        assert_eq!(queue.unclaimed_failures(), 0);
        // ...and before its batch was applied.
        queue.set_paused(true);
        assert!(queue.admit(4, failing(), None).is_accepted());
        queue.forget(4);
        queue.flush().unwrap();
        assert_eq!(queue.unclaimed_failures(), 0);
        assert_eq!(engine.record_count(), 0);
        queue.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn admitted_bytes_stay_under_the_byte_bound_and_an_empty_queue_admits_any_batch() {
        // Bodies are slices of one buffer: the queue counts their lengths,
        // and the test allocates 1 MiB.  They never decode, so the queue
        // stays paused until they are forgotten.
        const MIB: usize = 1 << 20;
        let buffer = Bytes::from(vec![0u8; MIB]);
        let frame = |mib: usize| vec![buffer.clone(); mib];
        let dir = temp_dir("byte-bound");
        let engine = Arc::new(AuditEngine::open(&dir).unwrap());
        let queue = IngestQueue::start(Arc::clone(&engine), 64);
        queue.set_paused(true);
        // Frames of the wire's default 16 MiB cap: four fill the bound,
        // with 60 batch slots left.
        for depth in 1..=4 {
            assert_eq!(
                queue.admit(1, frame(16), None),
                SubmitOutcome::Accepted { queue_depth: depth }
            );
        }
        for mib in [16, 1] {
            assert_eq!(
                queue.admit(1, frame(mib), None),
                SubmitOutcome::Busy { queue_depth: 4 }
            );
        }
        assert_eq!(queue.shared.lock().bytes, MAX_QUEUED_BYTES);
        assert_eq!(engine.stats().busy_rejections, 2);
        queue.forget(1);
        queue.flush().unwrap();
        assert_eq!(queue.shared.lock().bytes, 0);
        // An empty queue admits one batch past the bound, and nothing
        // behind it.
        queue.set_paused(true);
        assert!(queue.admit(2, frame(80), None).is_accepted());
        assert!(!queue.admit(2, frame(1), None).is_accepted());
        queue.forget(2);
        queue.flush().unwrap();
        assert_eq!(queue.unclaimed_failures(), 0);
        assert_eq!(engine.record_count(), 0);
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
