//! The thread-safe audit engine with MVCC snapshot reads.
//!
//! An [`AuditEngine`] owns a [`ProvenanceStore`] (the durable log) and a
//! versioned registry of named, pre-compiled policy patterns (see
//! [`crate::registry`]) — but audit queries never touch the store or its
//! reader-writer lock.  Instead, the ingest path appends each batch to the
//! store and publishes the store's copy-on-write view
//! ([`ProvenanceStore::view`]) as the next [`EngineSnapshot`] (`Arc`'d
//! record chunks + a structurally shared
//! [`piprov_store::SharedStoreIndex`] + a sequence watermark), and
//! [`AuditEngine::handle`] answers every request from the snapshot
//! current at its start.  The snapshot *is* the store's in-memory state,
//! so every record is held once.  Ingest can no longer starve readers:
//! however large the batch being applied, auditors keep answering from
//! the previously published snapshot, and pay only a snapshot load to
//! reach it — an `Arc` clone under a latch held for the pointer operation
//! alone (see [`crate::snapshot`]), never for the duration of a batch.
//!
//! # Consistency contract
//!
//! * **Batch atomicity** — a snapshot is published only after a whole
//!   ingest batch is appended, so no query ever observes a half-applied
//!   batch: a response mentions either none of a batch's records or all
//!   of the ones relevant to it, and never a record above its snapshot's
//!   watermark.
//! * **Monotone watermarks** — publications are ordered by the store's
//!   write lock, so the watermark carried by every [`AuditResponse`] is
//!   non-decreasing across any sequence of requests to one engine.
//! * **Read-your-writes** — [`AuditEngine::ingest_batch`] publishes
//!   before it returns: a caller that observes the returned sequence
//!   numbers (or polls [`AuditEngine::watermark`], or the wire layer's
//!   `Flushed` watermark) is guaranteed the next request answers at or
//!   above that watermark.
//! * **Repeatable reads** — pin a snapshot with [`AuditEngine::snapshot`]
//!   and serve any number of requests from it via
//!   [`AuditEngine::handle_at`]: all of them see the same frozen state.
//!
//! Two further shared structures make the concurrency real rather than
//! nominal: the core provenance interner is sharded (auditor threads
//! re-interning decoded histories contend per shard, not on one global
//! mutex), and each registered pattern's `(ProvId, state set)` memo is
//! bounded with epoch-based eviction ([`AuditConfig::memo_bound`]), so a
//! long-lived engine cannot grow without bound.

use crate::causal::{filtered_view, CounterfactualVerdict, EventFilter, WhySlice};
use crate::metrics::{MetricsRegistry, VetOutcomeKind};
use crate::registry::{
    PackInstall, PolicyEntry, PolicyInfo, PolicyListing, PolicyRegistry, PolicySet,
};
use crate::request::{AuditOutcome, AuditRequest, AuditResponse, RequestStats};
use crate::snapshot::{EngineSnapshot, SnapshotCell};
use piprov_patterns::{CompiledPattern, MatchStats, MemoStats, Pattern};
use piprov_policy::PolicyPack;
use piprov_store::{ProvenanceRecord, ProvenanceStore, SequenceNumber, StoreError, StoreStats};
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// Configuration of an [`AuditEngine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditConfig {
    /// Bound on each registered pattern's match memo (per automaton
    /// level); see [`piprov_patterns::DEFAULT_MEMO_BOUND`].
    pub memo_bound: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            memo_bound: piprov_patterns::DEFAULT_MEMO_BOUND,
        }
    }
}

/// Monotone counters (and one gauge) accumulated over the engine's
/// lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Requests served, by any thread.
    pub requests: u64,
    /// Records ingested.
    pub ingested: u64,
    /// Vet requests that answered `true`.
    pub vets_passed: u64,
    /// Vet requests that answered `false`.
    pub vets_failed: u64,
    /// Posting-list entries supplied by the store indexes, summed over
    /// all requests.
    pub index_hits: u64,
    /// Pattern-memo hits, summed over all vet requests.
    pub memo_hits: u64,
    /// Ingest batches applied (each under a single write-lock
    /// acquisition); single-record [`AuditEngine::ingest`] calls count as
    /// one-record batches.
    pub ingest_batches: u64,
    /// Ingest batches rejected with a typed `Busy` because the bounded
    /// ingest queue was full.
    pub busy_rejections: u64,
    /// **Gauge**: batches currently waiting in the ingest queue (0 when no
    /// queue is attached; see [`crate::IngestQueue`]).
    pub queue_depth: u64,
    /// Snapshots published over the engine's lifetime (one per applied
    /// ingest batch; the recovery snapshot is not counted).
    pub snapshots_published: u64,
    /// **Gauge**: ingest-queue batches accepted but not yet visible to
    /// snapshot readers (waiting in the queue or mid-application) — the
    /// read-side staleness an operator watches where `queue_depth` alone
    /// would hide the batch currently being applied.
    pub snapshot_lag: u64,
    /// **Gauge**: the currently published snapshot's watermark — the
    /// highest sequence number visible to readers.
    pub watermark: u64,
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Exhaustive destructuring (no `..`): adding a field to
        // `EngineStats` without rendering it here is a compile error, so
        // the human-readable surface cannot silently fall behind the
        // struct (the exposition writer in `crate::metrics` makes the same
        // guarantee for the Prometheus surface).
        let EngineStats {
            requests,
            ingested,
            vets_passed,
            vets_failed,
            index_hits,
            memo_hits,
            ingest_batches,
            busy_rejections,
            queue_depth,
            snapshots_published,
            snapshot_lag,
            watermark,
        } = *self;
        write!(
            f,
            "{} requests ({} vets: {} pass / {} fail), {} ingested in {} batches \
             ({} busy rejections, queue depth {}), {} index hits, {} memo hits, \
             watermark {} ({} snapshots published, lag {})",
            requests,
            vets_passed + vets_failed,
            vets_passed,
            vets_failed,
            ingested,
            ingest_batches,
            busy_rejections,
            queue_depth,
            index_hits,
            memo_hits,
            watermark,
            snapshots_published,
            snapshot_lag
        )
    }
}

/// A concurrent audit service over a provenance store and a registry of
/// compiled policy patterns.
///
/// The engine is `Sync`: share it across auditor threads behind an
/// [`Arc`] and call [`AuditEngine::handle`] from each.
#[derive(Debug)]
pub struct AuditEngine {
    /// The durable log.  Writers only: audit queries answer from the
    /// published snapshot and never acquire this lock in any mode.
    store: RwLock<ProvenanceStore>,
    /// The published [`EngineSnapshot`] every query reads.
    snapshot: SnapshotCell,
    /// The versioned policy registry.  Requests load one immutable
    /// [`PolicySet`] at entry; pack installation publishes the next
    /// set with a single pointer swap (see [`crate::registry`]).
    registry: PolicyRegistry,
    config: AuditConfig,
    /// Per-policy verdict counters and latency histograms (see
    /// [`crate::metrics`]).
    metrics: MetricsRegistry,
    /// When this engine was opened — the `piprov_uptime_seconds` anchor.
    started: Instant,
    requests: AtomicU64,
    ingested: AtomicU64,
    vets_passed: AtomicU64,
    vets_failed: AtomicU64,
    index_hits: AtomicU64,
    memo_hits: AtomicU64,
    ingest_batches: AtomicU64,
    busy_rejections: AtomicU64,
    queue_depth: AtomicU64,
    snapshots_published: AtomicU64,
    snapshot_lag: AtomicU64,
}

impl AuditEngine {
    /// Opens (or creates) a store in `directory` and wraps it in an
    /// engine with the default configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`ProvenanceStore::open`] failures.
    pub fn open(directory: impl AsRef<Path>) -> Result<Self, StoreError> {
        Ok(AuditEngine::new(ProvenanceStore::open(directory)?))
    }

    /// Wraps an already-open store with the default configuration.
    pub fn new(store: ProvenanceStore) -> Self {
        AuditEngine::with_config(store, AuditConfig::default())
    }

    /// Wraps an already-open store with an explicit configuration.  The
    /// store's recovered view becomes the first snapshot; no record is
    /// copied.
    pub fn with_config(store: ProvenanceStore, config: AuditConfig) -> Self {
        AuditEngine {
            snapshot: SnapshotCell::new(store.view()),
            store: RwLock::new(store),
            registry: PolicyRegistry::new(),
            config,
            metrics: MetricsRegistry::new(),
            started: Instant::now(),
            requests: AtomicU64::new(0),
            ingested: AtomicU64::new(0),
            vets_passed: AtomicU64::new(0),
            vets_failed: AtomicU64::new(0),
            index_hits: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            ingest_batches: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            snapshots_published: AtomicU64::new(0),
            snapshot_lag: AtomicU64::new(0),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AuditConfig {
        &self.config
    }

    /// Compiles `pattern` and registers it under `name`, replacing any
    /// previous pattern of that name.  The compiled automaton's memo (and
    /// every nested channel automaton's) is bounded by
    /// [`AuditConfig::memo_bound`].
    ///
    /// A programmatic registration is a one-policy copy-on-write edit of
    /// the current [`PolicySet`]: it bumps the pack version like a pack
    /// install does, and in-flight requests keep the set they loaded.
    pub fn register_pattern(&self, name: impl Into<String>, pattern: Pattern) {
        let name = name.into();
        let compiled = CompiledPattern::compile(&pattern);
        compiled.set_memo_bound(self.config.memo_bound);
        // Register with the metrics plane first so a vet racing this
        // registration always finds the policy's histogram in place; a
        // replaced pattern keeps its metric timeline.
        self.metrics.register_policy(&name);
        let entry = Arc::new(PolicyEntry {
            package: String::new(),
            source: pattern.to_string(),
            compiled: Arc::new(compiled),
        });
        let current = self.registry.load();
        let mut next: HashMap<String, Arc<PolicyEntry>> = current
            .iter()
            .map(|(n, e)| (n.clone(), Arc::clone(e)))
            .collect();
        next.insert(name, entry);
        self.registry.publish(next);
    }

    /// Installs a compiled policy pack as the engine's **entire** policy
    /// set, atomically.
    ///
    /// The next [`PolicySet`] is built off to the side — NFA compilation,
    /// memo bounds, metrics rows — and published with one pointer swap.
    /// In-flight requests keep answering from the set they loaded at
    /// entry, so no vet ever observes a half-installed pack; the caller
    /// is responsible for all-or-nothing *compilation* (a
    /// [`piprov_policy::PackError`] never reaches this method).
    ///
    /// A policy whose name, package, and canonical source are unchanged
    /// from the current set keeps its compiled automaton: memo state and
    /// metric timeline carry over ([`PackInstall::reused`] counts them).
    /// Policies absent from the pack — including programmatic
    /// [`AuditEngine::register_pattern`] registrations — are dropped and
    /// their metric rows retired.
    pub fn install_pack(&self, pack: &PolicyPack) -> PackInstall {
        let current = self.registry.load();
        let mut next: HashMap<String, Arc<PolicyEntry>> =
            HashMap::with_capacity(pack.policies.len());
        let mut reused = 0usize;
        for def in &pack.policies {
            let entry = match current.get(&def.name) {
                Some(existing)
                    if existing.source == def.source && existing.package == def.package =>
                {
                    reused += 1;
                    Arc::clone(existing)
                }
                _ => {
                    let compiled = CompiledPattern::compile(&def.pattern);
                    compiled.set_memo_bound(self.config.memo_bound);
                    Arc::new(PolicyEntry {
                        package: def.package.clone(),
                        source: def.source.clone(),
                        compiled: Arc::new(compiled),
                    })
                }
            };
            // Metrics rows exist before the set becomes visible, so a vet
            // racing the publish always finds its histogram; unchanged
            // names keep their timelines.
            self.metrics.register_policy(&def.name);
            next.insert(def.name.clone(), entry);
        }
        let installed = next.len();
        let published = self.registry.publish(next);
        // Retire rows the new set no longer names.  A vet that pinned the
        // *old* set and races this retirement finds `metrics.policy()`
        // empty and simply skips recording — never a panic.
        self.metrics
            .retain_policies(|name| published.get(name).is_some());
        PackInstall {
            version: published.version(),
            installed,
            reused,
        }
    }

    /// Lists the current policy set: its version plus every policy's
    /// name, source package, and canonical pattern text, sorted by name.
    pub fn policies(&self) -> PolicyListing {
        let set = self.registry.load();
        let mut policies: Vec<PolicyInfo> = set
            .iter()
            .map(|(name, entry)| PolicyInfo {
                name: name.clone(),
                package: entry.package.clone(),
                source: entry.source.clone(),
            })
            .collect();
        policies.sort_by(|a, b| a.name.cmp(&b.name));
        PolicyListing {
            version: set.version(),
            policies,
        }
    }

    /// The current policy-set version: 0 before anything is registered,
    /// bumped by every [`AuditEngine::install_pack`] and
    /// [`AuditEngine::register_pattern`].
    pub fn pack_version(&self) -> u64 {
        self.registry.load().version()
    }

    /// The engine's per-policy metrics registry (see [`crate::metrics`]).
    ///
    /// [`AuditEngine::metrics`] is the aggregated snapshot; this is the
    /// live registry, for callers that want a policy's
    /// [`crate::metrics::PolicyMetrics`] handle directly (benchmarks,
    /// tests).
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Names of the registered patterns, sorted.
    pub fn pattern_names(&self) -> Vec<String> {
        self.registry.load().names()
    }

    /// Memo statistics of the named pattern's top-level automaton.
    pub fn pattern_memo_stats(&self, name: &str) -> Option<MemoStats> {
        self.registry
            .load()
            .get(name)
            .map(|entry| entry.compiled.memo_stats())
    }

    /// Appends one record to the store and publishes it (a one-record
    /// batch).
    ///
    /// # Errors
    ///
    /// Propagates store append failures.
    pub fn ingest(&self, record: ProvenanceRecord) -> Result<SequenceNumber, StoreError> {
        let sequences = self.ingest_batch(vec![record])?;
        Ok(*sequences.first().expect("one record in, one sequence out"))
    }

    /// Appends a whole batch under **one** write-lock acquisition and
    /// publishes **one** snapshot for it, so a burst of ingest pays for
    /// the append lock and the publication once per batch instead of once
    /// per record — and readers observe the batch atomically (all of it
    /// or none of it), never a torn prefix.
    ///
    /// Publication happens before this method returns: read-your-writes
    /// holds for the returned sequence numbers.
    ///
    /// Records appended before a failure stay appended — and are
    /// published, so the snapshot never diverges from the durable log;
    /// the error reports the first record that could not be written.  A
    /// record whose append reached the log but failed afterwards (its
    /// sync or the segment rotation) is published too, though its
    /// sequence number is not returned.
    ///
    /// # Errors
    ///
    /// Propagates the first store append failure.
    pub fn ingest_batch(
        &self,
        records: Vec<ProvenanceRecord>,
    ) -> Result<Vec<SequenceNumber>, StoreError> {
        if records.is_empty() {
            return Ok(Vec::new());
        }
        let mut sequences = Vec::with_capacity(records.len());
        let mut store = self.write_store();
        let mut failure = None;
        for record in records {
            match store.append(record) {
                Ok(seq) => {
                    sequences.push(seq);
                    self.ingested.fetch_add(1, Ordering::Relaxed);
                }
                Err(error) => {
                    failure = Some(error);
                    break;
                }
            }
        }
        self.ingest_batches.fetch_add(1, Ordering::Relaxed);
        // The appends built the next snapshot off to the side: the store's
        // view copied its skeleton on the first append, because the
        // published snapshot shares it.  Publish it while the write lock
        // is still held, so publications carry the same total order as the
        // appends they describe (monotone watermarks).  Readers never wait
        // on any of this: they keep loading the previous snapshot until
        // the single-pointer swap.
        let next = store.view();
        if next.watermark() > self.snapshot.load().watermark() {
            self.snapshot.publish(next);
            self.snapshots_published.fetch_add(1, Ordering::Relaxed);
        }
        drop(store);
        match failure {
            Some(error) => Err(error),
            None => Ok(sequences),
        }
    }

    /// Records one `Busy` rejection of an ingest batch (called by the
    /// bounded [`crate::IngestQueue`]; the engine itself never rejects).
    pub(crate) fn note_busy_rejection(&self) {
        self.busy_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes the current ingest-queue depth gauge.
    pub(crate) fn set_queue_depth(&self, depth: usize) {
        self.queue_depth.store(depth as u64, Ordering::Relaxed);
    }

    /// Publishes the snapshot-lag gauge: queue batches accepted but not
    /// yet visible to snapshot readers (queued or mid-application).
    pub(crate) fn set_snapshot_lag(&self, lag: usize) {
        self.snapshot_lag.store(lag as u64, Ordering::Relaxed);
    }

    /// Flushes and syncs the underlying store.
    ///
    /// # Errors
    ///
    /// Propagates store sync failures.
    pub fn sync(&self) -> Result<(), StoreError> {
        self.write_store().sync()
    }

    /// The currently published snapshot.
    ///
    /// Pinning it and serving several requests through
    /// [`AuditEngine::handle_at`] gives repeatable reads: all of them see
    /// the same frozen state at the same watermark, however much ingest
    /// lands in between.
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        self.snapshot.load()
    }

    /// The published watermark: the highest sequence number visible to
    /// readers right now.  Monotone over the engine's lifetime.
    pub fn watermark(&self) -> SequenceNumber {
        self.snapshot.load().watermark()
    }

    /// Serves one request from the currently published snapshot (safe to
    /// call from many threads; acquires **no** store lock).
    pub fn handle(&self, request: &AuditRequest) -> AuditResponse {
        self.handle_with_trace(request, None)
    }

    /// [`AuditEngine::handle`] for a traced request: `trace_id`, when
    /// present, is kept as the exemplar of the latency bucket the vet
    /// lands in (see [`crate::trace`]).  `None` behaves exactly like
    /// [`AuditEngine::handle`].
    pub fn handle_with_trace(
        &self,
        request: &AuditRequest,
        trace_id: Option<u128>,
    ) -> AuditResponse {
        let snapshot = self.snapshot.load();
        self.handle_at_traced(&snapshot, request, trace_id)
    }

    /// Serves one request from an explicit snapshot — the repeatable-read
    /// entry point ([`AuditEngine::handle`] is `handle_at` on the latest
    /// published snapshot).  The response's watermark is the snapshot's.
    pub fn handle_at(&self, snapshot: &EngineSnapshot, request: &AuditRequest) -> AuditResponse {
        self.handle_at_traced(snapshot, request, None)
    }

    fn handle_at_traced(
        &self,
        snapshot: &EngineSnapshot,
        request: &AuditRequest,
        trace_id: Option<u128>,
    ) -> AuditResponse {
        self.requests.fetch_add(1, Ordering::Relaxed);
        // One policy-set load at entry: however many pack installs land
        // mid-flight, this request answers from — and is stamped with —
        // exactly one pack version.
        let policies = self.registry.load();
        let pack_version = policies.version();
        let response = match request {
            AuditRequest::VetValue { value, pattern } => {
                self.vet_value(snapshot, &policies, value, pattern, trace_id)
            }
            AuditRequest::AuditTrail { value } => self.audit_trail(snapshot, value, pack_version),
            AuditRequest::WhoTouched { principal } => {
                self.who_touched(snapshot, principal, pack_version)
            }
            AuditRequest::OriginOf { value } => self.origin_of(snapshot, value, pack_version),
            AuditRequest::Why { value, pattern } => self.why(snapshot, &policies, value, pattern),
            AuditRequest::Counterfactual {
                value,
                pattern,
                remove,
            } => self.counterfactual(snapshot, &policies, value, pattern, remove),
        };
        self.index_hits
            .fetch_add(response.stats.index_hits as u64, Ordering::Relaxed);
        self.memo_hits
            .fetch_add(response.stats.memo_hits as u64, Ordering::Relaxed);
        response
    }

    /// A snapshot of the engine's lifetime counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            requests: self.requests.load(Ordering::Relaxed),
            ingested: self.ingested.load(Ordering::Relaxed),
            vets_passed: self.vets_passed.load(Ordering::Relaxed),
            vets_failed: self.vets_failed.load(Ordering::Relaxed),
            index_hits: self.index_hits.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            ingest_batches: self.ingest_batches.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            snapshots_published: self.snapshots_published.load(Ordering::Relaxed),
            snapshot_lag: self.snapshot_lag.load(Ordering::Relaxed),
            watermark: self.snapshot.load().watermark(),
        }
    }

    /// Statistics of the underlying store (read lock; an operator call,
    /// not an audit query path).
    pub fn store_stats(&self) -> StoreStats {
        self.read_store().stats()
    }

    /// Whole seconds since this engine was opened.
    pub fn uptime_seconds(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Number of records visible to readers (answered from the published
    /// snapshot, like every query).
    pub fn record_count(&self) -> usize {
        self.snapshot.load().len()
    }

    fn vet_value(
        &self,
        snapshot: &EngineSnapshot,
        policies: &PolicySet,
        value: &piprov_core::value::Value,
        pattern: &str,
        trace_id: Option<u128>,
    ) -> AuditResponse {
        // The whole vet — pattern lookup, posting-list lookup, NFA
        // simulation — is timed into the policy's latency histogram; the
        // record itself is a handful of relaxed atomic adds (the
        // `e15_metrics` bench group keeps that overhead measured).
        let started = Instant::now();
        let watermark = snapshot.watermark();
        let pack_version = policies.version();
        let Some(entry) = policies.get(pattern) else {
            // No per-policy row to land in: counted separately.  The
            // payload spares the operator a second round trip: every
            // registered name, plus the nearest if the request looks
            // like a typo for it.
            self.metrics.note_unknown_pattern();
            let known = policies.names();
            let nearest = piprov_policy::nearest_name(pattern, known.iter().map(String::as_str));
            return AuditResponse::new(
                AuditOutcome::UnknownPattern { known, nearest },
                RequestStats::default(),
                watermark,
                pack_version,
            );
        };
        let compiled = Arc::clone(&entry.compiled);
        let policy = self.metrics.policy(pattern);
        let postings = snapshot.index().by_value(value);
        let mut stats = RequestStats {
            index_hits: postings.len(),
            ..RequestStats::default()
        };
        // The newest record carries the value's current history.
        let Some(record) = postings.last().and_then(|seq| snapshot.get(*seq)) else {
            if let Some(policy) = &policy {
                policy.record_traced(elapsed_ns(started), VetOutcomeKind::UnknownValue, trace_id);
            }
            return AuditResponse::new(AuditOutcome::UnknownValue, stats, watermark, pack_version);
        };
        let (verdict, match_stats) = compiled.matches_with_stats(&record.provenance);
        stats.memo_hits = match_stats.memo_hits;
        stats.dag_nodes_visited = match_stats.nodes_visited;
        let outcome = if verdict {
            self.vets_passed.fetch_add(1, Ordering::Relaxed);
            VetOutcomeKind::Passed
        } else {
            self.vets_failed.fetch_add(1, Ordering::Relaxed);
            VetOutcomeKind::Failed
        };
        if let Some(policy) = &policy {
            policy.record_traced(elapsed_ns(started), outcome, trace_id);
        }
        AuditResponse::new(
            AuditOutcome::Vetted {
                verdict,
                sequence: record.sequence,
            },
            stats,
            watermark,
            pack_version,
        )
    }

    fn audit_trail(
        &self,
        snapshot: &EngineSnapshot,
        value: &piprov_core::value::Value,
        pack_version: u64,
    ) -> AuditResponse {
        let watermark = snapshot.watermark();
        // One posting-list lookup serves both the existence check and the
        // index_hits accounting: the trail holds exactly the records the
        // by_value list names.
        let trail = snapshot.audit_trail(value);
        if trail.records.is_empty() {
            return AuditResponse::new(
                AuditOutcome::UnknownValue,
                RequestStats::default(),
                watermark,
                pack_version,
            );
        }
        let index_hits = trail.records.len();
        // O(1) per record: the spine lengths are cached on the interned
        // nodes; a per-request DAG walk would defeat the pay-per-new-node
        // discipline.
        let dag_nodes_visited = trail.records.iter().map(|r| r.provenance.len()).sum();
        AuditResponse::new(
            AuditOutcome::Trail(trail),
            RequestStats {
                index_hits,
                dag_nodes_visited,
                ..RequestStats::default()
            },
            watermark,
            pack_version,
        )
    }

    fn who_touched(
        &self,
        snapshot: &EngineSnapshot,
        principal: &piprov_core::name::Principal,
        pack_version: u64,
    ) -> AuditResponse {
        let watermark = snapshot.watermark();
        let records: Vec<SequenceNumber> =
            snapshot.index().by_involved_principal(principal).to_vec();
        let index_hits = records.len();
        // First-appearance order with set-based dedup: a busy relay can
        // appear in every record's history.
        let mut seen = std::collections::HashSet::new();
        let mut values = Vec::new();
        for record in snapshot.get_many(records.iter().copied()) {
            if seen.insert(record.value.clone()) {
                values.push(record.value.clone());
            }
        }
        AuditResponse::new(
            AuditOutcome::Touched { records, values },
            RequestStats {
                index_hits,
                ..RequestStats::default()
            },
            watermark,
            pack_version,
        )
    }

    fn origin_of(
        &self,
        snapshot: &EngineSnapshot,
        value: &piprov_core::value::Value,
        pack_version: u64,
    ) -> AuditResponse {
        let watermark = snapshot.watermark();
        let trail = snapshot.audit_trail(value);
        if trail.records.is_empty() {
            return AuditResponse::new(
                AuditOutcome::UnknownValue,
                RequestStats::default(),
                watermark,
                pack_version,
            );
        }
        let index_hits = trail.records.len();
        // Origin scans each record's top-level events oldest-first; charge
        // the spine events available to that scan.
        let dag_nodes_visited = trail.records.iter().map(|r| r.provenance.len()).sum();
        AuditResponse::new(
            AuditOutcome::Origin {
                principal: trail.origin(),
            },
            RequestStats {
                index_hits,
                dag_nodes_visited,
                ..RequestStats::default()
            },
            watermark,
            pack_version,
        )
    }

    /// Serves [`AuditRequest::Why`]: vets the value's newest history with
    /// the witness walk and surfaces the explaining [`WhySlice`].  The
    /// walk seeds the pattern memo with every suffix verdict it
    /// determines (see `CompiledPattern::witness`), so a why query warms
    /// the cache for subsequent vets and counterfactuals.
    fn why(
        &self,
        snapshot: &EngineSnapshot,
        policies: &PolicySet,
        value: &piprov_core::value::Value,
        pattern: &str,
    ) -> AuditResponse {
        let watermark = snapshot.watermark();
        let pack_version = policies.version();
        let Some(entry) = policies.get(pattern) else {
            self.metrics.note_unknown_pattern();
            let known = policies.names();
            let nearest = piprov_policy::nearest_name(pattern, known.iter().map(String::as_str));
            return AuditResponse::new(
                AuditOutcome::UnknownPattern { known, nearest },
                RequestStats::default(),
                watermark,
                pack_version,
            );
        };
        let compiled = Arc::clone(&entry.compiled);
        let postings = snapshot.index().by_value(value);
        let mut stats = RequestStats {
            index_hits: postings.len(),
            ..RequestStats::default()
        };
        let Some(record) = postings.last().and_then(|seq| snapshot.get(*seq)) else {
            return AuditResponse::new(AuditOutcome::UnknownValue, stats, watermark, pack_version);
        };
        let mut match_stats = MatchStats::default();
        let trail = compiled.witness(&record.provenance, &mut match_stats);
        stats.memo_hits = match_stats.memo_hits;
        stats.dag_nodes_visited = match_stats.nodes_visited;
        let slice = WhySlice::from_trail(trail, record.sequence);
        AuditResponse::new(AuditOutcome::Why(slice), stats, watermark, pack_version)
    }

    /// Serves [`AuditRequest::Counterfactual`]: vets the newest history
    /// as-is, re-vets it with the filtered events removed, and reports
    /// both verdicts plus the delta slice.  The re-vet steps the kept
    /// events of [`filtered_view`] and continues on the untouched suffix,
    /// whose verdicts answer from the memo
    /// ([`CompiledPattern::matches_after`]): nothing is interned.  Its
    /// cache hits are surfaced as [`RequestStats::memo_reused`].
    fn counterfactual(
        &self,
        snapshot: &EngineSnapshot,
        policies: &PolicySet,
        value: &piprov_core::value::Value,
        pattern: &str,
        remove: &EventFilter,
    ) -> AuditResponse {
        let watermark = snapshot.watermark();
        let pack_version = policies.version();
        let Some(entry) = policies.get(pattern) else {
            self.metrics.note_unknown_pattern();
            let known = policies.names();
            let nearest = piprov_policy::nearest_name(pattern, known.iter().map(String::as_str));
            return AuditResponse::new(
                AuditOutcome::UnknownPattern { known, nearest },
                RequestStats::default(),
                watermark,
                pack_version,
            );
        };
        let compiled = Arc::clone(&entry.compiled);
        let policy = self.metrics.policy(pattern);
        let postings = snapshot.index().by_value(value);
        let mut stats = RequestStats {
            index_hits: postings.len(),
            ..RequestStats::default()
        };
        let Some(record) = postings.last().and_then(|seq| snapshot.get(*seq)) else {
            return AuditResponse::new(AuditOutcome::UnknownValue, stats, watermark, pack_version);
        };
        let (original, original_stats) = compiled.matches_with_stats(&record.provenance);
        let view = filtered_view(&record.provenance, remove);
        let (counterfactual, cf_stats) = compiled.matches_after(&view.kept, view.suffix);
        stats.memo_hits = original_stats.memo_hits + cf_stats.memo_hits;
        stats.dag_nodes_visited = original_stats.nodes_visited + cf_stats.nodes_visited;
        stats.memo_reused = cf_stats.memo_hits;
        let verdict = CounterfactualVerdict {
            original,
            counterfactual,
            sequence: record.sequence,
            removed: view.removed,
        };
        if let Some(policy) = &policy {
            policy.record_counterfactual(verdict.flipped());
        }
        AuditResponse::new(
            AuditOutcome::Counterfactual(verdict),
            stats,
            watermark,
            pack_version,
        )
    }

    fn read_store(&self) -> RwLockReadGuard<'_, ProvenanceStore> {
        match self.store.read() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn write_store(&self) -> RwLockWriteGuard<'_, ProvenanceStore> {
        match self.store.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Nanoseconds elapsed since `started`, saturated into `u64` (584 years —
/// anything longer belongs in the overflow bucket anyway).
fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use piprov_core::name::{Channel, Principal};
    use piprov_core::provenance::{Event, Provenance};
    use piprov_core::value::Value;
    use piprov_patterns::GroupExpr;
    use piprov_store::Operation;
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("piprov-audit-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn value(name: &str) -> Value {
        Value::Channel(Channel::new(name))
    }

    /// Replays the paper's auditing scenario into an engine: a sends v,
    /// the faulty s forwards it to c.
    fn seeded_engine(dir: &PathBuf) -> AuditEngine {
        let engine = AuditEngine::open(dir).unwrap();
        let empty = Provenance::empty();
        let a = Principal::new("a");
        let s = Principal::new("s");
        let c = Principal::new("c");
        let k1 = empty.prepend(Event::output(a.clone(), empty.clone()));
        let k2 = k1.prepend(Event::input(s.clone(), empty.clone()));
        let k3 = k2.prepend(Event::output(s.clone(), empty.clone()));
        let k4 = k3.prepend(Event::input(c.clone(), empty.clone()));
        for (t, who, op, chan, k) in [
            (1u64, "a", Operation::Send, "m", k1),
            (2, "s", Operation::Receive, "m", k2),
            (3, "s", Operation::Send, "nprime", k3),
            (4, "c", Operation::Receive, "nprime", k4),
        ] {
            engine
                .ingest(ProvenanceRecord::new(t, who, op, chan, value("v"), k))
                .unwrap();
        }
        engine
    }

    #[test]
    fn vet_value_answers_from_the_newest_record() {
        let dir = temp_dir("vet");
        let engine = seeded_engine(&dir);
        engine.register_pattern("origin-a", Pattern::originated_at(GroupExpr::single("a")));
        engine.register_pattern(
            "only-trusted",
            Pattern::only_touched_by(GroupExpr::any_of(["a", "b"])),
        );
        let pass = engine.handle(&AuditRequest::VetValue {
            value: value("v"),
            pattern: "origin-a".into(),
        });
        assert!(
            matches!(
                pass.outcome,
                AuditOutcome::Vetted {
                    verdict: true,
                    sequence: 4
                }
            ),
            "{:?}",
            pass.outcome
        );
        assert_eq!(pass.stats.index_hits, 4, "four postings for v");
        assert!(pass.stats.dag_nodes_visited > 0, "cold vet simulates");
        let fail = engine.handle(&AuditRequest::VetValue {
            value: value("v"),
            pattern: "only-trusted".into(),
        });
        assert!(matches!(
            fail.outcome,
            AuditOutcome::Vetted { verdict: false, .. }
        ));
        // Re-vetting the same history is answered from the memo.
        let warm = engine.handle(&AuditRequest::VetValue {
            value: value("v"),
            pattern: "origin-a".into(),
        });
        assert_eq!(warm.stats.dag_nodes_visited, 0);
        assert!(warm.stats.memo_hits >= 1);
        let stats = engine.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.vets_passed, 2);
        assert_eq!(stats.vets_failed, 1);
        assert!(stats.memo_hits >= 1);
        assert!(stats.to_string().contains("3 requests"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_value_and_pattern_are_structured_errors() {
        let dir = temp_dir("unknown");
        let engine = seeded_engine(&dir);
        engine.register_pattern("any", Pattern::Any);
        let no_pattern = engine.handle(&AuditRequest::VetValue {
            value: value("v"),
            pattern: "nope".into(),
        });
        let AuditOutcome::UnknownPattern { known, nearest } = &no_pattern.outcome else {
            panic!("expected unknown pattern, got {:?}", no_pattern.outcome);
        };
        assert_eq!(known, &vec!["any".to_string()]);
        assert_eq!(nearest, &None, "\"nope\" is no plausible typo for \"any\"");
        let no_value = engine.handle(&AuditRequest::VetValue {
            value: value("ghost"),
            pattern: "any".into(),
        });
        assert_eq!(no_value.outcome, AuditOutcome::UnknownValue);
        assert_eq!(
            engine
                .handle(&AuditRequest::AuditTrail {
                    value: value("ghost")
                })
                .outcome,
            AuditOutcome::UnknownValue
        );
        assert_eq!(
            engine
                .handle(&AuditRequest::OriginOf {
                    value: value("ghost")
                })
                .outcome,
            AuditOutcome::UnknownValue
        );
        assert_eq!(engine.pattern_names(), vec!["any".to_string()]);
        assert!(engine.pattern_memo_stats("nope").is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn vet_hot_path_populates_the_policy_histograms() {
        let dir = temp_dir("metrics");
        let engine = seeded_engine(&dir);
        engine.register_pattern("origin-a", Pattern::originated_at(GroupExpr::single("a")));
        engine.register_pattern(
            "only-trusted",
            Pattern::only_touched_by(GroupExpr::any_of(["a", "b"])),
        );
        for _ in 0..3 {
            engine.handle(&AuditRequest::VetValue {
                value: value("v"),
                pattern: "origin-a".into(),
            });
        }
        engine.handle(&AuditRequest::VetValue {
            value: value("v"),
            pattern: "only-trusted".into(),
        });
        engine.handle(&AuditRequest::VetValue {
            value: value("ghost"),
            pattern: "origin-a".into(),
        });
        engine.handle(&AuditRequest::VetValue {
            value: value("v"),
            pattern: "unregistered".into(),
        });
        let metrics = engine.metrics();
        assert_eq!(metrics.vets_unknown_pattern, 1);
        assert_eq!(metrics.policies.len(), 2);
        assert_eq!(
            metrics
                .policies
                .iter()
                .map(|p| p.policy.as_str())
                .collect::<Vec<_>>(),
            vec!["only-trusted", "origin-a"],
            "policies are sorted by name"
        );
        let origin_a = &metrics.policies[1];
        assert_eq!(origin_a.vets_passed, 3);
        assert_eq!(origin_a.vets_unknown_value, 1);
        assert_eq!(origin_a.latency.count, 4, "unknown values are timed too");
        assert!(origin_a.latency.sum_ns > 0);
        assert_eq!(
            origin_a.latency.counts.iter().sum::<u64>() + origin_a.latency.overflow,
            origin_a.latency.count
        );
        assert_eq!(
            origin_a.memo,
            engine.pattern_memo_stats("origin-a").unwrap()
        );
        let only_trusted = &metrics.policies[0];
        assert_eq!(only_trusted.vets_failed, 1);
        assert_eq!(only_trusted.latency.count, 1);
        // The typed snapshot and the engine's counters agree.
        assert_eq!(metrics.engine, engine.stats());
        assert_eq!(metrics.store, engine.store_stats());
        // And the exposition renders it all, validly.
        let text = metrics.exposition();
        crate::metrics::validate_exposition(&text).unwrap();
        assert!(text.contains("piprov_vet_latency_seconds_bucket{policy=\"origin-a\","));
        assert!(text.contains("piprov_policy_vets_failed_total{policy=\"only-trusted\"} 1"));
        assert!(text.contains("piprov_vets_unknown_pattern_total 1"));
        // Re-registering a policy keeps its metric timeline.
        engine.register_pattern("origin-a", Pattern::originated_at(GroupExpr::single("a")));
        assert_eq!(engine.metrics().policies[1].vets_passed, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trail_touched_and_origin_answer_via_the_index() {
        let dir = temp_dir("queries");
        let engine = seeded_engine(&dir);
        let trail = engine.handle(&AuditRequest::AuditTrail { value: value("v") });
        let AuditOutcome::Trail(trail_data) = &trail.outcome else {
            panic!("expected a trail, got {:?}", trail.outcome);
        };
        assert_eq!(trail_data.records.len(), 4);
        assert!(trail_data.involves(&Principal::new("s")));
        assert_eq!(trail.stats.index_hits, 4);
        assert!(trail.stats.dag_nodes_visited > 0);

        let touched = engine.handle(&AuditRequest::WhoTouched {
            principal: Principal::new("a"),
        });
        let AuditOutcome::Touched { records, values } = &touched.outcome else {
            panic!("expected touched, got {:?}", touched.outcome);
        };
        assert_eq!(records, &vec![1, 2, 3, 4], "a is in every history");
        assert_eq!(values, &vec![value("v")]);

        let origin = engine.handle(&AuditRequest::OriginOf { value: value("v") });
        assert_eq!(
            origin.outcome,
            AuditOutcome::Origin {
                principal: Some(Principal::new("a"))
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_channel_via_counterfactual_costs_the_dag_not_the_tree() {
        // 2,000 spine events, each carrying the same 2,000-event channel
        // history: ~4,000 DAG nodes, whose logical tree is 4M events.
        use std::time::Duration;
        let dir = temp_dir("channel-via");
        let engine = AuditEngine::open(&dir).unwrap();
        engine.register_pattern(
            "receives",
            Pattern::receive(GroupExpr::all(), Pattern::Any).star(),
        );
        let mut channel: Vec<Event> = (0..1_999)
            .map(|j| Event::input(Principal::new(format!("c{}", j % 16)), Provenance::empty()))
            .collect();
        channel.push(Event::output(Principal::new("origin"), Provenance::empty()));
        let channel = Provenance::from_events(channel);
        let spine = Provenance::from_events(
            (0..2_000)
                .map(|i| Event::input(Principal::new(format!("r{}", i % 4)), channel.clone()))
                .collect::<Vec<_>>(),
        );
        engine
            .ingest(ProvenanceRecord::new(
                0,
                "r0",
                Operation::Receive,
                "m",
                value("wide"),
                spine,
            ))
            .unwrap();
        let ask = |remove: EventFilter| {
            let response = engine.handle(&AuditRequest::Counterfactual {
                value: value("wide"),
                pattern: "receives".into(),
                remove,
            });
            match response.outcome {
                AuditOutcome::Counterfactual(verdict) => verdict,
                other => panic!("expected a counterfactual, got {:?}", other),
            }
        };
        // The first request warms the memos, so the timed one costs the
        // filter's walk.
        assert!(ask(EventFilter::Principal(Principal::new("nobody"))).original);
        let started = Instant::now();
        let verdict = ask(EventFilter::ChannelVia(Principal::new("nobody")));
        let elapsed = started.elapsed();
        assert!(verdict.original && verdict.counterfactual && verdict.removed.is_empty());
        assert!(
            elapsed < Duration::from_millis(100),
            "a channel-via counterfactual took {:?}",
            elapsed
        );
        // Only the channel's oldest event names `origin`: every spine
        // event goes, and ε passes the policy.
        let verdict = ask(EventFilter::ChannelVia(Principal::new("origin")));
        assert_eq!(verdict.removed.len(), 2_000);
        assert!(verdict.counterfactual);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn engine_memo_stays_under_its_configured_bound_on_a_long_workload() {
        let dir = temp_dir("bound");
        let store = ProvenanceStore::open(&dir).unwrap();
        let engine = AuditEngine::with_config(store, AuditConfig { memo_bound: 32 });
        engine.register_pattern(
            "sends-only",
            Pattern::send(GroupExpr::all(), Pattern::Any).star(),
        );
        // A long-lived service: many distinct values with distinct
        // histories, each ingested then vetted.
        for i in 0..500u64 {
            let who = format!("p{}", i % 17);
            let mut k = Provenance::empty();
            for j in 0..=(i % 11) {
                k = k.prepend(Event::output(
                    Principal::new(format!("{}-{}", who, j)),
                    Provenance::empty(),
                ));
            }
            engine
                .ingest(ProvenanceRecord::new(
                    i,
                    who.as_str(),
                    Operation::Send,
                    "m",
                    value(&format!("item{}", i)),
                    k,
                ))
                .unwrap();
            let response = engine.handle(&AuditRequest::VetValue {
                value: value(&format!("item{}", i)),
                pattern: "sends-only".into(),
            });
            assert!(matches!(
                response.outcome,
                AuditOutcome::Vetted { verdict: true, .. }
            ));
            let memo = engine.pattern_memo_stats("sends-only").unwrap();
            assert!(
                memo.entries <= 32,
                "memo exceeded its bound: {} > 32",
                memo.entries
            );
        }
        let memo = engine.pattern_memo_stats("sends-only").unwrap();
        assert_eq!(memo.bound, 32);
        assert!(memo.epochs > 0, "500 distinct histories forced eviction");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn responses_carry_the_published_watermark_and_pinned_snapshots_freeze() {
        let dir = temp_dir("watermark");
        let engine = seeded_engine(&dir);
        engine.register_pattern("any", Pattern::Any);
        assert_eq!(engine.watermark(), 4);
        let response = engine.handle(&AuditRequest::AuditTrail { value: value("v") });
        assert_eq!(response.watermark, 4);
        let AuditOutcome::Trail(trail) = &response.outcome else {
            panic!("expected trail");
        };
        assert!(trail
            .records
            .iter()
            .all(|r| r.sequence <= response.watermark));

        // Pin the snapshot, then ingest one more record for v.
        let pinned = engine.snapshot();
        let k = Provenance::single(Event::output(Principal::new("d"), Provenance::empty()));
        engine
            .ingest(ProvenanceRecord::new(
                9,
                "d",
                Operation::Send,
                "m",
                value("v"),
                k,
            ))
            .unwrap();
        assert_eq!(
            engine.watermark(),
            5,
            "read-your-writes: publish precedes return"
        );

        // The pinned snapshot is repeatable: it still answers at watermark
        // 4, with 4 records — however much ingest landed since.
        let frozen = engine.handle_at(&pinned, &AuditRequest::AuditTrail { value: value("v") });
        assert_eq!(frozen.watermark, 4);
        let AuditOutcome::Trail(trail) = &frozen.outcome else {
            panic!("expected trail");
        };
        assert_eq!(trail.records.len(), 4);

        // A fresh handle sees the new state.
        let fresh = engine.handle(&AuditRequest::AuditTrail { value: value("v") });
        assert_eq!(fresh.watermark, 5);
        let AuditOutcome::Trail(trail) = &fresh.outcome else {
            panic!("expected trail");
        };
        assert_eq!(trail.records.len(), 5);

        // Unknown values and patterns still name the watermark they were
        // answered at.
        let unknown = engine.handle(&AuditRequest::OriginOf {
            value: value("ghost"),
        });
        assert_eq!(unknown.outcome, AuditOutcome::UnknownValue);
        assert_eq!(unknown.watermark, 5);

        let stats = engine.stats();
        assert_eq!(stats.watermark, 5);
        assert_eq!(
            stats.snapshots_published, 5,
            "one publication per ingested batch (5 single-record batches)"
        );
        assert_eq!(stats.snapshot_lag, 0, "no queue attached, no lag");
        assert!(stats.to_string().contains("watermark 5"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn consecutive_snapshots_share_chunks_and_index_buckets() {
        use std::sync::Arc as StdArc;
        let dir = temp_dir("sharing");
        let engine = seeded_engine(&dir);
        let before = engine.snapshot();
        let k = Provenance::single(Event::output(Principal::new("z"), Provenance::empty()));
        engine
            .ingest_batch(vec![ProvenanceRecord::new(
                10,
                "z",
                Operation::Send,
                "m",
                value("fresh"),
                k,
            )])
            .unwrap();
        let after = engine.snapshot();
        assert_eq!(after.chunk_count(), before.chunk_count() + 1);
        // The untouched value's bucket is the same allocation in both
        // snapshots: publication extended, it did not rebuild.
        assert!(StdArc::ptr_eq(
            before.index().value_bucket(&value("v")).unwrap(),
            after.index().value_bucket(&value("v")).unwrap()
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_republishes_the_stored_records() {
        let dir = temp_dir("recover-snapshot");
        {
            let engine = seeded_engine(&dir);
            engine.sync().unwrap();
        }
        let engine = AuditEngine::open(&dir).unwrap();
        assert_eq!(engine.watermark(), 4);
        assert_eq!(engine.record_count(), 4);
        let trail = engine.handle(&AuditRequest::AuditTrail { value: value("v") });
        assert_eq!(trail.watermark, 4);
        assert_eq!(
            engine.stats().snapshots_published,
            0,
            "the recovery snapshot is not a publication"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_rotation_leaves_the_published_view_equal_to_the_log() {
        let dir = temp_dir("failed-rotation");
        let config = piprov_store::StoreConfig {
            segment_budget: 1,
            sync_every_append: false,
        };
        let engine = AuditEngine::new(ProvenanceStore::open_with(&dir, config).unwrap());
        // A directory where the next segment file would go: the rotation
        // after the first append cannot create it.
        let blocker = dir.join("seg-000002.plog");
        std::fs::create_dir(&blocker).unwrap();
        let k = Provenance::single(Event::output(Principal::new("a"), Provenance::empty()));
        let appended = ProvenanceRecord::new(1, "a", Operation::Send, "m", value("v"), k);
        assert!(engine.ingest(appended).is_err());

        // The record reached the log, so readers see it too.
        assert_eq!(engine.record_count(), engine.store_stats().records);
        assert_eq!(engine.record_count(), 1);
        let trail = engine.handle(&AuditRequest::AuditTrail { value: value("v") });
        let AuditOutcome::Trail(trail) = &trail.outcome else {
            panic!("expected a trail, got {:?}", trail.outcome);
        };
        assert_eq!(
            trail.records.iter().map(|r| r.sequence).collect::<Vec<_>>(),
            vec![1]
        );

        drop(engine);
        std::fs::remove_dir(&blocker).unwrap();
        let reopened = AuditEngine::open(&dir).unwrap();
        assert_eq!(reopened.record_count(), 1);
        assert!(matches!(
            reopened
                .handle(&AuditRequest::AuditTrail { value: value("v") })
                .outcome,
            AuditOutcome::Trail(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_auditors_agree_while_ingest_streams() {
        use std::sync::Arc;
        use std::thread;
        let dir = temp_dir("concurrent");
        let engine = Arc::new(AuditEngine::open(&dir).unwrap());
        engine.register_pattern(
            "origin-supplier",
            Pattern::originated_at(GroupExpr::any_of(["s0", "s1", "s2", "s3"])),
        );
        // Seed one value so auditors always have something to ask about.
        let k0 = Provenance::single(Event::output(Principal::new("s0"), Provenance::empty()));
        engine
            .ingest(ProvenanceRecord::new(
                0,
                "s0",
                Operation::Send,
                "m",
                value("item0"),
                k0,
            ))
            .unwrap();
        let total = 200u64;
        let writer = {
            let engine = Arc::clone(&engine);
            thread::spawn(move || {
                for i in 1..total {
                    let who = format!("s{}", i % 4);
                    let k = Provenance::single(Event::output(
                        Principal::new(who.as_str()),
                        Provenance::empty(),
                    ))
                    .prepend(Event::input(Principal::new("relay"), Provenance::empty()));
                    engine
                        .ingest(ProvenanceRecord::new(
                            i,
                            who.as_str(),
                            Operation::Send,
                            "m",
                            value(&format!("item{}", i)),
                            k,
                        ))
                        .unwrap();
                }
            })
        };
        let auditors: Vec<_> = (0..4)
            .map(|t| {
                let engine = Arc::clone(&engine);
                thread::spawn(move || {
                    let mut vets = 0u64;
                    for i in 0..total {
                        let target = value(&format!("item{}", (i + t) % total));
                        let response = engine.handle(&AuditRequest::VetValue {
                            value: target.clone(),
                            pattern: "origin-supplier".into(),
                        });
                        match response.outcome {
                            // Every ingested item originates at a supplier.
                            AuditOutcome::Vetted { verdict, .. } => {
                                assert!(verdict, "vet of {} failed", target);
                                vets += 1;
                            }
                            // The writer may simply not have got there yet.
                            AuditOutcome::UnknownValue => {}
                            other => panic!("unexpected outcome {:?}", other),
                        }
                        let touched = engine.handle(&AuditRequest::WhoTouched {
                            principal: Principal::new("s0"),
                        });
                        assert!(matches!(touched.outcome, AuditOutcome::Touched { .. }));
                    }
                    vets
                })
            })
            .collect();
        writer.join().unwrap();
        let vetted: u64 = auditors.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(vetted > 0, "auditors vetted at least the seeded item");
        // After the writer finishes, every value vets true.
        for i in 0..total {
            let response = engine.handle(&AuditRequest::VetValue {
                value: value(&format!("item{}", i)),
                pattern: "origin-supplier".into(),
            });
            assert!(matches!(
                response.outcome,
                AuditOutcome::Vetted { verdict: true, .. }
            ));
        }
        assert_eq!(engine.record_count(), total as usize);
        assert_eq!(engine.stats().ingested, total);
        engine.sync().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    use piprov_policy::{PackFile, PackSource};

    /// Compiles a one-file pack rooted at `rules` with file `gate.ppol`,
    /// so every policy lands in package `rules::gate`.
    fn compile_pack(text: &str) -> PolicyPack {
        PolicyPack::compile(&PackSource::new(
            "rules",
            vec![PackFile::new("gate.ppol", text)],
        ))
        .unwrap()
    }

    #[test]
    fn unknown_pattern_payload_suggests_the_nearest_name() {
        let dir = temp_dir("nearest");
        let engine = seeded_engine(&dir);
        engine.register_pattern("vendor-only", Pattern::Any);
        engine.register_pattern("origin-a", Pattern::originated_at(GroupExpr::single("a")));
        let response = engine.handle(&AuditRequest::VetValue {
            value: value("v"),
            pattern: "vendor-onyl".into(),
        });
        let AuditOutcome::UnknownPattern { known, nearest } = &response.outcome else {
            panic!("expected unknown pattern, got {:?}", response.outcome);
        };
        assert_eq!(
            known,
            &vec!["origin-a".to_string(), "vendor-only".to_string()],
            "known names are sorted"
        );
        assert_eq!(nearest, &Some("vendor-only".to_string()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn install_pack_swaps_atomically_and_carries_memo_over() {
        let dir = temp_dir("pack");
        let engine = seeded_engine(&dir);
        assert_eq!(engine.pack_version(), 0);

        let v1 = compile_pack("policy origin_a = a!Any; Any\npolicy tail = Any; c?Any\n");
        let install = engine.install_pack(&v1);
        assert_eq!(install.version, 1);
        assert_eq!(install.installed, 2);
        assert_eq!(install.reused, 0);
        assert_eq!(engine.pack_version(), 1);
        assert_eq!(
            engine.pattern_names(),
            vec![
                "rules::gate::origin_a".to_string(),
                "rules::gate::tail".to_string()
            ]
        );
        let listing = engine.policies();
        assert_eq!(listing.version, 1);
        assert_eq!(listing.policies.len(), 2);
        assert_eq!(listing.policies[0].name, "rules::gate::origin_a");
        assert_eq!(listing.policies[0].package, "rules::gate");
        assert_eq!(listing.policies[0].source, "a!Any; Any");

        // Warm the memo, then reinstall the identical pack: the compiled
        // automaton (memo and all) and the metric timeline carry over.
        let vet = |engine: &AuditEngine| {
            engine.handle(&AuditRequest::VetValue {
                value: value("v"),
                pattern: "rules::gate::origin_a".into(),
            })
        };
        let cold = vet(&engine);
        assert!(matches!(cold.outcome, AuditOutcome::Vetted { .. }));
        assert!(cold.stats.dag_nodes_visited > 0, "cold vet simulates");
        let again = engine.install_pack(&compile_pack(
            "policy origin_a = a!Any; Any\npolicy tail = Any; c?Any\n",
        ));
        assert_eq!(again.version, 2);
        assert_eq!(again.reused, 2, "unchanged policies are carried over");
        let warm = vet(&engine);
        assert_eq!(warm.pack_version, 2);
        assert_eq!(warm.stats.dag_nodes_visited, 0, "memo survived the reload");
        assert!(warm.stats.memo_hits >= 1);
        let origin_row = engine
            .metrics()
            .policies
            .into_iter()
            .find(|p| p.policy == "rules::gate::origin_a")
            .expect("metrics row survives reinstall");
        assert!(
            origin_row.latency.count >= 2,
            "the metric timeline carried over the reload"
        );

        // A changed body recompiles; a dropped policy disappears, metric
        // row and all.
        let v2 = compile_pack("policy origin_a = eps | (a!Any; Any)\npolicy fresh = Any\n");
        let third = engine.install_pack(&v2);
        assert_eq!(third.version, 3);
        assert_eq!(third.installed, 2);
        assert_eq!(third.reused, 0, "changed source compiles anew");
        assert_eq!(
            engine.pattern_names(),
            vec![
                "rules::gate::fresh".to_string(),
                "rules::gate::origin_a".to_string()
            ]
        );
        assert!(engine.pattern_memo_stats("rules::gate::tail").is_none());
        assert!(
            engine
                .metrics_registry()
                .policy("rules::gate::tail")
                .is_none(),
            "dropped policies retire their metric rows"
        );

        // All-or-nothing lives at compile time: a pack with any error
        // never reaches install_pack, and the engine is untouched.
        let broken = PackSource::new(
            "rules",
            vec![PackFile::new("gate.ppol", "policy broken = (((\n")],
        );
        assert!(PolicyPack::compile(&broken).is_err());
        assert_eq!(engine.pack_version(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hot_reload_never_drops_a_vet_mid_swap() {
        use std::sync::atomic::AtomicBool;
        use std::thread;
        let dir = temp_dir("reload");
        let engine = Arc::new(seeded_engine(&dir));
        let packs = [
            compile_pack("policy gate = a!Any; Any\n"),
            compile_pack("policy gate = (a!Any; Any) | eps\npolicy extra = Any\n"),
        ];
        engine.install_pack(&packs[0]);
        let done = Arc::new(AtomicBool::new(false));

        let writer = {
            let engine = Arc::clone(&engine);
            let done = Arc::clone(&done);
            let packs = packs.clone();
            thread::spawn(move || {
                for i in 0..60usize {
                    engine.install_pack(&packs[i % 2]);
                }
                done.store(true, Ordering::Release);
            })
        };
        let auditors: Vec<_> = (0..4)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let done = Arc::clone(&done);
                thread::spawn(move || {
                    let mut last_version = 0u64;
                    let mut vets = 0u64;
                    // At least 50 vets even if the writer finishes first,
                    // so the assertions below always exercise real traffic.
                    while vets < 50 || !done.load(Ordering::Acquire) {
                        let response = engine.handle(&AuditRequest::VetValue {
                            value: value("v"),
                            pattern: "rules::gate::gate".into(),
                        });
                        // `gate` exists in every installed pack: a vet can
                        // never land in the gap of a swap, because there
                        // is no gap — one set answers the whole request.
                        assert!(
                            matches!(response.outcome, AuditOutcome::Vetted { .. }),
                            "vet fell through mid-swap: {:?}",
                            response.outcome
                        );
                        assert!(
                            response.pack_version >= last_version,
                            "pack versions observed by one thread are monotone"
                        );
                        assert!(response.pack_version >= 1);
                        last_version = response.pack_version;
                        vets += 1;
                    }
                    vets
                })
            })
            .collect();
        writer.join().unwrap();
        let vets: u64 = auditors.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(vets > 0);
        assert_eq!(engine.metrics().vets_unknown_pattern, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
