//! The observability plane: per-policy latency/verdict histograms and a
//! Prometheus-style text exposition over every counter the system keeps.
//!
//! A [`MetricsRegistry`] lives inside every [`crate::AuditEngine`] and owns
//! one [`PolicyMetrics`] per registered policy: a log-spaced, fixed-bucket
//! latency histogram plus verdict counters, all plain atomics, recorded on
//! the `handle()` hot path without taking any lock beyond one uncontended
//! registry read (see the `e15_metrics` bench group for the measured
//! overhead budget).  It also keeps one latency histogram per trace
//! [`SpanKind`], fed with the spans the serving layer and the ingest drain
//! hand to the trace collector.
//!
//! [`AuditEngine::metrics`](crate::AuditEngine::metrics) gathers the
//! registry together with every other counter surface the workspace keeps
//! — [`EngineStats`], [`StoreStats`], the interner's [`InternerStats`] and
//! per-shard [`ShardStats`], each policy's [`MemoStats`] — into one typed
//! [`MetricsSnapshot`], and [`MetricsSnapshot::exposition`] renders it in
//! the Prometheus text format (`# HELP`/`# TYPE`, stable names under the
//! `piprov_` prefix, the policy name as a label).
//!
//! **Drift guard.**  The exposition writer destructures every stats struct
//! exhaustively (no `..`), so adding a field to [`EngineStats`],
//! [`MemoStats`], [`ShardStats`], [`StoreStats`] or [`InternerStats`]
//! without exporting it is a *compile* error here — and the
//! `exposition.rs` test suite additionally feeds sentinel values through
//! the renderer so a field that is destructured but dropped still fails a
//! test.

use crate::engine::{AuditEngine, EngineStats};
use crate::trace::SpanKind;
use piprov_core::provenance::{InternerStats, ShardStats};
use piprov_patterns::MemoStats;
use piprov_store::StoreStats;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Upper bounds (nanoseconds, inclusive) of the fixed log-spaced latency
/// buckets: powers of two from 256 ns to ~8.4 ms.  A vet that takes longer
/// lands in the overflow (`+Inf`) bucket.
///
/// The bounds are part of the exposition's stable surface: dashboards key
/// on the rendered `le` values, so changing them is a breaking change.
pub const LATENCY_BUCKET_BOUNDS_NS: [u64; 16] = [
    1 << 8,
    1 << 9,
    1 << 10,
    1 << 11,
    1 << 12,
    1 << 13,
    1 << 14,
    1 << 15,
    1 << 16,
    1 << 17,
    1 << 18,
    1 << 19,
    1 << 20,
    1 << 21,
    1 << 22,
    1 << 23,
];

/// How a vet request resolved, as the histogram plane classifies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VetOutcomeKind {
    /// The policy matched: verdict `true`.
    Passed,
    /// The policy did not match: verdict `false`.
    Failed,
    /// The value had no recorded history at the answering snapshot.
    UnknownValue,
}

/// A histogram exemplar: the trace id and observed value of the most
/// recent *sampled* observation that landed in one bucket — the bridge from
/// "the p99 bucket grew" to "here is a trace of a request in that bucket".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// The 128-bit trace id of the sampled observation.
    pub trace_id: u128,
    /// The observed latency of that observation, nanoseconds.
    pub value_ns: u64,
}

/// Last-writer-wins exemplar storage for one bucket.  The three words are
/// stored relaxed and independently: a scrape racing a record may pair an
/// id with a neighbouring observation's value — exemplars are advisory, so
/// that is acceptable (and matches mainstream client libraries).
#[derive(Debug, Default)]
struct ExemplarCell {
    id_hi: AtomicU64,
    id_lo: AtomicU64,
    value_ns: AtomicU64,
}

impl ExemplarCell {
    fn set(&self, trace_id: u128, value_ns: u64) {
        self.id_hi.store((trace_id >> 64) as u64, Ordering::Relaxed);
        self.id_lo.store(trace_id as u64, Ordering::Relaxed);
        self.value_ns.store(value_ns, Ordering::Relaxed);
    }

    fn get(&self) -> Option<Exemplar> {
        let hi = self.id_hi.load(Ordering::Relaxed);
        let lo = self.id_lo.load(Ordering::Relaxed);
        let trace_id = ((hi as u128) << 64) | lo as u128;
        if trace_id == 0 {
            return None;
        }
        Some(Exemplar {
            trace_id,
            value_ns: self.value_ns.load(Ordering::Relaxed),
        })
    }
}

/// A lock-free, fixed-bucket latency histogram.  There is no count
/// atomic: a snapshot's count is the sum of the buckets it read, so `+Inf`
/// and `_count` can never fall below a finite bucket.  The sum is an
/// independent atomic, so a scrape is not linearizable with the records
/// it races (like every Prometheus client library): `_sum` may lead or
/// trail the buckets by the observations in flight.
#[derive(Debug, Default)]
struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKET_BOUNDS_NS.len()],
    overflow: AtomicU64,
    sum_ns: AtomicU64,
    exemplars: [ExemplarCell; LATENCY_BUCKET_BOUNDS_NS.len()],
    overflow_exemplar: ExemplarCell,
}

impl LatencyHistogram {
    fn record_traced(&self, elapsed_ns: u64, trace_id: Option<u128>) {
        let slot = LATENCY_BUCKET_BOUNDS_NS.partition_point(|&bound| bound < elapsed_ns);
        match self.buckets.get(slot) {
            Some(bucket) => bucket.fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        if let Some(trace_id) = trace_id {
            self.exemplars
                .get(slot)
                .unwrap_or(&self.overflow_exemplar)
                .set(trace_id, elapsed_ns);
        }
        self.sum_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let overflow = self.overflow.load(Ordering::Relaxed);
        HistogramSnapshot {
            count: counts.iter().sum::<u64>() + overflow,
            counts,
            overflow,
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            exemplars: self
                .exemplars
                .iter()
                .chain(std::iter::once(&self.overflow_exemplar))
                .map(ExemplarCell::get)
                .collect(),
        }
    }
}

/// The hot-path metrics of one registered policy: verdict counters plus
/// the vet latency histogram.  All atomics — recording takes no lock.
#[derive(Debug, Default)]
pub struct PolicyMetrics {
    vets_passed: AtomicU64,
    vets_failed: AtomicU64,
    vets_unknown_value: AtomicU64,
    counterfactuals: AtomicU64,
    counterfactual_flips: AtomicU64,
    latency: LatencyHistogram,
}

impl PolicyMetrics {
    /// Records one vet against this policy: `elapsed_ns` into the latency
    /// histogram, the outcome into its verdict counter.
    pub fn record(&self, elapsed_ns: u64, outcome: VetOutcomeKind) {
        self.record_traced(elapsed_ns, outcome, None);
    }

    /// Like [`PolicyMetrics::record`], additionally keeping `trace_id` as
    /// the landing bucket's exemplar when the request was sampled.
    pub fn record_traced(&self, elapsed_ns: u64, outcome: VetOutcomeKind, trace_id: Option<u128>) {
        match outcome {
            VetOutcomeKind::Passed => self.vets_passed.fetch_add(1, Ordering::Relaxed),
            VetOutcomeKind::Failed => self.vets_failed.fetch_add(1, Ordering::Relaxed),
            VetOutcomeKind::UnknownValue => self.vets_unknown_value.fetch_add(1, Ordering::Relaxed),
        };
        self.latency.record_traced(elapsed_ns, trace_id);
    }

    /// Records one counterfactual audit against this policy; `flipped`
    /// marks answers whose filtered verdict differed from the original —
    /// the removed events were causal for the verdict.
    pub fn record_counterfactual(&self, flipped: bool) {
        self.counterfactuals.fetch_add(1, Ordering::Relaxed);
        if flipped {
            self.counterfactual_flips.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The per-policy histogram registry every [`crate::AuditEngine`] owns.
///
/// Policies are registered once (by
/// [`crate::AuditEngine::register_pattern`]); the vet hot path then records
/// through one uncontended read-lock acquisition and plain atomic adds.
/// Re-registering a policy name keeps its counters: the metric timeline of
/// a hot-reloaded policy does not reset.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    policies: RwLock<HashMap<String, Arc<PolicyMetrics>>>,
    vets_unknown_pattern: AtomicU64,
    /// One histogram per [`SpanKind`], in [`SpanKind::ALL`] order.
    stages: [LatencyHistogram; SpanKind::ALL.len()],
    /// Serving: TCP connections accepted, over the registry lifetime.
    connections_accepted: AtomicU64,
    /// Serving: TCP connections closed, over the registry lifetime.
    connections_closed: AtomicU64,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn read(&self) -> RwLockReadGuard<'_, HashMap<String, Arc<PolicyMetrics>>> {
        match self.policies.read() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn write(&self) -> RwLockWriteGuard<'_, HashMap<String, Arc<PolicyMetrics>>> {
        match self.policies.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Registers `policy` (idempotent: an existing entry — and its
    /// counters — is kept) and returns its metrics handle.
    pub fn register_policy(&self, policy: &str) -> Arc<PolicyMetrics> {
        if let Some(existing) = self.read().get(policy) {
            return Arc::clone(existing);
        }
        Arc::clone(self.write().entry(policy.to_string()).or_default())
    }

    /// The metrics handle of a registered policy.
    pub fn policy(&self, policy: &str) -> Option<Arc<PolicyMetrics>> {
        self.read().get(policy).cloned()
    }

    /// Retires every policy row `keep` rejects — called after a pack
    /// install publishes a set that no longer names them.  A vet that
    /// pinned the old policy set and races this retirement simply finds
    /// [`MetricsRegistry::policy`] empty and skips recording; handles
    /// already cloned out keep working (the rows are `Arc`'d), they just
    /// stop being exposed.
    pub fn retain_policies(&self, keep: impl Fn(&str) -> bool) {
        self.write().retain(|name, _| keep(name));
    }

    /// Records one vet on the hot path.  Unregistered policy names are
    /// ignored (the engine counts those through
    /// [`MetricsRegistry::note_unknown_pattern`]).
    pub fn record_vet(&self, policy: &str, elapsed_ns: u64, outcome: VetOutcomeKind) {
        if let Some(metrics) = self.read().get(policy) {
            metrics.record(elapsed_ns, outcome);
        }
    }

    /// Records one span of `stage` into that stage's histogram, keeping
    /// `trace_id` as the landing bucket's exemplar when the request left a
    /// trace.  Callers record every span they hand to the
    /// [`crate::TraceCollector`], sampled or not, so `piprov_stage_seconds`
    /// cuts every request into the stages `/trace` shows.
    pub fn record_stage(&self, stage: SpanKind, elapsed_ns: u64, trace_id: Option<u128>) {
        // The kinds are numbered 1.. in `SpanKind::ALL` order.
        self.stages[stage as usize - 1].record_traced(elapsed_ns, trace_id);
    }

    /// Snapshots of every stage histogram, in [`SpanKind::ALL`] order.
    pub fn stage_snapshots(&self) -> Vec<(SpanKind, HistogramSnapshot)> {
        SpanKind::ALL
            .into_iter()
            .zip(&self.stages)
            .map(|(stage, histogram)| (stage, histogram.snapshot()))
            .collect()
    }

    /// Counts one accepted TCP connection.
    pub fn note_connection_accepted(&self) {
        self.connections_accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one closed TCP connection.
    pub fn note_connection_closed(&self) {
        self.connections_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// TCP connections accepted over the registry lifetime.
    pub fn connections_accepted(&self) -> u64 {
        self.connections_accepted.load(Ordering::Relaxed)
    }

    /// TCP connections closed over the registry lifetime.
    pub fn connections_closed(&self) -> u64 {
        self.connections_closed.load(Ordering::Relaxed)
    }

    /// Counts one vet that named a policy the engine does not know.
    pub fn note_unknown_pattern(&self) {
        self.vets_unknown_pattern.fetch_add(1, Ordering::Relaxed);
    }

    /// Vets that named an unregistered policy, over the registry lifetime.
    pub fn unknown_pattern_vets(&self) -> u64 {
        self.vets_unknown_pattern.load(Ordering::Relaxed)
    }

    /// Immutable per-policy counters, sorted by policy name.  `memo` is
    /// filled by the engine (the registry does not own the pattern memos).
    pub fn policy_snapshots(
        &self,
        memo_of: impl Fn(&str) -> Option<MemoStats>,
    ) -> Vec<PolicySnapshot> {
        let mut policies: Vec<PolicySnapshot> = self
            .read()
            .iter()
            .map(|(name, metrics)| PolicySnapshot {
                policy: name.clone(),
                memo: memo_of(name).unwrap_or(EMPTY_MEMO),
                vets_passed: metrics.vets_passed.load(Ordering::Relaxed),
                vets_failed: metrics.vets_failed.load(Ordering::Relaxed),
                vets_unknown_value: metrics.vets_unknown_value.load(Ordering::Relaxed),
                counterfactuals: metrics.counterfactuals.load(Ordering::Relaxed),
                counterfactual_flips: metrics.counterfactual_flips.load(Ordering::Relaxed),
                latency: metrics.latency.snapshot(),
            })
            .collect();
        policies.sort_by(|a, b| a.policy.cmp(&b.policy));
        policies
    }
}

/// Memo stats of a policy whose automaton no longer exists (can only
/// happen if registration raced deregistration; rendered as zeros).
const EMPTY_MEMO: MemoStats = MemoStats {
    entries: 0,
    bound: 0,
    epochs: 0,
    hits: 0,
    misses: 0,
    retained: 0,
};

/// An immutable copy of one latency histogram: per-bucket counts aligned
/// with [`LATENCY_BUCKET_BOUNDS_NS`], the overflow bucket, and the
/// Prometheus `sum`/`count` pair.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Observations per bucket (NOT cumulative), one per bound in
    /// [`LATENCY_BUCKET_BOUNDS_NS`].
    pub counts: Vec<u64>,
    /// Observations above the last bound.
    pub overflow: u64,
    /// Sum of all observed latencies, nanoseconds.
    pub sum_ns: u64,
    /// Total observations (equals the bucket counts plus overflow).
    pub count: u64,
    /// Per-bucket exemplars: one entry per bound in
    /// [`LATENCY_BUCKET_BOUNDS_NS`] plus a final entry for the overflow
    /// (`+Inf`) bucket.  May be empty in a snapshot built by hand, which
    /// renders without exemplars.
    pub exemplars: Vec<Option<Exemplar>>,
}

/// One registered policy's full metric surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicySnapshot {
    /// The policy's registered name (the `policy` label value).
    pub policy: String,
    /// The policy's top-level automaton memo statistics.
    pub memo: MemoStats,
    /// Vets that answered verdict `true`.
    pub vets_passed: u64,
    /// Vets that answered verdict `false`.
    pub vets_failed: u64,
    /// Vets whose value had no recorded history.
    pub vets_unknown_value: u64,
    /// Counterfactual audits served against this policy.
    pub counterfactuals: u64,
    /// Counterfactual audits whose filtered verdict differed from the
    /// original — the removed events were causal.
    pub counterfactual_flips: u64,
    /// The vet latency histogram.
    pub latency: HistogramSnapshot,
}

/// Every counter surface of one engine, frozen at a point in time — the
/// typed half of the `Metrics` wire response; the text half is
/// [`MetricsSnapshot::exposition`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// The engine's lifetime counters and gauges.
    pub engine: EngineStats,
    /// The durable store underneath it.
    pub store: StoreStats,
    /// The process-global provenance interner, aggregated.
    pub interner: InternerStats,
    /// The interner's per-shard breakdown.
    pub interner_shards: Vec<ShardStats>,
    /// Vets that named a policy the engine does not know (these have no
    /// per-policy row to land in).
    pub vets_unknown_pattern: u64,
    /// One latency histogram per pipeline stage, in [`SpanKind::ALL`]
    /// order: every request's spans, cut into the stages `/trace` shows.
    pub stages: Vec<(SpanKind, HistogramSnapshot)>,
    /// Seconds since the engine was opened — the liveness-probe companion.
    pub uptime_seconds: u64,
    /// TCP connections accepted by the serving layer, lifetime.
    pub connections_accepted: u64,
    /// TCP connections closed by the serving layer, lifetime.
    pub connections_closed: u64,
    /// TCP connections currently open (accepted minus closed).
    pub open_connections: u64,
    /// Per-policy counters, histograms and memo statistics, sorted by
    /// policy name.
    pub policies: Vec<PolicySnapshot>,
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format.
    ///
    /// Deterministic: policies are sorted by name, shards by index, and
    /// metric families appear in a fixed order — the same snapshot always
    /// renders the same text, wherever it is rendered (the wire ships the
    /// typed snapshot; client and server render identical expositions).
    pub fn exposition(&self) -> String {
        render_exposition(self)
    }
}

impl AuditEngine {
    /// Gathers every counter surface — engine, store, interner (aggregate
    /// and per shard), and each registered policy's memo, verdict counters
    /// and latency histogram — into one [`MetricsSnapshot`].
    ///
    /// An operator/scrape path: it takes the store read lock briefly for
    /// [`StoreStats`] and never touches the query hot path.
    pub fn metrics(&self) -> MetricsSnapshot {
        let registry = self.metrics_registry();
        MetricsSnapshot {
            engine: self.stats(),
            store: self.store_stats(),
            interner: piprov_core::provenance::interner_stats(),
            interner_shards: piprov_core::provenance::interner_shard_stats(),
            vets_unknown_pattern: registry.unknown_pattern_vets(),
            stages: registry.stage_snapshots(),
            uptime_seconds: self.uptime_seconds(),
            connections_accepted: registry.connections_accepted(),
            connections_closed: registry.connections_closed(),
            open_connections: registry
                .connections_accepted()
                .saturating_sub(registry.connections_closed()),
            policies: registry.policy_snapshots(|name| self.pattern_memo_stats(name)),
        }
    }
}

/// Formats nanoseconds as decimal seconds, exactly (no float rounding):
/// `256` → `"0.000000256"`, `0` → `"0.0"`.
pub(crate) fn fmt_seconds(ns: u64) -> String {
    let mut s = format!("{}.{:09}", ns / 1_000_000_000, ns % 1_000_000_000);
    while s.ends_with('0') {
        s.pop();
    }
    if s.ends_with('.') {
        s.push('0');
    }
    s
}

/// Escapes a label value per the exposition format.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {} {}", name, help);
    let _ = writeln!(out, "# TYPE {} {}", name, kind);
}

fn scalar(out: &mut String, name: &str, kind: &str, help: &str, value: u64) {
    header(out, name, kind, help);
    let _ = writeln!(out, "{} {}", name, value);
}

/// Rendering options for the exposition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExpositionOptions {
    /// Render OpenMetrics-style `# {trace_id="..."}` exemplar suffixes on
    /// histogram bucket samples that have a sampled observation recorded.
    /// Off by default: plain Prometheus scrapers reject the suffix.
    pub exemplars: bool,
}

/// Renders `snapshot` in the Prometheus text format.  Free-function form
/// of [`MetricsSnapshot::exposition`].
///
/// Every stats struct is destructured exhaustively here: a field added
/// anywhere in the stats plumbing that is not rendered fails to compile.
pub fn render_exposition(snapshot: &MetricsSnapshot) -> String {
    render_exposition_with(snapshot, &ExpositionOptions::default())
}

/// Renders `snapshot` with explicit [`ExpositionOptions`] — the serving
/// layer passes `exemplars: true` when `ServeConfig` enables them.
pub fn render_exposition_with(snapshot: &MetricsSnapshot, options: &ExpositionOptions) -> String {
    let MetricsSnapshot {
        engine,
        store,
        interner,
        interner_shards,
        vets_unknown_pattern,
        stages,
        uptime_seconds,
        connections_accepted,
        connections_closed,
        open_connections,
        policies,
    } = snapshot;
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
    } = *engine;
    let StoreStats {
        records,
        segments,
        bytes,
    } = *store;
    let InternerStats {
        interned_nodes,
        hits: interner_hits,
        misses: interner_misses,
        shards,
    } = *interner;

    let mut out = String::with_capacity(4096);
    // -- engine ------------------------------------------------------------
    let c = "counter";
    let g = "gauge";
    scalar(
        &mut out,
        "piprov_requests_total",
        c,
        "Audit requests served, any kind, any thread.",
        requests,
    );
    scalar(
        &mut out,
        "piprov_ingested_total",
        c,
        "Provenance records ingested.",
        ingested,
    );
    scalar(
        &mut out,
        "piprov_vets_passed_total",
        c,
        "Vet requests that answered verdict true.",
        vets_passed,
    );
    scalar(
        &mut out,
        "piprov_vets_failed_total",
        c,
        "Vet requests that answered verdict false.",
        vets_failed,
    );
    scalar(
        &mut out,
        "piprov_vets_unknown_pattern_total",
        c,
        "Vet requests that named an unregistered policy.",
        *vets_unknown_pattern,
    );
    scalar(
        &mut out,
        "piprov_index_hits_total",
        c,
        "Posting-list entries supplied by the store indexes.",
        index_hits,
    );
    scalar(
        &mut out,
        "piprov_memo_hits_total",
        c,
        "Pattern-memo hits across all vet requests.",
        memo_hits,
    );
    scalar(
        &mut out,
        "piprov_ingest_batches_total",
        c,
        "Ingest batches applied (one write-lock acquisition each).",
        ingest_batches,
    );
    scalar(
        &mut out,
        "piprov_busy_rejections_total",
        c,
        "Ingest batches rejected by the bounded queue.",
        busy_rejections,
    );
    scalar(
        &mut out,
        "piprov_queue_depth",
        g,
        "Ingest batches currently queued.",
        queue_depth,
    );
    scalar(
        &mut out,
        "piprov_snapshots_published_total",
        c,
        "Engine snapshots published (one per applied batch).",
        snapshots_published,
    );
    scalar(
        &mut out,
        "piprov_snapshot_lag",
        g,
        "Accepted ingest batches not yet visible to snapshot readers.",
        snapshot_lag,
    );
    scalar(
        &mut out,
        "piprov_watermark",
        g,
        "Highest sequence number visible to readers.",
        watermark,
    );
    // -- store -------------------------------------------------------------
    scalar(
        &mut out,
        "piprov_store_records",
        g,
        "Records held by the durable store.",
        records as u64,
    );
    scalar(
        &mut out,
        "piprov_store_segments",
        g,
        "Segment files (including the active one).",
        segments as u64,
    );
    scalar(
        &mut out,
        "piprov_store_bytes",
        g,
        "Approximate bytes on disk.",
        bytes as u64,
    );
    // -- interner (process-global) ------------------------------------------
    scalar(
        &mut out,
        "piprov_interner_nodes",
        g,
        "Distinct provenance nodes interned in this process.",
        interned_nodes as u64,
    );
    scalar(
        &mut out,
        "piprov_interner_hits_total",
        c,
        "Intern calls answered by an existing node.",
        interner_hits,
    );
    scalar(
        &mut out,
        "piprov_interner_misses_total",
        c,
        "Intern calls that created a new node.",
        interner_misses,
    );
    scalar(
        &mut out,
        "piprov_interner_shards",
        g,
        "Shards the intern table is split into.",
        shards as u64,
    );
    if !interner_shards.is_empty() {
        header(
            &mut out,
            "piprov_interner_shard_entries",
            g,
            "Distinct nodes owned by one interner shard.",
        );
        for stats in interner_shards {
            let ShardStats {
                shard,
                entries,
                hits: _,
                misses: _,
            } = *stats;
            let _ = writeln!(
                out,
                "piprov_interner_shard_entries{{shard=\"{}\"}} {}",
                shard, entries
            );
        }
        header(
            &mut out,
            "piprov_interner_shard_hits_total",
            c,
            "Intern calls one shard answered from its map.",
        );
        for stats in interner_shards {
            let _ = writeln!(
                out,
                "piprov_interner_shard_hits_total{{shard=\"{}\"}} {}",
                stats.shard, stats.hits
            );
        }
        header(
            &mut out,
            "piprov_interner_shard_misses_total",
            c,
            "Intern calls that created a node in one shard.",
        );
        for stats in interner_shards {
            let _ = writeln!(
                out,
                "piprov_interner_shard_misses_total{{shard=\"{}\"}} {}",
                stats.shard, stats.misses
            );
        }
    }
    // -- serving lifecycle ---------------------------------------------------
    scalar(
        &mut out,
        "piprov_uptime_seconds",
        g,
        "Seconds since the engine was opened.",
        *uptime_seconds,
    );
    scalar(
        &mut out,
        "piprov_connections_accepted_total",
        c,
        "TCP connections accepted by the serving layer.",
        *connections_accepted,
    );
    scalar(
        &mut out,
        "piprov_connections_closed_total",
        c,
        "TCP connections closed by the serving layer.",
        *connections_closed,
    );
    scalar(
        &mut out,
        "piprov_open_connections",
        g,
        "TCP connections currently open (accepted minus closed).",
        *open_connections,
    );
    // -- per-stage latency ---------------------------------------------------
    histogram_family(
        &mut out,
        "piprov_stage_seconds",
        "Time per request stage, by the stage names /trace shows.",
        "stage",
        stages
            .iter()
            .map(|(stage, histogram)| (stage.name(), histogram)),
        options,
    );
    // -- per-policy ---------------------------------------------------------
    if !policies.is_empty() {
        render_policy_families(&mut out, policies, options);
    }
    out
}

/// The OpenMetrics-style exemplar suffix for bucket index `slot` (buckets
/// index `0..16`, the `+Inf` bucket is the final entry), or `""`.
fn exemplar_suffix(
    histogram: &HistogramSnapshot,
    slot: usize,
    options: &ExpositionOptions,
) -> String {
    if !options.exemplars {
        return String::new();
    }
    match histogram.exemplars.get(slot) {
        Some(Some(exemplar)) => format!(
            " # {{trace_id=\"{:032x}\"}} {}",
            exemplar.trace_id,
            fmt_seconds(exemplar.value_ns)
        ),
        _ => String::new(),
    }
}

/// Renders one labelled histogram family: HELP/TYPE once, then for each
/// `(label value, histogram)` row cumulative buckets over
/// [`LATENCY_BUCKET_BOUNDS_NS`], `+Inf`, and the `_sum`/`_count` pair.
fn histogram_family<'a>(
    out: &mut String,
    name: &str,
    help: &str,
    label: &str,
    rows: impl IntoIterator<Item = (&'a str, &'a HistogramSnapshot)>,
    options: &ExpositionOptions,
) {
    header(out, name, "histogram", help);
    for (value, histogram) in rows {
        let HistogramSnapshot {
            counts,
            overflow: _,
            sum_ns,
            count,
            exemplars: _,
        } = histogram;
        let series = format!("{}=\"{}\"", label, escape_label(value));
        let mut cumulative = 0u64;
        for (slot, (bound, bucket)) in LATENCY_BUCKET_BOUNDS_NS.iter().zip(counts).enumerate() {
            cumulative += bucket;
            let _ = writeln!(
                out,
                "{}_bucket{{{},le=\"{}\"}} {}{}",
                name,
                series,
                fmt_seconds(*bound),
                cumulative,
                exemplar_suffix(histogram, slot, options)
            );
        }
        let _ = writeln!(
            out,
            "{}_bucket{{{},le=\"+Inf\"}} {}{}",
            name,
            series,
            count,
            exemplar_suffix(histogram, LATENCY_BUCKET_BOUNDS_NS.len(), options)
        );
        let _ = writeln!(out, "{}_sum{{{}}} {}", name, series, fmt_seconds(*sum_ns));
        let _ = writeln!(out, "{}_count{{{}}} {}", name, series, count);
    }
}

/// One labeled family: HELP/TYPE once, then one sample per policy.
fn policy_family(
    out: &mut String,
    name: &str,
    kind: &str,
    help: &str,
    policies: &[PolicySnapshot],
    value: impl Fn(&PolicySnapshot) -> u64,
) {
    header(out, name, kind, help);
    for p in policies {
        let _ = writeln!(
            out,
            "{}{{policy=\"{}\"}} {}",
            name,
            escape_label(&p.policy),
            value(p)
        );
    }
}

fn render_policy_families(
    out: &mut String,
    policies: &[PolicySnapshot],
    options: &ExpositionOptions,
) {
    let c = "counter";
    let g = "gauge";
    policy_family(
        out,
        "piprov_policy_vets_passed_total",
        c,
        "Vets of this policy that answered verdict true.",
        policies,
        |p| p.vets_passed,
    );
    policy_family(
        out,
        "piprov_policy_vets_failed_total",
        c,
        "Vets of this policy that answered verdict false.",
        policies,
        |p| p.vets_failed,
    );
    policy_family(
        out,
        "piprov_policy_vets_unknown_value_total",
        c,
        "Vets of this policy whose value had no recorded history.",
        policies,
        |p| p.vets_unknown_value,
    );
    policy_family(
        out,
        "piprov_policy_counterfactuals_total",
        c,
        "Counterfactual audits served against this policy.",
        policies,
        |p| p.counterfactuals,
    );
    policy_family(
        out,
        "piprov_policy_counterfactual_flips_total",
        c,
        "Counterfactual audits whose filtered verdict differed from the original.",
        policies,
        |p| p.counterfactual_flips,
    );
    policy_family(
        out,
        "piprov_policy_memo_entries",
        g,
        "Verdicts currently held by this policy's memo.",
        policies,
        |p| p.memo.entries as u64,
    );
    policy_family(
        out,
        "piprov_policy_memo_bound",
        g,
        "Configured bound of this policy's memo.",
        policies,
        |p| p.memo.bound as u64,
    );
    policy_family(
        out,
        "piprov_policy_memo_epochs_total",
        c,
        "Eviction epochs this policy's memo has rolled through.",
        policies,
        |p| p.memo.epochs,
    );
    policy_family(
        out,
        "piprov_policy_memo_hits_total",
        c,
        "Memo lookups answered from cache for this policy.",
        policies,
        |p| p.memo.hits,
    );
    policy_family(
        out,
        "piprov_policy_memo_misses_total",
        c,
        "Memo lookups that fell through to NFA simulation.",
        policies,
        |p| p.memo.misses,
    );
    policy_family(
        out,
        "piprov_policy_memo_retained_total",
        c,
        "Hot memo entries that survived an eviction rollover.",
        policies,
        |p| p.memo.retained,
    );
    // Exhaustive use of MemoStats (drift guard): every field above.
    {
        let MemoStats {
            entries: _,
            bound: _,
            epochs: _,
            hits: _,
            misses: _,
            retained: _,
        } = policies[0].memo;
    }
    histogram_family(
        out,
        "piprov_vet_latency_seconds",
        "Vet request latency through the engine, per policy.",
        "policy",
        policies.iter().map(|p| (p.policy.as_str(), &p.latency)),
        options,
    );
}

// ---------------------------------------------------------------------------
// Exposition validation (the "parser test" CI lints the live surface with).
// ---------------------------------------------------------------------------

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Splits `policy="x",le="+Inf"` into pairs, honouring `\"` escapes.
fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut pairs = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=' in {{{}}}", body))?;
        let name = &rest[..eq];
        if !valid_metric_name(name) {
            return Err(format!("bad label name {:?}", name));
        }
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(format!("unquoted label value after {}", name));
        }
        rest = &rest[1..];
        let mut value = String::new();
        let mut closed = false;
        let mut chars = rest.char_indices();
        let mut consumed = rest.len();
        while let Some((i, ch)) = chars.next() {
            match ch {
                '\\' => {
                    let (_, escaped) = chars
                        .next()
                        .ok_or_else(|| "dangling escape in label value".to_string())?;
                    value.push(escaped);
                }
                '"' => {
                    closed = true;
                    consumed = i + 1;
                    break;
                }
                other => value.push(other),
            }
        }
        if !closed {
            return Err(format!("unterminated label value for {}", name));
        }
        rest = &rest[consumed..];
        pairs.push((name.to_string(), value));
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped;
        } else if !rest.is_empty() {
            return Err(format!("junk after label value: {:?}", rest));
        }
    }
    Ok(pairs)
}

/// The family a sample belongs to: histogram samples strip their
/// `_bucket`/`_sum`/`_count` suffix.
fn family_of<'a>(name: &'a str, types: &HashMap<String, String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return base;
            }
        }
    }
    name
}

/// Checks `text` against the Prometheus text exposition format: every
/// sample names a declared family (`# TYPE` before first sample), names
/// and labels are well-formed, values parse, histogram buckets are
/// cumulative with a final `+Inf` bucket equal to the series count.
///
/// This is the lint CI runs against the *live* exposition fetched over the
/// wire, and the oracle the golden tests share.
///
/// # Errors
///
/// A human-readable description of the first violation found.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let mut types: HashMap<String, String> = HashMap::new();
    // series key (name + non-le labels) -> (last le, last cumulative,
    // inf bucket value if seen).
    let mut buckets: HashMap<String, (f64, u64, Option<u64>)> = HashMap::new();
    let mut counts: HashMap<String, u64> = HashMap::new();
    for (number, line) in text.lines().enumerate() {
        let lineno = number + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            let mut parts = comment.splitn(3, ' ');
            let keyword = parts.next().unwrap_or_default();
            let name = parts.next().unwrap_or_default();
            let rest = parts.next().unwrap_or_default();
            match keyword {
                "HELP" => {
                    if !valid_metric_name(name) || rest.is_empty() {
                        return Err(format!("line {}: malformed HELP", lineno));
                    }
                }
                "TYPE" => {
                    if !valid_metric_name(name)
                        || !matches!(rest, "counter" | "gauge" | "histogram")
                    {
                        return Err(format!("line {}: malformed TYPE", lineno));
                    }
                    types.insert(name.to_string(), rest.to_string());
                }
                other => return Err(format!("line {}: unknown comment {:?}", lineno, other)),
            }
            continue;
        }
        // A sample: name[{labels}] value [# {exemplar-labels} exemplar-value]
        let (line, exemplar) = match line.split_once(" # ") {
            Some((base, exemplar)) => (base, Some(exemplar)),
            None => (line, None),
        };
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: sample without value", lineno))?;
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {}: unclosed label braces", lineno))?;
                (
                    name,
                    parse_labels(body).map_err(|e| format!("line {}: {}", lineno, e))?,
                )
            }
            None => (series, Vec::new()),
        };
        if !valid_metric_name(name) {
            return Err(format!("line {}: bad metric name {:?}", lineno, name));
        }
        let family = family_of(name, &types);
        if !types.contains_key(family) {
            return Err(format!(
                "line {}: sample {} has no preceding # TYPE",
                lineno, family
            ));
        }
        if let Some(exemplar) = exemplar {
            if !name.ends_with("_bucket")
                || types.get(family).map(String::as_str) != Some("histogram")
            {
                return Err(format!(
                    "line {}: exemplar on a non-bucket sample {}",
                    lineno, name
                ));
            }
            let (labels_part, ex_value) = exemplar
                .rsplit_once(' ')
                .ok_or_else(|| format!("line {}: exemplar without value", lineno))?;
            let body = labels_part
                .strip_prefix('{')
                .and_then(|rest| rest.strip_suffix('}'))
                .ok_or_else(|| format!("line {}: exemplar labels not braced", lineno))?;
            let pairs = parse_labels(body).map_err(|e| format!("line {}: {}", lineno, e))?;
            let trace_id = pairs
                .iter()
                .find(|(k, _)| k == "trace_id")
                .map(|(_, v)| v.as_str())
                .ok_or_else(|| format!("line {}: exemplar without trace_id label", lineno))?;
            if trace_id.len() != 32
                || !trace_id
                    .chars()
                    .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase())
            {
                return Err(format!(
                    "line {}: exemplar trace_id {:?} is not 32 lowercase hex digits",
                    lineno, trace_id
                ));
            }
            if ex_value.parse::<f64>().is_err() {
                return Err(format!(
                    "line {}: unparseable exemplar value {:?}",
                    lineno, ex_value
                ));
            }
        }
        let parsed: f64 = if value == "+Inf" {
            f64::INFINITY
        } else {
            value
                .parse()
                .map_err(|_| format!("line {}: unparseable value {:?}", lineno, value))?
        };
        // Histogram bookkeeping.
        if types.get(family).map(String::as_str) == Some("histogram") {
            let series_key = |skip_le: bool| {
                let mut key = String::from(family);
                for (k, v) in &labels {
                    if skip_le && k == "le" {
                        continue;
                    }
                    let _ = write!(key, "|{}={}", k, v);
                }
                key
            };
            if name.ends_with("_bucket") {
                let le = labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| v.as_str())
                    .ok_or_else(|| format!("line {}: bucket without le label", lineno))?;
                let le_value: f64 = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse()
                        .map_err(|_| format!("line {}: unparseable le {:?}", lineno, le))?
                };
                let cumulative = parsed as u64;
                let entry = buckets
                    .entry(series_key(true))
                    .or_insert((f64::NEG_INFINITY, 0, None));
                if le_value <= entry.0 {
                    return Err(format!("line {}: le values not increasing", lineno));
                }
                if cumulative < entry.1 {
                    return Err(format!("line {}: bucket counts not cumulative", lineno));
                }
                entry.0 = le_value;
                entry.1 = cumulative;
                if le_value.is_infinite() {
                    entry.2 = Some(cumulative);
                }
            } else if name.ends_with("_count") {
                // A _count sample carries no `le`, so its key lands in the
                // same space as the bucket series keys above.
                counts.insert(series_key(false), parsed as u64);
            }
        }
    }
    // Every bucket series must end at +Inf and agree with its _count.
    for (series, (_, _, inf)) in &buckets {
        let inf = inf.ok_or_else(|| format!("series {} has no +Inf bucket", series))?;
        if let Some(count) = counts.get(series) {
            if *count != inf {
                return Err(format!(
                    "series {}: +Inf bucket {} != count {}",
                    series, inf, count
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log_spaced_and_sorted() {
        for pair in LATENCY_BUCKET_BOUNDS_NS.windows(2) {
            assert_eq!(pair[1], pair[0] * 2, "log-spaced: each bound doubles");
        }
    }

    #[test]
    fn histogram_records_into_the_right_bucket() {
        let h = LatencyHistogram::default();
        h.record_traced(1, None); // <= 256 -> bucket 0
        h.record_traced(256, None); // == bound 0 (inclusive)
        h.record_traced(257, None); // bucket 1
        h.record_traced(u64::MAX, None); // overflow
        let snap = h.snapshot();
        assert_eq!(snap.counts[0], 2);
        assert_eq!(snap.counts[1], 1);
        assert_eq!(snap.overflow, 1);
        assert_eq!(snap.count, 4);
        assert_eq!(snap.counts.iter().sum::<u64>() + snap.overflow, snap.count);
    }

    #[test]
    fn snapshots_racing_records_are_never_torn() {
        // Two writers record into one registry histogram while this
        // thread snapshots it.  Every snapshot's count (`+Inf`) must equal
        // its buckets plus overflow, and the exposition rendered from it
        // must lint.
        let registry = Arc::new(MetricsRegistry::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..2u32)
            .map(|writer| {
                let (registry, stop) = (Arc::clone(&registry), Arc::clone(&stop));
                std::thread::spawn(move || {
                    // Walk every bucket and the overflow.
                    let mut shift = writer;
                    while !stop.load(Ordering::Relaxed) {
                        registry.record_stage(SpanKind::Handle, 1 << (shift % 26), None);
                        shift += 1;
                    }
                })
            })
            .collect();
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(300);
        let (mut snapshots, mut torn) = (0u64, 0u64);
        let mut last = HistogramSnapshot::default();
        while std::time::Instant::now() < deadline {
            let mut stages = registry.stage_snapshots().into_iter();
            last = stages
                .find(|(stage, _)| *stage == SpanKind::Handle)
                .unwrap()
                .1;
            snapshots += 1;
            if last.counts.iter().sum::<u64>() + last.overflow != last.count {
                torn += 1;
            }
        }
        stop.store(true, Ordering::Relaxed);
        for writer in writers {
            writer.join().unwrap();
        }
        assert_eq!(torn, 0, "{} of {} snapshots torn", torn, snapshots);
        assert!(
            last.count > 0,
            "the writers recorded before the last snapshot"
        );
        let mut text = String::new();
        histogram_family(
            &mut text,
            "h",
            "racing",
            "stage",
            [("handle", &last)],
            &ExpositionOptions::default(),
        );
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn each_stage_records_into_its_own_histogram() {
        let registry = MetricsRegistry::new();
        for (i, stage) in SpanKind::ALL.into_iter().enumerate() {
            registry.record_stage(stage, 1_000 * (i as u64 + 1), None);
        }
        let snapshots = registry.stage_snapshots();
        let stages: Vec<SpanKind> = snapshots.iter().map(|(stage, _)| *stage).collect();
        assert_eq!(stages, SpanKind::ALL);
        for (i, (stage, histogram)) in snapshots.iter().enumerate() {
            assert_eq!(
                (histogram.count, histogram.sum_ns),
                (1, 1_000 * (i as u64 + 1)),
                "{}",
                stage.name()
            );
        }
    }

    #[test]
    fn registry_is_idempotent_and_records_by_name() {
        let registry = MetricsRegistry::new();
        let first = registry.register_policy("p");
        first.record(100, VetOutcomeKind::Passed);
        // Re-registration keeps the counters.
        let again = registry.register_policy("p");
        assert!(Arc::ptr_eq(&first, &again));
        registry.record_vet("p", 300, VetOutcomeKind::Failed);
        registry.record_vet("p", 1_000_000, VetOutcomeKind::UnknownValue);
        registry.record_vet("ghost", 1, VetOutcomeKind::Passed); // ignored
        registry.note_unknown_pattern();
        let snaps = registry.policy_snapshots(|_| None);
        assert_eq!(snaps.len(), 1);
        let p = &snaps[0];
        assert_eq!(
            (p.vets_passed, p.vets_failed, p.vets_unknown_value),
            (1, 1, 1)
        );
        assert_eq!(p.latency.count, 3);
        assert_eq!(p.latency.sum_ns, 1_000_400);
        assert_eq!(registry.unknown_pattern_vets(), 1);
    }

    #[test]
    fn seconds_format_is_exact_decimal() {
        assert_eq!(fmt_seconds(0), "0.0");
        assert_eq!(fmt_seconds(256), "0.000000256");
        assert_eq!(fmt_seconds(1 << 23), "0.008388608");
        assert_eq!(fmt_seconds(1_000_000_000), "1.0");
        assert_eq!(fmt_seconds(2_500_000_000), "2.5");
    }

    #[test]
    fn label_escaping_round_trips_through_the_validator() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let pairs = parse_labels("policy=\"a\\\"b\\\\c\",le=\"+Inf\"").unwrap();
        assert_eq!(pairs[0].1, "a\"b\\c");
        assert_eq!(pairs[1], ("le".to_string(), "+Inf".to_string()));
    }

    #[test]
    fn validator_rejects_broken_expositions() {
        // Sample before its TYPE.
        assert!(validate_exposition("piprov_x 1\n").is_err());
        // Bad type keyword.
        assert!(validate_exposition("# TYPE piprov_x summary\n").is_err());
        // Unparseable value.
        assert!(
            validate_exposition("# HELP piprov_x h\n# TYPE piprov_x counter\npiprov_x nope\n")
                .is_err()
        );
        // Non-cumulative buckets.
        let broken = "# HELP h l\n# TYPE h histogram\n\
                      h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\n";
        assert!(validate_exposition(broken).is_err());
        // Missing +Inf.
        let broken = "# HELP h l\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\n";
        assert!(validate_exposition(broken).is_err());
        // +Inf disagrees with _count.
        let broken = "# HELP h l\n# TYPE h histogram\n\
                      h_bucket{le=\"+Inf\"} 5\nh_count 4\n";
        assert!(validate_exposition(broken).is_err());
    }

    #[test]
    fn rendered_exposition_validates() {
        let registry = MetricsRegistry::new();
        registry.register_policy("alpha");
        registry.register_policy("beta");
        for i in 0..100u64 {
            registry.record_vet(
                "alpha",
                i * 97,
                if i % 3 == 0 {
                    VetOutcomeKind::Failed
                } else {
                    VetOutcomeKind::Passed
                },
            );
        }
        registry.record_vet("beta", 1 << 30, VetOutcomeKind::UnknownValue);
        registry.record_stage(SpanKind::Decode, 512, None);
        registry.record_stage(SpanKind::Handle, 4096, None);
        registry.record_stage(SpanKind::QueueWait, 1 << 24, None); // overflow bucket
        for _ in 0..3 {
            registry.note_connection_accepted();
        }
        registry.note_connection_closed();
        let snapshot = MetricsSnapshot {
            engine: EngineStats::default(),
            store: StoreStats::default(),
            interner: piprov_core::provenance::interner_stats(),
            interner_shards: piprov_core::provenance::interner_shard_stats(),
            vets_unknown_pattern: registry.unknown_pattern_vets(),
            stages: registry.stage_snapshots(),
            uptime_seconds: 12,
            connections_accepted: registry.connections_accepted(),
            connections_closed: registry.connections_closed(),
            open_connections: 2,
            policies: registry.policy_snapshots(|_| None),
        };
        let text = snapshot.exposition();
        validate_exposition(&text).unwrap_or_else(|e| panic!("{}\n---\n{}", e, text));
        assert!(text.contains("piprov_vet_latency_seconds_bucket{policy=\"alpha\","));
        assert!(text.contains("le=\"+Inf\"} 100"));
        assert!(text.contains("piprov_policy_vets_unknown_value_total{policy=\"beta\"} 1"));
        // Every stage renders a series, recorded or not, and lints clean
        // even with only the overflow bucket populated.
        assert!(text.contains("piprov_stage_seconds_bucket{stage=\"decode\",le=\"0.000000512\"} 1"));
        assert!(text.contains("piprov_stage_seconds_count{stage=\"handle\"} 1"));
        assert!(text.contains("piprov_stage_seconds_bucket{stage=\"queue_wait\",le=\"+Inf\"} 1"));
        assert!(text.contains("piprov_stage_seconds_count{stage=\"queue_wait\"} 1"));
        assert!(text.contains("piprov_stage_seconds_count{stage=\"client_encode\"} 0"));
        assert!(text.contains("piprov_stage_seconds_count{stage=\"write\"} 0"));
        // The serving-lifecycle families render.
        assert!(text.contains("piprov_uptime_seconds 12"));
        assert!(text.contains("piprov_connections_accepted_total 3"));
        assert!(text.contains("piprov_connections_closed_total 1"));
        assert!(text.contains("piprov_open_connections 2"));
    }

    #[test]
    fn exemplars_render_behind_the_flag_and_lint_clean() {
        let registry = MetricsRegistry::new();
        registry.register_policy("alpha");
        let policy = registry.policy("alpha").unwrap();
        policy.record_traced(300, VetOutcomeKind::Passed, Some(0xabcd));
        policy.record_traced(1 << 30, VetOutcomeKind::Failed, Some(0x1234)); // +Inf bucket
        registry.record_stage(SpanKind::Handle, 4096, Some(0x77));
        registry.record_stage(SpanKind::Handle, 8192, None); // untraced: leaves no exemplar
        let snapshot = MetricsSnapshot {
            engine: EngineStats::default(),
            store: StoreStats::default(),
            interner: piprov_core::provenance::interner_stats(),
            interner_shards: Vec::new(),
            vets_unknown_pattern: 0,
            stages: registry.stage_snapshots(),
            uptime_seconds: 0,
            connections_accepted: 0,
            connections_closed: 0,
            open_connections: 0,
            policies: registry.policy_snapshots(|_| None),
        };
        let plain = snapshot.exposition();
        assert!(!plain.contains(" # {"), "exemplars are off by default");
        validate_exposition(&plain).unwrap();
        let annotated = render_exposition_with(&snapshot, &ExpositionOptions { exemplars: true });
        let expected_vet = format!(" # {{trace_id=\"{:032x}\"}} 0.0000003", 0xabcdu128);
        assert!(annotated.contains(&expected_vet), "got:\n{}", annotated);
        let expected_inf = format!("le=\"+Inf\"}} 2 # {{trace_id=\"{:032x}\"}}", 0x1234u128);
        assert!(annotated.contains(&expected_inf), "got:\n{}", annotated);
        assert!(annotated.contains(&format!(
            " # {{trace_id=\"{:032x}\"}} 0.000004096",
            0x77u128
        )));
        validate_exposition(&annotated).unwrap_or_else(|e| panic!("{}\n---\n{}", e, annotated));
    }

    #[test]
    fn the_validator_polices_exemplar_suffixes() {
        let head = "# HELP h l\n# TYPE h histogram\n";
        let id = format!("{:032x}", 9u128);
        // Valid exemplar.
        let good =
            format!("{head}h_bucket{{le=\"+Inf\"}} 1 # {{trace_id=\"{id}\"}} 0.001\nh_count 1\n");
        validate_exposition(&good).unwrap();
        // Exemplar on a non-bucket sample.
        let bad = format!("{head}h_bucket{{le=\"+Inf\"}} 1\nh_count 1 # {{trace_id=\"{id}\"}} 1\n");
        assert!(validate_exposition(&bad).is_err());
        // Missing trace_id label.
        let bad = format!("{head}h_bucket{{le=\"+Inf\"}} 1 # {{span=\"{id}\"}} 0.001\n");
        assert!(validate_exposition(&bad).is_err());
        // Short / non-hex trace id.
        let bad = format!("{head}h_bucket{{le=\"+Inf\"}} 1 # {{trace_id=\"beef\"}} 0.001\n");
        assert!(validate_exposition(&bad).is_err());
        // Unparseable exemplar value.
        let bad = format!("{head}h_bucket{{le=\"+Inf\"}} 1 # {{trace_id=\"{id}\"}} x\n");
        assert!(validate_exposition(&bad).is_err());
    }
}
