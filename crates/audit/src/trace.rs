//! Request tracing: wire-propagated trace contexts, per-stage spans, and a
//! bounded lock-free ring-buffer collector.
//!
//! The metrics plane answers "how slow is the p99"; this module answers
//! "*which* request was the p99 and where did it spend its time". A
//! [`TraceContext`] is a 128-bit trace id plus a sampling flag, carried in an
//! additive wire field on every request. Each hop stamps a [`Span`] — client
//! encode, frame decode, queue wait, engine handle, response write — and the
//! server deposits the finished [`TraceRecord`] into a [`TraceCollector`]: a
//! fixed-capacity overwrite-oldest ring whose record path is a handful of
//! relaxed atomic stores behind a per-slot seqlock, so tracing never takes a
//! lock and never blocks a request.
//!
//! Traces surface three ways: rendered as deterministic text for the plain
//! `GET /trace` endpoint (see [`render_traces`] and its linter
//! [`validate_trace_text`]), returned over the wire for `AuditClient::traces`,
//! and aggregated by [`SpanKind`] into the metrics exposition's
//! `piprov_stage_seconds` family, whose exemplars are trace ids.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::metrics::fmt_seconds;

/// Maximum spans retained per trace record: one per pipeline stage
/// (client encode, decode, queue wait, handle, write). A merged record
/// can never exceed one span per stage, so there is no headroom to pay
/// for — and the tight bound keeps a ring slot inside two cache lines,
/// which is what makes the record path cheap enough to leave sampling on.
pub const MAX_TRACE_SPANS: usize = 5;

/// A propagated trace identity: a 128-bit id plus the sampling decision.
///
/// Carried on the wire as an additive field; an absent field means the
/// request is untraced and old clients keep working unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Nonzero 128-bit trace identifier, rendered as 32 lowercase hex digits.
    pub trace_id: u128,
    /// Whether the originator elected this request for collection.
    pub sampled: bool,
}

impl TraceContext {
    /// Generates a fresh sampled context with a process-unique id.
    ///
    /// Ids mix the hasher seed entropy of [`std::collections::hash_map::RandomState`],
    /// the wall clock, and a process-wide counter, so they are unique within a
    /// process and collide across processes only with negligible probability.
    /// No external randomness dependency is required.
    pub fn generate() -> Self {
        use std::collections::hash_map::RandomState;
        use std::hash::{BuildHasher, Hasher};

        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let count = COUNTER.fetch_add(1, Ordering::Relaxed);
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let mut hasher = RandomState::new().build_hasher();
        hasher.write_u64(count);
        hasher.write_u64(nanos);
        let hi = hasher.finish();
        hasher.write_u64(hi);
        let lo = hasher.finish();
        let mut trace_id = ((hi as u128) << 64) | lo as u128;
        if trace_id == 0 {
            trace_id = 1;
        }
        TraceContext {
            trace_id,
            sampled: true,
        }
    }
}

/// The pipeline stage a [`Span`] measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// Client-side request encode + send, measured by the originator and
    /// carried over the wire so the server-side trace covers the full path.
    ClientEncode = 1,
    /// Frame body decode into a typed request.
    Decode = 2,
    /// Ingest queue dwell time between submit and apply.
    QueueWait = 3,
    /// Engine `handle()` execution, including memo/index hit counts.
    Handle = 4,
    /// Response encode + socket write/drain.
    Write = 5,
}

impl SpanKind {
    /// Every stage, in pipeline (and tag) order.
    pub const ALL: [SpanKind; 5] = [
        SpanKind::ClientEncode,
        SpanKind::Decode,
        SpanKind::QueueWait,
        SpanKind::Handle,
        SpanKind::Write,
    ];

    /// Stable lowercase name used in rendered traces, log lines and the
    /// `stage` label of `piprov_stage_seconds`.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::ClientEncode => "client_encode",
            SpanKind::Decode => "decode",
            SpanKind::QueueWait => "queue_wait",
            SpanKind::Handle => "handle",
            SpanKind::Write => "write",
        }
    }

    /// Decodes a wire/ring byte back into a kind.
    pub fn from_u8(value: u8) -> Option<Self> {
        SpanKind::ALL.into_iter().find(|&kind| kind as u8 == value)
    }
}

/// One timed stage of a traced request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// Which stage this span measures.
    pub kind: SpanKind,
    /// Stage duration in nanoseconds.
    pub duration_ns: u64,
    /// Index hits observed during the stage (nonzero only for `Handle`).
    pub index_hits: u64,
    /// Memo hits observed during the stage (nonzero only for `Handle`).
    pub memo_hits: u64,
}

impl Span {
    /// A span with no auxiliary counters.
    pub fn new(kind: SpanKind, duration_ns: u64) -> Self {
        Span {
            kind,
            duration_ns,
            index_hits: 0,
            memo_hits: 0,
        }
    }
}

/// The request shape a trace describes, mirroring the wire request taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum RequestKind {
    /// `AuditRequest::VetValue`.
    Vet = 1,
    /// `AuditRequest::AuditTrail`.
    Trail = 2,
    /// `AuditRequest::WhoTouched`.
    Touched = 3,
    /// `AuditRequest::OriginOf`.
    Origin = 4,
    /// An ingest batch submission (the queue-wait half arrives asynchronously).
    Ingest = 5,
    /// A flush barrier.
    Flush = 6,
    /// A metrics snapshot.
    Metrics = 7,
    /// A traces fetch (yes, fetching traces is itself traceable).
    Traces = 8,
    /// A policy-pack installation.
    LoadPack = 9,
    /// A policy listing.
    ListPolicies = 10,
    /// `AuditRequest::Why` — a why-provenance slice.
    Why = 11,
    /// `AuditRequest::Counterfactual` — a filtered re-vet.
    Counterfactual = 12,
}

impl RequestKind {
    /// Every request kind, in tag order.
    pub const ALL: [RequestKind; 12] = [
        RequestKind::Vet,
        RequestKind::Trail,
        RequestKind::Touched,
        RequestKind::Origin,
        RequestKind::Ingest,
        RequestKind::Flush,
        RequestKind::Metrics,
        RequestKind::Traces,
        RequestKind::LoadPack,
        RequestKind::ListPolicies,
        RequestKind::Why,
        RequestKind::Counterfactual,
    ];

    /// Stable lowercase name used in rendered traces and log lines.
    pub fn name(self) -> &'static str {
        match self {
            RequestKind::Vet => "vet",
            RequestKind::Trail => "trail",
            RequestKind::Touched => "touched",
            RequestKind::Origin => "origin",
            RequestKind::Ingest => "ingest",
            RequestKind::Flush => "flush",
            RequestKind::Metrics => "metrics",
            RequestKind::Traces => "traces",
            RequestKind::LoadPack => "load_pack",
            RequestKind::ListPolicies => "list_policies",
            RequestKind::Why => "why",
            RequestKind::Counterfactual => "counterfactual",
        }
    }

    /// Decodes a wire/ring byte back into a kind.
    pub fn from_u8(value: u8) -> Option<Self> {
        RequestKind::ALL
            .into_iter()
            .find(|&kind| kind as u8 == value)
    }
}

/// A completed trace: the id, the request shape, the end-to-end total, and
/// the per-stage spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// The propagated (or collector-assigned) 128-bit trace id.
    pub trace_id: u128,
    /// What kind of request this trace describes.
    pub kind: RequestKind,
    /// End-to-end duration in nanoseconds as observed by the recording hop.
    pub total_ns: u64,
    /// Per-stage spans, at most [`MAX_TRACE_SPANS`].
    pub spans: Vec<Span>,
}

/// Collector configuration, carried inside `ServeConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Head-based sampling period for requests that arrive without a wire
    /// context: every `sample_every`-th such request is traced. `0` disables
    /// head-based sampling, `1` traces everything.
    pub sample_every: u32,
    /// Requests at or above this end-to-end duration are always collected
    /// (and logged to stderr with a span breakdown), sampled or not.
    /// `Duration::ZERO` disables the slow path.
    pub slow_threshold: Duration,
    /// Ring capacity in records; the collector overwrites the oldest.
    pub capacity: usize,
    /// Whether the metrics exposition renders histogram exemplar suffixes.
    pub exemplars: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sample_every: 1,
            slow_threshold: Duration::from_millis(100),
            capacity: 256,
            exemplars: false,
        }
    }
}

/// Per-span storage inside a ring slot: two packed words (see
/// [`pack_span`]) instead of one word per field, halving the cache lines
/// the record path must dirty.
const SPAN_WORDS: usize = 2;

/// Low 56 bits of span word 0 hold the duration; the top byte holds the
/// stage kind. 2^56 ns is over two years, so saturation is theoretical.
const DURATION_MASK: u64 = (1 << 56) - 1;

/// Low 48 bits of a slot's meta word hold the end-to-end total (2^48 ns
/// is 3.2 days); bits 48..56 hold the span count, the top byte the
/// request kind.
const TOTAL_MASK: u64 = (1 << 48) - 1;

/// Packs a span into its two ring words: `(kind << 56) | duration` and
/// `(index_hits << 32) | memo_hits`. Hit counters saturate at `u32::MAX`
/// per span — far beyond any single request's store activity.
fn pack_span(span: &Span) -> (u64, u64) {
    let w0 = ((span.kind as u8 as u64) << 56) | span.duration_ns.min(DURATION_MASK);
    let index = span.index_hits.min(u32::MAX as u64);
    let memo = span.memo_hits.min(u32::MAX as u64);
    (w0, (index << 32) | memo)
}

/// One ring slot. A per-slot sequence word (even = stable, odd = mid-write)
/// lets readers detect torn reads without the writer ever blocking. The
/// `meta` word packs kind, span count and total (see [`TOTAL_MASK`]); with
/// two words per span the whole slot is 14 words, so a 64-byte-aligned
/// record dirties exactly two cache lines.
#[repr(align(64))]
struct Slot {
    seq: AtomicU64,
    id_hi: AtomicU64,
    id_lo: AtomicU64,
    meta: AtomicU64,
    spans: [[AtomicU64; SPAN_WORDS]; MAX_TRACE_SPANS],
}

impl Slot {
    fn empty() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            id_hi: AtomicU64::new(0),
            id_lo: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            spans: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }
}

/// Bounded lock-free trace ring: fixed capacity, overwrite-oldest, relaxed
/// atomics on the record path. Writers never block; a reader that races a
/// wrapping writer simply skips the slot being rewritten.
pub struct TraceCollector {
    config: TraceConfig,
    /// [`TraceConfig::slow_threshold`] in nanoseconds, precomputed so the
    /// per-request finish path skips the `Duration` conversion.
    slow_ns: u64,
    slots: Vec<Slot>,
    /// Monotone ticket counter; slot = ticket % capacity. Starts at 1 so a
    /// ticket of 0 always means "never written".
    head: AtomicU64,
    /// Head-based sampling counter for requests without a wire context.
    sampler: AtomicU64,
}

impl std::fmt::Debug for TraceCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCollector")
            .field("config", &self.config)
            .field(
                "recorded",
                &self.head.load(Ordering::Relaxed).saturating_sub(1),
            )
            .finish()
    }
}

impl TraceCollector {
    /// Creates a collector with `config.capacity` slots, rounded up to the
    /// next power of two (minimum 1) so the record path can mask instead
    /// of divide.
    pub fn new(config: TraceConfig) -> Self {
        let capacity = config.capacity.max(1).next_power_of_two();
        TraceCollector {
            config,
            slow_ns: u64::try_from(config.slow_threshold.as_nanos()).unwrap_or(u64::MAX),
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
            head: AtomicU64::new(1),
            sampler: AtomicU64::new(0),
        }
    }

    /// The configuration this collector was built with.
    pub fn config(&self) -> TraceConfig {
        self.config
    }

    /// Admission decision for an incoming request.
    ///
    /// A wire-propagated context wins: sampled passes through, unsampled
    /// suppresses collection. Without a wire context the collector applies
    /// head-based sampling per [`TraceConfig::sample_every`].
    pub fn admit(&self, wire: Option<TraceContext>) -> Option<TraceContext> {
        match wire {
            Some(ctx) if ctx.sampled => Some(ctx),
            Some(_) => None,
            None => {
                let every = self.config.sample_every;
                if every == 0 {
                    return None;
                }
                let tick = self.sampler.fetch_add(1, Ordering::Relaxed);
                if tick.is_multiple_of(every as u64) {
                    Some(TraceContext::generate())
                } else {
                    None
                }
            }
        }
    }

    /// Completes a request: records the trace if it was admitted, and records
    /// (plus logs a span breakdown to stderr) any request at or above the
    /// slow threshold even when unsampled. Returns the recorded trace id, if
    /// any — callers feed it to histogram exemplars.
    pub fn finish(
        &self,
        ctx: Option<TraceContext>,
        kind: RequestKind,
        total_ns: u64,
        spans: &[Span],
    ) -> Option<u128> {
        let slow = self.slow_ns > 0 && total_ns >= self.slow_ns;
        let ctx = match ctx {
            Some(ctx) => ctx,
            None if slow => TraceContext::generate(),
            None => return None,
        };
        if slow {
            eprintln!(
                "{}",
                slow_line(&TraceRecord {
                    trace_id: ctx.trace_id,
                    kind,
                    total_ns,
                    spans: spans.to_vec(),
                })
            );
        }
        self.record_parts(ctx.trace_id, kind, total_ns, spans);
        Some(ctx.trace_id)
    }

    /// Deposits a record into the ring, overwriting the oldest slot.
    ///
    /// Spans beyond [`MAX_TRACE_SPANS`] are dropped. Safe to call from any
    /// thread; the hot path is one `fetch_add` plus relaxed stores.
    pub fn record(&self, record: &TraceRecord) {
        self.record_parts(record.trace_id, record.kind, record.total_ns, &record.spans);
    }

    fn record_parts(&self, trace_id: u128, kind: RequestKind, total_ns: u64, spans: &[Span]) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        // Capacity is a power of two: mask, don't divide.
        let slot = &self.slots[(ticket & (self.slots.len() as u64 - 1)) as usize];
        // Mark the slot mid-write (odd seq); readers will skip or retry.
        // The sequence is derived from the ticket (mid-write `2t+1`,
        // published `2t+2`), strictly increasing per slot across ring
        // wraps — no load needed, and readers recover the arrival ticket
        // from the published value instead of a separate word. Store +
        // release fence instead of a locked RMW: slot writers can only
        // collide after a full ring wrap mid-write, and the worst outcome
        // of that race is one garbled slot the reader's field validation
        // already discards.
        slot.seq
            .store(ticket.wrapping_mul(2).wrapping_add(1), Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::Release);
        slot.id_hi.store((trace_id >> 64) as u64, Ordering::Relaxed);
        slot.id_lo.store(trace_id as u64, Ordering::Relaxed);
        let count = spans.len().min(MAX_TRACE_SPANS);
        let meta = ((kind as u8 as u64) << 56) | ((count as u64) << 48) | total_ns.min(TOTAL_MASK);
        slot.meta.store(meta, Ordering::Relaxed);
        for (i, span) in spans.iter().take(count).enumerate() {
            let (w0, w1) = pack_span(span);
            slot.spans[i][0].store(w0, Ordering::Relaxed);
            slot.spans[i][1].store(w1, Ordering::Relaxed);
        }
        // Publish (even seq).
        slot.seq
            .store(ticket.wrapping_mul(2).wrapping_add(2), Ordering::Release);
    }

    /// Snapshot of retained traces, oldest first, after merging records that
    /// share a trace id (an ingest's queue-wait span arrives asynchronously
    /// from the drain worker) and dropping anything shorter than
    /// `min_total_ns`.
    pub fn snapshot(&self, min_total_ns: u64) -> Vec<TraceRecord> {
        let mut raw: Vec<(u64, TraceRecord)> = Vec::new();
        for slot in &self.slots {
            let seq_before = slot.seq.load(Ordering::Acquire);
            if seq_before == 0 || seq_before % 2 == 1 {
                continue;
            }
            // Published seq is `2t + 2`: recover the arrival ticket.
            let ticket = seq_before.wrapping_sub(2) >> 1;
            let id_hi = slot.id_hi.load(Ordering::Relaxed);
            let id_lo = slot.id_lo.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let kind = meta >> 56;
            let total_ns = meta & TOTAL_MASK;
            let span_count = (((meta >> 48) & 0xFF) as usize).min(MAX_TRACE_SPANS);
            let mut spans = Vec::with_capacity(span_count);
            for words in slot.spans.iter().take(span_count) {
                let w0 = words[0].load(Ordering::Relaxed);
                let w1 = words[1].load(Ordering::Relaxed);
                if let Some(kind) = SpanKind::from_u8((w0 >> 56) as u8) {
                    spans.push(Span {
                        kind,
                        duration_ns: w0 & DURATION_MASK,
                        index_hits: w1 >> 32,
                        memo_hits: w1 & u32::MAX as u64,
                    });
                }
            }
            std::sync::atomic::fence(Ordering::Acquire);
            let seq_after = slot.seq.load(Ordering::Relaxed);
            if seq_after != seq_before {
                continue; // torn read: a writer wrapped past us mid-copy
            }
            let Some(kind) = u8::try_from(kind).ok().and_then(RequestKind::from_u8) else {
                continue;
            };
            if spans.len() != span_count {
                continue;
            }
            let trace_id = ((id_hi as u128) << 64) | id_lo as u128;
            if trace_id == 0 || ticket == 0 {
                continue;
            }
            raw.push((
                ticket,
                TraceRecord {
                    trace_id,
                    kind,
                    total_ns,
                    spans,
                },
            ));
        }
        raw.sort_by_key(|(ticket, _)| *ticket);

        // Merge records that share a trace id: concatenate spans (capped and
        // ordered by stage), keep the larger total, prefer the kind of the
        // record that carries the primary (non-queue-wait) spans.
        let mut merged: Vec<TraceRecord> = Vec::with_capacity(raw.len());
        for (_, record) in raw {
            match merged.iter_mut().find(|m| m.trace_id == record.trace_id) {
                Some(existing) => {
                    let only_queue_wait =
                        existing.spans.iter().all(|s| s.kind == SpanKind::QueueWait);
                    if only_queue_wait && !record.spans.is_empty() {
                        existing.kind = record.kind;
                    }
                    existing.spans.extend(record.spans);
                    existing.spans.truncate(MAX_TRACE_SPANS);
                    existing.total_ns = existing.total_ns.max(record.total_ns);
                }
                None => merged.push(record),
            }
        }
        for record in &mut merged {
            record.spans.sort_by_key(|s| s.kind as u8);
        }
        merged.retain(|r| r.total_ns >= min_total_ns);
        merged
    }
}

/// Renders traces as deterministic, lintable text — the body of `GET /trace`.
///
/// Each trace is a header line
/// `trace <32-hex-id> kind=<kind> total=<seconds> spans=<n>` followed by `n`
/// two-space-indented span lines `  <stage> <seconds>`, with
/// ` index_hits=<n> memo_hits=<n>` appended when either counter is nonzero.
pub fn render_traces(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for record in records {
        out.push_str(&format!(
            "trace {:032x} kind={} total={} spans={}\n",
            record.trace_id,
            record.kind.name(),
            fmt_seconds(record.total_ns),
            record.spans.len()
        ));
        for span in &record.spans {
            out.push_str(&format!(
                "  {} {}",
                span.kind.name(),
                fmt_seconds(span.duration_ns)
            ));
            if span.index_hits != 0 || span.memo_hits != 0 {
                out.push_str(&format!(
                    " index_hits={} memo_hits={}",
                    span.index_hits, span.memo_hits
                ));
            }
            out.push('\n');
        }
    }
    out
}

/// The stderr line emitted for a slow request: the header plus a compact
/// `stage=duration` breakdown on one line, grep-able by the scaling smoke.
pub fn slow_line(record: &TraceRecord) -> String {
    let mut line = format!(
        "piprov-serve: slow request trace {:032x} kind={} total={} spans:",
        record.trace_id,
        record.kind.name(),
        fmt_seconds(record.total_ns)
    );
    for span in &record.spans {
        line.push_str(&format!(
            " {}={}",
            span.kind.name(),
            fmt_seconds(span.duration_ns)
        ));
    }
    line
}

/// Lints a `GET /trace` body: every header must carry a 32-digit lowercase
/// hex id, a known kind, a parseable total, and a span count that matches the
/// indented span lines that follow; every span line must name a known stage
/// with a parseable duration and well-formed optional hit counters.
pub fn validate_trace_text(text: &str) -> Result<(), String> {
    let mut lines = text.lines().peekable();
    while let Some(line) = lines.next() {
        if line.starts_with("  ") {
            return Err(format!("span line without a trace header: {line:?}"));
        }
        let mut parts = line.split(' ');
        if parts.next() != Some("trace") {
            return Err(format!("expected a trace header, got: {line:?}"));
        }
        let id = parts
            .next()
            .ok_or_else(|| format!("missing trace id: {line:?}"))?;
        if id.len() != 32
            || !id
                .chars()
                .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase())
        {
            return Err(format!("malformed trace id {id:?}"));
        }
        let kind = parts
            .next()
            .and_then(|p| p.strip_prefix("kind="))
            .ok_or_else(|| format!("missing kind= field: {line:?}"))?;
        if !RequestKind::ALL.iter().any(|k| k.name() == kind) {
            return Err(format!("unknown trace kind {kind:?}"));
        }
        let total = parts
            .next()
            .and_then(|p| p.strip_prefix("total="))
            .ok_or_else(|| format!("missing total= field: {line:?}"))?;
        if total.parse::<f64>().is_err() {
            return Err(format!("unparseable total {total:?}"));
        }
        let span_count: usize = parts
            .next()
            .and_then(|p| p.strip_prefix("spans="))
            .ok_or_else(|| format!("missing spans= field: {line:?}"))?
            .parse()
            .map_err(|_| format!("unparseable span count: {line:?}"))?;
        if parts.next().is_some() {
            return Err(format!("trailing fields on trace header: {line:?}"));
        }
        for _ in 0..span_count {
            let span_line = lines
                .next()
                .ok_or_else(|| format!("trace {id} promises {span_count} spans, text ended"))?;
            let body = span_line
                .strip_prefix("  ")
                .ok_or_else(|| format!("expected an indented span line, got: {span_line:?}"))?;
            let mut fields = body.split(' ');
            let stage = fields.next().unwrap_or_default();
            if !SpanKind::ALL.iter().any(|k| k.name() == stage) {
                return Err(format!("unknown span stage {stage:?}"));
            }
            let duration = fields
                .next()
                .ok_or_else(|| format!("missing span duration: {span_line:?}"))?;
            if duration.parse::<f64>().is_err() {
                return Err(format!("unparseable span duration {duration:?}"));
            }
            match (fields.next(), fields.next(), fields.next()) {
                (None, _, _) => {}
                (Some(index), Some(memo), None) => {
                    let ok = index
                        .strip_prefix("index_hits=")
                        .is_some_and(|v| v.parse::<u64>().is_ok())
                        && memo
                            .strip_prefix("memo_hits=")
                            .is_some_and(|v| v.parse::<u64>().is_ok());
                    if !ok {
                        return Err(format!("malformed span counters: {span_line:?}"));
                    }
                }
                _ => return Err(format!("malformed span line: {span_line:?}")),
            }
        }
        if lines.peek().is_some_and(|l| l.starts_with("  ")) {
            return Err(format!(
                "trace {id} has more span lines than spans={span_count}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_kinds_are_numbered_one_to_twelve_without_gaps() {
        for code in 0..=u8::MAX {
            match RequestKind::from_u8(code) {
                Some(kind) => assert_eq!((kind as u8, (1..=12).contains(&code)), (code, true)),
                None => assert!(!(1..=12).contains(&code), "code {} has no kind", code),
            }
        }
    }

    fn vet_record(id: u128, total_ns: u64) -> TraceRecord {
        TraceRecord {
            trace_id: id,
            kind: RequestKind::Vet,
            total_ns,
            spans: vec![
                Span::new(SpanKind::Decode, 120),
                Span {
                    kind: SpanKind::Handle,
                    duration_ns: 900,
                    index_hits: 2,
                    memo_hits: 1,
                },
                Span::new(SpanKind::Write, 300),
            ],
        }
    }

    fn quiet_config() -> TraceConfig {
        // Slow logging off so unit tests never write to stderr.
        TraceConfig {
            slow_threshold: Duration::ZERO,
            ..TraceConfig::default()
        }
    }

    #[test]
    fn generated_ids_are_nonzero_and_distinct() {
        let a = TraceContext::generate();
        let b = TraceContext::generate();
        assert_ne!(a.trace_id, 0);
        assert_ne!(a.trace_id, b.trace_id);
        assert!(a.sampled && b.sampled);
    }

    #[test]
    fn the_ring_overwrites_oldest_and_orders_by_arrival() {
        let collector = TraceCollector::new(TraceConfig {
            capacity: 4,
            ..quiet_config()
        });
        for i in 1..=10u64 {
            collector.record(&vet_record(i as u128, i * 100));
        }
        let snap = collector.snapshot(0);
        let ids: Vec<u128> = snap.iter().map(|r| r.trace_id).collect();
        assert_eq!(
            ids,
            vec![7, 8, 9, 10],
            "capacity-4 ring keeps the newest four, oldest first"
        );
    }

    #[test]
    fn min_total_filters_short_traces() {
        let collector = TraceCollector::new(TraceConfig {
            capacity: 8,
            ..quiet_config()
        });
        collector.record(&vet_record(1, 500));
        collector.record(&vet_record(2, 5_000));
        let snap = collector.snapshot(1_000);
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].trace_id, 2);
    }

    #[test]
    fn head_sampling_admits_one_in_n() {
        let collector = TraceCollector::new(TraceConfig {
            sample_every: 4,
            ..quiet_config()
        });
        let admitted = (0..100).filter(|_| collector.admit(None).is_some()).count();
        assert_eq!(admitted, 25);
        // sample_every == 0 disables head sampling entirely.
        let off = TraceCollector::new(TraceConfig {
            sample_every: 0,
            ..quiet_config()
        });
        assert!((0..20).all(|_| off.admit(None).is_none()));
    }

    #[test]
    fn wire_contexts_override_head_sampling() {
        let collector = TraceCollector::new(TraceConfig {
            sample_every: 0,
            ..quiet_config()
        });
        let sampled = TraceContext {
            trace_id: 7,
            sampled: true,
        };
        let unsampled = TraceContext {
            trace_id: 8,
            sampled: false,
        };
        assert_eq!(collector.admit(Some(sampled)), Some(sampled));
        assert_eq!(collector.admit(Some(unsampled)), None);
    }

    #[test]
    fn slow_requests_are_collected_even_when_unsampled() {
        let collector = TraceCollector::new(TraceConfig {
            sample_every: 0,
            slow_threshold: Duration::from_nanos(1_000),
            ..TraceConfig::default()
        });
        assert!(collector
            .finish(
                None,
                RequestKind::Vet,
                500,
                &[Span::new(SpanKind::Handle, 500)]
            )
            .is_none());
        let id = collector.finish(
            None,
            RequestKind::Vet,
            2_000,
            &[Span::new(SpanKind::Handle, 2_000)],
        );
        assert!(id.is_some());
        let snap = collector.snapshot(0);
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].total_ns, 2_000);
    }

    #[test]
    fn records_sharing_a_trace_id_merge_with_spans_in_stage_order() {
        let collector = TraceCollector::new(quiet_config());
        // The drain worker's queue-wait half arrives first.
        collector.record(&TraceRecord {
            trace_id: 42,
            kind: RequestKind::Ingest,
            total_ns: 0,
            spans: vec![Span::new(SpanKind::QueueWait, 7_000)],
        });
        collector.record(&TraceRecord {
            trace_id: 42,
            kind: RequestKind::Ingest,
            total_ns: 1_500,
            spans: vec![
                Span::new(SpanKind::Decode, 200),
                Span::new(SpanKind::Handle, 800),
                Span::new(SpanKind::Write, 400),
            ],
        });
        let snap = collector.snapshot(0);
        assert_eq!(snap.len(), 1);
        let record = &snap[0];
        assert_eq!(record.kind, RequestKind::Ingest);
        assert_eq!(record.total_ns, 1_500);
        let kinds: Vec<SpanKind> = record.spans.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SpanKind::Decode,
                SpanKind::QueueWait,
                SpanKind::Handle,
                SpanKind::Write
            ]
        );
    }

    #[test]
    fn rendered_traces_pass_their_own_linter() {
        let records = vec![
            vet_record(0xdead_beef, 1_320),
            TraceRecord {
                trace_id: 5,
                kind: RequestKind::Ingest,
                total_ns: 9_999,
                spans: vec![
                    Span::new(SpanKind::ClientEncode, 100),
                    Span::new(SpanKind::QueueWait, 9_000),
                ],
            },
        ];
        let text = render_traces(&records);
        assert!(text.contains("kind=vet"));
        assert!(text.contains("  handle 0.0000009 index_hits=2 memo_hits=1"));
        validate_trace_text(&text).expect("rendered traces must lint clean");
        validate_trace_text("").expect("an empty body is a valid trace listing");
    }

    #[test]
    fn the_trace_linter_rejects_malformed_bodies() {
        let broken = [
            "  handle 0.001\n",                      // span without header
            "trace zz kind=vet total=0.1 spans=0\n", // bad id
            &format!("trace {:032x} kind=nope total=0.1 spans=0\n", 1u128), // bad kind
            // `stats` named the `Stats` request, which the wire no longer has.
            &format!("trace {:032x} kind=stats total=0.1 spans=0\n", 1u128),
            &format!("trace {:032x} kind=vet total=abc spans=0\n", 1u128), // bad total
            &format!(
                "trace {:032x} kind=vet total=0.1 spans=2\n  handle 0.1\n",
                1u128
            ), // missing span
            &format!(
                "trace {:032x} kind=vet total=0.1 spans=0\n  handle 0.1\n",
                1u128
            ), // extra span
            &format!(
                "trace {:032x} kind=vet total=0.1 spans=1\n  warp 0.1\n",
                1u128
            ), // bad stage
            &format!(
                "trace {:032x} kind=vet total=0.1 spans=1\n  handle 0.1 index_hits=x memo_hits=1\n",
                1u128
            ),
        ];
        for body in broken {
            assert!(
                validate_trace_text(body).is_err(),
                "should reject: {body:?}"
            );
        }
    }

    #[test]
    fn a_trace_of_every_kind_and_every_stage_lints_clean() {
        let records: Vec<TraceRecord> = RequestKind::ALL
            .into_iter()
            .zip(1u128..)
            .map(|(kind, trace_id)| TraceRecord {
                trace_id,
                kind,
                total_ns: 5_000,
                spans: SpanKind::ALL
                    .into_iter()
                    .map(|stage| Span::new(stage, 1_000))
                    .collect(),
            })
            .collect();
        let text = render_traces(&records);
        validate_trace_text(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
        for name in RequestKind::ALL.map(RequestKind::name) {
            assert!(text.contains(&format!(" kind={name} ")), "{name}");
        }
        for name in SpanKind::ALL.map(SpanKind::name) {
            assert!(text.contains(&format!("  {name} ")), "{name}");
        }
    }

    #[test]
    fn slow_lines_carry_the_full_breakdown() {
        let line = slow_line(&vet_record(3, 150_000_000));
        assert!(line.starts_with("piprov-serve: slow request trace"));
        assert!(line.contains("kind=vet"));
        assert!(line.contains("total=0.15"));
        assert!(line.contains("decode=0.00000012"));
        assert!(line.contains("handle="));
        assert!(line.contains("write="));
    }

    #[test]
    fn concurrent_recording_never_tears_snapshots() {
        use std::sync::Arc;
        let collector = Arc::new(TraceCollector::new(TraceConfig {
            capacity: 8,
            ..quiet_config()
        }));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let collector = Arc::clone(&collector);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        collector.record(&vet_record((t * 10_000 + i) as u128 + 1, i));
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            for record in collector.snapshot(0) {
                assert!(record.trace_id != 0);
                assert!(record.spans.len() <= MAX_TRACE_SPANS);
                for span in &record.spans {
                    assert!(SpanKind::from_u8(span.kind as u8).is_some());
                }
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(collector.snapshot(0).len(), 8);
    }
}
