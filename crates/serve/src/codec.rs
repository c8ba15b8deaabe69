//! Binary codec for the wire vocabulary: the audit crate's typed
//! [`AuditRequest`]/[`AuditResponse`] plus the ingest and control messages
//! the cross-process service adds.
//!
//! Every message body is `version u8 | tag u8 | payload`.  The payload
//! reuses the store codec's primitive vocabulary
//! ([`piprov_store::codec::put_str`] and friends) and embeds whole
//! [`ProvenanceRecord`]s in the store's DAG body format — a record crosses
//! the socket in exactly the bytes it would occupy in a segment file, so
//! sharing-heavy provenance stays O(DAG) on the wire too, and the decoder
//! rebuilds it through the interner on the receiving side.
//!
//! Decode-side discipline: every count read off the wire is either capped
//! by [`WireLimits`] (record lists) or its pre-allocation is capped by the
//! bytes actually remaining, so no hostile count can request unbounded
//! memory before the per-element bounds checks reject it.

use crate::wire::{WireError, WireLimits, MIN_WIRE_VERSION, WIRE_VERSION};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use piprov_audit::{
    AuditOutcome, AuditRequest, AuditResponse, CounterfactualVerdict, EngineStats, EventFilter,
    Exemplar, HistogramSnapshot, MetricsSnapshot, PolicyInfo, PolicyListing, PolicySnapshot,
    RequestKind, RequestStats, Span, SpanKind, TraceContext, TraceRecord, WhyEvent, WhySlice,
};
use piprov_core::name::Principal;
use piprov_core::provenance::{Direction, Event, InternerStats, Provenance, ShardStats};
use piprov_patterns::MemoStats;
use piprov_policy::{PackDiagnostic, PackFile, PackSource};
use piprov_store::codec::{
    decode_body, encode_body, get_name, get_str, get_value, put_str, put_value,
};
use piprov_store::record::{
    direction_from_tag, direction_tag, flatten_provenance, unflatten_provenance,
    MAX_PROVENANCE_DEPTH,
};
use piprov_store::{AuditTrail, ProvenanceRecord, StoreStats};

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireRequest {
    /// One typed audit question.
    Audit(AuditRequest),
    /// A batch of records for the bounded ingest queue.
    IngestBatch(Vec<ProvenanceRecord>),
    /// Barrier: drain the ingest queue and sync the store, so everything
    /// submitted before this request is queryable and durable after it.
    /// The server's wait is bounded ([`crate::ServeConfig::flush_timeout`])
    /// and never touches the queue's pause hook; a timeout answers
    /// [`WireResponse::ServerError`].
    Flush,
    /// Snapshot of the engine's lifetime counters.
    Stats,
    /// The full metrics plane: engine/store/interner counters plus every
    /// registered policy's verdict counters and latency histogram (see
    /// [`piprov_audit::MetricsSnapshot`]).
    Metrics,
    /// Recent traces from the server's ring-buffer collector, oldest
    /// first, dropping traces shorter than `min_total_ns` end to end.
    Traces {
        /// Minimum end-to-end duration, nanoseconds (`0` = everything).
        min_total_ns: u64,
    },
    /// A whole policy pack, inline: root package name plus every `.ppol`
    /// file's source text (version 5).  The server compiles it off to the
    /// side and either installs it atomically
    /// ([`WireResponse::PackLoaded`]) or rejects it with per-file
    /// line/column diagnostics and changes nothing
    /// ([`WireResponse::PackRejected`]).
    LoadPack(PackSource),
    /// The registered policies: every name, source package, and canonical
    /// pattern text, plus the pack version they belong to (version 5).
    ListPolicies,
}

/// The trace field a traced request carries after its payload: the
/// propagated [`TraceContext`] plus the client-side encode+send duration,
/// measured by the originator (the server cannot observe it) so the
/// server-side trace covers the full path.
///
/// The field is *additive*: a v3 peer sends none and decodes to `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTrace {
    /// The propagated trace identity.
    pub context: TraceContext,
    /// Client-side request encode (and send-buffer) time, nanoseconds.
    pub client_encode_ns: u64,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum WireResponse {
    /// Answer to [`WireRequest::Audit`].
    Audit(AuditResponse),
    /// The batch was queued.
    IngestAck {
        /// Records accepted (the whole batch; acceptance is atomic).
        accepted: u32,
        /// Ingest-queue depth after queuing, in batches.
        queue_depth: u32,
    },
    /// The bounded ingest queue was full: nothing was buffered, back off
    /// and retry.
    Busy {
        /// Queue depth at the moment of rejection.
        queue_depth: u32,
    },
    /// Answer to [`WireRequest::Flush`].
    Flushed {
        /// Records ingested over the engine's lifetime, after the drain.
        ingested: u64,
        /// The snapshot watermark published by the drain: every record
        /// submitted before the flush is visible at (or below) this
        /// sequence number, so a client can read its own writes by
        /// polling for it.
        watermark: u64,
    },
    /// Answer to [`WireRequest::Stats`].
    Stats(EngineStats),
    /// Answer to [`WireRequest::Metrics`]: the typed snapshot; the client
    /// renders the Prometheus exposition locally from it
    /// ([`piprov_audit::MetricsSnapshot::exposition`] is deterministic, so
    /// client and server render identical text).  Boxed: the snapshot is
    /// by far the largest payload, and boxing it keeps every other
    /// response variant small on the stack.
    Metrics(Box<MetricsSnapshot>),
    /// Answer to [`WireRequest::Traces`]: recent traces from the ring
    /// collector, oldest first, already merged by trace id.
    Traces(Vec<TraceRecord>),
    /// Answer to [`WireRequest::LoadPack`]: the pack compiled cleanly and
    /// was published as the new policy set in one atomic swap.
    PackLoaded {
        /// Registry version the new set was published at.
        version: u64,
        /// Policies in the installed set.
        installed: u32,
        /// Of those, policies carried over unchanged (same name, package,
        /// and canonical source), keeping automaton memo and metric
        /// timeline.
        reused: u32,
    },
    /// Answer to [`WireRequest::LoadPack`]: the pack failed to compile
    /// and **nothing changed** (all-or-nothing), with every problem's
    /// file, line, and column.
    PackRejected {
        /// Per-file diagnostics, sorted by (path, line, column).
        diagnostics: Vec<PackDiagnostic>,
    },
    /// Answer to [`WireRequest::ListPolicies`].
    Policies(PolicyListing),
    /// The server failed to serve an otherwise well-formed request (store
    /// error on flush, for example), or reports why it is closing the
    /// connection.
    ServerError {
        /// Human-readable cause.
        message: String,
    },
}

/// The [`RequestKind`] a wire request traces as.
pub fn request_kind(request: &WireRequest) -> RequestKind {
    match request {
        WireRequest::Audit(AuditRequest::VetValue { .. }) => RequestKind::Vet,
        WireRequest::Audit(AuditRequest::AuditTrail { .. }) => RequestKind::Trail,
        WireRequest::Audit(AuditRequest::WhoTouched { .. }) => RequestKind::Touched,
        WireRequest::Audit(AuditRequest::OriginOf { .. }) => RequestKind::Origin,
        WireRequest::Audit(AuditRequest::Why { .. }) => RequestKind::Why,
        WireRequest::Audit(AuditRequest::Counterfactual { .. }) => RequestKind::Counterfactual,
        WireRequest::IngestBatch(_) => RequestKind::Ingest,
        WireRequest::Flush => RequestKind::Flush,
        WireRequest::Stats => RequestKind::Stats,
        WireRequest::Metrics => RequestKind::Metrics,
        WireRequest::Traces { .. } => RequestKind::Traces,
        WireRequest::LoadPack(_) => RequestKind::LoadPack,
        WireRequest::ListPolicies => RequestKind::ListPolicies,
    }
}

const REQ_AUDIT: u8 = 1;
const REQ_INGEST: u8 = 2;
const REQ_FLUSH: u8 = 3;
const REQ_STATS: u8 = 4;
// Added after version 2 shipped as an additive tag; version 3 then grew
// its response payload (the wire-level histograms), which is why the
// version byte moved — a v2 peer would misparse the larger snapshot.
const REQ_METRICS: u8 = 5;
// Added with version 4 (the tracing plane).
const REQ_TRACES: u8 = 6;
// Added with version 5 (the policy-pack plane).
const REQ_LOAD_PACK: u8 = 7;
const REQ_LIST_POLICIES: u8 = 8;

/// Field tag of the additive per-request trace field (version 4).
const REQUEST_FIELD_TRACE: u8 = 1;

const AUDIT_VET: u8 = 1;
const AUDIT_TRAIL: u8 = 2;
const AUDIT_TOUCHED: u8 = 3;
const AUDIT_ORIGIN: u8 = 4;
// Added with version 6 (the causal-query plane).
const AUDIT_WHY: u8 = 5;
const AUDIT_COUNTERFACTUAL: u8 = 6;

// [`EventFilter`] tags (version 6).
const FILTER_PRINCIPAL: u8 = 1;
const FILTER_KIND: u8 = 2;
const FILTER_CHANNEL_VIA: u8 = 3;

const RESP_AUDIT: u8 = 1;
const RESP_ACK: u8 = 2;
const RESP_BUSY: u8 = 3;
const RESP_FLUSHED: u8 = 4;
const RESP_STATS: u8 = 5;
const RESP_ERROR: u8 = 6;
const RESP_METRICS: u8 = 7;
const RESP_TRACES: u8 = 8;
// Added with version 5 (the policy-pack plane).
const RESP_PACK_LOADED: u8 = 9;
const RESP_PACK_REJECTED: u8 = 10;
const RESP_POLICIES: u8 = 11;

const OUTCOME_VETTED: u8 = 1;
const OUTCOME_TRAIL: u8 = 2;
const OUTCOME_TOUCHED: u8 = 3;
const OUTCOME_ORIGIN: u8 = 4;
const OUTCOME_UNKNOWN_VALUE: u8 = 5;
const OUTCOME_UNKNOWN_PATTERN: u8 = 6;
// Added with version 6 (the causal-query plane).
const OUTCOME_WHY: u8 = 7;
const OUTCOME_COUNTERFACTUAL: u8 = 8;

fn malformed(what: impl Into<String>) -> WireError {
    WireError::Malformed(what.into())
}

/// Maps a store decode error (the embedded record codec) onto the wire
/// error vocabulary.
fn store_err(e: piprov_store::StoreError) -> WireError {
    malformed(format!("embedded record: {}", e))
}

fn need(buf: &Bytes, bytes: usize, what: &str) -> Result<(), WireError> {
    if buf.remaining() < bytes {
        return Err(malformed(format!("truncated {}", what)));
    }
    Ok(())
}

fn wire_str(buf: &mut Bytes) -> Result<String, WireError> {
    get_str(buf).map_err(store_err)
}

fn wire_name<N: for<'a> From<&'a str>>(buf: &mut Bytes) -> Result<N, WireError> {
    get_name(buf).map_err(store_err)
}

fn wire_value(buf: &mut Bytes) -> Result<piprov_core::value::Value, WireError> {
    get_value(buf).map_err(store_err)
}

fn put_record(buf: &mut BytesMut, record: &ProvenanceRecord) {
    let body = encode_body(record);
    buf.put_u32(body.len() as u32);
    buf.put_slice(&body);
}

fn get_record(buf: &mut Bytes) -> Result<ProvenanceRecord, WireError> {
    need(buf, 4, "record length")?;
    let len = buf.get_u32() as usize;
    need(buf, len, "record body")?;
    decode_body(buf.copy_to_bytes(len)).map_err(store_err)
}

fn put_records(buf: &mut BytesMut, records: &[ProvenanceRecord]) {
    buf.put_u32(records.len() as u32);
    for record in records {
        put_record(buf, record);
    }
}

fn get_records(
    buf: &mut Bytes,
    limits: &WireLimits,
    what: &str,
) -> Result<Vec<ProvenanceRecord>, WireError> {
    need(buf, 4, "record count")?;
    let count = buf.get_u32();
    if count > limits.max_records {
        return Err(malformed(format!(
            "{} of {} records exceeds the {} record cap",
            what, count, limits.max_records
        )));
    }
    let count = count as usize;
    // Each record costs at least 4 length bytes + the 18-byte minimum body.
    let mut records = Vec::with_capacity(count.min(buf.remaining() / 22 + 1));
    for _ in 0..count {
        records.push(get_record(buf)?);
    }
    Ok(records)
}

fn put_names<S: AsRef<str>>(buf: &mut BytesMut, names: &[S]) {
    buf.put_u32(names.len() as u32);
    for name in names {
        put_str(buf, name.as_ref());
    }
}

fn get_names<N: for<'a> From<&'a str>>(buf: &mut Bytes) -> Result<Vec<N>, WireError> {
    need(buf, 4, "name count")?;
    let count = buf.get_u32() as usize;
    // A name costs at least its 2 length bytes.
    let mut names = Vec::with_capacity(count.min(buf.remaining() / 2 + 1));
    for _ in 0..count {
        names.push(wire_name(buf)?);
    }
    Ok(names)
}

/// A u32-length-prefixed text blob: pack file sources (and canonical
/// policy text) routinely outgrow the u16-prefixed name vocabulary of
/// [`put_str`].
fn put_text(buf: &mut BytesMut, text: &str) {
    buf.put_u32(text.len() as u32);
    buf.put_slice(text.as_bytes());
}

fn get_text(buf: &mut Bytes) -> Result<String, WireError> {
    need(buf, 4, "text length")?;
    let len = buf.get_u32() as usize;
    need(buf, len, "text body")?;
    String::from_utf8(buf.copy_to_bytes(len).to_vec())
        .map_err(|_| malformed("invalid utf-8 in text"))
}

fn finish_message(tag: u8, payload: impl FnOnce(&mut BytesMut)) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    buf.put_u8(WIRE_VERSION);
    buf.put_u8(tag);
    payload(&mut buf);
    buf.freeze()
}

/// Strips and checks the version byte, returning `(version, tag)`.
/// Decoders accept [`MIN_WIRE_VERSION`]`..=`[`WIRE_VERSION`]; the version
/// gates the *additive* payload extensions (trace fields, exemplars,
/// connection counters) newer versions carry.
fn open_message(buf: &mut Bytes) -> Result<(u8, u8), WireError> {
    if buf.remaining() < 2 {
        return Err(malformed("message shorter than version + tag"));
    }
    let version = buf.get_u8();
    if !(MIN_WIRE_VERSION..=WIRE_VERSION).contains(&version) {
        return Err(WireError::UnsupportedVersion(version));
    }
    Ok((version, buf.get_u8()))
}

fn put_request_trace(buf: &mut BytesMut, trace: &RequestTrace) {
    buf.put_u8(REQUEST_FIELD_TRACE);
    buf.put_u64((trace.context.trace_id >> 64) as u64);
    buf.put_u64(trace.context.trace_id as u64);
    buf.put_u8(trace.context.sampled as u8);
    buf.put_u64(trace.client_encode_ns);
}

fn get_request_trace(buf: &mut Bytes) -> Result<RequestTrace, WireError> {
    need(buf, 25, "request trace field")?;
    let hi = buf.get_u64();
    let lo = buf.get_u64();
    let sampled = match buf.get_u8() {
        0 => false,
        1 => true,
        other => return Err(malformed(format!("bad trace sampled flag {}", other))),
    };
    Ok(RequestTrace {
        context: TraceContext {
            trace_id: ((hi as u128) << 64) | lo as u128,
            sampled,
        },
        client_encode_ns: buf.get_u64(),
    })
}

/// Encodes an `IngestBatch` request body from a borrowed slice — what the
/// client's batching/splitting path uses to encode once (or re-encode a
/// half) without cloning the records.  Byte-identical to
/// `encode_request(&WireRequest::IngestBatch(..))`.
pub fn encode_ingest_batch(records: &[ProvenanceRecord]) -> Bytes {
    finish_message(REQ_INGEST, |buf| put_records(buf, records))
}

/// Appends the additive trace field to an already-encoded request body —
/// how a traced client turns any encoded request (including a pre-encoded
/// ingest batch) into its traced form without re-encoding the payload.
pub fn append_request_trace(body: &Bytes, trace: &RequestTrace) -> Bytes {
    let mut buf = BytesMut::with_capacity(body.len() + 26);
    buf.extend_from_slice(body);
    put_request_trace(&mut buf, trace);
    buf.freeze()
}

/// Encodes one request body with its optional trace field appended.
pub fn encode_request_traced(request: &WireRequest, trace: Option<&RequestTrace>) -> Bytes {
    let body = encode_request(request);
    match trace {
        Some(trace) => append_request_trace(&body, trace),
        None => body,
    }
}

/// Encodes one request body (to be framed by [`crate::wire::write_frame`]).
pub fn encode_request(request: &WireRequest) -> Bytes {
    match request {
        WireRequest::Audit(audit) => finish_message(REQ_AUDIT, |buf| match audit {
            AuditRequest::VetValue { value, pattern } => {
                buf.put_u8(AUDIT_VET);
                put_value(buf, value);
                put_str(buf, pattern);
            }
            AuditRequest::AuditTrail { value } => {
                buf.put_u8(AUDIT_TRAIL);
                put_value(buf, value);
            }
            AuditRequest::WhoTouched { principal } => {
                buf.put_u8(AUDIT_TOUCHED);
                put_str(buf, principal.as_str());
            }
            AuditRequest::OriginOf { value } => {
                buf.put_u8(AUDIT_ORIGIN);
                put_value(buf, value);
            }
            AuditRequest::Why { value, pattern } => {
                buf.put_u8(AUDIT_WHY);
                put_value(buf, value);
                put_str(buf, pattern);
            }
            AuditRequest::Counterfactual {
                value,
                pattern,
                remove,
            } => {
                buf.put_u8(AUDIT_COUNTERFACTUAL);
                put_value(buf, value);
                put_str(buf, pattern);
                put_event_filter(buf, remove);
            }
        }),
        WireRequest::IngestBatch(records) => {
            finish_message(REQ_INGEST, |buf| put_records(buf, records))
        }
        WireRequest::Flush => finish_message(REQ_FLUSH, |_| {}),
        WireRequest::Stats => finish_message(REQ_STATS, |_| {}),
        WireRequest::Metrics => finish_message(REQ_METRICS, |_| {}),
        WireRequest::Traces { min_total_ns } => finish_message(REQ_TRACES, |buf| {
            buf.put_u64(*min_total_ns);
        }),
        WireRequest::LoadPack(pack) => finish_message(REQ_LOAD_PACK, |buf| {
            put_str(buf, &pack.root);
            buf.put_u32(pack.files.len() as u32);
            for file in &pack.files {
                put_str(buf, &file.path);
                put_text(buf, &file.source);
            }
        }),
        WireRequest::ListPolicies => finish_message(REQ_LIST_POLICIES, |_| {}),
    }
}

/// Decodes one request body, dropping any trace field.
///
/// # Errors
///
/// [`WireError::UnsupportedVersion`] or [`WireError::Malformed`]; record
/// counts above [`WireLimits::max_records`] are rejected before any
/// per-record work.
pub fn decode_request(buf: Bytes, limits: &WireLimits) -> Result<WireRequest, WireError> {
    decode_request_traced(buf, limits).map(|(request, _)| request)
}

/// Decodes one request body together with its optional trace field (only
/// version-4 bodies can carry one) — the server's entry point.
///
/// # Errors
///
/// As [`decode_request`].
pub fn decode_request_traced(
    mut buf: Bytes,
    limits: &WireLimits,
) -> Result<(WireRequest, Option<RequestTrace>), WireError> {
    let (version, tag) = open_message(&mut buf)?;
    let request = match tag {
        REQ_AUDIT => {
            need(&buf, 1, "audit request tag")?;
            let audit = match buf.get_u8() {
                AUDIT_VET => AuditRequest::VetValue {
                    value: wire_value(&mut buf)?,
                    pattern: wire_str(&mut buf)?,
                },
                AUDIT_TRAIL => AuditRequest::AuditTrail {
                    value: wire_value(&mut buf)?,
                },
                AUDIT_TOUCHED => AuditRequest::WhoTouched {
                    principal: wire_name(&mut buf)?,
                },
                AUDIT_ORIGIN => AuditRequest::OriginOf {
                    value: wire_value(&mut buf)?,
                },
                // The causal-query tags are version-6 vocabulary: a pre-v6
                // body carrying one falls through to the unknown-tag error.
                AUDIT_WHY if version >= 6 => AuditRequest::Why {
                    value: wire_value(&mut buf)?,
                    pattern: wire_str(&mut buf)?,
                },
                AUDIT_COUNTERFACTUAL if version >= 6 => AuditRequest::Counterfactual {
                    value: wire_value(&mut buf)?,
                    pattern: wire_str(&mut buf)?,
                    remove: get_event_filter(&mut buf)?,
                },
                other => return Err(malformed(format!("unknown audit request tag {}", other))),
            };
            WireRequest::Audit(audit)
        }
        REQ_INGEST => WireRequest::IngestBatch(get_records(&mut buf, limits, "ingest batch")?),
        REQ_FLUSH => WireRequest::Flush,
        REQ_STATS => WireRequest::Stats,
        REQ_METRICS => WireRequest::Metrics,
        REQ_TRACES => {
            need(&buf, 8, "traces filter")?;
            WireRequest::Traces {
                min_total_ns: buf.get_u64(),
            }
        }
        // The policy-pack tags are version-5 vocabulary: a pre-v5 body
        // carrying one falls through to the unknown-tag error below.
        REQ_LOAD_PACK if version >= 5 => {
            let root = wire_str(&mut buf)?;
            need(&buf, 4, "pack file count")?;
            let count = buf.get_u32() as usize;
            // A pack file costs at least its 2 path-length + 4
            // source-length bytes.
            let mut files = Vec::with_capacity(count.min(buf.remaining() / 6 + 1));
            for _ in 0..count {
                let path = wire_str(&mut buf)?;
                let source = get_text(&mut buf)?;
                files.push(PackFile::new(path, source));
            }
            WireRequest::LoadPack(PackSource::new(root, files))
        }
        REQ_LIST_POLICIES if version >= 5 => WireRequest::ListPolicies,
        other => return Err(malformed(format!("unknown request tag {}", other))),
    };
    // Additive per-request fields after the payload (version 4+); the only
    // one defined is the trace field.  An unknown field tag — including
    // any trailing byte on a pre-v4 body — is malformed, not skipped: the
    // field space is versioned, so "garbage we tolerate" never becomes a
    // compatibility constraint by accident.
    let mut trace = None;
    while buf.has_remaining() {
        match buf.get_u8() {
            REQUEST_FIELD_TRACE if version >= 4 && trace.is_none() => {
                trace = Some(get_request_trace(&mut buf)?);
            }
            _ => return Err(malformed("trailing bytes after request")),
        }
    }
    Ok((request, trace))
}

fn put_request_stats(buf: &mut BytesMut, stats: &RequestStats) {
    buf.put_u64(stats.index_hits as u64);
    buf.put_u64(stats.memo_hits as u64);
    buf.put_u64(stats.dag_nodes_visited as u64);
    // Version 6 appended the counterfactual memo-reuse counter.
    buf.put_u64(stats.memo_reused as u64);
}

fn get_request_stats(buf: &mut Bytes, version: u8) -> Result<RequestStats, WireError> {
    need(buf, 24, "request stats")?;
    let mut stats = RequestStats {
        index_hits: buf.get_u64() as usize,
        memo_hits: buf.get_u64() as usize,
        dag_nodes_visited: buf.get_u64() as usize,
        ..RequestStats::default()
    };
    if version >= 6 {
        need(buf, 8, "request stats memo_reused")?;
        stats.memo_reused = buf.get_u64() as usize;
    }
    Ok(stats)
}

fn put_event_filter(buf: &mut BytesMut, filter: &EventFilter) {
    match filter {
        EventFilter::Principal(principal) => {
            buf.put_u8(FILTER_PRINCIPAL);
            put_str(buf, principal.as_str());
        }
        EventFilter::Kind(direction) => {
            buf.put_u8(FILTER_KIND);
            buf.put_u8(direction_tag(*direction));
        }
        EventFilter::ChannelVia(principal) => {
            buf.put_u8(FILTER_CHANNEL_VIA);
            put_str(buf, principal.as_str());
        }
    }
}

fn get_event_filter(buf: &mut Bytes) -> Result<EventFilter, WireError> {
    need(buf, 1, "event filter tag")?;
    Ok(match buf.get_u8() {
        FILTER_PRINCIPAL => EventFilter::Principal(wire_name(buf)?),
        FILTER_KIND => {
            need(buf, 1, "event filter direction")?;
            let direction = direction_from_tag(buf.get_u8())
                .ok_or_else(|| malformed("unknown event filter direction"))?;
            EventFilter::Kind(direction)
        }
        FILTER_CHANNEL_VIA => EventFilter::ChannelVia(wire_name(buf)?),
        other => return Err(malformed(format!("unknown event filter tag {}", other))),
    })
}

/// Writes one [`WhyEvent`]: the DAG node id, the event's principal and
/// direction, then the channel provenance as a flattened preorder
/// `(depth, direction, principal)` list — the same shape the store's
/// legacy record codec uses, expanded (sharing inside a single channel
/// history is rare and slices are operator-facing diagnostics).
fn put_why_event(buf: &mut BytesMut, event: &WhyEvent) {
    buf.put_u32(event.node);
    put_str(buf, event.event.principal.as_str());
    buf.put_u8(direction_tag(event.event.direction));
    let flat = flatten_provenance(&event.event.channel_provenance);
    buf.put_u32(flat.len() as u32);
    for (depth, nested) in &flat {
        buf.put_u32(*depth);
        buf.put_u8(direction_tag(nested.direction));
        put_str(buf, nested.principal.as_str());
    }
}

fn get_why_event(buf: &mut Bytes) -> Result<WhyEvent, WireError> {
    need(buf, 4, "why event node")?;
    let node = buf.get_u32();
    let principal: Principal = wire_name(buf)?;
    need(buf, 5, "why event direction")?;
    let direction =
        direction_from_tag(buf.get_u8()).ok_or_else(|| malformed("unknown why event direction"))?;
    let count = buf.get_u32() as usize;
    // A channel entry costs at least its 4 depth + 1 direction + 2
    // principal-length bytes; cap the pre-allocation accordingly.
    let mut flat = Vec::with_capacity(count.min(buf.remaining() / 7 + 1));
    for _ in 0..count {
        need(buf, 5, "why event channel entry")?;
        let depth = buf.get_u32();
        let nested_direction = direction_from_tag(buf.get_u8())
            .ok_or_else(|| malformed("unknown why event channel direction"))?;
        let nested: Principal = wire_name(buf)?;
        flat.push((
            depth,
            match nested_direction {
                Direction::Output => Event::output(nested, Provenance::empty()),
                Direction::Input => Event::input(nested, Provenance::empty()),
            },
        ));
    }
    let channel_provenance = unflatten_provenance(&flat).ok_or_else(|| {
        malformed(format!(
            "why event channel entries out of preorder or nested deeper than {} levels",
            MAX_PROVENANCE_DEPTH
        ))
    })?;
    let event = match direction {
        Direction::Output => Event::output(principal, channel_provenance),
        Direction::Input => Event::input(principal, channel_provenance),
    };
    Ok(WhyEvent { node, event })
}

fn put_why_events(buf: &mut BytesMut, events: &[WhyEvent]) {
    buf.put_u32(events.len() as u32);
    for event in events {
        put_why_event(buf, event);
    }
}

fn get_why_events(buf: &mut Bytes) -> Result<Vec<WhyEvent>, WireError> {
    need(buf, 4, "why event count")?;
    let count = buf.get_u32() as usize;
    // A why event costs at least 4 node + 2 principal-length + 1
    // direction + 4 channel-count bytes.
    let mut events = Vec::with_capacity(count.min(buf.remaining() / 11 + 1));
    for _ in 0..count {
        events.push(get_why_event(buf)?);
    }
    Ok(events)
}

fn put_engine_stats(buf: &mut BytesMut, stats: &EngineStats) {
    // Exhaustive destructuring (no `..`): adding a field to `EngineStats`
    // without threading it through the wire is a compile error here —
    // this codec already forgot `snapshots_published`/`snapshot_lag` once.
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
    } = *stats;
    for field in [
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
    ] {
        buf.put_u64(field);
    }
}

fn get_engine_stats(buf: &mut Bytes) -> Result<EngineStats, WireError> {
    need(buf, 96, "engine stats")?;
    Ok(EngineStats {
        requests: buf.get_u64(),
        ingested: buf.get_u64(),
        vets_passed: buf.get_u64(),
        vets_failed: buf.get_u64(),
        index_hits: buf.get_u64(),
        memo_hits: buf.get_u64(),
        ingest_batches: buf.get_u64(),
        busy_rejections: buf.get_u64(),
        queue_depth: buf.get_u64(),
        snapshots_published: buf.get_u64(),
        snapshot_lag: buf.get_u64(),
        watermark: buf.get_u64(),
    })
}

fn put_store_stats(buf: &mut BytesMut, stats: &StoreStats) {
    let StoreStats {
        records,
        segments,
        bytes,
    } = *stats;
    buf.put_u64(records as u64);
    buf.put_u64(segments as u64);
    buf.put_u64(bytes as u64);
}

fn get_store_stats(buf: &mut Bytes) -> Result<StoreStats, WireError> {
    need(buf, 24, "store stats")?;
    Ok(StoreStats {
        records: buf.get_u64() as usize,
        segments: buf.get_u64() as usize,
        bytes: buf.get_u64() as usize,
    })
}

fn put_interner_stats(buf: &mut BytesMut, stats: &InternerStats) {
    let InternerStats {
        interned_nodes,
        hits,
        misses,
        shards,
    } = *stats;
    buf.put_u64(interned_nodes as u64);
    buf.put_u64(hits);
    buf.put_u64(misses);
    buf.put_u64(shards as u64);
}

fn get_interner_stats(buf: &mut Bytes) -> Result<InternerStats, WireError> {
    need(buf, 32, "interner stats")?;
    Ok(InternerStats {
        interned_nodes: buf.get_u64() as usize,
        hits: buf.get_u64(),
        misses: buf.get_u64(),
        shards: buf.get_u64() as usize,
    })
}

fn put_shard_stats(buf: &mut BytesMut, stats: &ShardStats) {
    let ShardStats {
        shard,
        entries,
        hits,
        misses,
    } = *stats;
    buf.put_u64(shard as u64);
    buf.put_u64(entries as u64);
    buf.put_u64(hits);
    buf.put_u64(misses);
}

fn get_shard_stats(buf: &mut Bytes) -> Result<ShardStats, WireError> {
    need(buf, 32, "shard stats")?;
    Ok(ShardStats {
        shard: buf.get_u64() as usize,
        entries: buf.get_u64() as usize,
        hits: buf.get_u64(),
        misses: buf.get_u64(),
    })
}

fn put_memo_stats(buf: &mut BytesMut, stats: &MemoStats) {
    let MemoStats {
        entries,
        bound,
        epochs,
        hits,
        misses,
        retained,
    } = *stats;
    buf.put_u64(entries as u64);
    buf.put_u64(bound as u64);
    buf.put_u64(epochs);
    buf.put_u64(hits);
    buf.put_u64(misses);
    buf.put_u64(retained);
}

fn get_memo_stats(buf: &mut Bytes) -> Result<MemoStats, WireError> {
    need(buf, 48, "memo stats")?;
    Ok(MemoStats {
        entries: buf.get_u64() as usize,
        bound: buf.get_u64() as usize,
        epochs: buf.get_u64(),
        hits: buf.get_u64(),
        misses: buf.get_u64(),
        retained: buf.get_u64(),
    })
}

fn put_histogram(buf: &mut BytesMut, histogram: &HistogramSnapshot) {
    let HistogramSnapshot {
        counts,
        overflow,
        sum_ns,
        count,
        exemplars,
    } = histogram;
    buf.put_u32(counts.len() as u32);
    for bucket in counts {
        buf.put_u64(*bucket);
    }
    buf.put_u64(*overflow);
    buf.put_u64(*sum_ns);
    buf.put_u64(*count);
    // Version 4: per-bucket exemplar slots (empty vec encodes as zero).
    buf.put_u32(exemplars.len() as u32);
    for exemplar in exemplars {
        match exemplar {
            Some(Exemplar { trace_id, value_ns }) => {
                buf.put_u8(1);
                buf.put_u64((trace_id >> 64) as u64);
                buf.put_u64(*trace_id as u64);
                buf.put_u64(*value_ns);
            }
            None => buf.put_u8(0),
        }
    }
}

fn get_histogram(buf: &mut Bytes, version: u8) -> Result<HistogramSnapshot, WireError> {
    need(buf, 4, "histogram bucket count")?;
    let count = buf.get_u32() as usize;
    // A bucket costs 8 bytes: the pre-allocation is capped by the bytes
    // actually remaining, like every count read off the wire.
    let mut counts = Vec::with_capacity(count.min(buf.remaining() / 8 + 1));
    for _ in 0..count {
        need(buf, 8, "histogram bucket")?;
        counts.push(buf.get_u64());
    }
    need(buf, 24, "histogram tail")?;
    let overflow = buf.get_u64();
    let sum_ns = buf.get_u64();
    let count = buf.get_u64();
    // A version-3 peer sends no exemplar block at all.
    let mut exemplars = Vec::new();
    if version >= 4 {
        need(buf, 4, "exemplar count")?;
        let count = buf.get_u32() as usize;
        // An exemplar slot costs at least its presence byte.
        exemplars.reserve(count.min(buf.remaining() + 1));
        for _ in 0..count {
            need(buf, 1, "exemplar flag")?;
            exemplars.push(match buf.get_u8() {
                0 => None,
                1 => {
                    need(buf, 24, "exemplar")?;
                    let hi = buf.get_u64();
                    let lo = buf.get_u64();
                    Some(Exemplar {
                        trace_id: ((hi as u128) << 64) | lo as u128,
                        value_ns: buf.get_u64(),
                    })
                }
                other => return Err(malformed(format!("bad exemplar flag {}", other))),
            });
        }
    }
    Ok(HistogramSnapshot {
        counts,
        overflow,
        sum_ns,
        count,
        exemplars,
    })
}

fn put_policy_snapshot(buf: &mut BytesMut, policy: &PolicySnapshot) {
    let PolicySnapshot {
        policy: name,
        memo,
        vets_passed,
        vets_failed,
        vets_unknown_value,
        counterfactuals,
        counterfactual_flips,
        latency,
    } = policy;
    put_str(buf, name);
    put_memo_stats(buf, memo);
    buf.put_u64(*vets_passed);
    buf.put_u64(*vets_failed);
    buf.put_u64(*vets_unknown_value);
    // Version 6: the counterfactual counters.
    buf.put_u64(*counterfactuals);
    buf.put_u64(*counterfactual_flips);
    put_histogram(buf, latency);
}

fn get_policy_snapshot(buf: &mut Bytes, version: u8) -> Result<PolicySnapshot, WireError> {
    let name = wire_str(buf)?;
    let memo = get_memo_stats(buf)?;
    need(buf, 24, "policy verdict counters")?;
    let vets_passed = buf.get_u64();
    let vets_failed = buf.get_u64();
    let vets_unknown_value = buf.get_u64();
    // A pre-v6 peer omits the counterfactual counters: decode as 0.
    let (counterfactuals, counterfactual_flips) = if version >= 6 {
        need(buf, 16, "policy counterfactual counters")?;
        (buf.get_u64(), buf.get_u64())
    } else {
        (0, 0)
    };
    Ok(PolicySnapshot {
        policy: name,
        memo,
        vets_passed,
        vets_failed,
        vets_unknown_value,
        counterfactuals,
        counterfactual_flips,
        latency: get_histogram(buf, version)?,
    })
}

fn put_metrics_snapshot(buf: &mut BytesMut, metrics: &MetricsSnapshot) {
    let MetricsSnapshot {
        engine,
        store,
        interner,
        interner_shards,
        vets_unknown_pattern,
        frame_decode,
        request_service,
        ingest_queue_wait,
        uptime_seconds,
        connections_accepted,
        connections_closed,
        open_connections,
        policies,
    } = metrics;
    put_engine_stats(buf, engine);
    put_store_stats(buf, store);
    put_interner_stats(buf, interner);
    buf.put_u32(interner_shards.len() as u32);
    for shard in interner_shards {
        put_shard_stats(buf, shard);
    }
    buf.put_u64(*vets_unknown_pattern);
    put_histogram(buf, frame_decode);
    put_histogram(buf, request_service);
    put_histogram(buf, ingest_queue_wait);
    // Version 4: uptime + connection lifecycle.
    buf.put_u64(*uptime_seconds);
    buf.put_u64(*connections_accepted);
    buf.put_u64(*connections_closed);
    buf.put_u64(*open_connections);
    buf.put_u32(policies.len() as u32);
    for policy in policies {
        put_policy_snapshot(buf, policy);
    }
}

fn get_metrics_snapshot(buf: &mut Bytes, version: u8) -> Result<MetricsSnapshot, WireError> {
    let engine = get_engine_stats(buf)?;
    let store = get_store_stats(buf)?;
    let interner = get_interner_stats(buf)?;
    need(buf, 4, "shard count")?;
    let count = buf.get_u32() as usize;
    // A shard costs 32 bytes on the wire.
    let mut interner_shards = Vec::with_capacity(count.min(buf.remaining() / 32 + 1));
    for _ in 0..count {
        interner_shards.push(get_shard_stats(buf)?);
    }
    need(buf, 8, "unknown-pattern counter")?;
    let vets_unknown_pattern = buf.get_u64();
    let frame_decode = get_histogram(buf, version)?;
    let request_service = get_histogram(buf, version)?;
    let ingest_queue_wait = get_histogram(buf, version)?;
    // A version-3 peer sends no serving-lifecycle block: render as zeros.
    let (uptime_seconds, connections_accepted, connections_closed, open_connections) =
        if version >= 4 {
            need(buf, 32, "serving lifecycle counters")?;
            (buf.get_u64(), buf.get_u64(), buf.get_u64(), buf.get_u64())
        } else {
            (0, 0, 0, 0)
        };
    need(buf, 4, "policy count")?;
    let count = buf.get_u32() as usize;
    // A policy costs at least its 2 name-length bytes + 48 memo bytes.
    let mut policies = Vec::with_capacity(count.min(buf.remaining() / 50 + 1));
    for _ in 0..count {
        policies.push(get_policy_snapshot(buf, version)?);
    }
    Ok(MetricsSnapshot {
        engine,
        store,
        interner,
        interner_shards,
        vets_unknown_pattern,
        frame_decode,
        request_service,
        ingest_queue_wait,
        uptime_seconds,
        connections_accepted,
        connections_closed,
        open_connections,
        policies,
    })
}

fn put_trace_record(buf: &mut BytesMut, record: &TraceRecord) {
    let TraceRecord {
        trace_id,
        kind,
        total_ns,
        spans,
    } = record;
    buf.put_u64((trace_id >> 64) as u64);
    buf.put_u64(*trace_id as u64);
    buf.put_u8(*kind as u8);
    buf.put_u64(*total_ns);
    buf.put_u8(spans.len() as u8);
    for span in spans {
        let Span {
            kind,
            duration_ns,
            index_hits,
            memo_hits,
        } = span;
        buf.put_u8(*kind as u8);
        buf.put_u64(*duration_ns);
        buf.put_u64(*index_hits);
        buf.put_u64(*memo_hits);
    }
}

fn get_trace_record(buf: &mut Bytes) -> Result<TraceRecord, WireError> {
    need(buf, 26, "trace record head")?;
    let hi = buf.get_u64();
    let lo = buf.get_u64();
    let kind = buf.get_u8();
    let kind =
        RequestKind::from_u8(kind).ok_or_else(|| malformed(format!("bad trace kind {}", kind)))?;
    let total_ns = buf.get_u64();
    let span_count = buf.get_u8() as usize;
    let mut spans = Vec::with_capacity(span_count.min(buf.remaining() / 25 + 1));
    for _ in 0..span_count {
        need(buf, 25, "trace span")?;
        let kind = buf.get_u8();
        let kind =
            SpanKind::from_u8(kind).ok_or_else(|| malformed(format!("bad span kind {}", kind)))?;
        spans.push(Span {
            kind,
            duration_ns: buf.get_u64(),
            index_hits: buf.get_u64(),
            memo_hits: buf.get_u64(),
        });
    }
    Ok(TraceRecord {
        trace_id: ((hi as u128) << 64) | lo as u128,
        kind,
        total_ns,
        spans,
    })
}

/// Encodes one response body (to be framed by
/// [`crate::wire::write_frame`]).
pub fn encode_response(response: &WireResponse) -> Bytes {
    match response {
        WireResponse::Audit(audit) => finish_message(RESP_AUDIT, |buf| {
            match &audit.outcome {
                AuditOutcome::Vetted { verdict, sequence } => {
                    buf.put_u8(OUTCOME_VETTED);
                    buf.put_u8(*verdict as u8);
                    buf.put_u64(*sequence);
                }
                AuditOutcome::Trail(trail) => {
                    buf.put_u8(OUTCOME_TRAIL);
                    put_value(buf, &trail.value);
                    put_records(buf, &trail.records);
                    put_names(
                        buf,
                        &trail
                            .principals
                            .iter()
                            .map(|p| p.as_str())
                            .collect::<Vec<_>>(),
                    );
                    put_names(
                        buf,
                        &trail
                            .channels
                            .iter()
                            .map(|c| c.as_str())
                            .collect::<Vec<_>>(),
                    );
                }
                AuditOutcome::Touched { records, values } => {
                    buf.put_u8(OUTCOME_TOUCHED);
                    buf.put_u32(records.len() as u32);
                    for seq in records {
                        buf.put_u64(*seq);
                    }
                    buf.put_u32(values.len() as u32);
                    for value in values {
                        put_value(buf, value);
                    }
                }
                AuditOutcome::Origin { principal } => {
                    buf.put_u8(OUTCOME_ORIGIN);
                    match principal {
                        Some(p) => {
                            buf.put_u8(1);
                            put_str(buf, p.as_str());
                        }
                        None => buf.put_u8(0),
                    }
                }
                AuditOutcome::Why(slice) => {
                    buf.put_u8(OUTCOME_WHY);
                    // Version 6: the witness slice.
                    buf.put_u8(slice.verdict as u8);
                    buf.put_u64(slice.sequence);
                    match slice.blocked {
                        Some(index) => {
                            buf.put_u8(1);
                            buf.put_u32(index);
                        }
                        None => buf.put_u8(0),
                    }
                    put_why_events(buf, &slice.events);
                }
                AuditOutcome::Counterfactual(verdict) => {
                    buf.put_u8(OUTCOME_COUNTERFACTUAL);
                    // Version 6: both verdicts plus the delta slice.
                    buf.put_u8(verdict.original as u8);
                    buf.put_u8(verdict.counterfactual as u8);
                    buf.put_u64(verdict.sequence);
                    put_why_events(buf, &verdict.removed);
                }
                AuditOutcome::UnknownValue => buf.put_u8(OUTCOME_UNKNOWN_VALUE),
                AuditOutcome::UnknownPattern { known, nearest } => {
                    buf.put_u8(OUTCOME_UNKNOWN_PATTERN);
                    // Version 5: the registered names and the
                    // nearest-name hint (a v3/v4 decoder reads neither).
                    put_names(buf, known);
                    match nearest {
                        Some(name) => {
                            buf.put_u8(1);
                            put_str(buf, name);
                        }
                        None => buf.put_u8(0),
                    }
                }
            }
            put_request_stats(buf, &audit.stats);
            buf.put_u64(audit.watermark);
            // Version 5: the policy-set version that answered.
            buf.put_u64(audit.pack_version);
        }),
        WireResponse::IngestAck {
            accepted,
            queue_depth,
        } => finish_message(RESP_ACK, |buf| {
            buf.put_u32(*accepted);
            buf.put_u32(*queue_depth);
        }),
        WireResponse::Busy { queue_depth } => finish_message(RESP_BUSY, |buf| {
            buf.put_u32(*queue_depth);
        }),
        WireResponse::Flushed {
            ingested,
            watermark,
        } => finish_message(RESP_FLUSHED, |buf| {
            buf.put_u64(*ingested);
            buf.put_u64(*watermark);
        }),
        WireResponse::Stats(stats) => finish_message(RESP_STATS, |buf| {
            put_engine_stats(buf, stats);
        }),
        WireResponse::Metrics(metrics) => finish_message(RESP_METRICS, |buf| {
            put_metrics_snapshot(buf, metrics);
        }),
        WireResponse::Traces(records) => finish_message(RESP_TRACES, |buf| {
            buf.put_u32(records.len() as u32);
            for record in records {
                put_trace_record(buf, record);
            }
        }),
        WireResponse::PackLoaded {
            version,
            installed,
            reused,
        } => finish_message(RESP_PACK_LOADED, |buf| {
            buf.put_u64(*version);
            buf.put_u32(*installed);
            buf.put_u32(*reused);
        }),
        WireResponse::PackRejected { diagnostics } => finish_message(RESP_PACK_REJECTED, |buf| {
            buf.put_u32(diagnostics.len() as u32);
            for diag in diagnostics {
                put_str(buf, &diag.path);
                buf.put_u64(diag.line as u64);
                buf.put_u64(diag.column as u64);
                put_str(buf, &diag.message);
            }
        }),
        WireResponse::Policies(listing) => finish_message(RESP_POLICIES, |buf| {
            buf.put_u64(listing.version);
            buf.put_u32(listing.policies.len() as u32);
            for policy in &listing.policies {
                put_str(buf, &policy.name);
                put_str(buf, &policy.package);
                put_text(buf, &policy.source);
            }
        }),
        WireResponse::ServerError { message } => finish_message(RESP_ERROR, |buf| {
            put_str(buf, message);
        }),
    }
}

/// Decodes one response body.
///
/// # Errors
///
/// As [`decode_request`].
pub fn decode_response(mut buf: Bytes, limits: &WireLimits) -> Result<WireResponse, WireError> {
    let (version, tag) = open_message(&mut buf)?;
    let response = match tag {
        RESP_AUDIT => {
            need(&buf, 1, "audit outcome tag")?;
            let outcome = match buf.get_u8() {
                OUTCOME_VETTED => {
                    need(&buf, 9, "vet outcome")?;
                    let verdict = match buf.get_u8() {
                        0 => false,
                        1 => true,
                        other => {
                            return Err(malformed(format!("bad verdict byte {}", other)));
                        }
                    };
                    AuditOutcome::Vetted {
                        verdict,
                        sequence: buf.get_u64(),
                    }
                }
                OUTCOME_TRAIL => {
                    let value = wire_value(&mut buf)?;
                    let records = get_records(&mut buf, limits, "audit trail")?;
                    let principals = get_names(&mut buf)?;
                    let channels = get_names(&mut buf)?;
                    AuditOutcome::Trail(AuditTrail {
                        value,
                        records,
                        principals,
                        channels,
                    })
                }
                OUTCOME_TOUCHED => {
                    need(&buf, 4, "touched record count")?;
                    let count = buf.get_u32() as usize;
                    let mut records = Vec::with_capacity(count.min(buf.remaining() / 8 + 1));
                    for _ in 0..count {
                        need(&buf, 8, "touched sequence")?;
                        records.push(buf.get_u64());
                    }
                    need(&buf, 4, "touched value count")?;
                    let count = buf.get_u32() as usize;
                    let mut values = Vec::with_capacity(count.min(buf.remaining() / 3 + 1));
                    for _ in 0..count {
                        values.push(wire_value(&mut buf)?);
                    }
                    AuditOutcome::Touched { records, values }
                }
                OUTCOME_ORIGIN => {
                    need(&buf, 1, "origin flag")?;
                    let principal = match buf.get_u8() {
                        0 => None,
                        1 => Some(wire_name(&mut buf)?),
                        other => return Err(malformed(format!("bad origin flag {}", other))),
                    };
                    AuditOutcome::Origin { principal }
                }
                OUTCOME_UNKNOWN_VALUE => AuditOutcome::UnknownValue,
                // The causal outcomes are version-6 vocabulary.
                OUTCOME_WHY if version >= 6 => {
                    need(&buf, 9, "why slice header")?;
                    let verdict = match buf.get_u8() {
                        0 => false,
                        1 => true,
                        other => return Err(malformed(format!("bad why verdict {}", other))),
                    };
                    let sequence = buf.get_u64();
                    need(&buf, 1, "why blocked flag")?;
                    let blocked = match buf.get_u8() {
                        0 => None,
                        1 => {
                            need(&buf, 4, "why blocked index")?;
                            Some(buf.get_u32())
                        }
                        other => return Err(malformed(format!("bad why blocked flag {}", other))),
                    };
                    let events = get_why_events(&mut buf)?;
                    if let Some(index) = blocked {
                        if index as usize >= events.len() {
                            return Err(malformed("why blocked index out of range"));
                        }
                    }
                    AuditOutcome::Why(WhySlice {
                        verdict,
                        sequence,
                        events,
                        blocked,
                    })
                }
                OUTCOME_COUNTERFACTUAL if version >= 6 => {
                    need(&buf, 10, "counterfactual header")?;
                    let flag = |byte: u8, what: &str| match byte {
                        0 => Ok(false),
                        1 => Ok(true),
                        other => Err(malformed(format!("bad {} flag {}", what, other))),
                    };
                    let original = flag(buf.get_u8(), "counterfactual original")?;
                    let counterfactual = flag(buf.get_u8(), "counterfactual filtered")?;
                    let sequence = buf.get_u64();
                    let removed = get_why_events(&mut buf)?;
                    AuditOutcome::Counterfactual(CounterfactualVerdict {
                        original,
                        counterfactual,
                        sequence,
                        removed,
                    })
                }
                OUTCOME_UNKNOWN_PATTERN => {
                    // A pre-v5 peer sends no payload: decode to empty.
                    if version >= 5 {
                        let known = get_names(&mut buf)?;
                        need(&buf, 1, "nearest-name flag")?;
                        let nearest = match buf.get_u8() {
                            0 => None,
                            1 => Some(wire_str(&mut buf)?),
                            other => {
                                return Err(malformed(format!("bad nearest-name flag {}", other)))
                            }
                        };
                        AuditOutcome::UnknownPattern { known, nearest }
                    } else {
                        AuditOutcome::UnknownPattern {
                            known: Vec::new(),
                            nearest: None,
                        }
                    }
                }
                other => return Err(malformed(format!("unknown audit outcome tag {}", other))),
            };
            let stats = get_request_stats(&mut buf, version)?;
            need(&buf, 8, "response watermark")?;
            let watermark = buf.get_u64();
            // A pre-v5 peer omits the pack version: decode as 0.
            let pack_version = if version >= 5 {
                need(&buf, 8, "response pack version")?;
                buf.get_u64()
            } else {
                0
            };
            WireResponse::Audit(AuditResponse {
                outcome,
                stats,
                watermark,
                pack_version,
            })
        }
        RESP_ACK => {
            need(&buf, 8, "ingest ack")?;
            WireResponse::IngestAck {
                accepted: buf.get_u32(),
                queue_depth: buf.get_u32(),
            }
        }
        RESP_BUSY => {
            need(&buf, 4, "busy response")?;
            WireResponse::Busy {
                queue_depth: buf.get_u32(),
            }
        }
        RESP_FLUSHED => {
            need(&buf, 16, "flushed response")?;
            WireResponse::Flushed {
                ingested: buf.get_u64(),
                watermark: buf.get_u64(),
            }
        }
        RESP_STATS => WireResponse::Stats(get_engine_stats(&mut buf)?),
        RESP_METRICS => WireResponse::Metrics(Box::new(get_metrics_snapshot(&mut buf, version)?)),
        RESP_TRACES => {
            need(&buf, 4, "trace count")?;
            let count = buf.get_u32() as usize;
            // A trace record costs at least its 26 header bytes.
            let mut records = Vec::with_capacity(count.min(buf.remaining() / 26 + 1));
            for _ in 0..count {
                records.push(get_trace_record(&mut buf)?);
            }
            WireResponse::Traces(records)
        }
        RESP_ERROR => WireResponse::ServerError {
            message: wire_str(&mut buf)?,
        },
        RESP_PACK_LOADED if version >= 5 => {
            need(&buf, 16, "pack loaded response")?;
            WireResponse::PackLoaded {
                version: buf.get_u64(),
                installed: buf.get_u32(),
                reused: buf.get_u32(),
            }
        }
        RESP_PACK_REJECTED if version >= 5 => {
            need(&buf, 4, "diagnostic count")?;
            let count = buf.get_u32() as usize;
            // A diagnostic costs at least its two 2-byte string lengths
            // plus 16 position bytes.
            let mut diagnostics = Vec::with_capacity(count.min(buf.remaining() / 20 + 1));
            for _ in 0..count {
                let path = wire_str(&mut buf)?;
                need(&buf, 16, "diagnostic position")?;
                let line = buf.get_u64() as usize;
                let column = buf.get_u64() as usize;
                let message = wire_str(&mut buf)?;
                diagnostics.push(PackDiagnostic::new(path, line, column, message));
            }
            WireResponse::PackRejected { diagnostics }
        }
        RESP_POLICIES if version >= 5 => {
            need(&buf, 12, "policy listing head")?;
            let pack_version = buf.get_u64();
            let count = buf.get_u32() as usize;
            // A policy costs at least its two 2-byte string lengths plus
            // a 4-byte source length.
            let mut policies = Vec::with_capacity(count.min(buf.remaining() / 8 + 1));
            for _ in 0..count {
                policies.push(PolicyInfo {
                    name: wire_str(&mut buf)?,
                    package: wire_str(&mut buf)?,
                    source: get_text(&mut buf)?,
                });
            }
            WireResponse::Policies(PolicyListing {
                version: pack_version,
                policies,
            })
        }
        other => return Err(malformed(format!("unknown response tag {}", other))),
    };
    if buf.has_remaining() {
        return Err(malformed("trailing bytes after response"));
    }
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use piprov_core::name::Channel;
    use piprov_core::provenance::{Event, Provenance};
    use piprov_core::value::Value;
    use piprov_store::Operation;

    fn record(i: u64) -> ProvenanceRecord {
        let who = Principal::new(format!("p{}", i));
        let k = Provenance::single(Event::output(who.clone(), Provenance::empty()));
        ProvenanceRecord::new(
            i,
            who,
            Operation::Send,
            "m",
            Value::Channel(Channel::new(format!("v{}", i))),
            k,
        )
    }

    #[test]
    fn requests_round_trip() {
        let limits = WireLimits::default();
        let requests = vec![
            WireRequest::Audit(AuditRequest::VetValue {
                value: Value::Channel(Channel::new("v")),
                pattern: "from-a".into(),
            }),
            WireRequest::Audit(AuditRequest::AuditTrail {
                value: Value::Principal(Principal::new("b")),
            }),
            WireRequest::Audit(AuditRequest::WhoTouched {
                principal: Principal::new("s"),
            }),
            WireRequest::Audit(AuditRequest::OriginOf {
                value: Value::Channel(Channel::new("x")),
            }),
            WireRequest::IngestBatch(vec![record(1), record(2)]),
            WireRequest::IngestBatch(Vec::new()),
            WireRequest::Flush,
            WireRequest::Stats,
            WireRequest::Metrics,
            WireRequest::LoadPack(PackSource::new(
                "supply_chain",
                vec![
                    PackFile::new("build.ppol", "policy vendor_only = v!Any; Any\n"),
                    PackFile::new(
                        "ship.ppol",
                        "use supply_chain::build::vendor_only\npolicy gate = @vendor_only | eps\n",
                    ),
                ],
            )),
            WireRequest::LoadPack(PackSource::new("empty", Vec::new())),
            WireRequest::ListPolicies,
        ];
        for request in requests {
            let decoded = decode_request(encode_request(&request), &limits).unwrap();
            assert_eq!(decoded, request);
        }
    }

    #[test]
    fn metrics_snapshots_round_trip() {
        let limits = WireLimits::default();
        let metrics = MetricsSnapshot {
            engine: EngineStats {
                requests: 7,
                ingested: 100,
                vets_passed: 5,
                vets_failed: 2,
                index_hits: 40,
                memo_hits: 3,
                ingest_batches: 9,
                busy_rejections: 1,
                queue_depth: 2,
                snapshots_published: 9,
                snapshot_lag: 3,
                watermark: 100,
            },
            store: StoreStats {
                records: 100,
                segments: 2,
                bytes: 12_345,
            },
            interner: InternerStats {
                interned_nodes: 50,
                hits: 200,
                misses: 50,
                shards: 2,
            },
            interner_shards: vec![
                ShardStats {
                    shard: 0,
                    entries: 30,
                    hits: 120,
                    misses: 30,
                },
                ShardStats {
                    shard: 1,
                    entries: 20,
                    hits: 80,
                    misses: 20,
                },
            ],
            vets_unknown_pattern: 4,
            frame_decode: HistogramSnapshot {
                counts: vec![2; piprov_audit::LATENCY_BUCKET_BOUNDS_NS.len()],
                overflow: 1,
                sum_ns: 777,
                count: 33,
                exemplars: {
                    // One populated bucket exemplar plus an overflow
                    // exemplar, to exercise the flag-gated wire form.
                    let mut exemplars: Vec<Option<Exemplar>> =
                        vec![None; piprov_audit::LATENCY_BUCKET_BOUNDS_NS.len() + 1];
                    exemplars[3] = Some(Exemplar {
                        trace_id: 0xfeed_beef_0123,
                        value_ns: 4_096,
                    });
                    exemplars[piprov_audit::LATENCY_BUCKET_BOUNDS_NS.len()] = Some(Exemplar {
                        trace_id: u128::MAX,
                        value_ns: u64::MAX,
                    });
                    exemplars
                },
            },
            request_service: HistogramSnapshot {
                counts: vec![0; piprov_audit::LATENCY_BUCKET_BOUNDS_NS.len()],
                overflow: 9,
                sum_ns: 888,
                count: 9,
                exemplars: Vec::new(),
            },
            ingest_queue_wait: HistogramSnapshot::default(),
            uptime_seconds: 3_601,
            connections_accepted: 12,
            connections_closed: 9,
            open_connections: 3,
            policies: vec![PolicySnapshot {
                policy: "chain-only".into(),
                memo: MemoStats {
                    entries: 10,
                    bound: 4096,
                    epochs: 0,
                    hits: 6,
                    misses: 10,
                    retained: 0,
                },
                vets_passed: 5,
                vets_failed: 2,
                vets_unknown_value: 1,
                counterfactuals: 7,
                counterfactual_flips: 3,
                latency: HistogramSnapshot {
                    counts: vec![1; piprov_audit::LATENCY_BUCKET_BOUNDS_NS.len()],
                    overflow: 0,
                    sum_ns: 123_456,
                    count: 16,
                    exemplars: Vec::new(),
                },
            }],
        };
        let response = WireResponse::Metrics(Box::new(metrics));
        let decoded = decode_response(encode_response(&response), &limits).unwrap();
        assert_eq!(decoded, response);
        // An empty registry round-trips too.
        let empty = WireResponse::Metrics(Box::new(MetricsSnapshot {
            engine: EngineStats::default(),
            store: StoreStats::default(),
            interner: InternerStats {
                interned_nodes: 0,
                hits: 0,
                misses: 0,
                shards: 0,
            },
            interner_shards: Vec::new(),
            vets_unknown_pattern: 0,
            frame_decode: HistogramSnapshot::default(),
            request_service: HistogramSnapshot::default(),
            ingest_queue_wait: HistogramSnapshot::default(),
            uptime_seconds: 0,
            connections_accepted: 0,
            connections_closed: 0,
            open_connections: 0,
            policies: Vec::new(),
        }));
        let decoded = decode_response(encode_response(&empty), &limits).unwrap();
        assert_eq!(decoded, empty);
    }

    #[test]
    fn truncated_metrics_frames_are_typed_errors_not_panics() {
        let limits = WireLimits::default();
        let response = WireResponse::Metrics(Box::new(MetricsSnapshot {
            engine: EngineStats::default(),
            store: StoreStats::default(),
            interner: InternerStats {
                interned_nodes: 1,
                hits: 2,
                misses: 1,
                shards: 1,
            },
            interner_shards: vec![ShardStats {
                shard: 0,
                entries: 1,
                hits: 2,
                misses: 1,
            }],
            vets_unknown_pattern: 0,
            frame_decode: HistogramSnapshot::default(),
            request_service: HistogramSnapshot::default(),
            ingest_queue_wait: HistogramSnapshot::default(),
            uptime_seconds: 1,
            connections_accepted: 1,
            connections_closed: 0,
            open_connections: 1,
            policies: Vec::new(),
        }));
        let body = encode_response(&response).to_vec();
        for len in 0..body.len() {
            let err = decode_response(Bytes::from(body[..len].to_vec()), &limits);
            assert!(err.is_err(), "prefix of {} bytes decoded", len);
        }
    }

    #[test]
    fn over_cap_batches_are_rejected_before_decoding_records() {
        let limits = WireLimits {
            max_records: 2,
            ..WireLimits::default()
        };
        let request = WireRequest::IngestBatch(vec![record(1), record(2), record(3)]);
        let err = decode_request(encode_request(&request), &limits).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)), "{:?}", err);
        assert!(err.to_string().contains("cap"));
    }

    #[test]
    fn version_and_tag_errors_are_typed() {
        let limits = WireLimits::default();
        let mut body = encode_request(&WireRequest::Flush).to_vec();
        body[0] = 9;
        assert!(matches!(
            decode_request(Bytes::from(body), &limits),
            Err(WireError::UnsupportedVersion(9))
        ));
        let mut body = encode_request(&WireRequest::Flush).to_vec();
        body[1] = 99;
        assert!(matches!(
            decode_request(Bytes::from(body), &limits),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            decode_response(Bytes::from(vec![WIRE_VERSION]), &limits),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn a_why_channel_history_out_of_preorder_is_malformed() {
        let limits = WireLimits::default();
        let channel =
            Provenance::single(Event::output(Principal::new("nested"), Provenance::empty()));
        let response = WireResponse::Audit(AuditResponse {
            outcome: AuditOutcome::Why(WhySlice {
                verdict: true,
                sequence: 1,
                events: vec![WhyEvent {
                    node: 7,
                    event: Event::input(Principal::new("relay"), channel),
                }],
                blocked: None,
            }),
            stats: RequestStats::default(),
            watermark: 1,
            pack_version: 1,
        });
        let mut body = encode_response(&response).to_vec();
        assert_eq!(
            decode_response(Bytes::from(body.clone()), &limits).unwrap(),
            response
        );
        // The channel entry is `depth u32 | direction u8 | name`: move the
        // first (and only) entry to depth 1, below a parent it never had.
        let name = body
            .windows(6)
            .position(|w| w == b"nested")
            .expect("the nested principal is on the wire");
        let depth = name - 2 - 1 - 4;
        body[depth..depth + 4].copy_from_slice(&1u32.to_be_bytes());
        assert!(matches!(
            decode_response(Bytes::from(body), &limits),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn a_why_channel_history_nested_past_the_limit_is_malformed() {
        let limits = WireLimits::default();
        let why = |levels: usize| {
            let channel = (0..levels).fold(Provenance::empty(), |channel, _| {
                Provenance::single(Event::output(Principal::new("p"), channel))
            });
            WireResponse::Audit(AuditResponse {
                outcome: AuditOutcome::Why(WhySlice {
                    verdict: true,
                    sequence: 1,
                    events: vec![WhyEvent {
                        node: 7,
                        event: Event::input(Principal::new("relay"), channel),
                    }],
                    blocked: None,
                }),
                stats: RequestStats::default(),
                watermark: 1,
                pack_version: 1,
            })
        };
        let deepest = why(MAX_PROVENANCE_DEPTH);
        assert_eq!(
            decode_response(encode_response(&deepest), &limits).unwrap(),
            deepest
        );
        assert!(matches!(
            decode_response(encode_response(&why(MAX_PROVENANCE_DEPTH + 1)), &limits),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let limits = WireLimits::default();
        let mut body = encode_request(&WireRequest::Stats).to_vec();
        body.push(0);
        assert!(matches!(
            decode_request(Bytes::from(body), &limits),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn traced_requests_round_trip_with_their_context() {
        let limits = WireLimits::default();
        let requests = vec![
            WireRequest::Audit(AuditRequest::VetValue {
                value: Value::Channel(Channel::new("v")),
                pattern: "from-a".into(),
            }),
            WireRequest::IngestBatch(vec![record(1)]),
            WireRequest::Flush,
            WireRequest::Stats,
            WireRequest::Metrics,
            WireRequest::Traces { min_total_ns: 0 },
        ];
        for sampled in [true, false] {
            let trace = RequestTrace {
                context: TraceContext {
                    trace_id: 0xdead_beef_cafe_0042_u128 << 32 | 7,
                    sampled,
                },
                client_encode_ns: 1_234,
            };
            for request in &requests {
                let body = encode_request_traced(request, Some(&trace));
                let (decoded, decoded_trace) = decode_request_traced(body, &limits).unwrap();
                assert_eq!(&decoded, request);
                assert_eq!(decoded_trace, Some(trace));
            }
        }
        // Untraced bodies decode with no context at all.
        let (_, none) =
            decode_request_traced(encode_request(&WireRequest::Stats), &limits).unwrap();
        assert_eq!(none, None);
    }

    #[test]
    fn the_traces_request_and_response_round_trip() {
        let limits = WireLimits::default();
        let request = WireRequest::Traces {
            min_total_ns: 5_000,
        };
        assert_eq!(
            decode_request(encode_request(&request), &limits).unwrap(),
            request
        );
        let response = WireResponse::Traces(vec![
            TraceRecord {
                trace_id: u128::MAX,
                kind: RequestKind::Vet,
                total_ns: 98_765,
                spans: vec![
                    Span::new(SpanKind::ClientEncode, 120),
                    Span::new(SpanKind::Decode, 340),
                    Span {
                        kind: SpanKind::Handle,
                        duration_ns: 56_000,
                        index_hits: 12,
                        memo_hits: 3,
                    },
                    Span::new(SpanKind::Write, 89),
                ],
            },
            TraceRecord {
                trace_id: 1,
                kind: RequestKind::Ingest,
                total_ns: 0,
                spans: vec![Span::new(SpanKind::QueueWait, 77)],
            },
        ]);
        let decoded = decode_response(encode_response(&response), &limits).unwrap();
        assert_eq!(decoded, response);
        let empty = WireResponse::Traces(Vec::new());
        let decoded = decode_response(encode_response(&empty), &limits).unwrap();
        assert_eq!(decoded, empty);
    }

    #[test]
    fn bad_trace_bytes_are_typed_errors_not_panics() {
        let limits = WireLimits::default();
        // A sampled flag that is neither 0 nor 1.
        let trace = RequestTrace {
            context: TraceContext {
                trace_id: 9,
                sampled: true,
            },
            client_encode_ns: 5,
        };
        let body = encode_request_traced(&WireRequest::Stats, Some(&trace)).to_vec();
        let flag_at = body.len() - 9; // u64 encode-ns follows the flag
        let mut bad = body.clone();
        bad[flag_at] = 7;
        assert!(matches!(
            decode_request_traced(Bytes::from(bad), &limits),
            Err(WireError::Malformed(_))
        ));
        // Every truncation inside the trace field is an error; the cut
        // exactly at the untraced payload boundary decodes as untraced.
        let base_len = encode_request(&WireRequest::Stats).len();
        for len in (base_len + 1)..body.len() {
            assert!(
                decode_request_traced(Bytes::from(body[..len].to_vec()), &limits).is_err(),
                "prefix of {} bytes decoded",
                len
            );
        }
        // A traces response with an unknown record or span kind.
        let response = WireResponse::Traces(vec![TraceRecord {
            trace_id: 2,
            kind: RequestKind::Vet,
            total_ns: 10,
            spans: vec![Span::new(SpanKind::Decode, 4)],
        }]);
        let encoded = encode_response(&response).to_vec();
        // version u8 | tag u8 | count u32 | id hi+lo u64s | kind ...
        let record_kind_at = 2 + 4 + 16;
        let mut bad = encoded.clone();
        bad[record_kind_at] = 99;
        assert!(matches!(
            decode_response(Bytes::from(bad), &limits),
            Err(WireError::Malformed(_))
        ));
        let span_kind_at = record_kind_at + 1 + 8 + 1;
        let mut bad = encoded.clone();
        bad[span_kind_at] = 99;
        assert!(matches!(
            decode_response(Bytes::from(bad), &limits),
            Err(WireError::Malformed(_))
        ));
        // And truncations never panic.
        for len in 0..encoded.len() {
            assert!(decode_response(Bytes::from(encoded[..len].to_vec()), &limits).is_err());
        }
    }

    #[test]
    fn policy_plane_responses_round_trip() {
        let limits = WireLimits::default();
        let responses = vec![
            WireResponse::PackLoaded {
                version: 7,
                installed: 12,
                reused: 9,
            },
            WireResponse::PackRejected {
                diagnostics: vec![
                    PackDiagnostic::new("build.ppol", 3, 14, "expected `=` after the policy name"),
                    PackDiagnostic::new(
                        "ship.ppol",
                        1,
                        5,
                        "unknown policy `@vendor_onyl` (did you mean `vendor_only`?)",
                    ),
                ],
            },
            WireResponse::PackRejected {
                diagnostics: Vec::new(),
            },
            WireResponse::Policies(PolicyListing {
                version: 7,
                policies: vec![
                    PolicyInfo {
                        name: "supply_chain::build::vendor_only".into(),
                        package: "supply_chain::build".into(),
                        source: "v!Any; Any".into(),
                    },
                    PolicyInfo {
                        name: "supply_chain::ship::gate".into(),
                        package: "supply_chain::ship".into(),
                        source: "(v!Any; Any) | eps".into(),
                    },
                ],
            }),
            WireResponse::Policies(PolicyListing::default()),
        ];
        for response in responses {
            let decoded = decode_response(encode_response(&response), &limits).unwrap();
            assert_eq!(decoded, response);
            // And every truncation is a typed error, never a panic.
            let body = encode_response(&response).to_vec();
            for len in 0..body.len() {
                assert!(
                    decode_response(Bytes::from(body[..len].to_vec()), &limits).is_err(),
                    "prefix of {} bytes decoded",
                    len
                );
            }
        }
    }

    #[test]
    fn audit_responses_carry_pack_version_and_unknown_pattern_payload() {
        let limits = WireLimits::default();
        let response = WireResponse::Audit(AuditResponse {
            outcome: AuditOutcome::UnknownPattern {
                known: vec!["a".into(), "b".into()],
                nearest: Some("b".into()),
            },
            stats: RequestStats::default(),
            watermark: 41,
            pack_version: 6,
        });
        let decoded = decode_response(encode_response(&response), &limits).unwrap();
        assert_eq!(decoded, response);
        let no_hint = WireResponse::Audit(AuditResponse {
            outcome: AuditOutcome::UnknownPattern {
                known: Vec::new(),
                nearest: None,
            },
            stats: RequestStats::default(),
            watermark: 41,
            pack_version: 6,
        });
        let decoded = decode_response(encode_response(&no_hint), &limits).unwrap();
        assert_eq!(decoded, no_hint);
    }

    #[test]
    fn version_4_bodies_still_decode_without_the_v5_extensions() {
        let limits = WireLimits::default();
        // A v4 peer's audit response: no pack version after the
        // watermark, no payload on an unknown-pattern outcome.  Build the
        // body by hand — our encoder always speaks v5.
        let mut body = BytesMut::new();
        body.put_u8(4);
        body.put_u8(RESP_AUDIT);
        body.put_u8(OUTCOME_UNKNOWN_PATTERN);
        // Pre-v6 stats: three u64 counters, no memo_reused.
        body.put_u64(0);
        body.put_u64(0);
        body.put_u64(0);
        body.put_u64(17); // watermark
        let decoded = decode_response(body.freeze(), &limits).unwrap();
        assert_eq!(
            decoded,
            WireResponse::Audit(AuditResponse {
                outcome: AuditOutcome::UnknownPattern {
                    known: Vec::new(),
                    nearest: None,
                },
                stats: RequestStats::default(),
                watermark: 17,
                pack_version: 0,
            })
        );
        // A v5 body re-marked v4 has trailing bytes (the pack version):
        // rejected, not misread.
        let mut remarked = encode_response(&WireResponse::Audit(AuditResponse {
            outcome: AuditOutcome::UnknownValue,
            stats: RequestStats::default(),
            watermark: 1,
            pack_version: 3,
        }))
        .to_vec();
        remarked[0] = 4;
        assert!(matches!(
            decode_response(Bytes::from(remarked), &limits),
            Err(WireError::Malformed(_))
        ));
        // The policy-plane tags are v5 vocabulary: a v4 body carrying one
        // is an unknown tag, and so are the requests.
        let mut remarked = encode_response(&WireResponse::PackLoaded {
            version: 1,
            installed: 1,
            reused: 0,
        })
        .to_vec();
        remarked[0] = 4;
        assert!(matches!(
            decode_response(Bytes::from(remarked), &limits),
            Err(WireError::Malformed(_))
        ));
        let mut remarked = encode_request(&WireRequest::ListPolicies).to_vec();
        remarked[0] = 4;
        assert!(matches!(
            decode_request(Bytes::from(remarked), &limits),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn version_5_bodies_still_decode_without_the_v6_extensions() {
        let limits = WireLimits::default();
        // A v5 peer's audit response: three stats counters (no
        // memo_reused), watermark, pack version.  Build the body by hand
        // — our encoder always speaks v6.
        let mut body = BytesMut::new();
        body.put_u8(5);
        body.put_u8(RESP_AUDIT);
        body.put_u8(OUTCOME_VETTED);
        body.put_u8(1); // verdict
        body.put_u64(9); // sequence
        body.put_u64(2); // index_hits
        body.put_u64(3); // memo_hits
        body.put_u64(4); // dag_nodes_visited
        body.put_u64(17); // watermark
        body.put_u64(1); // pack version
        let decoded = decode_response(body.freeze(), &limits).unwrap();
        assert_eq!(
            decoded,
            WireResponse::Audit(AuditResponse {
                outcome: AuditOutcome::Vetted {
                    verdict: true,
                    sequence: 9,
                },
                stats: RequestStats {
                    index_hits: 2,
                    memo_hits: 3,
                    dag_nodes_visited: 4,
                    memo_reused: 0,
                },
                watermark: 17,
                pack_version: 1,
            })
        );
        // A v6 body re-marked v5 has trailing bytes (memo_reused):
        // rejected, not misread.
        let mut remarked = encode_response(&WireResponse::Audit(AuditResponse {
            outcome: AuditOutcome::UnknownValue,
            stats: RequestStats::default(),
            watermark: 1,
            pack_version: 3,
        }))
        .to_vec();
        remarked[0] = 5;
        assert!(matches!(
            decode_response(Bytes::from(remarked), &limits),
            Err(WireError::Malformed(_))
        ));
        // The causal-query tags are v6 vocabulary: a v5 body carrying one
        // is an unknown tag, on both sides of the wire.
        let mut remarked = encode_response(&WireResponse::Audit(AuditResponse {
            outcome: AuditOutcome::Why(WhySlice {
                verdict: true,
                sequence: 1,
                events: Vec::new(),
                blocked: None,
            }),
            stats: RequestStats::default(),
            watermark: 1,
            pack_version: 1,
        }))
        .to_vec();
        remarked[0] = 5;
        assert!(matches!(
            decode_response(Bytes::from(remarked), &limits),
            Err(WireError::Malformed(_))
        ));
        let mut remarked = encode_request(&WireRequest::Audit(AuditRequest::Counterfactual {
            value: Value::Channel(Channel::new("v")),
            pattern: "p".into(),
            remove: EventFilter::Kind(Direction::Input),
        }))
        .to_vec();
        remarked[0] = 5;
        assert!(matches!(
            decode_request(Bytes::from(remarked), &limits),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn version_3_bodies_still_decode_without_the_v4_extensions() {
        let limits = WireLimits::default();
        // A v3 peer's request: same payload, older version byte, no trace
        // field.
        for request in [
            WireRequest::Flush,
            WireRequest::Stats,
            WireRequest::Audit(AuditRequest::WhoTouched {
                principal: Principal::new("s"),
            }),
        ] {
            let mut body = encode_request(&request).to_vec();
            body[0] = 3;
            let (decoded, trace) = decode_request_traced(Bytes::from(body), &limits).unwrap();
            assert_eq!(decoded, request);
            assert_eq!(trace, None);
        }
        // The trace field is a v4 extension: a v3 body carrying one is
        // trailing garbage, not a context.
        let trace = RequestTrace {
            context: TraceContext {
                trace_id: 3,
                sampled: true,
            },
            client_encode_ns: 1,
        };
        let mut body = encode_request_traced(&WireRequest::Stats, Some(&trace)).to_vec();
        body[0] = 3;
        assert!(matches!(
            decode_request_traced(Bytes::from(body), &limits),
            Err(WireError::Malformed(_))
        ));
        // A v3 response body (no serving-lifecycle block, no exemplars).
        let response = WireResponse::Flushed {
            ingested: 4,
            watermark: 9,
        };
        let mut body = encode_response(&response).to_vec();
        body[0] = 3;
        assert_eq!(
            decode_response(Bytes::from(body), &limits).unwrap(),
            response
        );
    }
}
