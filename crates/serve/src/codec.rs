//! Binary codec for the wire vocabulary: the audit crate's typed
//! [`AuditRequest`]/[`AuditResponse`] plus the ingest and control messages
//! the cross-process service adds.
//!
//! Every message body is `version u8 | tag u8 | payload`.  The payload
//! reuses the store codec's primitive vocabulary
//! ([`piprov_store::codec::put_str`] and friends) and embeds whole
//! [`ProvenanceRecord`]s in the store's body format — a record crosses the
//! socket in exactly the bytes it would occupy in a segment file.  The
//! events of a why slice or a counterfactual delta carry their channel
//! provenances as references into one store [`NodeTable`] written ahead
//! of them.  So sharing-heavy provenance stays O(DAG) on the wire too,
//! and the decoder rebuilds it through the interner on the receiving side.
//!
//! Every sequence is a u32 count followed by its items, written by
//! `put_seq` and read by `get_seq`.  Decode-side discipline: `get_seq`
//! caps its pre-allocation by the bytes actually remaining, given the
//! fewest bytes one item occupies, and record lists are also capped by
//! [`WireLimits::max_records`] before any record is decoded — so no
//! hostile count can request unbounded memory before the per-element
//! bounds checks reject it.

use crate::wire::{WireError, WireLimits, WIRE_VERSION};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use piprov_audit::{
    AuditOutcome, AuditRequest, AuditResponse, CounterfactualVerdict, EngineStats, EventFilter,
    Exemplar, HistogramSnapshot, MetricsSnapshot, PolicyInfo, PolicyListing, PolicySnapshot,
    RequestKind, RequestStats, Span, SpanKind, TraceContext, TraceRecord, WhyEvent, WhySlice,
};
use piprov_core::provenance::{Direction, Event, InternerStats, ShardStats};
use piprov_patterns::MemoStats;
use piprov_policy::{PackDiagnostic, PackFile, PackSource};
use piprov_store::codec::{
    decode_body, encode_body, get_name, get_node_ref, get_node_table, get_str, get_value, put_str,
    put_value, NodeTable,
};
use piprov_store::record::{direction_from_tag, direction_tag};
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
    /// file's source text.  The server compiles it off to the side and
    /// either installs it atomically ([`WireResponse::PackLoaded`]) or
    /// rejects it with per-file line/column diagnostics and changes
    /// nothing ([`WireResponse::PackRejected`]).
    LoadPack(PackSource),
    /// The registered policies: every name, source package, and canonical
    /// pattern text, plus the pack version they belong to.
    ListPolicies,
}

/// The trace field a traced request carries after its payload: the
/// propagated [`TraceContext`] plus the client-side encode+send duration,
/// measured by the originator (the server cannot observe it) so the
/// server-side trace covers the full path.
///
/// The field is optional: an untraced request carries none and decodes to
/// `None`.
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
        WireRequest::Metrics => RequestKind::Metrics,
        WireRequest::Traces { .. } => RequestKind::Traces,
        WireRequest::LoadPack(_) => RequestKind::LoadPack,
        WireRequest::ListPolicies => RequestKind::ListPolicies,
    }
}

/// The [`RequestKind`] of an encoded request body, read from its version,
/// tag and audit sub-tag alone: what the event loop routes a frame by
/// without decoding it.  `None` for a body too short to hold them, any
/// version but [`WIRE_VERSION`], or an unknown tag — [`decode_request`]
/// gives those their typed error.
pub(crate) fn peek_kind(body: &Bytes) -> Option<RequestKind> {
    let (&version, rest) = body.split_first()?;
    if version != WIRE_VERSION {
        return None;
    }
    Some(match *rest.first()? {
        REQ_AUDIT => match *rest.get(1)? {
            AUDIT_VET => RequestKind::Vet,
            AUDIT_TRAIL => RequestKind::Trail,
            AUDIT_TOUCHED => RequestKind::Touched,
            AUDIT_ORIGIN => RequestKind::Origin,
            AUDIT_WHY => RequestKind::Why,
            AUDIT_COUNTERFACTUAL => RequestKind::Counterfactual,
            _ => return None,
        },
        REQ_INGEST => RequestKind::Ingest,
        REQ_FLUSH => RequestKind::Flush,
        REQ_METRICS => RequestKind::Metrics,
        REQ_TRACES => RequestKind::Traces,
        REQ_LOAD_PACK => RequestKind::LoadPack,
        REQ_LIST_POLICIES => RequestKind::ListPolicies,
        _ => return None,
    })
}

const REQ_AUDIT: u8 = 1;
const REQ_INGEST: u8 = 2;
const REQ_FLUSH: u8 = 3;
const REQ_METRICS: u8 = 5;
const REQ_TRACES: u8 = 6;
const REQ_LOAD_PACK: u8 = 7;
const REQ_LIST_POLICIES: u8 = 8;

/// Field tag of the optional per-request trace field.
const REQUEST_FIELD_TRACE: u8 = 1;

const AUDIT_VET: u8 = 1;
const AUDIT_TRAIL: u8 = 2;
const AUDIT_TOUCHED: u8 = 3;
const AUDIT_ORIGIN: u8 = 4;
const AUDIT_WHY: u8 = 5;
const AUDIT_COUNTERFACTUAL: u8 = 6;

// [`EventFilter`] tags.
const FILTER_PRINCIPAL: u8 = 1;
const FILTER_KIND: u8 = 2;
const FILTER_CHANNEL_VIA: u8 = 3;

const RESP_AUDIT: u8 = 1;
const RESP_ACK: u8 = 2;
const RESP_BUSY: u8 = 3;
const RESP_FLUSHED: u8 = 4;
const RESP_ERROR: u8 = 6;
const RESP_METRICS: u8 = 7;
const RESP_TRACES: u8 = 8;
const RESP_PACK_LOADED: u8 = 9;
const RESP_PACK_REJECTED: u8 = 10;
const RESP_POLICIES: u8 = 11;

const OUTCOME_VETTED: u8 = 1;
const OUTCOME_TRAIL: u8 = 2;
const OUTCOME_TOUCHED: u8 = 3;
const OUTCOME_ORIGIN: u8 = 4;
const OUTCOME_UNKNOWN_VALUE: u8 = 5;
const OUTCOME_UNKNOWN_PATTERN: u8 = 6;
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

fn wire_u32(buf: &mut Bytes, what: &str) -> Result<u32, WireError> {
    need(buf, 4, what)?;
    Ok(buf.get_u32())
}

fn wire_u64(buf: &mut Bytes, what: &str) -> Result<u64, WireError> {
    need(buf, 8, what)?;
    Ok(buf.get_u64())
}

/// Writes `items` as a u32 count followed by each item.
fn put_seq<T>(buf: &mut BytesMut, items: &[T], mut put: impl FnMut(&mut BytesMut, &T)) {
    buf.put_u32(items.len() as u32);
    for item in items {
        put(buf, item);
    }
}

/// Reads a sequence written by [`put_seq`].  `min_len` is the fewest wire
/// bytes one item occupies: the pre-allocation never exceeds what the
/// remaining bytes could hold, so a hostile count costs no more memory
/// than the frame it arrived in.
fn get_seq<T>(
    buf: &mut Bytes,
    what: &str,
    min_len: usize,
    mut get: impl FnMut(&mut Bytes) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    need(buf, 4, what)?;
    let count = buf.get_u32() as usize;
    let mut items = Vec::with_capacity(count.min(buf.remaining() / min_len));
    for _ in 0..count {
        items.push(get(buf)?);
    }
    Ok(items)
}

/// Reads a `0`/`1` byte.
fn get_flag(buf: &mut Bytes, what: &str) -> Result<bool, WireError> {
    need(buf, 1, what)?;
    match buf.get_u8() {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(malformed(format!("bad {} {}", what, other))),
    }
}

/// Writes an optional field as a presence flag, then the value if present.
fn put_opt<T>(buf: &mut BytesMut, item: Option<&T>, put: impl FnOnce(&mut BytesMut, &T)) {
    buf.put_u8(item.is_some() as u8);
    if let Some(item) = item {
        put(buf, item);
    }
}

/// Reads an optional field written by [`put_opt`].
fn get_opt<T>(
    buf: &mut Bytes,
    what: &str,
    get: impl FnOnce(&mut Bytes) -> Result<T, WireError>,
) -> Result<Option<T>, WireError> {
    if get_flag(buf, what)? {
        get(buf).map(Some)
    } else {
        Ok(None)
    }
}

fn put_trace_id(buf: &mut BytesMut, trace_id: u128) {
    buf.put_u64((trace_id >> 64) as u64);
    buf.put_u64(trace_id as u64);
}

/// Reads a trace id written by [`put_trace_id`]; the caller has checked
/// that its 16 bytes are there.
fn get_trace_id(buf: &mut Bytes) -> u128 {
    let hi = buf.get_u64();
    ((hi as u128) << 64) | buf.get_u64() as u128
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

/// Reads a record list, refusing a count above [`WireLimits::max_records`]
/// before any record is decoded.
fn get_records(
    buf: &mut Bytes,
    limits: &WireLimits,
    what: &str,
) -> Result<Vec<ProvenanceRecord>, WireError> {
    need(buf, 4, "record count")?;
    let count = u32::from_be_bytes(buf[..4].try_into().expect("4 bytes"));
    if count > limits.max_records {
        return Err(malformed(format!(
            "{} of {} records exceeds the {} record cap",
            what, count, limits.max_records
        )));
    }
    // A record costs at least 4 length bytes + the 18-byte minimum body.
    get_seq(buf, "record count", 22, get_record)
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

/// Strips the version byte, refusing any version but [`WIRE_VERSION`], and
/// returns the message tag.
fn open_message(buf: &mut Bytes) -> Result<u8, WireError> {
    if buf.remaining() < 2 {
        return Err(malformed("message shorter than version + tag"));
    }
    match buf.get_u8() {
        WIRE_VERSION => Ok(buf.get_u8()),
        version => Err(WireError::UnsupportedVersion(version)),
    }
}

fn put_request_trace(buf: &mut BytesMut, trace: &RequestTrace) {
    buf.put_u8(REQUEST_FIELD_TRACE);
    put_trace_id(buf, trace.context.trace_id);
    buf.put_u8(trace.context.sampled as u8);
    buf.put_u64(trace.client_encode_ns);
}

fn get_request_trace(buf: &mut Bytes) -> Result<RequestTrace, WireError> {
    need(buf, 25, "request trace field")?;
    let trace_id = get_trace_id(buf);
    let sampled = get_flag(buf, "trace sampled flag")?;
    Ok(RequestTrace {
        context: TraceContext { trace_id, sampled },
        client_encode_ns: buf.get_u64(),
    })
}

/// Encodes an `IngestBatch` request body from a borrowed slice — what the
/// client's batching/splitting path uses to encode once (or re-encode a
/// half) without cloning the records.  Byte-identical to
/// `encode_request(&WireRequest::IngestBatch(..))`.
pub fn encode_ingest_batch(records: &[ProvenanceRecord]) -> Bytes {
    finish_message(REQ_INGEST, |buf| put_seq(buf, records, put_record))
}

/// Appends the trace field to an already-encoded request body — how a
/// traced client turns any encoded request (including a pre-encoded
/// ingest batch) into its traced form without re-encoding the payload.
pub fn append_request_trace(body: &Bytes, trace: &RequestTrace) -> Bytes {
    let mut buf = BytesMut::with_capacity(body.len() + 26);
    buf.extend_from_slice(body);
    put_request_trace(&mut buf, trace);
    buf.freeze()
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
        WireRequest::IngestBatch(records) => encode_ingest_batch(records),
        WireRequest::Flush => finish_message(REQ_FLUSH, |_| {}),
        WireRequest::Metrics => finish_message(REQ_METRICS, |_| {}),
        WireRequest::Traces { min_total_ns } => finish_message(REQ_TRACES, |buf| {
            buf.put_u64(*min_total_ns);
        }),
        WireRequest::LoadPack(pack) => finish_message(REQ_LOAD_PACK, |buf| {
            put_str(buf, &pack.root);
            put_seq(buf, &pack.files, |buf, file| {
                put_str(buf, &file.path);
                put_text(buf, &file.source);
            });
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

/// Decodes one request body together with its optional trace field — the
/// server's entry point.
///
/// # Errors
///
/// As [`decode_request`].
pub fn decode_request_traced(
    mut buf: Bytes,
    limits: &WireLimits,
) -> Result<(WireRequest, Option<RequestTrace>), WireError> {
    let request = match open_message(&mut buf)? {
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
                AUDIT_WHY => AuditRequest::Why {
                    value: wire_value(&mut buf)?,
                    pattern: wire_str(&mut buf)?,
                },
                AUDIT_COUNTERFACTUAL => AuditRequest::Counterfactual {
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
        REQ_METRICS => WireRequest::Metrics,
        REQ_TRACES => WireRequest::Traces {
            min_total_ns: wire_u64(&mut buf, "traces filter")?,
        },
        REQ_LOAD_PACK => {
            let root = wire_str(&mut buf)?;
            // A pack file costs at least its 2 path-length + 4
            // source-length bytes.
            let files = get_seq(&mut buf, "pack file count", 6, |buf| {
                Ok(PackFile::new(wire_str(buf)?, get_text(buf)?))
            })?;
            WireRequest::LoadPack(PackSource::new(root, files))
        }
        REQ_LIST_POLICIES => WireRequest::ListPolicies,
        other => return Err(malformed(format!("unknown request tag {}", other))),
    };
    // Optional per-request fields after the payload; the only one defined
    // is the trace field.  An unknown field tag is malformed, not skipped,
    // so "garbage we tolerate" never becomes a compatibility constraint by
    // accident.
    let mut trace = None;
    while buf.has_remaining() {
        match buf.get_u8() {
            REQUEST_FIELD_TRACE if trace.is_none() => {
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
    buf.put_u64(stats.memo_reused as u64);
}

fn get_request_stats(buf: &mut Bytes) -> Result<RequestStats, WireError> {
    need(buf, 32, "request stats")?;
    Ok(RequestStats {
        index_hits: buf.get_u64() as usize,
        memo_hits: buf.get_u64() as usize,
        dag_nodes_visited: buf.get_u64() as usize,
        memo_reused: buf.get_u64() as usize,
    })
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
        FILTER_KIND => EventFilter::Kind(get_direction(buf, "event filter direction")?),
        FILTER_CHANNEL_VIA => EventFilter::ChannelVia(wire_name(buf)?),
        other => return Err(malformed(format!("unknown event filter tag {}", other))),
    })
}

fn get_direction(buf: &mut Bytes, what: &str) -> Result<Direction, WireError> {
    need(buf, 1, what)?;
    direction_from_tag(buf.get_u8()).ok_or_else(|| malformed(format!("unknown {}", what)))
}

/// Writes why events: one [`NodeTable`] holding every event's channel
/// provenance, then the u32-counted events, each
/// `node u32 | principal | direction u8 | channel ref u32`.
fn put_why_events(buf: &mut BytesMut, events: &[WhyEvent]) {
    let table = NodeTable::new(events.iter().map(|e| &e.event.channel_provenance));
    table.put(buf);
    put_seq(buf, events, |buf, event| {
        buf.put_u32(event.node);
        put_str(buf, event.event.principal.as_str());
        buf.put_u8(direction_tag(event.event.direction));
        buf.put_u32(table.reference(&event.event.channel_provenance));
    });
}

fn get_why_events(buf: &mut Bytes) -> Result<Vec<WhyEvent>, WireError> {
    let table = get_node_table(buf).map_err(store_err)?;
    // A why event costs at least 4 node + 2 principal-length + 1
    // direction + 4 channel-reference bytes.
    get_seq(buf, "why event count", 11, |buf| {
        let node = wire_u32(buf, "why event node")?;
        let principal = wire_name(buf)?;
        let direction = get_direction(buf, "why event direction")?;
        let channel_provenance = get_node_ref(buf, &table).map_err(store_err)?;
        let event = Event {
            principal,
            direction,
            channel_provenance,
        };
        Ok(WhyEvent { node, event })
    })
}

fn get_names<N: for<'a> From<&'a str>>(buf: &mut Bytes) -> Result<Vec<N>, WireError> {
    // A name costs at least its 2 length bytes.
    get_seq(buf, "name count", 2, wire_name)
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
    put_seq(buf, counts, |buf, bucket| buf.put_u64(*bucket));
    buf.put_u64(*overflow);
    buf.put_u64(*sum_ns);
    buf.put_u64(*count);
    put_seq(buf, exemplars, |buf, exemplar| {
        put_opt(buf, exemplar.as_ref(), |buf, exemplar| {
            put_trace_id(buf, exemplar.trace_id);
            buf.put_u64(exemplar.value_ns);
        })
    });
}

fn get_histogram(buf: &mut Bytes) -> Result<HistogramSnapshot, WireError> {
    let counts = get_seq(buf, "histogram bucket count", 8, |buf| {
        wire_u64(buf, "histogram bucket")
    })?;
    need(buf, 24, "histogram tail")?;
    let overflow = buf.get_u64();
    let sum_ns = buf.get_u64();
    let count = buf.get_u64();
    // An exemplar slot costs at least its presence byte.
    let exemplars = get_seq(buf, "exemplar count", 1, |buf| {
        get_opt(buf, "exemplar flag", |buf| {
            need(buf, 24, "exemplar")?;
            Ok(Exemplar {
                trace_id: get_trace_id(buf),
                value_ns: buf.get_u64(),
            })
        })
    })?;
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
    buf.put_u64(*counterfactuals);
    buf.put_u64(*counterfactual_flips);
    put_histogram(buf, latency);
}

fn get_policy_snapshot(buf: &mut Bytes) -> Result<PolicySnapshot, WireError> {
    let policy = wire_str(buf)?;
    let memo = get_memo_stats(buf)?;
    need(buf, 40, "policy counters")?;
    Ok(PolicySnapshot {
        policy,
        memo,
        vets_passed: buf.get_u64(),
        vets_failed: buf.get_u64(),
        vets_unknown_value: buf.get_u64(),
        counterfactuals: buf.get_u64(),
        counterfactual_flips: buf.get_u64(),
        latency: get_histogram(buf)?,
    })
}

fn put_metrics_snapshot(buf: &mut BytesMut, metrics: &MetricsSnapshot) {
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
    } = metrics;
    put_engine_stats(buf, engine);
    put_store_stats(buf, store);
    put_interner_stats(buf, interner);
    put_seq(buf, interner_shards, put_shard_stats);
    buf.put_u64(*vets_unknown_pattern);
    put_seq(buf, stages, |buf, (stage, histogram)| {
        buf.put_u8(*stage as u8);
        put_histogram(buf, histogram);
    });
    buf.put_u64(*uptime_seconds);
    buf.put_u64(*connections_accepted);
    buf.put_u64(*connections_closed);
    buf.put_u64(*open_connections);
    put_seq(buf, policies, put_policy_snapshot);
}

fn get_metrics_snapshot(buf: &mut Bytes) -> Result<MetricsSnapshot, WireError> {
    let engine = get_engine_stats(buf)?;
    let store = get_store_stats(buf)?;
    let interner = get_interner_stats(buf)?;
    // A shard costs 32 bytes on the wire.
    let interner_shards = get_seq(buf, "shard count", 32, get_shard_stats)?;
    let vets_unknown_pattern = wire_u64(buf, "unknown-pattern counter")?;
    // A stage costs its kind byte and a 32-byte histogram with no buckets.
    let stages = get_seq(buf, "stage count", 33, |buf| {
        need(buf, 1, "stage kind")?;
        Ok((get_span_kind(buf)?, get_histogram(buf)?))
    })?;
    need(buf, 32, "serving lifecycle counters")?;
    Ok(MetricsSnapshot {
        engine,
        store,
        interner,
        interner_shards,
        vets_unknown_pattern,
        stages,
        uptime_seconds: buf.get_u64(),
        connections_accepted: buf.get_u64(),
        connections_closed: buf.get_u64(),
        open_connections: buf.get_u64(),
        // A policy costs at least its 2 name-length bytes, 48 memo bytes,
        // 40 counter bytes and a 32-byte histogram with no buckets.
        policies: get_seq(buf, "policy count", 122, get_policy_snapshot)?,
    })
}

/// Reads one [`SpanKind`] byte; the caller has checked it is there.
fn get_span_kind(buf: &mut Bytes) -> Result<SpanKind, WireError> {
    let kind = buf.get_u8();
    SpanKind::from_u8(kind).ok_or_else(|| malformed(format!("bad span kind {}", kind)))
}

fn put_trace_record(buf: &mut BytesMut, record: &TraceRecord) {
    let TraceRecord {
        trace_id,
        kind,
        total_ns,
        spans,
    } = record;
    put_trace_id(buf, *trace_id);
    buf.put_u8(*kind as u8);
    buf.put_u64(*total_ns);
    put_seq(buf, spans, |buf, span| {
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
    });
}

fn get_trace_record(buf: &mut Bytes) -> Result<TraceRecord, WireError> {
    need(buf, 25, "trace record head")?;
    let trace_id = get_trace_id(buf);
    let kind = buf.get_u8();
    let kind =
        RequestKind::from_u8(kind).ok_or_else(|| malformed(format!("bad trace kind {}", kind)))?;
    let total_ns = buf.get_u64();
    // A span costs 1 kind + 3 × 8 counter bytes.
    let spans = get_seq(buf, "trace span count", 25, |buf| {
        need(buf, 25, "trace span")?;
        Ok(Span {
            kind: get_span_kind(buf)?,
            duration_ns: buf.get_u64(),
            index_hits: buf.get_u64(),
            memo_hits: buf.get_u64(),
        })
    })?;
    Ok(TraceRecord {
        trace_id,
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
                    put_seq(buf, &trail.records, put_record);
                    put_seq(buf, &trail.principals, |buf, p| put_str(buf, p.as_str()));
                    put_seq(buf, &trail.channels, |buf, c| put_str(buf, c.as_str()));
                }
                AuditOutcome::Touched { records, values } => {
                    buf.put_u8(OUTCOME_TOUCHED);
                    put_seq(buf, records, |buf, seq| buf.put_u64(*seq));
                    put_seq(buf, values, put_value);
                }
                AuditOutcome::Origin { principal } => {
                    buf.put_u8(OUTCOME_ORIGIN);
                    put_opt(buf, principal.as_ref(), |buf, p| put_str(buf, p.as_str()));
                }
                AuditOutcome::Why(slice) => {
                    buf.put_u8(OUTCOME_WHY);
                    buf.put_u8(slice.verdict as u8);
                    buf.put_u64(slice.sequence);
                    put_opt(buf, slice.blocked.as_ref(), |buf, index| {
                        buf.put_u32(*index)
                    });
                    put_why_events(buf, &slice.events);
                }
                AuditOutcome::Counterfactual(verdict) => {
                    buf.put_u8(OUTCOME_COUNTERFACTUAL);
                    buf.put_u8(verdict.original as u8);
                    buf.put_u8(verdict.counterfactual as u8);
                    buf.put_u64(verdict.sequence);
                    put_why_events(buf, &verdict.removed);
                }
                AuditOutcome::UnknownValue => buf.put_u8(OUTCOME_UNKNOWN_VALUE),
                AuditOutcome::UnknownPattern { known, nearest } => {
                    buf.put_u8(OUTCOME_UNKNOWN_PATTERN);
                    put_seq(buf, known, |buf, name| put_str(buf, name));
                    put_opt(buf, nearest.as_ref(), |buf, name| put_str(buf, name));
                }
            }
            put_request_stats(buf, &audit.stats);
            buf.put_u64(audit.watermark);
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
        WireResponse::Metrics(metrics) => finish_message(RESP_METRICS, |buf| {
            put_metrics_snapshot(buf, metrics);
        }),
        WireResponse::Traces(records) => finish_message(RESP_TRACES, |buf| {
            put_seq(buf, records, put_trace_record);
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
            put_seq(buf, diagnostics, |buf, diag| {
                put_str(buf, &diag.path);
                buf.put_u64(diag.line as u64);
                buf.put_u64(diag.column as u64);
                put_str(buf, &diag.message);
            });
        }),
        WireResponse::Policies(listing) => finish_message(RESP_POLICIES, |buf| {
            buf.put_u64(listing.version);
            put_seq(buf, &listing.policies, |buf, policy| {
                put_str(buf, &policy.name);
                put_str(buf, &policy.package);
                put_text(buf, &policy.source);
            });
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
    let response = match open_message(&mut buf)? {
        RESP_AUDIT => {
            need(&buf, 1, "audit outcome tag")?;
            let outcome = match buf.get_u8() {
                OUTCOME_VETTED => AuditOutcome::Vetted {
                    verdict: get_flag(&mut buf, "verdict byte")?,
                    sequence: wire_u64(&mut buf, "vet sequence")?,
                },
                OUTCOME_TRAIL => AuditOutcome::Trail(AuditTrail {
                    value: wire_value(&mut buf)?,
                    records: get_records(&mut buf, limits, "audit trail")?,
                    principals: get_names(&mut buf)?,
                    channels: get_names(&mut buf)?,
                }),
                OUTCOME_TOUCHED => AuditOutcome::Touched {
                    records: get_seq(&mut buf, "touched record count", 8, |buf| {
                        wire_u64(buf, "touched sequence")
                    })?,
                    // A value costs at least its tag byte and 2 name-length
                    // bytes.
                    values: get_seq(&mut buf, "touched value count", 3, wire_value)?,
                },
                OUTCOME_ORIGIN => AuditOutcome::Origin {
                    principal: get_opt(&mut buf, "origin flag", wire_name)?,
                },
                OUTCOME_UNKNOWN_VALUE => AuditOutcome::UnknownValue,
                OUTCOME_UNKNOWN_PATTERN => AuditOutcome::UnknownPattern {
                    known: get_names(&mut buf)?,
                    nearest: get_opt(&mut buf, "nearest-name flag", wire_str)?,
                },
                OUTCOME_WHY => {
                    let slice = WhySlice {
                        verdict: get_flag(&mut buf, "why verdict")?,
                        sequence: wire_u64(&mut buf, "why sequence")?,
                        blocked: get_opt(&mut buf, "why blocked flag", |buf| {
                            wire_u32(buf, "why blocked index")
                        })?,
                        events: get_why_events(&mut buf)?,
                    };
                    if slice
                        .blocked
                        .is_some_and(|index| index as usize >= slice.events.len())
                    {
                        return Err(malformed("why blocked index out of range"));
                    }
                    AuditOutcome::Why(slice)
                }
                OUTCOME_COUNTERFACTUAL => AuditOutcome::Counterfactual(CounterfactualVerdict {
                    original: get_flag(&mut buf, "counterfactual original flag")?,
                    counterfactual: get_flag(&mut buf, "counterfactual filtered flag")?,
                    sequence: wire_u64(&mut buf, "counterfactual sequence")?,
                    removed: get_why_events(&mut buf)?,
                }),
                other => return Err(malformed(format!("unknown audit outcome tag {}", other))),
            };
            let stats = get_request_stats(&mut buf)?;
            need(&buf, 16, "response watermark and pack version")?;
            WireResponse::Audit(AuditResponse {
                outcome,
                stats,
                watermark: buf.get_u64(),
                pack_version: buf.get_u64(),
            })
        }
        RESP_ACK => {
            need(&buf, 8, "ingest ack")?;
            WireResponse::IngestAck {
                accepted: buf.get_u32(),
                queue_depth: buf.get_u32(),
            }
        }
        RESP_BUSY => WireResponse::Busy {
            queue_depth: wire_u32(&mut buf, "busy response")?,
        },
        RESP_FLUSHED => {
            need(&buf, 16, "flushed response")?;
            WireResponse::Flushed {
                ingested: buf.get_u64(),
                watermark: buf.get_u64(),
            }
        }
        RESP_METRICS => WireResponse::Metrics(Box::new(get_metrics_snapshot(&mut buf)?)),
        // A trace record costs at least its 16 id + 1 kind + 8 total + 4
        // span-count bytes.
        RESP_TRACES => {
            WireResponse::Traces(get_seq(&mut buf, "trace count", 29, get_trace_record)?)
        }
        RESP_ERROR => WireResponse::ServerError {
            message: wire_str(&mut buf)?,
        },
        RESP_PACK_LOADED => {
            need(&buf, 16, "pack loaded response")?;
            WireResponse::PackLoaded {
                version: buf.get_u64(),
                installed: buf.get_u32(),
                reused: buf.get_u32(),
            }
        }
        // A diagnostic costs at least its two 2-byte string lengths plus
        // 16 position bytes.
        RESP_PACK_REJECTED => WireResponse::PackRejected {
            diagnostics: get_seq(&mut buf, "diagnostic count", 20, |buf| {
                let path = wire_str(buf)?;
                need(buf, 16, "diagnostic position")?;
                let line = buf.get_u64() as usize;
                let column = buf.get_u64() as usize;
                Ok(PackDiagnostic::new(path, line, column, wire_str(buf)?))
            })?,
        },
        RESP_POLICIES => WireResponse::Policies(PolicyListing {
            version: wire_u64(&mut buf, "policy listing version")?,
            // A policy costs at least its two 2-byte string lengths plus a
            // 4-byte source length.
            policies: get_seq(&mut buf, "policy count", 8, |buf| {
                Ok(PolicyInfo {
                    name: wire_str(buf)?,
                    package: wire_str(buf)?,
                    source: get_text(buf)?,
                })
            })?,
        }),
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
    use piprov_core::name::{Channel, Principal};
    use piprov_core::provenance::Provenance;
    use piprov_core::value::Value;
    use piprov_store::record::MAX_PROVENANCE_DEPTH;
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
            WireRequest::Audit(AuditRequest::Why {
                value: Value::Channel(Channel::new("w")),
                pattern: "from-a".into(),
            }),
            WireRequest::Audit(AuditRequest::Counterfactual {
                value: Value::Channel(Channel::new("w")),
                pattern: "from-a".into(),
                remove: EventFilter::Principal(Principal::new("relay")),
            }),
            WireRequest::Audit(AuditRequest::Counterfactual {
                value: Value::Principal(Principal::new("b")),
                pattern: "gate".into(),
                remove: EventFilter::Kind(Direction::Input),
            }),
            WireRequest::Audit(AuditRequest::Counterfactual {
                value: Value::Channel(Channel::new("w")),
                pattern: "gate".into(),
                remove: EventFilter::ChannelVia(Principal::new("c")),
            }),
            WireRequest::IngestBatch(vec![record(1), record(2)]),
            WireRequest::IngestBatch(Vec::new()),
            WireRequest::Flush,
            WireRequest::Metrics,
            WireRequest::Traces { min_total_ns: 0 },
            WireRequest::Traces {
                min_total_ns: u64::MAX,
            },
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
        let trace = RequestTrace {
            context: TraceContext {
                trace_id: 42,
                sampled: true,
            },
            client_encode_ns: 7,
        };
        for request in requests {
            let body = encode_request(&request);
            assert_eq!(peek_kind(&body), Some(request_kind(&request)));
            let decoded = decode_request(body.clone(), &limits).unwrap();
            assert_eq!(decoded, request);
            // The trace field rides after the payload: it decodes back and
            // leaves the peeked kind alone.
            let traced = append_request_trace(&body, &trace);
            assert_eq!(peek_kind(&traced), Some(request_kind(&request)));
            assert_eq!(
                decode_request_traced(traced, &limits).unwrap(),
                (request.clone(), Some(trace))
            );
            // Too short to name the kind: an audit body cut before its
            // sub-tag, any body cut before its tag.
            let cut = if matches!(request, WireRequest::Audit(_)) {
                2
            } else {
                1
            };
            for len in 0..=cut {
                assert_eq!(
                    peek_kind(&Bytes::from(body[..len].to_vec())),
                    None,
                    "{:?}",
                    request
                );
            }
            // Any other version peeks to nothing, like it decodes to an error.
            for version in [0, WIRE_VERSION - 1, WIRE_VERSION + 1, u8::MAX] {
                let mut other = body.to_vec();
                other[0] = version;
                assert_eq!(peek_kind(&Bytes::from(other)), None);
            }
        }
        // Unknown tags and audit sub-tags are not a kind either.
        for body in [vec![WIRE_VERSION, 99], vec![WIRE_VERSION, REQ_AUDIT, 99]] {
            assert_eq!(peek_kind(&Bytes::from(body)), None);
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
            stages: vec![
                (
                    SpanKind::Decode,
                    HistogramSnapshot {
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
                            exemplars[piprov_audit::LATENCY_BUCKET_BOUNDS_NS.len()] =
                                Some(Exemplar {
                                    trace_id: u128::MAX,
                                    value_ns: u64::MAX,
                                });
                            exemplars
                        },
                    },
                ),
                (
                    SpanKind::Handle,
                    HistogramSnapshot {
                        counts: vec![0; piprov_audit::LATENCY_BUCKET_BOUNDS_NS.len()],
                        overflow: 9,
                        sum_ns: 888,
                        count: 9,
                        exemplars: Vec::new(),
                    },
                ),
                (SpanKind::Write, HistogramSnapshot::default()),
            ],
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
            stages: Vec::new(),
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
    fn a_metrics_stage_with_an_unknown_kind_is_malformed() {
        let limits = WireLimits::default();
        let encode = |stage: SpanKind| {
            encode_response(&WireResponse::Metrics(Box::new(MetricsSnapshot {
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
                stages: vec![(stage, HistogramSnapshot::default())],
                uptime_seconds: 0,
                connections_accepted: 0,
                connections_closed: 0,
                open_connections: 0,
                policies: Vec::new(),
            })))
        };
        // The two bodies differ only in the stage's kind byte.
        let (decode, write) = (encode(SpanKind::Decode), encode(SpanKind::Write));
        let at = (0..decode.len()).find(|&i| decode[i] != write[i]).unwrap();
        assert_eq!((decode[at], write[at]), (2, 5));
        for kind in [0, 6] {
            let mut body = decode.to_vec();
            body[at] = kind;
            assert!(
                matches!(
                    decode_response(Bytes::from(body), &limits),
                    Err(WireError::Malformed(_))
                ),
                "stage kind {}",
                kind
            );
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
        body[0] = WIRE_VERSION + 1;
        assert!(matches!(
            decode_request(Bytes::from(body), &limits),
            Err(WireError::UnsupportedVersion(v)) if v == WIRE_VERSION + 1
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
    fn a_why_channel_reference_past_the_table_is_malformed() {
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
        // The event's last 4 bytes are its channel reference, followed by
        // 32 bytes of request stats, the watermark and the pack version.
        // The table holds one node: point the reference one past it.
        let channel_ref = body.len() - 48 - 4;
        assert_eq!(body[channel_ref..channel_ref + 4], 1u32.to_be_bytes());
        body[channel_ref..channel_ref + 4].copy_from_slice(&2u32.to_be_bytes());
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
        let mut body = encode_request(&WireRequest::Metrics).to_vec();
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
                let body = append_request_trace(&encode_request(request), &trace);
                let (decoded, decoded_trace) = decode_request_traced(body, &limits).unwrap();
                assert_eq!(&decoded, request);
                assert_eq!(decoded_trace, Some(trace));
            }
        }
        // Untraced bodies decode with no context at all.
        let (_, none) =
            decode_request_traced(encode_request(&WireRequest::Metrics), &limits).unwrap();
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
        let base = encode_request(&WireRequest::Metrics);
        let body = append_request_trace(&base, &trace).to_vec();
        let flag_at = body.len() - 9; // u64 encode-ns follows the flag
        let mut bad = body.clone();
        bad[flag_at] = 7;
        assert!(matches!(
            decode_request_traced(Bytes::from(bad), &limits),
            Err(WireError::Malformed(_))
        ));
        // Every truncation inside the trace field is an error; the cut
        // exactly at the untraced payload boundary decodes as untraced.
        for len in (base.len() + 1)..body.len() {
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
        let span_kind_at = record_kind_at + 1 + 8 + 4;
        let mut bad = encoded.clone();
        bad[span_kind_at] = 99;
        assert!(matches!(
            decode_response(Bytes::from(bad), &limits),
            Err(WireError::Malformed(_))
        ));
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
    fn every_version_but_the_current_one_is_unsupported() {
        assert_eq!(WIRE_VERSION, 9);
        let limits = WireLimits::default();
        let request = encode_request(&WireRequest::Audit(AuditRequest::VetValue {
            value: Value::Channel(Channel::new("v")),
            pattern: "p".into(),
        }));
        let response = encode_response(&WireResponse::Flushed {
            ingested: 4,
            watermark: 9,
        });
        assert!(decode_request_traced(request.clone(), &limits).is_ok());
        assert!(decode_response(response.clone(), &limits).is_ok());
        for version in [3, 4, 5, 6, 7, 8] {
            let mut body = request.to_vec();
            body[0] = version;
            assert!(matches!(
                decode_request_traced(Bytes::from(body), &limits),
                Err(WireError::UnsupportedVersion(v)) if v == version
            ));
            let mut body = response.to_vec();
            body[0] = version;
            assert!(matches!(
                decode_response(Bytes::from(body), &limits),
                Err(WireError::UnsupportedVersion(v)) if v == version
            ));
        }
    }
}
