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
    AuditOutcome, AuditRequest, AuditResponse, CounterfactualVerdict, EventFilter, PolicyInfo,
    PolicyListing, RequestKind, RequestStats, Span, SpanKind, TraceContext, TraceRecord, WhyEvent,
    WhySlice,
};
use piprov_core::provenance::{Direction, Event};
use piprov_policy::{PackDiagnostic, PackFile, PackSource};
use piprov_store::codec::{
    decode_bodies, encode_body, get_name, get_name_in_run, get_node_ref, get_node_table, get_str,
    get_value, put_str, put_value, NodeTable,
};
use piprov_store::record::{direction_from_tag, direction_tag};
use piprov_store::{AuditTrail, ProvenanceRecord};

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireRequest {
    /// One typed audit question.
    Audit(AuditRequest),
    /// A batch of records for the bounded ingest queue.
    ///
    /// The server checks the frame's structure — record count within
    /// [`WireLimits::max_records`], each record's length prefix, the
    /// optional trace field — and queues the record bodies without
    /// decoding them: [`WireResponse::IngestAck`] means *queued*, and a
    /// queue without room answers [`WireResponse::Busy`].  A frame that
    /// fails the structural check gets its typed
    /// [`WireResponse::ServerError`], then the close.  The batch is
    /// applied all or nothing: a record body that fails to decode (too
    /// deep, a reference past its node table, any other fault) stops the
    /// whole batch before anything is appended, and an append error stops
    /// it where it happens.  Either failure fails the submitting
    /// connection's next [`WireRequest::Flush`], and no other
    /// connection's.
    IngestBatch(Vec<ProvenanceRecord>),
    /// Barrier: wait until the ingest queue has applied every batch it
    /// accepted before this request, then sync the store, so everything
    /// submitted before this request is queryable and durable after it.
    /// Batches accepted later cannot delay it.  The server takes an
    /// ingest-queue ticket ([`piprov_audit::IngestQueue::flush_then`]):
    /// no server thread waits for it, it never touches the queue's pause
    /// hook, and it waits as long as its batches take to apply and sync;
    /// flushes that fall due together share one sync.  It answers
    /// [`WireResponse::ServerError`] with the first failure among this
    /// connection's batches since its previous flush (a body that failed
    /// to decode, or an append error), and otherwise with a sync error.
    /// Another connection's failure never reaches it.
    Flush,
    /// The full metrics plane as Prometheus text (see
    /// [`WireResponse::Metrics`]).
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
    /// The batch was queued: it passed the structural check and fits the
    /// queue.  Nothing in it is decoded or stored yet; the connection's
    /// next [`WireRequest::Flush`] reports whether it applied.
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
    /// Answer to [`WireRequest::Metrics`]: the Prometheus exposition of
    /// every counter surface, byte for byte the body `GET /metrics` serves
    /// at the same state (exemplars included when
    /// [`piprov_audit::TraceConfig::exemplars`] is set), as u32-length
    /// text.  [`piprov_audit::exposition_sample`] reads one sample back.
    /// Each registered policy adds 2,008 B to the ~11 KB of the engine and
    /// stage families (e15's `bytes` column, `cargo bench -p piprov-bench
    /// --bench metrics`: 13,028 B at one policy, 139,532 B at 64), so
    /// without exemplars the answer reaches the default 16 MiB frame cap
    /// ([`crate::DEFAULT_MAX_FRAME_LEN`]) at about 8,350 policies.  An
    /// exemplar adds about 60 B to each of a policy's 17 bucket lines,
    /// which brings that down to about 5,500.  A client refuses a larger
    /// answer with [`WireError::FrameTooLarge`].
    Metrics(String),
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

/// Whether an encoded request body is an `IngestBatch`, which the event
/// loop admits to the ingest queue still encoded ([`split_ingest`]).
/// Reads the version and tag bytes alone; a body too short to hold them,
/// of any version but [`WIRE_VERSION`], or with an unknown tag is answered
/// by [`decode_request`]'s typed error.
pub(crate) fn is_ingest(body: &[u8]) -> bool {
    matches!(body, [WIRE_VERSION, REQ_INGEST, ..])
}

/// Checks the structure of a body [`is_ingest`] names without decoding a
/// record — a record count within [`WireLimits::max_records`],
/// each record's length prefix, and the optional trace field — and returns
/// the record bodies, slices of `buf`, with the trace field.
///
/// # Errors
///
/// As [`decode_request`], for every fault but one inside a record body.
pub(crate) fn split_ingest(
    mut buf: Bytes,
    limits: &WireLimits,
) -> Result<(Vec<Bytes>, Option<RequestTrace>), WireError> {
    open_message(&mut buf)?;
    let bodies = get_record_bodies(&mut buf, limits, "ingest batch")?;
    Ok((bodies, get_request_fields(&mut buf)?))
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

/// Reads a record list's bodies without decoding them, refusing a count
/// above [`WireLimits::max_records`] before reading any.
fn get_record_bodies(
    buf: &mut Bytes,
    limits: &WireLimits,
    what: &str,
) -> Result<Vec<Bytes>, WireError> {
    need(buf, 4, "record count")?;
    let count = u32::from_be_bytes(buf[..4].try_into().expect("4 bytes"));
    if count > limits.max_records {
        return Err(malformed(format!(
            "{} of {} records exceeds the {} record cap",
            what, count, limits.max_records
        )));
    }
    // A record costs at least 4 length bytes + the 18-byte minimum body.
    get_seq(buf, "record count", 22, |buf| {
        need(buf, 4, "record length")?;
        let len = buf.get_u32() as usize;
        need(buf, len, "record body")?;
        Ok(buf.copy_to_bytes(len))
    })
}

/// Reads a record list, refusing a count above [`WireLimits::max_records`]
/// before any record is decoded, and checking every record before any is
/// interned.
fn get_records(
    buf: &mut Bytes,
    limits: &WireLimits,
    what: &str,
) -> Result<Vec<ProvenanceRecord>, WireError> {
    decode_bodies(get_record_bodies(buf, limits, what)?).map_err(store_err)
}

/// A u32-length-prefixed text blob: pack file sources, canonical policy
/// text and the metrics exposition routinely outgrow the u16-prefixed name
/// vocabulary of [`put_str`].
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
    Ok((request, get_request_fields(&mut buf)?))
}

/// Reads the optional per-request fields after a payload; the only one
/// defined is the trace field.  An unknown field tag is malformed, not
/// skipped, so "garbage we tolerate" never becomes a compatibility
/// constraint by accident.
fn get_request_fields(buf: &mut Bytes) -> Result<Option<RequestTrace>, WireError> {
    let mut trace = None;
    while buf.has_remaining() {
        match buf.get_u8() {
            REQUEST_FIELD_TRACE if trace.is_none() => {
                trace = Some(get_request_trace(buf)?);
            }
            _ => return Err(malformed("trailing bytes after request")),
        }
    }
    Ok(trace)
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

/// Reads events written by [`put_why_events`].  Principals are read with
/// [`get_name_in_run`], so consecutive events of one principal share its
/// name.
fn get_why_events(buf: &mut Bytes) -> Result<Vec<WhyEvent>, WireError> {
    let table = get_node_table(buf).map_err(store_err)?;
    let mut previous = None;
    // A why event costs at least 4 node + 2 principal-length + 1
    // direction + 4 channel-reference bytes.
    get_seq(buf, "why event count", 11, |buf| {
        let node = wire_u32(buf, "why event node")?;
        let principal = get_name_in_run(buf, &mut previous).map_err(store_err)?;
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
        WireResponse::Metrics(text) => finish_message(RESP_METRICS, |buf| put_text(buf, text)),
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
        RESP_METRICS => WireResponse::Metrics(get_text(&mut buf)?),
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
    use piprov_store::codec::decode_body;
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

    /// One request of every kind and audit sub-kind, every event filter,
    /// an empty batch and pack, and both `Traces` bounds.
    fn sample_requests() -> Vec<WireRequest> {
        vec![
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
        ]
    }

    fn sample_trace() -> RequestTrace {
        RequestTrace {
            context: TraceContext {
                trace_id: 42,
                sampled: true,
            },
            client_encode_ns: 7,
        }
    }

    #[test]
    fn requests_round_trip() {
        let limits = WireLimits::default();
        let trace = sample_trace();
        for request in sample_requests() {
            let body = encode_request(&request);
            let decoded = decode_request(body.clone(), &limits).unwrap();
            assert_eq!(decoded, request);
            // The trace field rides after the payload and decodes back.
            let traced = append_request_trace(&body, &trace);
            assert_eq!(
                decode_request_traced(traced, &limits).unwrap(),
                (request.clone(), Some(trace))
            );
        }
    }

    #[test]
    fn only_ingest_frames_split_without_decoding() {
        let limits = WireLimits::default();
        let trace = sample_trace();
        for request in sample_requests() {
            let body = encode_request(&request);
            let ingest = matches!(request, WireRequest::IngestBatch(_));
            let traced = append_request_trace(&body, &trace);
            for body in [&body, &traced] {
                assert_eq!(is_ingest(body), ingest, "{:?}", request);
            }
            // The record bodies come back as encoded, beside the trace.
            if let WireRequest::IngestBatch(records) = &request {
                let bodies: Vec<Bytes> = records.iter().map(encode_body).collect();
                assert_eq!(
                    split_ingest(body.clone(), &limits).unwrap(),
                    (bodies.clone(), None)
                );
                assert_eq!(
                    split_ingest(traced, &limits).unwrap(),
                    (bodies, Some(trace))
                );
            }
            // Too short to name the kind, or of another version: the loop
            // decodes the body, and the decode answers with the typed error.
            let mut strays = vec![body[..0].to_vec(), body[..1].to_vec()];
            for version in [0, WIRE_VERSION - 1, WIRE_VERSION + 1, u8::MAX] {
                let mut other = body.to_vec();
                other[0] = version;
                strays.push(other);
            }
            for stray in strays {
                assert!(!is_ingest(&stray), "{:?}", stray);
                assert!(matches!(
                    decode_request(Bytes::from(stray), &limits),
                    Err(WireError::Malformed(_) | WireError::UnsupportedVersion(_))
                ));
            }
        }
        // An unknown tag is decoded too, to an error.
        let unknown = vec![WIRE_VERSION, 99, 0, 0, 0, 1];
        assert!(!is_ingest(&unknown));
        assert!(matches!(
            decode_request(Bytes::from(unknown), &limits),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn the_ingest_split_checks_structure_and_leaves_bodies_to_the_decoder() {
        let limits = WireLimits {
            max_records: 2,
            ..WireLimits::default()
        };
        let record = ProvenanceRecord::new(
            1,
            "p",
            Operation::Send,
            "m",
            Value::Channel(Channel::new("v")),
            Provenance::single(Event::output(Principal::new("p"), Provenance::empty())),
        );
        let body = encode_ingest_batch(&[record.clone(), record.clone()]);
        assert!(split_ingest(body.clone(), &limits).is_ok());
        // Past the record cap, a truncated length or body, trailing bytes:
        // each is a typed error before any record is decoded.
        let faults = [
            encode_ingest_batch(&[record.clone(), record.clone(), record]),
            Bytes::from(body[..body.len() - 1].to_vec()),
            Bytes::from(body[..8].to_vec()),
            Bytes::from([&body[..], &[0xff]].concat()),
        ];
        for fault in faults {
            assert!(
                matches!(
                    split_ingest(fault.clone(), &limits),
                    Err(WireError::Malformed(_))
                ),
                "{:?}",
                fault
            );
        }
        // A body whose bytes do not decode passes the split: its length
        // prefix holds.  Decoding it is the drain worker's job.
        let mut garbled = body.to_vec();
        garbled[10] ^= 0xff;
        let (bodies, _) = split_ingest(Bytes::from(garbled.clone()), &limits).unwrap();
        assert!(decode_body(bodies[0].clone()).is_err());
        assert!(decode_request(Bytes::from(garbled), &limits).is_err());
    }

    #[test]
    fn metrics_text_round_trips_and_must_be_utf8() {
        let limits = WireLimits::default();
        for text in [
            String::new(),
            "# TYPE piprov_requests_total counter\npiprov_requests_total 7\n".to_string(),
            "policy=\"\u{e9}t\u{e9}\" \u{1f600}\n".repeat(1_000),
        ] {
            let response = WireResponse::Metrics(text);
            let decoded = decode_response(encode_response(&response), &limits).unwrap();
            assert_eq!(decoded, response);
        }
        // A text body that is not UTF-8 is malformed: cut a two-byte
        // character in half and shorten the length prefix to match.
        let mut body = encode_response(&WireResponse::Metrics("\u{e9}".to_string())).to_vec();
        assert_eq!(body[2..6], [0, 0, 0, 2]);
        body[5] = 1;
        body.pop();
        assert!(matches!(
            decode_response(Bytes::from(body), &limits),
            Err(WireError::Malformed(_))
        ));
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

    /// A why response whose events are inputs by `principals` on ε
    /// channels, through the response codec.
    fn why_round_trip(principals: &[&str]) -> (WireResponse, WireResponse) {
        let response = WireResponse::Audit(AuditResponse {
            outcome: AuditOutcome::Why(WhySlice {
                verdict: true,
                sequence: 1,
                events: principals
                    .iter()
                    .zip(1..)
                    .map(|(principal, node)| WhyEvent {
                        node,
                        event: Event::input(Principal::new(*principal), Provenance::empty()),
                    })
                    .collect(),
                blocked: None,
            }),
            stats: RequestStats::default(),
            watermark: 1,
            pack_version: 1,
        });
        let decoded = decode_response(encode_response(&response), &WireLimits::default()).unwrap();
        (response, decoded)
    }

    fn why_principals(response: &WireResponse) -> Vec<&Principal> {
        match response {
            WireResponse::Audit(AuditResponse {
                outcome: AuditOutcome::Why(slice),
                ..
            }) => slice.events.iter().map(|e| &e.event.principal).collect(),
            other => panic!("not a why response: {:?}", other),
        }
    }

    #[test]
    fn a_why_run_of_one_principal_decodes_into_one_allocation() {
        let (response, decoded) = why_round_trip(&["relay"; 1024]);
        assert_eq!(decoded, response);
        let principals = why_principals(&decoded);
        assert_eq!(principals.len(), 1024);
        let first = principals[0].as_str().as_ptr();
        assert!(principals.iter().all(|p| p.as_str().as_ptr() == first));
    }

    #[test]
    fn why_principals_that_differ_in_length_or_last_byte_round_trip() {
        // Every ordered pair of `relay`, `relaz`, `relay2` and `""` is
        // adjacent, so the list read either way round covers each pair.
        let names = [
            "relay", "relaz", "relay", "relay2", "relay", "", "relaz", "relay2", "relaz", "",
            "relay2", "", "relay", "relay",
        ];
        let (response, decoded) = why_round_trip(&names);
        assert_eq!(decoded, response);
        let principals: Vec<&str> = why_principals(&decoded)
            .iter()
            .map(|p| p.as_str())
            .collect();
        assert_eq!(principals, names);
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
        assert_eq!(WIRE_VERSION, 11);
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
        for version in [3, 4, 5, 6, 7, 8, 9, 10] {
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
