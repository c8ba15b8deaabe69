//! The blocking audit client.
//!
//! An [`AuditClient`] speaks the framed wire protocol over one TCP
//! connection.  Queries are simple round trips ([`AuditClient::request`]),
//! or many-at-once via [`AuditClient::pipeline`] (all requests written
//! before any response is read — the server answers strictly in order).
//!
//! Ingest has two modes:
//!
//! * **blocking** — [`AuditClient::ingest_batch`] sends one batch and
//!   returns the server's typed answer ([`IngestOutcome::Acked`] or
//!   [`IngestOutcome::Busy`]); [`AuditClient::ingest_blocking`] layers a
//!   bounded busy-retry loop on top, turning the server's back-pressure
//!   into client-side blocking;
//! * **fire-and-batch** — [`AuditClient::buffer`] accumulates records
//!   locally and ships a batch only when [`ClientConfig::batch_size`] is
//!   reached (or on [`AuditClient::flush`]), so a streaming producer pays
//!   one round trip per batch, not per record.

use crate::codec::{
    append_request_trace, decode_response, encode_ingest_batch, encode_request, RequestTrace,
    WireRequest, WireResponse,
};
use crate::server::elapsed_ns;
use crate::wire::{read_frame, write_frame, WireError, WireLimits};
use bytes::Bytes;
use piprov_audit::{
    exposition_sample, AuditRequest, AuditResponse, EngineStats, EventFilter, PolicyListing,
    TraceContext, TraceRecord,
};
use piprov_core::value::Value;
use piprov_policy::{PackDiagnostic, PackSource};
use piprov_store::ProvenanceRecord;
use std::fmt;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Configuration of an [`AuditClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Records accumulated by [`AuditClient::buffer`] before a batch is
    /// shipped.
    pub batch_size: usize,
    /// How long [`AuditClient::ingest_blocking`] sleeps after a `Busy`
    /// answer before retrying.
    pub busy_backoff: Duration,
    /// How many `Busy` answers [`AuditClient::ingest_blocking`] tolerates
    /// before giving up with [`ClientError::Rejected`].
    pub busy_retries: usize,
    /// Decode-side caps applied to server responses.
    pub limits: WireLimits,
    /// When set (the default), every request carries a fresh sampled
    /// [`TraceContext`] plus the client-side encode duration, so the
    /// server's trace ring shows this client's requests end to end
    /// (including a `client_encode` span).  Clear it to defer to the
    /// server's own head-based sampling.
    pub trace: bool,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            batch_size: 32,
            busy_backoff: Duration::from_millis(1),
            busy_retries: 10_000,
            limits: WireLimits::default(),
            trace: true,
        }
    }
}

/// Everything that can go wrong on the client side.
#[derive(Debug)]
pub enum ClientError {
    /// A framing/codec/transport failure.
    Wire(WireError),
    /// The server answered with a response kind the request cannot have.
    UnexpectedResponse(String),
    /// The server reported a serving failure ([`WireResponse::ServerError`]).
    Server(String),
    /// The server stayed `Busy` through every configured retry.
    Rejected {
        /// Queue depth reported by the final rejection.
        queue_depth: u32,
    },
    /// The stream closed where a response was due.
    ConnectionClosed,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire error: {}", e),
            ClientError::UnexpectedResponse(what) => {
                write!(f, "protocol violation: unexpected {}", what)
            }
            ClientError::Server(message) => write!(f, "server error: {}", message),
            ClientError::Rejected { queue_depth } => write!(
                f,
                "ingest rejected: server stayed busy (queue depth {})",
                queue_depth
            ),
            ClientError::ConnectionClosed => write!(f, "connection closed mid-conversation"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Wire(WireError::Io(e))
    }
}

/// The server's answer to a flush barrier: what is durable and — via the
/// snapshot watermark — what is visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushAck {
    /// Records ingested over the server engine's lifetime, after the
    /// drain.
    pub ingested: u64,
    /// The published snapshot watermark after the drain.  Every record
    /// this client submitted before the flush is visible at (or below)
    /// this sequence number: any later query's response watermark is `>=`
    /// it, which is the wire protocol's read-your-writes guarantee.
    pub watermark: u64,
}

/// The server's typed answer to one [`AuditClient::load_pack`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackLoadOutcome {
    /// The pack compiled and was published atomically.
    Loaded {
        /// The registry version the pack was published at.
        version: u64,
        /// Policies in the installed set.
        installed: u32,
        /// Of those, how many kept their compiled automaton (same name,
        /// source, and package as before the swap).
        reused: u32,
    },
    /// The pack had at least one error; the server changed **nothing**
    /// (all-or-nothing), and every diagnostic carries its file path,
    /// line, and column.
    Rejected {
        /// Per-file, line/column-addressed compile diagnostics.
        diagnostics: Vec<PackDiagnostic>,
    },
}

/// The server's typed answer to one ingest batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// The batch was queued server-side.
    Acked {
        /// Records accepted.
        accepted: u32,
        /// Server queue depth after queuing.
        queue_depth: u32,
    },
    /// The server's bounded queue was full; nothing was buffered.
    Busy {
        /// Server queue depth at rejection.
        queue_depth: u32,
    },
}

/// Request bytes [`AuditClient::pipeline`] writes before it reads their
/// responses: well within the smallest socket buffers a host starts a
/// connection with, so the window's requests are all sent however long
/// the server takes to drain its answers.
const PIPELINE_WINDOW: usize = 64 * 1024;

/// A blocking client for one [`crate::AuditServer`] connection.
#[derive(Debug)]
pub struct AuditClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    config: ClientConfig,
    batch: Vec<ProvenanceRecord>,
    /// `Busy` answers observed (including those retried through).
    busy_observed: u64,
}

impl AuditClient {
    /// Connects with the default configuration.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        AuditClient::connect_with(addr, ClientConfig::default())
    }

    /// Connects with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(AuditClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            config,
            batch: Vec::new(),
            busy_observed: 0,
        })
    }

    /// Wraps an already-connected stream with the default configuration —
    /// for callers that dial (or hold) their sockets themselves, like a
    /// connection-scaling harness.
    ///
    /// # Errors
    ///
    /// Propagates the stream-clone failure.
    pub fn from_stream(stream: TcpStream) -> Result<Self, ClientError> {
        stream.set_nodelay(true).ok();
        Ok(AuditClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            config: ClientConfig::default(),
            batch: Vec::new(),
            busy_observed: 0,
        })
    }

    /// `Busy` answers this client has observed so far.
    pub fn busy_observed(&self) -> u64 {
        self.busy_observed
    }

    /// Encodes one request body, appending the wire trace field when
    /// [`ClientConfig::trace`] is set.
    fn encode_traced(&self, request: &WireRequest) -> Bytes {
        let started = Instant::now();
        let body = encode_request(request);
        self.append_trace(body, started)
    }

    /// Appends a fresh sampled trace context (and the encode duration
    /// measured from `encode_started`) to an already-encoded body.
    fn append_trace(&self, body: Bytes, encode_started: Instant) -> Bytes {
        if !self.config.trace {
            return body;
        }
        append_request_trace(
            &body,
            &RequestTrace {
                context: TraceContext::generate(),
                client_encode_ns: elapsed_ns(encode_started).max(1),
            },
        )
    }

    fn send(&mut self, request: &WireRequest) -> Result<(), ClientError> {
        let body = self.encode_traced(request);
        write_frame(&mut self.writer, &body)?;
        self.writer.flush()?;
        Ok(())
    }

    fn receive(&mut self) -> Result<WireResponse, ClientError> {
        let Some(frame) = read_frame(&mut self.reader, self.config.limits.max_frame_len)? else {
            return Err(ClientError::ConnectionClosed);
        };
        let response = decode_response(frame, &self.config.limits)?;
        if let WireResponse::Busy { .. } = &response {
            self.busy_observed += 1;
        }
        Ok(response)
    }

    fn round_trip(&mut self, request: &WireRequest) -> Result<WireResponse, ClientError> {
        self.send(request)?;
        self.receive()
    }

    /// Poses one audit question and returns the typed answer.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`ClientError::Server`] /
    /// [`ClientError::UnexpectedResponse`] protocol violations.
    pub fn request(&mut self, request: &AuditRequest) -> Result<AuditResponse, ClientError> {
        match self.round_trip(&WireRequest::Audit(request.clone()))? {
            WireResponse::Audit(response) => Ok(response),
            WireResponse::ServerError { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::UnexpectedResponse(format!("{:?}", other))),
        }
    }

    /// Asks *why* `value` passes or fails `policy`: the answer's outcome is
    /// an `AuditOutcome::Why` carrying the witness slice (or
    /// `UnknownValue`/`UnknownPattern`).
    ///
    /// # Errors
    ///
    /// As [`AuditClient::request`].
    pub fn why(
        &mut self,
        value: Value,
        policy: impl Into<String>,
    ) -> Result<AuditResponse, ClientError> {
        self.request(&AuditRequest::Why {
            value,
            pattern: policy.into(),
        })
    }

    /// Asks whether `value` would still satisfy `policy` with the events
    /// named by `remove` taken out of its history: the answer's outcome is
    /// an `AuditOutcome::Counterfactual` carrying both verdicts and the
    /// removed events (or `UnknownValue`/`UnknownPattern`).
    ///
    /// # Errors
    ///
    /// As [`AuditClient::request`].
    pub fn counterfactual(
        &mut self,
        value: Value,
        policy: impl Into<String>,
        remove: EventFilter,
    ) -> Result<AuditResponse, ClientError> {
        self.request(&AuditRequest::Counterfactual {
            value,
            pattern: policy.into(),
            remove,
        })
    }

    /// Writes the requests, *then* reads their responses — pipelining that
    /// amortizes the round-trip latency over the slice.  Responses are
    /// returned in request order (the order the server guarantees).  A
    /// long slice goes out in windows of 64 KiB of requests, each
    /// window's responses read before the next is written: the server
    /// stops reading a connection whose responses go unread, so a client
    /// that wrote more than the sockets buffer before reading would wait
    /// forever.
    ///
    /// # Errors
    ///
    /// As [`AuditClient::request`].
    pub fn pipeline(
        &mut self,
        requests: &[AuditRequest],
    ) -> Result<Vec<AuditResponse>, ClientError> {
        let mut responses = Vec::with_capacity(requests.len());
        let mut rest = requests;
        while !rest.is_empty() {
            let (mut window, mut bytes) = (0, 0);
            while window < rest.len() && bytes < PIPELINE_WINDOW {
                let body = self.encode_traced(&WireRequest::Audit(rest[window].clone()));
                bytes += body.len();
                write_frame(&mut self.writer, &body)?;
                window += 1;
            }
            self.writer.flush()?;
            for _ in 0..window {
                match self.receive()? {
                    WireResponse::Audit(response) => responses.push(response),
                    WireResponse::ServerError { message } => {
                        return Err(ClientError::Server(message))
                    }
                    other => {
                        return Err(ClientError::UnexpectedResponse(format!("{:?}", other)));
                    }
                }
            }
            rest = &rest[window..];
        }
        Ok(responses)
    }

    /// Sends one already-encoded ingest body and reads the typed answer.
    fn ingest_encoded(&mut self, body: &[u8]) -> Result<IngestOutcome, ClientError> {
        write_frame(&mut self.writer, body)?;
        self.writer.flush()?;
        match self.receive()? {
            WireResponse::IngestAck {
                accepted,
                queue_depth,
            } => Ok(IngestOutcome::Acked {
                accepted,
                queue_depth,
            }),
            WireResponse::Busy { queue_depth } => Ok(IngestOutcome::Busy { queue_depth }),
            WireResponse::ServerError { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::UnexpectedResponse(format!("{:?}", other))),
        }
    }

    fn frame_too_large(&self, body_len: usize) -> ClientError {
        ClientError::Wire(WireError::FrameTooLarge {
            len: body_len.min(u32::MAX as usize) as u32,
            max: self.config.limits.max_frame_len,
        })
    }

    /// Ships one batch and returns the server's typed answer without
    /// retrying.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures ([`IngestOutcome::Busy`] is an `Ok`
    /// answer, not an error); a batch that encodes past
    /// [`crate::WireLimits::max_frame_len`] is a client-side
    /// [`WireError::FrameTooLarge`] — nothing is sent.
    pub fn ingest_batch(
        &mut self,
        records: Vec<ProvenanceRecord>,
    ) -> Result<IngestOutcome, ClientError> {
        let started = Instant::now();
        let body = self.append_trace(encode_ingest_batch(&records), started);
        if body.len() as u64 > self.config.limits.max_frame_len as u64 {
            return Err(self.frame_too_large(body.len()));
        }
        self.ingest_encoded(&body)
    }

    /// Ships one batch, blocking through the server's back-pressure:
    /// every `Busy` answer sleeps [`ClientConfig::busy_backoff`] and
    /// retries (the batch is encoded **once** and the same frame resent —
    /// no per-attempt clone), up to [`ClientConfig::busy_retries`] times.
    /// A multi-record batch that encodes past
    /// [`crate::WireLimits::max_frame_len`] is split in half and shipped
    /// as two batches, recursively, so record-count batching can never
    /// produce a frame the server would kill the connection over.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] when the retries are exhausted,
    /// [`WireError::FrameTooLarge`] for a *single* record too big for any
    /// frame, or any transport/protocol failure.
    pub fn ingest_blocking(&mut self, records: Vec<ProvenanceRecord>) -> Result<(), ClientError> {
        self.ingest_blocking_slice(&records)
    }

    fn ingest_blocking_slice(&mut self, records: &[ProvenanceRecord]) -> Result<(), ClientError> {
        let started = Instant::now();
        let body = self.append_trace(encode_ingest_batch(records), started);
        if body.len() as u64 > self.config.limits.max_frame_len as u64 {
            if records.len() <= 1 {
                return Err(self.frame_too_large(body.len()));
            }
            let mid = records.len() / 2;
            self.ingest_blocking_slice(&records[..mid])?;
            return self.ingest_blocking_slice(&records[mid..]);
        }
        let mut attempt = 0usize;
        loop {
            match self.ingest_encoded(&body)? {
                IngestOutcome::Acked { .. } => return Ok(()),
                IngestOutcome::Busy { queue_depth } => {
                    if attempt >= self.config.busy_retries {
                        return Err(ClientError::Rejected { queue_depth });
                    }
                    attempt += 1;
                    std::thread::sleep(self.config.busy_backoff);
                }
            }
        }
    }

    /// Fire-and-batch ingest: buffers `record` locally and ships a batch
    /// (via [`AuditClient::ingest_blocking`]) once
    /// [`ClientConfig::batch_size`] records have accumulated.
    ///
    /// # Errors
    ///
    /// As [`AuditClient::ingest_blocking`] (only when a batch ships).
    pub fn buffer(&mut self, record: ProvenanceRecord) -> Result<(), ClientError> {
        self.batch.push(record);
        if self.batch.len() >= self.config.batch_size.max(1) {
            let batch = std::mem::take(&mut self.batch);
            self.ingest_blocking(batch)?;
        }
        Ok(())
    }

    /// Records currently buffered locally (not yet shipped).
    pub fn buffered(&self) -> usize {
        self.batch.len()
    }

    /// Ships any buffered tail, then asks the server to apply every batch
    /// it accepted before the flush and sync its store.  After this
    /// returns `Ok`, everything buffered or acked before the call is
    /// queryable and durable server-side; the returned
    /// [`FlushAck::watermark`] names the snapshot that makes it so (any
    /// later query answers at or above it).
    ///
    /// An ack means only that a batch was queued.  If one of this
    /// connection's batches since its previous flush failed to apply — a
    /// record body the server could not decode, or an append error — the
    /// flush fails with [`ClientError::Server`] naming the first such
    /// failure, and that batch stored nothing.  Another connection's
    /// failures never reach this one.
    ///
    /// The server answers once those batches are applied and synced,
    /// however long that takes; it sets no deadline of its own.  To bound
    /// the wait, configure a read timeout on the socket and wrap it with
    /// [`AuditClient::from_stream`]: a flush that outlasts it fails with
    /// a [`ClientError::Wire`] I/O error, and the connection is then out
    /// of step with its answers and should be dropped.
    ///
    /// # Errors
    ///
    /// As [`AuditClient::ingest_blocking`], plus flush-side server errors.
    pub fn flush(&mut self) -> Result<FlushAck, ClientError> {
        if !self.batch.is_empty() {
            let batch = std::mem::take(&mut self.batch);
            self.ingest_blocking(batch)?;
        }
        match self.round_trip(&WireRequest::Flush)? {
            WireResponse::Flushed {
                ingested,
                watermark,
            } => Ok(FlushAck {
                ingested,
                watermark,
            }),
            WireResponse::ServerError { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::UnexpectedResponse(format!("{:?}", other))),
        }
    }

    /// Snapshot of the server engine's lifetime counters, read from the
    /// twelve engine samples of [`AuditClient::metrics`].
    ///
    /// # Errors
    ///
    /// As [`AuditClient::request`]; [`ClientError::UnexpectedResponse`]
    /// when the text lacks one of the samples or it is not a `u64`.
    pub fn stats(&mut self) -> Result<EngineStats, ClientError> {
        let text = self.metrics()?;
        let sample = |name: &str| {
            exposition_sample(&text, name, &[])
                .and_then(|value| value.parse::<u64>().ok())
                .ok_or_else(|| {
                    ClientError::UnexpectedResponse(format!(
                        "metrics text without {} as a u64",
                        name
                    ))
                })
        };
        // Every field named: a field added to `EngineStats` does not
        // compile here until it is read.
        Ok(EngineStats {
            requests: sample("piprov_requests_total")?,
            ingested: sample("piprov_ingested_total")?,
            vets_passed: sample("piprov_vets_passed_total")?,
            vets_failed: sample("piprov_vets_failed_total")?,
            index_hits: sample("piprov_index_hits_total")?,
            memo_hits: sample("piprov_memo_hits_total")?,
            ingest_batches: sample("piprov_ingest_batches_total")?,
            busy_rejections: sample("piprov_busy_rejections_total")?,
            queue_depth: sample("piprov_queue_depth")?,
            snapshots_published: sample("piprov_snapshots_published_total")?,
            snapshot_lag: sample("piprov_snapshot_lag")?,
            watermark: sample("piprov_watermark")?,
        })
    }

    /// The server's full metrics plane as Prometheus exposition text:
    /// engine, store and interner counters, the stage histograms, and every
    /// registered policy's verdict counters and vet-latency histogram.  It
    /// is the body `GET /metrics` serves; read one sample with
    /// [`piprov_audit::exposition_sample`].
    ///
    /// # Errors
    ///
    /// As [`AuditClient::request`].
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.round_trip(&WireRequest::Metrics)? {
            WireResponse::Metrics(text) => Ok(text),
            WireResponse::ServerError { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::UnexpectedResponse(format!("{:?}", other))),
        }
    }

    /// Ships a whole policy pack (every `.ppol` file, inline) and asks
    /// the server to compile and publish it as one atomic swap.  On
    /// success the server's registry moves to a new version with exactly
    /// the pack's policies; on any compile error the server changes
    /// nothing and the per-file diagnostics come back typed
    /// ([`PackLoadOutcome::Rejected`] — an `Ok` answer, not an error).
    ///
    /// # Errors
    ///
    /// As [`AuditClient::request`].
    pub fn load_pack(&mut self, source: &PackSource) -> Result<PackLoadOutcome, ClientError> {
        match self.round_trip(&WireRequest::LoadPack(source.clone()))? {
            WireResponse::PackLoaded {
                version,
                installed,
                reused,
            } => Ok(PackLoadOutcome::Loaded {
                version,
                installed,
                reused,
            }),
            WireResponse::PackRejected { diagnostics } => {
                Ok(PackLoadOutcome::Rejected { diagnostics })
            }
            WireResponse::ServerError { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::UnexpectedResponse(format!("{:?}", other))),
        }
    }

    /// The server's current policy listing: the registry version plus
    /// every registered policy's name, package, and canonical source,
    /// sorted by name.
    ///
    /// # Errors
    ///
    /// As [`AuditClient::request`].
    pub fn list_policies(&mut self) -> Result<PolicyListing, ClientError> {
        match self.round_trip(&WireRequest::ListPolicies)? {
            WireResponse::Policies(listing) => Ok(listing),
            WireResponse::ServerError { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::UnexpectedResponse(format!("{:?}", other))),
        }
    }

    /// Every trace the server's collector currently holds: requests this
    /// client (or any peer) ran, each broken into per-stage spans.
    ///
    /// # Errors
    ///
    /// As [`AuditClient::request`].
    pub fn traces(&mut self) -> Result<Vec<TraceRecord>, ClientError> {
        self.traces_min(0)
    }

    /// As [`AuditClient::traces`], keeping only traces whose end-to-end
    /// duration is at least `min_total_ns`.
    ///
    /// # Errors
    ///
    /// As [`AuditClient::request`].
    pub fn traces_min(&mut self, min_total_ns: u64) -> Result<Vec<TraceRecord>, ClientError> {
        match self.round_trip(&WireRequest::Traces { min_total_ns })? {
            WireResponse::Traces(records) => Ok(records),
            WireResponse::ServerError { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::UnexpectedResponse(format!("{:?}", other))),
        }
    }

    /// Sends raw bytes as one frame — a test hook for malformed-input
    /// handling (hostile length prefixes, bad CRCs).
    #[doc(hidden)]
    pub fn send_raw(&mut self, frame: &[u8]) -> Result<(), ClientError> {
        let writer = self.writer.get_mut();
        writer.write_all(frame)?;
        writer.flush()?;
        Ok(())
    }

    /// Reads one raw response — companion to [`AuditClient::send_raw`].
    #[doc(hidden)]
    pub fn receive_response(&mut self) -> Result<WireResponse, ClientError> {
        self.receive()
    }
}
