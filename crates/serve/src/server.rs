//! The TCP front-end of the audit engine: one readiness-based event loop
//! (the `event_loop` module).  One thread owns `accept`, a
//! [`crate::poll::Poller`] registration per connection — epoll on Linux,
//! `poll(2)` on other Unix hosts — and every connection's state, and
//! answers every frame itself, plaintext `GET`s and ingest batches
//! included.  The only other thread is the ingest queue's drain worker,
//! which decodes and applies admitted batches and answers `Flush`
//! tickets, handing those answers back to the loop.  Thousands of idle
//! connections cost only their registered fd.
//!
//! Within a connection, requests are **pipelined**: frames are answered
//! strictly in arrival order, so a client may write many requests before
//! reading the first response.  Ingest takes the bounded path: the loop
//! checks an `IngestBatch` frame's structure and admits it, still encoded,
//! to the engine's [`IngestQueue`], which bounds it in batches and in
//! bytes; `IngestAck` means queued, and a queue without room answers a
//! typed [`WireResponse::Busy`] — nothing is decoded on the loop.  The
//! drain worker decodes each batch and applies it under one store-lock
//! acquisition, or not at all; a failure goes to the submitting
//! connection's next `Flush`.  The server never buffers a writer's
//! backlog in its own memory: it stops reading a connection whose answers
//! the peer does not read.
//!
//! Malformed input (bad CRC, hostile length prefix, unknown tag) is a
//! typed error, never a panic: the server sends a best-effort
//! [`WireResponse::ServerError`] frame naming the cause and closes that
//! connection; everyone else keeps being served.  A plaintext
//! `GET /metrics` where a frame header would be is answered with one
//! HTTP/1.1 response carrying the Prometheus exposition (see
//! [`ServeConfig`]), and [`ServeConfig::idle_timeout`] bounds how long an
//! idle connection may hold its resources.

use crate::codec::{WireRequest, WireResponse};
use crate::event_loop::EventLoopHandle;
use crate::wire::WireLimits;
use piprov_audit::{
    render_traces, AuditEngine, AuditOutcome, AuditRequest, ExpositionOptions, IngestQueue,
    PolicyListing, TraceCollector, TraceConfig, TraceContext,
};
use piprov_core::name::Channel;
use piprov_core::value::Value;
use piprov_store::StoreError;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of an [`AuditServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Has no effect.  The server runs two threads, the event loop and
    /// the ingest queue's drain worker, whatever this says; the field
    /// stays so that configurations which set it still compile, until
    /// ROADMAP item 1(d) removes it.
    pub workers: usize,
    /// Capacity of the bounded ingest queue, in batches; overflow answers
    /// [`WireResponse::Busy`].
    pub queue_capacity: usize,
    /// Decode-side caps applied to every frame and record count.
    pub limits: WireLimits,
    /// When set, a connection idle (no frame started) past this bound is
    /// closed with a best-effort typed `ServerError{"idle timeout"}`
    /// frame, so an idle client cannot hold its fd forever.  `None` (the
    /// default) never expires idle connections.
    pub idle_timeout: Option<Duration>,
    /// The request-tracing plane: sampling rate, slow threshold, ring
    /// capacity and whether the `/metrics` exposition carries histogram
    /// exemplars.  Every traced request records `decode`, `handle` and
    /// `write` spans, plus `client_encode` when the client sent it.
    pub trace: TraceConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            limits: WireLimits::default(),
            idle_timeout: None,
            trace: TraceConfig::default(),
        }
    }
}

/// A running cross-process audit server.
///
/// Dropping the server (or calling [`AuditServer::shutdown`]) stops the
/// accept loop, waits for in-flight connections to finish, drains the
/// ingest queue and syncs the store.
#[derive(Debug)]
pub struct AuditServer {
    engine: Arc<AuditEngine>,
    queue: Arc<IngestQueue>,
    collector: Arc<TraceCollector>,
    local_addr: SocketAddr,
    event_loop: EventLoopHandle,
    stopped: bool,
}

impl AuditServer {
    /// Binds `addr` and starts the event loop and the ingest queue.
    /// Use port 0 to let the OS pick a free port
    /// ([`AuditServer::local_addr`] reports it).
    ///
    /// # Errors
    ///
    /// Propagates bind/listen failures and poller/wake setup failures.
    pub fn bind(
        engine: Arc<AuditEngine>,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let collector = Arc::new(TraceCollector::new(config.trace));
        let queue = Arc::new(IngestQueue::start_with_trace(
            Arc::clone(&engine),
            config.queue_capacity,
            Some(Arc::clone(&collector)),
        ));
        let event_loop = EventLoopHandle::start(
            listener,
            Arc::clone(&engine),
            Arc::clone(&queue),
            Arc::clone(&collector),
            config,
        )?;
        Ok(AuditServer {
            engine,
            queue,
            collector,
            local_addr,
            event_loop,
            stopped: false,
        })
    }

    /// The bound address (with the OS-assigned port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Arc<AuditEngine> {
        &self.engine
    }

    /// The bounded ingest queue (exposed for tests and instrumentation —
    /// pausing it makes back-pressure deterministic to observe).
    pub fn ingest_queue(&self) -> &Arc<IngestQueue> {
        &self.queue
    }

    /// The trace collector the server deposits per-request span records
    /// into — the store behind `GET /trace` and the `Traces` wire request.
    pub fn trace_collector(&self) -> &Arc<TraceCollector> {
        &self.collector
    }

    /// Stops accepting, joins the event loop, drains the ingest queue and
    /// syncs the store.  Every batch acked before the stop is applied (if
    /// it decodes and appends) and synced.
    ///
    /// # Errors
    ///
    /// Surfaces a sync failure.  A batch's failure belongs to the
    /// connection that shipped it: that connection's next `Flush` reports
    /// it, and once the connection has gone nobody does.
    pub fn shutdown(mut self) -> Result<(), StoreError> {
        self.event_loop.stop();
        self.stopped = true;
        self.queue.flush()
    }
}

impl Drop for AuditServer {
    fn drop(&mut self) {
        if !self.stopped {
            self.event_loop.stop();
            let _ = self.queue.flush();
        }
    }
}

/// Nanoseconds since `start`, saturating into the histogram's `u64`.
pub(crate) fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Renders the complete HTTP/1.1 response for a sniffed `GET` request:
/// the Prometheus exposition for `/metrics` (`text/plain; version=0.0.4`,
/// the content type Prometheus scrapers negotiate, with exemplar suffixes
/// when [`TraceConfig::exemplars`] is set), the trace ring for `/trace`
/// (filterable with `?min_us=N`), the policy listing for `/policies`
/// (filterable with `?package=NAME`; an unknown package 404s), the
/// why-provenance debug endpoint `/why?value=V&policy=P`, a liveness
/// probe for `/healthz`, 404 for any other path.  Always
/// `Connection: close` — the scrape path is one-shot, never a persistent
/// peer.
pub(crate) fn http_response_for(
    head: &[u8],
    engine: &AuditEngine,
    collector: &TraceCollector,
) -> Vec<u8> {
    let path = http_request_path(head);
    let (path, query) = match path {
        Some(path) => match path.split_once('?') {
            Some((path, query)) => (Some(path), Some(query)),
            None => (Some(path), None),
        },
        None => (None, None),
    };
    let (status, content_type, body) = match path {
        Some("/metrics") => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            piprov_audit::render_exposition_with(
                &engine.metrics(),
                &ExpositionOptions {
                    exemplars: collector.config().exemplars,
                },
            ),
        ),
        Some("/trace") => (
            "200 OK",
            "text/plain; charset=utf-8",
            render_traces(&collector.snapshot(trace_min_total_ns(query))),
        ),
        Some("/policies") => {
            let (status, body) = policies_response(query, engine);
            (status, "text/plain; charset=utf-8", body)
        }
        Some("/why") => {
            let (status, body) = why_response(query, engine);
            (status, "text/plain; charset=utf-8", body)
        }
        Some("/healthz") => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        ),
    };
    let mut response = format!(
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status,
        content_type,
        body.len()
    )
    .into_bytes();
    response.extend_from_slice(body.as_bytes());
    response
}

/// The value of `key=` in an HTTP query string (`a=1&b=2`), if present.
/// Shared by every filterable endpoint (`/trace?min_us=`,
/// `/policies?package=`, `/why?value=&policy=`); the first occurrence
/// wins.  No percent-decoding — the names this surface filters on are
/// plain identifiers.
fn query_param<'a>(query: Option<&'a str>, key: &str) -> Option<&'a str> {
    query
        .into_iter()
        .flat_map(|q| q.split('&'))
        .find_map(|pair| pair.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
}

/// The `min_us=N` filter of a `/trace` query string, in nanoseconds.
/// Anything absent or unparsable means "no filter".
fn trace_min_total_ns(query: Option<&str>) -> u64 {
    query_param(query, "min_us")
        .and_then(|v| v.parse::<u64>().ok())
        .map(|us| us.saturating_mul(1_000))
        .unwrap_or(0)
}

/// The `/policies` body: the full listing, or — with `?package=NAME` —
/// only that package's policies, 404ing when the package matches nothing
/// (an empty listing would be indistinguishable from "no policies loaded
/// yet" to a dashboard).
fn policies_response(query: Option<&str>, engine: &AuditEngine) -> (&'static str, String) {
    let listing = engine.policies();
    match query_param(query, "package") {
        None => ("200 OK", listing.to_string()),
        Some(package) => {
            let PolicyListing { version, policies } = listing;
            let filtered: Vec<_> = policies
                .into_iter()
                .filter(|p| p.package == package)
                .collect();
            if filtered.is_empty() {
                return ("404 Not Found", format!("unknown package {}\n", package));
            }
            (
                "200 OK",
                PolicyListing {
                    version,
                    policies: filtered,
                }
                .to_string(),
            )
        }
    }
}

/// The `/why?value=V&policy=P` body: the rendered witness slice for the
/// named channel value against the named policy.  Missing parameters are
/// a 400; an unknown value or policy is a 404 carrying the engine's
/// diagnostic outcome.
fn why_response(query: Option<&str>, engine: &AuditEngine) -> (&'static str, String) {
    let Some(value) = query_param(query, "value") else {
        return ("400 Bad Request", "missing value= parameter\n".to_string());
    };
    let Some(policy) = query_param(query, "policy") else {
        return ("400 Bad Request", "missing policy= parameter\n".to_string());
    };
    let response = engine.handle(&AuditRequest::Why {
        value: Value::Channel(Channel::new(value)),
        pattern: policy.to_string(),
    });
    match response.outcome {
        AuditOutcome::Why(slice) => ("200 OK", slice.to_string()),
        AuditOutcome::UnknownValue => ("404 Not Found", format!("unknown value {}\n", value)),
        AuditOutcome::UnknownPattern { nearest, .. } => (
            "404 Not Found",
            match nearest {
                Some(nearest) => format!("unknown policy {} (nearest: {})\n", policy, nearest),
                None => format!("unknown policy {}\n", policy),
            },
        ),
        other => ("500 Internal Server Error", format!("{:?}\n", other)),
    }
}

/// The request path of a `GET` request line, if `head` starts with one.
fn http_request_path(head: &[u8]) -> Option<&str> {
    let line_end = head
        .iter()
        .position(|&b| b == b'\r' || b == b'\n')
        .unwrap_or(head.len());
    let line = std::str::from_utf8(&head[..line_end]).ok()?;
    let mut parts = line.split_whitespace();
    if parts.next()? != "GET" {
        return None;
    }
    parts.next()
}

/// Maps one decoded request other than `IngestBatch` and `Flush` onto
/// the engine.  Never panics.  The event loop calls it per frame on its
/// loop thread; it admits ingest frames to the queue without decoding
/// them ([`IngestQueue::admit`]) and hands a `Flush` to the queue as a
/// ticket ([`IngestQueue::flush_then`]).
///
/// Returns the response plus the `(index_hits, memo_hits)` the engine
/// reported, so the caller can stamp them onto the request's `handle`
/// span (zero for everything but audit requests).
pub(crate) fn handle_request(
    request: WireRequest,
    engine: &Arc<AuditEngine>,
    collector: &TraceCollector,
    ctx: Option<TraceContext>,
) -> (WireResponse, u64, u64) {
    let response = match request {
        WireRequest::Audit(audit) => {
            let response = engine.handle_with_trace(&audit, ctx.map(|c| c.trace_id));
            let index_hits = response.stats.index_hits as u64;
            let memo_hits = response.stats.memo_hits as u64;
            return (WireResponse::Audit(response), index_hits, memo_hits);
        }
        // Routed by their tag bytes, these frames never reach here.
        WireRequest::IngestBatch(_) | WireRequest::Flush => {
            unreachable!("the event loop admits ingest frames and tickets a Flush")
        }
        WireRequest::Metrics => WireResponse::Metrics(Box::new(engine.metrics())),
        WireRequest::Traces { min_total_ns } => {
            WireResponse::Traces(collector.snapshot(min_total_ns))
        }
        // All-or-nothing: compilation happens entirely off to the side,
        // and only a clean pack reaches the engine's atomic publish — a
        // pack with any error changes nothing and reports every problem's
        // file, line, and column.
        WireRequest::LoadPack(source) => match piprov_policy::PolicyPack::compile(&source) {
            Ok(pack) => {
                let install = engine.install_pack(&pack);
                WireResponse::PackLoaded {
                    version: install.version,
                    installed: install.installed as u32,
                    reused: install.reused as u32,
                }
            }
            Err(error) => WireResponse::PackRejected {
                diagnostics: error.diagnostics,
            },
        },
        WireRequest::ListPolicies => WireResponse::Policies(engine.policies()),
    };
    (response, 0, 0)
}
