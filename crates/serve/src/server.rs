//! The TCP front-end of the audit engine, with two interchangeable
//! **server cores** selected by [`ServeConfig::core`]:
//!
//! * [`ServerCore::EventLoop`] (the default on Linux) — readiness-based
//!   I/O: one event-loop thread owns `accept` and an `epoll` registration
//!   per connection (the `event_loop` module) and answers the reads itself
//!   from the engine's lock-free MVCC read path — every audit request but
//!   a counterfactual, plus `Metrics`, `Traces` and `ListPolicies`; ingest,
//!   `Flush`, `LoadPack` and counterfactuals go to a small worker pool.
//!   Thousands of idle connections cost only their registered fd;
//! * [`ServerCore::ThreadPool`] — the portable fallback in this module: a
//!   bounded **accept/worker pool** where `workers` threads share one
//!   `TcpListener`, each accepting a connection and serving it to
//!   completion, so at most `workers` connections are live at once and
//!   the rest wait in the OS backlog.
//!
//! Both cores share every protocol behavior.  Within a connection,
//! requests are **pipelined**: frames are answered strictly in arrival
//! order, so a client may write many requests before reading the first
//! response.  Ingest takes the bounded path: an `IngestBatch` frame is
//! submitted to the engine's [`IngestQueue`]; a full queue answers a
//! typed [`WireResponse::Busy`] immediately — the server never buffers a
//! writer's backlog in its own memory — and accepted batches are applied
//! under one write-lock acquisition each by the queue's drain worker.
//!
//! Malformed input (bad CRC, hostile length prefix, unknown tag) is a
//! typed error, never a panic: the server sends a best-effort
//! [`WireResponse::ServerError`] frame naming the cause and closes that
//! connection; everyone else keeps being served.  A plaintext
//! `GET /metrics` where a frame header would be is answered with one
//! HTTP/1.1 response carrying the Prometheus exposition (see
//! [`ServeConfig`]), and [`ServeConfig::idle_timeout`] bounds how long an
//! idle connection may hold its resources in either core.

use crate::codec::{
    decode_request_traced, encode_response, request_kind, WireRequest, WireResponse,
};
use crate::wire::{read_frame_or_http, write_frame, FrameOrHttp, WireError, WireLimits};
use piprov_audit::{
    render_traces, AuditEngine, AuditOutcome, AuditRequest, BarrierError, ExpositionOptions,
    IngestQueue, PolicyListing, Span, SpanKind, SubmitOutcome, TraceCollector, TraceConfig,
    TraceContext,
};
use piprov_core::name::Channel;
use piprov_core::value::Value;
use piprov_store::StoreError;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which serving core an [`AuditServer`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerCore {
    /// Readiness-based I/O: one epoll event-loop thread owning accept and
    /// per-connection state machines, answering reads itself and handing
    /// the rest to a worker pool.  Linux-only; on other platforms
    /// [`AuditServer::bind`] silently falls back to
    /// [`ServerCore::ThreadPool`].
    EventLoop,
    /// The portable accept/worker pool: at most `workers` live
    /// connections, the rest in the OS backlog.
    ThreadPool,
}

impl ServerCore {
    /// Both cores, event loop first — what the parameterized integration
    /// suites iterate to pin identical protocol behavior across cores.
    pub fn all() -> [ServerCore; 2] {
        [ServerCore::EventLoop, ServerCore::ThreadPool]
    }

    /// A short, stable name (`"event_loop"` / `"thread_pool"`) for test
    /// labels and temp-dir suffixes.
    pub fn name(&self) -> &'static str {
        match self {
            ServerCore::EventLoop => "event_loop",
            ServerCore::ThreadPool => "thread_pool",
        }
    }
}

impl Default for ServerCore {
    /// The event loop where it exists (Linux), the thread pool elsewhere.
    fn default() -> Self {
        if cfg!(target_os = "linux") {
            ServerCore::EventLoop
        } else {
            ServerCore::ThreadPool
        }
    }
}

/// Configuration of an [`AuditServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Which serving core to run (see [`ServerCore`]).
    pub core: ServerCore,
    /// For [`ServerCore::ThreadPool`]: the size of the accept/worker pool
    /// — the maximum number of concurrently served connections (further
    /// connections wait in the OS backlog).  For
    /// [`ServerCore::EventLoop`]: the size of the dispatch worker pool,
    /// which serves only what the loop thread does not answer itself —
    /// ingest, `Flush`, `LoadPack`, counterfactuals, and reads queued
    /// behind one of those or past the loop's per-pass budget.
    /// Connections themselves are unbounded by threads; an idle one costs
    /// only its fd.
    pub workers: usize,
    /// Capacity of the bounded ingest queue, in batches; overflow answers
    /// [`WireResponse::Busy`].
    pub queue_capacity: usize,
    /// Decode-side caps applied to every frame and record count.
    pub limits: WireLimits,
    /// Bound on how long a remote `Flush` may park its worker thread
    /// waiting for the ingest queue to drain (the wait goes through
    /// [`IngestQueue::barrier`], which never touches the queue's pause
    /// hook).  On expiry the client gets a typed
    /// [`WireResponse::ServerError`] and the worker returns to its
    /// connection — a slow or hostile flusher cannot occupy the pool
    /// forever.
    pub flush_timeout: Duration,
    /// When set, a connection idle (no frame started) past this bound is
    /// closed with a best-effort typed `ServerError{"idle timeout"}`
    /// frame — enforced in **both** cores, so an idle client can neither
    /// pin a thread-pool worker slot nor hold an event-loop fd forever.
    /// `None` (the default) never expires idle connections.
    pub idle_timeout: Option<Duration>,
    /// The request-tracing plane: sampling rate, slow threshold, ring
    /// capacity and whether the `/metrics` exposition carries histogram
    /// exemplars.  Both cores stamp the same span set per request.
    pub trace: TraceConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            core: ServerCore::default(),
            workers: 4,
            queue_capacity: 64,
            limits: WireLimits::default(),
            flush_timeout: Duration::from_secs(10),
            idle_timeout: None,
            trace: TraceConfig::default(),
        }
    }
}

/// The message an idle-expired connection is closed with, in both cores.
pub(crate) const IDLE_TIMEOUT_MESSAGE: &str = "idle timeout";

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
    stop: Arc<AtomicBool>,
    core: CoreHandle,
    stopped: bool,
}

/// The running threads of whichever core [`AuditServer::bind`] started.
#[derive(Debug)]
enum CoreHandle {
    ThreadPool {
        workers: Vec<JoinHandle<()>>,
    },
    #[cfg(target_os = "linux")]
    EventLoop(crate::event_loop::EventLoopHandle),
}

impl AuditServer {
    /// Binds `addr` and starts the core selected by [`ServeConfig::core`].
    /// Use port 0 to let the OS pick a free port
    /// ([`AuditServer::local_addr`] reports it).
    ///
    /// # Errors
    ///
    /// Propagates bind/listen failures (and, for the event-loop core,
    /// epoll/eventfd setup failures).
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
        let stop = Arc::new(AtomicBool::new(false));
        let core = match config.core {
            #[cfg(target_os = "linux")]
            ServerCore::EventLoop => {
                CoreHandle::EventLoop(crate::event_loop::EventLoopHandle::start(
                    listener,
                    Arc::clone(&engine),
                    Arc::clone(&queue),
                    Arc::clone(&collector),
                    Arc::clone(&stop),
                    config,
                )?)
            }
            // Off Linux there is no epoll: the event-loop request falls
            // back to the portable core, keeping `ServeConfig::default()`
            // usable everywhere.
            _ => {
                let listener = Arc::new(listener);
                let workers = (0..config.workers.max(1))
                    .map(|i| {
                        let listener = Arc::clone(&listener);
                        let engine = Arc::clone(&engine);
                        let queue = Arc::clone(&queue);
                        let collector = Arc::clone(&collector);
                        let stop = Arc::clone(&stop);
                        std::thread::Builder::new()
                            .name(format!("piprov-serve-{}", i))
                            .spawn(move || {
                                worker_loop(&listener, &engine, &queue, &collector, &stop, &config)
                            })
                            .expect("spawn serve worker")
                    })
                    .collect();
                CoreHandle::ThreadPool { workers }
            }
        };
        Ok(AuditServer {
            engine,
            queue,
            collector,
            local_addr,
            stop,
            core,
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

    /// The trace collector both cores deposit per-request span records
    /// into — the store behind `GET /trace` and the `Traces` wire request.
    pub fn trace_collector(&self) -> &Arc<TraceCollector> {
        &self.collector
    }

    /// Which core this server is actually running (the configured core,
    /// after any platform fallback).
    pub fn core(&self) -> ServerCore {
        match self.core {
            CoreHandle::ThreadPool { .. } => ServerCore::ThreadPool,
            #[cfg(target_os = "linux")]
            CoreHandle::EventLoop(_) => ServerCore::EventLoop,
        }
    }

    /// Stops accepting, joins the core's threads, drains the ingest queue
    /// and syncs the store.
    ///
    /// # Errors
    ///
    /// Surfaces the first deferred ingest error or a sync failure.
    pub fn shutdown(mut self) -> Result<(), StoreError> {
        self.stop_core();
        self.stopped = true;
        self.queue.flush()
    }

    fn stop_core(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        match &mut self.core {
            CoreHandle::ThreadPool { workers } => {
                // Unblock workers parked in accept(): one wake-up
                // connection each.  The listener may be bound to a
                // wildcard address (`0.0.0.0:0`), which is not connectable
                // on every platform — rewrite it to the matching loopback,
                // where the listener is reachable.
                let wake = wake_addr(self.local_addr);
                for _ in 0..workers.len() {
                    let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
                }
                for worker in workers.drain(..) {
                    let _ = worker.join();
                }
            }
            #[cfg(target_os = "linux")]
            CoreHandle::EventLoop(handle) => handle.stop(),
        }
    }
}

/// The address `stop_workers` connects to, to wake an accept-parked
/// worker: the bound address, with an unspecified IP (a wildcard bind)
/// rewritten to the same family's loopback.  Connecting to `0.0.0.0` is
/// non-portable (some platforms refuse it outright), and a refused wake-up
/// would leave a worker parked in `accept()` forever.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    addr
}

impl Drop for AuditServer {
    fn drop(&mut self) {
        if !self.stopped {
            self.stop_core();
            let _ = self.queue.flush();
        }
    }
}

fn worker_loop(
    listener: &TcpListener,
    engine: &Arc<AuditEngine>,
    queue: &Arc<IngestQueue>,
    collector: &Arc<TraceCollector>,
    stop: &AtomicBool,
    config: &ServeConfig,
) {
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            // Transient accept failures (fd exhaustion, aborted
            // connections) must not busy-spin the pool; back off briefly
            // and re-check the stop flag.
            Err(_) => {
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            // A client that raced shutdown must not hang until its own
            // timeout: tell it why the connection is closing.  Best
            // effort — the racing connection may be our own wake-up.
            send_shutdown_notice(stream);
            return;
        }
        // Per-connection errors close that connection only; the worker
        // goes back to accepting.  The lifecycle gauge brackets the serve:
        // shutdown wake-ups above are never counted.
        let registry = engine.metrics_registry();
        registry.note_connection_accepted();
        let _ = serve_connection(stream, engine, queue, collector, stop, config);
        registry.note_connection_closed();
    }
}

/// Tells a connection accepted after shutdown began why it is being
/// closed, instead of dropping it silently.  Entirely best-effort: the
/// peer may be the shutdown wake-up connection, already gone.
fn send_shutdown_notice(stream: TcpStream) {
    stream
        .set_write_timeout(Some(Duration::from_millis(200)))
        .ok();
    let mut writer = BufWriter::new(stream);
    let response = WireResponse::ServerError {
        message: "server shutting down".into(),
    };
    let _ = write_frame(&mut writer, &encode_response(&response));
    let _ = writer.flush();
}

/// Serves one connection until clean close, error, idle expiry, or server
/// shutdown.
fn serve_connection(
    stream: TcpStream,
    engine: &Arc<AuditEngine>,
    queue: &Arc<IngestQueue>,
    collector: &Arc<TraceCollector>,
    stop: &AtomicBool,
    config: &ServeConfig,
) -> Result<(), WireError> {
    let limits = config.limits;
    stream.set_nodelay(true).ok();
    // The idle tick: a read timeout between frames lets the worker notice
    // a shutdown (or an expired idle bound) without dropping a connected
    // client's bytes.
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut idle_since = Instant::now();
    loop {
        let frame = match read_frame_or_http(&mut reader, limits.max_frame_len) {
            Ok(FrameOrHttp::Eof) => return Ok(()),
            Ok(FrameOrHttp::Frame(frame)) => frame,
            Ok(FrameOrHttp::HttpGet(head)) => {
                return serve_http_get(&head, &mut reader, &mut writer, engine, collector);
            }
            Err(e) if e.is_timeout() => {
                if stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
                if let Some(bound) = config.idle_timeout {
                    if idle_since.elapsed() >= bound {
                        let notice = WireResponse::ServerError {
                            message: IDLE_TIMEOUT_MESSAGE.into(),
                        };
                        let _ = write_frame(&mut writer, &encode_response(&notice));
                        let _ = writer.flush();
                        return Ok(());
                    }
                }
                continue;
            }
            Err(e) => {
                // Best effort: name the cause, then close.  The client sees
                // either the typed error frame or the close — never a hang.
                send_error(&mut writer, &e);
                return Err(e);
            }
        };
        idle_since = Instant::now();
        let registry = engine.metrics_registry();
        // Decode time covers bytes → typed request (the header/body read
        // is readiness-bound, not decode work).
        let request_started = Instant::now();
        let decoded = decode_request_traced(frame, &limits);
        let decode_ns = elapsed_ns(request_started);
        registry.record_frame_decode(decode_ns);
        let (response, trace) = match decoded {
            Ok((request, wire_trace)) => {
                let ctx = collector.admit(wire_trace.map(|t| t.context));
                let kind = request_kind(&request);
                let service_started = Instant::now();
                let (response, index_hits, memo_hits) =
                    handle_request(request, engine, queue, config, collector, ctx);
                let service_ns = elapsed_ns(service_started);
                registry.record_request_service_traced(service_ns, ctx.map(|c| c.trace_id));
                let handle = Span {
                    kind: SpanKind::Handle,
                    duration_ns: service_ns,
                    index_hits,
                    memo_hits,
                };
                let client_encode_ns = wire_trace.map(|t| t.client_encode_ns).unwrap_or(0);
                (
                    response,
                    Some((ctx, kind, client_encode_ns, decode_ns, handle)),
                )
            }
            Err(e) => {
                send_error(&mut writer, &e);
                return Err(e);
            }
        };
        let write_started = Instant::now();
        write_frame(&mut writer, &encode_response(&response))?;
        writer.flush()?;
        if let Some((ctx, kind, client_encode_ns, decode_ns, handle)) = trace {
            // A stack array, not a Vec: finish is on the per-request path.
            let mut spans = [Span::new(SpanKind::Write, 0); 4];
            let mut count = 0;
            if client_encode_ns > 0 {
                spans[count] = Span::new(SpanKind::ClientEncode, client_encode_ns);
                count += 1;
            }
            spans[count] = Span::new(SpanKind::Decode, decode_ns);
            spans[count + 1] = handle;
            spans[count + 2] = Span::new(SpanKind::Write, elapsed_ns(write_started));
            count += 3;
            collector.finish(ctx, kind, elapsed_ns(request_started), &spans[..count]);
        }
    }
}

/// Nanoseconds since `start`, saturating into the histogram's `u64`.
pub(crate) fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Answers a plaintext HTTP `GET` detected at a frame boundary: reads the
/// rest of the request head (bounded in size and time — a scraper, not a
/// peer, is on the other side), writes one `Connection: close` response,
/// and ends the connection.
fn serve_http_get(
    head: &[u8],
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    engine: &AuditEngine,
    collector: &TraceCollector,
) -> Result<(), WireError> {
    let mut request = head.to_vec();
    read_http_head(reader, &mut request);
    writer.write_all(&http_response_for(&request, engine, collector))?;
    writer.flush()?;
    Ok(())
}

/// Upper bound on a buffered HTTP request head — far beyond any scrape
/// request, small enough that a hostile peer cannot balloon the buffer.
pub(crate) const MAX_HTTP_HEAD: usize = 8 * 1024;

/// Accumulates request bytes until the blank line ending the head, EOF,
/// the size cap, or a two-second deadline — whichever first.  Best
/// effort: the response is served from whatever arrived (only the request
/// line matters); draining the full head just lets the scraper read the
/// response before the close.
fn read_http_head(reader: &mut impl BufRead, request: &mut Vec<u8>) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while !contains_blank_line(request) && request.len() < MAX_HTTP_HEAD {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if Instant::now() >= deadline {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        if chunk.is_empty() {
            return;
        }
        let take = chunk.len().min(MAX_HTTP_HEAD - request.len());
        request.extend_from_slice(&chunk[..take]);
        reader.consume(take);
    }
}

/// Whether `head` already contains the `\r\n\r\n` ending an HTTP request
/// head (a bare `\n\n` is tolerated for hand-typed requests).
pub(crate) fn contains_blank_line(head: &[u8]) -> bool {
    head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n")
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

fn send_error(writer: &mut impl Write, error: &WireError) {
    let response = WireResponse::ServerError {
        message: error.to_string(),
    };
    let _ = write_frame(writer, &encode_response(&response));
    let _ = writer.flush();
}

/// Maps one decoded request onto the engine/queue.  Never panics; store
/// failures become [`WireResponse::ServerError`].  Shared by both cores —
/// the event loop calls it per frame, on its loop thread for reads and on
/// a dispatch worker for everything else.
///
/// Returns the response plus the `(index_hits, memo_hits)` the engine
/// reported, so the caller can stamp them onto the request's `handle`
/// span (zero for everything but audit requests).
pub(crate) fn handle_request(
    request: WireRequest,
    engine: &Arc<AuditEngine>,
    queue: &Arc<IngestQueue>,
    config: &ServeConfig,
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
        WireRequest::IngestBatch(records) => {
            let accepted = records.len() as u32;
            // The queue-wait span for this batch is deposited later by the
            // drain worker, under the same trace id.
            match queue.try_submit_traced(records, ctx) {
                SubmitOutcome::Accepted { queue_depth } => WireResponse::IngestAck {
                    accepted,
                    queue_depth: queue_depth as u32,
                },
                SubmitOutcome::Busy { queue_depth } => WireResponse::Busy {
                    queue_depth: queue_depth as u32,
                },
            }
        }
        // The wire-facing barrier, NOT the owner-facing `flush()`: a remote
        // peer must be able to neither un-pause a deliberately paused
        // queue nor park one of the pool's workers without bound.
        WireRequest::Flush => match queue.barrier(config.flush_timeout) {
            // The watermark is read after the drain: everything submitted
            // before the flush is visible at (or below) it — the anchor a
            // client's read-your-writes polls against.
            Ok(()) => WireResponse::Flushed {
                ingested: engine.stats().ingested,
                watermark: engine.watermark(),
            },
            Err(e @ BarrierError::TimedOut { .. }) => WireResponse::ServerError {
                message: format!("flush failed: {}", e),
            },
            Err(BarrierError::Store(e)) => WireResponse::ServerError {
                message: format!("flush failed: {}", e),
            },
        },
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_addr_rewrites_wildcards_to_the_matching_loopback() {
        let v4: SocketAddr = "0.0.0.0:7141".parse().unwrap();
        assert_eq!(wake_addr(v4), "127.0.0.1:7141".parse().unwrap());
        let v6: SocketAddr = "[::]:7141".parse().unwrap();
        assert_eq!(wake_addr(v6), "[::1]:7141".parse().unwrap());
        // Concrete addresses pass through untouched.
        let concrete: SocketAddr = "192.0.2.7:9".parse().unwrap();
        assert_eq!(wake_addr(concrete), concrete);
        let loopback: SocketAddr = "127.0.0.1:9".parse().unwrap();
        assert_eq!(wake_addr(loopback), loopback);
    }
}
