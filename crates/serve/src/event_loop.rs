//! The server's readiness-based core.
//!
//! One **event-loop thread** owns the listener, a [`crate::poll::Poller`]
//! (epoll on Linux, `poll(2)` on other Unix hosts), and every
//! connection's state, its outbound buffer included:
//!
//! ```text
//!                    ┌─► most frames: decode → handle → encode (loop) ──┐
//!                    │                                                  │
//! read-accumulate ───┼─► ingest: decode → handle → encode (a worker) ───┼─► write-drain
//!       ▲   (loop)   │                                                  │       │
//!       │            └─► Flush: decode (loop) → ticket → sync → encode ─┘       │
//!       │                              (ingest drain worker)                    │
//!       └───────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! The loop thread accepts, reads whatever readiness delivers into a
//! per-connection buffer, carves complete frames out of it with
//! [`crate::wire::try_parse_frame`], and drains each connection's
//! outbound buffer (partial writes re-arm `EPOLLOUT`).  Every frame but
//! `Flush` is answered by one function, `answer_frame` — decode,
//! [`crate::server::handle_request`], encode.  The loop thread runs it
//! itself, in order, and writes the responses in the same pass, for
//! every frame but ingest batches; plaintext `GET`s are answered there
//! too.  An ingest batch, whose decode is linear in a frame of up to
//! [`crate::DEFAULT_MAX_FRAME_LEN`], goes alone to a small **worker
//! pool**, routed by its version and tag bytes.  A `Flush` is decoded on
//! the loop and handed to the ingest queue as a ticket
//! ([`IngestQueue::flush_then`]): the queue's drain worker answers it
//! once the batches accepted before it are applied and synced, so no
//! thread waits for a flush.  A worker or a ticket returns the encoded
//! answer and its trace; the loop appends them and then answers the
//! frames behind it.  While a connection's frame is at a worker or its
//! ticket waits, the loop answers nothing else for it, so pipelining
//! keeps the wire contract: responses strictly in request order per
//! connection.  A full ingest queue answers an ingest frame `Busy` on the
//! loop thread, before anything in it is decoded.
//!
//! The loop spends at most `INLINE_BUDGET` on one connection per pass.
//! Frames left over stay queued, and the connection goes on a ready list
//! that makes the next poller wait non-blocking, so one pipelining peer
//! cannot hold every other connection's I/O hostage.
//!
//! An idle connection costs exactly one registered fd and its
//! (empty) buffers — no thread, no timer.  Shutdown is a wake, not a
//! poll: the loop thread waits for readiness indefinitely until the
//! listener, a connection, a worker's or a ticket's answer, or the stop
//! flag rouses it, the last two through a [`crate::poll::WakeFd`].
//!
//! Malformed input gets a typed error frame, then the close; a plaintext
//! `GET` is answered with one HTTP response; and
//! [`crate::ServeConfig::idle_timeout`] is enforced with a best-effort
//! `ServerError{"idle timeout"}` frame.

use crate::codec::{
    decode_request_traced, encode_response, ingest_record_count, is_flush, request_kind,
    routes_to_worker, WireResponse,
};
use crate::poll::{Poller, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::server::{elapsed_ns, handle_request, http_response_for};
use crate::wire::{try_parse_frame, write_frame, WireError, HTTP_GET_PREFIX};
use crate::ServeConfig;
use bytes::Bytes;
use piprov_audit::{
    AuditEngine, IngestQueue, RequestKind, Span, SpanKind, TraceCollector, TraceContext,
};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// How long shutdown waits for in-flight requests (a frame at a worker,
/// a waiting `Flush` ticket) to finish and their responses to drain
/// before closing connections anyway.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// How long the loop thread may spend answering one connection's frames
/// in one pass; the frames left over wait for the next pass, so one
/// pipelining peer cannot hold every other connection's I/O hostage.
const INLINE_BUDGET: Duration = Duration::from_micros(500);

/// The message an idle-expired connection is closed with.
const IDLE_TIMEOUT_MESSAGE: &str = "idle timeout";

/// Upper bound on a buffered HTTP request head — far beyond any scrape
/// request, small enough that a hostile peer cannot balloon the buffer.
const MAX_HTTP_HEAD: usize = 8 * 1024;

/// The running threads of the event loop.  Owned by
/// [`crate::AuditServer`]; [`EventLoopHandle::stop`] is idempotent.
#[derive(Debug)]
pub(crate) struct EventLoopHandle {
    loop_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    dispatch: Arc<Dispatch>,
}

impl EventLoopHandle {
    /// Registers `listener` with a fresh [`Poller`] and starts the
    /// loop thread plus `config.workers` workers.
    pub(crate) fn start(
        listener: TcpListener,
        engine: Arc<AuditEngine>,
        queue: Arc<IngestQueue>,
        collector: Arc<TraceCollector>,
        config: ServeConfig,
    ) -> std::io::Result<Self> {
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let mut poller = Poller::new()?;
        let wake = Arc::new(WakeFd::new()?);
        poller.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        poller.add(wake.raw(), EPOLLIN, TOKEN_WAKE)?;
        let dispatch = Arc::new(Dispatch {
            jobs: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            done: Mutex::new(Vec::new()),
            wake: Arc::clone(&wake),
            stop: Arc::clone(&stop),
        });
        let serving = Arc::new(Serving {
            engine,
            queue,
            collector,
            config,
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let dispatch = Arc::clone(&dispatch);
                let serving = Arc::clone(&serving);
                std::thread::Builder::new()
                    .name(format!("piprov-dispatch-{}", i))
                    .spawn(move || dispatch_loop(&dispatch, &serving))
                    .expect("spawn dispatch worker")
            })
            .collect();
        let loop_thread = {
            let dispatch = Arc::clone(&dispatch);
            std::thread::Builder::new()
                .name("piprov-event-loop".into())
                .spawn(move || {
                    Loop {
                        poller,
                        listener,
                        wake,
                        dispatch,
                        stop,
                        serving,
                        conns: HashMap::new(),
                        ready: Vec::new(),
                        next_token: FIRST_CONN_TOKEN,
                    }
                    .run()
                })
                .expect("spawn event loop")
        };
        Ok(EventLoopHandle {
            loop_thread: Some(loop_thread),
            workers,
            dispatch,
        })
    }

    /// Raises the stop flag and wakes the loop thread, lets it drain
    /// in-flight work, then joins every thread.
    pub(crate) fn stop(&mut self) {
        self.dispatch.stop.store(true, Ordering::SeqCst);
        self.dispatch.wake.wake();
        if let Some(thread) = self.loop_thread.take() {
            let _ = thread.join();
        }
        // The loop thread has stopped handing out frames; rouse any
        // worker parked on an empty queue so it observes the stop flag.
        self.dispatch.work.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// What answering a request needs; the loop thread and every worker
/// share one.
#[derive(Debug)]
struct Serving {
    engine: Arc<AuditEngine>,
    queue: Arc<IngestQueue>,
    collector: Arc<TraceCollector>,
    config: ServeConfig,
}

/// The loop-thread ⇄ worker-pool boundary: ingest frames go out one at a
/// time, tagged with their connection's token, and answers come back,
/// from the workers and from the ingest queue's `Flush` tickets.
#[derive(Debug)]
struct Dispatch {
    jobs: Mutex<VecDeque<(u64, Bytes)>>,
    work: Condvar,
    /// Answered frames; the loop thread drains this after a [`WakeFd`]
    /// wake and appends each answer to its connection, or drops it if
    /// the connection is gone.
    done: Mutex<Vec<Answer>>,
    wake: Arc<WakeFd>,
    stop: Arc<AtomicBool>,
}

/// A worker's or a ticket's answer to one frame: its connection's token,
/// the encoded response, and the request's trace (`None` for a frame that
/// did not decode, after whose error the connection closes).
type Answer = (u64, Vec<u8>, Option<PendingTrace>);

/// A connection's outbound buffer, drained to the socket by the loop
/// thread.
#[derive(Debug, Default)]
struct Outbound {
    buf: Vec<u8>,
    /// Bytes before this offset are already written to the socket.
    start: usize,
    /// Close the connection once the buffer drains (error sent, HTTP
    /// response sent, or idle expiry).
    closing: bool,
    /// Total bytes ever appended to `buf` — the absolute stream position
    /// `pending_traces` anchor their completion against (never reset by
    /// the compaction `flush_outbound` does).
    total_enqueued: u64,
    /// Total bytes ever written to the socket.
    total_flushed: u64,
    /// Requests whose response sits in `buf`, waiting for the write-drain
    /// to pass `end_abs` — at which point the write span closes and the
    /// trace is finished.  Appended in stream order, so always sorted.
    pending_traces: Vec<PendingTrace>,
}

impl Outbound {
    fn is_drained(&self) -> bool {
        self.start >= self.buf.len()
    }

    /// Appends answered frames' responses, back to back in `encoded`,
    /// and their traces, whose `end_abs` are offsets into `encoded`.
    fn append(&mut self, encoded: &[u8], traces: impl IntoIterator<Item = PendingTrace>) {
        let base = self.total_enqueued;
        let now = Instant::now();
        self.buf.extend_from_slice(encoded);
        self.total_enqueued += encoded.len() as u64;
        for mut trace in traces {
            trace.end_abs += base;
            trace.enqueued = now;
            self.pending_traces.push(trace);
        }
    }
}

/// A request waiting for its response bytes to reach the socket; the
/// final `write` span covers enqueue → drained-past-`end_abs`.
#[derive(Debug)]
struct PendingTrace {
    /// `Outbound::total_flushed` value at which this response is fully on
    /// the wire.
    end_abs: u64,
    /// When decoding started — the trace's total starts here.
    started: Instant,
    /// When the encoded response entered the outbound buffer.
    enqueued: Instant,
    ctx: Option<TraceContext>,
    kind: RequestKind,
    client_encode_ns: u64,
    decode_ns: u64,
    handle: Span,
}

/// Per-connection state machine on the loop thread.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    /// read-accumulate: bytes readiness delivered, not yet a full frame.
    read_buf: Vec<u8>,
    /// Complete frames not yet answered, in arrival order.
    pending: VecDeque<Bytes>,
    /// A frame of this connection is at a worker, or its `Flush` ticket
    /// waits.  Nothing behind it is answered until its answer is
    /// appended, which keeps pipelined responses in request order.
    in_flight: bool,
    /// A frame-layer error to emit (typed frame, then close) once the
    /// frames that arrived before it have been answered.
    pending_error: Option<WireError>,
    /// `Some` once the first bytes read `GET ` — accumulating the HTTP
    /// request head instead of frames.
    http_head: Option<Vec<u8>>,
    peer_eof: bool,
    last_activity: Instant,
    /// The interest currently registered for this fd.
    interest: u32,
    out: Outbound,
}

impl Conn {
    /// No request in any stage — the state an idle-timeout may expire.
    fn is_idle(&self) -> bool {
        !self.in_flight
            && self.pending.is_empty()
            && self.pending_error.is_none()
            && self.read_buf.is_empty()
            && self.http_head.is_none()
            && self.out.is_drained()
    }
}

struct Loop {
    poller: Poller,
    listener: TcpListener,
    wake: Arc<WakeFd>,
    dispatch: Arc<Dispatch>,
    stop: Arc<AtomicBool>,
    serving: Arc<Serving>,
    conns: HashMap<u64, Conn>,
    /// Connections with frames left after a pass's [`INLINE_BUDGET`]: the
    /// next wait does not block while this is non-empty.
    ready: Vec<u64>,
    next_token: u64,
}

impl Loop {
    fn run(mut self) {
        let mut events = Vec::new();
        loop {
            let ready = std::mem::take(&mut self.ready);
            let timeout = if ready.is_empty() {
                self.serving
                    .config
                    .idle_timeout
                    .map(|t| t.min(Duration::from_millis(200)))
            } else {
                Some(Duration::ZERO)
            };
            if self.poller.wait(&mut events, timeout).is_err() {
                // The poller itself failing is unrecoverable for this core;
                // fall through to the drain path and stop serving.
                self.stop.store(true, Ordering::SeqCst);
            }
            for &(token, revents) in events.iter() {
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.wake.drain(),
                    _ => self.conn_ready(token, revents),
                }
            }
            for token in self.take_done() {
                self.advance(token);
            }
            for token in ready {
                self.advance(token);
            }
            if self.stop.load(Ordering::SeqCst) {
                self.drain_and_close();
                return;
            }
            self.sweep_idle();
        }
    }

    /// Accepts until the backlog is empty.
    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Transient failures (fd exhaustion, aborted handshakes):
                // leave the rest of the backlog for the next readiness.
                Err(_) => return,
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            stream.set_nodelay(true).ok();
            let token = self.next_token;
            self.next_token += 1;
            let interest = EPOLLIN | EPOLLRDHUP;
            if self
                .poller
                .add(stream.as_raw_fd(), interest, token)
                .is_err()
            {
                continue;
            }
            let conn = Conn {
                stream,
                read_buf: Vec::new(),
                pending: VecDeque::new(),
                in_flight: false,
                pending_error: None,
                http_head: None,
                peer_eof: false,
                last_activity: Instant::now(),
                interest,
                out: Outbound::default(),
            };
            self.conns.insert(token, conn);
            self.serving
                .engine
                .metrics_registry()
                .note_connection_accepted();
        }
    }

    /// Handles readiness on a connection: reads whatever is available,
    /// then advances the state machine, which also drains the outbound
    /// buffer.
    fn conn_ready(&mut self, token: u64, revents: u32) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if revents & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 && !read_available(conn) {
            self.close(token);
            return;
        }
        self.advance(token);
    }

    /// Appends every answer the workers and tickets finished to its
    /// connection and returns those connections' tokens.
    fn take_done(&mut self) -> Vec<u64> {
        let done = std::mem::take(&mut *self.dispatch.done.lock().expect("done lock"));
        let mut tokens = Vec::with_capacity(done.len());
        for (token, encoded, trace) in done {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.in_flight = false;
                // A frame that did not decode is the last one answered.
                conn.out.closing |= trace.is_none();
                conn.out.append(&encoded, trace);
                tokens.push(token);
            }
        }
        tokens
    }

    /// The connection state machine: parse → answer → error/EOF → flush →
    /// close, in a fixed order so every path converges.
    fn advance(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if !conn.out.closing {
            parse_available(conn, &self.serving.config);
            if !conn.in_flight
                && answer_pending(token, conn, &self.serving, &self.dispatch)
                && !self.ready.contains(&token)
            {
                self.ready.push(token);
            }
            if !conn.out.closing && !conn.in_flight && conn.pending.is_empty() {
                if let Some(head) = take_complete_http_head(conn) {
                    let response =
                        http_response_for(&head, &self.serving.engine, &self.serving.collector);
                    conn.out.append(&response, None);
                    conn.out.closing = true;
                } else if let Some(error) = conn.pending_error.take() {
                    // Everything before the bad bytes has been answered:
                    // name the cause, then close.
                    append_error_frame(&mut conn.out, &error.to_string());
                }
            }
        }
        if !flush_outbound(conn, &self.serving) {
            self.close(token);
            return;
        }
        let finished = conn.peer_eof
            && !conn.in_flight
            && conn.pending.is_empty()
            && conn.pending_error.is_none()
            && conn.out.is_drained();
        if finished {
            self.close(token);
            return;
        }
        // Re-arm interest: readable until the peer's EOF has been read
        // (readiness is how EOF and new frames arrive, and a level-triggered
        // socket past its EOF would report readable on every wait), writable
        // only while the outbound buffer holds unsent bytes.  Hangup and
        // error are reported whatever the interest.
        let read = if conn.peer_eof {
            0
        } else {
            EPOLLIN | EPOLLRDHUP
        };
        let desired = read | if conn.out.is_drained() { 0 } else { EPOLLOUT };
        if desired != conn.interest {
            conn.interest = desired;
            let fd = conn.stream.as_raw_fd();
            if self.poller.modify(fd, desired, token).is_err() {
                self.close(token);
            }
        }
    }

    /// Expires connections idle past [`ServeConfig::idle_timeout`] with a
    /// best-effort typed frame.
    fn sweep_idle(&mut self) {
        let Some(bound) = self.serving.config.idle_timeout else {
            return;
        };
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, conn)| conn.last_activity.elapsed() >= bound && conn.is_idle())
            .map(|(&token, _)| token)
            .collect();
        for token in expired {
            let conn = self.conns.get_mut(&token).expect("conn");
            append_error_frame(&mut conn.out, IDLE_TIMEOUT_MESSAGE);
            self.advance(token);
        }
    }

    /// Shutdown: wait (bounded) for frames at the workers and waiting
    /// tickets to be answered and the responses to drain, notify the
    /// survivors, close everything.
    fn drain_and_close(&mut self) {
        let deadline = Instant::now() + DRAIN_DEADLINE;
        let mut events = Vec::new();
        while Instant::now() < deadline {
            let busy = self
                .conns
                .values()
                .any(|conn| conn.in_flight || !conn.out.is_drained());
            if !busy {
                break;
            }
            if self
                .poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .is_err()
            {
                break;
            }
            for &(token, revents) in events.iter() {
                if token == TOKEN_WAKE {
                    self.wake.drain();
                } else if token >= FIRST_CONN_TOKEN && revents & EPOLLOUT != 0 {
                    self.flush_or_close(token);
                }
            }
            for token in self.take_done() {
                self.flush_or_close(token);
            }
        }
        // Anyone still connected gets told why, best effort, then closed.
        let mut notice = Vec::new();
        let response = WireResponse::ServerError {
            message: "server shutting down".into(),
        };
        write_frame(&mut notice, &encode_response(&response)).expect("vec write");
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                let _ = conn.stream.write(&notice);
            }
            self.close(token);
        }
    }

    /// Writes what the socket takes of a connection's outbound buffer and
    /// closes the connection if it should close.
    fn flush_or_close(&mut self, token: u64) {
        if let Some(conn) = self.conns.get_mut(&token) {
            if !flush_outbound(conn, &self.serving) {
                self.close(token);
            }
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            self.serving
                .engine
                .metrics_registry()
                .note_connection_closed();
        }
    }
}

impl Dispatch {
    fn push(&self, token: u64, frame: Bytes) {
        self.jobs
            .lock()
            .expect("jobs lock")
            .push_back((token, frame));
        self.work.notify_one();
    }

    /// Hands the loop thread one frame's encoded answer and its trace:
    /// push to `done`, then wake.
    fn answered(&self, token: u64, encoded: Vec<u8>, trace: Option<PendingTrace>) {
        self.done
            .lock()
            .expect("done lock")
            .push((token, encoded, trace));
        self.wake.wake();
    }
}

/// Per-readiness cap on bytes read into a connection's buffer.  Without
/// it a peer that writes faster than frames are parsed — e.g. a hostile
/// multi-megabyte `GET` request line with no newline — balloons
/// `read_buf` without bound before the parser ever sees it.  Readiness
/// is level-triggered, so leftover bytes simply re-report readiness on
/// the next wait.
const READ_BUDGET: usize = 256 * 1024;

/// Reads until `WouldBlock`, EOF, or [`READ_BUDGET`] is consumed.
/// Returns `false` only on a fatal socket error (close immediately,
/// nothing to say to the peer).
fn read_available(conn: &mut Conn) -> bool {
    let mut scratch = [0u8; 16 * 1024];
    let mut taken = 0usize;
    loop {
        if taken >= READ_BUDGET {
            return true;
        }
        match conn.stream.read(&mut scratch) {
            Ok(0) => {
                conn.peer_eof = true;
                return true;
            }
            Ok(n) => {
                conn.last_activity = Instant::now();
                taken += n;
                match &mut conn.http_head {
                    Some(head) => {
                        let room = MAX_HTTP_HEAD.saturating_sub(head.len());
                        head.extend_from_slice(&scratch[..n.min(room)]);
                    }
                    None => conn.read_buf.extend_from_slice(&scratch[..n]),
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(_) => return false,
        }
    }
}

/// Carves complete frames out of the read buffer (or routes the bytes to
/// the HTTP head once `GET ` is sniffed where a length prefix belongs).
/// Frames are carved at a running offset and the buffer drained once, so
/// a burst of small frames costs one memmove, not one per frame.
/// Frame-layer errors park in `pending_error` so already-queued frames
/// are still answered first.
fn parse_available(conn: &mut Conn, config: &ServeConfig) {
    if conn.pending_error.is_some() {
        return;
    }
    if conn.http_head.is_none() {
        if conn.read_buf.len() >= HTTP_GET_PREFIX.len()
            && conn.read_buf[..HTTP_GET_PREFIX.len()] == HTTP_GET_PREFIX
        {
            // The pre-sniff buffer may exceed the head cap (one readiness
            // burst can deliver up to READ_BUDGET bytes); the response only
            // needs the request line, so cap it like every later read.
            let mut head = std::mem::take(&mut conn.read_buf);
            head.truncate(MAX_HTTP_HEAD);
            conn.http_head = Some(head);
        } else {
            let mut parsed = 0;
            loop {
                match try_parse_frame(&conn.read_buf[parsed..], config.limits.max_frame_len) {
                    Ok(None) => break,
                    Ok(Some((consumed, body))) => {
                        parsed += consumed;
                        conn.pending.push_back(body);
                    }
                    Err(e) => {
                        // The rest of the buffer is garbage relative to
                        // the framing; drop it and stop reading more.
                        conn.read_buf.clear();
                        conn.pending_error = Some(e);
                        return;
                    }
                }
            }
            conn.read_buf.drain(..parsed);
        }
    }
    if conn.peer_eof && conn.http_head.is_none() && !conn.read_buf.is_empty() {
        // EOF mid-frame: the peer walked away with a frame half-sent.
        conn.read_buf.clear();
        conn.pending_error = Some(WireError::Malformed("truncated frame header".into()));
    }
}

/// Whether `head` already contains the `\r\n\r\n` ending an HTTP request
/// head (a bare `\n\n` is tolerated for hand-typed requests).
fn contains_blank_line(head: &[u8]) -> bool {
    head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n")
}

/// Takes the HTTP head to answer once it is complete (blank line seen,
/// cap reached, or the peer finished sending).
fn take_complete_http_head(conn: &mut Conn) -> Option<Vec<u8>> {
    let head = conn.http_head.as_ref()?;
    if contains_blank_line(head) || head.len() >= MAX_HTTP_HEAD || conn.peer_eof {
        conn.http_head.take()
    } else {
        None
    }
}

/// Appends one typed `ServerError` frame and marks the connection for
/// close-after-drain.
fn append_error_frame(out: &mut Outbound, message: &str) {
    let response = WireResponse::ServerError {
        message: message.into(),
    };
    let before = out.buf.len();
    write_frame(&mut out.buf, &encode_response(&response)).expect("vec write");
    out.total_enqueued += (out.buf.len() - before) as u64;
    out.closing = true;
}

/// Writes as much outbound data as the socket accepts, finishing the
/// trace of every request whose response just reached the wire.  Returns
/// `false` when the connection should close (fatal write error, or
/// drained with `closing` set).
fn flush_outbound(conn: &mut Conn, serving: &Serving) -> bool {
    let out = &mut conn.out;
    while out.start < out.buf.len() {
        let start = out.start;
        match conn.stream.write(&out.buf[start..]) {
            Ok(0) => return false,
            Ok(n) => {
                out.start += n;
                out.total_flushed += n as u64;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(_) => return false,
        }
    }
    finish_flushed_traces(out, serving);
    if out.is_drained() {
        out.buf.clear();
        out.start = 0;
        !out.closing
    } else {
        // Partial write: compact occasionally so a slow reader cannot pin
        // already-sent bytes forever.
        if out.start > 64 * 1024 {
            let start = out.start;
            out.buf.drain(..start);
            out.start = 0;
        }
        true
    }
}

/// Closes the write span of every pending trace whose response bytes are
/// fully on the wire, hands the completed trace to the collector, and
/// records each of its spans into its stage histogram, with the trace id
/// the collector kept (if any) as the exemplar.
fn finish_flushed_traces(out: &mut Outbound, serving: &Serving) {
    let registry = serving.engine.metrics_registry();
    let flushed = out.total_flushed;
    let done = out
        .pending_traces
        .iter()
        .take_while(|t| t.end_abs <= flushed)
        .count();
    for trace in out.pending_traces.drain(..done) {
        // A stack array, not a Vec: finish is on the per-request path.
        let mut spans = [Span::new(SpanKind::Write, 0); 4];
        let mut count = 0;
        if trace.client_encode_ns > 0 {
            spans[count] = Span::new(SpanKind::ClientEncode, trace.client_encode_ns);
            count += 1;
        }
        spans[count] = Span::new(SpanKind::Decode, trace.decode_ns);
        spans[count + 1] = trace.handle;
        spans[count + 2] = Span::new(SpanKind::Write, elapsed_ns(trace.enqueued));
        count += 3;
        let spans = &spans[..count];
        let trace_id =
            serving
                .collector
                .finish(trace.ctx, trace.kind, elapsed_ns(trace.started), spans);
        for span in spans {
            registry.record_stage(span.kind, span.duration_ns, trace_id);
        }
    }
}

/// Answers `conn`'s queued frames in order on the loop thread, for at
/// most [`INLINE_BUDGET`], and appends the responses at once, anchoring
/// each trace to the outbound stream.  A `Flush` stops the pass: it
/// becomes an ingest-queue ticket ([`flush_ticket`]).  So does a frame
/// that [`routes_to_worker`]: it goes to a worker, unless
/// [`refuse_ingest`] answers it here.  A frame that does not decode also
/// stops it, and the connection closes after that frame's error.
/// Returns `true` when the budget ran out with frames left.
fn answer_pending(
    token: u64,
    conn: &mut Conn,
    serving: &Serving,
    dispatch: &Arc<Dispatch>,
) -> bool {
    let started = Instant::now();
    let mut encoded = Vec::new();
    let mut traces = Vec::new();
    let mut left_over = false;
    while let Some(frame) = conn.pending.pop_front() {
        let trace = if is_flush(&frame) {
            if flush_ticket(token, frame, &mut encoded, serving, dispatch) {
                conn.in_flight = true;
            } else {
                conn.out.closing = true;
            }
            break;
        } else if !routes_to_worker(&frame) {
            answer_frame(frame, &mut encoded, serving)
        } else if let Some(trace) = refuse_ingest(&frame, &mut encoded, serving) {
            Some(trace)
        } else {
            conn.in_flight = true;
            dispatch.push(token, frame);
            break;
        };
        let Some(trace) = trace else {
            conn.out.closing = true;
            break;
        };
        traces.push(trace);
        if started.elapsed() >= INLINE_BUDGET {
            left_over = !conn.pending.is_empty();
            break;
        }
    }
    conn.out.append(&encoded, traces);
    left_over
}

/// Answers an ingest frame `Busy` without decoding it when the ingest
/// queue is full, so a refused batch interns nothing; the queue counts
/// the rejection as [`IngestQueue::try_submit`] does.  `None` for an
/// empty batch or a queue with room: the frame goes to a worker, which
/// decodes and submits it.  A refused frame's trace field is not read.
fn refuse_ingest(frame: &[u8], encoded: &mut Vec<u8>, serving: &Serving) -> Option<PendingTrace> {
    let started = Instant::now();
    if ingest_record_count(frame)? == 0 {
        return None;
    }
    let queue_depth = serving.queue.refuse_if_full()? as u32;
    let response = WireResponse::Busy { queue_depth };
    write_frame(encoded, &encode_response(&response)).expect("vec write");
    Some(PendingTrace {
        end_abs: encoded.len() as u64,
        started,
        enqueued: started,
        ctx: serving.collector.admit(None),
        kind: RequestKind::Ingest,
        client_encode_ns: 0,
        decode_ns: 0,
        handle: Span::new(SpanKind::Handle, elapsed_ns(started)),
    })
}

/// Answers one frame — decode → [`handle_request`] → encode — appending
/// the response frame to `encoded`.  The loop thread and the workers both
/// answer through here, so every span is stamped by the same code.
/// Returns the request's trace, its `end_abs` an offset into `encoded`;
/// or `None` for a frame that did not decode, answered with a typed error
/// frame after which the connection closes and the frames behind it go
/// unanswered.
fn answer_frame(frame: Bytes, encoded: &mut Vec<u8>, serving: &Serving) -> Option<PendingTrace> {
    let Serving {
        engine,
        queue,
        collector,
        config,
    } = serving;
    let request_started = Instant::now();
    let decoded = decode_request_traced(frame, &config.limits);
    let decode_ns = elapsed_ns(request_started);
    let (request, wire_trace) = match decoded {
        Ok(decoded) => decoded,
        Err(e) => {
            let response = WireResponse::ServerError {
                message: e.to_string(),
            };
            write_frame(encoded, &encode_response(&response)).expect("vec write");
            return None;
        }
    };
    let ctx = collector.admit(wire_trace.map(|t| t.context));
    let kind = request_kind(&request);
    let service_started = Instant::now();
    let (response, index_hits, memo_hits) = handle_request(request, engine, queue, collector, ctx);
    let service_ns = elapsed_ns(service_started);
    write_frame(encoded, &encode_response(&response)).expect("vec write");
    Some(PendingTrace {
        end_abs: encoded.len() as u64,
        started: request_started,
        enqueued: request_started,
        ctx,
        kind,
        client_encode_ns: wire_trace.map(|t| t.client_encode_ns).unwrap_or(0),
        decode_ns,
        handle: Span {
            kind: SpanKind::Handle,
            duration_ns: service_ns,
            index_hits,
            memo_hits,
        },
    })
}

/// Hands a `Flush` frame to the ingest queue as a ticket
/// ([`IngestQueue::flush_then`]) and returns `true`.  The frame is
/// decoded here first, so a malformed one is answered at once: its typed
/// error goes to `encoded`, and `false` closes the connection.  The
/// queue's drain worker runs the ticket once the batches accepted before
/// it are applied and synced, and hands the encoded answer back through
/// [`Dispatch::answered`].  The trace starts here; the wait counts in its
/// `handle` span.
fn flush_ticket(
    token: u64,
    frame: Bytes,
    encoded: &mut Vec<u8>,
    serving: &Serving,
    dispatch: &Arc<Dispatch>,
) -> bool {
    let started = Instant::now();
    let wire_trace = match decode_request_traced(frame, &serving.config.limits) {
        Ok((_, wire_trace)) => wire_trace,
        Err(e) => {
            let response = WireResponse::ServerError {
                message: e.to_string(),
            };
            write_frame(encoded, &encode_response(&response)).expect("vec write");
            return false;
        }
    };
    let decode_ns = elapsed_ns(started);
    let ctx = serving.collector.admit(wire_trace.map(|t| t.context));
    let client_encode_ns = wire_trace.map(|t| t.client_encode_ns).unwrap_or(0);
    let (engine, dispatch) = (Arc::clone(&serving.engine), Arc::clone(dispatch));
    let handed_off = Instant::now();
    serving.queue.flush_then(Box::new(move |result| {
        // Both are read after the sync: everything submitted before the
        // flush is visible at (or below) the watermark — the anchor a
        // client's read-your-writes polls against.
        let response = match result {
            Ok(()) => WireResponse::Flushed {
                ingested: engine.stats().ingested,
                watermark: engine.watermark(),
            },
            Err(e) => WireResponse::ServerError {
                message: format!("flush failed: {}", e),
            },
        };
        let mut encoded = Vec::new();
        write_frame(&mut encoded, &encode_response(&response)).expect("vec write");
        let trace = PendingTrace {
            end_abs: encoded.len() as u64,
            started,
            enqueued: started,
            ctx,
            kind: RequestKind::Flush,
            client_encode_ns,
            decode_ns,
            handle: Span::new(SpanKind::Handle, elapsed_ns(handed_off)),
        };
        dispatch.answered(token, encoded, Some(trace));
    }));
    true
}

/// A worker: answers one frame at a time and hands the loop thread the
/// encoded response, never touching a connection.
fn dispatch_loop(dispatch: &Dispatch, serving: &Serving) {
    loop {
        let (token, frame) = {
            let mut jobs = dispatch.jobs.lock().expect("jobs lock");
            loop {
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                if dispatch.stop.load(Ordering::SeqCst) {
                    return;
                }
                jobs = dispatch
                    .work
                    .wait_timeout(jobs, Duration::from_millis(200))
                    .expect("jobs lock")
                    .0;
            }
        };
        let mut encoded = Vec::new();
        let trace = answer_frame(frame, &mut encoded, serving);
        dispatch.answered(token, encoded, trace);
    }
}
