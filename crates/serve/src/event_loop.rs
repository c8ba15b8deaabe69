//! The server's readiness-based core.
//!
//! One **event-loop thread** owns the listener, a [`crate::poll::Poller`]
//! (epoll on Linux, `poll(2)` on other Unix hosts), and every
//! connection's state machine:
//!
//! ```text
//!                    ┌─► reads: decode → handle → encode (loop) ─┐
//! read-accumulate ───┤                                           ├─► write-drain
//!       ▲   (loop)   └─► the rest: decode → handle → encode ─────┘       │
//!       │                          (worker pool)                         │
//!       └────────────────────────────────────────────────────────────────┘
//! ```
//!
//! The loop thread accepts, reads whatever readiness delivers into a
//! per-connection buffer, carves complete frames out of it with
//! [`crate::wire::try_parse_frame`], and drains each connection's
//! outbound buffer (partial writes re-arm `EPOLLOUT`).  Every frame is
//! answered by one function, `answer_frame` — decode,
//! [`crate::server::handle_request`], encode — on one of two threads.
//! While a connection has no job in flight, the loop thread answers its
//! queued **reads** itself, in order, and writes the responses in the
//! same pass: every audit request (counterfactuals included), plus
//! `Metrics`, `Traces` and `ListPolicies`, all served from the engine's
//! lock-free MVCC read path.  The first frame of any other kind (ingest,
//! `Flush`, `LoadPack`, or a body that names no kind), every frame after
//! it, and every frame left once the loop has spent its per-pass budget
//! on the connection go as one job to a small **dispatch worker pool**,
//! which appends the encoded responses to the connection's outbound
//! buffer.  At most one job per connection is in flight, a job
//! answers its frames in order, and the loop answers nothing for a
//! connection whose job is in flight, so pipelining keeps the wire
//! contract: responses strictly in request order per connection.  A
//! worker parked on a slow flush stalls only its own connection.
//!
//! An idle connection costs exactly one registered fd and its
//! (empty) buffers — no thread, no timer.  Shutdown is a wake, not a
//! poll: the loop thread waits for readiness indefinitely until the
//! listener, a connection, a finished dispatch job, or the stop flag
//! rouses it, the last two through a [`crate::poll::WakeFd`].
//!
//! Malformed input gets a typed error frame, then the close; a plaintext
//! `GET` is answered with one HTTP response; and
//! [`crate::ServeConfig::idle_timeout`] is enforced with a best-effort
//! `ServerError{"idle timeout"}` frame.

use crate::codec::{decode_request_traced, encode_response, peek_kind, request_kind, WireResponse};
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

/// How long shutdown waits for in-flight requests to finish and their
/// responses to drain before closing connections anyway.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// How long the loop thread may spend answering one connection's reads in
/// one pass; the frames left over go to the workers, so one pipelining
/// peer cannot hold every other connection's I/O hostage.
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
    /// loop thread plus `config.workers` dispatch workers.
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
        // The loop thread has stopped producing jobs; rouse any worker
        // parked on an empty queue so it observes the stop flag.
        self.dispatch.work.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// What answering a request needs; the loop thread and every dispatch
/// worker share one.
#[derive(Debug)]
struct Serving {
    engine: Arc<AuditEngine>,
    queue: Arc<IngestQueue>,
    collector: Arc<TraceCollector>,
    config: ServeConfig,
}

/// The loop-thread ⇄ worker-pool boundary.
#[derive(Debug)]
struct Dispatch {
    jobs: Mutex<VecDeque<Job>>,
    work: Condvar,
    /// Tokens whose job finished; the loop thread drains this after a
    /// [`WakeFd`] wake and re-examines those connections.
    done: Mutex<Vec<u64>>,
    wake: Arc<WakeFd>,
    stop: Arc<AtomicBool>,
}

/// One unit of CPU work for a dispatch worker.  The worker appends its
/// encoded output to `out` and reports `token` done — it never touches
/// the socket.
#[derive(Debug)]
enum Job {
    /// Complete frames from one connection, answered strictly in order.
    Frames {
        token: u64,
        frames: Vec<Bytes>,
        out: Arc<Mutex<Outbound>>,
    },
    /// A sniffed plaintext HTTP request head (the `/metrics` scrape).
    Http {
        token: u64,
        head: Vec<u8>,
        out: Arc<Mutex<Outbound>>,
    },
}

/// A connection's outbound buffer, shared between the loop thread (which
/// drains it to the socket) and the worker currently encoding into it.
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
    /// Complete frames waiting for the connection's next dispatch slot.
    pending: VecDeque<Bytes>,
    /// A dispatch job for this connection is at the workers; at most one,
    /// which is what keeps pipelined responses in request order.
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
}

impl Conn {
    /// No request in any stage — the state an idle-timeout may expire.
    fn is_idle(&self, out: &Outbound) -> bool {
        !self.in_flight
            && self.pending.is_empty()
            && self.pending_error.is_none()
            && self.read_buf.is_empty()
            && self.http_head.is_none()
            && out.is_drained()
    }
}

struct Loop {
    poller: Poller,
    listener: TcpListener,
    wake: Arc<WakeFd>,
    dispatch: Arc<Dispatch>,
    stop: Arc<AtomicBool>,
    serving: Arc<Serving>,
    conns: HashMap<u64, (Conn, Arc<Mutex<Outbound>>)>,
    next_token: u64,
}

impl Loop {
    fn run(mut self) {
        let mut events = Vec::new();
        loop {
            let timeout = self
                .serving
                .config
                .idle_timeout
                .map(|t| t.min(Duration::from_millis(200)));
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
            self.reap_done();
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
            };
            self.conns
                .insert(token, (conn, Arc::new(Mutex::new(Outbound::default()))));
            self.serving
                .engine
                .metrics_registry()
                .note_connection_accepted();
        }
    }

    /// Handles readiness on a connection: reads whatever is available,
    /// parses frames (or an HTTP head), flushes the outbound buffer, and
    /// advances the state machine.
    fn conn_ready(&mut self, token: u64, revents: u32) {
        let Some((conn, out)) = self.conns.get_mut(&token) else {
            return;
        };
        if revents & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 && !read_available(conn) {
            self.close(token);
            return;
        }
        if revents & EPOLLOUT != 0 && !flush_outbound(conn, out, &self.serving) {
            self.close(token);
            return;
        }
        self.advance(token);
    }

    /// Drains finished-job notifications from the workers and re-examines
    /// those connections (their outbound buffers just grew).
    fn reap_done(&mut self) {
        let done = std::mem::take(&mut *self.dispatch.done.lock().expect("done lock"));
        for token in done {
            if let Some((conn, _)) = self.conns.get_mut(&token) {
                conn.in_flight = false;
                self.advance(token);
            }
        }
    }

    /// The connection state machine: parse → answer reads → dispatch →
    /// error/EOF → flush → close, in a fixed order so every path converges.
    fn advance(&mut self, token: u64) {
        let Some((conn, out)) = self.conns.get_mut(&token) else {
            return;
        };
        let closing = out.lock().expect("outbound lock").closing;
        if !closing {
            parse_available(conn, &self.serving.config);
            // With the connection's single job slot free: dispatch a
            // complete HTTP head, or answer the reads at the front here
            // and dispatch the frames left behind them.
            if !conn.in_flight {
                if let Some(head) = take_complete_http_head(conn) {
                    conn.in_flight = true;
                    self.dispatch.push(Job::Http {
                        token,
                        head,
                        out: Arc::clone(out),
                    });
                } else if answer_frames(inline_reads(&mut conn.pending), out, &self.serving) {
                    // A frame did not decode: its error frame is the last
                    // answer the connection gets.
                    conn.pending.clear();
                } else if !conn.pending.is_empty() {
                    let frames = conn.pending.drain(..).collect();
                    conn.in_flight = true;
                    self.dispatch.push(Job::Frames {
                        token,
                        frames,
                        out: Arc::clone(out),
                    });
                } else if let Some(error) = conn.pending_error.take() {
                    // Everything before the bad bytes has been answered:
                    // name the cause, then close.
                    let mut out = out.lock().expect("outbound lock");
                    append_error_frame(&mut out, &error.to_string());
                }
            }
        }
        let Some((conn, out)) = self.conns.get_mut(&token) else {
            return;
        };
        if !flush_outbound(conn, out, &self.serving) {
            self.close(token);
            return;
        }
        let (conn, out) = self.conns.get_mut(&token).expect("conn");
        let guard = out.lock().expect("outbound lock");
        let finished = conn.peer_eof
            && !conn.in_flight
            && conn.pending.is_empty()
            && conn.pending_error.is_none()
            && guard.is_drained();
        let wants_write = !guard.is_drained();
        drop(guard);
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
        let desired = read | if wants_write { EPOLLOUT } else { 0 };
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
            .filter(|(_, (conn, out))| {
                conn.last_activity.elapsed() >= bound
                    && conn.is_idle(&out.lock().expect("outbound lock"))
            })
            .map(|(&token, _)| token)
            .collect();
        for token in expired {
            let (_, out) = self.conns.get_mut(&token).expect("conn");
            append_error_frame(
                &mut out.lock().expect("outbound lock"),
                IDLE_TIMEOUT_MESSAGE,
            );
            self.advance(token);
        }
    }

    /// Shutdown: wait (bounded) for in-flight jobs to finish and their
    /// responses to drain, notify the survivors, close everything.
    fn drain_and_close(&mut self) {
        let deadline = Instant::now() + DRAIN_DEADLINE;
        let mut events = Vec::new();
        while Instant::now() < deadline {
            let busy = self.conns.iter().any(|(_, (conn, out))| {
                conn.in_flight || !out.lock().expect("outbound lock").is_drained()
            });
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
                    if let Some((conn, out)) = self.conns.get_mut(&token) {
                        if !flush_outbound(conn, out, &self.serving) {
                            self.close(token);
                        }
                    }
                }
            }
            let done = std::mem::take(&mut *self.dispatch.done.lock().expect("done lock"));
            for token in done {
                if let Some((conn, out)) = self.conns.get_mut(&token) {
                    conn.in_flight = false;
                    if !flush_outbound(conn, out, &self.serving) {
                        self.close(token);
                    }
                }
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
            if let Some((conn, _)) = self.conns.get_mut(&token) {
                let _ = conn.stream.write(&notice);
            }
            self.close(token);
        }
    }

    fn close(&mut self, token: u64) {
        if let Some((conn, _)) = self.conns.remove(&token) {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            self.serving
                .engine
                .metrics_registry()
                .note_connection_closed();
        }
    }
}

impl Dispatch {
    fn push(&self, job: Job) {
        self.jobs.lock().expect("jobs lock").push_back(job);
        self.work.notify_one();
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

/// Takes the HTTP head for dispatch once it is complete (blank line seen,
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
fn flush_outbound(conn: &mut Conn, out: &Arc<Mutex<Outbound>>, serving: &Serving) -> bool {
    let mut out = out.lock().expect("outbound lock");
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
    finish_flushed_traces(&mut out, serving);
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

/// Whether the loop thread answers a frame of this kind itself: the reads
/// the engine serves from its lock-free MVCC snapshot, which never wait
/// and intern nothing.  Ingest and `Flush` go through the ingest queue (a
/// flush may park for [`ServeConfig::flush_timeout`]) and `LoadPack`
/// compiles a pack: those go to the workers.
fn answers_inline(kind: RequestKind) -> bool {
    matches!(
        kind,
        RequestKind::Vet
            | RequestKind::Trail
            | RequestKind::Touched
            | RequestKind::Origin
            | RequestKind::Why
            | RequestKind::Counterfactual
            | RequestKind::Metrics
            | RequestKind::Traces
            | RequestKind::ListPolicies
    )
}

/// Pops the read frames at the front of `pending` — what the loop thread
/// answers itself — until a frame of another kind or [`INLINE_BUDGET`];
/// the frames left go to the workers.  Drawn only with no job in flight,
/// so every answer lands after all earlier ones.
fn inline_reads(pending: &mut VecDeque<Bytes>) -> impl Iterator<Item = Bytes> + '_ {
    let started = Instant::now();
    std::iter::from_fn(move || {
        let read = peek_kind(pending.front()?).is_some_and(answers_inline);
        if read && started.elapsed() < INLINE_BUDGET {
            pending.pop_front()
        } else {
            None
        }
    })
}

/// Answers `frames` in order through [`answer_frame`] and appends the
/// responses to `out` at once, anchoring each trace to the outbound
/// stream.  Stops after a frame that did not decode and returns `true`:
/// the connection closes after that frame's error.
fn answer_frames(
    frames: impl IntoIterator<Item = Bytes>,
    out: &Mutex<Outbound>,
    serving: &Serving,
) -> bool {
    let mut encoded = Vec::new();
    let mut traces = Vec::new();
    let mut closing = false;
    for frame in frames {
        match answer_frame(frame, &mut encoded, serving) {
            Some(trace) => traces.push(trace),
            None => {
                closing = true;
                break;
            }
        }
    }
    if !encoded.is_empty() {
        let mut out = out.lock().expect("outbound lock");
        let base = out.total_enqueued;
        let now = Instant::now();
        out.buf.extend_from_slice(&encoded);
        out.total_enqueued += encoded.len() as u64;
        for mut trace in traces {
            trace.end_abs += base;
            trace.enqueued = now;
            out.pending_traces.push(trace);
        }
        out.closing |= closing;
    }
    closing
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
    let (response, index_hits, memo_hits) =
        handle_request(request, engine, queue, config, collector, ctx);
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

/// A dispatch worker: answers one job at a time, never touching a socket.
fn dispatch_loop(dispatch: &Dispatch, serving: &Serving) {
    loop {
        let job = {
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
        match job {
            Job::Frames { token, frames, out } => {
                answer_frames(frames, &out, serving);
                dispatch.report_done(token);
            }
            Job::Http { token, head, out } => {
                let response = http_response_for(&head, &serving.engine, &serving.collector);
                {
                    let mut out = out.lock().expect("outbound lock");
                    out.buf.extend_from_slice(&response);
                    out.total_enqueued += response.len() as u64;
                    out.closing = true;
                }
                dispatch.report_done(token);
            }
        }
    }
}

impl Dispatch {
    fn report_done(&self, token: u64) {
        self.done.lock().expect("done lock").push(token);
        self.wake.wake();
    }
}
