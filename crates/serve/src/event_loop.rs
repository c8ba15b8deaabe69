//! The server's readiness-based core.
//!
//! One **event-loop thread** owns the listener, a [`crate::poll::Poller`]
//! (epoll on Linux, `poll(2)` on other Unix hosts), and every
//! connection's state, its outbound buffer included:
//!
//! ```text
//!                    ┌─► most frames: decode → handle → encode ────────────┐
//!                    │                                                     │
//! read-accumulate ───┼─► ingest: check → admit (queued) → IngestAck ───────┼─► write-drain
//!       ▲   (loop)   │                                                     │       │
//!       │            └─► Flush: decode → ticket ┄┄ sync → encode ──────────┘       │
//!       │                           (ingest drain worker)                          │
//!       └──────────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! The loop thread accepts, reads whatever readiness delivers into a
//! per-connection buffer, carves complete frames out of it with
//! [`crate::wire::try_parse_frame`], and drains each connection's
//! outbound buffer (partial writes re-arm `EPOLLOUT`).  It answers every
//! frame itself, in order, and writes the responses in the same pass:
//! most through `answer_frame` — decode, [`crate::server::handle_request`],
//! encode — and plaintext `GET`s too.  An ingest batch is checked for
//! structure without decoding a record and admitted to the ingest queue
//! still encoded ([`IngestQueue::admit`]): the loop answers `IngestAck`
//! (queued) or `Busy` at once, and the queue's drain worker decodes and
//! applies the batch later.  A `Flush` is decoded on the loop and handed to
//! the queue as a ticket ([`IngestQueue::flush_then`]): the drain worker
//! answers it once the batches accepted before it are applied and synced,
//! and hands the encoded answer back; no thread waits for a flush.  While
//! a connection's ticket waits, the loop answers nothing else for it, so
//! pipelining keeps the wire contract: responses strictly in request order
//! per connection.
//!
//! The loop spends at most `INLINE_BUDGET` on one connection per pass.
//! Frames left over stay queued, and the connection goes on a ready list
//! that makes the next poller wait non-blocking, so one pipelining peer
//! cannot hold every other connection's I/O hostage.  A connection's
//! backlog is bounded too: the loop reads from it only while every frame
//! read so far is answered, stops answering it (and reading) while its
//! unsent answers pass `OUTBOUND_HIGH_WATER` or its ticket waits, and
//! resumes it from the write drain or the ticket's answer, through the
//! ready list.  A peer that writes and never reads stalls on its own
//! socket.
//!
//! An idle connection costs exactly one registered fd and its
//! (empty) buffers — no thread, no timer.  Shutdown is a wake, not a
//! poll: the loop thread waits for readiness indefinitely until the
//! listener, a connection, a ticket's answer, or the stop flag rouses it,
//! the last two through a [`crate::poll::WakeFd`].
//!
//! Malformed input gets a typed error frame, then the close; a plaintext
//! `GET` is answered with one HTTP response; and
//! [`crate::ServeConfig::idle_timeout`] is enforced with a best-effort
//! `ServerError{"idle timeout"}` frame.

use crate::codec::{
    decode_request_traced, encode_response, is_ingest, request_kind, split_ingest, WireRequest,
    WireResponse,
};
use crate::poll::{Poller, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::server::{elapsed_ns, handle_request, http_response_for};
use crate::wire::{try_parse_frame, write_frame, WireError, HTTP_GET_PREFIX};
use crate::ServeConfig;
use bytes::Bytes;
use piprov_audit::{
    AuditEngine, IngestQueue, RequestKind, Span, SpanKind, SubmitOutcome, TraceCollector,
    TraceContext,
};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// How long shutdown waits for in-flight requests (a waiting `Flush`
/// ticket) to finish and their responses to drain before closing
/// connections anyway.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// How long the loop thread may spend answering one connection's frames
/// in one pass; the frames left over wait for the next pass, so one
/// pipelining peer cannot hold every other connection's I/O hostage.
const INLINE_BUDGET: Duration = Duration::from_micros(500);

/// Unsent answer bytes past which the loop stops answering and reading a
/// connection until the socket takes them, so a peer that writes and
/// never reads costs the server a bounded buffer, not its backlog.
const OUTBOUND_HIGH_WATER: usize = 256 * 1024;

/// The message an idle-expired connection is closed with.
const IDLE_TIMEOUT_MESSAGE: &str = "idle timeout";

/// Upper bound on a buffered HTTP request head — far beyond any scrape
/// request, small enough that a hostile peer cannot balloon the buffer.
const MAX_HTTP_HEAD: usize = 8 * 1024;

/// The running event-loop thread.  Owned by [`crate::AuditServer`];
/// [`EventLoopHandle::stop`] is idempotent.
#[derive(Debug)]
pub(crate) struct EventLoopHandle {
    loop_thread: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    wake: Arc<WakeFd>,
}

impl EventLoopHandle {
    /// Registers `listener` with a fresh [`Poller`] and starts the loop
    /// thread.
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
        let event_loop = Loop {
            poller,
            listener,
            answers: Arc::new(Answers {
                done: Mutex::new(Vec::new()),
                wake: Arc::clone(&wake),
            }),
            stop: Arc::clone(&stop),
            serving: Serving {
                engine,
                queue,
                collector,
                config,
            },
            conns: HashMap::new(),
            ready: Vec::new(),
            next_token: FIRST_CONN_TOKEN,
        };
        let loop_thread = std::thread::Builder::new()
            .name("piprov-event-loop".into())
            .spawn(move || event_loop.run())
            .expect("spawn event loop");
        Ok(EventLoopHandle {
            loop_thread: Some(loop_thread),
            stop,
            wake,
        })
    }

    /// Raises the stop flag and wakes the loop thread, lets it drain
    /// in-flight work, then joins it.
    pub(crate) fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake.wake();
        if let Some(thread) = self.loop_thread.take() {
            let _ = thread.join();
        }
    }
}

/// What answering a request needs.
#[derive(Debug)]
struct Serving {
    engine: Arc<AuditEngine>,
    queue: Arc<IngestQueue>,
    collector: Arc<TraceCollector>,
    config: ServeConfig,
}

/// Where the ingest queue's drain worker hands back answered `Flush`
/// tickets; the loop thread drains `done` after a [`WakeFd`] wake and
/// appends each answer to its connection, or drops it if the connection
/// is gone.
#[derive(Debug)]
struct Answers {
    done: Mutex<Vec<Answer>>,
    wake: Arc<WakeFd>,
}

/// A ticket's answer: its connection's token, the encoded response, and
/// the request's trace.
type Answer = (u64, Vec<u8>, PendingTrace);

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
    /// Bytes appended but not yet written to the socket.
    fn unsent(&self) -> usize {
        self.buf.len() - self.start
    }

    fn is_drained(&self) -> bool {
        self.unsent() == 0
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
    /// This connection's `Flush` ticket waits.  Nothing behind it is
    /// answered until its answer is appended, which keeps pipelined
    /// responses in request order.
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

    /// Whether the loop answers this connection's frames now: not while
    /// its ticket waits, nor while its unsent answers pass
    /// [`OUTBOUND_HIGH_WATER`].
    fn answers(&self) -> bool {
        !self.in_flight && self.out.unsent() <= OUTBOUND_HIGH_WATER
    }

    /// Whether the loop reads from this connection now: only while it
    /// answers and every frame read so far is answered, so a connection
    /// holds at most one read's worth of unanswered frames.
    fn reads(&self) -> bool {
        !self.peer_eof && !self.out.closing && self.answers() && self.pending.is_empty()
    }
}

struct Loop {
    poller: Poller,
    listener: TcpListener,
    answers: Arc<Answers>,
    stop: Arc<AtomicBool>,
    serving: Serving,
    conns: HashMap<u64, Conn>,
    /// Connections with frames to answer and nothing holding them back:
    /// the next wait does not block while this is non-empty.
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
                    TOKEN_WAKE => self.answers.wake.drain(),
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

    /// Handles readiness on a connection: reads whatever is available if
    /// the connection reads now (and always on hangup or error, which are
    /// reported whatever the interest), then advances the state machine,
    /// which also drains the outbound buffer.
    fn conn_ready(&mut self, token: u64, revents: u32) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let read = revents & (EPOLLHUP | EPOLLERR) != 0
            || (revents & (EPOLLIN | EPOLLRDHUP) != 0 && conn.reads());
        if read && !read_available(conn) {
            self.close(token);
            return;
        }
        self.advance(token);
    }

    /// Appends every answer the tickets finished to its connection and
    /// returns those connections' tokens.
    fn take_done(&mut self) -> Vec<u64> {
        let done = std::mem::take(&mut *self.answers.done.lock().expect("done lock"));
        let mut tokens = Vec::with_capacity(done.len());
        for (token, encoded, trace) in done {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.in_flight = false;
                conn.out.append(&encoded, [trace]);
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
            if conn.answers() {
                answer_pending(token, conn, &self.serving, &self.answers);
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
        // Frames left over (the pass's budget ran out, or the backlog the
        // drain just took below the mark held them) wait for the next
        // pass, so none strands without a readiness to rouse it.
        if !conn.out.closing
            && conn.answers()
            && !conn.pending.is_empty()
            && !self.ready.contains(&token)
        {
            self.ready.push(token);
        }
        // Re-arm interest: readable while the connection reads (readiness
        // is how EOF and new frames arrive, and a level-triggered socket
        // past its EOF would report readable on every wait), writable only
        // while the outbound buffer holds unsent bytes.  Hangup and error
        // are reported whatever the interest.
        let read = if conn.reads() {
            EPOLLIN | EPOLLRDHUP
        } else {
            0
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

    /// Shutdown: wait (bounded) for waiting tickets to be answered and the
    /// responses to drain, notify the survivors, close everything.
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
                    self.answers.wake.drain();
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
            // A failure of its batches that it never flushed goes with it.
            self.serving.queue.forget(token);
            self.serving
                .engine
                .metrics_registry()
                .note_connection_closed();
        }
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
/// most [`INLINE_BUDGET`] and until its unsent answers pass
/// [`OUTBOUND_HIGH_WATER`], and appends the responses at once, anchoring
/// each trace to the outbound stream.  A `Flush` stops the pass: it
/// becomes an ingest-queue ticket, and the connection waits for its
/// answer.  A frame that does not decode also stops it, and the
/// connection closes after that frame's error.
fn answer_pending(token: u64, conn: &mut Conn, serving: &Serving, answers: &Arc<Answers>) {
    let started = Instant::now();
    let mut encoded = Vec::new();
    let mut traces = Vec::new();
    while let Some(frame) = conn.pending.pop_front() {
        match answer_frame(token, frame, &mut encoded, serving, answers) {
            Outcome::Answered(trace) => traces.push(trace),
            Outcome::Ticketed => {
                conn.in_flight = true;
                break;
            }
            Outcome::Malformed => {
                conn.out.closing = true;
                break;
            }
        }
        if started.elapsed() >= INLINE_BUDGET
            || conn.out.unsent() + encoded.len() > OUTBOUND_HIGH_WATER
        {
            break;
        }
    }
    conn.out.append(&encoded, traces);
}

/// A frame as the loop takes it: a decoded request, or an ingest batch's
/// record bodies, checked for structure ([`split_ingest`]) and still
/// encoded.
enum Frame {
    Request(WireRequest),
    Ingest(Vec<Bytes>),
}

/// What became of one frame.
enum Outcome {
    /// Answered into `encoded`; the trace's `end_abs` is an offset there.
    Answered(PendingTrace),
    /// A `Flush`, handed to the ingest queue as a ticket.
    Ticketed,
    /// It did not decode: a typed error answered it, and the connection
    /// closes with the frames behind it unanswered.
    Malformed,
}

/// Appends one response frame to `encoded`.
fn put_response(encoded: &mut Vec<u8>, response: &WireResponse) {
    write_frame(encoded, &encode_response(response)).expect("vec write");
}

/// Answers one frame — decode → handle → encode — appending the response
/// frame to `encoded`.  Most requests go to [`handle_request`].  An
/// ingest batch is admitted to the queue still encoded
/// ([`IngestQueue::admit`], on behalf of connection `token`): `IngestAck`
/// once it is queued, `Busy` when it does not fit.  A `Flush` becomes a
/// ticket ([`flush_ticket`]).  Every span is stamped here, so every kind
/// is traced alike.
fn answer_frame(
    token: u64,
    frame: Bytes,
    encoded: &mut Vec<u8>,
    serving: &Serving,
    answers: &Arc<Answers>,
) -> Outcome {
    let Serving {
        engine,
        queue,
        collector,
        config,
    } = serving;
    let started = Instant::now();
    let decoded = if is_ingest(&frame) {
        split_ingest(frame, &config.limits).map(|(bodies, trace)| (Frame::Ingest(bodies), trace))
    } else {
        decode_request_traced(frame, &config.limits)
            .map(|(request, trace)| (Frame::Request(request), trace))
    };
    let decode_ns = elapsed_ns(started);
    let (frame, wire_trace) = match decoded {
        Ok(decoded) => decoded,
        Err(e) => {
            let message = e.to_string();
            put_response(encoded, &WireResponse::ServerError { message });
            return Outcome::Malformed;
        }
    };
    let ctx = collector.admit(wire_trace.map(|t| t.context));
    let mut trace = PendingTrace {
        end_abs: 0,
        started,
        enqueued: started,
        ctx,
        kind: match &frame {
            Frame::Request(request) => request_kind(request),
            Frame::Ingest(_) => RequestKind::Ingest,
        },
        client_encode_ns: wire_trace.map(|t| t.client_encode_ns).unwrap_or(0),
        decode_ns,
        handle: Span::new(SpanKind::Handle, 0),
    };
    let service_started = Instant::now();
    let (response, index_hits, memo_hits) = match frame {
        Frame::Request(WireRequest::Flush) => {
            flush_ticket(token, trace, serving, answers);
            return Outcome::Ticketed;
        }
        Frame::Request(request) => handle_request(request, engine, collector, ctx),
        // The drain worker adds the batch's `queue_wait` span.
        Frame::Ingest(bodies) => {
            let accepted = bodies.len() as u32;
            let response = match queue.admit(token, bodies, ctx) {
                SubmitOutcome::Accepted { queue_depth } => WireResponse::IngestAck {
                    accepted,
                    queue_depth: queue_depth as u32,
                },
                SubmitOutcome::Busy { queue_depth } => WireResponse::Busy {
                    queue_depth: queue_depth as u32,
                },
            };
            (response, 0, 0)
        }
    };
    trace.handle = Span {
        kind: SpanKind::Handle,
        duration_ns: elapsed_ns(service_started),
        index_hits,
        memo_hits,
    };
    put_response(encoded, &response);
    trace.end_abs = encoded.len() as u64;
    Outcome::Answered(trace)
}

/// Hands a `Flush` to the ingest queue as connection `token`'s ticket
/// ([`IngestQueue::flush_then`]).  The queue's drain worker runs it once
/// the batches accepted before it are applied, encodes `Flushed` after a
/// sync, or the first failure of this connection's batches since its last
/// `Flush`, and hands the answer and `trace` back through `answers`; the
/// wait counts in the trace's `handle` span.
fn flush_ticket(token: u64, mut trace: PendingTrace, serving: &Serving, answers: &Arc<Answers>) {
    let (engine, answers) = (Arc::clone(&serving.engine), Arc::clone(answers));
    let handed_off = Instant::now();
    let done = move |result: Result<(), piprov_store::StoreError>| {
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
        put_response(&mut encoded, &response);
        trace.end_abs = encoded.len() as u64;
        trace.handle = Span::new(SpanKind::Handle, elapsed_ns(handed_off));
        // Push to `done`, then wake the loop thread.
        let mut done = answers.done.lock().expect("done lock");
        done.push((token, encoded, trace));
        drop(done);
        answers.wake.wake();
    };
    serving.queue.flush_then(token, Box::new(done));
}
