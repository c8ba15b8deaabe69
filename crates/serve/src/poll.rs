//! Readiness polling for the event loop: one small, safe [`Poller`] and
//! [`WakeFd`] API over the host's readiness syscalls, bound by raw
//! `extern "C"` declarations against the system libc (the build
//! environment has no crates.io access, so there is no `libc` crate to
//! lean on — these syscall wrappers are the entire unsafe surface of the
//! workspace, and this module is the only one that may use `unsafe`).
//!
//! Two backends sit behind the one API, chosen by platform:
//!
//! * **Linux**: `epoll(7)` with an `eventfd(2)` wake.  The kernel keeps
//!   the interest list, so a wait costs the ready fds, not the registered
//!   ones — the event loop holds 10k idle connections at no per-wait cost.
//! * **Other Unix hosts**: `poll(2)` over an interest list kept here (a
//!   `Vec` of `pollfd` with parallel tokens), woken through a non-blocking
//!   Unix socket pair.  Each wait walks every registered fd.  On Linux
//!   this backend is compiled for its tests only.
//!
//! Both keep the kernel API's shape — level-triggered readiness, edge
//! cases and all — but own every file descriptor they create ([`Poller`]
//! and [`WakeFd`] close on drop) and never hand out raw pointers: callers
//! see [`Poller::wait`] filling a `Vec<(u64, u32)>` of
//! `(token, readiness)` pairs and nothing lower-level.  Readiness uses the
//! `EPOLL*` bit values, which equal their `POLL*` counterparts; `poll(2)`
//! has no [`EPOLLRDHUP`], so there a half-close shows as readable with
//! EOF, and an invalid fd (`POLLNVAL`) reports as [`EPOLLERR`].

#![allow(unsafe_code)]

use std::io;
use std::time::Duration;

#[cfg(target_os = "linux")]
pub use epoll::{Poller, WakeFd};
#[cfg(not(target_os = "linux"))]
pub use portable::{Poller, WakeFd};

/// Readiness: data to read (or a pending `accept`).
pub const EPOLLIN: u32 = 0x001;
/// Readiness: the socket's send buffer has room again.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition on the fd (always reported, never subscribed).
pub const EPOLLERR: u32 = 0x008;
/// Hang-up: the peer closed the connection.
pub const EPOLLHUP: u32 = 0x010;
/// The peer shut down its writing half (half-close).  Only epoll reports
/// it; the `poll(2)` backend ignores it in an interest set.
pub const EPOLLRDHUP: u32 = 0x2000;

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// A wait bound in the milliseconds both syscalls take: `-1` blocks, and a
/// `0 < t < 1 ms` bound rounds up so it still sleeps.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(t) => {
            i32::try_from(t.as_millis().max(u128::from(!t.is_zero() as u8))).unwrap_or(i32::MAX)
        }
    }
}

/// The soft `RLIMIT_NOFILE` bound: how many file descriptors this process
/// may hold open.  Connection-scaling tiers (the `e16_connscale` bench,
/// the CI smoke) consult this to degrade to a documented skip instead of
/// failing spuriously when `ulimit -n` is low.  Linux-only: the resource
/// number and `rlimit` layout bound here are Linux's.
#[cfg(target_os = "linux")]
pub fn max_open_files() -> Option<u64> {
    #[repr(C)]
    struct RLimit {
        rlim_cur: u64,
        rlim_max: u64,
    }
    const RLIMIT_NOFILE: i32 = 7;
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    }
    let mut limit = RLimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: `limit` is a valid, writable RLimit matching the kernel's
    // layout for this (resource, arch); getrlimit writes it or fails.
    let ret = unsafe { getrlimit(RLIMIT_NOFILE, &mut limit) };
    (ret == 0).then_some(limit.rlim_cur)
}

/// The Linux backend: `epoll(7)` and `eventfd(2)`.
#[cfg(target_os = "linux")]
mod epoll {
    use super::{cvt, timeout_ms};
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;

    /// The kernel's `struct epoll_event`.  Packed on x86-64 (the kernel
    /// UAPI declares it `__attribute__((packed))` there, and only there).
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    /// An owned `epoll` instance.  Closed on drop.
    #[derive(Debug)]
    pub struct Poller {
        fd: RawFd,
    }

    impl Poller {
        /// Creates a new epoll instance (close-on-exec).
        ///
        /// # Errors
        ///
        /// The OS error from `epoll_create1`.
        pub fn new() -> io::Result<Self> {
            // SAFETY: no pointers; the flag value is the kernel's
            // EPOLL_CLOEXEC.
            let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Poller { fd })
        }

        fn ctl(&mut self, op: i32, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
            let mut event = EpollEvent {
                events: interest,
                data: token,
            };
            // SAFETY: `event` is a valid EpollEvent for the duration of the
            // call; the kernel copies it before returning.  For DEL the
            // pointer is ignored on every kernel ≥ 2.6.9 but passing a
            // valid one is harmless.
            cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut event) })?;
            Ok(())
        }

        /// Registers `fd` for `interest`, delivering `token` with its
        /// events.
        ///
        /// # Errors
        ///
        /// The OS error from `epoll_ctl`.
        pub fn add(&mut self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, interest, token)
        }

        /// Changes the interest set of a registered `fd`.
        ///
        /// # Errors
        ///
        /// The OS error from `epoll_ctl`.
        pub fn modify(&mut self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, interest, token)
        }

        /// Deregisters `fd`.
        ///
        /// # Errors
        ///
        /// The OS error from `epoll_ctl` (already-closed fds surface
        /// `EBADF`; callers deregister before closing).
        pub fn delete(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Waits for readiness, filling `events` with `(token, readiness)`
        /// pairs.  `timeout` of `None` blocks until an event arrives; an
        /// `EINTR`-interrupted wait reports zero events rather than an
        /// error.
        ///
        /// # Errors
        ///
        /// The OS error from `epoll_wait` (never `EINTR`).
        pub fn wait(
            &mut self,
            events: &mut Vec<(u64, u32)>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            events.clear();
            let mut buf = [EpollEvent { events: 0, data: 0 }; 128];
            // SAFETY: `buf` is a valid array of 128 EpollEvents; the kernel
            // writes at most `maxevents` entries and returns how many.
            let ret = unsafe { epoll_wait(self.fd, buf.as_mut_ptr(), 128, timeout_ms(timeout)) };
            let n = match cvt(ret) {
                Ok(n) => n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
            for event in &buf[..n] {
                // Copy out of the (possibly packed) struct before use.
                let (token, readiness) = (event.data, event.events);
                events.push((token, readiness));
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: `self.fd` is the epoll fd this struct owns.
            unsafe { close(self.fd) };
        }
    }

    /// An `eventfd`-backed wake-up: any thread may [`WakeFd::wake`] the
    /// event loop out of `epoll_wait`; the loop [`WakeFd::drain`]s the
    /// counter and checks its queues.
    #[derive(Debug)]
    pub struct WakeFd {
        fd: RawFd,
    }

    impl WakeFd {
        /// Creates a non-blocking, close-on-exec eventfd.
        ///
        /// # Errors
        ///
        /// The OS error from `eventfd`.
        pub fn new() -> io::Result<Self> {
            // SAFETY: no pointers; flags are the kernel's EFD_* values.
            let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
            Ok(WakeFd { fd })
        }

        /// The fd to register with [`Poller::add`] (interest
        /// [`super::EPOLLIN`]).
        pub fn raw(&self) -> RawFd {
            self.fd
        }

        /// Signals the event loop.  Never blocks: an eventfd counter at
        /// `u64::MAX - 1` would make `write` spuriously fail, but that
        /// takes ~2^64 unconsumed wakes; the error is ignored by design
        /// because the loop is then already awash in wake-ups.
        pub fn wake(&self) {
            let one = 1u64.to_ne_bytes();
            // SAFETY: `one` is 8 valid bytes, the size eventfd writes
            // expect.
            unsafe { write(self.fd, one.as_ptr(), one.len()) };
        }

        /// Consumes all pending wake-ups (the level-triggered registration
        /// stops firing once the counter is back to zero).
        pub fn drain(&self) {
            let mut buf = [0u8; 8];
            // SAFETY: `buf` is 8 valid, writable bytes.  EFD_NONBLOCK makes
            // this return EAGAIN instead of blocking when already drained.
            unsafe { read(self.fd, buf.as_mut_ptr(), buf.len()) };
        }
    }

    impl Drop for WakeFd {
        fn drop(&mut self) {
            // SAFETY: `self.fd` is the eventfd this struct owns.
            unsafe { close(self.fd) };
        }
    }
}

/// The portable backend: `poll(2)` and a Unix socket pair.
#[cfg(any(test, not(target_os = "linux")))]
mod portable {
    use super::{cvt, timeout_ms, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
    use std::io::{self, Read as _, Write as _};
    use std::os::unix::io::{AsRawFd, RawFd};
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    /// `poll(2)`'s count type: `unsigned long` on Linux, `unsigned int` on
    /// macOS and the BSDs.
    #[cfg(target_os = "linux")]
    type NfdsT = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NfdsT = std::os::raw::c_uint;

    /// The fd was not open: reported as [`EPOLLERR`].
    const POLLNVAL: u32 = 0x020;

    /// The C library's `struct pollfd`.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
    }

    /// A `poll(2)` interest list: the registered fds with their interest,
    /// and each one's token at the same index.
    #[derive(Debug, Default)]
    pub struct Poller {
        fds: Vec<PollFd>,
        tokens: Vec<u64>,
    }

    impl Poller {
        /// Creates an empty interest list.
        ///
        /// # Errors
        ///
        /// None; the `Result` matches the epoll backend's.
        pub fn new() -> io::Result<Self> {
            Ok(Poller::default())
        }

        fn index(&self, fd: RawFd) -> io::Result<usize> {
            self.fds
                .iter()
                .position(|p| p.fd == fd)
                .ok_or_else(|| io::Error::from(io::ErrorKind::NotFound))
        }

        /// Registers `fd` for `interest`, delivering `token` with its
        /// events.
        ///
        /// # Errors
        ///
        /// `AlreadyExists` if `fd` is registered.
        pub fn add(&mut self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
            if self.index(fd).is_ok() {
                return Err(io::ErrorKind::AlreadyExists.into());
            }
            self.fds.push(PollFd {
                fd,
                events: poll_events(interest),
                revents: 0,
            });
            self.tokens.push(token);
            Ok(())
        }

        /// Changes the interest set of a registered `fd`.
        ///
        /// # Errors
        ///
        /// `NotFound` if `fd` is not registered.
        pub fn modify(&mut self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
            let i = self.index(fd)?;
            self.fds[i].events = poll_events(interest);
            self.tokens[i] = token;
            Ok(())
        }

        /// Deregisters `fd`.
        ///
        /// # Errors
        ///
        /// `NotFound` if `fd` is not registered.
        pub fn delete(&mut self, fd: RawFd) -> io::Result<()> {
            let i = self.index(fd)?;
            self.fds.swap_remove(i);
            self.tokens.swap_remove(i);
            Ok(())
        }

        /// Waits for readiness, filling `events` with `(token, readiness)`
        /// pairs.  `timeout` of `None` blocks until an event arrives; an
        /// `EINTR`-interrupted wait reports zero events rather than an
        /// error.
        ///
        /// # Errors
        ///
        /// The OS error from `poll` (never `EINTR`).
        pub fn wait(
            &mut self,
            events: &mut Vec<(u64, u32)>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            events.clear();
            // SAFETY: `fds` is a valid, writable array of `len` PollFds;
            // the kernel writes only their `revents` fields.
            let ret = unsafe {
                poll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as NfdsT,
                    timeout_ms(timeout),
                )
            };
            match cvt(ret) {
                Ok(0) => return Ok(()),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(()),
                Err(e) => return Err(e),
            }
            for (p, &token) in self.fds.iter().zip(&self.tokens) {
                let revents = u32::from(p.revents as u16);
                if revents != 0 {
                    let nval = if revents & POLLNVAL != 0 { EPOLLERR } else { 0 };
                    let ready = revents & (EPOLLIN | EPOLLOUT | EPOLLERR | EPOLLHUP);
                    events.push((token, ready | nval));
                }
            }
            Ok(())
        }
    }

    /// The `POLL*` bits of an interest set (their values equal the
    /// `EPOLL*` ones); `EPOLLRDHUP` has no counterpart and is dropped.
    fn poll_events(interest: u32) -> i16 {
        (interest & (EPOLLIN | EPOLLOUT)) as i16
    }

    /// A socket-pair wake-up: any thread may [`WakeFd::wake`] the event
    /// loop out of `poll`; the loop [`WakeFd::drain`]s the pending bytes
    /// and checks its queues.
    #[derive(Debug)]
    pub struct WakeFd {
        reader: UnixStream,
        writer: UnixStream,
    }

    impl WakeFd {
        /// Creates a non-blocking, close-on-exec socket pair.
        ///
        /// # Errors
        ///
        /// The OS error from `socketpair` or `fcntl`.
        pub fn new() -> io::Result<Self> {
            let (reader, writer) = UnixStream::pair()?;
            reader.set_nonblocking(true)?;
            writer.set_nonblocking(true)?;
            Ok(WakeFd { reader, writer })
        }

        /// The fd to register with [`Poller::add`] (interest
        /// [`EPOLLIN`]).
        pub fn raw(&self) -> RawFd {
            self.reader.as_raw_fd()
        }

        /// Signals the event loop.  Never blocks: a full socket buffer
        /// means wake-ups are already pending, so the failed write is
        /// ignored by design.
        pub fn wake(&self) {
            let _ = (&self.writer).write(&[1]);
        }

        /// Consumes all pending wake-ups (the level-triggered registration
        /// stops firing once the socket is empty).
        pub fn drain(&self) {
            let mut buf = [0u8; 64];
            while matches!((&self.reader).read(&mut buf), Ok(n) if n > 0) {}
        }
    }
}

#[cfg(test)]
mod tests {
    /// The backend contract, run against one backend's `Poller` and
    /// `WakeFd`.
    macro_rules! backend_tests {
        ($backend:ident) => {
            mod $backend {
                use crate::poll::$backend::{Poller, WakeFd};
                use crate::poll::{EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
                use std::io::{Read as _, Write as _};
                use std::net::{TcpListener, TcpStream};
                use std::os::unix::io::AsRawFd;
                use std::time::Duration;

                #[test]
                fn wake_fd_rouses_an_idle_wait() {
                    let mut poller = Poller::new().unwrap();
                    let wake = WakeFd::new().unwrap();
                    poller.add(wake.raw(), EPOLLIN, 7).unwrap();

                    let mut events = Vec::new();
                    // Nothing pending: a bounded wait times out empty.
                    poller
                        .wait(&mut events, Some(Duration::from_millis(10)))
                        .unwrap();
                    assert!(events.is_empty());

                    wake.wake();
                    poller
                        .wait(&mut events, Some(Duration::from_secs(5)))
                        .unwrap();
                    assert_eq!(events.len(), 1);
                    assert_eq!(events[0].0, 7, "the registered token comes back");
                    assert_ne!(events[0].1 & EPOLLIN, 0);

                    // Drained, the level-triggered fd goes quiet again.
                    wake.drain();
                    poller
                        .wait(&mut events, Some(Duration::from_millis(10)))
                        .unwrap();
                    assert!(events.is_empty());
                }

                #[test]
                fn socket_readiness_reports_the_registered_token() {
                    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                    let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                    let (server_side, _) = listener.accept().unwrap();
                    server_side.set_nonblocking(true).unwrap();

                    let mut poller = Poller::new().unwrap();
                    poller
                        .add(server_side.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 42)
                        .unwrap();

                    client.write_all(b"ping").unwrap();
                    let mut events = Vec::new();
                    poller
                        .wait(&mut events, Some(Duration::from_secs(5)))
                        .unwrap();
                    assert!(events.iter().any(|&(t, r)| t == 42 && r & EPOLLIN != 0));
                    let mut buf = [0u8; 4];
                    (&server_side).read_exact(&mut buf).unwrap();
                    assert_eq!(&buf, b"ping");

                    // Peer close surfaces as RDHUP, HUP or IN for the
                    // pending EOF, depending on the backend.
                    drop(client);
                    poller
                        .wait(&mut events, Some(Duration::from_secs(5)))
                        .unwrap();
                    assert!(events
                        .iter()
                        .any(|&(t, r)| t == 42 && r & (EPOLLRDHUP | EPOLLHUP | EPOLLIN) != 0));

                    poller.delete(server_side.as_raw_fd()).unwrap();
                }

                #[test]
                fn modify_switches_interest_to_writability() {
                    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                    let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                    let (server_side, _) = listener.accept().unwrap();
                    let mut poller = Poller::new().unwrap();
                    poller.add(server_side.as_raw_fd(), EPOLLIN, 1).unwrap();

                    // An idle, writable socket with IN-only interest stays
                    // silent...
                    let mut events = Vec::new();
                    poller
                        .wait(&mut events, Some(Duration::from_millis(10)))
                        .unwrap();
                    assert!(events.is_empty());
                    // ...until interest includes OUT.
                    poller
                        .modify(server_side.as_raw_fd(), EPOLLIN | EPOLLOUT, 1)
                        .unwrap();
                    poller
                        .wait(&mut events, Some(Duration::from_secs(5)))
                        .unwrap();
                    assert!(events.iter().any(|&(t, r)| t == 1 && r & EPOLLOUT != 0));
                    drop(client);
                }
            }
        };
    }

    #[cfg(target_os = "linux")]
    backend_tests!(epoll);
    backend_tests!(portable);

    #[cfg(target_os = "linux")]
    #[test]
    fn fd_limit_is_reported() {
        let limit = super::max_open_files().expect("getrlimit works on Linux");
        assert!(limit >= 64, "even constrained CI grants a few fds");
    }
}
