//! The framing layer: length-prefixed, CRC-guarded, versioned frames.
//!
//! Every message travels as one frame:
//!
//! ```text
//! ┌─────────┬─────────┬───────────────────────────────────┐
//! │ len u32 │ crc u32 │ body (len bytes)                  │
//! └─────────┴─────────┴───────────────────────────────────┘
//!                       └─ version u8 │ tag u8 │ payload ─┘
//! ```
//!
//! The CRC (the same dependency-free CRC-32 the store's segment files use,
//! [`piprov_store::codec::crc32`]) covers the body; the body's first byte
//! is the wire version ([`WIRE_VERSION`]) and its second the message tag —
//! the same one-byte tag discipline as the store's
//! [`piprov_store::BodyFormat`], so an unknown version or message kind is a
//! *typed* decode error, never a guess.
//!
//! **Decode-side caps.**  The length prefix is attacker-controlled input:
//! [`read_frame`] refuses any frame longer than the configured cap
//! *before* allocating, so a hostile prefix (`0xFFFF_FFFF`) costs the
//! server a 4-byte compare, not 4 GiB of memory.  The message codec in
//! [`crate::codec`] applies the same discipline to every embedded count.

use bytes::Bytes;
use piprov_store::codec::crc32;
use std::fmt;
use std::io::{ErrorKind, Read, Write};

/// Version byte every frame body starts with.  Encoders write it and
/// decoders accept nothing else: every peer is built from this
/// repository, so a body with any other version byte is refused with a
/// typed [`WireError::UnsupportedVersion`] rather than read under rules
/// this codec no longer has.
pub const WIRE_VERSION: u8 = 7;

/// Default cap on the length prefix a peer will honour (16 MiB — far above
/// any legitimate message, far below a memory-exhaustion attack).
pub const DEFAULT_MAX_FRAME_LEN: u32 = 16 << 20;

/// Default cap on the number of records any one decoded message may carry.
pub const DEFAULT_MAX_RECORDS: u32 = 65_536;

/// Decode-side caps applied to attacker-controlled sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireLimits {
    /// Longest frame body accepted (the length prefix is checked against
    /// this before any allocation).
    pub max_frame_len: u32,
    /// Most records accepted in one `IngestBatch` or `Trail` message.
    pub max_records: u32,
}

impl Default for WireLimits {
    fn default() -> Self {
        WireLimits {
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            max_records: DEFAULT_MAX_RECORDS,
        }
    }
}

/// Everything that can go wrong at the wire and codec layers.
#[derive(Debug)]
pub enum WireError {
    /// An I/O error from the underlying stream.
    Io(std::io::Error),
    /// The length prefix exceeded the configured cap; nothing was
    /// allocated.
    FrameTooLarge {
        /// The hostile (or merely oversized) length prefix.
        len: u32,
        /// The configured cap it exceeded.
        max: u32,
    },
    /// The body did not match its CRC.
    ChecksumMismatch,
    /// The body's version byte is not [`WIRE_VERSION`].
    UnsupportedVersion(u8),
    /// The body was structurally invalid (truncated field, unknown tag,
    /// over-cap count, bad UTF-8, …).
    Malformed(String),
    /// A read timeout fired at a frame boundary — no header byte had
    /// arrived.  This is the server's idle tick between frames, not a
    /// failure: the stream is still positioned at the boundary and the
    /// caller may simply call [`read_frame`] again.  A timeout *mid-frame*
    /// is never this variant (it surfaces as [`WireError::Io`]), so
    /// retrying on `IdleTimeout` can never desynchronize the framing.
    IdleTimeout,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {}", e),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame of {} bytes exceeds the {} byte cap", len, max)
            }
            WireError::ChecksumMismatch => write!(f, "frame body failed its CRC check"),
            WireError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported wire version {} (speaking {})",
                    v, WIRE_VERSION
                )
            }
            WireError::Malformed(what) => write!(f, "malformed frame: {}", what),
            WireError::IdleTimeout => write!(f, "idle read timeout at a frame boundary"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl WireError {
    /// `true` only for [`WireError::IdleTimeout`] — the between-frames
    /// tick it is safe to retry after.  A timeout that fires *mid-frame*
    /// reports as [`WireError::Io`] and returns `false` here: bytes were
    /// already consumed, so retrying would desynchronize the framing.
    pub fn is_timeout(&self) -> bool {
        matches!(self, WireError::IdleTimeout)
    }
}

/// Writes one frame (header + body).  The caller flushes.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_frame(writer: &mut impl Write, body: &[u8]) -> Result<(), WireError> {
    let mut header = [0u8; 8];
    header[..4].copy_from_slice(&(body.len() as u32).to_be_bytes());
    header[4..].copy_from_slice(&crc32(body).to_be_bytes());
    writer.write_all(&header)?;
    writer.write_all(body)?;
    Ok(())
}

/// Reads one frame, returning `Ok(None)` on a clean end-of-stream at a
/// frame boundary.
///
/// A read timeout that fires *before any header byte arrived* surfaces as
/// [`WireError::IdleTimeout`] and leaves the stream positioned at the
/// boundary, so the caller can poll a shutdown flag and simply call
/// again; a timeout mid-frame is a real [`WireError::Io`] error
/// ([`WireError::is_timeout`] distinguishes the two).
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] if the length prefix exceeds `max_len`
/// (checked before allocating), [`WireError::ChecksumMismatch`] if the
/// body fails its CRC, [`WireError::Malformed`] on truncation mid-frame,
/// or [`WireError::Io`].
pub fn read_frame(reader: &mut impl Read, max_len: u32) -> Result<Option<Bytes>, WireError> {
    let mut header = [0u8; 8];
    let mut filled = 0usize;
    while filled < header.len() {
        match reader.read(&mut header[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(WireError::Malformed("truncated frame header".into()));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e)
                if filled == 0
                    && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                return Err(WireError::IdleTimeout);
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(header[..4].try_into().expect("4 bytes"));
    let expected_crc = u32::from_be_bytes(header[4..].try_into().expect("4 bytes"));
    if len > max_len {
        return Err(WireError::FrameTooLarge { len, max: max_len });
    }
    let mut body = vec![0u8; len as usize];
    reader.read_exact(&mut body).map_err(|e| {
        if e.kind() == ErrorKind::UnexpectedEof {
            WireError::Malformed("truncated frame body".into())
        } else {
            WireError::Io(e)
        }
    })?;
    if crc32(&body) != expected_crc {
        return Err(WireError::ChecksumMismatch);
    }
    Ok(Some(Bytes::from(body)))
}

/// Tries to parse one complete frame from the front of `buf` — the
/// incremental counterpart of [`read_frame`] for non-blocking readers
/// that accumulate bytes as readiness delivers them (the event-loop
/// server core's read-accumulate state).
///
/// Returns `Ok(None)` when `buf` holds only a prefix of a frame (read
/// more and call again) and `Ok(Some((consumed, body)))` when a full
/// frame was available: the caller drains `consumed` bytes off the front
/// of its buffer and owns the decoded body.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] as soon as the four length-prefix bytes
/// are present and over `max_len` (nothing further is buffered for a
/// hostile prefix), or [`WireError::ChecksumMismatch`] once the complete
/// body is present but fails its CRC.
pub fn try_parse_frame(buf: &[u8], max_len: u32) -> Result<Option<(usize, Bytes)>, WireError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes(buf[..4].try_into().expect("4 bytes"));
    if len > max_len {
        return Err(WireError::FrameTooLarge { len, max: max_len });
    }
    if buf.len() < 8 {
        return Ok(None);
    }
    let expected_crc = u32::from_be_bytes(buf[4..8].try_into().expect("4 bytes"));
    let total = 8 + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let body = &buf[8..total];
    if crc32(body) != expected_crc {
        return Err(WireError::ChecksumMismatch);
    }
    Ok(Some((total, Bytes::from(body.to_vec()))))
}

/// The first bytes of an HTTP GET request line — what a frame's length
/// prefix would be if the peer is actually a plaintext HTTP scraper
/// (`0x47455420` ≈ 1.19 GiB, far above any sane frame cap, so no framed
/// peer can collide with it).
pub const HTTP_GET_PREFIX: [u8; 4] = *b"GET ";

/// What [`read_frame_or_http`] found at the frame boundary.
#[derive(Debug)]
pub enum FrameOrHttp {
    /// Clean end-of-stream at the boundary.
    Eof,
    /// One complete, CRC-checked frame body.
    Frame(Bytes),
    /// The peer is speaking plaintext HTTP: the 8 bytes read as a frame
    /// header are actually the start of a `GET ` request line (returned
    /// so the caller can keep parsing the line from its beginning).
    HttpGet([u8; 8]),
}

/// Reads one frame like [`read_frame`], additionally detecting a
/// plaintext `GET ` where the length prefix would be — the `/metrics`
/// scrape path.  Timeout semantics are identical to [`read_frame`]:
/// a boundary stall is a retryable [`WireError::IdleTimeout`], a
/// mid-frame stall is [`WireError::Io`].
///
/// # Errors
///
/// As [`read_frame`].
pub fn read_frame_or_http(reader: &mut impl Read, max_len: u32) -> Result<FrameOrHttp, WireError> {
    let mut header = [0u8; 8];
    let mut filled = 0usize;
    while filled < header.len() {
        match reader.read(&mut header[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(FrameOrHttp::Eof);
                }
                return Err(WireError::Malformed("truncated frame header".into()));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e)
                if filled == 0
                    && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                return Err(WireError::IdleTimeout);
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    if header[..4] == HTTP_GET_PREFIX {
        return Ok(FrameOrHttp::HttpGet(header));
    }
    let len = u32::from_be_bytes(header[..4].try_into().expect("4 bytes"));
    let expected_crc = u32::from_be_bytes(header[4..].try_into().expect("4 bytes"));
    if len > max_len {
        return Err(WireError::FrameTooLarge { len, max: max_len });
    }
    let mut body = vec![0u8; len as usize];
    reader.read_exact(&mut body).map_err(|e| {
        if e.kind() == ErrorKind::UnexpectedEof {
            WireError::Malformed("truncated frame body".into())
        } else {
            WireError::Io(e)
        }
    })?;
    if crc32(&body) != expected_crc {
        return Err(WireError::ChecksumMismatch);
    }
    Ok(FrameOrHttp::Frame(Bytes::from(body)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut out = Vec::new();
        write_frame(&mut out, b"hello").unwrap();
        write_frame(&mut out, b"").unwrap();
        let mut cursor = Cursor::new(out);
        assert_eq!(
            read_frame(&mut cursor, 1024).unwrap().unwrap().as_ref(),
            b"hello"
        );
        assert_eq!(read_frame(&mut cursor, 1024).unwrap().unwrap().len(), 0);
        assert!(
            read_frame(&mut cursor, 1024).unwrap().is_none(),
            "clean EOF"
        );
    }

    #[test]
    fn hostile_length_prefix_is_rejected_before_allocating() {
        // A 4 GiB length prefix with no body behind it: the cap check must
        // fire on the prefix alone.
        let mut frame = Vec::new();
        frame.extend_from_slice(&u32::MAX.to_be_bytes());
        frame.extend_from_slice(&0u32.to_be_bytes());
        let mut cursor = Cursor::new(frame);
        match read_frame(&mut cursor, 1 << 20) {
            Err(WireError::FrameTooLarge { len, max }) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, 1 << 20);
            }
            other => panic!("expected FrameTooLarge, got {:?}", other),
        }
    }

    #[test]
    fn bad_crc_is_a_typed_error() {
        let mut out = Vec::new();
        write_frame(&mut out, b"payload").unwrap();
        let last = out.len() - 1;
        out[last] ^= 0xFF;
        let mut cursor = Cursor::new(out);
        assert!(matches!(
            read_frame(&mut cursor, 1024),
            Err(WireError::ChecksumMismatch)
        ));
    }

    #[test]
    fn truncation_is_a_typed_error_not_a_hang_or_panic() {
        let mut out = Vec::new();
        write_frame(&mut out, b"some body bytes").unwrap();
        // Mid-header.
        let mut cursor = Cursor::new(out[..5].to_vec());
        assert!(matches!(
            read_frame(&mut cursor, 1024),
            Err(WireError::Malformed(_))
        ));
        // Mid-body.
        let mut cursor = Cursor::new(out[..out.len() - 4].to_vec());
        assert!(matches!(
            read_frame(&mut cursor, 1024),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn errors_display_their_cause() {
        assert!(WireError::ChecksumMismatch.to_string().contains("CRC"));
        assert!(WireError::FrameTooLarge { len: 9, max: 8 }
            .to_string()
            .contains("cap"));
        assert!(WireError::UnsupportedVersion(9).to_string().contains("9"));
        assert!(!WireError::ChecksumMismatch.is_timeout());
        assert!(WireError::IdleTimeout.is_timeout());
    }

    #[test]
    fn incremental_parse_matches_the_blocking_reader_byte_for_byte() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"first").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"third frame body").unwrap();

        // Feed the accumulated buffer one byte at a time: every prefix
        // short of a full frame parses to None, and each completed frame
        // pops exactly once with the right body.
        let mut buf: Vec<u8> = Vec::new();
        let mut bodies: Vec<Vec<u8>> = Vec::new();
        for byte in &wire {
            buf.push(*byte);
            while let Some((consumed, body)) = try_parse_frame(&buf, 1024).unwrap() {
                bodies.push(body.as_ref().to_vec());
                buf.drain(..consumed);
            }
        }
        assert!(buf.is_empty(), "every byte belonged to some frame");
        assert_eq!(
            bodies,
            vec![b"first".to_vec(), Vec::new(), b"third frame body".to_vec()]
        );
    }

    #[test]
    fn incremental_parse_rejects_hostile_prefixes_with_four_bytes() {
        // The cap fires as soon as the length prefix is readable — the
        // parser never asks for (or buffers toward) the advertised body.
        let hostile = u32::MAX.to_be_bytes();
        assert!(matches!(
            try_parse_frame(&hostile, 1 << 20),
            Err(WireError::FrameTooLarge { len: u32::MAX, .. })
        ));
        // Under four bytes nothing is decidable yet.
        assert!(matches!(try_parse_frame(&hostile[..3], 1 << 20), Ok(None)));
    }

    #[test]
    fn incremental_parse_checks_the_crc_only_on_the_full_body() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        let last = wire.len() - 1;
        wire[last] ^= 0xFF;
        // One byte short: undecidable, not yet an error.
        assert!(matches!(
            try_parse_frame(&wire[..wire.len() - 1], 1024),
            Ok(None)
        ));
        assert!(matches!(
            try_parse_frame(&wire, 1024),
            Err(WireError::ChecksumMismatch)
        ));
    }

    #[test]
    fn the_sniffing_reader_forks_frames_from_http() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"framed").unwrap();
        let mut cursor = Cursor::new(wire);
        assert!(matches!(
            read_frame_or_http(&mut cursor, 1024).unwrap(),
            FrameOrHttp::Frame(body) if body.as_ref() == b"framed"
        ));
        assert!(matches!(
            read_frame_or_http(&mut cursor, 1024).unwrap(),
            FrameOrHttp::Eof
        ));

        let mut http = Cursor::new(b"GET /metrics HTTP/1.1\r\n\r\n".to_vec());
        match read_frame_or_http(&mut http, 1024).unwrap() {
            FrameOrHttp::HttpGet(prefix) => assert_eq!(&prefix, b"GET /met"),
            other => panic!("expected HttpGet, got {:?}", other),
        }
    }

    /// Yields `prefix` bytes, then times out on every further read —
    /// simulating a stalled peer under a socket read timeout.
    struct StallAfter {
        prefix: Vec<u8>,
        served: usize,
    }

    impl Read for StallAfter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.served < self.prefix.len() {
                let n = buf.len().min(self.prefix.len() - self.served);
                buf[..n].copy_from_slice(&self.prefix[self.served..self.served + n]);
                self.served += n;
                Ok(n)
            } else {
                Err(std::io::Error::new(ErrorKind::WouldBlock, "stalled"))
            }
        }
    }

    #[test]
    fn idle_timeout_is_retryable_but_a_mid_frame_stall_is_not() {
        // Timeout at the frame boundary: typed IdleTimeout, safe to retry.
        let mut idle = StallAfter {
            prefix: Vec::new(),
            served: 0,
        };
        let err = read_frame(&mut idle, 1024).unwrap_err();
        assert!(
            err.is_timeout(),
            "boundary stall is the idle tick: {:?}",
            err
        );

        // The same timeout after 3 header bytes were consumed must NOT be
        // retryable — a retry would read the remaining bytes as a fresh
        // header and desynchronize the framing.
        let mut frame = Vec::new();
        write_frame(&mut frame, b"payload").unwrap();
        let mut stalled = StallAfter {
            prefix: frame[..3].to_vec(),
            served: 0,
        };
        let err = read_frame(&mut stalled, 1024).unwrap_err();
        assert!(
            matches!(&err, WireError::Io(_)),
            "mid-header stall is a real error: {:?}",
            err
        );
        assert!(!err.is_timeout());

        // Likewise a stall mid-body (full header consumed).
        let mut stalled = StallAfter {
            prefix: frame[..frame.len() - 2].to_vec(),
            served: 0,
        };
        let err = read_frame(&mut stalled, 1024).unwrap_err();
        assert!(
            !err.is_timeout(),
            "mid-body stall is a real error: {:?}",
            err
        );
    }
}
