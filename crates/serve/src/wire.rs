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
//! the same one-byte tag discipline as the store's record bodies (see
//! [`piprov_store::codec`]), so an unknown version or message kind is a
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
pub const WIRE_VERSION: u8 = 11;

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
/// that accumulate bytes as readiness delivers them (the event loop's
/// read-accumulate state).
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
}
