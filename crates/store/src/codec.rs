//! Binary encoding of provenance records.
//!
//! Each record is framed as
//!
//! ```text
//! ┌─────────┬─────────┬──────────────────────────────┐
//! │ len u32 │ crc u32 │ body (len bytes)             │
//! └─────────┴─────────┴──────────────────────────────┘
//! ```
//!
//! where the CRC covers the body.  It is [`crc32`] (CRC-32/ISO-HDLC, a
//! slicing-by-8 table kernel), the checksum every wire frame of
//! `piprov-serve` carries too.  The body starts with a one-byte
//! **format version tag** followed by length-prefixed fields in a fixed
//! order; the two versions differ only in how the provenance annotation is
//! laid out:
//!
//! * [`BodyFormat::LegacyPreorder`] (tag 1) — the original format: the
//!   provenance *tree* as a preorder `(depth, principal, direction)` list
//!   (see [`crate::record::flatten_provenance`]).  Record size is
//!   O(`total_size`), i.e. proportional to the logical tree, which blows
//!   up exponentially under channel-chained histories.
//! * [`BodyFormat::Dag`] (tag 2, the default) — the provenance *DAG*:
//!   every distinct interned node is encoded exactly once, in postorder,
//!   and refers to its channel provenance and tail by back-reference.
//!   Record size is O(distinct nodes), matching the in-memory sharing of
//!   the interner.
//!
//! Bodies written before the version tag existed are still readable: the
//! untagged format began with the record's `u64` sequence number, whose
//! first byte is 0 for any sequence below 2⁵⁶, and 0 is not a valid tag —
//! so the decoder treats a leading 0 as an untagged preorder body.  All
//! formats are self-contained (decoding never requires information outside
//! the frame) and remain readable forever; only the encoder's default
//! moved to the DAG format.  Either decoder refuses a provenance nested
//! deeper than [`MAX_PROVENANCE_DEPTH`] as [`StoreError::Corrupt`].

use crate::error::StoreError;
use crate::record::{
    direction_from_tag, direction_tag, flatten_provenance, unflatten_provenance, Operation,
    ProvenanceRecord, MAX_PROVENANCE_DEPTH,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use piprov_core::name::Principal;
use piprov_core::provenance::{Direction, Event, ProvId, Provenance};
use piprov_core::value::Value;
use std::collections::HashMap;

/// Magic byte identifying a value stored as a channel name.
const VALUE_CHANNEL: u8 = 0;
/// Magic byte identifying a value stored as a principal name.
const VALUE_PRINCIPAL: u8 = 1;

/// How a record body lays out the provenance annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BodyFormat {
    /// Version 1: preorder expansion of the provenance tree (the seed
    /// format, O(tree) sized).  Kept readable for old segments; no longer
    /// written by default.
    LegacyPreorder,
    /// Version 2: one entry per distinct interned DAG node with
    /// back-references (O(DAG) sized).  The default.
    #[default]
    Dag,
}

impl BodyFormat {
    /// The on-disk version tag.
    pub fn tag(self) -> u8 {
        match self {
            BodyFormat::LegacyPreorder => 1,
            BodyFormat::Dag => 2,
        }
    }

    /// Inverse of [`BodyFormat::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(BodyFormat::LegacyPreorder),
            2 => Some(BodyFormat::Dag),
            _ => None,
        }
    }
}

/// The reflected IEEE CRC-32 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `CRC_TABLES[0][b]` is the CRC register after
/// shifting byte `b` through the polynomial, and `CRC_TABLES[k][b]` is the
/// same byte followed by `k` zero bytes.  Built at compile time (8 KiB).
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut byte = 0;
        while byte < 256 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            byte += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32/ISO-HDLC, the checksum of every segment record and wire frame:
/// the reflected IEEE polynomial with init and xor-out `0xFFFF_FFFF` (the
/// zlib/Ethernet CRC; `crc32(b"123456789") == 0xCBF4_3926`).
///
/// Slicing-by-8: each step folds the register into the block's first
/// four bytes and looks all 8 bytes up at once, byte `i` in table `7 - i`;
/// the tail of fewer than 8 bytes goes through the byte table.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut blocks = data.chunks_exact(8);
    for block in &mut blocks {
        let head = crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        let [h0, h1, h2, h3] = head.to_le_bytes();
        crc = t[7][h0 as usize]
            ^ t[6][h1 as usize]
            ^ t[5][h2 as usize]
            ^ t[4][h3 as usize]
            ^ t[3][block[4] as usize]
            ^ t[2][block[5] as usize]
            ^ t[1][block[6] as usize]
            ^ t[0][block[7] as usize];
    }
    for &byte in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// Writes a length-prefixed (`u16`) UTF-8 string.
///
/// Shared with the wire codec of `piprov-serve`: both layers speak the same
/// primitive vocabulary, so a record travels the socket and the segment file
/// in one encoding.  Strings longer than `u16::MAX` bytes are not
/// representable: they are **truncated at the last UTF-8 boundary that
/// fits** (debug builds assert first) rather than writing a wrapped length
/// prefix, so an absurd name can never desynchronize the surrounding frame
/// or poison a segment.  Callers hold names (principals, channels, pattern
/// names), which are short.
pub fn put_str(buf: &mut BytesMut, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize, "name too long for u16 prefix");
    let mut len = s.len().min(u16::MAX as usize);
    while !s.is_char_boundary(len) {
        len -= 1;
    }
    buf.put_u16(len as u16);
    buf.put_slice(&s.as_bytes()[..len]);
}

/// Reads a string written by [`put_str`], validating UTF-8 and bounds.
///
/// # Errors
///
/// Returns [`StoreError::Corrupt`] on truncation or invalid UTF-8.
pub fn get_str(buf: &mut Bytes) -> Result<String, StoreError> {
    get_name(buf)
}

/// Reads a string written by [`put_str`] straight into a name type such
/// as [`Principal`] or [`Channel`](piprov_core::name::Channel): UTF-8 is
/// checked on the borrowed bytes, so building the name is the only
/// allocation.
///
/// # Errors
///
/// As [`get_str`].
pub fn get_name<N: for<'a> From<&'a str>>(buf: &mut Bytes) -> Result<N, StoreError> {
    if buf.remaining() < 2 {
        return Err(StoreError::Corrupt("truncated string length".into()));
    }
    let len = buf.get_u16() as usize;
    if buf.remaining() < len {
        return Err(StoreError::Corrupt("truncated string body".into()));
    }
    let name = std::str::from_utf8(&buf[..len])
        .map(N::from)
        .map_err(|_| StoreError::Corrupt("invalid utf-8 in record".into()))?;
    buf.advance(len);
    Ok(name)
}

/// Writes a tagged [`Value`] (channel or principal name).
///
/// Reused by the `piprov-serve` wire codec; see [`put_str`].
pub fn put_value(buf: &mut BytesMut, value: &Value) {
    match value {
        Value::Channel(c) => {
            buf.put_u8(VALUE_CHANNEL);
            put_str(buf, c.as_str());
        }
        Value::Principal(p) => {
            buf.put_u8(VALUE_PRINCIPAL);
            put_str(buf, p.as_str());
        }
    }
}

/// Reads a value written by [`put_value`].
///
/// # Errors
///
/// Returns [`StoreError::Corrupt`] on truncation or an unknown tag.
pub fn get_value(buf: &mut Bytes) -> Result<Value, StoreError> {
    if buf.remaining() < 1 {
        return Err(StoreError::Corrupt("truncated value tag".into()));
    }
    match buf.get_u8() {
        VALUE_CHANNEL => Ok(Value::Channel(get_name(buf)?)),
        VALUE_PRINCIPAL => Ok(Value::Principal(get_name(buf)?)),
        other => Err(StoreError::Corrupt(format!("unknown value tag {}", other))),
    }
}

/// Writes the provenance section of a legacy (preorder) body.
fn put_provenance_preorder(buf: &mut BytesMut, provenance: &Provenance) {
    let flat = flatten_provenance(provenance);
    buf.put_u32(flat.len() as u32);
    for (depth, event) in &flat {
        buf.put_u32(*depth);
        buf.put_u8(direction_tag(event.direction));
        put_str(buf, event.principal.as_str());
    }
}

/// Reads the provenance section of a legacy (preorder) body.
fn get_provenance_preorder(buf: &mut Bytes) -> Result<Provenance, StoreError> {
    if buf.remaining() < 4 {
        return Err(StoreError::Corrupt("truncated provenance length".into()));
    }
    let count = buf.get_u32() as usize;
    // A valid entry consumes at least 7 bytes; cap the pre-allocation so a
    // corrupt count cannot request unbounded memory before the bounds
    // checks below reject it.
    let mut flat = Vec::with_capacity(count.min(buf.remaining() / 7 + 1));
    for _ in 0..count {
        if buf.remaining() < 5 {
            return Err(StoreError::Corrupt("truncated provenance entry".into()));
        }
        let depth = buf.get_u32();
        let direction = direction_from_tag(buf.get_u8())
            .ok_or_else(|| StoreError::Corrupt("unknown direction tag".into()))?;
        let p: Principal = get_name(buf)?;
        let event = match direction {
            Direction::Output => Event::output(p, Provenance::empty()),
            Direction::Input => Event::input(p, Provenance::empty()),
        };
        flat.push((depth, event));
    }
    unflatten_provenance(&flat).ok_or_else(|| {
        StoreError::Corrupt(format!(
            "provenance entries out of preorder or nested deeper than {} levels",
            MAX_PROVENANCE_DEPTH
        ))
    })
}

/// Writes the provenance section of a DAG body: one entry per distinct
/// interned node, children (channel provenance and tail) before parents,
/// then the root reference.  Reference 0 is `ε`; reference `k` is the
/// `k`-th node of the section (1-based).
fn put_provenance_dag(buf: &mut BytesMut, provenance: &Provenance, nodes: &[Provenance]) {
    let mut index: HashMap<ProvId, u32> = HashMap::with_capacity(nodes.len());
    let reference = |index: &HashMap<ProvId, u32>, p: &Provenance| -> u32 {
        if p.is_empty() {
            0
        } else {
            *index.get(&p.id()).expect("postorder lists children first")
        }
    };
    buf.put_u32(nodes.len() as u32);
    for (i, node) in nodes.iter().enumerate() {
        let event = node.head().expect("dag nodes are non-empty");
        let tail = node.tail().expect("dag nodes are non-empty");
        buf.put_u8(direction_tag(event.direction));
        put_str(buf, event.principal.as_str());
        buf.put_u32(reference(&index, &event.channel_provenance));
        buf.put_u32(reference(&index, tail));
        index.insert(node.id(), (i + 1) as u32);
    }
    buf.put_u32(reference(&index, provenance));
}

/// Reads the provenance section of a DAG body, rebuilding nodes through
/// the interner so the decoded value shares structure with everything else
/// in the process.
fn get_provenance_dag(buf: &mut Bytes) -> Result<Provenance, StoreError> {
    if buf.remaining() < 4 {
        return Err(StoreError::Corrupt(
            "truncated provenance node count".into(),
        ));
    }
    let count = buf.get_u32() as usize;
    // A valid node consumes at least 11 bytes; cap the pre-allocation so a
    // corrupt count cannot request unbounded memory before the bounds
    // checks below reject it.
    let mut built: Vec<Provenance> = Vec::with_capacity(count.min(buf.remaining() / 11) + 1);
    built.push(Provenance::empty());
    for _ in 0..count {
        if buf.remaining() < 1 {
            return Err(StoreError::Corrupt("truncated provenance node".into()));
        }
        let direction = direction_from_tag(buf.get_u8())
            .ok_or_else(|| StoreError::Corrupt("unknown direction tag".into()))?;
        let principal: Principal = get_name(buf)?;
        if buf.remaining() < 8 {
            return Err(StoreError::Corrupt("truncated provenance node refs".into()));
        }
        let channel_ref = buf.get_u32() as usize;
        let tail_ref = buf.get_u32() as usize;
        if channel_ref >= built.len() || tail_ref >= built.len() {
            return Err(StoreError::Corrupt(
                "provenance node references a later node".into(),
            ));
        }
        let channel = built[channel_ref].clone();
        if channel.depth() >= MAX_PROVENANCE_DEPTH {
            return Err(StoreError::Corrupt(format!(
                "provenance nests deeper than {} levels",
                MAX_PROVENANCE_DEPTH
            )));
        }
        let event = match direction {
            Direction::Output => Event::output(principal, channel),
            Direction::Input => Event::input(principal, channel),
        };
        let node = built[tail_ref].prepend(event);
        built.push(node);
    }
    if buf.remaining() < 4 {
        return Err(StoreError::Corrupt("truncated provenance root".into()));
    }
    let root = buf.get_u32() as usize;
    if root >= built.len() {
        return Err(StoreError::Corrupt(
            "provenance root references a missing node".into(),
        ));
    }
    Ok(built[root].clone())
}

/// Encodes a record body (without framing) in the given format.
pub fn encode_body_with(record: &ProvenanceRecord, format: BodyFormat) -> Bytes {
    // Enumerate the DAG once: both the capacity hint and the provenance
    // section consume the same postorder.
    let dag_nodes = match format {
        BodyFormat::Dag => Some(record.provenance.dag_nodes()),
        BodyFormat::LegacyPreorder => None,
    };
    let base = 80
        + record.channel.as_str().len()
        + record.value.as_str().len()
        + record.principal.as_str().len();
    let capacity = match &dag_nodes {
        Some(nodes) => base + nodes.len() * 24,
        // The preorder section is O(tree); cap the hint and let the buffer
        // grow, rather than requesting exponential capacity up front.
        None => {
            base + record
                .provenance
                .total_size()
                .saturating_mul(12)
                .min(1 << 16)
        }
    };
    let mut buf = BytesMut::with_capacity(capacity);
    buf.put_u8(format.tag());
    buf.put_u64(record.sequence);
    buf.put_u64(record.logical_time);
    buf.put_u8(record.operation.tag());
    put_str(&mut buf, record.principal.as_str());
    put_str(&mut buf, record.channel.as_str());
    put_value(&mut buf, &record.value);
    match &dag_nodes {
        Some(nodes) => put_provenance_dag(&mut buf, &record.provenance, nodes),
        None => put_provenance_preorder(&mut buf, &record.provenance),
    }
    buf.freeze()
}

/// Encodes a record body (without framing) in the default (DAG) format.
pub fn encode_body(record: &ProvenanceRecord) -> Bytes {
    encode_body_with(record, BodyFormat::default())
}

/// Decodes a record body (without framing), dispatching on its version
/// tag.  Tagged preorder (1) and DAG (2) bodies are accepted, as are
/// untagged bodies written before the version header existed: those begin
/// with the `u64` sequence number, whose first byte is 0 for any sequence
/// below 2⁵⁶ — never a valid tag.
pub fn decode_body(mut buf: Bytes) -> Result<ProvenanceRecord, StoreError> {
    if buf.remaining() < 17 {
        return Err(StoreError::Corrupt("record body too short".into()));
    }
    let format = match buf[0] {
        0 => BodyFormat::LegacyPreorder,
        tag => {
            let format = BodyFormat::from_tag(tag)
                .ok_or_else(|| StoreError::Corrupt("unknown record format version".into()))?;
            buf.advance(1);
            if buf.remaining() < 17 {
                return Err(StoreError::Corrupt("record body too short".into()));
            }
            format
        }
    };
    let sequence = buf.get_u64();
    let logical_time = buf.get_u64();
    let operation = Operation::from_tag(buf.get_u8())
        .ok_or_else(|| StoreError::Corrupt("unknown operation tag".into()))?;
    let principal = get_name(&mut buf)?;
    let channel = get_name(&mut buf)?;
    let value = get_value(&mut buf)?;
    let provenance = match format {
        BodyFormat::LegacyPreorder => get_provenance_preorder(&mut buf)?,
        BodyFormat::Dag => get_provenance_dag(&mut buf)?,
    };
    Ok(ProvenanceRecord {
        sequence,
        logical_time,
        principal,
        operation,
        channel,
        value,
        provenance,
    })
}

/// Encodes a record with framing (length + CRC + body) in the given
/// format.
pub fn encode_framed_with(record: &ProvenanceRecord, format: BodyFormat) -> Bytes {
    let body = encode_body_with(record, format);
    let mut out = BytesMut::with_capacity(body.len() + 8);
    out.put_u32(body.len() as u32);
    out.put_u32(crc32(&body));
    out.put_slice(&body);
    out.freeze()
}

/// Encodes a record with framing (length + CRC + body) in the default
/// (DAG) format.
pub fn encode_framed(record: &ProvenanceRecord) -> Bytes {
    encode_framed_with(record, BodyFormat::default())
}

/// Attempts to decode one framed record from the front of `buf`.
///
/// Returns `Ok(None)` if the buffer does not contain a complete frame
/// (clean end of segment); returns an error if the frame is corrupt.
pub fn decode_framed(buf: &mut Bytes) -> Result<Option<ProvenanceRecord>, StoreError> {
    if buf.remaining() == 0 {
        return Ok(None);
    }
    if buf.remaining() < 8 {
        return Err(StoreError::Corrupt("truncated frame header".into()));
    }
    let len = buf.get_u32() as usize;
    let expected_crc = buf.get_u32();
    if buf.remaining() < len {
        return Err(StoreError::Corrupt("truncated frame body".into()));
    }
    let body = buf.copy_to_bytes(len);
    if crc32(&body) != expected_crc {
        return Err(StoreError::ChecksumMismatch);
    }
    decode_body(body).map(Some)
}

/// A body whose provenance nests `levels` events, each sent on a
/// channel whose provenance is the one before, written by hand (the
/// encoders walk the history recursively).
#[cfg(test)]
pub(crate) fn nested_body(levels: u32, format: BodyFormat) -> Bytes {
    let record = ProvenanceRecord::new(
        1,
        "a",
        Operation::Send,
        "m",
        Value::Channel(piprov_core::name::Channel::new("v")),
        Provenance::empty(),
    );
    let body = encode_body_with(&record, format);
    // The empty provenance section: a zero entry count, or a zero node
    // count and root 0.
    let empty_section = match format {
        BodyFormat::LegacyPreorder => 4,
        BodyFormat::Dag => 8,
    };
    let mut out = BytesMut::new();
    out.put_slice(&body[..body.len() - empty_section]);
    out.put_u32(levels);
    for level in 0..levels {
        if format == BodyFormat::LegacyPreorder {
            out.put_u32(level);
            out.put_u8(direction_tag(Direction::Output));
            put_str(&mut out, "p");
        } else {
            // Node `level + 1`: channel = node `level`, tail = ε.
            out.put_u8(direction_tag(Direction::Output));
            put_str(&mut out, "p");
            out.put_u32(level);
            out.put_u32(0);
        }
    }
    if format == BodyFormat::Dag {
        out.put_u32(levels);
    }
    out.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;
    use piprov_core::name::Channel;
    use piprov_core::provenance::Provenance;
    use proptest::prelude::*;

    fn sample_record() -> ProvenanceRecord {
        let km = Provenance::single(Event::output(Principal::new("c"), Provenance::empty()));
        let provenance = Provenance::empty()
            .prepend(Event::output(Principal::new("a"), km.clone()))
            .prepend(Event::input(Principal::new("b"), km));
        ProvenanceRecord {
            sequence: 42,
            logical_time: 7,
            principal: Principal::new("b"),
            operation: Operation::Receive,
            channel: Channel::new("m"),
            value: Value::Channel(Channel::new("v")),
            provenance,
        }
    }

    /// A record whose provenance tree is exponentially larger than its
    /// DAG: every hop travels on a channel carrying the full history.
    fn chained_record(hops: usize) -> ProvenanceRecord {
        let mut provenance =
            Provenance::single(Event::output(Principal::new("origin"), Provenance::empty()));
        for i in 0..hops {
            let principal = Principal::new(format!("hop{}", i));
            provenance = provenance
                .prepend(Event::output(principal.clone(), provenance.clone()))
                .prepend(Event::input(principal, provenance.clone()));
        }
        ProvenanceRecord {
            sequence: 1,
            logical_time: 1,
            principal: Principal::new("auditor"),
            operation: Operation::Receive,
            channel: Channel::new("m"),
            value: Value::Channel(Channel::new("v")),
            provenance,
        }
    }

    /// The bit-at-a-time CRC-32 the table kernel must equal.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc_is_stable_and_sensitive() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"hello"), crc32(b"hello"));
        assert_ne!(crc32(b"hello"), crc32(b"hellp"));
    }

    #[test]
    fn crc_matches_the_iso_hdlc_check_values() {
        // The catalogued CRC-32/ISO-HDLC check value, and a 43-byte input
        // that takes five 8-byte blocks and a 3-byte tail.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    proptest! {
        // 256 cases by default; PIPROV_PROPTEST_CASES overrides.
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Byte strings of length 0..=1,100 starting at offsets 0..16 of a
        /// larger buffer: every tail length and every alignment.
        #[test]
        fn crc_equals_the_bitwise_reference(
            buffer in proptest::collection::vec(0u8..=255, 1116..1117),
            offset in 0usize..16,
            len in 0usize..1101,
        ) {
            let data = &buffer[offset..offset + len];
            prop_assert_eq!(crc32(data), crc32_bitwise(data));
        }
    }

    #[test]
    fn body_format_tags_round_trip() {
        for format in [BodyFormat::LegacyPreorder, BodyFormat::Dag] {
            assert_eq!(BodyFormat::from_tag(format.tag()), Some(format));
        }
        assert_eq!(BodyFormat::from_tag(0), None);
        assert_eq!(BodyFormat::from_tag(99), None);
        assert_eq!(BodyFormat::default(), BodyFormat::Dag);
    }

    #[test]
    fn body_round_trip_in_both_formats() {
        let record = sample_record();
        for format in [BodyFormat::LegacyPreorder, BodyFormat::Dag] {
            let body = encode_body_with(&record, format);
            let decoded = decode_body(body).unwrap();
            assert_eq!(decoded, record, "round trip through {:?}", format);
            // Equality above is O(1) id comparison; be explicit that the
            // decoder rebuilt the very same interned node.
            assert_eq!(decoded.provenance.id(), record.provenance.id());
        }
    }

    #[test]
    fn framed_round_trip() {
        let record = sample_record();
        let mut framed = encode_framed(&record);
        let decoded = decode_framed(&mut framed).unwrap().unwrap();
        assert_eq!(decoded, record);
        assert_eq!(decode_framed(&mut framed).unwrap(), None, "buffer consumed");
    }

    #[test]
    fn legacy_frames_remain_readable() {
        let record = sample_record();
        let mut framed = encode_framed_with(&record, BodyFormat::LegacyPreorder);
        let decoded = decode_framed(&mut framed).unwrap().unwrap();
        assert_eq!(decoded, record);
    }

    #[test]
    fn untagged_seed_bodies_remain_readable() {
        // Bodies written before the version header are byte-for-byte a
        // tagged preorder body minus the leading tag: they start with the
        // u64 sequence, whose first byte is 0 below 2⁵⁶.
        let record = sample_record();
        let tagged = encode_body_with(&record, BodyFormat::LegacyPreorder);
        let untagged = Bytes::from(tagged[1..].to_vec());
        assert_eq!(untagged[0], 0, "sequence high byte is 0");
        let decoded = decode_body(untagged).unwrap();
        assert_eq!(decoded, record);
    }

    #[test]
    fn multiple_frames_decode_in_sequence() {
        let mut r1 = sample_record();
        r1.sequence = 1;
        let mut r2 = sample_record();
        r2.sequence = 2;
        r2.value = Value::Principal(Principal::new("a"));
        let mut joined = BytesMut::new();
        joined.put_slice(&encode_framed(&r1));
        joined.put_slice(&encode_framed_with(&r2, BodyFormat::LegacyPreorder));
        let mut buf = joined.freeze();
        assert_eq!(decode_framed(&mut buf).unwrap().unwrap(), r1);
        assert_eq!(decode_framed(&mut buf).unwrap().unwrap(), r2);
        assert_eq!(decode_framed(&mut buf).unwrap(), None);
    }

    #[test]
    fn corrupted_crc_is_detected() {
        let record = sample_record();
        let framed = encode_framed(&record);
        let mut bytes = framed.to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let mut buf = Bytes::from(bytes);
        assert!(matches!(
            decode_framed(&mut buf),
            Err(StoreError::ChecksumMismatch)
        ));
    }

    #[test]
    fn truncated_frames_are_errors() {
        let record = sample_record();
        let framed = encode_framed(&record);
        let mut truncated = Bytes::from(framed[..framed.len() - 3].to_vec());
        assert!(decode_framed(&mut truncated).is_err());
        let mut tiny = Bytes::from(vec![0u8, 1, 2]);
        assert!(decode_framed(&mut tiny).is_err());
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let record = sample_record();
        // Unknown operation tag (byte 17: after version + sequence + time).
        let mut body = encode_body(&record).to_vec();
        body[17] = 200;
        assert!(decode_body(Bytes::from(body)).is_err());
        // Unknown format version tag (byte 0).
        let mut body = encode_body(&record).to_vec();
        body[0] = 77;
        assert!(decode_body(Bytes::from(body)).is_err());
    }

    #[test]
    fn preorder_bodies_out_of_preorder_are_corrupt() {
        // A tag-1 body whose provenance section holds two entries at depths
        // [1, 0]: the first has no parent, so no provenance can hold both.
        let record = ProvenanceRecord {
            provenance: Provenance::empty(),
            ..sample_record()
        };
        let body = encode_body_with(&record, BodyFormat::LegacyPreorder);
        let mut tagged = BytesMut::new();
        tagged.put_slice(&body[..body.len() - 4]);
        tagged.put_u32(2);
        for (depth, name) in [(1, "x"), (0, "y")] {
            tagged.put_u32(depth);
            tagged.put_u8(direction_tag(Direction::Output));
            put_str(&mut tagged, name);
        }
        let tagged = tagged.freeze();
        // The same section in an untagged body (no leading version byte).
        let untagged = Bytes::from(tagged[1..].to_vec());
        for body in [tagged, untagged] {
            assert!(matches!(decode_body(body), Err(StoreError::Corrupt(_))));
        }
    }

    #[test]
    fn bodies_nested_past_the_depth_limit_are_corrupt() {
        let limit = MAX_PROVENANCE_DEPTH as u32;
        for format in [BodyFormat::LegacyPreorder, BodyFormat::Dag] {
            let deepest = decode_body(nested_body(limit, format)).unwrap();
            assert_eq!(deepest.provenance.depth(), MAX_PROVENANCE_DEPTH);
            assert_eq!(
                decode_body(encode_body_with(&deepest, format)).unwrap(),
                deepest
            );
            // 100,000 levels overflowed the stack of the decoding thread
            // (tag 1) or of whichever thread walked the result (tag 2).
            for levels in [limit + 1, 100_000] {
                assert!(
                    matches!(
                        decode_body(nested_body(levels, format)),
                        Err(StoreError::Corrupt(_))
                    ),
                    "{:?}, {} levels",
                    format,
                    levels
                );
            }
        }
    }

    #[test]
    fn dag_body_with_forward_reference_is_rejected() {
        let record = sample_record();
        let body = encode_body(&record);
        // The last 4 bytes are the root reference; point it past the node
        // list.
        let mut bytes = body.to_vec();
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(decode_body(Bytes::from(bytes)).is_err());
    }

    #[test]
    fn empty_provenance_encodes_compactly() {
        let record = ProvenanceRecord {
            sequence: 1,
            logical_time: 1,
            principal: Principal::new("a"),
            operation: Operation::Send,
            channel: Channel::new("m"),
            value: Value::Channel(Channel::new("v")),
            provenance: Provenance::empty(),
        };
        let body = encode_body(&record);
        let decoded = decode_body(body).unwrap();
        assert!(decoded.provenance.is_empty());
    }

    #[test]
    fn dag_encoding_of_shared_provenance_is_exponentially_smaller() {
        let record = chained_record(8);
        assert!(
            record.provenance.total_size() > 1 << 8,
            "tree is exponential: {}",
            record.provenance.total_size()
        );
        let dag = encode_body_with(&record, BodyFormat::Dag);
        let legacy = encode_body_with(&record, BodyFormat::LegacyPreorder);
        assert!(
            dag.len() < legacy.len(),
            "dag {} bytes vs legacy {} bytes",
            dag.len(),
            legacy.len()
        );
        // O(DAG nodes), not O(tree): generous constant per node.
        assert!(dag.len() < 64 * (record.provenance.dag_size() + 4));
        // And the shared record still round-trips exactly.
        let decoded = decode_body(dag).unwrap();
        assert_eq!(decoded, record);
        assert_eq!(decoded.provenance.id(), record.provenance.id());
    }
}
