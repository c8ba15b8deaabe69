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
//! `piprov-serve` carries too.  The body is the format tag (2) followed by
//! length-prefixed fields in a fixed order, the provenance last: a
//! [`NodeTable`] holding every distinct interned DAG node once, children
//! (channel provenance and tail) before parents, then the root's
//! reference.  A body is O(distinct nodes), matching the interner's
//! sharing, however large the logical tree.
//!
//! The node table is the one history codec: `piprov-serve` ships the
//! channel histories of why slices in it too.  The decoder refuses any
//! other leading byte — 1 (the preorder tree layout of early stores) and
//! 0 (the untagged seed layout) included — and any provenance nested
//! deeper than [`MAX_PROVENANCE_DEPTH`], as [`StoreError::Corrupt`].

use crate::error::StoreError;
use crate::record::{
    direction_from_tag, direction_tag, Operation, ProvenanceRecord, MAX_PROVENANCE_DEPTH,
};
/// The buffer [`decode_body`] reads, re-exported for callers that hold
/// record bodies without depending on `bytes` themselves.
pub use bytes::Bytes;
use bytes::{Buf, BufMut, BytesMut};
use piprov_core::name::Principal;
use piprov_core::provenance::{Direction, Event, ProvId, Provenance};
use piprov_core::value::Value;
use std::collections::HashMap;

/// Magic byte identifying a value stored as a channel name.
const VALUE_CHANNEL: u8 = 0;
/// Magic byte identifying a value stored as a principal name.
const VALUE_PRINCIPAL: u8 = 1;

/// The leading byte of every record body.
const BODY_TAG: u8 = 2;

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
    let len = get_str_len(buf)?;
    let name = utf8_name(&buf[..len])?;
    buf.advance(len);
    Ok(name)
}

/// Reads a name written by [`put_str`] in a run of names, such as the
/// principals of a node table: when its bytes equal those of `previous`,
/// the name read before it, the result is a clone of that name (an `Arc`
/// increment for [`Principal`]) and its bytes, already checked, are not
/// checked for UTF-8 again.  Otherwise the name is built as [`get_name`]
/// builds it and becomes `previous`.  A run of one principal, such as a
/// relay tier's spine, decodes into one shared allocation.
///
/// # Errors
///
/// As [`get_str`]; `previous` is left as it was.
pub fn get_name_in_run<N>(buf: &mut Bytes, previous: &mut Option<N>) -> Result<N, StoreError>
where
    N: for<'a> From<&'a str> + AsRef<str> + Clone,
{
    let len = get_str_len(buf)?;
    let bytes = &buf[..len];
    let name = match previous {
        Some(prev) if prev.as_ref().as_bytes() == bytes => prev.clone(),
        _ => {
            let name: N = utf8_name(bytes)?;
            *previous = Some(name.clone());
            name
        }
    };
    buf.advance(len);
    Ok(name)
}

/// Reads the length prefix of a string written by [`put_str`] and checks
/// that its body is in `buf`.
fn get_str_len(buf: &mut Bytes) -> Result<usize, StoreError> {
    if buf.remaining() < 2 {
        return Err(StoreError::Corrupt("truncated string length".into()));
    }
    let len = buf.get_u16() as usize;
    if buf.remaining() < len {
        return Err(StoreError::Corrupt("truncated string body".into()));
    }
    Ok(len)
}

/// Builds a name from its bytes, checking UTF-8.
fn utf8_name<N: for<'a> From<&'a str>>(bytes: &[u8]) -> Result<N, StoreError> {
    std::str::from_utf8(bytes)
        .map(N::from)
        .map_err(|_| StoreError::Corrupt("invalid utf-8 in record".into()))
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

/// The distinct interned nodes reachable from a set of histories, each
/// once and children (channel provenance and tail) before parents: the
/// layout every provenance is written in, on disk and on the wire.
///
/// [`NodeTable::put`] writes a u32 node count followed by one
/// `direction u8 | principal | channel ref u32 | tail ref u32` entry per
/// node, where reference 0 is `ε` and reference `k` the table's `k`-th
/// node.
#[derive(Debug)]
pub struct NodeTable {
    nodes: Vec<Provenance>,
    index: HashMap<ProvId, u32>,
}

impl NodeTable {
    /// The table of every node reachable from `roots`.
    pub fn new<'a>(roots: impl IntoIterator<Item = &'a Provenance>) -> Self {
        let nodes = Provenance::dag_nodes(roots);
        let index = nodes
            .iter()
            .zip(1..)
            .map(|(node, k)| (node.id(), k))
            .collect();
        NodeTable { nodes, index }
    }

    /// Writes the node count and the nodes.
    pub fn put(&self, buf: &mut BytesMut) {
        buf.put_u32(self.nodes.len() as u32);
        for node in &self.nodes {
            let event = node.head().expect("table nodes are non-empty");
            buf.put_u8(direction_tag(event.direction));
            put_str(buf, event.principal.as_str());
            buf.put_u32(self.reference(&event.channel_provenance));
            buf.put_u32(self.reference(node.tail().expect("table nodes are non-empty")));
        }
    }

    /// The reference of `provenance`: 0 for `ε`, `k` for the table's
    /// `k`-th node.
    ///
    /// # Panics
    ///
    /// If `provenance` is not reachable from the table's roots.
    pub fn reference(&self, provenance: &Provenance) -> u32 {
        if provenance.is_empty() {
            0
        } else {
            self.index[&provenance.id()]
        }
    }
}

/// Reads a table written by [`NodeTable::put`], rebuilding every node
/// through the interner so the result shares structure with everything
/// else in the process.  Index 0 of the result is `ε` and index `k` the
/// `k`-th node, so [`get_node_ref`] resolves references in it.
///
/// The whole table is read and checked before its first node is
/// interned, so a table that fails partway leaves nothing in the
/// process-global interner, which never frees.  Principals are read with
/// [`get_name_in_run`], so the nodes of a run of one principal that the
/// interner has not seen share one allocation of its name.
///
/// # Errors
///
/// [`StoreError::Corrupt`] on truncation, an unknown direction, a
/// reference to a node not yet read, or a node nested deeper than
/// [`MAX_PROVENANCE_DEPTH`].
pub fn get_node_table(buf: &mut Bytes) -> Result<Vec<Provenance>, StoreError> {
    read_node_entries(buf).map(intern_node_entries)
}

/// One node of a table as read, before it is interned.
struct NodeEntry {
    direction: Direction,
    principal: Principal,
    channel: u32,
    tail: u32,
}

/// Reads and checks a table written by [`NodeTable::put`] without
/// interning it: the direction tags, the names, each reference below its
/// own index, and each node's depth, computed from the references.
fn read_node_entries(buf: &mut Bytes) -> Result<Vec<NodeEntry>, StoreError> {
    if buf.remaining() < 4 {
        return Err(StoreError::Corrupt(
            "truncated provenance node count".into(),
        ));
    }
    let count = buf.get_u32() as usize;
    // A valid node consumes at least 11 bytes; cap the pre-allocation so a
    // corrupt count cannot request unbounded memory before the bounds
    // checks below reject it.
    let capacity = count.min(buf.remaining() / 11);
    let mut entries = Vec::with_capacity(capacity);
    // `depths[k]` is the nesting depth of reference `k`; 0 is ε.
    let mut depths: Vec<usize> = Vec::with_capacity(capacity + 1);
    depths.push(0);
    let mut previous = None;
    for _ in 0..count {
        if buf.remaining() < 1 {
            return Err(StoreError::Corrupt("truncated provenance node".into()));
        }
        let direction = direction_from_tag(buf.get_u8())
            .ok_or_else(|| StoreError::Corrupt("unknown direction tag".into()))?;
        let principal: Principal = get_name_in_run(buf, &mut previous)?;
        let channel = get_ref(buf, depths.len())?;
        let tail = get_ref(buf, depths.len())?;
        let channel_depth = depths[channel as usize];
        if channel_depth >= MAX_PROVENANCE_DEPTH {
            return Err(StoreError::Corrupt(format!(
                "provenance nests deeper than {} levels",
                MAX_PROVENANCE_DEPTH
            )));
        }
        depths.push(depths[tail as usize].max(1 + channel_depth));
        entries.push(NodeEntry {
            direction,
            principal,
            channel,
            tail,
        });
    }
    Ok(entries)
}

/// Interns entries that [`read_node_entries`] checked; index 0 of the
/// result is `ε`.
fn intern_node_entries(entries: Vec<NodeEntry>) -> Vec<Provenance> {
    let mut table = Vec::with_capacity(entries.len() + 1);
    table.push(Provenance::empty());
    for entry in entries {
        let channel = table[entry.channel as usize].clone();
        let event = match entry.direction {
            Direction::Output => Event::output(entry.principal, channel),
            Direction::Input => Event::input(entry.principal, channel),
        };
        let node = table[entry.tail as usize].prepend(event);
        table.push(node);
    }
    table
}

/// Reads one node reference and checks that it is below `bound`, the
/// length of the table it indexes.
fn get_ref(buf: &mut Bytes, bound: usize) -> Result<u32, StoreError> {
    if buf.remaining() < 4 {
        return Err(StoreError::Corrupt(
            "truncated provenance node reference".into(),
        ));
    }
    let reference = buf.get_u32();
    if reference as usize >= bound {
        return Err(StoreError::Corrupt(
            "provenance reference past the node table".into(),
        ));
    }
    Ok(reference)
}

/// Reads one reference written for [`NodeTable::reference`] and resolves
/// it in `table`, as read by [`get_node_table`].
///
/// # Errors
///
/// [`StoreError::Corrupt`] on truncation or a reference past the table.
pub fn get_node_ref(buf: &mut Bytes, table: &[Provenance]) -> Result<Provenance, StoreError> {
    get_ref(buf, table.len()).map(|reference| table[reference as usize].clone())
}

/// Encodes a record body (without framing).
pub fn encode_body(record: &ProvenanceRecord) -> Bytes {
    let table = NodeTable::new([&record.provenance]);
    let capacity = 80
        + record.channel.as_str().len()
        + record.value.as_str().len()
        + record.principal.as_str().len()
        + table.nodes.len() * 24;
    let mut buf = BytesMut::with_capacity(capacity);
    buf.put_u8(BODY_TAG);
    buf.put_u64(record.sequence);
    buf.put_u64(record.logical_time);
    buf.put_u8(record.operation.tag());
    put_str(&mut buf, record.principal.as_str());
    put_str(&mut buf, record.channel.as_str());
    put_value(&mut buf, &record.value);
    table.put(&mut buf);
    buf.put_u32(table.reference(&record.provenance));
    buf.freeze()
}

/// Decodes a record body (without framing).
///
/// The whole body is read and checked before its first node is interned,
/// so a body that fails leaves nothing in the process-global interner,
/// which never frees.
///
/// # Errors
///
/// [`StoreError::Corrupt`] on truncation, any leading byte but the format
/// tag, or a malformed field or node table.
pub fn decode_body(buf: Bytes) -> Result<ProvenanceRecord, StoreError> {
    check_body(buf).map(CheckedBody::intern)
}

/// Decodes a batch of record bodies, checking every body before it
/// interns any: a batch with one malformed body leaves nothing in the
/// interner, however many good bodies come before it.
///
/// # Errors
///
/// The error of the first body that fails, as [`decode_body`] reports it.
pub fn decode_bodies(
    bodies: impl IntoIterator<Item = Bytes>,
) -> Result<Vec<ProvenanceRecord>, StoreError> {
    let checked = bodies
        .into_iter()
        .map(check_body)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(checked.into_iter().map(CheckedBody::intern).collect())
}

/// A record body read and checked: the record, its provenance still
/// empty, and the node table and root reference to intern it from.
pub(crate) struct CheckedBody {
    record: ProvenanceRecord,
    entries: Vec<NodeEntry>,
    root: u32,
}

/// Reads and checks a record body without interning anything: the
/// fields, the node table ([`read_node_entries`]) and the root reference.
pub(crate) fn check_body(mut buf: Bytes) -> Result<CheckedBody, StoreError> {
    if buf.remaining() < 18 {
        return Err(StoreError::Corrupt("record body too short".into()));
    }
    if buf.get_u8() != BODY_TAG {
        return Err(StoreError::Corrupt("unknown record format version".into()));
    }
    let sequence = buf.get_u64();
    let logical_time = buf.get_u64();
    let operation = Operation::from_tag(buf.get_u8())
        .ok_or_else(|| StoreError::Corrupt("unknown operation tag".into()))?;
    let principal = get_name(&mut buf)?;
    let channel = get_name(&mut buf)?;
    let value = get_value(&mut buf)?;
    let record = ProvenanceRecord {
        sequence,
        logical_time,
        principal,
        operation,
        channel,
        value,
        provenance: Provenance::empty(),
    };
    let entries = read_node_entries(&mut buf)?;
    let root = get_ref(&mut buf, entries.len() + 1)?;
    Ok(CheckedBody {
        record,
        entries,
        root,
    })
}

impl CheckedBody {
    /// Interns the provenance into the record.
    fn intern(mut self) -> ProvenanceRecord {
        self.record.provenance = intern_node_entries(self.entries)[self.root as usize].clone();
        self.record
    }
}

/// Encodes a record with framing (length + CRC + body).
pub fn encode_framed(record: &ProvenanceRecord) -> Bytes {
    let body = encode_body(record);
    let mut out = BytesMut::with_capacity(body.len() + 8);
    out.put_u32(body.len() as u32);
    out.put_u32(crc32(&body));
    out.put_slice(&body);
    out.freeze()
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
/// encoder walks the history recursively).
#[cfg(test)]
pub(crate) fn nested_body(levels: u32) -> Bytes {
    // Node `level + 1`: channel = node `level`, tail = ε.
    body_with_nodes((0..levels).map(|level| (Direction::Output, "p", level, 0)))
}

/// A body whose node table is `nodes`, each `(direction, principal,
/// channel reference, tail reference)`, rooted at its last node, written
/// by hand so that its nodes are first interned when it is decoded.
#[cfg(test)]
fn body_with_nodes<'a>(
    nodes: impl ExactSizeIterator<Item = (Direction, &'a str, u32, u32)>,
) -> Bytes {
    let record = ProvenanceRecord::new(
        1,
        "a",
        Operation::Send,
        "m",
        Value::Channel(piprov_core::name::Channel::new("v")),
        Provenance::empty(),
    );
    let body = encode_body(&record);
    // Drop the empty provenance section: a zero node count and root 0.
    let mut out = BytesMut::new();
    out.put_slice(&body[..body.len() - 8]);
    let count = nodes.len() as u32;
    out.put_u32(count);
    for (direction, principal, channel, tail) in nodes {
        out.put_u8(direction_tag(direction));
        put_str(&mut out, principal);
        out.put_u32(channel);
        out.put_u32(tail);
    }
    out.put_u32(count);
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
    fn body_round_trip_in_both_formats() {
        let record = sample_record();
        let body = encode_body(&record);
        let decoded = decode_body(body).unwrap();
        assert_eq!(decoded, record);
        // Equality above is O(1) id comparison; be explicit that the
        // decoder rebuilt the very same interned node.
        assert_eq!(decoded.provenance.id(), record.provenance.id());
    }

    #[test]
    fn record_bodies_keep_their_bytes() {
        // Tag 2, sequence, logical time, operation, principal, channel and
        // value, then the node count, one line per node (direction,
        // principal, channel reference, tail reference; 0 is ε) and the
        // root reference.
        let shared = [
            &b"\x02"[..],
            b"\0\0\0\0\0\0\0\x2a",
            b"\0\0\0\0\0\0\0\x07",
            b"\x01",
            b"\0\x01b",
            b"\0\x01m",
            b"\0\0\x01v",
            b"\0\0\0\x03",
            b"\0\0\x01c\0\0\0\0\0\0\0\0",
            b"\0\0\x01a\0\0\0\x01\0\0\0\0",
            b"\x01\0\x01b\0\0\0\x01\0\0\0\x02",
            b"\0\0\0\x03",
        ]
        .concat();
        assert_eq!(&encode_body(&sample_record())[..], &shared[..]);
        let chained = [
            &b"\x02"[..],
            b"\0\0\0\0\0\0\0\x01",
            b"\0\0\0\0\0\0\0\x01",
            b"\x01",
            b"\0\x07auditor",
            b"\0\x01m",
            b"\0\0\x01v",
            b"\0\0\0\x07",
            b"\0\0\x06origin\0\0\0\0\0\0\0\0",
            b"\0\0\x04hop0\0\0\0\x01\0\0\0\x01",
            b"\x01\0\x04hop0\0\0\0\x01\0\0\0\x02",
            b"\0\0\x04hop1\0\0\0\x03\0\0\0\x03",
            b"\x01\0\x04hop1\0\0\0\x03\0\0\0\x04",
            b"\0\0\x04hop2\0\0\0\x05\0\0\0\x05",
            b"\x01\0\x04hop2\0\0\0\x05\0\0\0\x06",
            b"\0\0\0\x07",
        ]
        .concat();
        assert_eq!(&encode_body(&chained_record(3))[..], &chained[..]);
    }

    /// A body whose spine is one input event per name, `names[0]` the
    /// newest, each on an ε channel.
    fn spine_body(names: &[&str]) -> Bytes {
        // Oldest first: node `k + 1` has node `k` as its tail.
        body_with_nodes(
            names
                .iter()
                .rev()
                .enumerate()
                .map(|(k, name)| (Direction::Input, *name, 0, k as u32)),
        )
    }

    #[test]
    fn a_run_of_one_fresh_principal_decodes_into_one_allocation() {
        let names = vec!["relay-of-the-name-run-test"; 1024];
        let decoded = decode_body(spine_body(&names)).unwrap();
        let events = decoded.provenance.to_vec();
        assert_eq!(events.len(), 1024);
        let first = events[0].principal.as_str().as_ptr();
        assert!(events
            .iter()
            .all(|event| event.principal.as_str().as_ptr() == first));
    }

    #[test]
    fn names_that_differ_in_length_or_last_byte_round_trip() {
        // Every ordered pair of `relay`, `relaz`, `relay2` and `""` is
        // adjacent, so the list read either way round covers each pair.
        let names = [
            "relay", "relaz", "relay", "relay2", "relay", "", "relaz", "relay2", "relaz", "",
            "relay2", "", "relay", "relay",
        ];
        let decoded = decode_body(spine_body(&names)).unwrap();
        let principals: Vec<String> = decoded
            .provenance
            .to_vec()
            .iter()
            .map(|event| event.principal.as_str().to_string())
            .collect();
        assert_eq!(principals, names);
        let reencoded = decode_body(encode_body(&decoded)).unwrap();
        assert_eq!(reencoded.provenance.id(), decoded.provenance.id());
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
    fn multiple_frames_decode_in_sequence() {
        let mut r1 = sample_record();
        r1.sequence = 1;
        let mut r2 = sample_record();
        r2.sequence = 2;
        r2.value = Value::Principal(Principal::new("a"));
        let mut joined = BytesMut::new();
        joined.put_slice(&encode_framed(&r1));
        joined.put_slice(&encode_framed(&r2));
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
        // Unknown format version tags (byte 0): 0 and 1 are the untagged
        // and preorder layouts, which are no longer read.
        for tag in [0, 1, 77] {
            let mut body = encode_body(&record).to_vec();
            body[0] = tag;
            assert!(
                matches!(decode_body(Bytes::from(body)), Err(StoreError::Corrupt(_))),
                "tag {}",
                tag
            );
        }
    }

    #[test]
    fn bodies_nested_past_the_depth_limit_are_corrupt() {
        let limit = MAX_PROVENANCE_DEPTH as u32;
        let deepest = decode_body(nested_body(limit)).unwrap();
        assert_eq!(deepest.provenance.depth(), MAX_PROVENANCE_DEPTH);
        assert_eq!(decode_body(encode_body(&deepest)).unwrap(), deepest);
        // 100,000 levels overflowed the stack of whichever thread walked
        // the result.
        for levels in [limit + 1, 100_000] {
            assert!(
                matches!(
                    decode_body(nested_body(levels)),
                    Err(StoreError::Corrupt(_))
                ),
                "{} levels",
                levels
            );
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
        let dag = encode_body(&record);
        // O(DAG nodes), not O(tree): generous constant per node.
        assert!(dag.len() < 64 * (record.provenance.dag_size() + 4));
        // And the shared record still round-trips exactly.
        let decoded = decode_body(dag).unwrap();
        assert_eq!(decoded, record);
        assert_eq!(decoded.provenance.id(), record.provenance.id());
    }
}
