//! A record body, or a batch of them, that fails to decode interns
//! nothing.
//!
//! The process-global interner never frees a node, so a body whose node
//! table is read up to a fault must not have interned the nodes before
//! it, and a batch whose last body is bad must not have interned the good
//! bodies before it.  Each input below but the last puts fresh nodes
//! ahead of its fault; the last is a segment whose good frame comes after
//! a corrupt one, which recovery's scan probes for without interning it.
//! The interner's node count must not move across any of them.  This
//! file is a test binary of its own because the interner's counters are
//! process-global: another test interning at the same time would move
//! them.

use piprov_core::name::Channel;
use piprov_core::provenance::{interner_stats, Direction, Provenance};
use piprov_core::value::Value;
use piprov_store::codec::{crc32, decode_bodies, decode_body, encode_body, Bytes};
use piprov_store::record::{direction_tag, MAX_PROVENANCE_DEPTH};
use piprov_store::segment::scan_segment;
use piprov_store::{Operation, ProvenanceRecord, StoreError};

/// Fresh nodes in each valid prefix.
const PREFIX: u32 = 16;

/// A body under construction: the record fields of an empty-provenance
/// record, then a hand-written node table.
struct Body(Vec<u8>);

impl Body {
    /// The fields before the node table, and the table's node count.
    fn new(count: u32) -> Self {
        let record = ProvenanceRecord::new(
            1,
            "writer",
            Operation::Send,
            "m",
            Value::Channel(Channel::new("v")),
            Provenance::empty(),
        );
        let body = encode_body(&record);
        // Drop the empty table: a zero node count and root reference 0.
        let mut bytes = body[..body.len() - 8].to_vec();
        bytes.extend_from_slice(&count.to_be_bytes());
        Body(bytes)
    }

    /// One node entry: `direction | principal | channel ref | tail ref`.
    fn node(mut self, principal: &str, channel: u32, tail: u32) -> Self {
        self.0.push(direction_tag(Direction::Output));
        self.0
            .extend_from_slice(&(principal.len() as u16).to_be_bytes());
        self.0.extend_from_slice(principal.as_bytes());
        self.0.extend_from_slice(&channel.to_be_bytes());
        self.0.extend_from_slice(&tail.to_be_bytes());
        self
    }

    /// A spine of `PREFIX` nodes named after `fault`, each on the one
    /// before: node `k` has tail `k - 1`.
    fn spine(self, fault: &str) -> Self {
        (1..=PREFIX).fold(self, |body, k| {
            body.node(&format!("{}-spine-{}", fault, k), 0, k - 1)
        })
    }

    fn root(mut self, reference: u32) -> Bytes {
        self.0.extend_from_slice(&reference.to_be_bytes());
        Bytes::from(self.0)
    }
}

fn corrupt<T: std::fmt::Debug>(decoded: Result<T, StoreError>) -> String {
    match decoded {
        Err(StoreError::Corrupt(message)) => message,
        other => panic!("expected a corrupt body, got {:?}", other),
    }
}

#[test]
fn a_body_that_fails_to_decode_interns_nothing() {
    let limit = MAX_PROVENANCE_DEPTH as u32;
    // A reference past the table, after a valid spine.
    let past_the_table = Body::new(PREFIX + 1)
        .spine("past")
        .node("past-fault", PREFIX + 5, PREFIX)
        .root(PREFIX + 1);
    // A node nested one level past the limit, after `limit` valid levels
    // (node `k` is sent on a channel whose provenance is node `k - 1`).
    let too_deep = (1..=limit + 1)
        .fold(Body::new(limit + 1), |body, k| {
            body.node(&format!("deep-level-{}", k), k - 1, 0)
        })
        .root(limit + 1);
    // A body cut off inside the node after a valid spine.
    let mut truncated = Body::new(PREFIX + 1)
        .spine("cut")
        .node("cut-fault", 0, PREFIX)
        .0;
    truncated.truncate(truncated.len() - 3);
    let truncated = Bytes::from(truncated);
    // A whole valid table whose root reference is past it.
    let root_past = Body::new(PREFIX).spine("root").root(PREFIX + 1);
    // A batch of two good bodies, each a fresh spine, then a bad one.
    let batch = vec![
        Body::new(PREFIX).spine("batch-a").root(PREFIX),
        Body::new(PREFIX).spine("batch-b").root(PREFIX),
        Body::new(PREFIX).spine("batch-c").root(PREFIX + 1),
    ];
    // A segment: a frame whose body fails its checksum, then a good frame
    // holding a fresh spine.  The scan stops at the first and probes on,
    // finding the second, to tell mid-file corruption from a torn tail.
    let framed = |body: &[u8]| {
        let mut frame = (body.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(&crc32(body).to_be_bytes());
        frame.extend_from_slice(body);
        frame
    };
    let mut segment = framed(&Body::new(PREFIX).spine("probe-bad").root(PREFIX));
    let last = segment.len() - 1;
    segment[last] ^= 0xff;
    segment.extend(framed(&Body::new(PREFIX).spine("probe-good").root(PREFIX)));
    let path = std::env::temp_dir().join(format!("piprov-probe-{}.plog", std::process::id()));
    std::fs::write(&path, &segment).unwrap();

    let before = interner_stats().interned_nodes;
    assert_eq!(
        corrupt(decode_body(past_the_table)),
        "provenance reference past the node table"
    );
    assert_eq!(
        corrupt(decode_body(too_deep)),
        format!("provenance nests deeper than {} levels", limit)
    );
    assert_eq!(
        corrupt(decode_body(truncated)),
        "truncated provenance node reference"
    );
    assert_eq!(
        corrupt(decode_body(root_past)),
        "provenance reference past the node table"
    );
    assert_eq!(
        corrupt(decode_bodies(batch)),
        "provenance reference past the node table"
    );
    let scan = scan_segment(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(matches!(scan.error, Some(StoreError::ChecksumMismatch)));
    assert!(scan.records.is_empty());
    assert!(!scan.torn_tail, "the probe found the good frame");
    assert_eq!(
        interner_stats().interned_nodes,
        before,
        "a refused body left nodes in the interner"
    );

    // The same prefixes decode, and intern, once the fault is gone.
    let whole = Body::new(PREFIX).spine("root").root(PREFIX);
    let record = decode_body(whole).expect("the valid prefix decodes");
    assert_eq!(record.provenance.len(), PREFIX as usize);
    assert_eq!(interner_stats().interned_nodes, before + PREFIX as usize);
}
