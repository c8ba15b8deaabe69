//! Round-trip properties of the store codec on *deeply shared* channel
//! provenance.
//!
//! A record body encodes every distinct interned provenance node exactly
//! once, in a node table (see [`piprov_store::codec::NodeTable`]); these
//! tests generate provenance values with heavy, adversarial sharing —
//! channel provenances and tails drawn from a pool of previously built
//! sequences — and check that
//!
//! * `decode(encode(r)) == r` (and the decoded value interns to the *same*
//!   node);
//! * a body is O(DAG nodes), even when the logical tree is exponentially
//!   larger;
//! * `Provenance::principals_involved`, which visits each DAG node once,
//!   agrees with a walk of the logical tree.

use piprov_core::name::{Channel, Principal};
use piprov_core::provenance::{Event, Provenance};
use piprov_core::value::Value;
use piprov_store::codec::{decode_body, decode_framed, encode_body, encode_framed};
use piprov_store::{Operation, ProvenanceRecord};
use proptest::prelude::*;

/// One step of the DAG-building program: prepend one event whose channel
/// provenance and tail are picked (modulo pool size) from the sequences
/// built so far.  Interpreting a vector of these steps yields provenance
/// with arbitrarily rich sharing, including the channel-chained shape that
/// makes the logical tree exponential.
#[derive(Debug, Clone)]
struct BuildStep {
    principal: u8,
    output: bool,
    channel_pick: usize,
    tail_pick: usize,
}

fn arb_step() -> impl Strategy<Value = BuildStep> {
    (0u8..5, any::<bool>(), 0usize..32, 0usize..32).prop_map(
        |(principal, output, channel_pick, tail_pick)| BuildStep {
            principal,
            output,
            channel_pick,
            tail_pick,
        },
    )
}

/// Runs a DAG-building program: every step adds one interned node on top
/// of previously built material, so sharing accumulates.
fn build_shared_provenance(steps: &[BuildStep]) -> Provenance {
    let mut pool: Vec<Provenance> = vec![Provenance::empty()];
    for step in steps {
        let channel = pool[step.channel_pick % pool.len()].clone();
        let tail = pool[step.tail_pick % pool.len()].clone();
        let principal = Principal::new(format!("p{}", step.principal));
        let event = if step.output {
            Event::output(principal, channel)
        } else {
            Event::input(principal, channel)
        };
        pool.push(tail.prepend(event));
    }
    pool.last().expect("pool starts non-empty").clone()
}

/// The tree walk `principals_involved` must agree with: every event's
/// principal, most recent first, each channel provenance walked right
/// after its event, a principal kept at its first appearance.
fn principals_by_tree_walk(provenance: &Provenance, out: &mut Vec<Principal>) {
    for event in provenance.iter() {
        if !out.contains(&event.principal) {
            out.push(event.principal.clone());
        }
        principals_by_tree_walk(&event.channel_provenance, out);
    }
}

fn record_with(provenance: Provenance) -> ProvenanceRecord {
    ProvenanceRecord {
        sequence: 9000,
        logical_time: 17,
        principal: Principal::new("auditor"),
        operation: Operation::Receive,
        channel: Channel::new("m"),
        value: Value::Channel(Channel::new("v")),
        provenance,
    }
}

proptest! {
    // 64 cases by default; PIPROV_PROPTEST_CASES overrides (CI runs the
    // suite with at least 256).
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dag_bodies_round_trip_shared_provenance(steps in proptest::collection::vec(arb_step(), 0..40)) {
        let record = record_with(build_shared_provenance(&steps));
        let decoded = decode_body(encode_body(&record)).unwrap();
        prop_assert_eq!(&decoded, &record);
        // The decoder rebuilt through the interner: same node, not merely
        // an equal copy.
        prop_assert_eq!(decoded.provenance.id(), record.provenance.id());
    }

    #[test]
    fn principals_involved_equals_the_tree_walk(steps in proptest::collection::vec(arb_step(), 0..40)) {
        let provenance = build_shared_provenance(&steps);
        // The oracle walks the tree; the cached total_size keeps this
        // guard O(1).
        if provenance.total_size() > 1 << 16 {
            return;
        }
        let mut tree_walk = Vec::new();
        principals_by_tree_walk(&provenance, &mut tree_walk);
        prop_assert_eq!(provenance.principals_involved(), tree_walk);
    }

    #[test]
    fn framed_dag_records_round_trip(steps in proptest::collection::vec(arb_step(), 0..40)) {
        let record = record_with(build_shared_provenance(&steps));
        let mut framed = encode_framed(&record);
        let decoded = decode_framed(&mut framed).unwrap().unwrap();
        prop_assert_eq!(decoded, record);
        prop_assert_eq!(decode_framed(&mut framed).unwrap(), None);
    }

    #[test]
    fn dag_encoding_never_stores_a_node_twice(steps in proptest::collection::vec(arb_step(), 0..40)) {
        let record = record_with(build_shared_provenance(&steps));
        let body = encode_body(&record);
        // Size is O(DAG): a generous per-node constant bounds the body.
        let nodes = record.provenance.dag_size();
        prop_assert!(body.len() <= 96 + 32 * nodes,
            "body {} bytes for {} dag nodes", body.len(), nodes);
    }
}

/// Deterministic pathological case: a value relayed `hops` times where
/// every hop's channel carries the full history so far.  The logical tree
/// doubles per hop; the DAG grows by two nodes per hop.
fn chained(hops: usize) -> Provenance {
    let mut provenance =
        Provenance::single(Event::output(Principal::new("origin"), Provenance::empty()));
    for i in 0..hops {
        let principal = Principal::new(format!("relay{}", i));
        provenance = provenance
            .prepend(Event::output(principal.clone(), provenance.clone()))
            .prepend(Event::input(principal, provenance.clone()));
    }
    provenance
}

#[test]
fn dag_encoding_is_strictly_smaller_on_pathological_sharing() {
    let record = record_with(chained(9));
    let tree = record.provenance.total_size();
    let dag_nodes = record.provenance.dag_size();
    assert!(tree > 1 << 9, "tree is exponential: {}", tree);
    assert!(dag_nodes <= 2 * 9 + 1, "dag is linear: {}", dag_nodes);
    let dag = encode_body(&record);
    assert!(dag.len() <= 96 + 32 * dag_nodes, "dag is O(dag nodes)");
    assert_eq!(decode_body(dag).unwrap(), record);
}

#[test]
fn direction_mix_survives_the_dag_round_trip() {
    // Regression-style check that Output/Input and empty/non-empty channel
    // provenances all hit distinct interned nodes and decode faithfully.
    let km = Provenance::single(Event::output(Principal::new("c"), Provenance::empty()));
    let provenance = Provenance::empty()
        .prepend(Event::output(Principal::new("a"), km.clone()))
        .prepend(Event::input(Principal::new("b"), km.clone()))
        .prepend(Event::input(Principal::new("a"), Provenance::empty()))
        .prepend(Event::output(Principal::new("b"), km));
    let record = record_with(provenance);
    assert_eq!(decode_body(encode_body(&record)).unwrap(), record);
}
