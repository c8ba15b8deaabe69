//! Counterfactuals intern nothing.
//!
//! The provenance interner is process-global and never frees a node, so a
//! request that interned its filtered history would leave it behind for
//! the life of the server, and a wire client asking distinct what-if
//! questions would grow server memory without bound.  This file holds a
//! single test, so no other test in the binary interns while it counts.

use piprov_audit::{AuditEngine, AuditOutcome, AuditRequest, EventFilter};
use piprov_core::name::{Channel, Principal};
use piprov_core::provenance::{interner_stats, Event, Provenance};
use piprov_core::value::Value;
use piprov_patterns::parse_pattern;
use piprov_store::{Operation, ProvenanceRecord};

/// Relays under the head send: the record's spine holds 1,024 events.
const RELAYS: usize = 1_023;

#[test]
fn distinct_counterfactuals_intern_no_node_and_roll_no_memo_epoch() {
    let dir = std::env::temp_dir().join(format!("piprov-cf-interning-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = AuditEngine::open(&dir).unwrap();
    engine.register_pattern("from-s0", parse_pattern("s0!Any; Any").unwrap());
    let relay = |i: usize| Principal::new(format!("relay_{}", i));
    let mut events = vec![Event::output(Principal::new("s0"), Provenance::empty())];
    events.extend((0..RELAYS).map(|i| Event::input(relay(i), Provenance::empty())));
    let spine = Provenance::from_events(events);
    assert_eq!(spine.len(), RELAYS + 1);
    let value = Value::Channel(Channel::new("deep"));
    engine
        .ingest(ProvenanceRecord::new(
            0,
            "s0",
            Operation::Send,
            "m",
            value.clone(),
            spine.clone(),
        ))
        .unwrap();
    let vet = engine.handle(&AuditRequest::VetValue {
        value: value.clone(),
        pattern: "from-s0".into(),
    });
    assert!(matches!(
        vet.outcome,
        AuditOutcome::Vetted { verdict: true, .. }
    ));

    let nodes = interner_stats().interned_nodes;
    let memo = engine.pattern_memo_stats("from-s0").unwrap();
    for i in 0..RELAYS {
        let response = engine.handle(&AuditRequest::Counterfactual {
            value: value.clone(),
            pattern: "from-s0".into(),
            remove: EventFilter::Principal(relay(i)),
        });
        match response.outcome {
            AuditOutcome::Counterfactual(verdict) => {
                assert!(verdict.original && verdict.counterfactual);
                assert_eq!(verdict.removed.len(), 1);
            }
            other => panic!("expected a counterfactual, got {:?}", other),
        }
        assert!(
            response.stats.memo_reused >= 1,
            "the shared suffix answers from the memo"
        );
    }
    assert_eq!(
        interner_stats().interned_nodes,
        nodes,
        "{} distinct counterfactuals interned nodes",
        RELAYS
    );
    let after = engine.pattern_memo_stats("from-s0").unwrap();
    assert_eq!(after.epochs, memo.epochs, "the memo rolled over");
    assert!(
        after.entries <= memo.entries + spine.len(),
        "memo entries grew from {} to {}",
        memo.entries,
        after.entries
    );
    std::fs::remove_dir_all(&dir).ok();
}
