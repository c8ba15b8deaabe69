//! The differential-audit harness: counterfactual answers must equal a
//! from-scratch engine that ingested the **literally filtered** history.
//!
//! Two complementary layers of evidence:
//!
//! * **Differential equivalence** (proptest) — for seeded random
//!   workloads with genuine spine sharing, `counterfactual(filter)` on a
//!   live engine must agree with a fresh engine whose every record had
//!   the filter applied to its top-level events before ingest: equal
//!   verdicts, equal sequences, equal watermarks.  The live engine is
//!   queried once **memo-cold** (first request after open) and once
//!   **memo-warm** (after vetting every value against every policy), and
//!   both answers must be byte-for-byte identical — memo reuse may only
//!   change work counters, never verdicts.
//! * **Witness-slice soundness** (deterministic) — every `Passed` why
//!   slice replayed *alone* re-vets as `Passed`; on small histories,
//!   dropping any single event from the slice breaks the verdict
//!   (minimality spot-check); blocked frontiers point at the earliest
//!   event where every candidate trail dies; deep shared spines prove
//!   `memo_reused` fires without changing the answer.

use piprov_audit::{
    filtered_view, AuditEngine, AuditOutcome, AuditRequest, CounterfactualVerdict, EventFilter,
    WhySlice,
};
use piprov_core::name::{Channel, Principal};
use piprov_core::provenance::{principal_bit, Direction, Event, Provenance};
use piprov_core::value::Value;
use piprov_patterns::parse_pattern;
use piprov_store::{Operation, ProvenanceRecord};
use proptest::prelude::*;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_dir(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!(
        "piprov-differential-{}-{}-{}",
        std::process::id(),
        name,
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn value(i: usize) -> Value {
    Value::Channel(Channel::new(format!("item{}", i)))
}

/// The policies both engines carry; textual sources keep this aligned
/// with what a `.ppol` pack would install.
const POLICIES: &[(&str, &str)] = &[
    ("vendor", "p0!Any; Any"),
    ("either-vendor", "(p0 + p1)!Any; Any"),
    ("deep-origin", "Any; p0!Any"),
    ("received", "p2?Any; Any"),
];

fn register_policies(engine: &AuditEngine) {
    for (name, source) in POLICIES {
        engine.register_pattern(*name, parse_pattern(source).expect("policy source parses"));
    }
}

/// Applies `filter` to a record the way the oracle defines it: keep the
/// record, drop matching **top-level** events (channel provenances ride
/// along untouched), preserving order.
fn filtered_record(record: &ProvenanceRecord, filter: &EventFilter) -> ProvenanceRecord {
    let mut filtered = record.clone();
    filtered.sequence = 0;
    filtered.provenance = Provenance::from_events(
        record
            .provenance
            .to_vec()
            .into_iter()
            .filter(|event| !filter.removes(event)),
    );
    filtered
}

// ---------------------------------------------------------------------------
// Seeded random workloads with genuine sharing.
// ---------------------------------------------------------------------------

/// A workload: a pool of provenances grown by prepends (each step's
/// channel and tail drawn from the pool so far, so spines genuinely
/// share suffixes), and records that each pick one pool entry.
#[derive(Debug, Clone)]
struct Workload {
    records: Vec<ProvenanceRecord>,
}

fn build_workload(steps: &[(u8, bool, usize, usize)], picks: &[(usize, usize)]) -> Workload {
    let mut pool: Vec<Provenance> = vec![Provenance::empty()];
    for (principal, output, channel_pick, tail_pick) in steps {
        let channel = pool[channel_pick % pool.len()].clone();
        let tail = pool[tail_pick % pool.len()].clone();
        let principal = Principal::new(format!("p{}", principal % 5));
        let event = if *output {
            Event::output(principal, channel)
        } else {
            Event::input(principal, channel)
        };
        pool.push(tail.prepend(event));
    }
    let records = picks
        .iter()
        .map(|(value_pick, pool_pick)| {
            ProvenanceRecord::new(
                0,
                "writer",
                Operation::Send,
                "m",
                value(value_pick % 4),
                pool[pool_pick % pool.len()].clone(),
            )
        })
        .collect();
    Workload { records }
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    (
        proptest::collection::vec((0u8..5, any::<bool>(), 0usize..24, 0usize..24), 1..24),
        proptest::collection::vec((0usize..4, 0usize..24), 1..10),
    )
        .prop_map(|(steps, picks)| build_workload(&steps, &picks))
}

/// Filters over `p0`–`p9`: workloads use `p0`–`p4`, so `p5`–`p9` are
/// absent and a node's principal filter may rule them out of a whole
/// spine.
fn arb_filter() -> impl Strategy<Value = EventFilter> {
    prop_oneof![
        (0u32..10).prop_map(|p| EventFilter::Principal(Principal::new(format!("p{}", p)))),
        prop_oneof![Just(Direction::Output), Just(Direction::Input)].prop_map(EventFilter::Kind),
        (0u32..10).prop_map(|p| EventFilter::ChannelVia(Principal::new(format!("p{}", p)))),
    ]
}

/// The `Principal` and `ChannelVia` filters over `p0`–`p9`, the ones a
/// node's principal filter can rule out.
fn principal_filters() -> Vec<(Principal, EventFilter)> {
    (0..10)
        .flat_map(|p| {
            let principal = Principal::new(format!("p{}", p));
            [
                (principal.clone(), EventFilter::Principal(principal.clone())),
                (principal.clone(), EventFilter::ChannelVia(principal)),
            ]
        })
        .collect()
}

/// Asserts that `filtered_view` of `history` equals the literal filter:
/// `kept ; suffix` are the events `removes` keeps, and `removed` the ones
/// it drops, in spine order.
fn assert_view_matches_removes(history: &Provenance, filter: &EventFilter) {
    let view = filtered_view(history, filter);
    let joined: Vec<Event> = view
        .kept
        .iter()
        .map(|event| (*event).clone())
        .chain(view.suffix.to_vec())
        .collect();
    let (removed, kept): (Vec<Event>, Vec<Event>) =
        history.iter().cloned().partition(|e| filter.removes(e));
    assert_eq!(joined, kept, "kept events for {} on {}", filter, history);
    let got: Vec<Event> = view.removed.iter().map(|r| r.event.clone()).collect();
    assert_eq!(got, removed, "removed events for {} on {}", filter, history);
}

/// Unwraps a counterfactual outcome, or returns `None` for the
/// (legitimate) unknown-value answer when a workload never wrote the
/// probed value.
fn as_counterfactual(outcome: &AuditOutcome) -> Option<&CounterfactualVerdict> {
    match outcome {
        AuditOutcome::Counterfactual(verdict) => Some(verdict),
        AuditOutcome::UnknownValue => None,
        other => panic!("expected a counterfactual verdict, got {:?}", other),
    }
}

fn vet_verdict(outcome: &AuditOutcome) -> Option<(bool, u64)> {
    match outcome {
        AuditOutcome::Vetted { verdict, sequence } => Some((*verdict, *sequence)),
        AuditOutcome::UnknownValue => None,
        other => panic!("expected a vet verdict, got {:?}", other),
    }
}

proptest! {
    // 32 cases locally; PIPROV_PROPTEST_CASES raises it in the CI deep
    // run (512).
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The headline property.  For every (workload, filter, value,
    /// policy): the live engine's counterfactual verdict equals a
    /// from-scratch engine ingesting the literally filtered history —
    /// same verdict, same sequence, same watermark — and the memo-cold
    /// and memo-warm answers are identical.
    #[test]
    fn counterfactual_equals_from_scratch_filtered_engine(
        workload in arb_workload(),
        filter in arb_filter(),
    ) {
        let live_dir = temp_dir("live");
        let live = AuditEngine::open(&live_dir).unwrap();
        register_policies(&live);
        live.ingest_batch(workload.records.clone()).unwrap();

        let scratch_dir = temp_dir("scratch");
        let scratch = AuditEngine::open(&scratch_dir).unwrap();
        register_policies(&scratch);
        scratch
            .ingest_batch(
                workload
                    .records
                    .iter()
                    .map(|r| filtered_record(r, &filter))
                    .collect(),
            )
            .unwrap();
        prop_assert_eq!(live.watermark(), scratch.watermark());

        for v in 0..4 {
            for (policy, _) in POLICIES {
                let request = AuditRequest::Counterfactual {
                    value: value(v),
                    pattern: (*policy).to_string(),
                    remove: filter.clone(),
                };
                // Memo-cold: the engine's very first query for this
                // (value, policy) pair after open.
                let cold = live.handle(&request);
                // Warm the memo through the ordinary vet path, then ask
                // again: the answer must not move.
                let original_vet = live.handle(&AuditRequest::VetValue {
                    value: value(v),
                    pattern: (*policy).to_string(),
                });
                let warm = live.handle(&request);
                prop_assert_eq!(&cold.outcome, &warm.outcome,
                    "memo warmth changed a counterfactual answer");
                prop_assert_eq!(cold.watermark, warm.watermark);

                let scratch_vet = scratch.handle(&AuditRequest::VetValue {
                    value: value(v),
                    pattern: (*policy).to_string(),
                });
                prop_assert_eq!(warm.watermark, scratch_vet.watermark);

                match as_counterfactual(&warm.outcome) {
                    None => {
                        // Value never written: the scratch engine must
                        // agree it is unknown.
                        prop_assert_eq!(vet_verdict(&scratch_vet.outcome), None);
                    }
                    Some(verdict) => {
                        // The original side must match the live vet.
                        let (live_verdict, live_seq) =
                            vet_verdict(&original_vet.outcome).expect("value is known");
                        prop_assert_eq!(verdict.original, live_verdict);
                        prop_assert_eq!(verdict.sequence, live_seq);
                        // The counterfactual side must match the
                        // from-scratch engine byte for byte.
                        let (scratch_verdict, scratch_seq) =
                            vet_verdict(&scratch_vet.outcome).expect("records survive filtering");
                        prop_assert_eq!(
                            verdict.counterfactual, scratch_verdict,
                            "counterfactual diverges from the literally filtered engine"
                        );
                        prop_assert_eq!(verdict.sequence, scratch_seq);
                        // Every reported removed event matches the
                        // filter; their count is the oracle's count on
                        // the newest record for the value.
                        for removed in &verdict.removed {
                            prop_assert!(filter.removes(&removed.event));
                        }
                        let newest = workload
                            .records
                            .iter()
                            .rev()
                            .find(|r| r.value == value(v))
                            .expect("value is known");
                        let expected_removed = newest
                            .provenance
                            .to_vec()
                            .iter()
                            .filter(|event| filter.removes(event))
                            .count();
                        prop_assert_eq!(verdict.removed.len(), expected_removed);
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&live_dir);
        let _ = std::fs::remove_dir_all(&scratch_dir);
    }

    /// Summary soundness: a node's principal filter over-approximates.
    /// Over every node of a workload's pool (spines and the channel
    /// histories nested in them), whenever `removes` holds for a spine
    /// event at or below the node, the node's filter says "maybe" for the
    /// filter's principal, and the early-stopping `filtered_view` equals
    /// the literal filter.
    #[test]
    fn node_filters_never_rule_out_a_removable_event(
        steps in proptest::collection::vec(
            (0u8..5, any::<bool>(), 0usize..24, 0usize..24),
            1..24,
        ),
    ) {
        // One record per pool entry, so every pool node is reachable.
        let picks: Vec<(usize, usize)> = (0..=steps.len()).map(|i| (0, i)).collect();
        let workload = build_workload(&steps, &picks);
        let nodes = Provenance::dag_nodes(workload.records.iter().map(|r| &r.provenance));
        for node in &nodes {
            for (principal, filter) in principal_filters() {
                if node.iter().any(|event| filter.removes(event)) {
                    prop_assert!(
                        node.principal_filter() & principal_bit(&principal) != 0,
                        "the filter of {} rules out {}, which removes an event", node, filter
                    );
                }
                assert_view_matches_removes(node, &filter);
            }
        }
    }

    /// Why-slice soundness over random workloads: every `Passed` slice,
    /// replayed alone into a fresh engine, re-vets as `Passed`.
    #[test]
    fn passed_why_slices_replay_alone_as_passed(workload in arb_workload()) {
        let live_dir = temp_dir("why-live");
        let live = AuditEngine::open(&live_dir).unwrap();
        register_policies(&live);
        live.ingest_batch(workload.records.clone()).unwrap();

        let replay_dir = temp_dir("why-replay");
        let replay = AuditEngine::open(&replay_dir).unwrap();
        register_policies(&replay);

        for v in 0..4 {
            for (policy, _) in POLICIES {
                let response = live.handle(&AuditRequest::Why {
                    value: value(v),
                    pattern: (*policy).to_string(),
                });
                let slice = match &response.outcome {
                    AuditOutcome::Why(slice) => slice,
                    AuditOutcome::UnknownValue => continue,
                    other => panic!("expected a why slice, got {:?}", other),
                };
                if !slice.verdict {
                    continue;
                }
                // Rebuild a provenance from nothing but the slice's
                // events (they arrive most-recent-first, the order
                // `from_events` takes) and vet it in a fresh engine.
                let witness = Provenance::from_events(
                    slice.events.iter().map(|w| w.event.clone()),
                );
                let probe = Value::Channel(Channel::new(format!(
                    "witness-{}-{}", v, policy
                )));
                replay
                    .ingest(ProvenanceRecord::new(
                        0,
                        "replayer",
                        Operation::Send,
                        "m",
                        probe.clone(),
                        witness,
                    ))
                    .unwrap();
                let revet = replay.handle(&AuditRequest::VetValue {
                    value: probe,
                    pattern: (*policy).to_string(),
                });
                match revet.outcome {
                    AuditOutcome::Vetted { verdict, .. } => prop_assert!(
                        verdict,
                        "a Passed why slice failed when replayed alone"
                    ),
                    other => panic!("expected a verdict, got {:?}", other),
                }
            }
        }
        let _ = std::fs::remove_dir_all(&live_dir);
        let _ = std::fs::remove_dir_all(&replay_dir);
    }
}

// ---------------------------------------------------------------------------
// Deterministic witness-slice checks on small histories.
// ---------------------------------------------------------------------------

fn event(principal: &str, direction: Direction) -> Event {
    match direction {
        Direction::Output => Event::output(Principal::new(principal), Provenance::empty()),
        Direction::Input => Event::input(Principal::new(principal), Provenance::empty()),
    }
}

/// Opens an engine over a two-step policy and one record per probe
/// provenance, newest-first event lists.
fn engine_with(name: &str, records: &[(&str, Vec<Event>)]) -> (AuditEngine, PathBuf) {
    let dir = temp_dir(name);
    let engine = AuditEngine::open(&dir).unwrap();
    engine.register_pattern(
        "two-step",
        parse_pattern("p0!Any; p1!Any").expect("two-step parses"),
    );
    register_policies(&engine);
    for (value_name, events) in records {
        engine
            .ingest(ProvenanceRecord::new(
                0,
                "writer",
                Operation::Send,
                "m",
                Value::Channel(Channel::new(*value_name)),
                Provenance::from_events(events.iter().cloned()),
            ))
            .unwrap();
    }
    (engine, dir)
}

fn why(engine: &AuditEngine, value_name: &str, policy: &str) -> WhySlice {
    let response = engine.handle(&AuditRequest::Why {
        value: Value::Channel(Channel::new(value_name)),
        pattern: policy.to_string(),
    });
    match response.outcome {
        AuditOutcome::Why(slice) => slice,
        other => panic!("expected a why slice, got {:?}", other),
    }
}

fn vet(engine: &AuditEngine, value_name: &str, policy: &str) -> bool {
    let response = engine.handle(&AuditRequest::VetValue {
        value: Value::Channel(Channel::new(value_name)),
        pattern: policy.to_string(),
    });
    match response.outcome {
        AuditOutcome::Vetted { verdict, .. } => verdict,
        other => panic!("expected a verdict, got {:?}", other),
    }
}

/// Minimality spot-check: on a history where every event carries the
/// two-step pattern, dropping **any** single event from the passed slice
/// flips the verdict.
#[test]
fn dropping_any_single_event_from_a_passed_slice_breaks_it() {
    let full = vec![
        event("p0", Direction::Output),
        event("p1", Direction::Output),
    ];
    let mut records = vec![("full", full.clone())];
    for drop in 0..full.len() {
        let mut events = full.clone();
        events.remove(drop);
        records.push((["drop0", "drop1"][drop], events));
    }
    let (engine, dir) = engine_with("minimality", &records);

    let slice = why(&engine, "full", "two-step");
    assert!(slice.verdict, "the full history passes");
    assert_eq!(slice.blocked, None);
    assert_eq!(slice.events.len(), 2, "the slice is the whole spine");

    assert!(
        !vet(&engine, "drop0", "two-step"),
        "slice minus event 0 fails"
    );
    assert!(
        !vet(&engine, "drop1", "two-step"),
        "slice minus event 1 fails"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Blocked frontiers: the slice points at the **earliest** event where
/// every candidate trail dies — immediately (index 0) when the newest
/// event already mismatches, later when a prefix was consumable.
#[test]
fn blocked_frontier_is_the_earliest_death() {
    let records = vec![
        (
            "dies-late",
            vec![
                event("p0", Direction::Output),
                event("p1", Direction::Output),
                event("p2", Direction::Output),
            ],
        ),
        ("dies-immediately", vec![event("p3", Direction::Output)]),
        ("exhausts", vec![event("p0", Direction::Output)]),
    ];
    let (engine, dir) = engine_with("frontier", &records);

    // Two events consume, the third finds no transition: blocked at 2.
    let slice = why(&engine, "dies-late", "two-step");
    assert!(!slice.verdict);
    assert_eq!(slice.blocked, Some(2));
    assert_eq!(slice.events.len(), 3, "two consumed plus the blocker");

    // The newest event already mismatches: blocked at 0.
    let slice = why(&engine, "dies-immediately", "two-step");
    assert!(!slice.verdict);
    assert_eq!(slice.blocked, Some(0));
    assert_eq!(slice.events.len(), 1);

    // The spine ends while the pattern still wants more: no blocker,
    // the whole (consumed) history is the explanation.
    let slice = why(&engine, "exhausts", "two-step");
    assert!(!slice.verdict);
    assert_eq!(slice.blocked, None);
    assert_eq!(slice.events.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deep shared spines: a counterfactual that removes one near-top event
/// re-uses the original walk's memoized suffix verdicts — `memo_reused`
/// fires, the filtered walk visits a handful of nodes instead of the
/// whole spine, and the verdict still matches the from-scratch oracle.
#[test]
fn counterfactual_reuses_memoized_suffixes_on_deep_spines() {
    const DEPTH: usize = 64;
    // Newest-first: [p0! , drop? , relay? × DEPTH].  The `vendor`
    // policy (p0!Any; Any) passes, and removing `drop` keeps it passing
    // through a spine whose suffix is shared with the original.
    let mut events = vec![
        event("p0", Direction::Output),
        event("drop", Direction::Input),
    ];
    events.extend((0..DEPTH).map(|_| event("relay", Direction::Input)));
    let (engine, dir) = engine_with("deep", &[("deep", events)]);

    let response = engine.handle(&AuditRequest::Counterfactual {
        value: Value::Channel(Channel::new("deep")),
        pattern: "vendor".to_string(),
        remove: EventFilter::Principal(Principal::new("drop")),
    });
    let verdict = match &response.outcome {
        AuditOutcome::Counterfactual(verdict) => verdict,
        other => panic!("expected a counterfactual verdict, got {:?}", other),
    };
    assert!(verdict.original, "the full spine passes vendor");
    assert!(
        verdict.counterfactual,
        "removing the relay hop keeps it passing"
    );
    assert!(!verdict.flipped());
    assert_eq!(verdict.removed.len(), 1);

    // The original walk visits the whole spine (DEPTH + 2 nodes); the
    // filtered walk re-prepends one event and then hits the memoized
    // shared suffix instead of re-walking it.
    assert!(
        response.stats.memo_reused >= 1,
        "the filtered walk must reuse the original's memoized suffix: {:?}",
        response.stats
    );
    assert!(
        response.stats.dag_nodes_visited <= DEPTH + 2 + 4,
        "the filtered walk must not re-walk the shared suffix: {:?}",
        response.stats
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// More distinct principals than a node filter has bits, so by pigeonhole
/// some share one: a walk for a principal whose bit another principal
/// below it shares goes on past its deepest removal, and must still equal
/// the literal filter, for spine and channel-history principals alike.
#[test]
fn filtered_views_stay_exact_when_principals_share_a_filter_bit() {
    const NAMES: usize = 80;
    let name = |i: usize| Principal::new(format!("crowd{}", i));
    // Spine event i is by crowd{i}; every third one travels on a channel
    // whose one-event history is by another member of the crowd.
    let spine = Provenance::from_events(
        (0..NAMES)
            .map(|i| {
                let channel = if i % 3 == 0 {
                    Provenance::single(Event::output(
                        name((i * 7 + 3) % NAMES),
                        Provenance::empty(),
                    ))
                } else {
                    Provenance::empty()
                };
                Event::input(name(i), channel)
            })
            .collect::<Vec<_>>(),
    );
    let bits: HashSet<u64> = (0..NAMES).map(|i| principal_bit(&name(i))).collect();
    assert!(
        bits.len() < NAMES,
        "pigeonhole: some principals share a bit"
    );
    let mut walked_past = 0;
    for i in 0..NAMES + 4 {
        let principal = name(i);
        for filter in [
            EventFilter::Principal(principal.clone()),
            EventFilter::ChannelVia(principal),
        ] {
            assert_view_matches_removes(&spine, &filter);
        }
        // crowd{i} performs only spine event i, so a walk that decides
        // more than i + 1 events was kept going by a shared bit below.
        if i < NAMES && filtered_view(&spine, &EventFilter::Principal(name(i))).decided > i + 1 {
            walked_past += 1;
        }
    }
    assert!(
        walked_past > 0,
        "no principal shared a bit with one below it"
    );
}
