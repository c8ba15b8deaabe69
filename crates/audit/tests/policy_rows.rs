//! Metric rows follow the policy set.
//!
//! One engine is driven through a seeded random sequence of programmatic
//! registrations, pack installs (random subsets of a four-name pool with
//! random bodies) and vet, why and counterfactual requests against random
//! names and values.  A model counts each response's outcome.  After every
//! step `engine.metrics()` must agree with it:
//!
//! * the per-policy rows name exactly the policies of the current set, in
//!   name order;
//! * each row's verdict counters, counterfactual counters and latency
//!   count equal the model's counts since the name last entered the set:
//!   a replaced body keeps them, and a name that is dropped and added
//!   again starts from zero;
//! * `vets_unknown_pattern` counts every request that named no policy.

use piprov_audit::{AuditEngine, AuditOutcome, AuditRequest, EventFilter, PolicySnapshot};
use piprov_core::name::{Channel, Principal};
use piprov_core::provenance::{Event, Provenance};
use piprov_core::value::Value;
use piprov_patterns::parse_pattern;
use piprov_policy::{PackFile, PackSource, PolicyPack};
use piprov_store::{Operation, ProvenanceRecord};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_dir() -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!(
        "piprov-policy-rows-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every policy is installed as `rules::gate::<short name>`: a pack
/// rooted at `rules` with one file `gate.ppol`, and programmatic
/// registrations under the same full names.
const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
/// Requests also name this policy, which no step ever registers.
const GHOST: &str = "ghost";
const BODIES: [&str; 5] = [
    "Any",
    "p0!Any; Any",
    "Any; p1?Any",
    "(p0 + p1)!Any; Any",
    "eps | (p2!Any; Any)",
];
/// Values `item0`..`item2` have histories; `item3` never does.
const VALUES: usize = 4;

fn full_name(short: &str) -> String {
    format!("rules::gate::{}", short)
}

fn value(i: usize) -> Value {
    Value::Channel(Channel::new(format!("item{}", i)))
}

#[derive(Debug, Clone)]
enum Step {
    Register {
        name: usize,
        body: usize,
    },
    Install {
        members: u8,
        bodies: [usize; 4],
    },
    Vet {
        name: usize,
        value: usize,
    },
    Why {
        name: usize,
        value: usize,
    },
    Counterfactual {
        name: usize,
        value: usize,
        principal: u8,
    },
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0usize..4, 0usize..BODIES.len()).prop_map(|(name, body)| Step::Register { name, body }),
        (
            0u8..16,
            (
                0usize..BODIES.len(),
                0usize..BODIES.len(),
                0usize..BODIES.len(),
                0usize..BODIES.len()
            )
        )
            .prop_map(|(members, (a, b, c, d))| Step::Install {
                members,
                bodies: [a, b, c, d],
            }),
        (0usize..5, 0usize..VALUES).prop_map(|(name, value)| Step::Vet { name, value }),
        (0usize..5, 0usize..VALUES).prop_map(|(name, value)| Step::Why { name, value }),
        (0usize..5, 0usize..VALUES, 0u8..3).prop_map(|(name, value, principal)| {
            Step::Counterfactual {
                name,
                value,
                principal,
            }
        }),
    ]
}

/// Index 4 is the ghost name, which no step registers.
fn request_name(pick: usize) -> String {
    full_name(NAMES.get(pick).copied().unwrap_or(GHOST))
}

/// One row's counts as the model keeps them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    vets_passed: u64,
    vets_failed: u64,
    vets_unknown_value: u64,
    counterfactuals: u64,
    counterfactual_flips: u64,
    latency_count: u64,
}

impl Counts {
    fn of(row: &PolicySnapshot) -> Counts {
        Counts {
            vets_passed: row.vets_passed,
            vets_failed: row.vets_failed,
            vets_unknown_value: row.vets_unknown_value,
            counterfactuals: row.counterfactuals,
            counterfactual_flips: row.counterfactual_flips,
            latency_count: row.latency.count,
        }
    }
}

#[derive(Debug, Default)]
struct Model {
    /// The current set's names, each with its counts since it entered.
    rows: BTreeMap<String, Counts>,
    unknown_pattern: u64,
}

impl Model {
    /// Counts `request`'s answer: an unknown-pattern answer, or (for a
    /// name in the set) whatever the answer records into its row.  Every
    /// vet of a policy in the set is timed, whatever its outcome.
    fn observe(&mut self, request: &AuditRequest, outcome: &AuditOutcome) {
        let (name, vet) = match request {
            AuditRequest::VetValue { pattern, .. } => (pattern, true),
            AuditRequest::Why { pattern, .. } | AuditRequest::Counterfactual { pattern, .. } => {
                (pattern, false)
            }
            other => panic!("the property sends no {:?}", other),
        };
        let Some(row) = self.rows.get_mut(name) else {
            assert!(
                matches!(outcome, AuditOutcome::UnknownPattern { .. }),
                "{} is not in the set, but the answer was {:?}",
                name,
                outcome
            );
            self.unknown_pattern += 1;
            return;
        };
        match outcome {
            AuditOutcome::Vetted { verdict: true, .. } => row.vets_passed += 1,
            AuditOutcome::Vetted { verdict: false, .. } => row.vets_failed += 1,
            AuditOutcome::UnknownValue if vet => row.vets_unknown_value += 1,
            AuditOutcome::Counterfactual(verdict) => {
                row.counterfactuals += 1;
                row.counterfactual_flips += verdict.flipped() as u64;
            }
            AuditOutcome::UnknownValue | AuditOutcome::Why(_) => {}
            other => panic!("unexpected answer for {}: {:?}", name, other),
        }
        row.latency_count += vet as u64;
    }
}

fn seed_records(engine: &AuditEngine) {
    let hop = |who: &str, output: bool, tail: &Provenance| {
        let who = Principal::new(who);
        tail.prepend(if output {
            Event::output(who, Provenance::empty())
        } else {
            Event::input(who, Provenance::empty())
        })
    };
    let empty = Provenance::empty();
    let histories = [
        hop("p0", true, &empty),
        hop("p1", false, &hop("p0", true, &empty)),
        hop("p2", true, &hop("p1", false, &empty)),
    ];
    let records = histories
        .into_iter()
        .enumerate()
        .map(|(i, history)| {
            ProvenanceRecord::new(i as u64, "p0", Operation::Send, "m", value(i), history)
        })
        .collect();
    engine.ingest_batch(records).expect("seed records");
}

fn install(engine: &AuditEngine, model: &mut Model, members: u8, bodies: [usize; 4]) {
    let text: String = (0..NAMES.len())
        .filter(|i| members & (1 << i) != 0)
        .map(|i| format!("policy {} = {}\n", NAMES[i], BODIES[bodies[i]]))
        .collect();
    let pack = PolicyPack::compile(&PackSource::new(
        "rules",
        vec![PackFile::new("gate.ppol", text)],
    ))
    .expect("the pack compiles");
    engine.install_pack(&pack);
    model.rows = pack
        .policies
        .iter()
        .map(|def| {
            let counts = model.rows.get(&def.name).copied().unwrap_or_default();
            (def.name.clone(), counts)
        })
        .collect();
}

fn run(step: &Step, engine: &AuditEngine, model: &mut Model) {
    let request = match *step {
        Step::Register { name, body } => {
            let name = full_name(NAMES[name]);
            engine.register_pattern(name.as_str(), parse_pattern(BODIES[body]).expect("body"));
            model.rows.entry(name).or_default();
            return;
        }
        Step::Install { members, bodies } => return install(engine, model, members, bodies),
        Step::Vet { name, value: v } => AuditRequest::VetValue {
            value: value(v),
            pattern: request_name(name),
        },
        Step::Why { name, value: v } => AuditRequest::Why {
            value: value(v),
            pattern: request_name(name),
        },
        Step::Counterfactual {
            name,
            value: v,
            principal,
        } => AuditRequest::Counterfactual {
            value: value(v),
            pattern: request_name(name),
            remove: EventFilter::Principal(Principal::new(format!("p{}", principal))),
        },
    };
    let response = engine.handle(&request);
    model.observe(&request, &response.outcome);
}

fn check(engine: &AuditEngine, model: &Model, step: usize) {
    let metrics = engine.metrics();
    let names: Vec<&str> = metrics.policies.iter().map(|p| p.policy.as_str()).collect();
    let expected: Vec<&str> = model.rows.keys().map(String::as_str).collect();
    assert_eq!(names, expected, "rows after step {}", step);
    for row in &metrics.policies {
        assert_eq!(
            Counts::of(row),
            model.rows[&row.policy],
            "{} after step {}",
            row.policy,
            step
        );
    }
    assert_eq!(metrics.vets_unknown_pattern, model.unknown_pattern);
}

proptest! {
    // 48 cases locally; PIPROV_PROPTEST_CASES raises it in the CI deep
    // run (1024).
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn metric_rows_follow_the_policy_set(
        steps in proptest::collection::vec(arb_step(), 1..40),
    ) {
        let dir = temp_dir();
        let engine = AuditEngine::open(&dir).expect("open engine");
        seed_records(&engine);
        let mut model = Model::default();
        for (i, step) in steps.iter().enumerate() {
            run(step, &engine, &mut model);
            check(&engine, &model, i);
        }
        drop(engine);
        std::fs::remove_dir_all(&dir).ok();
    }
}
