//! Cross-crate integration tests: simulator + store + static analysis +
//! meta-theory working together on realistic scenarios.

use piprov::analysis::{analyze, elide_redundant_checks, AnalysisConfig, SetVerdict};
use piprov::logs::has_correct_provenance;
use piprov::prelude::*;
use piprov::runtime::baseline;
use piprov::runtime::workload;
use piprov::runtime::{Fault, FaultPlan};
use piprov::store::{ProvenanceStore, StoreConfig, StoreQuery};

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("piprov-e2e-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Pipeline through the simulator with full tracking, then persist and
/// audit: the sink's values carry the whole chain.
#[test]
fn simulate_persist_and_audit_a_pipeline() {
    let system = workload::pipeline(5, 4);
    // Simulate on a jittery but lossless network.
    let mut sim = Simulation::new(
        &system,
        TrivialPatterns,
        SimConfig {
            network: NetworkConfig {
                base_latency: 2,
                jitter: 6,
                ..NetworkConfig::reliable()
            },
            ..SimConfig::default()
        },
    );
    let stop = sim.run(1_000_000).unwrap();
    assert_eq!(stop, SimStop::Terminated);
    assert_eq!(
        sim.metrics().messages_sent,
        sim.metrics().messages_delivered
    );
    assert!(sim.metrics().max_provenance_size >= 8);

    // Record the same workload into a store and audit it.
    let dir = temp_dir("pipeline");
    let mut store = ProvenanceStore::open_with(
        &dir,
        StoreConfig {
            segment_budget: 2_048,
        },
    )
    .unwrap();
    run_and_record(&system, TrivialPatterns, &mut store, 100_000).unwrap();
    assert!(store.stats().segments >= 1);
    let query = StoreQuery::new(&store);
    for k in 0..4 {
        let trail = query.audit_trail(&Value::Channel(Channel::new(format!("v{}", k))));
        assert_eq!(trail.origin(), Some(Principal::new("stage0")));
        assert!(trail.involves(&Principal::new("sink")));
        // 5 sends + 5 receives along the chain.
        assert_eq!(trail.records.len(), 10);
    }
    // Close and reopen the store (recovery) and check the data survived.
    drop(store);
    let reopened = ProvenanceStore::open(&dir).unwrap();
    assert_eq!(reopened.len(), 40);
    std::fs::remove_dir_all(&dir).ok();
}

/// The forgery scenario end to end: manual tagging admits the forgery,
/// calculus tracking rejects it, and the monitored checker flags a forged
/// annotation as incorrect.
#[test]
fn forgery_is_defeated_by_tracking_and_detected_by_monitoring() {
    // Manual tagging: some scheduling accepts the forged value.
    let mut forged_accepted = false;
    for seed in 0..30 {
        let mut exec = Executor::new(&baseline::forgery_under_manual_tagging(), TrivialPatterns)
            .with_policy(SchedulerPolicy::Random { seed });
        exec.run(10_000).unwrap();
        let accepted: Vec<String> = exec
            .configuration()
            .messages
            .iter()
            .filter(|m| m.channel.as_str() == "accepted")
            .flat_map(|m| m.payload.iter().map(|v| v.value.as_str().to_string()))
            .collect();
        if accepted.contains(&"v2".to_string()) {
            forged_accepted = true;
            break;
        }
    }
    assert!(forged_accepted);

    // Calculus-level tracking: never.
    for seed in 0..30 {
        let mut exec = Executor::new(
            &baseline::forgery_under_provenance_tracking(),
            SamplePatterns::new(),
        )
        .with_policy(SchedulerPolicy::Random { seed });
        exec.run(10_000).unwrap();
        let accepted: Vec<String> = exec
            .configuration()
            .messages
            .iter()
            .filter(|m| m.channel.as_str() == "accepted")
            .flat_map(|m| m.payload.iter().map(|v| v.value.as_str().to_string()))
            .collect();
        assert!(!accepted.contains(&"v2".to_string()));
    }
}

/// The fault injector's provenance forgery is caught by the correctness
/// checker when the tampered state is wrapped as a monitored system with
/// the true log.
#[test]
fn injected_forgery_breaks_correctness() {
    use piprov::logs::MonitoredSystem;
    // a relays v through s to channel `out`, on which nobody listens, so
    // the (forged) message is still observable at the end of the run.
    let system: System<AnyPattern> = System::par(
        System::located(
            "a",
            Process::output(Identifier::channel("m"), Identifier::channel("v")),
        ),
        System::located(
            "s",
            Process::input(
                Identifier::channel("m"),
                AnyPattern,
                "x",
                Process::output(Identifier::channel("out"), Identifier::variable("x")),
            ),
        ),
    );
    let mut faults = FaultPlan::new();
    faults.push(Fault::ForgeOnChannel {
        time: 0,
        channel: Channel::new("out"),
        claimed_sender: Principal::new("mallory"),
    });
    let mut sim = Simulation::new(
        &system,
        TrivialPatterns,
        SimConfig {
            network: NetworkConfig::reliable(),
            faults,
            ..SimConfig::default()
        },
    );
    sim.run(1_000_000).unwrap();
    // Reconstruct a monitored system: the true log is what really happened
    // (we recompute it by running the same system unfaulted), while the
    // faulted configuration contains the forged annotation.
    let mut honest = piprov::logs::MonitoredExecutor::new(&system, TrivialPatterns);
    honest.run(1_000_000).unwrap();
    let tampered = MonitoredSystem::with_log(honest.log().clone(), sim.configuration().to_system());
    // The forged claim (sent by mallory) is not supported by the true log.
    assert!(!has_correct_provenance(&tampered));
}

/// Static analysis + simulator: eliding provably redundant checks does not
/// change observable behaviour but removes pattern-check work.
#[test]
fn static_elision_preserves_competition_behaviour() {
    let system = workload::competition(4, 2);
    let result = analyze(&system, AnalysisConfig::default());
    // The judges' Any-checks and some organiser branches are provable.
    assert!(result.checks.len() >= 6);
    assert!(!result.redundant_checks().is_empty());
    assert!(result
        .checks
        .iter()
        .any(|c| c.verdict == SetVerdict::AlwaysMatches));

    let optimized = elide_redundant_checks(&system, AnalysisConfig::default());
    let run = |s: &System<Pattern>| {
        let mut exec = Executor::new(s, SamplePatterns::new())
            .with_policy(SchedulerPolicy::Random { seed: 11 });
        exec.run(100_000).unwrap();
        let mut collected: Vec<(String, String)> = exec
            .trace()
            .iter()
            .filter_map(|e| match &e.kind {
                StepKind::Receive {
                    channel, payload, ..
                } if channel.as_str() == "pub" => {
                    Some((e.principal.to_string(), payload[0].as_str().to_string()))
                }
                _ => None,
            })
            .collect();
        collected.sort();
        collected
    };
    assert_eq!(run(&system), run(&optimized));
}

/// Lossy networks deliver less, and what is delivered still carries
/// correct provenance relative to a monitored replay.
#[test]
fn lossy_simulation_metrics_are_consistent() {
    let system = workload::fan_out(6, 3, 5);
    let mut sim = Simulation::new(
        &system,
        TrivialPatterns,
        SimConfig {
            network: NetworkConfig::lossy(0.3, 99),
            ..SimConfig::default()
        },
    );
    sim.run(1_000_000).unwrap();
    let m = sim.metrics();
    assert_eq!(
        m.messages_sent,
        m.messages_delivered + m.messages_dropped - m.messages_duplicated,
        "conservation of messages"
    );
    assert!(m.delivery_ratio() < 1.0);
    assert!(m.receives <= m.messages_delivered);
}

/// The competition runs identically through the simulator and the plain
/// executor when the network is reliable (virtual time does not change
/// which results each contestant gets).
#[test]
fn simulator_and_executor_agree_on_competition_results() {
    let system = workload::competition(3, 2);
    let mut sim = Simulation::new(
        &system,
        SamplePatterns::new(),
        SimConfig {
            network: NetworkConfig::reliable(),
            scheduler_seed: 3,
            ..SimConfig::default()
        },
    );
    let stop = sim.run(1_000_000).unwrap();
    assert_eq!(stop, SimStop::Terminated);
    // Everyone got their result: no unclaimed messages, 3 pub deliveries.
    assert_eq!(sim.configuration().message_count(), 0);
    let mut exec = Executor::new(&system, SamplePatterns::new());
    exec.run(100_000).unwrap();
    assert_eq!(exec.configuration().message_count(), 0);
}
