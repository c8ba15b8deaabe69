//! End-to-end test of the audit service: a simulated supply chain streams
//! its delivered records into a shared `AuditEngine` through the
//! `AuditRecorder` sink while several auditor threads interrogate it
//! concurrently — the full wiring the `audit_service` example
//! demonstrates, held to assertions.
//!
//! The workload size scales with `PIPROV_PROPTEST_CASES` (the workspace's
//! deep-run CI knob), so the concurrent paths — snapshot reads beside a
//! live ingest, the bounded pattern memos — get hammered harder in CI than
//! in a quick local run.

use piprov::audit::{AuditConfig, AuditEngine, AuditOutcome, AuditRecorder, AuditRequest};
use piprov::prelude::*;
use piprov::runtime::workload;
use piprov::store::ProvenanceStore;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;

fn temp_dir(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("piprov-audit-it-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Scale factor: 1 by default, grows with the CI deep-run knob.
fn scale() -> usize {
    std::env::var("PIPROV_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|cases| (cases / 256).clamp(1, 8))
        .unwrap_or(1)
}

fn item(s: usize, k: usize) -> Value {
    Value::Channel(Channel::new(format!("item{}_{}", s, k)))
}

#[test]
fn audit_service_end_to_end_under_concurrent_auditors() {
    let suppliers = 3usize;
    let relays = 2usize;
    let items_per_supplier = 4 * scale();
    let auditors = 4usize;

    let dir = temp_dir("e2e");
    let store = ProvenanceStore::open(&dir).unwrap();
    let engine = Arc::new(AuditEngine::with_config(
        store,
        AuditConfig { memo_bound: 512 },
    ));
    let supplier_names: Vec<String> = (0..suppliers).map(|i| format!("supplier{}", i)).collect();
    engine.register_pattern(
        "from-supplier",
        Pattern::originated_at(GroupExpr::any_of(supplier_names.clone())),
    );
    let mut chain = supplier_names;
    chain.extend((0..relays).map(|i| format!("relay{}", i)));
    engine.register_pattern(
        "chain-only",
        Pattern::only_touched_by(GroupExpr::any_of(chain)),
    );

    // Drive the simulated deployment; every delivery streams into the
    // engine through the sink.
    let system = workload::supply_chain(suppliers, relays, items_per_supplier);
    let mut sim = Simulation::new(
        &system,
        TrivialPatterns,
        SimConfig {
            network: NetworkConfig::reliable(),
            ..SimConfig::default()
        },
    );
    let mut recorder = AuditRecorder::new(Arc::clone(&engine));
    sim.run_with_sink(10_000_000, &mut recorder).unwrap();
    let recorded = recorder.finish().unwrap();
    let total_items = suppliers * items_per_supplier;
    assert_eq!(
        recorded,
        total_items * (relays + 1),
        "one record per delivery: every item crosses every lane"
    );
    assert_eq!(engine.record_count(), recorded);

    // Concurrent auditors: every policy holds for every item, from every
    // thread, while each thread also runs trail/origin/touched queries.
    let verdicts: Vec<usize> = thread::scope(|scope| {
        let handles: Vec<_> = (0..auditors)
            .map(|t| {
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    let mut passed = 0usize;
                    for s in 0..suppliers {
                        for k in 0..items_per_supplier {
                            for pattern in ["from-supplier", "chain-only"] {
                                let response = engine.handle(&AuditRequest::VetValue {
                                    value: item(s, k),
                                    pattern: pattern.into(),
                                });
                                let AuditOutcome::Vetted { verdict, .. } = response.outcome else {
                                    panic!("expected vet outcome");
                                };
                                assert!(verdict, "item{}_{} fails {}", s, k, pattern);
                                assert!(
                                    response.stats.index_hits > 0,
                                    "vets are answered via the index"
                                );
                                passed += 1;
                            }
                            let origin =
                                engine.handle(&AuditRequest::OriginOf { value: item(s, k) });
                            assert_eq!(
                                origin.outcome,
                                AuditOutcome::Origin {
                                    principal: Some(Principal::new(format!("supplier{}", s)))
                                }
                            );
                        }
                    }
                    let touched = engine.handle(&AuditRequest::WhoTouched {
                        principal: Principal::new(format!("relay{}", t % relays)),
                    });
                    let AuditOutcome::Touched { values, .. } = touched.outcome else {
                        panic!("expected touched outcome");
                    };
                    assert_eq!(values.len(), total_items, "every item crossed every relay");
                    passed
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let total_vets: usize = verdicts.iter().sum();
    assert_eq!(total_vets, auditors * total_items * 2);

    // Trail queries see the full per-item story.
    let trail = engine.handle(&AuditRequest::AuditTrail { value: item(0, 0) });
    let AuditOutcome::Trail(trail_data) = trail.outcome else {
        panic!("expected trail outcome");
    };
    assert_eq!(trail_data.records.len(), relays + 1);
    assert_eq!(trail_data.origin(), Some(Principal::new("supplier0")));
    assert!(trail_data.involves(&Principal::new("relay0")));
    assert_eq!(trail.stats.index_hits, relays + 1);

    // Engine accounting is consistent with what the threads did.
    let stats = engine.stats();
    assert_eq!(stats.ingested as usize, recorded);
    assert_eq!(stats.vets_passed as usize, total_vets);
    assert_eq!(stats.vets_failed, 0);
    assert!(stats.memo_hits > 0, "warm vets hit the memo");

    // The memos stayed under their configured bound throughout.
    for name in ["from-supplier", "chain-only"] {
        let memo = engine.pattern_memo_stats(name).unwrap();
        assert!(memo.entries <= 512, "{}: {} > 512", name, memo.entries);
    }

    // The metrics plane accounted for every concurrent vet: per-policy
    // verdict counters and latency histograms add up exactly, and the
    // exposition lints clean.
    let metrics = engine.metrics();
    assert_eq!(metrics.engine, stats);
    let names: Vec<&str> = metrics.policies.iter().map(|p| p.policy.as_str()).collect();
    assert_eq!(names, ["chain-only", "from-supplier"]);
    for policy in &metrics.policies {
        assert_eq!(policy.vets_passed as usize, auditors * total_items);
        assert_eq!(policy.vets_failed, 0);
        assert_eq!(policy.latency.count, policy.vets_passed);
        assert_eq!(
            policy.latency.counts.iter().sum::<u64>() + policy.latency.overflow,
            policy.latency.count,
            "no vet observation fell between histogram buckets"
        );
        assert_eq!(
            policy.memo,
            engine.pattern_memo_stats(&policy.policy).unwrap()
        );
    }
    validate_exposition(&metrics.exposition()).unwrap();

    // Interner sanity.  Exact counts are checked in piprov-core on a
    // quiescent secondary table; here sibling tests intern concurrently,
    // so only stable facts are asserted.
    let interner = piprov::core::provenance::interner_stats();
    assert!(
        interner.interned_nodes > 0 && interner.misses > 0,
        "the workload interned fresh histories"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn forged_histories_fail_policy_at_the_audit_layer() {
    // The attack the paper's introduction warns about, caught after the
    // fact: an adversary re-tags deliveries on a channel, and the audit
    // service's vet (trusted recorded provenance vs policy) flags them.
    let dir = temp_dir("forgery");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    engine.register_pattern(
        "from-supplier",
        Pattern::originated_at(GroupExpr::single("supplier0")),
    );
    let system = workload::supply_chain(1, 1, 2);
    let mut faults = piprov::runtime::FaultPlan::default();
    faults.push(piprov::runtime::Fault::ForgeOnChannel {
        time: 0,
        channel: Channel::new("lane2"),
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
    let mut recorder = AuditRecorder::new(Arc::clone(&engine));
    sim.run_with_sink(1_000_000, &mut recorder).unwrap();
    recorder.finish().unwrap();

    // The newest record of each item is the forged lane2 delivery, so the
    // policy vet fails — while the origin query, which scans the whole
    // trail oldest-first, survives the forgery and still names the
    // honest supplier.
    for k in 0..2 {
        let value = Value::Channel(Channel::new(format!("item0_{}", k)));
        let vet = engine.handle(&AuditRequest::VetValue {
            value: value.clone(),
            pattern: "from-supplier".into(),
        });
        assert!(
            matches!(vet.outcome, AuditOutcome::Vetted { verdict: false, .. }),
            "forged history must fail the policy: {:?}",
            vet.outcome
        );
        // The trail still carries the honest lane1 record, so the
        // oldest-output origin survives the forgery on lane2.
        let origin = engine.handle(&AuditRequest::OriginOf { value });
        assert_eq!(
            origin.outcome,
            AuditOutcome::Origin {
                principal: Some(Principal::new("supplier0"))
            }
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
