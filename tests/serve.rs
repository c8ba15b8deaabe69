//! End-to-end test of the cross-process serving layer, in-process: an
//! [`AuditServer`] runs in its own threads, a simulated supply chain
//! streams every delivery through the batching wire client
//! ([`RemoteRecorder`]), and concurrent wire clients interrogate the
//! server — their answers must match the in-process engine handling the
//! very same requests on the same store.  A second scenario floods a
//! 1-deep ingest queue and proves the overflow answers typed `Busy`
//! (counted in `EngineStats`) instead of buffering without bound.
//!
//! The workload size scales with `PIPROV_PROPTEST_CASES` (the workspace's
//! deep-run CI knob).

use piprov::audit::{AuditConfig, AuditEngine, AuditOutcome, AuditRequest};
use piprov::prelude::*;
use piprov::runtime::workload;
use piprov::serve::{ClientConfig, IngestOutcome, ServeConfig};
use piprov::store::{Operation, ProvenanceRecord, ProvenanceStore};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;

fn temp_dir(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("piprov-serve-it-{}-{}", std::process::id(), name));
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
fn simulation_streams_over_the_wire_and_concurrent_clients_agree_with_the_engine() {
    let suppliers = 3usize;
    let relays = 2usize;
    let items_per_supplier = 4 * scale();
    let auditors = 3usize;

    let dir = temp_dir("e2e");
    let store = ProvenanceStore::open(&dir).unwrap();
    let engine = Arc::new(AuditEngine::with_config(
        store,
        AuditConfig { memo_bound: 4096 },
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

    let server = AuditServer::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServeConfig {
            workers: auditors + 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // The simulation streams its deliveries through the batching client —
    // the paper's trusted middleware talking to remote provenance-aware
    // storage.
    let client = AuditClient::connect_with(
        addr,
        ClientConfig {
            batch_size: 8,
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let system = workload::supply_chain(suppliers, relays, items_per_supplier);
    let mut sim = Simulation::new(
        &system,
        TrivialPatterns,
        SimConfig {
            network: NetworkConfig::reliable(),
            ..SimConfig::default()
        },
    );
    let mut recorder = RemoteRecorder::new(client);
    sim.run_with_sink(10_000_000, &mut recorder).unwrap();
    let delivered = sim.metrics().messages_delivered;
    let (recorded, _client) = recorder.finish().unwrap();
    assert_eq!(recorded, delivered);
    assert_eq!(
        engine.stats().ingested,
        recorded as u64,
        "the flush barrier drained every batch into the engine"
    );

    // Concurrent wire clients: every request kind, checked against the
    // in-process engine answering the identical request on the same store.
    let handles: Vec<_> = (0..auditors)
        .map(|t| {
            let engine = Arc::clone(&engine);
            thread::spawn(move || {
                let mut client = AuditClient::connect(addr).unwrap();
                for s in 0..suppliers {
                    for k in 0..items_per_supplier {
                        let value = item(s, k);
                        let requests = [
                            AuditRequest::VetValue {
                                value: value.clone(),
                                pattern: "from-supplier".into(),
                            },
                            AuditRequest::VetValue {
                                value: value.clone(),
                                pattern: "chain-only".into(),
                            },
                            AuditRequest::AuditTrail {
                                value: value.clone(),
                            },
                            AuditRequest::OriginOf { value },
                            AuditRequest::WhoTouched {
                                principal: Principal::new(format!("relay{}", t % relays)),
                            },
                        ];
                        for request in &requests {
                            let over_wire = client.request(request).unwrap();
                            let in_process = engine.handle(request);
                            assert_eq!(
                                over_wire.outcome, in_process.outcome,
                                "wire and in-process disagree on {}",
                                request
                            );
                        }
                        // And the verdicts are the *right* ones.
                        let vet = client
                            .request(&AuditRequest::VetValue {
                                value: item(s, k),
                                pattern: "from-supplier".into(),
                            })
                            .unwrap();
                        assert!(matches!(
                            vet.outcome,
                            AuditOutcome::Vetted { verdict: true, .. }
                        ));
                        let origin = client
                            .request(&AuditRequest::OriginOf { value: item(s, k) })
                            .unwrap();
                        assert_eq!(
                            origin.outcome,
                            AuditOutcome::Origin {
                                principal: Some(Principal::new(format!("supplier{}", s)))
                            }
                        );
                    }
                }
                client.stats().unwrap()
            })
        })
        .collect();
    for handle in handles {
        let stats = handle.join().unwrap();
        assert_eq!(stats.busy_rejections, 0, "queries never see back-pressure");
    }

    // The whole interrogation is on the metrics plane: both policies'
    // latency histograms filled on the vet hot path, the wire snapshot
    // matches the engine, and the exposition lints clean.
    let mut probe = AuditClient::connect(addr).unwrap();
    let report = probe.metrics().unwrap();
    assert_eq!(report.snapshot.engine, engine.stats());
    let names: Vec<&str> = report
        .snapshot
        .policies
        .iter()
        .map(|p| p.policy.as_str())
        .collect();
    assert_eq!(names, ["chain-only", "from-supplier"]);
    let vets_floor = (auditors * suppliers * items_per_supplier) as u64;
    for policy in &report.snapshot.policies {
        assert!(
            policy.latency.count >= vets_floor,
            "policy {} timed only {} of ≥{} vets",
            policy.policy,
            policy.latency.count,
            vets_floor
        );
        assert_eq!(
            policy.latency.counts.iter().sum::<u64>() + policy.latency.overflow,
            policy.latency.count,
            "histogram buckets account for every observation"
        );
        assert_eq!(
            policy.vets_passed + policy.vets_failed,
            policy.latency.count
        );
    }
    validate_exposition(&report.exposition).unwrap();
    assert!(report
        .exposition
        .contains("piprov_vet_latency_seconds_bucket{policy=\"from-supplier\""));
    drop(probe);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flooding_a_one_deep_queue_counts_busy_in_engine_stats() {
    let dir = temp_dir("flood");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    let server = AuditServer::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServeConfig {
            queue_capacity: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    server.ingest_queue().set_paused(true);

    let record = |i: u64| {
        ProvenanceRecord::new(
            i,
            "s",
            Operation::Send,
            "m",
            Value::Channel(Channel::new(format!("flood{}", i))),
            Provenance::single(Event::output(Principal::new("s"), Provenance::empty())),
        )
    };
    let mut client = AuditClient::connect(server.local_addr()).unwrap();
    assert!(matches!(
        client.ingest_batch(vec![record(0)]).unwrap(),
        IngestOutcome::Acked { .. }
    ));
    let floods = 20u64;
    let mut busy = 0u64;
    for i in 1..=floods {
        match client.ingest_batch(vec![record(i)]).unwrap() {
            IngestOutcome::Busy { queue_depth } => {
                busy += 1;
                assert_eq!(queue_depth, 1, "the queue never grows past its bound");
            }
            IngestOutcome::Acked { .. } => panic!("paused 1-deep queue accepted a flood batch"),
        }
    }
    assert_eq!(busy, floods);
    let stats = engine.stats();
    assert_eq!(stats.busy_rejections, floods, "every rejection is counted");
    assert_eq!(stats.queue_depth, 1);
    assert_eq!(stats.ingested, 0);

    // Releasing the queue lands exactly the one accepted batch.
    server.ingest_queue().set_paused(false);
    client.flush().unwrap();
    let stats = engine.stats();
    assert_eq!(stats.ingested, 1);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(engine.record_count(), 1);
    // The gauges the flood exercised publish coherently at quiescence.
    let metrics = engine.metrics();
    assert_eq!(metrics.engine, stats);
    let text = metrics.exposition();
    assert!(text.contains("piprov_queue_depth 0\n"));
    assert!(text.contains("piprov_snapshot_lag 0\n"));
    assert!(text.contains(&format!("piprov_busy_rejections_total {}\n", floods)));
    drop(client);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
