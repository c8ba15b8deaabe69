//! The audit service end to end: a simulated supply chain streams its
//! delivered records into a shared [`AuditEngine`] while several auditor
//! threads interrogate it concurrently.
//!
//! The flow mirrors a production deployment of the paper's model:
//!
//! 1. a `supply_chain` workload runs on the discrete-event simulator; the
//!    [`AuditRecorder`] delivery sink persists one record per delivered
//!    value into the engine's store;
//! 2. policy patterns (`originated at a supplier`, `touched only by the
//!    chain`) are compiled once and registered by name;
//! 3. auditor threads issue `VetValue`, `AuditTrail`, `WhoTouched` and
//!    `OriginOf` requests against the shared engine — answered through
//!    the store indexes and the memoized NFA, never by a full scan.
//!
//! Run with: `cargo run --example audit_service`

use piprov::audit::{AuditConfig, AuditEngine, AuditOutcome, AuditRecorder, AuditRequest};
use piprov::core::provenance::interner_stats;
use piprov::prelude::*;
use piprov::runtime::workload;
use piprov::store::ProvenanceStore;
use std::sync::Arc;
use std::thread;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const SUPPLIERS: usize = 4;
    const RELAYS: usize = 3;
    const ITEMS_PER_SUPPLIER: usize = 8;
    const AUDITORS: usize = 4;

    // 1. Open the engine and register the service's policy patterns.
    let dir = std::env::temp_dir().join(format!("piprov-audit-service-{}", std::process::id()));
    let store = ProvenanceStore::open(&dir)?;
    let engine = Arc::new(AuditEngine::with_config(
        store,
        AuditConfig { memo_bound: 4096 },
    ));
    let suppliers: Vec<String> = (0..SUPPLIERS).map(|i| format!("supplier{}", i)).collect();
    engine.register_pattern(
        "from-supplier",
        Pattern::originated_at(GroupExpr::any_of(suppliers.clone())),
    );
    let mut chain: Vec<String> = suppliers.clone();
    chain.extend((0..RELAYS).map(|i| format!("relay{}", i)));
    engine.register_pattern(
        "chain-only",
        Pattern::only_touched_by(GroupExpr::any_of(chain)),
    );

    // 2. Simulate the deployment, streaming deliveries into the engine.
    let system = workload::supply_chain(SUPPLIERS, RELAYS, ITEMS_PER_SUPPLIER);
    let mut sim = Simulation::new(
        &system,
        TrivialPatterns,
        SimConfig {
            network: NetworkConfig::reliable(),
            ..SimConfig::default()
        },
    );
    let mut recorder = AuditRecorder::new(Arc::clone(&engine));
    sim.run_with_sink(1_000_000, &mut recorder)?;
    let recorded = recorder.finish()?;
    println!(
        "simulated {} deliveries, recorded {} provenance records\n",
        sim.metrics().messages_delivered,
        recorded
    );

    // 3. Auditors interrogate the engine concurrently.
    let handles: Vec<_> = (0..AUDITORS)
        .map(|t| {
            let engine = Arc::clone(&engine);
            thread::spawn(move || {
                let mut passed = 0usize;
                for s in 0..SUPPLIERS {
                    for k in 0..ITEMS_PER_SUPPLIER {
                        let item = Value::Channel(Channel::new(format!("item{}_{}", s, k)));
                        for pattern in ["from-supplier", "chain-only"] {
                            let response = engine.handle(&AuditRequest::VetValue {
                                value: item.clone(),
                                pattern: pattern.into(),
                            });
                            if matches!(
                                response.outcome,
                                AuditOutcome::Vetted { verdict: true, .. }
                            ) {
                                passed += 1;
                            }
                        }
                    }
                }
                // Every auditor also runs one investigation of its own.
                let relay = Principal::new(format!("relay{}", t % RELAYS));
                let touched = engine.handle(&AuditRequest::WhoTouched {
                    principal: relay.clone(),
                });
                if let AuditOutcome::Touched { values, .. } = &touched.outcome {
                    println!(
                        "auditor {}: {} touched {} values ({} index hits)",
                        t,
                        relay,
                        values.len(),
                        touched.stats.index_hits
                    );
                }
                passed
            })
        })
        .collect();
    let passed: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let expected = AUDITORS * SUPPLIERS * ITEMS_PER_SUPPLIER * 2;
    println!(
        "\nauditors vetted {} histories ({} expected) — all policies hold",
        passed, expected
    );
    assert_eq!(passed, expected);

    // One deep dive: the full story of one item.
    let item = Value::Channel(Channel::new("item0_0"));
    let trail = engine.handle(&AuditRequest::AuditTrail {
        value: item.clone(),
    });
    if let AuditOutcome::Trail(trail_data) = &trail.outcome {
        println!("\n{}", trail_data);
    }
    let origin = engine.handle(&AuditRequest::OriginOf { value: item });
    if let AuditOutcome::Origin {
        principal: Some(principal),
    } = &origin.outcome
    {
        println!(
            "origin: {} ({} index hits, {} events scanned)",
            principal, origin.stats.index_hits, origin.stats.dag_nodes_visited
        );
    }

    // 4. The shared substrates held up under concurrency.
    let engine_stats = engine.stats();
    println!("\nengine: {}", engine_stats);
    println!(
        "ingest: {} batches applied, {} busy rejections, queue depth {}",
        engine_stats.ingest_batches, engine_stats.busy_rejections, engine_stats.queue_depth
    );
    println!(
        "mvcc:   watermark {}, {} snapshots published, snapshot lag {}",
        engine_stats.watermark, engine_stats.snapshots_published, engine_stats.snapshot_lag
    );
    assert_eq!(
        engine_stats.watermark, engine_stats.ingested,
        "after the run every ingested record is visible to readers"
    );
    assert_eq!(engine_stats.snapshot_lag, 0);
    println!("store:  {}", engine.store_stats());
    let memo = engine.pattern_memo_stats("chain-only").unwrap();
    println!(
        "memo:   {} entries (bound {}, {} epochs, {} hits / {} misses)",
        memo.entries, memo.bound, memo.epochs, memo.hits, memo.misses
    );
    assert!(memo.entries <= memo.bound);
    let interner = interner_stats();
    println!(
        "interner: {} nodes ({:.1}% hit ratio)",
        interner.interned_nodes,
        interner.hit_ratio() * 100.0
    );

    // 5. The same accounting as a scrape endpoint would serve it: the
    //    engine's whole metrics plane — per-policy verdict counters and
    //    vet-latency histograms included — in Prometheus text exposition.
    let metrics = engine.metrics();
    let exposition = metrics.exposition();
    piprov::audit::validate_exposition(&exposition)
        .map_err(|e| format!("exposition failed its own lint: {}", e))?;
    for policy in &metrics.policies {
        println!(
            "policy {}: {} vets timed ({} passed, {} failed)",
            policy.policy, policy.latency.count, policy.vets_passed, policy.vets_failed
        );
    }
    println!("--- prometheus exposition ---");
    print!("{}", exposition);

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
