//! The client half of the cross-process audit demo: simulate a supply
//! chain, stream every delivery into the `serve_server` process through
//! the batching wire client, then audit the results over concurrent
//! connections.
//!
//! Run `cargo run --example serve_server` first, then:
//! `cargo run --example serve_client`
//! (both honour `PIPROV_SERVE_ADDR`, default `127.0.0.1:7141`).

use piprov::prelude::*;
use piprov::runtime::workload;
use piprov::serve::ClientConfig;
use std::thread;

/// Shared with `serve_server.rs`: the workload's principal names.
const SUPPLIERS: usize = 4;
const RELAYS: usize = 3;
const ITEMS_PER_SUPPLIER: usize = 8;
const AUDITORS: usize = 2;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let addr = std::env::var("PIPROV_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:7141".to_string());

    // 1. Simulate the deployment, streaming deliveries over the wire in
    //    batches of 16.
    let client = AuditClient::connect_with(
        addr.as_str(),
        ClientConfig {
            batch_size: 16,
            ..ClientConfig::default()
        },
    )?;
    let system = workload::supply_chain(SUPPLIERS, RELAYS, ITEMS_PER_SUPPLIER);
    let mut sim = Simulation::new(
        &system,
        TrivialPatterns,
        SimConfig {
            network: NetworkConfig::reliable(),
            ..SimConfig::default()
        },
    );
    let mut recorder = RemoteRecorder::new(client);
    sim.run_with_sink(1_000_000, &mut recorder)?;
    let (recorded, mut client) = recorder.finish()?;
    println!(
        "simulated {} deliveries, streamed {} records to {}\n",
        sim.metrics().messages_delivered,
        recorded,
        addr
    );

    // 2. Concurrent auditors, each on its own connection, vet every item
    //    against both registered policies.
    let handles: Vec<_> = (0..AUDITORS)
        .map(|t| {
            let addr = addr.clone();
            thread::spawn(move || -> Result<usize, piprov::serve::ClientError> {
                let mut client = AuditClient::connect(addr.as_str())?;
                let mut passed = 0usize;
                for s in 0..SUPPLIERS {
                    for k in 0..ITEMS_PER_SUPPLIER {
                        let item = Value::Channel(Channel::new(format!("item{}_{}", s, k)));
                        for pattern in ["from-supplier", "chain-only"] {
                            let response = client.request(&AuditRequest::VetValue {
                                value: item.clone(),
                                pattern: pattern.into(),
                            })?;
                            match response.outcome {
                                AuditOutcome::Vetted { verdict: true, .. } => passed += 1,
                                other => panic!(
                                    "auditor {}: {} failed {}: {:?}",
                                    t, item, pattern, other
                                ),
                            }
                        }
                    }
                }
                Ok(passed)
            })
        })
        .collect();
    let mut passed = 0usize;
    for handle in handles {
        passed += handle.join().expect("auditor thread")?;
    }
    let expected = AUDITORS * SUPPLIERS * ITEMS_PER_SUPPLIER * 2;
    assert_eq!(
        passed, expected,
        "every vet must come back non-Busy and true"
    );
    println!(
        "auditors vetted {} histories over the wire — verdict: pass",
        passed
    );

    // 3. One deep dive plus the server's own accounting.
    let item = Value::Channel(Channel::new("item0_0"));
    let origin = client.request(&AuditRequest::OriginOf {
        value: item.clone(),
    })?;
    if let AuditOutcome::Origin {
        principal: Some(principal),
    } = &origin.outcome
    {
        println!("origin of {}: {}", item, principal);
    }
    let stats = client.stats()?;
    println!("server engine: {}", stats);
    assert!(stats.ingested >= recorded as u64);
    assert!(stats.ingest_batches >= 1);
    assert!(
        stats.watermark >= recorded as u64,
        "the flush barrier published this client's writes"
    );
    println!(
        "server snapshot: watermark {}, {} snapshots published, lag {}",
        stats.watermark, stats.snapshots_published, stats.snapshot_lag
    );

    // 4. The full metrics plane in one round trip: the Prometheus text
    //    exposition the server's `GET /metrics` also serves.  It lints
    //    clean by construction, and one lookup reads a sample back.
    let text = client.metrics()?;
    piprov::audit::validate_exposition(&text)
        .map_err(|e| format!("exposition failed its own lint: {}", e))?;
    let timed = |policy: &str| {
        piprov::audit::exposition_sample(
            &text,
            "piprov_vet_latency_seconds_count",
            &[("policy", policy)],
        )
        .and_then(|count| count.parse::<u64>().ok())
    };
    println!(
        "\nmetrics: {} policies, {} vets timed against \"from-supplier\"",
        ["from-supplier", "chain-only"]
            .into_iter()
            .filter(|policy| timed(policy).is_some())
            .count(),
        timed("from-supplier").unwrap_or(0)
    );
    println!("--- prometheus exposition ---");
    print!("{}", text);
    Ok(())
}
