//! Loopback integration of server and client: pipelined queries,
//! blocking and fire-and-batch ingest, the flush barrier, and provable
//! back-pressure on a 1-deep ingest queue.

use piprov_audit::{AuditEngine, AuditOutcome, AuditRequest};
use piprov_core::name::{Channel, Principal};
use piprov_core::provenance::{Event, Provenance};
use piprov_core::value::Value;
use piprov_patterns::{GroupExpr, Pattern};
use piprov_serve::{AuditClient, AuditServer, ClientConfig, IngestOutcome, ServeConfig};
use piprov_store::{Operation, ProvenanceRecord};
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("piprov-serve-loop-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> ServeConfig {
    ServeConfig::default()
}

fn value(name: &str) -> Value {
    Value::Channel(Channel::new(name))
}

fn record(i: u64, who: &str) -> ProvenanceRecord {
    let k = Provenance::single(Event::output(Principal::new(who), Provenance::empty()));
    ProvenanceRecord::new(
        i,
        who,
        Operation::Send,
        "m",
        value(&format!("item{}", i)),
        k,
    )
}

#[test]
fn queries_match_the_in_process_engine_and_pipelining_preserves_order() {
    let dir = temp_dir("queries");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    engine.register_pattern(
        "from-s",
        Pattern::originated_at(GroupExpr::any_of(["s0", "s1"])),
    );
    let server = AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", config()).unwrap();
    let mut client = AuditClient::connect(server.local_addr()).unwrap();

    // Ingest over the wire, then flush so the records are queryable.
    for i in 0..8u64 {
        client
            .ingest_blocking(vec![record(i, &format!("s{}", i % 2))])
            .unwrap();
    }
    let ack = client.flush().unwrap();
    assert_eq!(ack.ingested, 8);
    assert_eq!(ack.watermark, 8, "the flush names the published watermark");

    // Every request kind answers over the wire exactly as in-process.
    let requests: Vec<AuditRequest> = (0..8u64)
        .flat_map(|i| {
            let item = value(&format!("item{}", i));
            vec![
                AuditRequest::VetValue {
                    value: item.clone(),
                    pattern: "from-s".into(),
                },
                AuditRequest::AuditTrail {
                    value: item.clone(),
                },
                AuditRequest::OriginOf { value: item },
                AuditRequest::WhoTouched {
                    principal: Principal::new(format!("s{}", i % 2)),
                },
            ]
        })
        .collect();
    // Pipelined: all written before any response is read; order holds.
    let responses = client.pipeline(&requests).unwrap();
    assert_eq!(responses.len(), requests.len());
    for (request, wire_response) in requests.iter().zip(&responses) {
        let local = engine.handle(request);
        assert_eq!(
            wire_response.outcome, local.outcome,
            "wire and in-process answers must agree on {}",
            request
        );
    }
    // Spot-check a verdict: item0 originated at s0.
    assert!(matches!(
        responses[0].outcome,
        AuditOutcome::Vetted { verdict: true, .. }
    ));

    // Unknown values/patterns stay structured over the wire.
    let ghost = client
        .request(&AuditRequest::OriginOf {
            value: value("ghost"),
        })
        .unwrap();
    assert_eq!(ghost.outcome, AuditOutcome::UnknownValue);
    let nope = client
        .request(&AuditRequest::VetValue {
            value: value("item0"),
            pattern: "nope".into(),
        })
        .unwrap();
    match &nope.outcome {
        AuditOutcome::UnknownPattern { known, nearest } => {
            assert_eq!(known, &vec!["from-s".to_string()]);
            assert_eq!(nearest, &None);
        }
        other => panic!("expected UnknownPattern, got {:?}", other),
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.ingested, 8);
    assert!(stats.ingest_batches >= 8);
    drop(client);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn read_your_writes_via_the_flushed_watermark() {
    let dir = temp_dir("ryw");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    engine.register_pattern("from-s0", Pattern::originated_at(GroupExpr::single("s0")));
    let server = AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", config()).unwrap();
    // Pause the drain worker: acceptance and visibility genuinely decouple.
    server.ingest_queue().set_paused(true);

    let mut client = AuditClient::connect(server.local_addr()).unwrap();
    let batch: Vec<ProvenanceRecord> = (0..3).map(|i| record(i, "s0")).collect();
    assert!(matches!(
        client.ingest_batch(batch).unwrap(),
        IngestOutcome::Acked { accepted: 3, .. }
    ));
    // Acked is not visible: the server reports the lag, and a query
    // answers below the records' eventual sequence numbers.
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.snapshot_lag, 1,
        "one accepted batch awaits its snapshot"
    );
    assert_eq!(stats.watermark, 0);
    let early = client
        .request(&AuditRequest::AuditTrail {
            value: value("item0"),
        })
        .unwrap();
    assert_eq!(early.outcome, AuditOutcome::UnknownValue);
    assert_eq!(early.watermark, 0);

    // Release the worker from another thread while this client polls the
    // stats watermark — the read-your-writes loop a real producer runs.
    let queue = Arc::clone(server.ingest_queue());
    let release = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(20));
        queue.set_paused(false);
    });
    let watermark = loop {
        let stats = client.stats().unwrap();
        if stats.watermark >= 3 {
            break stats.watermark;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    };
    release.join().unwrap();

    // Once the polled watermark covers the writes, every query must see
    // them: responses answer at or above it.
    for i in 0..3u64 {
        let item = value(&format!("item{}", i));
        let trail = client
            .request(&AuditRequest::AuditTrail {
                value: item.clone(),
            })
            .unwrap();
        assert!(trail.watermark >= watermark);
        let AuditOutcome::Trail(trail_data) = &trail.outcome else {
            panic!("write not visible after its watermark: {:?}", trail.outcome);
        };
        assert_eq!(trail_data.records.len(), 1);
        let vet = client
            .request(&AuditRequest::VetValue {
                value: item,
                pattern: "from-s0".into(),
            })
            .unwrap();
        assert!(matches!(
            vet.outcome,
            AuditOutcome::Vetted { verdict: true, .. }
        ));
        assert!(vet.watermark >= watermark);
    }

    // The flush barrier gives the same guarantee in one round trip, and
    // names the watermark explicitly.
    let ack = client.flush().unwrap();
    assert_eq!(ack.ingested, 3);
    assert!(ack.watermark >= 3);
    let stats = client.stats().unwrap();
    assert_eq!(stats.snapshot_lag, 0);
    assert_eq!(stats.snapshots_published, 1, "one batch, one snapshot");
    drop(client);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flooding_a_one_deep_queue_yields_busy_over_the_wire() {
    let dir = temp_dir("busy");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    let server = AuditServer::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServeConfig {
            queue_capacity: 1,
            ..config()
        },
    )
    .unwrap();
    // Pause the drain worker so the flood is deterministic.
    server.ingest_queue().set_paused(true);

    let mut client = AuditClient::connect(server.local_addr()).unwrap();
    assert!(matches!(
        client.ingest_batch(vec![record(0, "s0")]).unwrap(),
        IngestOutcome::Acked {
            accepted: 1,
            queue_depth: 1
        }
    ));
    // The queue is full: every further batch answers a typed Busy and
    // buffers nothing server-side.
    for i in 1..=5u64 {
        assert!(matches!(
            client.ingest_batch(vec![record(i, "s0")]).unwrap(),
            IngestOutcome::Busy { queue_depth: 1 }
        ));
    }
    assert_eq!(client.busy_observed(), 5);
    let stats = client.stats().unwrap();
    assert_eq!(stats.busy_rejections, 5);
    assert_eq!(stats.queue_depth, 1);
    assert_eq!(stats.ingested, 0, "nothing applied while paused");

    // ingest_blocking turns Busy into client-side blocking: unpause from
    // another thread while the client retries.
    let queue = Arc::clone(server.ingest_queue());
    let unpause = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(30));
        queue.set_paused(false);
    });
    client.ingest_blocking(vec![record(9, "s0")]).unwrap();
    unpause.join().unwrap();
    client.flush().unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.ingested, 2, "the accepted batch and the retried one");
    assert!(stats.busy_rejections >= 5);
    assert_eq!(stats.queue_depth, 0);
    drop(client);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fire_and_batch_buffers_locally_and_ships_on_flush() {
    let dir = temp_dir("batch");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    let server = AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", config()).unwrap();
    let mut client = AuditClient::connect_with(
        server.local_addr(),
        ClientConfig {
            batch_size: 4,
            ..ClientConfig::default()
        },
    )
    .unwrap();
    for i in 0..10u64 {
        client.buffer(record(i, "s0")).unwrap();
    }
    // 10 records at batch size 4: two batches shipped, two buffered.
    assert_eq!(client.buffered(), 2);
    client.flush().unwrap();
    assert_eq!(client.buffered(), 0);
    let stats = client.stats().unwrap();
    assert_eq!(stats.ingested, 10);
    assert_eq!(
        stats.ingest_batches, 3,
        "4 + 4 + 2: one write-lock acquisition per shipped batch"
    );
    drop(client);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oversized_batches_split_client_side_instead_of_killing_the_connection() {
    use piprov_serve::{WireError, WireLimits};
    let dir = temp_dir("split");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    let server = AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", config()).unwrap();
    // A client whose own frame cap is tiny: 64 records won't fit one
    // frame, so ingest_blocking must split rather than ship a frame the
    // server would reject.
    let mut client = AuditClient::connect_with(
        server.local_addr(),
        ClientConfig {
            limits: WireLimits {
                max_frame_len: 2048,
                ..WireLimits::default()
            },
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let records: Vec<ProvenanceRecord> = (0..64).map(|i| record(i, "s0")).collect();
    let encoded_len = piprov_serve::codec::encode_ingest_batch(&records).len();
    assert!(encoded_len > 2048, "the batch must overflow the cap");

    // The no-retry path refuses with a typed error, sending nothing.
    match client.ingest_batch(records.clone()) {
        Err(piprov_serve::ClientError::Wire(WireError::FrameTooLarge { max, .. })) => {
            assert_eq!(max, 2048)
        }
        other => panic!("expected FrameTooLarge, got {:?}", other),
    }
    // The blocking path splits recursively and lands every record — the
    // connection survives (the refusal above sent no bytes).
    client.ingest_blocking(records).unwrap();
    client.flush().unwrap();
    assert_eq!(engine.stats().ingested, 64);
    assert!(
        engine.stats().ingest_batches >= 2,
        "the flood shipped as multiple sub-frame batches"
    );
    drop(client);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_round_trip_over_the_wire_and_the_exposition_lints_clean() {
    let dir = temp_dir("metrics");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    engine.register_pattern("from-s0", Pattern::originated_at(GroupExpr::single("s0")));
    engine.register_pattern("from-s1", Pattern::originated_at(GroupExpr::single("s1")));
    let server = AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", config()).unwrap();
    let mut client = AuditClient::connect(server.local_addr()).unwrap();

    for i in 0..6u64 {
        client
            .ingest_blocking(vec![record(i, &format!("s{}", i % 2))])
            .unwrap();
    }
    client.flush().unwrap();
    // Drive the vet hot path so per-policy histograms have something in
    // them: 6 vets against from-s0 (3 pass, 3 fail), 1 unknown value.
    for i in 0..6u64 {
        client
            .request(&AuditRequest::VetValue {
                value: value(&format!("item{}", i)),
                pattern: "from-s0".into(),
            })
            .unwrap();
    }
    client
        .request(&AuditRequest::VetValue {
            value: value("ghost"),
            pattern: "from-s0".into(),
        })
        .unwrap();

    let report = client.metrics().unwrap();
    // The typed snapshot matches the engine the server wraps.  (Interner
    // fields are process-global and other tests run in parallel, so only
    // engine-local surfaces are compared.)
    assert_eq!(report.snapshot.engine, engine.stats());
    assert_eq!(report.snapshot.store, engine.store_stats());
    let names: Vec<&str> = report
        .snapshot
        .policies
        .iter()
        .map(|p| p.policy.as_str())
        .collect();
    assert_eq!(names, ["from-s0", "from-s1"], "policies arrive sorted");
    let s0 = &report.snapshot.policies[0];
    assert_eq!(s0.vets_passed, 3);
    assert_eq!(s0.vets_failed, 3);
    assert_eq!(s0.vets_unknown_value, 1);
    assert_eq!(
        s0.latency.count, 7,
        "every vet against the policy is timed, unknown values included"
    );
    assert_eq!(
        s0.latency.counts.iter().sum::<u64>() + s0.latency.overflow,
        s0.latency.count
    );
    assert_eq!(report.snapshot.policies[1].latency.count, 0);

    // The client-side render is the server-side render (deterministic),
    // and it lints clean under the exposition-format validator.
    assert_eq!(report.exposition, report.snapshot.exposition());
    piprov_audit::validate_exposition(&report.exposition).unwrap();
    assert!(report
        .exposition
        .contains("piprov_vet_latency_seconds_bucket{policy=\"from-s0\""));
    assert!(report
        .exposition
        .contains("piprov_policy_vets_passed_total{policy=\"from-s0\"} 3"));
    drop(client);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wire_flush_never_unpauses_the_drain_worker() {
    let dir = temp_dir("flush-bound");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    let server = AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", config()).unwrap();
    // A paused worker with one accepted batch: a wire flush must not
    // unpause the queue (clobbering operator intent); its ticket waits
    // for the owner instead.
    server.ingest_queue().set_paused(true);
    let mut client = AuditClient::connect(server.local_addr()).unwrap();
    assert!(matches!(
        client.ingest_batch(vec![record(0, "s0")]).unwrap(),
        IngestOutcome::Acked { .. }
    ));

    let waiting = std::thread::spawn(move || (client.flush(), client));
    // The queue is still paused (nothing drained), as another connection
    // sees while the flush waits.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let stats = AuditClient::connect(server.local_addr())
        .unwrap()
        .stats()
        .unwrap();
    assert_eq!(stats.ingested, 0, "the flush never unpauses the worker");
    assert_eq!(stats.queue_depth, 1);

    // Resumed by its owner, the queue answers the flush, and the
    // connection goes on serving.
    server.ingest_queue().set_paused(false);
    let (ack, mut client) = waiting.join().unwrap();
    assert_eq!(ack.unwrap().ingested, 1);
    assert_eq!(client.flush().unwrap().ingested, 1);
    drop(client);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_returns_when_bound_to_a_wildcard_address() {
    let dir = temp_dir("wildcard");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    // Binding 0.0.0.0 once hung shutdown: a wake-up connection targeted
    // the unspecified address itself, which never routes.  Shutdown must
    // return on a wildcard bind.
    let server = AuditServer::bind(Arc::clone(&engine), "0.0.0.0:0", config()).unwrap();
    let port = server.local_addr().port();
    let mut client = AuditClient::connect(("127.0.0.1", port)).unwrap();
    client.ingest_blocking(vec![record(0, "s0")]).unwrap();
    client.flush().unwrap();
    assert_eq!(client.stats().unwrap().ingested, 1);
    drop(client);

    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flag = std::sync::Arc::clone(&done);
    let shut = std::thread::spawn(move || {
        server.shutdown().unwrap();
        flag.store(true, std::sync::atomic::Ordering::SeqCst);
    });
    // Watchdog: fail loudly instead of hanging the suite if the wake-up
    // regresses.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !done.load(std::sync::atomic::Ordering::SeqCst) {
        assert!(
            std::time::Instant::now() < deadline,
            "shutdown hung on a wildcard bind"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    shut.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn connections_racing_shutdown_get_an_answer_or_a_clean_close_never_a_hang() {
    use piprov_serve::ClientError;
    for round in 0..8 {
        let dir = temp_dir(&format!("race{}", round));
        let engine = Arc::new(AuditEngine::open(&dir).unwrap());
        let server = AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", config()).unwrap();
        let addr = server.local_addr();

        let racer = std::thread::spawn(move || {
            // Keep connecting while shutdown runs.  A connection accepted
            // after the stop flag flips used to be dropped silently (the
            // client saw an unexplained EOF mid-handshake); now it gets a
            // best-effort "shutting down" error frame.  Every outcome
            // must be prompt and explicable.
            for _ in 0..20 {
                let Ok(mut client) = AuditClient::connect(addr) else {
                    return; // refused: the listener is gone, race over.
                };
                match client.stats() {
                    Ok(_) => {}
                    Err(ClientError::Server(message)) => {
                        assert!(
                            message.contains("shutting down"),
                            "unexpected server error during shutdown: {}",
                            message
                        );
                        return;
                    }
                    Err(ClientError::ConnectionClosed) | Err(ClientError::Wire(_)) => return,
                    Err(other) => panic!("unexpected outcome racing shutdown: {:?}", other),
                }
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(2));
        server.shutdown().unwrap();
        racer.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn traced_requests_surface_per_stage_spans() {
    use piprov_audit::{RequestKind, SpanKind};
    use std::collections::BTreeSet;

    let dir = temp_dir("traces");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    engine.register_pattern("from-s0", Pattern::originated_at(GroupExpr::single("s0")));
    let server = AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", config()).unwrap();
    let mut client = AuditClient::connect(server.local_addr()).unwrap();

    client.ingest_blocking(vec![record(0, "s0")]).unwrap();
    client.flush().unwrap();
    // Twice: the second vet hits the memo, and its handle span says so.
    for _ in 0..2 {
        client
            .request(&AuditRequest::VetValue {
                value: value("item0"),
                pattern: "from-s0".into(),
            })
            .unwrap();
    }

    let records = client.traces().unwrap();
    let vets: Vec<_> = records
        .iter()
        .filter(|r| r.kind == RequestKind::Vet)
        .collect();
    assert_eq!(vets.len(), 2, "both vets are traced");
    for vet in &vets {
        let stages: BTreeSet<u8> = vet.spans.iter().map(|s| s.kind as u8).collect();
        for stage in [
            SpanKind::ClientEncode,
            SpanKind::Decode,
            SpanKind::Handle,
            SpanKind::Write,
        ] {
            assert!(
                stages.contains(&(stage as u8)),
                "vet trace is missing the {:?} stage: {:?}",
                stage,
                vet
            );
        }
        assert!(stages.len() >= 4, "at least four distinct stages per vet");
        assert!(vet.total_ns > 0, "the end-to-end total is measured");
    }
    assert!(
        vets.iter().any(|r| r
            .spans
            .iter()
            .any(|s| s.kind == SpanKind::Handle && s.memo_hits >= 1)),
        "the warm vet's handle span reports its memo hit"
    );

    // The ingest trace also carries the asynchronous queue-wait stage,
    // merged in by trace id after the drain worker applied the batch.
    let ingest = records
        .iter()
        .find(|r| r.kind == RequestKind::Ingest)
        .unwrap_or_else(|| panic!("no ingest trace"));
    assert!(
        ingest.spans.iter().any(|s| s.kind == SpanKind::QueueWait),
        "ingest trace is missing queue_wait: {:?}",
        ingest
    );

    // The min-total filter applies server-side.
    assert!(
        client.traces_min(u64::MAX).unwrap().is_empty(),
        "an impossible threshold filters everything"
    );

    drop(client);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_clients_are_served_by_the_worker_pool() {
    let dir = temp_dir("pool");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    engine.register_pattern("any", Pattern::Any);
    let server = AuditServer::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServeConfig {
            workers: 3,
            ..config()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    {
        let mut seed = AuditClient::connect(addr).unwrap();
        seed.ingest_blocking(vec![record(0, "s0")]).unwrap();
        seed.flush().unwrap();
    }
    let clients: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = AuditClient::connect(addr).unwrap();
                let mut passed = 0usize;
                for _ in 0..50 {
                    let response = client
                        .request(&AuditRequest::VetValue {
                            value: value("item0"),
                            pattern: "any".into(),
                        })
                        .unwrap();
                    if matches!(response.outcome, AuditOutcome::Vetted { verdict: true, .. }) {
                        passed += 1;
                    }
                }
                passed
            })
        })
        .collect();
    let passed: usize = clients.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(passed, 150);
    assert_eq!(engine.stats().vets_passed, 150);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_client_bounds_its_flush_with_a_socket_read_timeout() {
    let dir = temp_dir("flush-client-bound");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    let server = AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", config()).unwrap();
    // The server sets no deadline on a flush: behind a paused queue's
    // batch it waits for the owner.  The client bounds its own wait.
    server.ingest_queue().set_paused(true);
    let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_millis(100)))
        .unwrap();
    let mut client = AuditClient::from_stream(stream).unwrap();
    assert!(matches!(
        client.ingest_batch(vec![record(0, "s0")]).unwrap(),
        IngestOutcome::Acked { .. }
    ));
    let started = std::time::Instant::now();
    assert!(
        matches!(client.flush(), Err(piprov_serve::ClientError::Wire(_))),
        "the socket's read timeout ends the wait"
    );
    assert!(started.elapsed() < std::time::Duration::from_secs(5));
    drop(client);
    server.ingest_queue().set_paused(false);
    let mut fresh = AuditClient::connect(server.local_addr()).unwrap();
    assert_eq!(fresh.flush().unwrap().ingested, 1);
    drop(fresh);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The server stops reading a connection whose answers go unread, so a
/// pipeline that wrote every request before reading any once waited
/// forever when its requests outgrew the sockets' buffers: 200,000
/// traced `OriginOf` requests (~10 MB) did on a 2-vCPU Linux host.  The
/// client writes a long pipeline in windows, and every answer comes back
/// in order.
#[test]
fn a_pipeline_longer_than_the_socket_buffers_completes_in_order() {
    // ~230-byte requests with small answers: 34 MB of requests, over
    // twice what that host's loopback buffers held.
    const REQUESTS: usize = 150_000;
    let dir = temp_dir("long-pipeline");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    let server = AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", config()).unwrap();
    let untraced = ClientConfig {
        trace: false,
        ..ClientConfig::default()
    };
    let mut client = AuditClient::connect_with(server.local_addr(), untraced).unwrap();
    client.ingest_blocking(vec![record(0, "s0")]).unwrap();
    client.flush().unwrap();
    // Every seventh request asks about the known value.
    let absent = value(&"absent".repeat(35));
    let requests: Vec<AuditRequest> = (0..REQUESTS)
        .map(|i| AuditRequest::OriginOf {
            value: if i % 7 == 0 {
                value("item0")
            } else {
                absent.clone()
            },
        })
        .collect();
    let responses = client.pipeline(&requests).unwrap();
    assert_eq!(responses.len(), REQUESTS);
    for (i, response) in responses.iter().enumerate() {
        let known = matches!(response.outcome, AuditOutcome::Origin { .. });
        assert_eq!(known, i % 7 == 0, "slot {}: {:?}", i, response.outcome);
    }
    drop(client);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
