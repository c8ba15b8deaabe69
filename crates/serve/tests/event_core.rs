//! The event loop's connection-level behaviors: idle timeout, the
//! plaintext HTTP scrapes, thousands-of-connections scale, pipelined
//! bursts across the loop thread and the ingest queue's `Flush` tickets,
//! ingest failures that belong to the connection that shipped them, a
//! peer's backlog, and half-closed or departed peers.

use piprov_audit::{AuditEngine, AuditOutcome, AuditRequest, EventFilter, TraceContext};
use piprov_core::name::{Channel, Principal};
use piprov_core::provenance::{Event, Provenance};
use piprov_core::value::Value;
use piprov_patterns::{parse_pattern, GroupExpr, Pattern};
use piprov_policy::{PackFile, PackSource};
use piprov_serve::codec::{append_request_trace, decode_response, encode_request};
use piprov_serve::wire::{read_frame, write_frame};
use piprov_serve::{
    AuditClient, AuditServer, ClientError, IngestOutcome, PackLoadOutcome, RequestTrace,
    ServeConfig, WireLimits, WireRequest, WireResponse,
};
use piprov_store::codec::encode_body;
use piprov_store::{Operation, ProvenanceRecord};
use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("piprov-serve-ec-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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
fn idle_connections_get_a_typed_timeout_frame() {
    let dir = temp_dir("idle");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    let server = AuditServer::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServeConfig {
            idle_timeout: Some(Duration::from_millis(300)),
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // An idle client is told why before the close — a typed frame, not
    // a silent EOF.
    let mut idler = AuditClient::connect(server.local_addr()).unwrap();
    match idler.receive_response() {
        Ok(WireResponse::ServerError { message }) => {
            assert!(
                message.contains("idle timeout"),
                "expected an idle-timeout notice, got {:?}",
                message
            );
        }
        other => panic!("expected the idle-timeout frame, got {:?}", other),
    }
    assert!(
        matches!(
            idler.receive_response(),
            Err(ClientError::ConnectionClosed) | Err(ClientError::Wire(_))
        ),
        "the notice is followed by the close"
    );

    // A connection that keeps talking (gaps well under the bound)
    // outlives many idle windows.
    let mut active = AuditClient::connect(server.local_addr()).unwrap();
    for _ in 0..6 {
        std::thread::sleep(Duration::from_millis(100));
        active.stats().unwrap();
    }
    drop(active);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// One raw HTTP GET against the framed port; returns the full response.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET {} HTTP/1.1\r\nHost: piprov\r\n\r\n", path).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

#[test]
fn a_plaintext_get_on_the_framed_port_scrapes_the_exposition() {
    let dir = temp_dir("http");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    engine.register_pattern("from-s0", Pattern::originated_at(GroupExpr::single("s0")));
    let server =
        AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();

    // Put real numbers on the metrics plane first.
    let mut client = AuditClient::connect(addr).unwrap();
    client.ingest_blocking(vec![record(0, "s0")]).unwrap();
    client.flush().unwrap();
    client
        .request(&AuditRequest::VetValue {
            value: value("item0"),
            pattern: "from-s0".into(),
        })
        .unwrap();

    let response = http_get(addr, "/metrics");
    assert!(
        response.starts_with("HTTP/1.1 200 OK\r\n"),
        "{}",
        &response[..response.len().min(200)]
    );
    assert!(response.contains("Content-Type: text/plain; version=0.0.4"));
    assert!(response.contains("Connection: close"));
    let body = response
        .split_once("\r\n\r\n")
        .expect("header/body split")
        .1;
    piprov_audit::validate_exposition(body).unwrap();
    assert!(body.contains("piprov_ingested_total 1\n"));
    assert!(body.contains("piprov_vets_passed_total 1\n"));
    // Every stage has a series, and the stages of the framed traffic
    // that just happened observed it.
    assert!(body.contains("# TYPE piprov_stage_seconds histogram"));
    for stage in piprov_audit::SpanKind::ALL {
        let series = format!("piprov_stage_seconds_count{{stage=\"{}\"}} ", stage.name());
        let count_line = body
            .lines()
            .find(|l| l.starts_with(&series))
            .unwrap_or_else(|| panic!("{} has no _count sample", stage.name()));
        let count: u64 = count_line
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        if stage != piprov_audit::SpanKind::ClientEncode {
            assert!(count >= 1, "{} never observed", stage.name());
        }
    }

    // Any other path is a 404, not a hang and not a frame error.
    let missing = http_get(addr, "/nope");
    assert!(missing.starts_with("HTTP/1.1 404 Not Found\r\n"));

    // The framed protocol is undisturbed by the HTTP detour.
    assert_eq!(client.stats().unwrap().ingested, 1);
    drop(client);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn healthz_and_trace_answer_plaintext_gets() {
    let dir = temp_dir("obsget");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    engine.register_pattern("from-s0", Pattern::originated_at(GroupExpr::single("s0")));
    let server =
        AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();

    // The liveness probe needs no traffic first.
    let health = http_get(addr, "/healthz");
    assert!(
        health.starts_with("HTTP/1.1 200 OK\r\n"),
        "{}",
        &health[..health.len().min(200)]
    );
    assert_eq!(health.split_once("\r\n\r\n").unwrap().1, "ok\n");

    // Drive traced framed traffic so the ring has something to show.
    let mut client = AuditClient::connect(addr).unwrap();
    client.ingest_blocking(vec![record(0, "s0")]).unwrap();
    client.flush().unwrap();
    client
        .request(&AuditRequest::VetValue {
            value: value("item0"),
            pattern: "from-s0".into(),
        })
        .unwrap();

    let response = http_get(addr, "/trace");
    assert!(
        response.starts_with("HTTP/1.1 200 OK\r\n"),
        "{}",
        &response[..response.len().min(200)]
    );
    let body = response.split_once("\r\n\r\n").unwrap().1;
    piprov_audit::validate_trace_text(body)
        .unwrap_or_else(|e| panic!("trace body lints clean: {}", e));
    assert!(
        body.contains("kind=vet"),
        "the vet trace is served: {}",
        body
    );
    for stage in ["  client_encode ", "  decode ", "  handle ", "  write "] {
        assert!(
            body.lines().any(|l| l.starts_with(stage)),
            "missing the {} span line:\n{}",
            stage.trim(),
            body
        );
    }

    // `?min_us=` prunes server-side; an impossible floor leaves nothing.
    let filtered = http_get(addr, "/trace?min_us=60000000");
    let filtered_body = filtered.split_once("\r\n\r\n").unwrap().1;
    assert!(
        filtered_body.is_empty(),
        "a 60s floor filters every trace: {}",
        filtered_body
    );

    drop(client);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_hostile_unterminated_get_is_bounded_and_leaves_the_server_healthy() {
    let dir = temp_dir("hostile");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    let server =
        AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();

    // A request line that never ends: no blank line, megabytes of
    // header bytes.  The server must cap what it buffers (8 KiB head)
    // and answer-and-close instead of accumulating the flood.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_write_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET /healthz HTTP/1.1\r\nX-Flood: ").unwrap();
    let junk = vec![b'a'; 64 * 1024];
    let mut sent = 0usize;
    let severed = loop {
        if sent >= 8 * 1024 * 1024 {
            break false;
        }
        match stream.write(&junk) {
            Ok(n) => sent += n,
            // Reset/EPIPE: the server already answered and closed.
            Err(_) => break true,
        }
    };
    if !severed {
        // The flood drained into kernel buffers before the close
        // landed; the response (or a clean EOF) must still arrive.
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
    }
    drop(stream);

    // The regression proof: the server is still healthy and the flood
    // did not wedge the HTTP path or the framed protocol.
    let health = http_get(addr, "/healthz");
    assert!(
        health.starts_with("HTTP/1.1 200 OK\r\n"),
        "server unhealthy after hostile GET: {}",
        &health[..health.len().min(200)]
    );
    let mut client = AuditClient::connect(addr).unwrap();
    assert_eq!(client.stats().unwrap().ingested, 0);
    drop(client);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scrapes_run_concurrently_with_framed_traffic() {
    let dir = temp_dir("scrape-race");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    engine.register_pattern("any", Pattern::Any);
    let server =
        AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    {
        let mut seed = AuditClient::connect(addr).unwrap();
        seed.ingest_blocking(vec![record(0, "s0")]).unwrap();
        seed.flush().unwrap();
    }

    // Scrapers hammer /metrics and /trace while a framed client
    // pipelines distinguishable requests on another connection.
    let scrapers: Vec<_> = ["/metrics", "/trace"]
        .into_iter()
        .map(|path| {
            std::thread::spawn(move || {
                for _ in 0..20 {
                    let response = http_get(addr, path);
                    assert!(
                        response.starts_with("HTTP/1.1 200 OK\r\n"),
                        "{}: {}",
                        path,
                        &response[..response.len().min(200)]
                    );
                    let body = response.split_once("\r\n\r\n").unwrap().1;
                    if path == "/metrics" {
                        piprov_audit::validate_exposition(body).unwrap();
                    } else {
                        piprov_audit::validate_trace_text(body).unwrap();
                    }
                }
            })
        })
        .collect();

    let mut client = AuditClient::connect(addr).unwrap();
    for _ in 0..10 {
        let requests: Vec<AuditRequest> = (0..32u64)
            .map(|i| {
                if i % 2 == 0 {
                    AuditRequest::OriginOf {
                        value: value("item0"),
                    }
                } else {
                    AuditRequest::VetValue {
                        value: value("item0"),
                        pattern: "any".into(),
                    }
                }
            })
            .collect();
        let responses = client.pipeline(&requests).unwrap();
        // In order: each slot's outcome shape matches its request.
        for (i, response) in responses.iter().enumerate() {
            if i % 2 == 0 {
                assert!(
                    matches!(response.outcome, AuditOutcome::Origin { .. }),
                    "slot {} got {:?}",
                    i,
                    response.outcome
                );
            } else {
                assert!(
                    matches!(response.outcome, AuditOutcome::Vetted { .. }),
                    "slot {} got {:?}",
                    i,
                    response.outcome
                );
            }
        }
    }
    for scraper in scrapers {
        scraper.join().unwrap();
    }
    drop(client);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

// The fd-limit probe is Linux-only, and other hosts' default fd limits
// are below the 300-connection target.
#[cfg(target_os = "linux")]
#[test]
fn the_event_loop_holds_hundreds_of_idle_connections_while_serving_active_ones() {
    let dir = temp_dir("scale");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    engine.register_pattern("any", Pattern::Any);
    let server = AuditServer::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Far more connections than any worker pool has threads; scaled down
    // only if the fd limit is unusually tight (each conn costs two fds:
    // ours and the server's).
    let target = 300usize;
    let idle_count = piprov_serve::poll::max_open_files()
        .map(|limit| target.min((limit as usize).saturating_sub(128) / 2))
        .unwrap_or(target);
    let idle: Vec<TcpStream> = (0..idle_count)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    assert!(idle.len() >= 64, "fd limit too low to prove anything");

    // With all those connections parked, active clients still get served.
    let mut active = AuditClient::connect(addr).unwrap();
    for i in 0..32u64 {
        active.ingest_blocking(vec![record(i, "s0")]).unwrap();
    }
    active.flush().unwrap();
    for i in 0..32u64 {
        let vet = active
            .request(&AuditRequest::VetValue {
                value: value(&format!("item{}", i)),
                pattern: "any".into(),
            })
            .unwrap();
        assert!(matches!(
            vet.outcome,
            AuditOutcome::Vetted { verdict: true, .. }
        ));
    }
    assert_eq!(engine.stats().ingested, 32);

    // The parked connections are not zombies: a sampling of them can
    // still speak the protocol.
    for stream in idle.iter().step_by(idle.len() / 8) {
        let mut probe = AuditClient::from_stream(stream.try_clone().unwrap()).unwrap();
        assert_eq!(probe.stats().unwrap().ingested, 32);
    }
    drop(active);
    drop(idle);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_pipelined_burst_through_the_dispatch_pool_answers_in_request_order() {
    let dir = temp_dir("burst");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    engine.register_pattern("any", Pattern::Any);
    let server = AuditServer::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = AuditClient::connect(server.local_addr()).unwrap();
    for i in 0..16u64 {
        client.ingest_blocking(vec![record(i, "s0")]).unwrap();
    }
    client.flush().unwrap();

    // 256 requests written before any response is read: each answer is
    // distinguishable by its value, so a single transposition fails.
    let requests: Vec<AuditRequest> = (0..256u64)
        .map(|i| AuditRequest::OriginOf {
            value: value(&format!("item{}", i % 16)),
        })
        .collect();
    let responses = client.pipeline(&requests).unwrap();
    assert_eq!(responses.len(), 256);
    for response in &responses {
        assert_eq!(
            response.outcome,
            AuditOutcome::Origin {
                principal: Some(Principal::new("s0"))
            }
        );
    }
    // Interleave a query kind with a different outcome shape and check
    // the answers land on the right slots.
    let mixed: Vec<AuditRequest> = (0..64u64)
        .map(|i| {
            if i % 2 == 0 {
                AuditRequest::OriginOf {
                    value: value(&format!("item{}", i % 16)),
                }
            } else {
                AuditRequest::VetValue {
                    value: value(&format!("item{}", i % 16)),
                    pattern: "any".into(),
                }
            }
        })
        .collect();
    let responses = client.pipeline(&mixed).unwrap();
    for (i, response) in responses.iter().enumerate() {
        if i % 2 == 0 {
            assert!(
                matches!(response.outcome, AuditOutcome::Origin { .. }),
                "slot {} got {:?}",
                i,
                response.outcome
            );
        } else {
            assert!(
                matches!(response.outcome, AuditOutcome::Vetted { .. }),
                "slot {} got {:?}",
                i,
                response.outcome
            );
        }
    }
    drop(client);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_worker_parked_on_a_flush_does_not_stall_another_connections_reads() {
    let dir = temp_dir("parked");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    engine.register_pattern("any", Pattern::Any);
    let server = AuditServer::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let mut auditor = AuditClient::connect(addr).unwrap();
    auditor.ingest_blocking(vec![record(0, "s0")]).unwrap();
    auditor.flush().unwrap();

    // One accepted batch that the paused queue does not drain: a flush
    // behind it waits until the queue resumes, and must hold no thread
    // the other connection needs.  The flush frame is on the server's
    // socket before the first vet is written, so the loop sees it no
    // later than that vet; only the wait for its answer runs on another
    // thread.
    server.ingest_queue().set_paused(true);
    let mut flusher = AuditClient::connect(addr).unwrap();
    assert!(matches!(
        flusher.ingest_batch(vec![record(1, "s1")]).unwrap(),
        IngestOutcome::Acked { accepted: 1, .. }
    ));
    let mut flush = Vec::new();
    write_frame(&mut flush, &encode_request(&WireRequest::Flush)).unwrap();
    flusher.send_raw(&flush).unwrap();
    let parked = std::thread::spawn(move || flusher.receive_response());

    let started = Instant::now();
    for _ in 0..10 {
        let vet = auditor
            .request(&AuditRequest::VetValue {
                value: value("item0"),
                pattern: "any".into(),
            })
            .unwrap();
        assert!(matches!(
            vet.outcome,
            AuditOutcome::Vetted { verdict: true, .. }
        ));
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "10 vets took {:?} behind a worker parked on another connection's flush",
        elapsed
    );

    // The waiting flush gets its answer once the owner resumes the queue.
    server.ingest_queue().set_paused(false);
    match parked.join().unwrap() {
        Ok(WireResponse::Flushed { ingested, .. }) => assert_eq!(ingested, 2),
        other => panic!("expected the flush to answer Flushed, got {:?}", other),
    }
    drop(auditor);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_worker_parked_on_a_flush_does_not_delay_another_connections_counterfactuals() {
    let dir = temp_dir("parked-cf");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    engine.register_pattern("any", Pattern::Any);
    let server = AuditServer::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let mut auditor = AuditClient::connect(addr).unwrap();
    auditor.ingest_blocking(vec![record(0, "s0")]).unwrap();
    auditor.flush().unwrap();

    // The same waiting flush as above, behind a batch the paused queue
    // does not drain.
    server.ingest_queue().set_paused(true);
    let mut flusher = AuditClient::connect(addr).unwrap();
    assert!(matches!(
        flusher.ingest_batch(vec![record(1, "s1")]).unwrap(),
        IngestOutcome::Acked { accepted: 1, .. }
    ));
    let mut flush = Vec::new();
    write_frame(&mut flush, &encode_request(&WireRequest::Flush)).unwrap();
    flusher.send_raw(&flush).unwrap();
    let parked = std::thread::spawn(move || flusher.receive_response());

    let started = Instant::now();
    for _ in 0..10 {
        let response = auditor
            .counterfactual(
                value("item0"),
                "any",
                EventFilter::Principal(Principal::new("s0")),
            )
            .unwrap();
        match response.outcome {
            AuditOutcome::Counterfactual(verdict) => {
                assert!(verdict.original && verdict.counterfactual);
                assert_eq!(verdict.removed.len(), 1);
            }
            other => panic!("expected a counterfactual, got {:?}", other),
        }
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "10 counterfactuals took {:?} behind a worker parked on another connection's flush",
        elapsed
    );

    // The waiting flush gets its answer once the owner resumes the queue.
    server.ingest_queue().set_paused(false);
    match parked.join().unwrap() {
        Ok(WireResponse::Flushed { ingested, .. }) => assert_eq!(ingested, 2),
        other => panic!("expected the flush to answer Flushed, got {:?}", other),
    }
    drop(auditor);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_parked_worker_delays_no_other_connections_pack_load_scrape_or_long_pipeline() {
    let dir = temp_dir("parked-loop");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    let server = AuditServer::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let mut auditor = AuditClient::connect(addr).unwrap();
    auditor
        .ingest_blocking(vec![record(0, "s0"), spine_record("spine", 300)])
        .unwrap();
    auditor.flush().unwrap();

    // A flush waits behind a batch the paused queue does not drain.
    server.ingest_queue().set_paused(true);
    let mut flusher = AuditClient::connect(addr).unwrap();
    assert!(matches!(
        flusher.ingest_batch(vec![record(1, "s1")]).unwrap(),
        IngestOutcome::Acked { accepted: 1, .. }
    ));
    let mut flush = Vec::new();
    write_frame(&mut flush, &encode_request(&WireRequest::Flush)).unwrap();
    flusher.send_raw(&flush).unwrap();
    let parked = std::thread::spawn(move || flusher.receive_response());

    let started = Instant::now();
    let pack = PackSource::new(
        "parked",
        vec![PackFile::new(
            "p.ppol",
            "package parked::p\n\npolicy deep = Any; s1!Any\n",
        )],
    );
    assert!(matches!(
        auditor.load_pack(&pack).unwrap(),
        PackLoadOutcome::Loaded { installed: 1, .. }
    ));
    let scrape = http_get(addr, "/metrics");
    assert!(scrape.starts_with("HTTP/1.1 200 OK"), "{}", scrape);
    // More why-slices over the 300-hop spine than the loop answers in one
    // pass: the rest wait for the loop's next pass, not for a worker.
    let why = WireRequest::Audit(AuditRequest::Why {
        value: value("spine"),
        pattern: "parked::p::deep".into(),
    });
    let burst = vec![why; 96];
    let mut conn = RawConn::connect(addr);
    for (slot, response) in conn.pipeline(&burst).iter().enumerate() {
        assert!(
            matches!(response, WireResponse::Audit(r) if matches!(r.outcome, AuditOutcome::Why(_))),
            "slot {} answered {:?}",
            slot,
            response
        );
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "a pack load, a scrape and 96 why-slices took {:?} beside a worker parked on a flush",
        elapsed
    );

    // The waiting flush gets its answer once the owner resumes the queue.
    server.ingest_queue().set_paused(false);
    match parked.join().unwrap() {
        Ok(WireResponse::Flushed { ingested, .. }) => assert_eq!(ingested, 3),
        other => panic!("expected the flush to answer Flushed, got {:?}", other),
    }
    drop(auditor);
    drop(conn);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_waiting_flush_holds_no_worker() {
    let dir = temp_dir("waiting-flush");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    let server = AuditServer::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // A flush behind a batch the paused queue does not drain.
    server.ingest_queue().set_paused(true);
    let mut flusher = AuditClient::connect(addr).unwrap();
    assert!(matches!(
        flusher.ingest_batch(vec![record(0, "s0")]).unwrap(),
        IngestOutcome::Acked { accepted: 1, .. }
    ));
    let mut flush = Vec::new();
    write_frame(&mut flush, &encode_request(&WireRequest::Flush)).unwrap();
    flusher.send_raw(&flush).unwrap();
    let waiting = std::thread::spawn(move || flusher.receive_response());

    // Another connection's ingest batches need the only worker to decode
    // them: a flush that held it would hold them all.
    let mut producer = AuditClient::connect(addr).unwrap();
    let started = Instant::now();
    for i in 1..=10 {
        assert!(matches!(
            producer.ingest_batch(vec![record(i, "s1")]).unwrap(),
            IngestOutcome::Acked { accepted: 1, .. }
        ));
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "10 one-record batches took {:?} beside another connection's waiting flush",
        elapsed
    );

    // Resumed, the queue answers the flush once its one batch is applied,
    // before any of the ten accepted after it.
    server.ingest_queue().set_paused(false);
    match waiting.join().unwrap() {
        Ok(WireResponse::Flushed { ingested, .. }) => assert_eq!(ingested, 1),
        other => panic!("expected the flush to answer Flushed, got {:?}", other),
    }
    assert_eq!(producer.flush().unwrap().ingested, 11);
    drop(producer);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_flush_whose_peer_left_is_answered_to_no_one() {
    let dir = temp_dir("flush-peer-left");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    let server =
        AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut bystander = AuditClient::connect(addr).unwrap();
    assert_eq!(bystander.stats().unwrap().ingested, 0);

    // An ingest batch and a flush behind it, to a paused queue.
    server.ingest_queue().set_paused(true);
    let mut frames = Vec::new();
    write_frame(
        &mut frames,
        &encode_request(&WireRequest::IngestBatch(vec![record(0, "s0")])),
    )
    .unwrap();
    write_frame(&mut frames, &encode_request(&WireRequest::Flush)).unwrap();
    let leaver = TcpStream::connect(addr).unwrap();
    (&leaver).write_all(&frames).unwrap();
    // The loop takes the flush's ticket in the pass that writes the
    // batch's ack.  Leaving that ack unread makes the close a reset, so
    // the loop drops the connection while its ticket waits.
    let mut peeked = [0u8; 8];
    while leaver.peek(&mut peeked).unwrap() < peeked.len() {
        std::thread::sleep(Duration::from_millis(1));
    }
    let closed = engine.metrics_registry().connections_closed();
    drop(leaver);
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.metrics_registry().connections_closed() == closed {
        assert!(
            Instant::now() < deadline,
            "the loop never saw the peer leave"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // Resumed, the queue answers the ticket; the answer has no connection
    // to go to.  The server stays up, the batch counts, and no other
    // connection hears of the late answer.
    server.ingest_queue().set_paused(false);
    let mut fresh = AuditClient::connect(addr).unwrap();
    assert_eq!(fresh.flush().unwrap().ingested, 1);
    assert_eq!(bystander.stats().unwrap().ingested, 1);
    assert_eq!(fresh.stats().unwrap().ingested, 1);
    drop((bystander, fresh));
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// One framed connection driven with raw wire requests, so a burst can mix
/// every request kind the way a pipelining peer may.
struct RawConn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl RawConn {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        RawConn {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: BufWriter::new(stream),
        }
    }

    /// Writes every request of `burst` (every other one carrying a trace
    /// field) before reading any response, then reads one per request.
    fn pipeline(&mut self, burst: &[WireRequest]) -> Vec<WireResponse> {
        for (slot, request) in burst.iter().enumerate() {
            let mut body = encode_request(request);
            if slot % 2 == 1 {
                let trace = RequestTrace {
                    context: TraceContext::generate(),
                    client_encode_ns: 1,
                };
                body = append_request_trace(&body, &trace);
            }
            write_frame(&mut self.writer, &body).unwrap();
        }
        self.writer.flush().unwrap();
        let limits = WireLimits::default();
        burst
            .iter()
            .map(|_| {
                let frame = read_frame(&mut self.reader, limits.max_frame_len)
                    .unwrap()
                    .expect("one response per request");
                decode_response(frame, &limits).unwrap()
            })
            .collect()
    }
}

/// The in-process engine's answer to `request` in its current state, for
/// every request whose answer is a function of that state.
fn answer_now(engine: &AuditEngine, request: &WireRequest) -> Option<WireResponse> {
    match request {
        WireRequest::Audit(audit) => Some(WireResponse::Audit(engine.handle(audit))),
        WireRequest::ListPolicies => Some(WireResponse::Policies(engine.policies())),
        WireRequest::Flush => Some(WireResponse::Flushed {
            ingested: engine.stats().ingested,
            watermark: engine.watermark(),
        }),
        _ => None,
    }
}

/// Pipelines `burst` and checks every slot against the in-process engine:
/// slots before `changes_at` against its answers before the burst, the
/// rest against its answers after it.
fn check_burst(conn: &mut RawConn, engine: &AuditEngine, burst: &[WireRequest], changes_at: usize) {
    let before: Vec<_> = burst.iter().map(|r| answer_now(engine, r)).collect();
    let responses = conn.pipeline(burst);
    let after: Vec<_> = burst.iter().map(|r| answer_now(engine, r)).collect();
    for (slot, (request, got)) in burst.iter().zip(&responses).enumerate() {
        let want = if slot < changes_at {
            &before[slot]
        } else {
            &after[slot]
        };
        match (want, got) {
            // `stats` reports what the answer cost (a warm memo walks
            // less); everything the answer says must be equal.
            (Some(WireResponse::Audit(want)), WireResponse::Audit(got)) => assert_eq!(
                (&got.outcome, got.watermark, got.pack_version),
                (&want.outcome, want.watermark, want.pack_version),
                "slot {}: {:?}",
                slot,
                request
            ),
            (Some(want), got) => assert_eq!(got, want, "slot {}: {:?}", slot, request),
            (None, got) => {
                let listing = engine.policies();
                let answered = match (request, got) {
                    (
                        WireRequest::IngestBatch(records),
                        WireResponse::IngestAck { accepted, .. },
                    ) => *accepted as usize == records.len(),
                    (
                        WireRequest::LoadPack(_),
                        WireResponse::PackLoaded {
                            version, installed, ..
                        },
                    ) => {
                        *version == listing.version && *installed as usize == listing.policies.len()
                    }
                    (WireRequest::Metrics, WireResponse::Metrics(_)) => true,
                    (WireRequest::Traces { .. }, WireResponse::Traces(_)) => true,
                    _ => false,
                };
                assert!(answered, "slot {}: {:?} answered {:?}", slot, request, got);
            }
        }
    }
}

/// A record of `value_name` whose spine is `hops` relay events over one
/// output by `s1`: a why-slice against `Any; s1!Any` walks all of it.
fn spine_record(value_name: &str, hops: usize) -> ProvenanceRecord {
    let mut events: Vec<Event> = (0..hops)
        .map(|i| {
            let relay = Principal::new(format!("r{}", i));
            if i % 2 == 0 {
                Event::input(relay, Provenance::empty())
            } else {
                Event::output(relay, Provenance::empty())
            }
        })
        .collect();
    events.push(Event::output(Principal::new("s1"), Provenance::empty()));
    ProvenanceRecord::new(
        0,
        "writer",
        Operation::Send,
        "m",
        value(value_name),
        Provenance::from_events(events),
    )
}

#[test]
fn a_half_closed_peer_gets_every_answer_then_eof() {
    let dir = temp_dir("halfclose");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    engine.register_pattern("any", Pattern::Any);
    engine.register_pattern("deep", parse_pattern("Any; s1!Any").unwrap());
    let server =
        AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut seed = AuditClient::connect(addr).unwrap();
    seed.ingest_blocking(vec![record(0, "s0"), spine_record("spine", 8)])
        .unwrap();
    seed.flush().unwrap();
    drop(seed);
    let limits = WireLimits::default();
    let connect = || {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
    };

    // Reads around a counterfactual, all written before the peer shuts
    // down its write half: every answer still arrives, in order, and
    // only then the server's EOF.
    let vet = WireRequest::Audit(AuditRequest::VetValue {
        value: value("item0"),
        pattern: "any".into(),
    });
    let burst = [
        vet.clone(),
        WireRequest::Audit(AuditRequest::Counterfactual {
            value: value("spine"),
            pattern: "deep".into(),
            remove: EventFilter::Principal(Principal::new("s1")),
        }),
        vet,
        WireRequest::Metrics,
    ];
    let mut stream = connect();
    let mut frames = Vec::new();
    for request in &burst {
        write_frame(&mut frames, &encode_request(request)).unwrap();
    }
    stream.write_all(&frames).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut reader = BufReader::new(stream);
    for (slot, request) in burst.iter().enumerate() {
        let frame = read_frame(&mut reader, limits.max_frame_len)
            .unwrap()
            .unwrap_or_else(|| panic!("EOF before slot {}", slot));
        let response = decode_response(frame, &limits).unwrap();
        let kind_matches = match (request, &response) {
            (WireRequest::Audit(AuditRequest::VetValue { .. }), WireResponse::Audit(r)) => {
                matches!(r.outcome, AuditOutcome::Vetted { verdict: true, .. })
            }
            (WireRequest::Audit(AuditRequest::Counterfactual { .. }), WireResponse::Audit(r)) => {
                matches!(r.outcome, AuditOutcome::Counterfactual(_))
            }
            (WireRequest::Metrics, WireResponse::Metrics(_)) => true,
            _ => false,
        };
        assert!(
            kind_matches,
            "slot {} ({:?}) answered {:?}",
            slot, request, response
        );
    }
    assert!(
        read_frame(&mut reader, limits.max_frame_len)
            .unwrap()
            .is_none(),
        "the last answer is followed by EOF"
    );

    // A frame cut three bytes short, then the half-close: the server
    // names the truncation, then closes.
    let mut truncated = Vec::new();
    write_frame(&mut truncated, &encode_request(&WireRequest::Metrics)).unwrap();
    truncated.truncate(truncated.len() - 3);
    let mut stream = connect();
    stream.write_all(&truncated).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut reader = BufReader::new(stream);
    let frame = read_frame(&mut reader, limits.max_frame_len)
        .unwrap()
        .unwrap_or_else(|| panic!("EOF before the error frame"));
    match decode_response(frame, &limits).unwrap() {
        WireResponse::ServerError { message } => {
            assert!(message.contains("truncated"), "{}", message)
        }
        other => panic!("expected a ServerError, got {:?}", other),
    }
    assert!(
        read_frame(&mut reader, limits.max_frame_len)
            .unwrap()
            .is_none(),
        "the error frame is followed by EOF"
    );

    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_half_closed_peer_gets_its_worker_answers_in_order_then_eof() {
    let dir = temp_dir("halfclose-worker");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    engine.register_pattern("any", Pattern::Any);
    let server =
        AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut seed = AuditClient::connect(server.local_addr()).unwrap();
    seed.ingest_blocking(vec![record(0, "s0")]).unwrap();
    seed.flush().unwrap();
    drop(seed);

    // Two frames for a worker among reads, all written before the peer
    // shuts down its write half, so the loop reads the EOF while a frame
    // waits for a worker or sits at one.
    let vet = WireRequest::Audit(AuditRequest::VetValue {
        value: value("item0"),
        pattern: "any".into(),
    });
    let burst = [
        vet.clone(),
        WireRequest::IngestBatch(vec![record(1, "s1")]),
        vet,
        WireRequest::Flush,
        WireRequest::Metrics,
    ];
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut frames = Vec::new();
    for request in &burst {
        write_frame(&mut frames, &encode_request(request)).unwrap();
    }
    (&stream).write_all(&frames).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let limits = WireLimits::default();
    let mut reader = BufReader::new(stream);
    let mut answers = Vec::new();
    while let Some(frame) = read_frame(&mut reader, limits.max_frame_len).unwrap() {
        answers.push(decode_response(frame, &limits).unwrap());
    }
    assert_eq!(answers.len(), burst.len(), "{:?}", answers);
    let vetted = |r: &WireResponse| matches!(r, WireResponse::Audit(a) if matches!(a.outcome, AuditOutcome::Vetted { verdict: true, .. }));
    assert!(vetted(&answers[0]), "{:?}", answers[0]);
    assert!(
        matches!(answers[1], WireResponse::IngestAck { accepted: 1, .. }),
        "{:?}",
        answers[1]
    );
    assert!(vetted(&answers[2]), "{:?}", answers[2]);
    assert!(
        matches!(answers[3], WireResponse::Flushed { ingested: 2, .. }),
        "{:?}",
        answers[3]
    );
    assert!(
        matches!(answers[4], WireResponse::Metrics(_)),
        "{:?}",
        answers[4]
    );
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn responses_keep_request_order_across_the_inline_and_worker_paths() {
    let dir = temp_dir("order");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    engine.register_pattern("any", Pattern::Any);
    engine.register_pattern("deep", parse_pattern("Any; s1!Any").unwrap());
    let server = AuditServer::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut seed = AuditClient::connect(server.local_addr()).unwrap();
    let mut records: Vec<ProvenanceRecord> = (0..16).map(|i| record(i, "s0")).collect();
    records.push(spine_record("spine", 300));
    seed.ingest_blocking(records).unwrap();
    seed.flush().unwrap();
    drop(seed);

    let audit = WireRequest::Audit;
    let item = |i: u64| value(&format!("item{}", i % 20));
    let vet = |i: u64, policy: &str| {
        audit(AuditRequest::VetValue {
            value: item(i),
            pattern: policy.into(),
        })
    };
    let origin = |i: u64| audit(AuditRequest::OriginOf { value: item(i) });
    let trail = |i: u64| audit(AuditRequest::AuditTrail { value: item(i) });
    let why = |policy: &str| {
        audit(AuditRequest::Why {
            value: value("spine"),
            pattern: policy.into(),
        })
    };
    let counterfactual = |without: &str| {
        audit(AuditRequest::Counterfactual {
            value: value("spine"),
            pattern: "deep".into(),
            remove: EventFilter::Principal(Principal::new(without)),
        })
    };
    let mut conn = RawConn::connect(server.local_addr());

    // Reads only, counterfactuals among them: the loop answers them all.
    let burst = vec![
        vet(0, "any"),
        origin(1),
        trail(2),
        why("deep"),
        audit(AuditRequest::WhoTouched {
            principal: Principal::new("s0"),
        }),
        counterfactual("s1"),
        vet(3, "any"),
        why("deep"),
        origin(4),
        WireRequest::Metrics,
        WireRequest::ListPolicies,
        counterfactual("r7"),
        trail(5),
    ];
    let unchanged = burst.len();
    check_burst(&mut conn, &engine, &burst, unchanged);

    // A counterfactual first, then reads.
    let burst = vec![counterfactual("r1"), vet(6, "deep"), origin(7), why("any")];
    check_burst(&mut conn, &engine, &burst, burst.len());

    // Ingest then flush mid-burst: the reads after the flush see the batch.
    let batch: Vec<ProvenanceRecord> = (16..20).map(|i| record(i, "s2")).collect();
    let burst = vec![
        vet(8, "any"),
        origin(9),
        WireRequest::IngestBatch(batch),
        WireRequest::Flush,
        vet(16, "any"),
        origin(17),
        trail(18),
        vet(19, "deep"),
        why("deep"),
    ];
    check_burst(&mut conn, &engine, &burst, 2);

    // Reads only, and more of them than the loop answers in one pass: 64
    // why-slices (every slot but the multiples of three) over the 300-hop
    // spine trip the budget mid-burst, and the rest wait for the loop's
    // next pass.
    let burst: Vec<WireRequest> = (0..96u64)
        .map(|i| match i % 3 {
            _ if i == 48 => WireRequest::Traces { min_total_ns: 0 },
            0 => vet(i, "any"),
            1 => why("deep"),
            _ => why("any"),
        })
        .collect();
    check_burst(&mut conn, &engine, &burst, burst.len());

    // A pack load, then reads that see the pack it published.
    let pack = PackSource::new(
        "order",
        vec![PackFile::new(
            "p.ppol",
            "package order::p\n\npolicy from_s0 = s0!Any; Any\npolicy deep = Any; s1!Any\n",
        )],
    );
    let burst = vec![
        vet(10, "any"),
        why("deep"),
        WireRequest::LoadPack(pack),
        WireRequest::ListPolicies,
        vet(11, "order::p::from_s0"),
        vet(12, "any"),
        why("order::p::deep"),
        origin(13),
    ];
    check_burst(&mut conn, &engine, &burst, 2);

    // And the connection reads inline again afterwards.
    let burst = vec![
        vet(14, "order::p::from_s0"),
        origin(15),
        why("order::p::deep"),
    ];
    check_burst(&mut conn, &engine, &burst, burst.len());

    drop(conn);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// An ingest frame whose record bodies are given as bytes, so a test can
/// ship bodies the encoder would never write.
fn ingest_frame(bodies: &[Vec<u8>]) -> Vec<u8> {
    let template = encode_request(&WireRequest::IngestBatch(Vec::new()));
    let mut request = template[..2].to_vec();
    request.extend((bodies.len() as u32).to_be_bytes());
    for body in bodies {
        request.extend((body.len() as u32).to_be_bytes());
        request.extend(body);
    }
    let mut framed = Vec::new();
    write_frame(&mut framed, &request).unwrap();
    framed
}

/// The body of `record` with its root reference pointed past its node
/// table.
fn dangling_body(record: &ProvenanceRecord) -> Vec<u8> {
    let mut body = encode_body(record).to_vec();
    let root = body.len() - 4;
    body[root..].copy_from_slice(&999u32.to_be_bytes());
    body
}

/// The body of a record whose provenance nests `levels` deep, each
/// node's channel the node before, written by hand: the encoder refuses
/// to write what the decoder would refuse to read.
fn nested_body(levels: u32) -> Vec<u8> {
    let empty = ProvenanceRecord::new(
        1,
        "a",
        Operation::Send,
        "m",
        value("deep"),
        Provenance::empty(),
    );
    let body = encode_body(&empty);
    // Drop the empty provenance section: a zero node count and root 0.
    let mut nested = body[..body.len() - 8].to_vec();
    nested.extend(levels.to_be_bytes());
    for level in 0..levels {
        nested.push(0); // Output
        nested.extend(1u16.to_be_bytes());
        nested.push(b'p');
        nested.extend(level.to_be_bytes()); // channel: the node before
        nested.extend(0u32.to_be_bytes()); // tail: ε
    }
    nested.extend(levels.to_be_bytes()); // root
    nested
}

/// Before batches were admitted still encoded, such bodies got a typed
/// error and the close, and a batch that failed in the store handed its
/// error to whichever flush ran next.
#[test]
fn a_batch_that_fails_to_decode_is_acked_and_fails_only_its_own_connections_flush() {
    let dir = temp_dir("attribution");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    let server =
        AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    server.ingest_queue().set_paused(true);

    // A good record beside one whose reference dangles, then a record
    // nested past the depth limit: both frames pass the loop's check.
    let mut shipper = AuditClient::connect(addr).unwrap();
    let frames = [
        ingest_frame(&[
            encode_body(&record(0, "s0")).to_vec(),
            dangling_body(&record(1, "s0")),
        ]),
        ingest_frame(&[nested_body(MAX_DEPTH + 1)]),
    ];
    for (frame, accepted) in frames.iter().zip([2, 1]) {
        shipper.send_raw(frame).unwrap();
        match shipper.receive_response().unwrap() {
            WireResponse::IngestAck { accepted: got, .. } => assert_eq!(got, accepted),
            other => panic!("expected the frame to be queued, got {:?}", other),
        }
    }
    // Another connection's batch, and its flush, which runs once the
    // failed batches are applied.
    let mut other = AuditClient::connect(addr).unwrap();
    assert!(matches!(
        other.ingest_batch(vec![record(2, "s1")]).unwrap(),
        IngestOutcome::Acked { accepted: 1, .. }
    ));
    let mut flush = Vec::new();
    write_frame(&mut flush, &encode_request(&WireRequest::Flush)).unwrap();
    other.send_raw(&flush).unwrap();
    let waiting = std::thread::spawn(move || other.receive_response());
    server.ingest_queue().set_paused(false);
    match waiting.join().unwrap() {
        Ok(WireResponse::Flushed { ingested, .. }) => assert_eq!(ingested, 1),
        other => panic!(
            "another connection's failure reached this flush: {:?}",
            other
        ),
    }

    // The shipper's flush names its first failure, once; neither of its
    // batches stored anything.
    match shipper.flush() {
        Err(ClientError::Server(message)) => assert!(message.contains("reference"), "{}", message),
        other => panic!("expected the dangling reference's error, got {:?}", other),
    }
    assert_eq!(shipper.flush().unwrap().ingested, 1);
    assert_eq!(engine.record_count(), 1, "a failed batch applies nothing");
    assert_eq!(server.ingest_queue().unclaimed_failures(), 0);
    drop(shipper);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The deepest provenance the store accepts.
const MAX_DEPTH: u32 = piprov_store::record::MAX_PROVENANCE_DEPTH as u32;

/// Before per-connection attribution there was no per-connection state:
/// one error slot held the failure until any connection's flush took it.
#[test]
fn a_connection_that_leaves_without_flushing_takes_its_failure_with_it() {
    let dir = temp_dir("leaver-failure");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    let server =
        AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut leaver = AuditClient::connect(addr).unwrap();
    leaver
        .send_raw(&ingest_frame(&[dangling_body(&record(0, "s0"))]))
        .unwrap();
    assert!(matches!(
        leaver.receive_response().unwrap(),
        WireResponse::IngestAck { accepted: 1, .. }
    ));
    // Another connection's flush runs after the failed batch is applied,
    // and does not take its failure.
    let mut bystander = AuditClient::connect(addr).unwrap();
    assert_eq!(bystander.flush().unwrap().ingested, 0);
    assert_eq!(server.ingest_queue().unclaimed_failures(), 1);

    let closed = engine.metrics_registry().connections_closed();
    drop(leaver);
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.metrics_registry().connections_closed() == closed
        || server.ingest_queue().unclaimed_failures() > 0
    {
        assert!(
            Instant::now() < deadline,
            "the leaver's failure outlived it"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(bystander.flush().unwrap().ingested, 0);
    drop(bystander);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The most a stalled peer may have written: the server's bounded
/// buffers plus the kernel's socket buffers on both sides, which take
/// several megabytes on a loopback connection.
const STALL_BOUND: usize = 16 << 20;
/// Request bytes a flooding peer writes at most; a server that reads them
/// all never stalls it.
const FLOOD_CAP: usize = 2 * STALL_BOUND;

/// Whether probe `i` asks about the known value: a pattern no shift of
/// the stream reproduces.
fn probes_known(i: usize) -> bool {
    (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 == 1
}

/// A read with a small answer that says which of two values it asked
/// about.
fn probe(i: usize) -> WireRequest {
    let name = if probes_known(i) { "item0" } else { "absent" };
    WireRequest::Audit(AuditRequest::OriginOf { value: value(name) })
}

/// A peer that writes `prelude` and then probes and reads nothing, until
/// a write times out.
struct Flood {
    stream: TcpStream,
    frames: Vec<u8>,
    /// Where each probe's frame ends in `frames`.
    ends: Vec<usize>,
    written: usize,
}

impl Flood {
    fn start(addr: std::net::SocketAddr, prelude: &[WireRequest]) -> Flood {
        let mut frames = Vec::new();
        for request in prelude {
            write_frame(&mut frames, &encode_request(request)).unwrap();
        }
        // Two distinct probe frames, encoded once.
        let framed: Vec<Vec<u8>> = (0..2)
            .map(|known| {
                let slot = (0..).find(|&i| probes_known(i) == (known == 1)).unwrap();
                let mut frame = Vec::new();
                write_frame(&mut frame, &encode_request(&probe(slot))).unwrap();
                frame
            })
            .collect();
        let mut ends = Vec::new();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_write_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let mut written = 0;
        while written < FLOOD_CAP {
            if written == frames.len() {
                // Probes are built as the socket takes them.
                while frames.len() < written + 64 * 1024 {
                    frames.extend_from_slice(&framed[probes_known(ends.len()) as usize]);
                    ends.push(frames.len());
                }
            }
            match stream.write(&frames[written..]) {
                Ok(n) => written += n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
                Err(e) => panic!("flood write: {}", e),
            }
        }
        assert!(
            written < STALL_BOUND,
            "the server read {} bytes from a peer that reads nothing",
            written
        );
        assert!(written > ends[0], "the prelude and a probe went out");
        Flood {
            stream,
            frames,
            ends,
            written,
        }
    }

    /// Finishes the probe the stall cut, then reads every answer: the
    /// prelude's, checked by `prelude`, then each probe's, in order.
    fn drain(
        self,
        engine: &AuditEngine,
        prelude: impl FnOnce(&mut dyn FnMut() -> WireResponse) + Send + 'static,
    ) {
        let end = *self.ends.iter().find(|&&end| end >= self.written).unwrap();
        let probes = self.ends.iter().position(|&e| e == end).unwrap() + 1;
        let known = engine
            .handle(&AuditRequest::OriginOf {
                value: value("item0"),
            })
            .outcome;
        let reader_stream = self.stream.try_clone().unwrap();
        reader_stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = std::thread::spawn(move || {
            let limits = WireLimits::default();
            let mut reader = BufReader::new(reader_stream);
            let mut next = || {
                let frame = read_frame(&mut reader, limits.max_frame_len)
                    .unwrap()
                    .expect("an answer per request");
                decode_response(frame, &limits).unwrap()
            };
            prelude(&mut next);
            for slot in 0..probes {
                match next() {
                    WireResponse::Audit(response) => assert_eq!(
                        response.outcome == known,
                        probes_known(slot),
                        "probe {} answered {:?}",
                        slot,
                        response.outcome
                    ),
                    other => panic!("probe {} answered {:?}", slot, other),
                }
            }
        });
        let mut stream = self.stream;
        stream
            .set_write_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.write_all(&self.frames[self.written..end]).unwrap();
        reader.join().unwrap();
    }
}

/// A server with one record, `item0`, and a served connection.
fn flood_server(name: &str) -> (AuditServer, Arc<AuditEngine>, AuditClient, PathBuf) {
    let dir = temp_dir(name);
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    engine.register_pattern("any", Pattern::Any);
    let server =
        AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut served = AuditClient::connect(server.local_addr()).unwrap();
    served.ingest_blocking(vec![record(0, "s0")]).unwrap();
    served.flush().unwrap();
    (server, engine, served, dir)
}

/// A vet on the served connection answers at once.
fn vet_answers(served: &mut AuditClient) {
    let started = Instant::now();
    let vet = served
        .request(&AuditRequest::VetValue {
            value: value("item0"),
            pattern: "any".into(),
        })
        .unwrap();
    assert!(matches!(
        vet.outcome,
        AuditOutcome::Vetted { verdict: true, .. }
    ));
    assert!(started.elapsed() < Duration::from_secs(1));
}

/// Before the backlog bound the loop read everything a peer wrote and
/// buffered every answer: 2 MB of `Metrics` requests grew the server by
/// hundreds of megabytes, and this peer's writes never stalled.
#[test]
fn a_peer_that_never_reads_stalls_on_its_own_socket_and_then_gets_every_answer_in_order() {
    let (server, engine, mut served, dir) = flood_server("flood");
    let flood = Flood::start(server.local_addr(), &[]);
    vet_answers(&mut served);
    flood.drain(&engine, |_| {});
    vet_answers(&mut served);
    drop(served);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Before, the loop kept reading a connection whose `Flush` ticket
/// waited, and buffered everything behind it.
#[test]
fn a_peer_whose_flush_waits_stalls_on_its_own_socket_and_then_gets_every_answer_in_order() {
    let (server, engine, mut served, dir) = flood_server("flood-flush");
    server.ingest_queue().set_paused(true);
    let prelude = [
        WireRequest::IngestBatch(vec![record(1, "s1")]),
        WireRequest::Flush,
    ];
    let flood = Flood::start(server.local_addr(), &prelude);
    vet_answers(&mut served);
    server.ingest_queue().set_paused(false);
    flood.drain(&engine, |next| {
        assert!(matches!(
            next(),
            WireResponse::IngestAck { accepted: 1, .. }
        ));
        assert!(matches!(next(), WireResponse::Flushed { ingested: 2, .. }));
    });
    vet_answers(&mut served);
    drop(served);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
