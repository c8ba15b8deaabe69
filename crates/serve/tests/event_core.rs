//! The event loop's connection-level behaviors: idle timeout, the
//! plaintext HTTP scrapes, thousands-of-connections scale, pipelined
//! bursts through the dispatch pool, and half-closed peers.

use piprov_audit::{AuditEngine, AuditOutcome, AuditRequest, EventFilter, TraceContext};
use piprov_core::name::{Channel, Principal};
use piprov_core::provenance::{Event, Provenance};
use piprov_core::value::Value;
use piprov_patterns::{parse_pattern, GroupExpr, Pattern};
use piprov_policy::{PackFile, PackSource};
use piprov_serve::codec::{append_request_trace, decode_response, encode_request};
use piprov_serve::wire::{read_frame, write_frame};
use piprov_serve::{
    AuditClient, AuditServer, ClientError, IngestOutcome, RequestTrace, ServeConfig, WireLimits,
    WireRequest, WireResponse,
};
use piprov_store::{Operation, ProvenanceRecord};
use std::io::{BufReader, BufWriter, Read, Write};
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
            flush_timeout: Duration::from_secs(3),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let mut auditor = AuditClient::connect(addr).unwrap();
    auditor.ingest_blocking(vec![record(0, "s0")]).unwrap();
    auditor.flush().unwrap();

    // One accepted batch that the paused queue never drains: a flush
    // behind it parks the only worker for the whole flush timeout.  The
    // flush frame is on the server's socket before the first vet is
    // written, so the loop sees it no later than that vet; only the wait
    // for its answer runs on another thread.
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

    // The parked flush still gets its answer: the barrier times out.
    match parked.join().unwrap() {
        Ok(WireResponse::ServerError { message }) => {
            assert!(message.contains("flush failed"), "{}", message)
        }
        other => panic!("expected the flush to time out, got {:?}", other),
    }
    server.ingest_queue().set_paused(false);
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
            flush_timeout: Duration::from_secs(3),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let mut auditor = AuditClient::connect(addr).unwrap();
    auditor.ingest_blocking(vec![record(0, "s0")]).unwrap();
    auditor.flush().unwrap();

    // The same parked flush as above: the only worker waits out the
    // whole flush timeout behind a batch the paused queue never drains.
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

    match parked.join().unwrap() {
        Ok(WireResponse::ServerError { message }) => {
            assert!(message.contains("flush failed"), "{}", message)
        }
        other => panic!("expected the flush to time out, got {:?}", other),
    }
    server.ingest_queue().set_paused(false);
    drop(auditor);
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

    // Reads around a worker job, all written before the peer shuts
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

    // Reads, then a counterfactual and everything behind it for a worker.
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

    // A worker kind first: the whole burst is one job.
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
    // spine trip the budget mid-burst, and the rest go to a worker.
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
