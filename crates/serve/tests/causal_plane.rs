//! The causal-query plane over the wire:
//! `AuditClient::why` / `AuditClient::counterfactual` round-tripping the
//! v6 request/outcome vocabulary, the `GET /why` plaintext endpoint, the
//! `GET /policies?package=` filter, and — the acceptance bar — the wire
//! differential harness: counterfactual answers served live must equal a
//! second server that ingested the **literally filtered** history, across
//! seeded workloads.

use piprov_audit::{AuditEngine, RequestStats};
use piprov_audit::{AuditOutcome, AuditRequest, EventFilter};
use piprov_core::name::{Channel, Principal};
use piprov_core::provenance::{Direction, Event, Provenance};
use piprov_core::value::Value;
use piprov_policy::{PackFile, PackSource};
use piprov_serve::{AuditClient, AuditServer, PackLoadOutcome, ServeConfig};
use piprov_store::{Operation, ProvenanceRecord};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!(
        "piprov-serve-causal-{}-{}",
        std::process::id(),
        name
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> ServeConfig {
    ServeConfig::default()
}

fn value(name: &str) -> Value {
    Value::Channel(Channel::new(name))
}

fn event(principal: &str, direction: Direction, channel: Provenance) -> Event {
    match direction {
        Direction::Output => Event::output(Principal::new(principal), channel),
        Direction::Input => Event::input(Principal::new(principal), channel),
    }
}

/// A record whose top-level spine is `events`, newest first.
fn record_with(value_name: &str, events: Vec<Event>) -> ProvenanceRecord {
    ProvenanceRecord::new(
        0,
        "writer",
        Operation::Send,
        "m",
        value(value_name),
        Provenance::from_events(events),
    )
}

/// One raw HTTP GET against the framed port; returns the full response.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(stream, "GET {} HTTP/1.1\r\nHost: piprov\r\n\r\n", path).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

/// The pack both planes vet against: `head` wants the newest event to be
/// an output by `s0`, `deep` wants the oldest to be an output by `s1`,
/// `either` takes either vendor up front.
fn causal_pack() -> PackSource {
    PackSource::new(
        "causal",
        vec![PackFile::new(
            "q.ppol",
            "package causal::q\n\n\
             policy head = s0!Any; Any\n\
             policy deep = Any; s1!Any\n\
             policy either = (s0 + s1)!Any; Any\n",
        )],
    )
}

const HEAD: &str = "causal::q::head";
const POLICIES: &[&str] = &["causal::q::head", "causal::q::deep", "causal::q::either"];

#[test]
fn why_and_counterfactual_answer_over_the_wire() {
    let dir = temp_dir("rpc");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    let server = AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", config()).unwrap();
    let addr = server.local_addr();
    let mut client = AuditClient::connect(addr).unwrap();

    let empty = Provenance::empty;
    client
        .ingest_blocking(vec![
            // Passes `head`: newest event is an output by s0.
            record_with("item1", vec![event("s0", Direction::Output, empty())]),
            // Fails `head` at the very first event (s9 is no vendor);
            // removing s9 flips it back to passing.
            record_with(
                "item2",
                vec![
                    event("s9", Direction::Input, empty()),
                    event("s0", Direction::Output, empty()),
                ],
            ),
        ])
        .unwrap();
    client.flush().unwrap();
    assert!(matches!(
        client.load_pack(&causal_pack()).unwrap(),
        PackLoadOutcome::Loaded { version: 1, .. }
    ));

    // A passing why slice: the whole consumed spine, no blocker.
    let response = client.why(value("item1"), HEAD).unwrap();
    assert_eq!(response.pack_version, 1);
    let slice = match &response.outcome {
        AuditOutcome::Why(slice) => slice,
        other => panic!("expected a why slice, got {:?}", other),
    };
    assert!(slice.verdict);
    assert_eq!(slice.blocked, None);
    assert_eq!(slice.events.len(), 1);
    assert_eq!(slice.events[0].event.to_string(), "s0!ε");

    // A failing slice blocks at index 0: the newest event mismatches.
    let response = client.why(value("item2"), HEAD).unwrap();
    let slice = match &response.outcome {
        AuditOutcome::Why(slice) => slice,
        other => panic!("expected a why slice, got {:?}", other),
    };
    assert!(!slice.verdict);
    assert_eq!(slice.blocked, Some(0));

    // Removing the offending principal flips the verdict; the delta
    // slice names exactly the removed event.
    let remove = EventFilter::Principal(Principal::new("s9"));
    let response = client.counterfactual(value("item2"), HEAD, remove).unwrap();
    let verdict = match &response.outcome {
        AuditOutcome::Counterfactual(verdict) => verdict,
        other => panic!("expected a counterfactual verdict, got {:?}", other),
    };
    assert!(!verdict.original);
    assert!(verdict.counterfactual);
    assert!(verdict.flipped());
    assert_eq!(verdict.removed.len(), 1);
    assert_eq!(verdict.removed[0].event.to_string(), "s9?ε");

    // A filter that touches nothing: both verdicts equal, no delta.
    let remove = EventFilter::Principal(Principal::new("nobody"));
    let response = client.counterfactual(value("item1"), HEAD, remove).unwrap();
    match &response.outcome {
        AuditOutcome::Counterfactual(verdict) => {
            assert!(verdict.original && verdict.counterfactual);
            assert!(!verdict.flipped());
            assert!(verdict.removed.is_empty());
        }
        other => panic!("expected a counterfactual verdict, got {:?}", other),
    }

    // Diagnostics cross the wire typed, not stringly.
    let response = client.why(value("ghost"), HEAD).unwrap();
    assert_eq!(response.outcome, AuditOutcome::UnknownValue);
    let remove = EventFilter::Kind(Direction::Input);
    let response = client
        .counterfactual(value("item1"), "causal::q::heda", remove)
        .unwrap();
    match &response.outcome {
        AuditOutcome::UnknownPattern { nearest, .. } => {
            assert_eq!(nearest.as_deref(), Some(HEAD));
        }
        other => panic!("expected UnknownPattern, got {:?}", other),
    }

    drop(client);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Deep shared spine: the `memo_reused` counter must survive the v6 wire
/// — the filtered re-vet rides the original walk's memoized suffix
/// instead of re-walking the spine.
#[test]
fn memo_reuse_stats_surface_over_the_wire() {
    let dir = temp_dir("memo");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    let server = AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", config()).unwrap();
    let addr = server.local_addr();
    let mut client = AuditClient::connect(addr).unwrap();

    let empty = Provenance::empty;
    let mut events = vec![
        event("s0", Direction::Output, empty()),
        event("drop", Direction::Input, empty()),
    ];
    events.extend((0..48).map(|_| event("relay", Direction::Input, empty())));
    client
        .ingest_blocking(vec![record_with("deep", events)])
        .unwrap();
    client.flush().unwrap();
    assert!(matches!(
        client.load_pack(&causal_pack()).unwrap(),
        PackLoadOutcome::Loaded { version: 1, .. }
    ));

    let remove = EventFilter::Principal(Principal::new("drop"));
    let response = client.counterfactual(value("deep"), HEAD, remove).unwrap();
    match &response.outcome {
        AuditOutcome::Counterfactual(verdict) => {
            assert!(verdict.original && verdict.counterfactual);
            assert_eq!(verdict.removed.len(), 1);
        }
        other => panic!("expected a counterfactual verdict, got {:?}", other),
    }
    let RequestStats {
        memo_reused,
        dag_nodes_visited,
        ..
    } = response.stats;
    assert!(
        memo_reused >= 1,
        "memo reuse must cross the wire: {:?}",
        response.stats
    );
    assert!(
        dag_nodes_visited <= 48 + 2 + 4,
        "the filtered walk must not re-walk the shared suffix: {:?}",
        response.stats
    );

    drop(client);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// The wire differential harness: seeded workloads.
// ---------------------------------------------------------------------------

/// Deterministic splitmix-style generator, so the workload is seeded and
/// reproducible without pulling a proptest runner across two servers.
fn next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn seeded_workload(seed: u64) -> Vec<ProvenanceRecord> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(seed + 1);
    let principals = ["s0", "s1", "s2", "relay"];
    (0..24)
        .map(|_| {
            let value_pick = (next(&mut state) % 4) as usize;
            let spine_len = (next(&mut state) % 6) as usize;
            let events = (0..spine_len)
                .map(|_| {
                    let who = principals[(next(&mut state) % 4) as usize];
                    let direction = if next(&mut state).is_multiple_of(2) {
                        Direction::Output
                    } else {
                        Direction::Input
                    };
                    // A third of the events carry a one-hop channel
                    // history, grounding the ChannelVia filter.
                    let channel = if next(&mut state).is_multiple_of(3) {
                        let via = principals[(next(&mut state) % 4) as usize];
                        Provenance::single(Event::output(Principal::new(via), Provenance::empty()))
                    } else {
                        Provenance::empty()
                    };
                    event(who, direction, channel)
                })
                .collect();
            record_with(&format!("item{}", value_pick), events)
        })
        .collect()
}

fn seeded_filter(seed: u64) -> EventFilter {
    let mut state = seed.wrapping_mul(0xd1342543de82ef95).wrapping_add(7);
    let principals = ["s0", "s1", "s2", "relay"];
    match next(&mut state) % 3 {
        0 => EventFilter::Principal(Principal::new(principals[(next(&mut state) % 4) as usize])),
        1 => EventFilter::Kind(if next(&mut state).is_multiple_of(2) {
            Direction::Output
        } else {
            Direction::Input
        }),
        _ => EventFilter::ChannelVia(Principal::new(principals[(next(&mut state) % 4) as usize])),
    }
}

/// The oracle's definition of "literally filtered": keep every record,
/// drop matching top-level events, preserve order.
fn filtered(record: &ProvenanceRecord, filter: &EventFilter) -> ProvenanceRecord {
    let mut out = record.clone();
    out.provenance = Provenance::from_events(
        record
            .provenance
            .to_vec()
            .into_iter()
            .filter(|event| !filter.removes(event)),
    );
    out
}

fn vet_verdict(outcome: &AuditOutcome) -> Option<(bool, u64)> {
    match outcome {
        AuditOutcome::Vetted { verdict, sequence } => Some((*verdict, *sequence)),
        AuditOutcome::UnknownValue => None,
        other => panic!("expected a vet verdict, got {:?}", other),
    }
}

#[test]
fn wire_counterfactuals_match_a_filtered_server_across_seeds() {
    for seed in [1u64, 2, 3] {
        let records = seeded_workload(seed);
        let filter = seeded_filter(seed);

        let live_dir = temp_dir(&format!("diff-live-{}", seed));
        let live_engine = Arc::new(AuditEngine::open(&live_dir).unwrap());
        let live_server =
            AuditServer::bind(Arc::clone(&live_engine), "127.0.0.1:0", config()).unwrap();
        let mut live = AuditClient::connect(live_server.local_addr()).unwrap();
        live.ingest_blocking(records.clone()).unwrap();
        live.flush().unwrap();
        assert!(matches!(
            live.load_pack(&causal_pack()).unwrap(),
            PackLoadOutcome::Loaded { .. }
        ));

        let oracle_dir = temp_dir(&format!("diff-oracle-{}", seed));
        let oracle_engine = Arc::new(AuditEngine::open(&oracle_dir).unwrap());
        let oracle_server =
            AuditServer::bind(Arc::clone(&oracle_engine), "127.0.0.1:0", config()).unwrap();
        let mut oracle = AuditClient::connect(oracle_server.local_addr()).unwrap();
        oracle
            .ingest_blocking(records.iter().map(|r| filtered(r, &filter)).collect())
            .unwrap();
        oracle.flush().unwrap();
        assert!(matches!(
            oracle.load_pack(&causal_pack()).unwrap(),
            PackLoadOutcome::Loaded { .. }
        ));

        for v in 0..4 {
            for policy in POLICIES {
                let live_response = live
                    .counterfactual(value(&format!("item{}", v)), *policy, filter.clone())
                    .unwrap();
                let oracle_response = oracle
                    .request(&AuditRequest::VetValue {
                        value: value(&format!("item{}", v)),
                        pattern: (*policy).to_string(),
                    })
                    .unwrap();
                assert_eq!(
                    live_response.watermark, oracle_response.watermark,
                    "seed {}: watermarks diverge",
                    seed
                );
                match &live_response.outcome {
                    AuditOutcome::UnknownValue => {
                        assert_eq!(vet_verdict(&oracle_response.outcome), None);
                    }
                    AuditOutcome::Counterfactual(verdict) => {
                        let (oracle_verdict, oracle_seq) = vet_verdict(&oracle_response.outcome)
                            .expect("records survive filtering");
                        assert_eq!(
                            verdict.counterfactual, oracle_verdict,
                            "seed {} {} item{}: live counterfactual \
                             diverges from the literally filtered server",
                            seed, policy, v
                        );
                        assert_eq!(verdict.sequence, oracle_seq);
                        for removed in &verdict.removed {
                            assert!(filter.removes(&removed.event));
                        }
                    }
                    other => panic!("expected a counterfactual verdict, got {:?}", other),
                }
            }
        }

        drop(live);
        drop(oracle);
        live_server.shutdown().unwrap();
        oracle_server.shutdown().unwrap();
        std::fs::remove_dir_all(&live_dir).ok();
        std::fs::remove_dir_all(&oracle_dir).ok();
    }
}

// ---------------------------------------------------------------------------
// The plaintext endpoints: /why and the /policies?package= filter.
// ---------------------------------------------------------------------------

#[test]
fn why_endpoint_and_policies_package_filter() {
    let dir = temp_dir("http");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    let server = AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", config()).unwrap();
    let addr = server.local_addr();
    let mut client = AuditClient::connect(addr).unwrap();

    let empty = Provenance::empty;
    client
        .ingest_blocking(vec![
            record_with("item1", vec![event("s0", Direction::Output, empty())]),
            record_with(
                "item2",
                vec![
                    event("s9", Direction::Input, empty()),
                    event("s0", Direction::Output, empty()),
                ],
            ),
        ])
        .unwrap();
    client.flush().unwrap();
    assert!(matches!(
        client.load_pack(&causal_pack()).unwrap(),
        PackLoadOutcome::Loaded { version: 1, .. }
    ));

    // A passing slice renders with the verdict and the κ-tagged
    // events; a failing one marks the blocking frontier.
    let ok = http_get(addr, &format!("/why?value=item1&policy={}", HEAD));
    assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{}", ok);
    assert!(
        ok.contains("why: verdict=pass sequence=1 events=1"),
        "{}",
        ok
    );
    assert!(ok.contains("s0!ε"), "{}", ok);
    let fail = http_get(addr, &format!("/why?value=item2&policy={}", HEAD));
    assert!(fail.starts_with("HTTP/1.1 200 OK\r\n"), "{}", fail);
    assert!(fail.contains("why: verdict=fail"), "{}", fail);
    assert!(fail.contains("every candidate trail dies here"), "{}", fail);

    // Missing parameters are 400s; unknown names are 404s with the
    // engine's diagnostics (including the nearest-policy hint).
    assert!(http_get(addr, "/why").starts_with("HTTP/1.1 400 Bad Request\r\n"));
    assert!(http_get(addr, "/why?value=item1").starts_with("HTTP/1.1 400 Bad Request\r\n"));
    let unknown = http_get(addr, &format!("/why?value=ghost&policy={}", HEAD));
    assert!(
        unknown.starts_with("HTTP/1.1 404 Not Found\r\n"),
        "{}",
        unknown
    );
    assert!(unknown.contains("unknown value ghost"), "{}", unknown);
    let typo = http_get(addr, "/why?value=item1&policy=causal::q::heda");
    assert!(typo.starts_with("HTTP/1.1 404 Not Found\r\n"), "{}", typo);
    assert!(typo.contains(&format!("nearest: {}", HEAD)), "{}", typo);

    // /policies?package= filters; an unknown package 404s instead of
    // rendering an empty (misleading) listing.
    let all = http_get(addr, "/policies");
    assert!(all.contains("# pack version 1 (3 policies)"), "{}", all);
    let filtered = http_get(addr, "/policies?package=causal::q");
    assert!(filtered.starts_with("HTTP/1.1 200 OK\r\n"), "{}", filtered);
    assert!(
        filtered.contains("# pack version 1 (3 policies)"),
        "{}",
        filtered
    );
    assert!(filtered.contains(HEAD), "{}", filtered);
    let missing = http_get(addr, "/policies?package=nope");
    assert!(
        missing.starts_with("HTTP/1.1 404 Not Found\r\n"),
        "{}",
        missing
    );
    assert!(missing.contains("unknown package nope"), "{}", missing);

    // The shared query-string parser keeps /trace?min_us= working.
    let traces = http_get(addr, "/trace?min_us=0");
    assert!(traces.starts_with("HTTP/1.1 200 OK\r\n"), "{}", traces);

    drop(client);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Channel-chained histories: every client-reachable path is O(DAG).
// ---------------------------------------------------------------------------

/// A history relayed `hops` times by `relay`, each hop's send and receive
/// on a channel carrying the whole history so far: 2 · hops + 1 DAG
/// nodes, while the logical tree grows ×3 per hop.
fn channel_chained(hops: usize) -> Provenance {
    let mut provenance = Provenance::single(event("s1", Direction::Output, Provenance::empty()));
    for _ in 0..hops {
        provenance = provenance
            .prepend(event("relay", Direction::Output, provenance.clone()))
            .prepend(event("relay", Direction::Input, provenance.clone()));
    }
    provenance
}

#[test]
fn a_forty_hop_channel_chained_history_is_answered_in_dag_sized_work() {
    let dir = temp_dir("chained");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    let server = AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", config()).unwrap();
    let addr = server.local_addr();
    let mut client = AuditClient::connect(addr).unwrap();

    let provenance = channel_chained(40);
    let dag_nodes = provenance.dag_size();
    assert_eq!(dag_nodes, 81);
    let record = ProvenanceRecord::new(
        0,
        "writer",
        Operation::Send,
        "m",
        value("chained"),
        provenance.clone(),
    );
    assert!(piprov_store::codec::encode_body(&record).len() < 1_500);
    client.ingest_blocking(vec![record]).unwrap();
    client.flush().unwrap();
    assert!(matches!(
        client.load_pack(&causal_pack()).unwrap(),
        PackLoadOutcome::Loaded { version: 1, .. }
    ));

    // `deep` passes (the oldest event is s1's send), so the slice holds
    // the whole spine, every event's channel carrying its history.
    let requests = [
        AuditRequest::Why {
            value: value("chained"),
            pattern: "causal::q::deep".into(),
        },
        AuditRequest::Counterfactual {
            value: value("chained"),
            pattern: "causal::q::deep".into(),
            remove: EventFilter::ChannelVia(Principal::new("relay")),
        },
        AuditRequest::AuditTrail {
            value: value("chained"),
        },
        AuditRequest::WhoTouched {
            principal: Principal::new("relay"),
        },
    ];
    let answers: Vec<_> = requests
        .iter()
        .map(|request| {
            let wire = client.request(request).unwrap();
            let local = server.engine().handle(request);
            assert_eq!(wire.outcome, local.outcome, "{:?}", request);
            assert_eq!(wire.watermark, local.watermark, "{:?}", request);
            wire
        })
        .collect();

    let events = match &answers[0].outcome {
        AuditOutcome::Why(slice) => {
            assert!(slice.verdict);
            slice.events.len()
        }
        other => panic!("expected a why slice, got {:?}", other),
    };
    assert_eq!(events, provenance.len());
    let why = piprov_serve::WireResponse::Audit(answers[0].clone());
    let encoded = piprov_serve::codec::encode_response(&why).len();
    assert!(
        encoded <= 64 * (dag_nodes + events),
        "why response of {} bytes for {} DAG nodes and {} events",
        encoded,
        dag_nodes,
        events
    );
    match &answers[1].outcome {
        // Only the origin and the first hop's two events travelled on a
        // channel relay had not touched.
        AuditOutcome::Counterfactual(verdict) => assert_eq!(verdict.removed.len(), events - 3),
        other => panic!("expected a counterfactual verdict, got {:?}", other),
    }

    let page = http_get(addr, "/why?value=chained&policy=causal::q::deep");
    assert!(page.starts_with("HTTP/1.1 200 OK\r\n"), "{}", page);
    let body = &page[page.find("\r\n\r\n").expect("a header terminator") + 4..];
    assert!(
        body.len() <= 64 * events,
        "/why body of {} bytes for {} events",
        body.len(),
        events
    );

    drop(client);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
