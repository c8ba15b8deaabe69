//! E16 — connection scaling of the event-loop server.
//!
//! The question the event loop exists to answer: what does a *mostly
//! idle* population of connections cost, and does holding it cost the
//! active minority anything?
//!
//! The scaling table holds 64/1k/10k total connections (the active 64
//! issue vets; the rest sit idle, costing the event loop one registered
//! fd each) and prints aggregate vets/s plus hand-rolled p50/p99
//! per-request latency.  The clock starts once every connection is
//! connected and accepted, so it times vets alone.  Tiers whose
//! two-fds-per-connection cost overflows `RLIMIT_NOFILE` are scaled down
//! or skipped with a printed caveat — degrade, don't die.  The
//! one-connection round trip is perfbench's vet_wire `latency_p50_us`.

use piprov_audit::{AuditConfig, AuditEngine, AuditOutcome, AuditRequest};
use piprov_core::name::{Channel, Principal};
use piprov_core::provenance::{Event, Provenance};
use piprov_core::value::Value;
use piprov_patterns::{GroupExpr, Pattern};
use piprov_serve::codec::{decode_response, encode_request};
use piprov_serve::wire::{read_frame, write_frame};
use piprov_serve::{AuditServer, ServeConfig, WireLimits, WireRequest, WireResponse};
use piprov_store::{Operation, ProvenanceRecord, ProvenanceStore};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

const ITEMS: u64 = 256;
const ACTIVE_CONNS: usize = 64;
const VETS_PER_CONN: usize = 40;
/// Requests in flight per active connection: clients pipeline in waves,
/// which is what a real auditor batching vet queries over one socket
/// does, and what lets the server amortize per-frame overhead.
const WAVE: usize = 8;
/// Load-generator threads.  The active connections are multiplexed over
/// this many drivers so the client side costs the same for every row —
/// otherwise, on small machines, a 64-thread client herd measures its
/// own scheduler contention instead of the server.
const DRIVERS: usize = 4;

fn temp_dir(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("piprov-e16-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn record(i: u64) -> ProvenanceRecord {
    let origin = Principal::new(format!("supplier{}", i % 4));
    let k = Provenance::single(Event::output(origin.clone(), Provenance::empty()));
    ProvenanceRecord::new(
        i,
        origin,
        Operation::Send,
        "m",
        Value::Channel(Channel::new(format!("item{}", i))),
        k,
    )
}

fn vet_request(i: u64) -> AuditRequest {
    AuditRequest::VetValue {
        value: Value::Channel(Channel::new(format!("item{}", i % ITEMS))),
        pattern: "from-supplier".into(),
    }
}

fn serve(dir: &PathBuf) -> AuditServer {
    let store = ProvenanceStore::open(dir).expect("open store");
    let engine = Arc::new(AuditEngine::with_config(
        store,
        AuditConfig { memo_bound: 8192 },
    ));
    engine.register_pattern(
        "from-supplier",
        Pattern::originated_at(GroupExpr::any_of([
            "supplier0",
            "supplier1",
            "supplier2",
            "supplier3",
        ])),
    );
    engine
        .ingest_batch((0..ITEMS).map(record).collect())
        .expect("seed ingest");
    AuditServer::bind(engine, "127.0.0.1:0", ServeConfig::default()).expect("bind")
}

#[cfg(target_os = "linux")]
fn fd_limit() -> Option<u64> {
    piprov_serve::poll::max_open_files()
}

#[cfg(not(target_os = "linux"))]
fn fd_limit() -> Option<u64> {
    None
}

fn percentile(sorted_ns: &[u64], p: usize) -> Duration {
    if sorted_ns.is_empty() {
        return Duration::ZERO;
    }
    let index = (sorted_ns.len() * p / 100).min(sorted_ns.len() - 1);
    Duration::from_nanos(sorted_ns[index])
}

struct TierResult {
    held: usize,
    throughput: f64,
    p50: Duration,
    p99: Duration,
}

/// Runs one scaling tier: `total` connections held open, the first
/// [`ACTIVE_CONNS`] of them vetting, the rest idle.  Returns `None` (with
/// a printed caveat) when the fd budget cannot carry the tier at all.
fn run_tier(total: usize) -> Option<TierResult> {
    let active = ACTIVE_CONNS;
    // Loopback doubles the bill: every connection is a client fd and a
    // server fd in this one process, plus slack for the store and pipes.
    let held = match fd_limit() {
        Some(limit) => {
            let capacity = (limit as usize).saturating_sub(128) / 2;
            if capacity < total && capacity < (total * 3) / 4 {
                println!(
                    "| {} | skipped: fd limit {} supports only {} connections |",
                    total, limit, capacity
                );
                return None;
            }
            total.min(capacity)
        }
        None => total,
    };
    if held < total {
        println!(
            "(fd-limit caveat: {} tier holds {} of {} requested connections)",
            total, held, total
        );
    }
    let dir = temp_dir(&held.to_string());
    let server = serve(&dir);
    let addr = server.local_addr();
    let idle: Vec<TcpStream> = (active..held)
        .map(|_| TcpStream::connect(addr).expect("idle connect"))
        .collect();
    let per_driver = active / DRIVERS;
    // Every driver connects first; the clock starts once all of them and
    // this thread have met at the barrier, so a slow connect is not timed
    // as vets.
    let connected = Arc::new(Barrier::new(DRIVERS + 1));
    let drivers: Vec<_> = (0..DRIVERS)
        .map(|d| {
            let connected = Arc::clone(&connected);
            thread::spawn(move || {
                let limits = WireLimits::default();
                let conns = (0..per_driver)
                    .map(|_| {
                        let stream = TcpStream::connect(addr)?;
                        stream.set_nodelay(true).ok();
                        let reader = BufReader::new(stream.try_clone()?);
                        Ok((stream, reader))
                    })
                    .collect::<std::io::Result<Vec<_>>>();
                // Meet the others before any panic, so a failed connect
                // cannot leave them waiting.
                connected.wait();
                let mut conns = conns.expect("active connect");
                let mut latencies = Vec::with_capacity(per_driver * VETS_PER_CONN);
                for wave in 0..VETS_PER_CONN / WAVE {
                    // Phase 1: a wave of pipelined requests to every
                    // connection this driver owns — WAVE × per_driver
                    // requests in flight before any response is read.
                    let sent_at: Vec<Instant> = conns
                        .iter_mut()
                        .enumerate()
                        .map(|(c, (stream, _))| {
                            let mut frames = Vec::new();
                            for q in 0..WAVE {
                                let item = (wave * WAVE + q) * active + d * per_driver + c;
                                write_frame(
                                    &mut frames,
                                    &encode_request(&WireRequest::Audit(vet_request(item as u64))),
                                )
                                .expect("encode");
                            }
                            stream.write_all(&frames).expect("send wave");
                            Instant::now()
                        })
                        .collect();
                    // Phase 2: collect each connection's responses.
                    for (c, (_, reader)) in conns.iter_mut().enumerate() {
                        for _ in 0..WAVE {
                            let frame = read_frame(reader, limits.max_frame_len)
                                .expect("read")
                                .expect("response before close");
                            let response = decode_response(frame, &limits).expect("decode");
                            match response {
                                WireResponse::Audit(audit) => assert!(matches!(
                                    audit.outcome,
                                    AuditOutcome::Vetted { verdict: true, .. }
                                )),
                                other => panic!("unexpected response {:?}", other),
                            }
                        }
                        let wave_ns = sent_at[c].elapsed().as_nanos() as u64;
                        // Each request in the wave waited the whole wave.
                        latencies.extend(std::iter::repeat_n(wave_ns, WAVE));
                    }
                }
                latencies
            })
        })
        .collect();
    // The drivers wait at the barrier only once they connected, and the
    // server must also have accepted every connection: an accept still
    // pending would be timed as the first wave's vets.
    let registry = server.engine().metrics_registry();
    let deadline = Instant::now() + Duration::from_secs(10);
    while registry.connections_accepted() < held as u64 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(1));
    }
    connected.wait();
    let started = Instant::now();
    let mut latencies: Vec<u64> = drivers
        .into_iter()
        .flat_map(|h| h.join().expect("driver"))
        .collect();
    let elapsed = started.elapsed();
    latencies.sort_unstable();
    drop(idle);
    server.shutdown().expect("shutdown");
    std::fs::remove_dir_all(&dir).ok();
    Some(TierResult {
        held,
        throughput: latencies.len() as f64 / elapsed.as_secs_f64(),
        p50: percentile(&latencies, 50),
        p99: percentile(&latencies, 99),
    })
}

fn main() {
    println!(
        "\ne16_connscale — {} active connections × {} vets each (pipelined in waves of {}), remainder idle",
        ACTIVE_CONNS, VETS_PER_CONN, WAVE
    );
    println!("| connections held | active | vets/s | p50 | p99 |");
    println!("|---|---|---|---|---|");
    for total in [64usize, 1_000, 10_000] {
        if let Some(tier) = run_tier(total) {
            println!(
                "| {} | {} | {:.0} | {:.2?} | {:.2?} |",
                tier.held, ACTIVE_CONNS, tier.throughput, tier.p50, tier.p99
            );
        }
    }
}
