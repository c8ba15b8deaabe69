//! Connection-scaling smoke test for the event-loop server: one
//! process holds hundreds of idle connections while an active client
//! ingests and vets through the same server, then scrapes `/metrics`,
//! `/healthz` and `/trace` over plain HTTP on the framed port.
//!
//! Run with: `cargo run --release --example serve_scale`
//! (`PIPROV_SCALE_CONNS` overrides the idle-connection target, default
//! 300).  Every claim is printed on its own line so CI can grep it; the
//! process exits non-zero if any step fails.
//!
//! This is the in-process cousin of the `serve_server`/`serve_client`
//! pair: instead of proving the protocol across processes, it proves the
//! event loop's reason to exist — idle connections cost a registered fd,
//! not a thread — at a scale no fixed worker pool could hold.

use piprov::audit::AuditConfig;
use piprov::prelude::*;
use piprov::store::{Operation, ProvenanceRecord, ProvenanceStore};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const INGESTS: u64 = 64;

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

#[cfg(not(target_os = "linux"))]
fn main() {
    // The fd-limit probe (`max_open_files`) is Linux-only, and the
    // 300-connection target needs ~750 fds, beyond macOS's default limit
    // of 256.
    println!("serve_scale: skipped (the fd-limit probe is Linux-only)");
}

#[cfg(target_os = "linux")]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let target: usize = std::env::var("PIPROV_SCALE_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300);
    // Each loopback connection costs two fds in this one process (client
    // end + server end); leave slack for the store, epoll, and stdio.
    let held_target = piprov::serve::poll::max_open_files()
        .map(|limit| target.min((limit as usize).saturating_sub(128) / 2))
        .unwrap_or(target);

    let dir = std::env::temp_dir().join(format!("piprov-serve-scale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ProvenanceStore::open(&dir)?;
    let engine = Arc::new(AuditEngine::with_config(
        store,
        AuditConfig { memo_bound: 4096 },
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
    let server = AuditServer::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    )?;
    let addr = server.local_addr();
    println!("serve_scale: event loop on {}", addr);

    // Park the idle herd first, so the active traffic below runs with
    // the full population registered in the event loop.
    let idle: Vec<TcpStream> = (0..held_target)
        .map(|_| TcpStream::connect(addr))
        .collect::<Result<_, _>>()?;
    println!("idle connections held: {}", idle.len());

    // An active client works through the parked herd unimpeded.
    let mut client = AuditClient::connect(addr)?;
    for i in 0..INGESTS {
        client.ingest_blocking(vec![record(i)])?;
    }
    client.flush()?;
    println!("ingested {} records through the active connection", INGESTS);
    let mut passed = 0;
    for i in 0..INGESTS {
        let response = client.request(&AuditRequest::VetValue {
            value: Value::Channel(Channel::new(format!("item{}", i))),
            pattern: "from-supplier".into(),
        })?;
        if matches!(response.outcome, AuditOutcome::Vetted { verdict: true, .. }) {
            passed += 1;
        }
    }
    println!("vets: {}/{} pass", passed, INGESTS);
    assert_eq!(
        passed, INGESTS,
        "every vetted item originated at a supplier"
    );

    // The parked connections are live, not leaked: a sample of them can
    // still speak the framed protocol.
    let step = (idle.len() / 8).max(1);
    for stream in idle.iter().step_by(step) {
        let mut probe = AuditClient::from_stream(stream.try_clone()?)?;
        assert_eq!(probe.stats()?.ingested, INGESTS);
    }
    println!("sampled idle connections still answer: ok");

    // A plaintext scrape on the framed port — what `curl` would do.
    let mut scrape = TcpStream::connect(addr)?;
    scrape.set_read_timeout(Some(Duration::from_secs(10)))?;
    write!(scrape, "GET /metrics HTTP/1.1\r\nHost: piprov\r\n\r\n")?;
    let mut response = String::new();
    scrape.read_to_string(&mut response)?;
    let status = response.lines().next().unwrap_or("").to_string();
    println!("metrics scrape: {}", status);
    assert!(
        status.starts_with("HTTP/1.1 200 OK"),
        "scrape failed: {}",
        status
    );
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    validate_exposition(&body)?;
    println!("exposition: {} bytes, lint-clean", body.len());
    for line in body.lines() {
        if line.starts_with("piprov_ingested_total")
            || line.starts_with("piprov_vets_passed_total")
            || line.starts_with("piprov_stage_seconds_count")
        {
            println!("{}", line);
        }
    }

    // Liveness and tracing over the same port.  The vets above ran with
    // the client's default trace propagation, so `/trace` tells their
    // per-stage story; the span-breakdown line below is what CI greps.
    let mut health = TcpStream::connect(addr)?;
    health.set_read_timeout(Some(Duration::from_secs(10)))?;
    write!(health, "GET /healthz HTTP/1.1\r\nHost: piprov\r\n\r\n")?;
    let mut response = String::new();
    health.read_to_string(&mut response)?;
    assert!(
        response.starts_with("HTTP/1.1 200 OK"),
        "healthz failed: {}",
        response.lines().next().unwrap_or("")
    );
    println!("healthz: ok");

    let mut traces = TcpStream::connect(addr)?;
    traces.set_read_timeout(Some(Duration::from_secs(10)))?;
    write!(traces, "GET /trace HTTP/1.1\r\nHost: piprov\r\n\r\n")?;
    let mut response = String::new();
    traces.read_to_string(&mut response)?;
    let status = response.lines().next().unwrap_or("").to_string();
    println!("trace scrape: {}", status);
    assert!(
        status.starts_with("HTTP/1.1 200 OK"),
        "trace scrape failed: {}",
        status
    );
    let trace_body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    validate_trace_text(&trace_body)?;
    println!("traces: {} bytes, lint-clean", trace_body.len());
    // The stages of the first vetted request, in pipeline order.
    let mut stages: Vec<&str> = Vec::new();
    let mut in_vet = false;
    for line in trace_body.lines() {
        if let Some(span) = line.strip_prefix("  ") {
            if in_vet {
                stages.push(span.split(' ').next().unwrap_or_default());
            }
        } else if in_vet {
            break;
        } else {
            in_vet = line.starts_with("trace ") && line.contains("kind=vet");
        }
    }
    println!("span breakdown: {}", stages.join(" "));
    assert_eq!(
        stages,
        ["client_encode", "decode", "handle", "write"],
        "a traced vet stamps every stage of its pipeline"
    );

    drop(client);
    drop(idle);
    server.shutdown()?;
    std::fs::remove_dir_all(&dir).ok();
    println!("serve_scale: verdict: pass");
    Ok(())
}
