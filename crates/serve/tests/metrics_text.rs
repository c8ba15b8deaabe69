//! The wire `Metrics` answer and the `GET /metrics` body are one render:
//! at the same engine state they are equal byte for byte, with exemplars
//! off and on.
//!
//! This binary holds one test.  Both texts carry the interner's counters,
//! which are process-global, so no other test may intern between the two
//! reads.

use piprov_audit::{validate_exposition, AuditEngine, AuditRequest, TraceConfig};
use piprov_core::name::{Channel, Principal};
use piprov_core::provenance::{Event, Provenance};
use piprov_core::value::Value;
use piprov_patterns::{GroupExpr, Pattern};
use piprov_serve::{AuditClient, AuditServer, ServeConfig};
use piprov_store::{Operation, ProvenanceRecord};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// The samples two reads of one engine state may still disagree on: the
/// clock moves the uptime, and the scrape's own connection moves the
/// connection-lifecycle counters.
const MOVING: [&str; 4] = [
    "piprov_uptime_seconds",
    "piprov_connections_accepted_total",
    "piprov_connections_closed_total",
    "piprov_open_connections",
];

/// `text` with the value of each [`MOVING`] sample replaced by `_`.
fn pin_moving(text: &str) -> String {
    text.split_inclusive('\n')
        .map(|line| match line.split_once(' ') {
            Some((name, _)) if MOVING.contains(&name) => format!("{} _\n", name),
            _ => line.to_string(),
        })
        .collect()
}

/// The body of a raw-TCP `GET /metrics`.
fn scrape(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: piprov\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").unwrap();
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{}", head);
    body.to_string()
}

fn record(i: u64, who: &str) -> ProvenanceRecord {
    let k = Provenance::single(Event::output(Principal::new(who), Provenance::empty()));
    ProvenanceRecord::new(
        i,
        who,
        Operation::Send,
        "m",
        Value::Channel(Channel::new(format!("item{}", i))),
        k,
    )
}

#[test]
fn the_wire_answer_is_the_scrape_body_with_exemplars_off_and_on() {
    for exemplars in [false, true] {
        let mut dir = std::env::temp_dir();
        dir.push(format!(
            "piprov-serve-metrics-text-{}-{}",
            std::process::id(),
            exemplars
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Arc::new(AuditEngine::open(&dir).unwrap());
        engine.register_pattern("from-s0", Pattern::originated_at(GroupExpr::single("s0")));
        // Head sampling and the slow path are off: the only exemplars are
        // the ones the vets' client trace contexts leave.
        let config = ServeConfig {
            trace: TraceConfig {
                sample_every: 0,
                slow_threshold: Duration::ZERO,
                exemplars,
                ..TraceConfig::default()
            },
            ..ServeConfig::default()
        };
        let server = AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", config).unwrap();
        let mut client = AuditClient::connect(server.local_addr()).unwrap();
        let records = (0..4).map(|i| record(i, &format!("s{}", i % 2))).collect();
        client.ingest_blocking(records).unwrap();
        client.flush().unwrap();
        for i in 0..4 {
            client
                .request(&AuditRequest::VetValue {
                    value: Value::Channel(Channel::new(format!("item{}", i))),
                    pattern: "from-s0".into(),
                })
                .unwrap();
        }

        // The scrape first: a `GET` records no stage.  The wire read
        // records its own stages only once its answer is written, after
        // its text was rendered, so both reads render one stage state.
        let scraped = scrape(server.local_addr());
        let wire = client.metrics().unwrap();
        validate_exposition(&wire).unwrap();
        assert_eq!(pin_moving(&wire), pin_moving(&scraped));
        assert_eq!(
            wire.contains(" # {trace_id=\""),
            exemplars,
            "exemplars render only when configured"
        );
        assert!(wire.contains("piprov_policy_vets_passed_total{policy=\"from-s0\"} 2\n"));
        assert!(!wire.contains("piprov_stage_seconds_count{stage=\"handle\"} 0\n"));

        drop(client);
        server.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
