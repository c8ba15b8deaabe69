//! A full ingest queue answers an ingest frame `Busy` before decoding it,
//! so a refused batch interns nothing.
//!
//! This file holds one test so that the process-global interner's
//! counters move only for this server.

use piprov_audit::AuditEngine;
use piprov_core::name::{Channel, Principal};
use piprov_core::provenance::{interner_stats, Event, Provenance};
use piprov_core::value::Value;
use piprov_serve::codec::{decode_response, encode_request};
use piprov_serve::wire::{read_frame, write_frame};
use piprov_serve::{
    AuditClient, AuditServer, IngestOutcome, ServeConfig, WireLimits, WireRequest, WireResponse,
};
use piprov_store::{Operation, ProvenanceRecord};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// One record of `value` whose history is `events` distinct relay events.
fn record(value: usize, events: usize) -> ProvenanceRecord {
    let history = Provenance::from_events(
        (0..events)
            .map(|e| {
                Event::output(
                    Principal::new(format!("p{}-{}", value, e)),
                    Provenance::empty(),
                )
            })
            .collect::<Vec<_>>(),
    );
    ProvenanceRecord::new(
        value as u64,
        "writer",
        Operation::Send,
        "m",
        Value::Channel(Channel::new(format!("v{}", value))),
        history,
    )
}

#[test]
fn a_busy_answer_decodes_and_interns_nothing() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("piprov-serve-busy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
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

    // One accepted batch fills the paused one-batch queue.
    server.ingest_queue().set_paused(true);
    let mut client = AuditClient::connect(server.local_addr()).unwrap();
    assert!(matches!(
        client.ingest_batch(vec![record(0, 100)]).unwrap(),
        IngestOutcome::Acked { accepted: 1, .. }
    ));

    // 50 one-record frames with distinct 100-event histories, encoded
    // before the baseline: building them interns on this side.
    let mut frames = Vec::new();
    for value in 1..=50 {
        let request = WireRequest::IngestBatch(vec![record(value, 100)]);
        write_frame(&mut frames, &encode_request(&request)).unwrap();
    }
    let before = interner_stats();
    let busy_before = engine.stats().busy_rejections;

    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    (&stream).write_all(&frames).unwrap();
    let limits = WireLimits::default();
    let mut reader = BufReader::new(stream);
    for slot in 0..50 {
        let frame = read_frame(&mut reader, limits.max_frame_len)
            .unwrap()
            .unwrap_or_else(|| panic!("EOF before slot {}", slot));
        let response = decode_response(frame, &limits).unwrap();
        assert!(
            matches!(response, WireResponse::Busy { queue_depth: 1 }),
            "slot {} answered {:?}",
            slot,
            response
        );
    }

    assert_eq!(engine.stats().busy_rejections - busy_before, 50);
    let after = interner_stats();
    assert_eq!(
        after.hits + after.misses,
        before.hits + before.misses,
        "a refused frame made intern calls"
    );
    assert_eq!(engine.stats().queue_depth, 1);

    server.ingest_queue().set_paused(false);
    drop(client);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
