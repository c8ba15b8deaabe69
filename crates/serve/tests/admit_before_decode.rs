//! The event loop acks an ingest frame once it is queued, before anything
//! in it is decoded: the ingest queue's drain worker decodes it later.
//! Before admission moved to the loop, a worker decoded every frame,
//! interning its records, before it was queued.
//!
//! This file holds one test so that the process-global interner's
//! counters move only for this server.

use piprov_audit::AuditEngine;
use piprov_core::name::{Channel, Principal};
use piprov_core::provenance::{interner_stats, Event, Provenance};
use piprov_core::value::Value;
use piprov_serve::codec::{decode_response, encode_request};
use piprov_serve::wire::{read_frame, write_frame};
use piprov_serve::{AuditClient, AuditServer, ServeConfig, WireLimits, WireRequest, WireResponse};
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
fn admitted_ingest_frames_are_acked_before_anything_is_interned() {
    const FRAMES: usize = 20;
    let mut dir = std::env::temp_dir();
    dir.push(format!("piprov-serve-admit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    let server =
        AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", ServeConfig::default()).unwrap();
    server.ingest_queue().set_paused(true);

    // One-record frames with distinct 100-event histories, encoded before
    // the baseline: building them interns on this side.
    let mut frames = Vec::new();
    for value in 0..FRAMES {
        let request = WireRequest::IngestBatch(vec![record(value, 100)]);
        write_frame(&mut frames, &encode_request(&request)).unwrap();
    }
    let before = interner_stats();

    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    (&stream).write_all(&frames).unwrap();
    let limits = WireLimits::default();
    let mut reader = BufReader::new(stream);
    for slot in 0..FRAMES {
        let frame = read_frame(&mut reader, limits.max_frame_len)
            .unwrap()
            .unwrap_or_else(|| panic!("EOF before slot {}", slot));
        let response = decode_response(frame, &limits).unwrap();
        assert!(
            matches!(response, WireResponse::IngestAck { accepted: 1, queue_depth } if queue_depth as usize == slot + 1),
            "slot {} answered {:?}",
            slot,
            response
        );
    }
    let after = interner_stats();
    assert_eq!(
        after.hits + after.misses,
        before.hits + before.misses,
        "an admitted frame made intern calls before it was applied"
    );
    assert_eq!(engine.stats().queue_depth as usize, FRAMES);

    // Resumed, the drain worker decodes and applies every frame.
    server.ingest_queue().set_paused(false);
    let mut client = AuditClient::connect(server.local_addr()).unwrap();
    assert_eq!(client.flush().unwrap().ingested, FRAMES as u64);
    drop((reader, client));
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
