//! A peer that half-closes its connection while one of its requests is
//! still being answered must not cost the server CPU.  Readiness is
//! level-triggered, so a socket whose EOF has been read stays readable
//! for as long as it is registered for reads; the loop has to stop
//! asking.
//!
//! This file holds one test so that the process's CPU time, read from
//! `/proc/self/stat`, is the server's alone.

#![cfg(target_os = "linux")]

use piprov_audit::AuditEngine;
use piprov_core::name::{Channel, Principal};
use piprov_core::provenance::{Event, Provenance};
use piprov_core::value::Value;
use piprov_serve::codec::{decode_response, encode_request};
use piprov_serve::wire::{read_frame, write_frame};
use piprov_serve::{AuditServer, ServeConfig, WireLimits, WireRequest, WireResponse};
use piprov_store::{Operation, ProvenanceRecord};
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// `utime + stime` of this process, in clock ticks.  Linux reports them
/// in `USER_HZ` units, which is 100 per second on every architecture it
/// exports to user space.
const TICKS_PER_SECOND: u64 = 100;

fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
    // The command name may hold spaces; every field after it is numeric.
    let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 2..].split(' ').collect();
    // Fields 14 and 15 of the file (utime, stime) are 11 and 12 here.
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

#[test]
fn a_half_closed_peer_with_a_request_in_flight_costs_no_cpu() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("piprov-serve-halfclose-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    let server =
        AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", ServeConfig::default()).unwrap();

    // A batch the paused queue does not apply, then a `Flush` behind it:
    // the flush's ticket waits until the queue resumes, and the peer
    // shuts down its write half while it waits.
    server.ingest_queue().set_paused(true);
    let k = Provenance::single(Event::output(Principal::new("s0"), Provenance::empty()));
    let record = ProvenanceRecord::new(
        0,
        "s0",
        Operation::Send,
        "m",
        Value::Channel(Channel::new("item0")),
        k,
    );
    let mut frames = Vec::new();
    write_frame(
        &mut frames,
        &encode_request(&WireRequest::IngestBatch(vec![record])),
    )
    .unwrap();
    write_frame(&mut frames, &encode_request(&WireRequest::Flush)).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&frames).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();

    // Let the loop read the frames and the EOF, then measure a window
    // while the flush waits.
    std::thread::sleep(Duration::from_millis(200));
    let window = Duration::from_secs(1);
    let before = cpu_ticks();
    std::thread::sleep(window);
    let used = cpu_ticks() - before;
    let window_ticks = window.as_millis() as u64 * TICKS_PER_SECOND / 1000;
    assert!(
        used < window_ticks / 4,
        "the server used {} of {} clock ticks while a half-closed peer waited",
        used,
        window_ticks
    );

    // Once the queue resumes, the peer gets both answers, then the
    // server's EOF.
    server.ingest_queue().set_paused(false);
    let limits = WireLimits::default();
    let mut reader = BufReader::new(stream);
    let mut next = || {
        let frame = read_frame(&mut reader, limits.max_frame_len)
            .unwrap()
            .expect("an answer before EOF");
        decode_response(frame, &limits).unwrap()
    };
    assert!(
        matches!(next(), WireResponse::IngestAck { accepted: 1, .. }),
        "the batch is acked"
    );
    assert!(
        matches!(next(), WireResponse::Flushed { ingested: 1, .. }),
        "the flush answers once the batch is applied"
    );
    assert!(
        read_frame(&mut reader, limits.max_frame_len)
            .unwrap()
            .is_none(),
        "the last answer is followed by EOF"
    );
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
