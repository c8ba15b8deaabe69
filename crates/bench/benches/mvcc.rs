//! E14 — MVCC snapshot publication.
//!
//! **`e14_mvcc/publish_latency`** — what a writer pays per published
//! snapshot as batch size grows, in µs/batch and ns/record.  The
//! snapshot is the store's own copy-on-write view, so this is the append
//! itself plus, once per batch, the clone of the chunk pointers and the
//! index skeleton that the published predecessor forces.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use piprov_audit::AuditEngine;
use piprov_bench::quick_criterion;
use piprov_core::name::{Channel, Principal};
use piprov_core::provenance::{Event, Provenance};
use piprov_core::value::Value;
use piprov_store::{Operation, ProvenanceRecord};
use std::path::PathBuf;
use std::time::Instant;

/// Records every engine starts with, in one seed batch.
const SEED_VALUES: usize = 64;
/// Value pool the measured batches cycle through.
const WRITER_VALUES: usize = 256;

fn temp_dir(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("piprov-e14-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn record(t: u64, value_name: &str, origin: usize) -> ProvenanceRecord {
    let who = Principal::new(format!("s{}", origin % 4));
    let k = Provenance::single(Event::output(who.clone(), Provenance::empty()))
        .prepend(Event::input(Principal::new("relay"), Provenance::empty()));
    ProvenanceRecord::new(
        t,
        who,
        Operation::Send,
        "m",
        Value::Channel(Channel::new(value_name)),
        k,
    )
}

fn seed_records() -> Vec<ProvenanceRecord> {
    (0..SEED_VALUES)
        .map(|i| record(i as u64, &format!("hot{}", i), i))
        .collect()
}

/// Pre-builds `rounds` batches of `batch_size` records, so the timed
/// window below covers only ingest + publish, never record construction.
fn build_batches(batch_size: usize, rounds: u64) -> Vec<Vec<ProvenanceRecord>> {
    (0..rounds)
        .map(|round| {
            (0..batch_size)
                .map(|i| {
                    let n = (round as usize * batch_size + i) % WRITER_VALUES;
                    record(round, &format!("w{}", n), n)
                })
                .collect()
        })
        .collect()
}

/// One self-contained measurement: a fresh engine (so every sample sees
/// the same engine size — no growth drift across criterion iterations),
/// pre-built batches, and a timer around only the ingest/publish loop.
/// Returns mean seconds per published batch.
fn timed_publish(batch_size: usize, rounds: u64, tag: &str) -> f64 {
    let dir = temp_dir(tag);
    let engine = AuditEngine::open(&dir).expect("open store");
    engine.ingest_batch(seed_records()).expect("seed");
    let batches = build_batches(batch_size, rounds);
    let started = Instant::now();
    for batch in batches {
        engine.ingest_batch(batch).expect("ingest");
    }
    let per_batch = started.elapsed().as_secs_f64() / rounds as f64;
    assert_eq!(
        engine.stats().snapshots_published,
        rounds + 1,
        "one publication per batch (plus the seed batch)"
    );
    std::fs::remove_dir_all(&dir).ok();
    per_batch
}

fn bench_publish_latency(c: &mut Criterion) {
    // Criterion times the whole closure (the shim has no iter_batched), so
    // its numbers include the fixed fresh-engine setup amortized over 16
    // batches; the summary table below reports the setup-free per-batch
    // cost from the inner timer.
    let mut group = c.benchmark_group("e14_mvcc/publish_latency");
    for batch_size in [1usize, 32, 256] {
        group.bench_with_input(
            BenchmarkId::new("batch_size", batch_size),
            &batch_size,
            |b, &batch_size| b.iter(|| timed_publish(batch_size, 16, "publish-criterion")),
        );
    }
    group.finish();

    println!("\ne14 summary — snapshot publish latency per batch size");
    println!(
        "  {:<12} {:>12} {:>12} {:>16}",
        "batch size", "batches", "µs/batch", "ns/record"
    );
    for batch_size in [1usize, 32, 256, 1024] {
        let rounds = (8192 / batch_size).max(8) as u64;
        let per_batch = timed_publish(batch_size, rounds, "publish-summary");
        println!(
            "  {:<12} {:>12} {:>12.1} {:>16.0}",
            batch_size,
            rounds,
            per_batch * 1e6,
            per_batch * 1e9 / batch_size as f64
        );
    }
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_publish_latency
}
criterion_main!(benches);
