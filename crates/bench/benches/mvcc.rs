//! E14 — MVCC snapshot reads under concurrent ingest.
//!
//! Three questions about the engine's epoch-swapped snapshot read path:
//!
//! * **`e14_mvcc/vet_throughput`** — aggregate vet throughput at 1/2/4
//!   auditor threads while a writer streams ingest batches continuously:
//!   the scenario the old design serialized (every batch held the store's
//!   write lock, excluding all readers for the whole append).
//! * **`e14_mvcc/rwlock_baseline`** — the identical workload against an
//!   inline reimplementation of the old read path (queries through the
//!   store's reader-writer lock), the ablation the snapshot design is
//!   judged against.  The summary prints a side-by-side table: snapshot
//!   reads must be no slower at 1 thread and strictly faster under
//!   concurrent ingest on ≥ 4 hardware threads.
//! * **`e14_mvcc/publish_latency`** — what a writer pays per published
//!   snapshot as batch size grows, in µs/batch and ns/record.  The
//!   snapshot is the store's own copy-on-write view, so this is the
//!   append itself plus, once per batch, the clone of the chunk pointers
//!   and the index skeleton that the published predecessor forces.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use piprov_audit::{AuditConfig, AuditEngine, AuditOutcome, AuditRequest};
use piprov_bench::quick_criterion;
use piprov_core::name::{Channel, Principal};
use piprov_core::provenance::{Event, Provenance};
use piprov_core::value::Value;
use piprov_patterns::{CompiledPattern, GroupExpr, Pattern};
use piprov_store::{Operation, ProvenanceRecord, ProvenanceStore};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread;
use std::time::Instant;

/// Values the auditors query (ingested up front, so postings stay fixed).
const HOT_VALUES: usize = 64;
/// Value pool the background writer cycles through.
const WRITER_VALUES: usize = 256;
const WRITER_BATCH: usize = 32;
const QUERIES_PER_THREAD: usize = 1024;

fn temp_dir(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("piprov-e14-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn supplier(i: usize) -> Principal {
    Principal::new(format!("s{}", i % 4))
}

fn record(t: u64, value_name: &str, origin: usize) -> ProvenanceRecord {
    let who = supplier(origin);
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

fn hot_value(i: usize) -> Value {
    Value::Channel(Channel::new(format!("hot{}", i)))
}

fn seed_records() -> Vec<ProvenanceRecord> {
    (0..HOT_VALUES)
        .map(|i| record(i as u64, &format!("hot{}", i), i))
        .collect()
}

fn writer_batch(round: u64) -> Vec<ProvenanceRecord> {
    (0..WRITER_BATCH)
        .map(|i| {
            let n = (round as usize * WRITER_BATCH + i) % WRITER_VALUES;
            record(round, &format!("w{}", n), n)
        })
        .collect()
}

fn pattern() -> Pattern {
    Pattern::originated_at(GroupExpr::any_of(["s0", "s1", "s2", "s3"]))
}

// ---------------------------------------------------------------------------
// The two engines under test.
// ---------------------------------------------------------------------------

/// The old read path, reconstructed for the ablation: every query takes
/// the store's read lock, every ingest batch its write lock — so a batch
/// being applied excludes all auditors for its whole duration.
struct RwLockBaseline {
    store: RwLock<ProvenanceStore>,
    pattern: Arc<CompiledPattern>,
}

impl RwLockBaseline {
    fn new(dir: &PathBuf) -> Self {
        let mut store = ProvenanceStore::open(dir).expect("open store");
        store.append_all(seed_records()).expect("seed");
        let compiled = CompiledPattern::compile(&pattern());
        compiled.set_memo_bound(8192);
        RwLockBaseline {
            store: RwLock::new(store),
            pattern: Arc::new(compiled),
        }
    }

    fn vet(&self, value: &Value) -> bool {
        let store = self.store.read().expect("read lock");
        let postings = store.index().by_value(value);
        let Some(record) = postings.last().and_then(|seq| store.get(*seq)) else {
            return false;
        };
        self.pattern.matches_with_stats(&record.provenance).0
    }

    fn ingest_batch(&self, records: Vec<ProvenanceRecord>) {
        let mut store = self.store.write().expect("write lock");
        store.append_all(records).expect("append");
    }
}

fn snapshot_engine(dir: &PathBuf) -> Arc<AuditEngine> {
    let store = ProvenanceStore::open(dir).expect("open store");
    let engine = Arc::new(AuditEngine::with_config(
        store,
        AuditConfig { memo_bound: 8192 },
    ));
    engine.register_pattern("from-supplier", pattern());
    engine.ingest_batch(seed_records()).expect("seed");
    engine
}

// ---------------------------------------------------------------------------
// Timed runs: N auditor threads under one continuous ingest writer.
// ---------------------------------------------------------------------------

/// Runs `threads` auditors (QUERIES_PER_THREAD vets each) while a writer
/// streams batches; returns (wall seconds, aggregate queries).
fn timed_run(
    vet: impl Fn(&Value) -> bool + Sync,
    ingest: impl Fn(u64) + Sync,
    threads: usize,
) -> (f64, usize) {
    let running = AtomicBool::new(true);
    let started = Instant::now();
    thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut round = 0u64;
            while running.load(Ordering::Relaxed) {
                ingest(round);
                round += 1;
            }
        });
        let auditors: Vec<_> = (0..threads)
            .map(|t| {
                let vet = &vet;
                scope.spawn(move || {
                    let mut passed = 0usize;
                    for q in 0..QUERIES_PER_THREAD {
                        if vet(&hot_value((q * 7 + t * 13) % HOT_VALUES)) {
                            passed += 1;
                        }
                    }
                    passed
                })
            })
            .collect();
        let passed: usize = auditors.into_iter().map(|a| a.join().unwrap()).sum();
        assert_eq!(
            passed,
            threads * QUERIES_PER_THREAD,
            "every hot value vets true"
        );
        running.store(false, Ordering::Relaxed);
        writer.join().unwrap();
    });
    (
        started.elapsed().as_secs_f64(),
        threads * QUERIES_PER_THREAD,
    )
}

/// One self-contained snapshot-engine measurement: fresh engine (both
/// sides of the ablation always start from the same HOT_VALUES-record
/// state — no growth carried over from earlier samples), timer inside
/// `timed_run` covering only the query/ingest race.
fn snapshot_run(threads: usize) -> (f64, usize) {
    let dir = temp_dir("snapshot");
    let engine = snapshot_engine(&dir);
    let timed = timed_run(
        |value| {
            let response = engine.handle(&AuditRequest::VetValue {
                value: value.clone(),
                pattern: "from-supplier".into(),
            });
            matches!(response.outcome, AuditOutcome::Vetted { verdict: true, .. })
        },
        |round| {
            engine.ingest_batch(writer_batch(round)).expect("ingest");
        },
        threads,
    );
    std::fs::remove_dir_all(&dir).ok();
    timed
}

/// The RwLock side of the ablation, same fresh-state discipline.
fn rwlock_run(threads: usize) -> (f64, usize) {
    let dir = temp_dir("rwlock");
    let baseline = RwLockBaseline::new(&dir);
    let timed = timed_run(
        |value| baseline.vet(value),
        |round| baseline.ingest_batch(writer_batch(round)),
        threads,
    );
    std::fs::remove_dir_all(&dir).ok();
    timed
}

fn bench_vet_throughput(c: &mut Criterion) {
    // Criterion times the whole closure (the shim has no iter_batched), so
    // its numbers include the fixed fresh-engine setup; the summary table
    // below uses the inner timer, which covers only the query/ingest race
    // — and both sides of the ablation always measure engines of the same
    // size.
    let mut group = c.benchmark_group("e14_mvcc/vet_throughput");
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("auditor_threads", threads),
            &threads,
            |b, &threads| b.iter(|| snapshot_run(threads).1),
        );
    }
    group.finish();

    let mut group = c.benchmark_group("e14_mvcc/rwlock_baseline");
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("auditor_threads", threads),
            &threads,
            |b, &threads| b.iter(|| rwlock_run(threads).1),
        );
    }
    group.finish();

    // The acceptance table: snapshot vs RwLock under continuous ingest.
    println!(
        "\ne14 summary — vet throughput under continuous ingest (batch {})",
        WRITER_BATCH
    );
    println!(
        "  {:<8} {:>14} {:>14} {:>9}",
        "threads", "snapshot q/s", "rwlock q/s", "speedup"
    );
    for threads in [1usize, 2, 4] {
        let (snap_secs, queries) = (0..3)
            .map(|_| snapshot_run(threads))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .unwrap();
        let (lock_secs, _) = (0..3)
            .map(|_| rwlock_run(threads))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .unwrap();
        let snap_qps = queries as f64 / snap_secs;
        let lock_qps = queries as f64 / lock_secs;
        println!(
            "  {:<8} {:>14.0} {:>14.0} {:>8.2}x",
            threads,
            snap_qps,
            lock_qps,
            snap_qps / lock_qps
        );
    }
    let cores = thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "  target: snapshot ≥ rwlock at 1 thread; strictly better under \
         concurrent ingest at ≥ 4 hardware threads (this host: {})",
        cores
    );
}

// ---------------------------------------------------------------------------
// Snapshot-publish latency per batch size.
// ---------------------------------------------------------------------------

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
    let engine = snapshot_engine(&dir);
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

fn all(c: &mut Criterion) {
    bench_vet_throughput(c);
    bench_publish_latency(c);
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = all
}
criterion_main!(benches);
