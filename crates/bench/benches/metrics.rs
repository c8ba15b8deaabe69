//! E15 — the metrics plane.
//!
//! Two costs, bounded so observability never argues with the hot path:
//!
//! * **`e15_metrics/record_overhead`** — the price of one
//!   [`PolicyMetrics::record`] (three relaxed counter bumps plus a
//!   log-spaced histogram bucket found by binary search) measured against
//!   the full vet it rides on.  The summary table reports the ratio; the
//!   budget is **<5 %** of a memo-warm vet, the cheapest vet there is —
//!   against cold vets the ratio only shrinks.
//! * **`e15_metrics/exposition_render`** — the cost of rendering the
//!   Prometheus text exposition as the engine grows (1/16/64 registered
//!   policies, each with a fully-populated latency histogram), plus the
//!   rendered size.  Rendering happens off the hot path, on the server,
//!   for the wire `Metrics` answer and `GET /metrics` alike, so this
//!   bounds scrape cost, not request cost; the `bytes` column is the size
//!   of that answer's text.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use piprov_audit::{
    render_exposition, validate_exposition, AuditEngine, AuditOutcome, AuditRequest, PolicyMetrics,
    PolicySnapshot, VetOutcomeKind,
};
use piprov_bench::quick_criterion;
use piprov_core::name::{Channel, Principal};
use piprov_core::provenance::{Event, Provenance};
use piprov_core::value::Value;
use piprov_patterns::{GroupExpr, Pattern};
use piprov_store::{Operation, ProvenanceRecord};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const ITEMS: usize = 64;

fn temp_dir(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("piprov-e15-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An engine with one policy and a store of `ITEMS` single-hop records —
/// the smallest engine whose vets exercise index, memo and histogram.
fn seeded_engine(dir: &PathBuf) -> Arc<AuditEngine> {
    let engine = Arc::new(AuditEngine::open(dir).expect("open engine"));
    engine.register_pattern("from-s", Pattern::originated_at(GroupExpr::single("s")));
    let records: Vec<ProvenanceRecord> = (0..ITEMS as u64)
        .map(|i| {
            ProvenanceRecord::new(
                i,
                "s",
                Operation::Send,
                "m",
                Value::Channel(Channel::new(format!("item{}", i))),
                Provenance::single(Event::output(Principal::new("s"), Provenance::empty())),
            )
        })
        .collect();
    engine.ingest_batch(records).expect("ingest");
    engine
}

fn vet(engine: &AuditEngine, i: usize) -> bool {
    let response = engine.handle(&AuditRequest::VetValue {
        value: Value::Channel(Channel::new(format!("item{}", i % ITEMS))),
        pattern: "from-s".into(),
    });
    matches!(response.outcome, AuditOutcome::Vetted { verdict: true, .. })
}

fn bench_record_overhead(c: &mut Criterion) {
    let dir = temp_dir("overhead");
    let engine = seeded_engine(&dir);
    // Warm the memo: the steady-state vet is the cheapest, and therefore
    // the one the histogram record must stay invisible against.
    for i in 0..ITEMS {
        assert!(vet(&engine, i));
    }

    let policy = PolicyMetrics::default();

    let mut group = c.benchmark_group("e15_metrics/record_overhead");
    group.bench_function("vet_memo_warm", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            vet(&engine, i)
        })
    });
    group.bench_function("histogram_record", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
            // Spread across buckets so the binary search sees real work.
            policy.record(i % (1 << 24), VetOutcomeKind::Passed, None);
        })
    });
    group.finish();

    // Summary: both costs timed over the same loop count, and the ratio.
    let rounds = 200_000usize;
    let started = Instant::now();
    let mut passed = 0usize;
    for i in 0..rounds {
        if vet(&engine, i) {
            passed += 1;
        }
    }
    let vet_ns = started.elapsed().as_nanos() as f64 / rounds as f64;
    assert_eq!(passed, rounds);

    let started = Instant::now();
    for i in 0..rounds {
        policy.record((i as u64) % (1 << 24), VetOutcomeKind::Passed, None);
    }
    let record_ns = started.elapsed().as_nanos() as f64 / rounds as f64;
    let ratio = 100.0 * record_ns / vet_ns;

    println!("\ne15 summary — histogram record cost on the vet hot path");
    println!("  memo-warm vet:     {:>9.1} ns", vet_ns);
    println!("  histogram record:  {:>9.1} ns", record_ns);
    println!(
        "  overhead:          {:>9.2} % of a warm vet (target <5%){}",
        ratio,
        if ratio < 5.0 {
            ""
        } else {
            "  ** OVER BUDGET **"
        }
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `policies` policy rows, each carrying a spread of recorded vets so
/// every histogram bucket line renders, and the memo of `engine`'s policy.
fn populated_rows(engine: &AuditEngine, policies: usize) -> Vec<PolicySnapshot> {
    let memo = engine.pattern_memo_stats("from-s").expect("registered");
    (0..policies)
        .map(|p| {
            let metrics = PolicyMetrics::default();
            for i in 0..64u64 {
                let outcome = if i % 3 == 0 {
                    VetOutcomeKind::Failed
                } else {
                    VetOutcomeKind::Passed
                };
                metrics.record(1 << (i % 24), outcome, None);
            }
            metrics.snapshot(&format!("policy-{:03}", p), memo)
        })
        .collect()
}

fn bench_exposition_render(c: &mut Criterion) {
    let dir = temp_dir("render");
    let engine = seeded_engine(&dir);
    let mut group = c.benchmark_group("e15_metrics/exposition_render");
    for policies in [1usize, 16, 64] {
        let snapshot = {
            let mut snapshot = engine.metrics();
            snapshot.policies = populated_rows(&engine, policies);
            snapshot
        };
        validate_exposition(&render_exposition(&snapshot)).expect("render lints clean");
        group.bench_with_input(
            BenchmarkId::new("policies", policies),
            &snapshot,
            |b, snapshot| b.iter(|| render_exposition(snapshot).len()),
        );
    }
    group.finish();

    println!("\ne15 summary — exposition render cost vs registered policies");
    println!("  {:<10} {:>12} {:>12}", "policies", "bytes", "µs/render");
    for policies in [1usize, 16, 64] {
        let mut snapshot = engine.metrics();
        snapshot.policies = populated_rows(&engine, policies);
        let rounds = 200usize;
        let started = Instant::now();
        let mut bytes = 0usize;
        for _ in 0..rounds {
            bytes = render_exposition(&snapshot).len();
        }
        let micros = started.elapsed().as_micros() as f64 / rounds as f64;
        println!("  {:<10} {:>12} {:>12.1}", policies, bytes, micros);
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn all(c: &mut Criterion) {
    bench_record_overhead(c);
    bench_exposition_render(c);
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = all
}
criterion_main!(benches);
