//! E11 — provenance store throughput and query latency.
//!
//! Measures append throughput (buffered, and with a `sync` after each
//! append), recovery scans, audit-trail queries as the number of stored
//! records grows, codec cost on deeply *shared* channel provenance, where
//! a body encodes each interned node once however large the logical tree
//! grows, and codec cost per node on a deep spine of one repeated
//! principal, the shape of perfbench's causal_deep records
//! (`cargo bench -p piprov-bench --bench store -- e11_deep_codec`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use piprov_bench::quick_criterion;
use piprov_core::name::{Channel, Principal};
use piprov_core::provenance::{Event, Provenance};
use piprov_core::value::Value;
use piprov_store::codec::{decode_body, encode_body};
use piprov_store::{Operation, ProvenanceRecord, ProvenanceStore, StoreQuery};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("piprov-bench-store-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn record(i: u64, depth: usize) -> ProvenanceRecord {
    let mut prov = Provenance::empty();
    for d in 0..depth {
        let p = Principal::new(format!("p{}", d % 5));
        prov = if d % 2 == 0 {
            prov.prepend(Event::output(p, Provenance::empty()))
        } else {
            prov.prepend(Event::input(p, Provenance::empty()))
        };
    }
    ProvenanceRecord::new(
        i,
        format!("p{}", i % 5),
        Operation::Send,
        format!("ch{}", i % 8),
        Value::Channel(Channel::new(format!("v{}", i % 64))),
        prov,
    )
}

fn populated_store(dir: &PathBuf, records: usize) -> ProvenanceStore {
    let mut store = ProvenanceStore::open(dir).unwrap();
    for i in 0..records {
        store.append(record(i as u64, 8)).unwrap();
    }
    store.sync().unwrap();
    store
}

fn bench_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_append");
    for depth in [0usize, 8, 32] {
        group.bench_with_input(BenchmarkId::new("buffered", depth), &depth, |b, &depth| {
            let dir = temp_dir(&format!("append-{}", depth));
            let mut store = ProvenanceStore::open(&dir).unwrap();
            let mut i = 0u64;
            b.iter(|| {
                store.append(record(i, depth)).unwrap();
                i += 1;
            });
            std::fs::remove_dir_all(&dir).ok();
        });
    }
    group.bench_function("synced_every_append", |b| {
        let dir = temp_dir("append-sync");
        let mut store = ProvenanceStore::open(&dir).unwrap();
        let mut i = 0u64;
        b.iter(|| {
            store.append(record(i, 8)).unwrap();
            store.sync().unwrap();
            i += 1;
        });
        std::fs::remove_dir_all(&dir).ok();
    });
    group.finish();
}

fn bench_queries_and_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_query");
    for records in [1_000usize, 10_000] {
        let dir = temp_dir(&format!("query-{}", records));
        let store = populated_store(&dir, records);
        let target = Value::Channel(Channel::new("v7"));
        group.bench_with_input(
            BenchmarkId::new("audit_trail", records),
            &records,
            |b, _| {
                let query = StoreQuery::new(&store);
                b.iter(|| query.audit_trail(&target))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("by_principal", records),
            &records,
            |b, _| {
                let query = StoreQuery::new(&store);
                let p = Principal::new("p3");
                b.iter(|| query.records_by_principal(&p).len())
            },
        );
        group.bench_with_input(
            BenchmarkId::new("recovery_scan", records),
            &records,
            |b, _| b.iter(|| ProvenanceStore::open(&dir).unwrap().len()),
        );
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
    group.finish();
}

/// A record whose provenance tree doubles per hop while the DAG grows by
/// two nodes per hop: every relay's channel carries the full history.
fn shared_record(hops: usize) -> ProvenanceRecord {
    let mut prov = Provenance::single(Event::output(Principal::new("origin"), Provenance::empty()));
    for i in 0..hops {
        let p = Principal::new(format!("relay{}", i % 4));
        prov = prov
            .prepend(Event::output(p.clone(), prov.clone()))
            .prepend(Event::input(p, prov.clone()));
    }
    ProvenanceRecord::new(
        1,
        "auditor",
        Operation::Receive,
        "m",
        Value::Channel(Channel::new("v")),
        prov,
    )
}

fn bench_shared_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_shared_codec");
    for hops in [6usize, 9] {
        let record = shared_record(hops);
        let dag_body = encode_body(&record);
        println!(
            "e11_shared_codec: hops={} tree={} dag_nodes={} dag_body={}B",
            hops,
            record.provenance.total_size(),
            record.provenance.dag_size(),
            dag_body.len(),
        );
        group.bench_with_input(BenchmarkId::new("encode_dag", hops), &hops, |b, _| {
            b.iter(|| encode_body(&record).len())
        });
        group.bench_with_input(BenchmarkId::new("decode_dag", hops), &hops, |b, _| {
            b.iter(|| decode_body(dag_body.clone()).unwrap().sequence)
        });
        // The round trip a real append+recovery pays, end to end.
        group.bench_with_input(BenchmarkId::new("round_trip_dag", hops), &hops, |b, _| {
            b.iter(|| decode_body(encode_body(&record)).unwrap().sequence)
        });
    }
    group.finish();
}

/// perfbench's causal_deep record: a vendor send, one inspection hop,
/// then 1,024 relay hops, every event on a channel with no history.
fn deep_spine_record() -> ProvenanceRecord {
    let head = [
        Event::output(Principal::new("s0"), Provenance::empty()),
        Event::input(Principal::new("d0"), Provenance::empty()),
    ];
    let relays = (0..1_024).map(|_| Event::input(Principal::new("relay"), Provenance::empty()));
    ProvenanceRecord::new(
        1,
        "s0",
        Operation::Send,
        "ship",
        Value::Channel(Channel::new("item-1")),
        Provenance::from_events(head.into_iter().chain(relays)),
    )
}

/// Mean nanoseconds per node of `run` over 200 calls.
fn ns_per_node<T>(nodes: usize, mut run: impl FnMut() -> T) -> f64 {
    const CALLS: u32 = 200;
    let started = Instant::now();
    for _ in 0..CALLS {
        black_box(run());
    }
    started.elapsed().as_nanos() as f64 / f64::from(CALLS) / nodes as f64
}

/// Encode and decode of one deep-spine body.  Building the record interns
/// every node, so a decode measures the node-table read and one interner
/// hit per node, as store recovery and the ingest drain worker pay it.
fn bench_deep_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_deep_codec");
    let record = deep_spine_record();
    let body = encode_body(&record);
    let nodes = record.provenance.dag_size();
    group.bench_with_input(BenchmarkId::new("encode", nodes), &nodes, |b, _| {
        b.iter(|| encode_body(&record).len());
        println!(
            "e11_deep_codec/encode: {} nodes, {} B body, {:.1} ns per node",
            nodes,
            body.len(),
            ns_per_node(nodes, || encode_body(&record).len())
        );
    });
    group.bench_with_input(BenchmarkId::new("decode", nodes), &nodes, |b, _| {
        b.iter(|| decode_body(body.clone()).unwrap().sequence);
        println!(
            "e11_deep_codec/decode: {} nodes, {} B body, {:.1} ns per node",
            nodes,
            body.len(),
            ns_per_node(nodes, || decode_body(body.clone()).unwrap().sequence)
        );
    });
    group.finish();
}

fn all(c: &mut Criterion) {
    bench_append(c);
    bench_queries_and_recovery(c);
    bench_shared_codec(c);
    bench_deep_codec(c);
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = all
}
criterion_main!(benches);
