//! E11 — provenance store throughput and query latency.
//!
//! Measures append throughput (with and without per-append sync), recovery
//! scans, audit-trail queries as the number of stored records grows, and
//! codec cost on deeply *shared* channel provenance, where a body encodes
//! each interned node once however large the logical tree grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use piprov_bench::quick_criterion;
use piprov_core::name::{Channel, Principal};
use piprov_core::provenance::{Event, Provenance};
use piprov_core::value::Value;
use piprov_store::codec::{decode_body, encode_body};
use piprov_store::{Operation, ProvenanceRecord, ProvenanceStore, StoreConfig, StoreQuery};
use std::path::PathBuf;

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
        let mut store = ProvenanceStore::open_with(
            &dir,
            StoreConfig {
                sync_every_append: true,
                ..StoreConfig::default()
            },
        )
        .unwrap();
        let mut i = 0u64;
        b.iter(|| {
            store.append(record(i, 8)).unwrap();
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

fn all(c: &mut Criterion) {
    bench_append(c);
    bench_queries_and_recovery(c);
    bench_shared_codec(c);
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = all
}
criterion_main!(benches);
