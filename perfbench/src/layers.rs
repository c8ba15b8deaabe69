//! Per-layer metrics (`--trace 1`).
//!
//! Each workload serves the same inputs with client trace contexts on, so
//! the server records its spans (`client_encode`, `decode`, `handle`,
//! `write`, `queue_wait`), read back through `AuditClient::traces`.  A
//! layer replay then feeds the same requests and batches through each
//! layer's public function — codec, engine, store, index, automaton,
//! causal view — timed from here, and a framed loopback echo measures the
//! floor no serving change can beat.

use crate::harness::{connect, copy_dir, depth1, fresh_setups, Served};
use crate::probe::{stream, Batches};
use crate::stats::{percentile, us, Report, Rng, Tally};
use crate::{causal_deep, gen, vet_wire};
use piprov_audit::{
    filtered_view, AuditEngine, AuditRequest, AuditResponse, EventFilter, RequestKind, SpanKind,
    TraceRecord,
};
use piprov_core::provenance::{interner_stats, Provenance};
use piprov_patterns::{CompiledPattern, MatchStats, Pattern};
use piprov_policy::{PackSource, PolicyPack};
use piprov_serve::codec::{decode_request, encode_request, encode_response};
use piprov_serve::wire::{read_frame, write_frame};
use piprov_serve::{AuditClient, WireLimits, WireRequest, WireResponse};
use piprov_store::{ProvenanceRecord, ProvenanceStore};
use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every per-layer metric, in print order, with its unit.
const PER_LAYER: [(&str, &str); 39] = [
    ("budget.e2e_p50_us", "us"),
    ("client.encode_us", "us"),
    ("codec.encode_request_us", "us"),
    ("codec.decode_request_us", "us"),
    ("codec.decode_replay_us", "us"),
    ("codec.encode_response_us", "us"),
    ("codec.response_bytes", "B"),
    ("event_loop.write_us", "us"),
    ("event_loop.unattributed_us", "us"),
    ("net.loopback_rtt_us", "us"),
    ("engine.handle_span_us", "us"),
    ("engine.handle_vet_us", "us"),
    ("engine.handle_cf_us", "us"),
    ("engine.handle_why_us", "us"),
    ("engine.dag_nodes_per_request", "count"),
    ("engine.index_hits_per_request", "count"),
    ("engine.ingest_batch_us", "us"),
    ("ingest.queue_wait_p50_us", "us"),
    ("ingest.queue_wait_p99_us", "us"),
    ("ingest.busy_ratio", "ratio"),
    ("ingest.visible_p50_us", "us"),
    ("ingest.unattributed_us", "us"),
    ("snapshot.publish_us", "us"),
    ("snapshot.index_extend_us", "us"),
    ("snapshot.publish_growth", "ratio"),
    ("store.append_us", "us"),
    ("store.sync_us", "us"),
    ("nfa.walk_us", "us"),
    ("nfa.witness_us", "us"),
    ("nfa.memo_hit_ratio", "ratio"),
    ("nfa.memo_epochs", "count"),
    ("causal.filtered_view_us", "us"),
    ("causal.memo_reused", "count"),
    ("interner.hit_ratio", "ratio"),
    ("interner.nodes", "count"),
    ("mem.store_bytes_per_record", "B"),
    ("mem.snapshot_bytes_per_record", "B"),
    ("load.late_p99_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Requests per traced chunk: half the server's trace ring, so a chunk's
/// records are all still there when read back.
const CHUNK: usize = crate::harness::TRACE_RING / 2;
/// Timed calls per replayed layer function.
const REPLAYS: usize = 2_000;
/// Batches replayed through the store and engine apply path.
const REPLAY_BATCHES: usize = 400;
/// Of those, how many are followed by a timed `sync`.
const SYNCS: usize = 50;
/// Batches and offered rate (batches per second) of the ingest probe of
/// `vet_wire`.  Pinned to one CPU of a 2-vCPU host, the visibility p99
/// over 1,500 batches starts to climb between 450 and 600 batches/s.
const VET_PROBE: (usize, f64) = (400, 100.0);
/// The same for `causal_deep`, whose deep records cost far more to apply.
const CAUSAL_PROBE: (usize, f64) = (64, 25.0);
/// Fresh-process set-ups whose median heap split gives `mem.*`.
const MEM_SETUPS: usize = 3;
/// Frames bounced by the loopback echo.
const ECHOES: usize = 10_000;

fn p50(ns: &[u64]) -> f64 {
    us(percentile(ns, 50.0))
}

fn mean(values: &[usize]) -> f64 {
    values.iter().sum::<usize>() as f64 / values.len().max(1) as f64
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_nanos() as u64)
}

fn ratio(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// Per-layer values gathered over a traced run.
#[derive(Debug, Default)]
struct Layers {
    values: BTreeMap<&'static str, f64>,
    tally: Tally,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.values.insert(name, value);
    }

    /// Every per-layer metric; one left unmeasured fails the run.
    fn report(mut self) -> Report {
        let mut values = Vec::with_capacity(PER_LAYER.len());
        for (name, unit) in PER_LAYER {
            let value = self.values.get(name).copied();
            if value.is_none() {
                eprintln!("perfbench: layer metric {name} not measured");
            }
            self.tally.record(value.is_some());
            values.push((name, value.unwrap_or(0.0), unit));
        }
        let mut report = Report::new(self.tally);
        for (name, value, unit) in values {
            report.metric(name, value, unit);
        }
        report
    }

    /// Sets `name` to the median of `ns` in microseconds, unless no
    /// sample was taken.
    fn set_p50(&mut self, name: &'static str, ns: &[u64]) {
        if !ns.is_empty() {
            self.set(name, p50(ns));
        }
    }
}

fn span_ns(record: &TraceRecord, kind: SpanKind) -> u64 {
    record
        .spans
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| s.duration_ns)
        .sum()
}

/// The trace records of the last `count` requests of the given kinds.
fn last_traces(
    client: &mut AuditClient,
    kinds: &[RequestKind],
    count: usize,
) -> Result<Vec<TraceRecord>, String> {
    // Let the loop thread finish the last write's trace before reading.
    std::thread::sleep(Duration::from_millis(2));
    let records = client.traces().map_err(|e| format!("traces: {e}"))?;
    let mine: Vec<TraceRecord> = records
        .into_iter()
        .filter(|r| kinds.contains(&r.kind))
        .collect();
    Ok(mine[mine.len().saturating_sub(count)..].to_vec())
}

/// A traced depth-1 loop: client round trips paired with the server's
/// spans, request by request.
#[derive(Debug, Default)]
struct Traced {
    rtt_ns: Vec<u64>,
    encode_ns: Vec<u64>,
    decode_ns: Vec<u64>,
    handle_ns: Vec<u64>,
    write_ns: Vec<u64>,
    unattributed_ns: Vec<u64>,
    responses: Vec<AuditResponse>,
}

fn traced_depth1(
    client: &mut AuditClient,
    requests: &[AuditRequest],
    expected: &[AuditResponse],
    order: &[u32],
    tally: &mut Tally,
) -> Result<Traced, String> {
    let mut traced = Traced::default();
    for chunk in order.chunks(CHUNK) {
        let (times, responses) = depth1(client, requests, expected, chunk, true, tally)?;
        let records = last_traces(
            client,
            &[
                RequestKind::Vet,
                RequestKind::Counterfactual,
                RequestKind::Why,
            ],
            chunk.len(),
        )?;
        if records.len() == chunk.len() {
            for (rtt, record) in times.iter().zip(&records) {
                let parts = [
                    span_ns(record, SpanKind::ClientEncode),
                    span_ns(record, SpanKind::Decode),
                    span_ns(record, SpanKind::Handle),
                    span_ns(record, SpanKind::Write),
                ];
                traced.encode_ns.push(parts[0]);
                traced.decode_ns.push(parts[1]);
                traced.handle_ns.push(parts[2]);
                traced.write_ns.push(parts[3]);
                traced
                    .unattributed_ns
                    .push(rtt.saturating_sub(parts.iter().sum()));
            }
        } else {
            eprintln!(
                "perfbench: {} of {} traces read back; chunk left out of the span ledger",
                records.len(),
                chunk.len()
            );
        }
        traced.rtt_ns.extend(times);
        traced.responses.extend(responses);
    }
    Ok(traced)
}

impl Traced {
    fn record(&self, layers: &mut Layers) {
        layers.set_p50("budget.e2e_p50_us", &self.rtt_ns);
        layers.set_p50("client.encode_us", &self.encode_ns);
        layers.set_p50("codec.decode_request_us", &self.decode_ns);
        layers.set_p50("engine.handle_span_us", &self.handle_ns);
        layers.set_p50("event_loop.write_us", &self.write_ns);
        layers.set_p50("event_loop.unattributed_us", &self.unattributed_ns);
        let stats: Vec<_> = self.responses.iter().map(|r| r.stats).collect();
        layers.set(
            "engine.dag_nodes_per_request",
            mean(
                &stats
                    .iter()
                    .map(|s| s.dag_nodes_visited)
                    .collect::<Vec<_>>(),
            ),
        );
        layers.set(
            "engine.index_hits_per_request",
            mean(&stats.iter().map(|s| s.index_hits).collect::<Vec<_>>()),
        );
    }
}

/// Tracing overhead: the same depth-1 order untraced, then traced.
fn overhead(untraced_ns: &[u64], traced_ns: &[u64], layers: &mut Layers) {
    layers.set(
        "trace.overhead_pct",
        (p50(traced_ns) / p50(untraced_ns) - 1.0) * 100.0,
    );
}

/// Replays the codec over the workload's requests and recorded responses.
fn replay_codec(requests: &[AuditRequest], responses: &[AuditResponse], layers: &mut Layers) {
    let limits = WireLimits::default();
    let mut encode = Vec::with_capacity(REPLAYS);
    let mut decode = Vec::with_capacity(REPLAYS);
    for request in requests.iter().cycle().take(REPLAYS) {
        let wire = WireRequest::Audit(request.clone());
        let (body, ns) = timed(|| encode_request(&wire));
        encode.push(ns);
        let (decoded, ns) = timed(|| decode_request(body.clone(), &limits));
        decode.push(ns);
        layers.tally.record(decoded.ok().as_ref() == Some(&wire));
    }
    let mut encode_response_ns = Vec::with_capacity(REPLAYS);
    let mut bytes = Vec::with_capacity(REPLAYS);
    for response in responses.iter().cycle().take(REPLAYS) {
        let wire = WireResponse::Audit(response.clone());
        let (body, ns) = timed(|| encode_response(&wire));
        encode_response_ns.push(ns);
        bytes.push(body.len());
    }
    layers.set("codec.encode_request_us", p50(&encode));
    layers.set("codec.decode_replay_us", p50(&decode));
    layers.set("codec.encode_response_us", p50(&encode_response_ns));
    layers.set("codec.response_bytes", mean(&bytes));
}

/// Times `AuditEngine::handle` over `requests`, cycling to `count` calls.
fn replay_handle(
    engine: &AuditEngine,
    requests: &[AuditRequest],
    count: usize,
) -> (f64, Vec<AuditResponse>) {
    let mut times = Vec::with_capacity(count);
    let mut responses = Vec::with_capacity(count);
    for request in requests.iter().cycle().take(count) {
        let (response, ns) = timed(|| engine.handle(request));
        times.push(ns);
        responses.push(response);
    }
    (p50(&times), responses)
}

/// Replays the handle layer for vets, counterfactuals and why-slices, and
/// reads counterfactual memo reuse off the responses.
fn replay_engine(
    engine: &AuditEngine,
    vets: &[AuditRequest],
    counterfactuals: &[AuditRequest],
    whys: &[AuditRequest],
    why_count: usize,
    layers: &mut Layers,
) {
    layers.set(
        "engine.handle_vet_us",
        replay_handle(engine, vets, REPLAYS).0,
    );
    let (cf, responses) = replay_handle(engine, counterfactuals, REPLAYS);
    layers.set("engine.handle_cf_us", cf);
    layers.set(
        "causal.memo_reused",
        mean(
            &responses
                .iter()
                .map(|r| r.stats.memo_reused)
                .collect::<Vec<_>>(),
        ),
    );
    layers.set(
        "engine.handle_why_us",
        replay_handle(engine, whys, why_count).0,
    );
}

/// Replays the apply path on copies of the store at `dir`: a spare
/// `ProvenanceStore` (append, sync) and an `AuditEngine` (ingest_batch,
/// and `SharedStoreIndex::extended` on its published snapshot), both aged
/// to the same history.
fn replay_apply(
    dir: &Path,
    batches: &[Vec<ProvenanceRecord>],
    layers: &mut Layers,
) -> Result<(), String> {
    let store_dir = dir.with_extension("replay-store");
    let engine_dir = dir.with_extension("replay-engine");
    copy_dir(dir, &store_dir)?;
    copy_dir(dir, &engine_dir)?;
    let mut store = ProvenanceStore::open(&store_dir).map_err(|e| format!("replay store: {e}"))?;
    let engine = AuditEngine::open(&engine_dir).map_err(|e| format!("replay engine: {e}"))?;

    let (mut append, mut sync, mut apply, mut publish, mut extend) =
        (vec![], vec![], vec![], vec![], vec![]);
    for (i, batch) in batches.iter().enumerate() {
        let copy = batch.clone();
        let (appended, ns) = timed(|| {
            copy.into_iter()
                .map(|r| store.append(r))
                .collect::<Vec<_>>()
        });
        layers.tally.record(appended.iter().all(Result::is_ok));
        append.push(ns);
        if i < SYNCS {
            let (synced, ns) = timed(|| store.sync());
            layers.tally.record(synced.is_ok());
            sync.push(ns);
        }
        let copy = batch.clone();
        let (applied, ns) = timed(|| engine.ingest_batch(copy));
        layers.tally.record(applied.is_ok());
        apply.push(ns);
        publish.push(ns.saturating_sub(*append.last().expect("pushed above")));
        let snapshot = engine.snapshot();
        let (index, ns) = timed(|| snapshot.index().extended(batch.iter()));
        drop(index);
        extend.push(ns);
    }
    let tenth = (publish.len() / 10).max(1);
    let mean_ns = |xs: &[u64]| xs.iter().sum::<u64>() as f64 / xs.len() as f64;
    layers.set("store.append_us", p50(&append));
    layers.set("store.sync_us", p50(&sync));
    layers.set("engine.ingest_batch_us", p50(&apply));
    layers.set("snapshot.publish_us", p50(&publish));
    layers.set("snapshot.index_extend_us", p50(&extend));
    layers.set(
        "snapshot.publish_growth",
        mean_ns(&publish[publish.len() - tenth..]) / mean_ns(&publish[..tenth]),
    );
    drop(engine);
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_dir_all(&engine_dir);
    Ok(())
}

/// Replays the automaton: memo-warm walks and memo-bypassing witness
/// walks over the workload's vetted histories, on a fresh compilation of
/// `pattern`.
fn replay_nfa(pattern: &Pattern, histories: &[Provenance], layers: &mut Layers) {
    let compiled = CompiledPattern::compile(pattern);
    for history in histories {
        compiled.matches(history);
    }
    let mut walk = Vec::with_capacity(REPLAYS);
    let mut witness = Vec::with_capacity(REPLAYS);
    for history in histories.iter().cycle().take(REPLAYS) {
        walk.push(timed(|| compiled.matches_with_stats(history)).1);
        let mut stats = MatchStats::default();
        witness.push(timed(|| compiled.witness(history, &mut stats)).1);
    }
    layers.set("nfa.walk_us", p50(&walk));
    layers.set("nfa.witness_us", p50(&witness));
}

fn replay_filtered_view(cases: &[(Provenance, EventFilter)], layers: &mut Layers) {
    let times: Vec<u64> = cases
        .iter()
        .cycle()
        .take(REPLAYS)
        .map(|(history, filter)| timed(|| filtered_view(history, filter)).1)
        .collect();
    layers.set("causal.filtered_view_us", p50(&times));
}

/// Round trips of one framed body over loopback, echoed by a thread that
/// does nothing else: the floor under any served request.
fn loopback(body_len: usize, layers: &mut Layers) -> Result<(), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("echo bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("echo addr: {e}"))?;
    let max = WireLimits::default().max_frame_len;
    let echo = std::thread::spawn(move || -> Result<(), String> {
        let (stream, _) = listener.accept().map_err(|e| format!("echo accept: {e}"))?;
        stream.set_nodelay(true).ok();
        let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut writer = BufWriter::new(stream);
        while let Some(frame) = read_frame(&mut reader, max).map_err(|e| e.to_string())? {
            write_frame(&mut writer, &frame).map_err(|e| e.to_string())?;
            writer.flush().map_err(|e| e.to_string())?;
        }
        Ok(())
    });
    let stream = TcpStream::connect(addr).map_err(|e| format!("echo connect: {e}"))?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = BufWriter::new(stream);
    let body = vec![0x5a_u8; body_len];
    let mut times = Vec::with_capacity(ECHOES);
    for _ in 0..ECHOES {
        let started = Instant::now();
        write_frame(&mut writer, &body).map_err(|e| e.to_string())?;
        writer.flush().map_err(|e| e.to_string())?;
        let back = read_frame(&mut reader, max).map_err(|e| e.to_string())?;
        times.push(started.elapsed().as_nanos() as u64);
        layers.tally.record(back.as_deref() == Some(&body[..]));
    }
    drop(writer);
    drop(reader);
    echo.join()
        .map_err(|_| "echo thread panicked".to_string())??;
    layers.set("net.loopback_rtt_us", p50(&times));
    Ok(())
}

/// An open-loop ingest stream from a traced producer while an untraced
/// auditor polls.
fn traced_stream(
    served: &mut Served,
    batches: &Batches,
    h0: usize,
    rate_per_s: f64,
    layers: &mut Layers,
) -> Result<(), String> {
    let mut auditor = connect(&served.server, false)?;
    let producer = &mut served.client;
    let result = stream(producer, &mut auditor, batches, h0 as u64, rate_per_s)?;
    layers.tally.add(result.tally);
    let records = last_traces(producer, &[RequestKind::Ingest], batches.records.len())?;
    let queue_wait: Vec<u64> = records
        .iter()
        .map(|r| span_ns(r, SpanKind::QueueWait))
        .collect();
    if queue_wait.is_empty() {
        return Err("no ingest traces read back".to_string());
    }
    // Visibility less what the spans and the schedule account for: the
    // inbound hop and the auditor's poll.
    if records.len() == result.visible_ns.len() {
        let unattributed: Vec<u64> = records
            .iter()
            .zip(result.visible_ns.iter().zip(&result.late_ns))
            .map(|(r, (visible, late))| {
                let known = late
                    + span_ns(r, SpanKind::ClientEncode)
                    + span_ns(r, SpanKind::Decode)
                    + span_ns(r, SpanKind::QueueWait);
                visible.saturating_sub(known)
            })
            .collect();
        layers.set_p50("ingest.unattributed_us", &unattributed);
    } else {
        eprintln!(
            "perfbench: {} ingest traces for {} visible batches; residual not computed",
            records.len(),
            result.visible_ns.len()
        );
    }
    layers.set("ingest.queue_wait_p50_us", p50(&queue_wait));
    layers.set(
        "ingest.queue_wait_p99_us",
        us(percentile(&queue_wait, 99.0)),
    );
    layers.set_p50("ingest.visible_p50_us", &result.visible_ns);
    layers.set("load.late_p99_us", us(percentile(&result.late_ns, 99.0)));
    layers.set(
        "ingest.busy_ratio",
        ratio(result.busy, batches.records.len() as u64),
    );
    Ok(())
}

/// The store-versus-snapshot heap split per record, from set-ups in fresh
/// processes (see `harness::fresh_setup`).
fn mem_split(
    workload: &str,
    dir: &Path,
    records: usize,
    layers: &mut Layers,
) -> Result<(), String> {
    let cost = fresh_setups(workload, dir, MEM_SETUPS)?;
    layers.set(
        "mem.store_bytes_per_record",
        cost.store_bytes / records as f64,
    );
    layers.set(
        "mem.snapshot_bytes_per_record",
        cost.snapshot_bytes / records as f64,
    );
    Ok(())
}

/// Memo and interner counters before the traced traffic.
struct Counters {
    policy: String,
    memo_hits: u64,
    memo_misses: u64,
    interner_hits: u64,
    interner_misses: u64,
}

impl Counters {
    fn read(engine: &AuditEngine, policy: &str) -> Counters {
        let memo = engine.pattern_memo_stats(policy);
        let interner = interner_stats();
        Counters {
            policy: policy.to_string(),
            memo_hits: memo.map_or(0, |m| m.hits),
            memo_misses: memo.map_or(0, |m| m.misses),
            interner_hits: interner.hits,
            interner_misses: interner.misses,
        }
    }

    fn finish(&self, engine: &AuditEngine, layers: &mut Layers) {
        let memo = engine.pattern_memo_stats(&self.policy);
        let interner = interner_stats();
        let memo_hits = memo.map_or(0, |m| m.hits) - self.memo_hits;
        let memo_misses = memo.map_or(0, |m| m.misses) - self.memo_misses;
        layers.set(
            "nfa.memo_hit_ratio",
            ratio(memo_hits, memo_hits + memo_misses),
        );
        layers.set("nfa.memo_epochs", memo.map_or(0, |m| m.epochs) as f64);
        let hits = interner.hits - self.interner_hits;
        let misses = interner.misses - self.interner_misses;
        layers.set("interner.hit_ratio", ratio(hits, hits + misses));
        layers.set("interner.nodes", interner.interned_nodes as f64);
    }
}

fn policy_pattern(pack: &PackSource, name: &str) -> Result<Pattern, String> {
    let compiled = PolicyPack::compile(pack).map_err(|e| format!("pack: {e:?}"))?;
    compiled
        .get(name)
        .map(|def| def.pattern.clone())
        .ok_or_else(|| format!("policy {name} not in pack"))
}

/// Engine, automaton and causal-view replays over supply-chain items,
/// given each item's newest record.
fn supply_chain_replays(
    engine: &AuditEngine,
    pack: &PackSource,
    newest: &[ProvenanceRecord],
    layers: &mut Layers,
) -> Result<(), String> {
    let policy = gen::SUPPLY_POLICIES[2];
    let request = |build: &dyn Fn(&ProvenanceRecord) -> AuditRequest| -> Vec<AuditRequest> {
        newest.iter().map(build).collect()
    };
    let vets = request(&|r| AuditRequest::VetValue {
        value: r.value.clone(),
        pattern: policy.to_string(),
    });
    let counterfactuals = request(&|r| AuditRequest::Counterfactual {
        value: r.value.clone(),
        pattern: policy.to_string(),
        remove: EventFilter::Principal(r.principal.clone()),
    });
    let whys = request(&|r| AuditRequest::Why {
        value: r.value.clone(),
        pattern: policy.to_string(),
    });
    replay_engine(engine, &vets, &counterfactuals, &whys, REPLAYS, layers);
    let histories: Vec<Provenance> = newest.iter().map(|r| r.provenance.clone()).collect();
    replay_nfa(&policy_pattern(pack, policy)?, &histories, layers);
    let cases: Vec<(Provenance, EventFilter)> = newest
        .iter()
        .map(|r| {
            (
                r.provenance.clone(),
                EventFilter::Principal(r.principal.clone()),
            )
        })
        .collect();
    replay_filtered_view(&cases, layers);
    Ok(())
}

/// The ingest probe of a workload that does not ingest: a short traced
/// stream into its server, then the apply replay on its history.
#[allow(clippy::too_many_arguments)]
fn probe_and_apply(
    served: &mut Served,
    dir: &Path,
    pack: &PackSource,
    records: usize,
    newest: &[ProvenanceRecord],
    (batches, rate_per_s): (usize, f64),
    rng: &mut Rng,
    layers: &mut Layers,
) -> Result<(), String> {
    let probe = Batches::new(rng, newest, batches, dir, pack)?;
    // The stream grows the served history; the replay starts from H0.
    let replay_dir = dir.with_extension("h0");
    copy_dir(dir, &replay_dir)?;
    traced_stream(served, &probe, records, rate_per_s, layers)?;
    let batches: Vec<Vec<ProvenanceRecord>> =
        probe.records.iter().take(REPLAY_BATCHES).cloned().collect();
    replay_apply(&replay_dir, &batches, layers)?;
    let _ = std::fs::remove_dir_all(&replay_dir);
    Ok(())
}

pub fn vet_wire(
    inputs: &vet_wire::Inputs,
    rng: &mut Rng,
    mut served: Served,
) -> Result<Report, String> {
    let mut layers = Layers::default();
    mem_split("vet_wire", &inputs.dir, inputs.records, &mut layers)?;
    let engine = Arc::clone(served.server.engine());
    let counters = Counters::read(&engine, gen::SUPPLY_POLICIES[0]);
    let requests = inputs.requests();
    let order = rng.indices(2 * CHUNK, requests.len());
    let mut untraced = connect(&served.server, false)?;
    let (plain, _) = depth1(
        &mut untraced,
        requests,
        &inputs.expected,
        &order,
        false,
        &mut layers.tally,
    )?;
    drop(untraced);
    let traced = traced_depth1(
        &mut served.client,
        requests,
        &inputs.expected,
        &order,
        &mut layers.tally,
    )?;
    overhead(&plain, &traced.rtt_ns, &mut layers);
    traced.record(&mut layers);
    let sampled: Vec<AuditRequest> = order
        .iter()
        .map(|&i| requests[i as usize].clone())
        .collect();
    replay_codec(&sampled, &traced.responses, &mut layers);
    loopback(
        encode_request(&WireRequest::Audit(sampled[0].clone())).len(),
        &mut layers,
    )?;
    supply_chain_replays(&engine, &inputs.plan.pack, &inputs.newest, &mut layers)?;
    counters.finish(&engine, &mut layers);
    probe_and_apply(
        &mut served,
        &inputs.dir,
        &inputs.plan.pack,
        inputs.records,
        &inputs.newest,
        VET_PROBE,
        rng,
        &mut layers,
    )?;
    served.stop()?;
    Ok(layers.report())
}

pub fn causal_deep(
    inputs: &causal_deep::Inputs,
    rng: &mut Rng,
    mut served: Served,
) -> Result<Report, String> {
    let mut layers = Layers::default();
    mem_split("causal_deep", &inputs.dir, inputs.values.len(), &mut layers)?;
    let engine = Arc::clone(served.server.engine());
    let counters = Counters::read(&engine, gen::CAUSAL_INSPECTED);
    let order = causal_deep::order(rng, inputs, CHUNK, CHUNK / 4);
    let mut untraced = connect(&served.server, false)?;
    let (plain, _) = depth1(
        &mut untraced,
        &inputs.requests,
        &inputs.expected,
        &order,
        false,
        &mut layers.tally,
    )?;
    drop(untraced);
    let traced = traced_depth1(
        &mut served.client,
        &inputs.requests,
        &inputs.expected,
        &order,
        &mut layers.tally,
    )?;
    let (plain_cf, _) = causal_deep::split(&plain, &order, inputs.cf);
    let (traced_cf, _) = causal_deep::split(&traced.rtt_ns, &order, inputs.cf);
    overhead(&plain_cf, &traced_cf, &mut layers);
    traced.record(&mut layers);
    layers.set_p50("budget.e2e_p50_us", &traced_cf);
    let sampled: Vec<AuditRequest> = order
        .iter()
        .map(|&i| inputs.requests[i as usize].clone())
        .collect();
    // Response encoding is replayed on the why-slices, the O(depth) answers.
    let why_responses: Vec<AuditResponse> = traced
        .responses
        .iter()
        .zip(&order)
        .filter(|(_, &i)| (i as usize) >= inputs.cf)
        .map(|(r, _)| r.clone())
        .collect();
    replay_codec(&sampled, &why_responses, &mut layers);
    loopback(
        encode_request(&WireRequest::Audit(sampled[0].clone())).len(),
        &mut layers,
    )?;

    let (counterfactuals, whys) = inputs.requests.split_at(inputs.cf);
    replay_engine(
        &engine,
        &inputs.plan.warm,
        counterfactuals,
        whys,
        REPLAYS / 4,
        &mut layers,
    );
    // Memo reuse as the served counterfactuals saw it.
    let reused: Vec<usize> = traced
        .responses
        .iter()
        .zip(&order)
        .filter(|(_, &i)| (i as usize) < inputs.cf)
        .map(|(r, _)| r.stats.memo_reused)
        .collect();
    layers.set("causal.memo_reused", mean(&reused));
    let histories: Vec<Provenance> = inputs
        .values
        .iter()
        .map(|v| v.record.provenance.clone())
        .collect();
    replay_nfa(
        &policy_pattern(&inputs.plan.pack, gen::CAUSAL_INSPECTED)?,
        &histories,
        &mut layers,
    );
    let cases: Vec<(Provenance, EventFilter)> = inputs
        .values
        .iter()
        .map(|v| {
            (
                v.record.provenance.clone(),
                EventFilter::Principal(v.inspector.clone()),
            )
        })
        .collect();
    replay_filtered_view(&cases, &mut layers);
    counters.finish(&engine, &mut layers);

    let newest: Vec<ProvenanceRecord> = inputs.values.iter().map(|v| v.record.clone()).collect();
    probe_and_apply(
        &mut served,
        &inputs.dir,
        &inputs.plan.pack,
        newest.len(),
        &newest,
        CAUSAL_PROBE,
        rng,
        &mut layers,
    )?;
    served.stop()?;
    Ok(layers.report())
}
