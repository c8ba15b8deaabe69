//! The ingest probe of a traced run: how soon a shipped batch becomes
//! visible to an auditor.
//!
//! One producer ships batches of `BATCH` records with
//! `AuditClient::ingest_batch`, open-loop at a fixed offered rate; one
//! auditor on a second connection vets the newest shipped value in a
//! depth-1 loop.  The benchmark is the only writer, so batch i is visible
//! once a response's watermark reaches H0 + (i+1)·B.

use crate::gen::{next_hop, SUPPLY_POLICIES};
use crate::harness::{client_failure, copy_dir};
use crate::stats::{Rng, Tally};
use piprov_audit::{AuditEngine, AuditOutcome, AuditRequest};
use piprov_policy::{PackSource, PolicyPack};
use piprov_serve::{AuditClient, IngestOutcome};
use piprov_store::ProvenanceRecord;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Records per shipped batch.
pub const BATCH: usize = 4;
/// The policy the auditor vets with.
const AUDIT_POLICY: &str = SUPPLY_POLICIES[2];
/// How long the auditor waits for the last batch after the producer is
/// done before counting the missing batches as failed.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// Batches to ship, each with the vet that probes its newest value and
/// the oracle's answers to that vet before and after the batch is visible.
#[derive(Debug, Default)]
pub struct Batches {
    pub records: Vec<Vec<ProvenanceRecord>>,
    pub probes: Vec<AuditRequest>,
    pub before: Vec<AuditOutcome>,
    pub after: Vec<AuditOutcome>,
}

impl Batches {
    /// `count` batches of `BATCH` records, each record the next hop of an
    /// existing item (`newest` holds each item's newest record), with the
    /// oracle's answers from a separate engine over a copy of `dir`.
    ///
    /// A batch's last record moves an item no other batch touches — the
    /// batch's probe — so its answer before and after the batch is fixed.
    /// The other records each take one hop from the preloaded state of an
    /// item drawn from the rest, so no history grows deeper over the run.
    pub fn new(
        rng: &mut Rng,
        newest: &[ProvenanceRecord],
        count: usize,
        dir: &Path,
        pack: &PackSource,
    ) -> Result<Batches, String> {
        if count >= newest.len() {
            return Err(format!(
                "{count} batches need more than {} items",
                newest.len()
            ));
        }
        let mut items: Vec<usize> = (0..newest.len()).collect();
        rng.shuffle(&mut items);
        let (probed, others) = items.split_at(count);
        let records: Vec<Vec<ProvenanceRecord>> = probed
            .iter()
            .map(|&probe| {
                let mut batch: Vec<ProvenanceRecord> = (1..BATCH)
                    .map(|_| {
                        let item = others[rng.below(others.len())];
                        next_hop(rng, &newest[item])
                    })
                    .collect();
                batch.push(next_hop(rng, &newest[probe]));
                batch
            })
            .collect();
        let probes: Vec<AuditRequest> = records
            .iter()
            .map(|batch| AuditRequest::VetValue {
                value: batch.last().expect("batches are not empty").value.clone(),
                pattern: AUDIT_POLICY.to_string(),
            })
            .collect();
        let reference_dir = dir.with_extension("reference");
        copy_dir(dir, &reference_dir)?;
        let engine =
            AuditEngine::open(&reference_dir).map_err(|e| format!("reference engine: {e}"))?;
        let compiled = PolicyPack::compile(pack).map_err(|e| format!("pack: {e:?}"))?;
        engine.install_pack(&compiled);
        let before = probes.iter().map(|p| engine.handle(p).outcome).collect();
        engine
            .ingest_batch(records.iter().flatten().cloned().collect())
            .map_err(|e| format!("reference ingest: {e}"))?;
        let after = probes.iter().map(|p| engine.handle(p).outcome).collect();
        drop(engine);
        let _ = std::fs::remove_dir_all(&reference_dir);
        Ok(Batches {
            records,
            probes,
            before,
            after,
        })
    }
}

/// What one open-loop ingest stream measured.
#[derive(Debug, Default)]
pub struct StreamResult {
    /// Per batch: from when it was due to the first auditor response whose
    /// watermark covers it.
    pub visible_ns: Vec<u64>,
    /// Per batch: how late the producer sent it against its schedule.
    pub late_ns: Vec<u64>,
    /// `Busy` answers to ingest batches.
    pub busy: u64,
    pub tally: Tally,
}

/// Ships `batches` open-loop at `rate_per_s` from `producer` while
/// `auditor` polls the newest shipped value, checking every answer.
pub fn stream(
    producer: &mut AuditClient,
    auditor: &mut AuditClient,
    batches: &Batches,
    h0: u64,
    rate_per_s: f64,
) -> Result<StreamResult, String> {
    let n = batches.records.len();
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate_per_s);
    let shipped = AtomicUsize::new(0);
    let producer_done = AtomicBool::new(false);
    let (produced, audited) = std::thread::scope(|scope| {
        let producing = scope.spawn(|| {
            let outcome = produce(producer, batches, &due, &shipped);
            producer_done.store(true, Ordering::SeqCst);
            outcome
        });
        let auditing = scope.spawn(|| audit(auditor, batches, h0, &due, &shipped, &producer_done));
        (
            producing.join().expect("producer panicked"),
            auditing.join().expect("auditor panicked"),
        )
    });
    let produced = produced?;
    let (visible_ns, mut tally) = audited?;
    tally.add(produced.tally);
    if visible_ns.len() < n {
        tally.attempted += (n - visible_ns.len()) as u64;
        tally.failed += (n - visible_ns.len()) as u64;
    }
    Ok(StreamResult {
        visible_ns,
        late_ns: produced.late_ns,
        busy: produced.busy,
        tally,
    })
}

/// The producer's side of a stream.
#[derive(Debug, Default)]
struct Produced {
    late_ns: Vec<u64>,
    busy: u64,
    tally: Tally,
}

fn produce(
    client: &mut AuditClient,
    batches: &Batches,
    due: &dyn Fn(usize) -> Instant,
    shipped: &AtomicUsize,
) -> Result<Produced, String> {
    let mut produced = Produced::default();
    for (i, records) in batches.records.iter().enumerate() {
        let mut batch = records.clone();
        let now = Instant::now();
        if due(i) > now {
            std::thread::sleep(due(i) - now);
        }
        let late = Instant::now().saturating_duration_since(due(i));
        produced.late_ns.push(late.as_nanos() as u64);
        loop {
            match client.ingest_batch(batch) {
                Ok(IngestOutcome::Acked { accepted, .. }) => {
                    produced.tally.record(accepted as usize == records.len());
                    break;
                }
                Ok(IngestOutcome::Busy { .. }) => {
                    produced.tally.record(false);
                    produced.busy += 1;
                    std::thread::sleep(Duration::from_micros(100));
                    batch = records.clone();
                }
                Err(e) => {
                    client_failure(e, &mut produced.tally)?;
                    break;
                }
            }
        }
        shipped.store(i + 1, Ordering::SeqCst);
    }
    Ok(produced)
}

/// The auditor's side of a stream: each batch's visibility time.
fn audit(
    client: &mut AuditClient,
    batches: &Batches,
    h0: u64,
    due: &dyn Fn(usize) -> Instant,
    shipped: &AtomicUsize,
    producer_done: &AtomicBool,
) -> Result<(Vec<u64>, Tally), String> {
    let n = batches.records.len();
    let batch = batches.records.first().map_or(1, Vec::len) as u64;
    let mut visible = Vec::with_capacity(n);
    let mut tally = Tally::default();
    let mut done_at: Option<Instant> = None;
    while visible.len() < n {
        let probe = shipped.load(Ordering::SeqCst).saturating_sub(1);
        let answer = client.request(&batches.probes[probe]);
        let now = Instant::now();
        match answer {
            Ok(response) => {
                let grown = response.watermark.saturating_sub(h0);
                let covered = ((grown / batch) as usize).min(n);
                let want = if covered > probe {
                    &batches.after[probe]
                } else {
                    &batches.before[probe]
                };
                let ok = grown % batch == 0 && response.outcome == *want;
                tally.record(ok);
                while visible.len() < covered {
                    let i = visible.len();
                    visible.push(now.saturating_duration_since(due(i)).as_nanos() as u64);
                }
            }
            Err(e) => client_failure(e, &mut tally)?,
        }
        if producer_done.load(Ordering::SeqCst) {
            let since = *done_at.get_or_insert(now);
            if now.duration_since(since) > DRAIN_GRACE {
                break;
            }
        }
    }
    Ok((visible, tally))
}
