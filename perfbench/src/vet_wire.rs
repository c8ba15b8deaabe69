//! `vet_wire`: memo-warm `VetValue` requests over the wire against a
//! preloaded supply-chain history with the shipped pack installed.
//!
//! Phase A is a depth-1 closed loop (latency); phase B is pipelined
//! windows (throughput).  The two alternate in blocks (see
//! `stats::Blocks`).  The engine's share of a vet is small, so this
//! workload measures the serving layers.

use crate::gen::{item_value, supply_chain_items, supply_chain_pack, write_store, SUPPLY_POLICIES};
use crate::harness::{
    depth1, fresh_setups, pipelined, reference, start, Ctx, Plan, SETUPS, WORKERS,
};
use crate::stats::{Blocks, Report, Rng, Tally};
use crate::{layers, meta, Meta, BLOCKS};
use piprov_audit::{AuditRequest, AuditResponse};
use piprov_store::ProvenanceRecord;
use std::path::PathBuf;

/// Supply-chain items preloaded (about 2.5 records each).
const ITEMS: usize = 4_096;
/// Depth-1 vets per 10-second run.
const DEPTH1_PER_10S: usize = 150_000;
/// Pipelined windows per 10-second run, and requests per window.  Both
/// phases run on one connection: the run is pinned to one CPU
/// (`run.py`).
const WINDOWS_PER_10S: usize = 10_000;
const WINDOW: usize = 64;

/// The shipped pack, and every distinct (item, policy) vet as the memo
/// warm-up.
pub fn plan() -> Result<Plan, String> {
    Ok(Plan {
        pack: supply_chain_pack()?,
        warm: (0..ITEMS)
            .flat_map(|i| {
                SUPPLY_POLICIES.map(|policy| AuditRequest::VetValue {
                    value: item_value(i),
                    pattern: policy.to_string(),
                })
            })
            .collect(),
    })
}

/// The workload's generated inputs and the oracle's answers.
#[derive(Debug)]
pub struct Inputs {
    pub dir: PathBuf,
    /// What a set-up installs; its warm-up vets are also the requests the
    /// timed loops index into.
    pub plan: Plan,
    /// Each item's newest record.
    pub newest: Vec<ProvenanceRecord>,
    pub expected: Vec<AuditResponse>,
    pub records: usize,
}

impl Inputs {
    pub fn requests(&self) -> &[AuditRequest] {
        &self.plan.warm
    }
}

pub fn prepare(ctx: &Ctx, rng: &mut Rng) -> Result<Inputs, String> {
    let (history, newest) = supply_chain_items(rng, ITEMS);
    let dir = ctx.dir("vet_wire");
    write_store(&dir, &history)?;
    let plan = plan()?;
    let expected = reference(&dir, &plan.pack, &plan.warm)?;
    Ok(Inputs {
        dir,
        plan,
        newest,
        expected,
        records: history.len(),
    })
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut rng = Rng::new(ctx.seed);
    let inputs = prepare(ctx, &mut rng)?;
    if ctx.trace {
        let served = start(&inputs.dir, &inputs.plan, true)?;
        return layers::vet_wire(&inputs, &mut rng, served);
    }
    let requests = inputs.requests();
    let range = requests.len();
    let depth1_per_block = ctx.count(DEPTH1_PER_10S, 2_000 * BLOCKS) / BLOCKS;
    let windows_per_block = ctx.count(WINDOWS_PER_10S, 100 * BLOCKS) / BLOCKS;
    let orders: Vec<Vec<u32>> = (0..BLOCKS)
        .map(|_| rng.indices(depth1_per_block, range))
        .collect();
    let windows: Vec<Vec<Vec<u32>>> = (0..BLOCKS)
        .map(|_| {
            (0..windows_per_block)
                .map(|_| rng.indices(WINDOW, range))
                .collect()
        })
        .collect();
    meta(&Meta {
        workload: "vet_wire",
        ctx,
        workers: WORKERS,
        h0: inputs.records,
        requests: &[
            ("depth1_vets", depth1_per_block * BLOCKS),
            ("pipelined_vets", windows_per_block * WINDOW * BLOCKS),
            ("window", WINDOW),
        ],
    });

    let setup = fresh_setups("vet_wire", &inputs.dir, SETUPS)?;
    let mut served = start(&inputs.dir, &inputs.plan, false)?;
    let client = &mut served.client;
    let mut tally = Tally::default();
    let mut vets = Blocks::default();
    let mut windows_timed = Blocks::default();
    let mut pipelined_ns = 0u64;
    for (order, windows) in orders.iter().zip(&windows) {
        let (times, _) = depth1(client, requests, &inputs.expected, order, false, &mut tally)?;
        vets.push(times);
        let times = pipelined(client, requests, &inputs.expected, windows, &mut tally)?;
        pipelined_ns += times.iter().sum::<u64>();
        windows_timed.push(times);
    }
    served.stop()?;

    let mut report = Report::new(tally);
    report.metric("setup_s", setup.setup_s, "s");
    report.metric(
        "mem_bytes_per_record",
        setup.heap_bytes / inputs.records as f64,
        "B",
    );
    report.metric("latency_p50_us", vets.p50_us(), "us");
    report.metric("latency_tail_us", vets.p99_us(), "us");
    report.metric("aux_p50_us", windows_timed.p50_us(), "us");
    report.metric(
        "throughput_per_s",
        (windows_timed.len() * WINDOW) as f64 / (pipelined_ns as f64 / 1e9),
        "1/s",
    );
    Ok(report)
}
