//! `causal_deep`: counterfactual and why-slice requests over values with
//! deep spines — a vendor head, one removable inspection hop, and a
//! shared relay suffix — on one connection, each kind timed on its own.
//!
//! Counterfactuals exercise `filtered_view` re-interning and memo reuse
//! in the shared suffix; why-slices exercise the witness walk (which
//! bypasses the memo) and O(depth) responses through the codec.

use crate::gen::{
    causal_pack, deep_value, deep_values, write_store, DeepValue, CAUSAL_DIRECT, CAUSAL_INSPECTED,
};
use crate::harness::{depth1, fresh_setups, reference, start, Ctx, Plan, SETUPS, WORKERS};
use crate::stats::{Blocks, Report, Rng, Tally};
use crate::{layers, meta, Meta, BLOCKS};
use piprov_audit::{AuditRequest, AuditResponse, EventFilter};
use std::path::PathBuf;
use std::time::Instant;

/// Values stored, one record each.
const VALUES: usize = 128;
/// Relay hops in the shared suffix.
pub const DEPTH: usize = 1_024;
/// Counterfactuals and why-slices per 10-second run.
const CF_PER_10S: usize = 40_000;
const WHY_PER_10S: usize = 6_000;

/// The causal pack, and one vet per value and policy as the memo
/// warm-up.
pub fn plan() -> Plan {
    Plan {
        pack: causal_pack(),
        warm: (0..VALUES)
            .flat_map(|i| {
                [CAUSAL_INSPECTED, CAUSAL_DIRECT].map(|policy| AuditRequest::VetValue {
                    value: deep_value(i),
                    pattern: policy.to_string(),
                })
            })
            .collect(),
    }
}

#[derive(Debug)]
pub struct Inputs {
    pub dir: PathBuf,
    pub plan: Plan,
    pub values: Vec<DeepValue>,
    /// Counterfactual requests, then why requests (`cf` of them first).
    pub requests: Vec<AuditRequest>,
    pub expected: Vec<AuditResponse>,
    pub cf: usize,
}

pub fn prepare(ctx: &Ctx, rng: &mut Rng) -> Result<Inputs, String> {
    let values = deep_values(rng, VALUES, DEPTH);
    let dir = ctx.dir("causal_deep");
    let records: Vec<_> = values.iter().map(|v| v.record.clone()).collect();
    write_store(&dir, &records)?;
    let plan = plan();
    let mut requests = Vec::new();
    for v in &values {
        for policy in [CAUSAL_INSPECTED, CAUSAL_DIRECT] {
            for removed in [&v.inspector, &v.vendor] {
                requests.push(AuditRequest::Counterfactual {
                    value: v.value.clone(),
                    pattern: policy.to_string(),
                    remove: EventFilter::Principal(removed.clone()),
                });
            }
        }
    }
    let cf = requests.len();
    requests.extend(values.iter().map(|v| AuditRequest::Why {
        value: v.value.clone(),
        pattern: CAUSAL_INSPECTED.to_string(),
    }));
    let expected = reference(&dir, &plan.pack, &requests)?;
    Ok(Inputs {
        dir,
        plan,
        values,
        requests,
        expected,
        cf,
    })
}

/// A block's request order: exactly `cf` seeded counterfactuals, then
/// `why` seeded why-slices.  Each kind runs in its own phase, so the
/// state a 1026-event why-slice leaves behind does not reach into the
/// counterfactual tail: shuffled together, the counterfactual p99's
/// spread over five seeds was 0.22; phased, 0.12.
pub fn order(rng: &mut Rng, inputs: &Inputs, cf: usize, why: usize) -> Vec<u32> {
    let whys = inputs.requests.len() - inputs.cf;
    let mut order: Vec<u32> = (0..cf).map(|_| rng.below(inputs.cf) as u32).collect();
    order.extend((0..why).map(|_| (inputs.cf + rng.below(whys)) as u32));
    order
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut rng = Rng::new(ctx.seed);
    let inputs = prepare(ctx, &mut rng)?;
    if ctx.trace {
        let served = start(&inputs.dir, &inputs.plan, true)?;
        return layers::causal_deep(&inputs, &mut rng, served);
    }
    let cf_per_block = ctx.count(CF_PER_10S, 2_000 * BLOCKS) / BLOCKS;
    let why_per_block = ctx.count(WHY_PER_10S, 100 * BLOCKS) / BLOCKS;
    let orders: Vec<Vec<u32>> = (0..BLOCKS)
        .map(|_| order(&mut rng, &inputs, cf_per_block, why_per_block))
        .collect();
    meta(&Meta {
        workload: "causal_deep",
        ctx,
        workers: WORKERS,
        h0: VALUES,
        requests: &[
            ("counterfactuals", cf_per_block * BLOCKS),
            ("why_slices", why_per_block * BLOCKS),
            ("spine_depth", DEPTH + 2),
        ],
    });

    let setup = fresh_setups("causal_deep", &inputs.dir, SETUPS)?;
    let mut served = start(&inputs.dir, &inputs.plan, false)?;
    let mut tally = Tally::default();
    let mut counterfactuals = Blocks::default();
    let mut whys = Blocks::default();
    let started = Instant::now();
    for order in &orders {
        let (times, _) = depth1(
            &mut served.client,
            &inputs.requests,
            &inputs.expected,
            order,
            false,
            &mut tally,
        )?;
        let (cf, why) = split(&times, order, inputs.cf);
        counterfactuals.push(cf);
        whys.push(why);
    }
    let elapsed = started.elapsed().as_secs_f64();
    served.stop()?;

    let mut report = Report::new(tally);
    report.metric("setup_s", setup.setup_s, "s");
    report.metric(
        "mem_bytes_per_record",
        setup.heap_bytes / VALUES as f64,
        "B",
    );
    report.metric("latency_p50_us", counterfactuals.p50_us(), "us");
    report.metric("latency_tail_us", counterfactuals.p99_us(), "us");
    report.metric("aux_p50_us", whys.p50_us(), "us");
    report.metric(
        "throughput_per_s",
        (counterfactuals.len() + whys.len()) as f64 / elapsed,
        "1/s",
    );
    Ok(report)
}

/// Splits round-trip times into counterfactuals and why-slices.
pub fn split(times: &[u64], order: &[u32], cf: usize) -> (Vec<u64>, Vec<u64>) {
    let mut counterfactuals = Vec::new();
    let mut whys = Vec::new();
    for (&t, &i) in times.iter().zip(order) {
        if (i as usize) < cf {
            counterfactuals.push(t);
        } else {
            whys.push(t);
        }
    }
    (counterfactuals, whys)
}
