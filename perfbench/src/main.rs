//! The piprov benchmark: seeded workloads against an in-process
//! `AuditServer` on loopback, every answer checked against an in-process
//! oracle.
//!
//! ```text
//! piprov-perfbench --workload <vet_wire|causal_deep>
//!                  --seed <n> --seconds <n> --trace <0|1> [--work-dir <dir>]
//! piprov-perfbench setup <vet_wire|causal_deep> <store-dir>
//! ```
//!
//! With `--trace 0` the run measures end-to-end metrics with tracing off;
//! with `--trace 1` it serves the same inputs traced and replays them
//! through each layer's public functions, printing per-layer metrics.  The
//! last line of standard output is the result as one JSON object.
//!
//! `setup` is what a run starts once per measured set-up: one set-up of
//! the workload over the store a run wrote, in a process that has interned
//! none of its history, printing its time and heap figures.

mod alloc;
mod causal_deep;
mod gen;
mod harness;
mod layers;
mod probe;
mod stats;
mod vet_wire;

use harness::{fresh_setup, Ctx, Plan};
use std::path::{Path, PathBuf};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Blocks a fixed-history workload's timed phases are split into (see
/// `stats::Blocks`).
pub const BLOCKS: usize = 20;

/// A run's parameters, printed as a JSON line before the result so every
/// figure can be traced back to the load that produced it.
pub struct Meta<'a> {
    pub workload: &'a str,
    pub ctx: &'a Ctx,
    pub workers: usize,
    pub h0: usize,
    pub requests: &'a [(&'a str, usize)],
}

pub fn meta(m: &Meta) {
    // The host's CPUs, not the ones this pinned process may use.
    let nproc = std::fs::read_to_string("/sys/devices/system/cpu/online")
        .map(|online| online.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let affinity = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("Cpus_allowed_list:")
                    .map(|v| v.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    let requests: Vec<String> = m
        .requests
        .iter()
        .map(|(name, n)| format!("\"{name}\": {n}"))
        .collect();
    println!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"cpus_online\": \"{nproc}\", \"affinity\": \"{affinity}\", \"workers\": {}, \"h0\": {}, \
         \"requests\": {{{}}}}}}}",
        m.workload,
        m.ctx.seed,
        m.ctx.seconds,
        u8::from(m.ctx.trace),
        m.workers,
        m.h0,
        requests.join(", ")
    );
}

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.work"));
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--work-dir" => work = PathBuf::from(&value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let missing = |what: &str| format!("missing --{what}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("workload"))?,
        ctx: Ctx {
            seed: seed.ok_or_else(|| missing("seed"))?,
            seconds: seconds.ok_or_else(|| missing("seconds"))?,
            trace: trace.ok_or_else(|| missing("trace"))?,
            work: work.join(format!("run-{}", std::process::id())),
        },
    })
}

/// What a set-up of `workload` installs and warms.
fn plan(workload: &str) -> Result<Plan, String> {
    match workload {
        "vet_wire" => vet_wire::plan(),
        "causal_deep" => Ok(causal_deep::plan()),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The `setup` subcommand: one set-up, its figures on standard output.
fn setup(args: &[String]) -> Result<String, String> {
    let [workload, dir] = args else {
        return Err("usage: setup <workload> <store-dir>".to_string());
    };
    let plan = plan(workload)?;
    Ok(fresh_setup(Path::new(dir), &plan)?.line())
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("setup") {
        match setup(&argv[2..]) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("perfbench setup: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let ctx = args.ctx;
    let result = std::fs::create_dir_all(&ctx.work)
        .map_err(|e| format!("create {}: {e}", ctx.work.display()))
        .and_then(|()| match args.workload.as_str() {
            "vet_wire" => vet_wire::run(&ctx),
            "causal_deep" => causal_deep::run(&ctx),
            other => Err(format!("unknown workload {other}")),
        });
    let _ = std::fs::remove_dir_all(&ctx.work);
    match result {
        Ok(report) => println!("{}", report.json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
