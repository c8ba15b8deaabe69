//! Serving harness shared by the workloads: binding, timed set-up, the
//! in-process oracle, and the timed client loops.

use crate::alloc::live_bytes;
use crate::stats::{median, Tally};
use piprov_audit::{AuditEngine, AuditRequest, AuditResponse, TraceConfig};
use piprov_policy::{PackSource, PolicyPack};
use piprov_serve::{
    AuditClient, AuditServer, ClientConfig, ClientError, PackLoadOutcome, ServeConfig,
};
use piprov_store::ProvenanceStore;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Dispatch workers of every server the benchmark binds.  With the load
/// threads this stays within a 2-CPU host; on one pinned CPU more workers
/// would only add hand-offs.
pub const WORKERS: usize = 1;

/// Set-ups per run, each in a fresh process; `setup_s` is their median.
pub const SETUPS: usize = 21;

/// Ring capacity of a traced server: room for a whole traced chunk.
pub const TRACE_RING: usize = 8_192;

/// Requests per pipelined window when warming memos during set-up.
const WARM_WINDOW: usize = 256;

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub work: PathBuf,
}

impl Ctx {
    /// Scales a request count sized for a 10-second run to `--seconds`,
    /// never below `min` (the floor a percentile needs).
    pub fn count(&self, per_10s: usize, min: usize) -> usize {
        ((per_10s as f64 * self.seconds as f64 / 10.0).round() as usize).max(min)
    }

    pub fn dir(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }
}

/// Binds a server on an ephemeral loopback port.  The server samples
/// nothing on its own and logs no slow requests: a request is traced
/// exactly when its client sends a trace context.  Only a traced run
/// needs a ring larger than the default.
pub fn bind(engine: Arc<AuditEngine>, traced: bool) -> Result<AuditServer, String> {
    let trace = TraceConfig {
        sample_every: 0,
        slow_threshold: Duration::ZERO,
        ..TraceConfig::default()
    };
    let config = ServeConfig {
        workers: WORKERS,
        trace: if traced {
            TraceConfig {
                capacity: TRACE_RING,
                ..trace
            }
        } else {
            trace
        },
        ..ServeConfig::default()
    };
    AuditServer::bind(engine, "127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))
}

pub fn connect(server: &AuditServer, traced: bool) -> Result<AuditClient, String> {
    let config = ClientConfig {
        trace: traced,
        ..ClientConfig::default()
    };
    AuditClient::connect_with(server.local_addr(), config).map_err(|e| format!("connect: {e}"))
}

/// What a set-up installs and warms: everything but the history, so a
/// fresh process can build it without interning the history first.
#[derive(Debug)]
pub struct Plan {
    pub pack: PackSource,
    /// Pipelined after the pack is installed, to warm the memos.
    pub warm: Vec<AuditRequest>,
}

/// A running server with its connected client.
#[derive(Debug)]
pub struct Served {
    pub server: AuditServer,
    pub client: AuditClient,
}

impl Served {
    pub fn stop(self) -> Result<(), String> {
        drop(self.client);
        self.server.shutdown().map_err(|e| format!("shutdown: {e}"))
    }
}

/// Serves `engine`: bind, connect, install the pack over the wire and
/// warm the memos.
fn serve(engine: AuditEngine, plan: &Plan, traced: bool) -> Result<Served, String> {
    let server = bind(Arc::new(engine), traced)?;
    let mut client = connect(&server, traced)?;
    match client.load_pack(&plan.pack) {
        Ok(PackLoadOutcome::Loaded { .. }) => {}
        other => return Err(format!("pack not installed: {other:?}")),
    }
    for window in plan.warm.chunks(WARM_WINDOW) {
        client.pipeline(window).map_err(|e| format!("warm: {e}"))?;
    }
    Ok(Served { server, client })
}

/// Recovers the history at `dir` and serves it.
pub fn start(dir: &Path, plan: &Plan, traced: bool) -> Result<Served, String> {
    let engine = AuditEngine::open(dir).map_err(|e| format!("recover: {e}"))?;
    serve(engine, plan, traced)
}

/// What one set-up cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupCost {
    /// From opening the store to the last warm-up answer, seconds.
    pub setup_s: f64,
    /// Live heap bytes the set-up added, all told.
    pub heap_bytes: f64,
    /// Of those, what `ProvenanceStore::open` added.
    pub store_bytes: f64,
    /// And what `AuditEngine::new` added on top: the recovered snapshot.
    pub snapshot_bytes: f64,
}

/// One set-up in this process: `start`, timed and heap-counted in steps.
/// Run it in a process that has not interned the history yet, or every
/// DAG node the recovery creates is already there and neither its time
/// nor its memory is counted.
pub fn fresh_setup(dir: &Path, plan: &Plan) -> Result<SetupCost, String> {
    let base = live_bytes();
    let started = Instant::now();
    let store = ProvenanceStore::open(dir).map_err(|e| format!("recover: {e}"))?;
    let opened = live_bytes();
    let engine = AuditEngine::new(store);
    let recovered = live_bytes();
    let served = serve(engine, plan, false)?;
    let setup_s = started.elapsed().as_secs_f64();
    let cost = SetupCost {
        setup_s,
        heap_bytes: (live_bytes() - base) as f64,
        store_bytes: (opened - base) as f64,
        snapshot_bytes: (recovered - opened) as f64,
    };
    served.stop()?;
    Ok(cost)
}

impl SetupCost {
    /// The line a set-up process prints.
    pub fn line(&self) -> String {
        format!(
            "{:?} {:?} {:?} {:?}",
            self.setup_s, self.heap_bytes, self.store_bytes, self.snapshot_bytes
        )
    }

    fn parse(line: &str) -> Option<SetupCost> {
        let fields: Vec<f64> = line
            .split_whitespace()
            .map(str::parse)
            .collect::<Result<_, _>>()
            .ok()?;
        match fields[..] {
            [setup_s, heap_bytes, store_bytes, snapshot_bytes] => Some(SetupCost {
                setup_s,
                heap_bytes,
                store_bytes,
                snapshot_bytes,
            }),
            _ => None,
        }
    }
}

/// `count` set-ups of `workload` over the history at `dir`, each in a
/// fresh process of this binary (`setup <workload> <dir>`), run one after
/// the other; the median of each figure.
pub fn fresh_setups(workload: &str, dir: &Path, count: usize) -> Result<SetupCost, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut costs = Vec::with_capacity(count);
    for _ in 0..count {
        let out = Command::new(&exe)
            .arg("setup")
            .arg(workload)
            .arg(dir)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("set-up process: {e}"))?;
        if !out.status.success() {
            return Err(format!("set-up process failed: {}", out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        costs.push(
            SetupCost::parse(stdout.trim())
                .ok_or_else(|| format!("set-up process printed {stdout:?}"))?,
        );
    }
    let median_of =
        |field: fn(&SetupCost) -> f64| median(&costs.iter().map(field).collect::<Vec<_>>());
    Ok(SetupCost {
        setup_s: median_of(|c| c.setup_s),
        heap_bytes: median_of(|c| c.heap_bytes),
        store_bytes: median_of(|c| c.store_bytes),
        snapshot_bytes: median_of(|c| c.snapshot_bytes),
    })
}

/// The oracle: each request answered by a separate in-process engine
/// over the same history, with the same pack.
pub fn reference(
    dir: &Path,
    pack: &PackSource,
    requests: &[AuditRequest],
) -> Result<Vec<AuditResponse>, String> {
    let engine = AuditEngine::open(dir).map_err(|e| format!("reference engine: {e}"))?;
    let compiled = PolicyPack::compile(pack).map_err(|e| format!("pack: {e:?}"))?;
    engine.install_pack(&compiled);
    Ok(requests.iter().map(|r| engine.handle(r)).collect())
}

/// Whether a wire answer matches the oracle's.
pub fn same_answer(got: &AuditResponse, want: &AuditResponse) -> bool {
    got.outcome == want.outcome && got.watermark == want.watermark
}

/// Folds a client error into the tally; transport failures end the run.
pub fn client_failure(error: ClientError, tally: &mut Tally) -> Result<(), String> {
    match error {
        ClientError::Wire(_) | ClientError::ConnectionClosed => Err(format!("transport: {error}")),
        _ => {
            tally.record(false);
            Ok(())
        }
    }
}

/// A depth-1 closed loop: `order` indexes `requests`/`expected`.  Returns
/// each request's round-trip time in nanoseconds and, with `keep`, the
/// responses.
pub fn depth1(
    client: &mut AuditClient,
    requests: &[AuditRequest],
    expected: &[AuditResponse],
    order: &[u32],
    keep: bool,
    tally: &mut Tally,
) -> Result<(Vec<u64>, Vec<AuditResponse>), String> {
    let mut times = Vec::with_capacity(order.len());
    let mut kept = Vec::new();
    for &i in order {
        let i = i as usize;
        let started = Instant::now();
        let answer = client.request(&requests[i]);
        times.push(started.elapsed().as_nanos() as u64);
        match answer {
            Ok(response) => {
                tally.record(same_answer(&response, &expected[i]));
                if keep {
                    kept.push(response);
                }
            }
            Err(e) => client_failure(e, tally)?,
        }
    }
    Ok((times, kept))
}

/// Pipelined windows on one connection: each window is written whole,
/// then read whole.  Returns each window's round-trip time.
pub fn pipelined(
    client: &mut AuditClient,
    requests: &[AuditRequest],
    expected: &[AuditResponse],
    windows: &[Vec<u32>],
    tally: &mut Tally,
) -> Result<Vec<u64>, String> {
    let mut times = Vec::with_capacity(windows.len());
    let mut batch = Vec::new();
    for window in windows {
        batch.clear();
        batch.extend(window.iter().map(|&i| requests[i as usize].clone()));
        let started = Instant::now();
        let answers = client.pipeline(&batch);
        times.push(started.elapsed().as_nanos() as u64);
        match answers {
            Ok(responses) => {
                for (response, &i) in responses.iter().zip(window) {
                    tally.record(same_answer(response, &expected[i as usize]));
                }
            }
            Err(e) => {
                tally.attempted += window.len() as u64 - 1;
                tally.failed += window.len() as u64 - 1;
                client_failure(e, tally)?;
            }
        }
    }
    Ok(times)
}

/// Copies a store directory (flat: segment files only).
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("mkdir {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read dir: {e}"))?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}
