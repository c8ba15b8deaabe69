//! Seeded randomness, percentiles and the result line.

use std::fmt::Write as _;

/// splitmix64: a tiny seeded generator, so the same seed gives the same
/// inputs on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `percent / 100`.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.next_u64() % 100 < percent
    }

    /// `count` indices drawn uniformly from `0..range`.
    pub fn indices(&mut self, count: usize, range: usize) -> Vec<u32> {
        (0..count).map(|_| self.below(range) as u32).collect()
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest-rank percentile of unsorted samples (`p` in `0..=100`).
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of floats (the lower middle for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

/// Round-trip times collected block by block.  A shared host's speed
/// drifts from second to second, so each percentile is taken per block:
/// the median is averaged over blocks, and the tail is the median over
/// blocks of each block's 99th percentile, so one disturbed block cannot
/// move it.
#[derive(Debug, Default)]
pub struct Blocks {
    p50_ns: Vec<u64>,
    p99_ns: Vec<u64>,
    samples: usize,
}

impl Blocks {
    pub fn push(&mut self, block_ns: Vec<u64>) {
        self.p50_ns.push(percentile(&block_ns, 50.0));
        self.p99_ns.push(percentile(&block_ns, 99.0));
        self.samples += block_ns.len();
    }

    /// Samples over every block.
    pub fn len(&self) -> usize {
        self.samples
    }

    /// Mean over blocks of each block's median, microseconds.
    pub fn p50_us(&self) -> f64 {
        let sum: u64 = self.p50_ns.iter().sum();
        us(sum) / self.p50_ns.len() as f64
    }

    /// Median over blocks of each block's 99th percentile, microseconds.
    /// Meaningful when every block holds at least 2,000 samples, so that
    /// 20 lie beyond it.
    pub fn p99_us(&self) -> f64 {
        median(&self.p99_ns.iter().map(|&ns| us(ns)).collect::<Vec<_>>())
    }
}

pub fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// Operations attempted and failed over a run.  Failed covers every
/// error, `Busy` answer, timeout and wrong answer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The result of one run: the last line of standard output.
#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new(tally: Tally) -> Self {
        Report {
            tally,
            metrics: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted,
            self.tally.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}
