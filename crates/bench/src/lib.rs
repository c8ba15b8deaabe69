//! Shared helpers for the benchmark harness.
//!
//! Every bench target is one experiment: its module docs name the id, and
//! the README section on the subsystem it measures (e.g. "Causal queries"
//! for e19) reports what it found.  All targets use the same short
//! measurement settings so that `cargo bench --workspace` completes in
//! minutes; the *relative* shapes (who wins, how cost scales) are what the
//! experiments document, not absolute timings.

use criterion::Criterion;
use std::time::Duration;

/// A Criterion instance with short warm-up and measurement windows, suitable
/// for regenerating every experiment in one `cargo bench` run.
pub fn quick_criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800))
        .configure_from_args()
}
