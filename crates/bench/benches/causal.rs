//! E19 — cost of causal queries: why-slice extraction and counterfactual
//! re-vetting.
//!
//! Two sweeps:
//!
//! * **slice extraction vs depth** — the witness walk (`witness`) against
//!   the plain subset walk (`matches`) over spines of growing depth: the
//!   slice adds one event clone per step, into a vector sized once from
//!   the spine length, and never a second pass;
//! * **counterfactual re-vet vs from-scratch** — the headline number: on
//!   a deep spine where the filter touches only near-top events, the
//!   memo-warm counterfactual (re-intern the touched prefix, hit the
//!   memoized shared suffix) against a from-scratch engine that compiles
//!   the policy and walks the literally filtered history.  Target: ≥ 5×
//!   at depth ≥ 256.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use piprov_audit::{filtered_view, EventFilter};
use piprov_bench::quick_criterion;
use piprov_core::name::Principal;
use piprov_core::provenance::{Event, Provenance};
use piprov_patterns::{parse_pattern, CompiledPattern, MatchStats};

/// Newest-first deep spine: an accepting head, one filterable hop, then
/// `depth` relay hops sharing one suffix chain.
fn deep_spine(depth: usize) -> Provenance {
    let mut events = vec![
        Event::output(Principal::new("s0"), Provenance::empty()),
        Event::input(Principal::new("drop"), Provenance::empty()),
    ];
    events.extend((0..depth).map(|_| Event::input(Principal::new("relay"), Provenance::empty())));
    Provenance::from_events(events)
}

fn bench_slice_extraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("e19_slice");
    let pattern = parse_pattern("s0!Any; Any").expect("policy parses");
    for depth in [16usize, 64, 256, 1024] {
        let prov = deep_spine(depth);
        // Fresh automata per iteration so the walk is honest: a reused
        // one would answer `matches` from its memo after the first pass
        // (the witness walk never consults the memo — cached verdicts
        // carry no trail).
        group.bench_with_input(BenchmarkId::new("matches", depth), &depth, |b, _| {
            b.iter(|| CompiledPattern::compile(&pattern).matches(&prov))
        });
        group.bench_with_input(BenchmarkId::new("witness", depth), &depth, |b, _| {
            b.iter(|| {
                let mut stats = MatchStats::default();
                CompiledPattern::compile(&pattern).witness(&prov, &mut stats)
            })
        });
    }
    group.finish();
}

fn bench_counterfactual(c: &mut Criterion) {
    let mut group = c.benchmark_group("e19_counterfactual");
    let pattern = parse_pattern("s0!Any; Any").expect("policy parses");
    let filter = EventFilter::Principal(Principal::new("drop"));
    for depth in [64usize, 256, 1024] {
        let prov = deep_spine(depth);

        // Memo-warm: the original vet has memoized every suffix; the
        // counterfactual re-interns the touched prefix and rides the
        // shared suffix out of the memo.
        let warm = CompiledPattern::compile(&pattern);
        assert!(warm.matches(&prov), "the deep spine passes the policy");
        group.bench_with_input(BenchmarkId::new("memo_warm", depth), &depth, |b, _| {
            b.iter(|| {
                let view = filtered_view(&prov, &filter);
                warm.matches(&view.provenance)
            })
        });

        // From-scratch: filter the history literally, compile the policy,
        // walk the whole filtered spine cold.
        group.bench_with_input(BenchmarkId::new("from_scratch", depth), &depth, |b, _| {
            b.iter(|| {
                let filtered = Provenance::from_events(
                    prov.to_vec()
                        .into_iter()
                        .filter(|event| !filter.removes(event)),
                );
                CompiledPattern::compile(&pattern).matches(&filtered)
            })
        });
    }
    group.finish();
}

fn all(c: &mut Criterion) {
    bench_slice_extraction(c);
    bench_counterfactual(c);
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = all
}
criterion_main!(benches);
