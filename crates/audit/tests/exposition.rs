//! Drift guard for the Prometheus exposition: every stats field the
//! engine exports must surface in the rendered text, in the
//! `EngineStats` `Display`, and stay renderable/lintable as the structs
//! grow.
//!
//! The guard is two-layered:
//!
//! * **compile-time** — this test (like the renderer, the `Display`
//!   impl, and the wire codec) destructures every stats struct
//!   *exhaustively*, with no `..` rest pattern: adding a field to any of
//!   them breaks the build here until the exposition is taught about it;
//! * **run-time** — each field carries a unique sentinel value and the
//!   test asserts that sentinel appears as a sample value (or label) in
//!   the rendered text, so a field that compiles but is silently dropped
//!   from the output still fails.

use piprov_audit::{
    render_exposition, render_exposition_with, validate_exposition, AuditEngine, EngineStats,
    Exemplar, ExpositionOptions, HistogramSnapshot, MetricsSnapshot, PolicySnapshot, SpanKind,
    LATENCY_BUCKET_BOUNDS_NS,
};
use piprov_core::provenance::InternerStats;
use piprov_patterns::MemoStats;
use piprov_store::StoreStats;

/// Hands out unique, recognisable sentinel values: no two fields share
/// one, so a transposed pair of fields fails the run-time check too.
struct Sentinels(u64);

impl Sentinels {
    fn next(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }
}

fn sentinel_snapshot() -> (MetricsSnapshot, Vec<u64>) {
    let mut s = Sentinels(9_000_000);
    let mut plain = Vec::new();
    let mut take = |s: &mut Sentinels| {
        let v = s.next();
        plain.push(v);
        v
    };

    let engine = EngineStats {
        requests: take(&mut s),
        ingested: take(&mut s),
        vets_passed: take(&mut s),
        vets_failed: take(&mut s),
        index_hits: take(&mut s),
        memo_hits: take(&mut s),
        ingest_batches: take(&mut s),
        busy_rejections: take(&mut s),
        queue_depth: take(&mut s),
        snapshots_published: take(&mut s),
        snapshot_lag: take(&mut s),
        watermark: take(&mut s),
    };
    let store = StoreStats {
        records: take(&mut s) as usize,
        segments: take(&mut s) as usize,
        bytes: take(&mut s) as usize,
    };
    let interner = InternerStats {
        interned_nodes: take(&mut s) as usize,
        hits: take(&mut s),
        misses: take(&mut s),
    };
    let memo = MemoStats {
        entries: take(&mut s) as usize,
        bound: take(&mut s) as usize,
        epochs: take(&mut s),
        hits: take(&mut s),
        misses: take(&mut s),
        retained: take(&mut s),
    };
    let vets_unknown_pattern = take(&mut s);
    // Histogram fields surface transformed (cumulative buckets, seconds
    // sum), so they are asserted structurally, not by raw sentinel.
    let latency = HistogramSnapshot {
        counts: (1..=LATENCY_BUCKET_BOUNDS_NS.len() as u64).collect(),
        overflow: 3,
        sum_ns: 1_234_567_890,
        count: (1..=LATENCY_BUCKET_BOUNDS_NS.len() as u64).sum::<u64>() + 3,
        exemplars: Vec::new(),
    };
    let policy = PolicySnapshot {
        policy: "sentinel-policy".into(),
        memo,
        vets_passed: take(&mut s),
        vets_failed: take(&mut s),
        vets_unknown_value: take(&mut s),
        counterfactuals: take(&mut s),
        counterfactual_flips: take(&mut s),
        latency,
    };
    // The stage histograms are one family labelled by stage; like the
    // per-policy latency they are asserted structurally below.
    let stages = SpanKind::ALL
        .into_iter()
        .zip(1u64..)
        .map(|(stage, i)| {
            let histogram = HistogramSnapshot {
                counts: vec![i; LATENCY_BUCKET_BOUNDS_NS.len()],
                overflow: i,
                sum_ns: i * 1_000_000_000,
                count: (LATENCY_BUCKET_BOUNDS_NS.len() as u64 + 1) * i,
                exemplars: Vec::new(),
            };
            (stage, histogram)
        })
        .collect();
    let snapshot = MetricsSnapshot {
        engine,
        store,
        interner,
        vets_unknown_pattern,
        stages,
        uptime_seconds: take(&mut s),
        connections_accepted: take(&mut s),
        connections_closed: take(&mut s),
        open_connections: take(&mut s),
        policies: vec![policy],
    };
    (snapshot, plain)
}

#[test]
fn every_stats_field_surfaces_in_the_exposition() {
    let (snapshot, sentinels) = sentinel_snapshot();
    let text = render_exposition(&snapshot);
    validate_exposition(&text).expect("sentinel exposition lints clean");

    for sentinel in &sentinels {
        assert!(
            text.contains(&format!(" {}\n", sentinel)),
            "sentinel {} (a stats field) is missing from the exposition:\n{}",
            sentinel,
            text
        );
    }
    // No two plain fields shared a sentinel, so N fields ⇒ N values.
    assert_eq!(
        sentinels.len(),
        12 + 3 + 3 + 6 + 1 + 5 + 4,
        "engine + store + interner + memo + unknown-pattern \
         + policy verdicts/counterfactuals + serving lifecycle"
    );

    // Histogram: one bucket line per bound plus +Inf, cumulative counts,
    // an exact-decimal seconds sum, and a matching count.
    let policy = &snapshot.policies[0];
    let bucket_lines = text
        .lines()
        .filter(|l| l.starts_with("piprov_vet_latency_seconds_bucket{"))
        .count();
    assert_eq!(bucket_lines, LATENCY_BUCKET_BOUNDS_NS.len() + 1);
    assert!(text.contains(&format!(
        "piprov_vet_latency_seconds_bucket{{policy=\"sentinel-policy\",le=\"+Inf\"}} {}\n",
        policy.latency.count
    )));
    assert!(
        text.contains("piprov_vet_latency_seconds_sum{policy=\"sentinel-policy\"} 1.23456789\n")
    );
    assert!(text.contains(&format!(
        "piprov_vet_latency_seconds_count{{policy=\"sentinel-policy\"}} {}\n",
        policy.latency.count
    )));

    // Every stage renders one series of the stage family with the same
    // bucket schedule; each is pinned by its +Inf/count/sum so a
    // transposed pair of stages fails too.
    assert_eq!(snapshot.stages.len(), SpanKind::ALL.len());
    for (stage, histogram) in &snapshot.stages {
        let series = format!("stage=\"{}\"", stage.name());
        let bucket_lines = text
            .lines()
            .filter(|l| l.starts_with(&format!("piprov_stage_seconds_bucket{{{},", series)))
            .count();
        assert_eq!(
            bucket_lines,
            LATENCY_BUCKET_BOUNDS_NS.len() + 1,
            "{}",
            series
        );
        assert!(text.contains(&format!(
            "piprov_stage_seconds_bucket{{{},le=\"+Inf\"}} {}\n",
            series, histogram.count
        )));
        assert!(text.contains(&format!(
            "piprov_stage_seconds_count{{{}}} {}\n",
            series, histogram.count
        )));
        assert!(text.contains(&format!(
            "piprov_stage_seconds_sum{{{}}} {}.0\n",
            series,
            histogram.sum_ns / 1_000_000_000
        )));
    }
}

#[test]
fn engine_stats_display_names_every_field() {
    let (snapshot, _) = sentinel_snapshot();
    // Exhaustive destructure: a new EngineStats field breaks this test at
    // compile time until Display (checked below) and the exposition
    // (checked above) learn about it.
    let EngineStats {
        requests,
        ingested,
        vets_passed,
        vets_failed,
        index_hits,
        memo_hits,
        ingest_batches,
        busy_rejections,
        queue_depth,
        snapshots_published,
        snapshot_lag,
        watermark,
    } = snapshot.engine;
    let rendered = snapshot.engine.to_string();
    for (name, value) in [
        ("requests", requests),
        ("ingested", ingested),
        ("vets_passed", vets_passed),
        ("vets_failed", vets_failed),
        ("index_hits", index_hits),
        ("memo_hits", memo_hits),
        ("ingest_batches", ingest_batches),
        ("busy_rejections", busy_rejections),
        ("queue_depth", queue_depth),
        ("snapshots_published", snapshots_published),
        ("snapshot_lag", snapshot_lag),
        ("watermark", watermark),
    ] {
        assert!(
            rendered.contains(&value.to_string()),
            "EngineStats Display dropped {} ({}): {}",
            name,
            value,
            rendered
        );
    }
}

#[test]
fn the_exposition_golden_shape_is_stable() {
    // Not a byte-for-byte golden (that would churn on every new metric);
    // instead the *contract* pieces scrapers depend on are pinned: every
    // family announced before sampled, `# TYPE` kinds, stable names.
    let (snapshot, _) = sentinel_snapshot();
    let text = render_exposition(&snapshot);
    for family in [
        "piprov_requests_total",
        "piprov_ingested_total",
        "piprov_vets_passed_total",
        "piprov_vets_failed_total",
        "piprov_vets_unknown_pattern_total",
        "piprov_index_hits_total",
        "piprov_memo_hits_total",
        "piprov_ingest_batches_total",
        "piprov_busy_rejections_total",
        "piprov_queue_depth",
        "piprov_snapshots_published_total",
        "piprov_snapshot_lag",
        "piprov_watermark",
        "piprov_store_records",
        "piprov_store_segments",
        "piprov_store_bytes",
        "piprov_interner_nodes",
        "piprov_interner_hits_total",
        "piprov_interner_misses_total",
        "piprov_policy_vets_passed_total",
        "piprov_policy_vets_failed_total",
        "piprov_policy_vets_unknown_value_total",
        "piprov_policy_memo_entries",
        "piprov_policy_memo_bound",
        "piprov_policy_memo_epochs_total",
        "piprov_policy_memo_hits_total",
        "piprov_policy_memo_misses_total",
        "piprov_policy_memo_retained_total",
        "piprov_vet_latency_seconds",
        "piprov_stage_seconds",
        "piprov_uptime_seconds",
        "piprov_connections_accepted_total",
        "piprov_connections_closed_total",
        "piprov_open_connections",
    ] {
        assert!(
            text.contains(&format!("# TYPE {} ", family)),
            "family {} lost its TYPE line",
            family
        );
        let type_at = text
            .find(&format!("# TYPE {} ", family))
            .expect("asserted above");
        let sample_at = text
            .find(&format!("\n{}", family))
            .unwrap_or_else(|| panic!("family {} has no sample", family));
        assert!(
            type_at < sample_at,
            "family {} sampled before announced",
            family
        );
    }
    // Counters end in _total; gauges and histograms don't lie about it.
    for line in text.lines().filter(|l| l.starts_with("# TYPE ")) {
        let mut parts = line.split_whitespace().skip(2);
        let (name, kind) = (parts.next().unwrap(), parts.next().unwrap());
        match kind {
            "counter" => assert!(
                name.ends_with("_total"),
                "counter {} should end in _total",
                name
            ),
            "gauge" => assert!(!name.ends_with("_total"), "gauge {} ends in _total", name),
            "histogram" => assert!(
                ["piprov_vet_latency_seconds", "piprov_stage_seconds"].contains(&name),
                "unexpected histogram family {}",
                name
            ),
            other => panic!("unexpected metric kind {} for {}", other, name),
        }
    }
}

#[test]
fn an_empty_registry_renders_a_lintable_exposition() {
    let snapshot = MetricsSnapshot {
        engine: EngineStats::default(),
        store: StoreStats::default(),
        interner: InternerStats {
            interned_nodes: 0,
            hits: 0,
            misses: 0,
        },
        vets_unknown_pattern: 0,
        stages: Vec::new(),
        uptime_seconds: 0,
        connections_accepted: 0,
        connections_closed: 0,
        open_connections: 0,
        policies: Vec::new(),
    };
    let text = render_exposition(&snapshot);
    validate_exposition(&text).expect("empty exposition lints clean");
    assert!(text.contains("piprov_requests_total 0\n"));
    assert!(
        !text.contains("piprov_policy_vets_passed_total{"),
        "no policies ⇒ no per-policy samples"
    );
}

#[test]
fn exemplars_are_opt_in_and_keep_the_exposition_lintable() {
    let (mut snapshot, _) = sentinel_snapshot();
    let decode = &mut snapshot.stages[1].1;
    decode.exemplars = vec![None; LATENCY_BUCKET_BOUNDS_NS.len()];
    decode.exemplars[0] = Some(Exemplar {
        trace_id: 0xfeed_beef_dead_cafe_0123_4567_89ab_cdef,
        value_ns: 750,
    });

    let plain = render_exposition(&snapshot);
    validate_exposition(&plain).expect("plain exposition lints clean");
    assert!(
        !plain.contains(" # {"),
        "exemplars must stay off the default rendering"
    );

    let annotated = render_exposition_with(&snapshot, &ExpositionOptions { exemplars: true });
    validate_exposition(&annotated).expect("exemplar exposition lints clean");
    let line = annotated
        .lines()
        .find(|l| l.contains(" # {trace_id="))
        .expect("an exemplar-annotated bucket line");
    assert!(
        line.starts_with("piprov_stage_seconds_bucket{stage=\"decode\","),
        "exemplars ride only on bucket samples: {}",
        line
    );
    assert!(
        line.contains("trace_id=\"feedbeefdeadcafe0123456789abcdef\""),
        "exemplar trace id renders as 32 hex digits: {}",
        line
    );
}

/// The per-policy vet-latency family, every line of it, from a fixed
/// snapshot: dashboards and the CI scrape key on these bytes, so a
/// renderer refactor must leave them exactly as they are.
#[test]
fn the_vet_latency_family_renders_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("piprov-exposition-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut snapshot = AuditEngine::open(&dir).unwrap().metrics();
    std::fs::remove_dir_all(&dir).ok();
    let mut counts = vec![0; LATENCY_BUCKET_BOUNDS_NS.len()];
    counts[0] = 1;
    counts[3] = 2;
    counts[15] = 1;
    let mut exemplars = vec![None; LATENCY_BUCKET_BOUNDS_NS.len() + 1];
    exemplars[3] = Some(Exemplar {
        trace_id: 0xabc,
        value_ns: 2_000,
    });
    exemplars[LATENCY_BUCKET_BOUNDS_NS.len()] = Some(Exemplar {
        trace_id: u128::MAX,
        value_ns: 10_000_000_000,
    });
    let policy = |name: &str, latency: HistogramSnapshot| PolicySnapshot {
        policy: name.into(),
        memo: MemoStats {
            entries: 0,
            bound: 0,
            epochs: 0,
            hits: 0,
            misses: 0,
            retained: 0,
        },
        vets_passed: 0,
        vets_failed: 0,
        vets_unknown_value: 0,
        counterfactuals: 0,
        counterfactual_flips: 0,
        latency,
    };
    snapshot.policies = vec![
        policy(
            "alpha",
            HistogramSnapshot {
                counts,
                overflow: 1,
                sum_ns: 9_000_123,
                count: 5,
                exemplars,
            },
        ),
        policy("q\"uote\\", HistogramSnapshot::default()),
    ];
    let family = |text: String| -> String {
        text.lines()
            .filter(|l| l.contains("piprov_vet_latency_seconds"))
            .map(|l| format!("{}\n", l))
            .collect()
    };
    let plain = family(render_exposition(&snapshot));
    assert_eq!(
        plain,
        "# HELP piprov_vet_latency_seconds Vet request latency through the engine, per policy.
# TYPE piprov_vet_latency_seconds histogram
piprov_vet_latency_seconds_bucket{policy=\"alpha\",le=\"0.000000256\"} 1
piprov_vet_latency_seconds_bucket{policy=\"alpha\",le=\"0.000000512\"} 1
piprov_vet_latency_seconds_bucket{policy=\"alpha\",le=\"0.000001024\"} 1
piprov_vet_latency_seconds_bucket{policy=\"alpha\",le=\"0.000002048\"} 3
piprov_vet_latency_seconds_bucket{policy=\"alpha\",le=\"0.000004096\"} 3
piprov_vet_latency_seconds_bucket{policy=\"alpha\",le=\"0.000008192\"} 3
piprov_vet_latency_seconds_bucket{policy=\"alpha\",le=\"0.000016384\"} 3
piprov_vet_latency_seconds_bucket{policy=\"alpha\",le=\"0.000032768\"} 3
piprov_vet_latency_seconds_bucket{policy=\"alpha\",le=\"0.000065536\"} 3
piprov_vet_latency_seconds_bucket{policy=\"alpha\",le=\"0.000131072\"} 3
piprov_vet_latency_seconds_bucket{policy=\"alpha\",le=\"0.000262144\"} 3
piprov_vet_latency_seconds_bucket{policy=\"alpha\",le=\"0.000524288\"} 3
piprov_vet_latency_seconds_bucket{policy=\"alpha\",le=\"0.001048576\"} 3
piprov_vet_latency_seconds_bucket{policy=\"alpha\",le=\"0.002097152\"} 3
piprov_vet_latency_seconds_bucket{policy=\"alpha\",le=\"0.004194304\"} 3
piprov_vet_latency_seconds_bucket{policy=\"alpha\",le=\"0.008388608\"} 4
piprov_vet_latency_seconds_bucket{policy=\"alpha\",le=\"+Inf\"} 5
piprov_vet_latency_seconds_sum{policy=\"alpha\"} 0.009000123
piprov_vet_latency_seconds_count{policy=\"alpha\"} 5
piprov_vet_latency_seconds_bucket{policy=\"q\\\"uote\\\\\",le=\"+Inf\"} 0
piprov_vet_latency_seconds_sum{policy=\"q\\\"uote\\\\\"} 0.0
piprov_vet_latency_seconds_count{policy=\"q\\\"uote\\\\\"} 0
"
    );
    let annotated = family(render_exposition_with(
        &snapshot,
        &ExpositionOptions { exemplars: true },
    ));
    let expected = plain
        .replace(
            "le=\"0.000002048\"} 3\n",
            "le=\"0.000002048\"} 3 # {trace_id=\"00000000000000000000000000000abc\"} 0.000002\n",
        )
        .replace(
            "policy=\"alpha\",le=\"+Inf\"} 5\n",
            "policy=\"alpha\",le=\"+Inf\"} 5 # {trace_id=\"ffffffffffffffffffffffffffffffff\"} 10.0\n",
        );
    assert_ne!(expected, plain, "both exemplars are placed");
    assert_eq!(annotated, expected);
}
