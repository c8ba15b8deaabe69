//! The store's copy-on-write view against a model.
//!
//! Random programs append, pin views, compact and reopen a store whose
//! small segment budget forces rotations.  The model is the plain list of
//! records each view should hold.  After every program
//!
//! * the live view, every pinned view and a reopened store's view hold
//!   exactly their model's records, in sequence order;
//! * `get(seq)` agrees with the model for every sequence up to one past
//!   the watermark (so sequence gaps left by compaction stay misses);
//! * every posting list equals a from-scratch `SharedStoreIndex::rebuild`
//!   of the model.

use piprov_core::name::{Channel, Principal};
use piprov_core::provenance::{Event, Provenance};
use piprov_core::value::Value;
use piprov_store::{
    Operation, ProvenanceRecord, ProvenanceStore, SharedStoreIndex, StoreConfig, StoreView,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const PRINCIPALS: u8 = 4;
const CHANNELS: u8 = 3;
const VALUES: u8 = 6;

#[derive(Debug, Clone)]
enum Op {
    Append {
        principal: u8,
        channel: u8,
        value: u8,
    },
    /// Keep `store.view()` together with a copy of the model.
    Pin,
    /// Compact away every record whose acting principal is this one.
    Compact {
        dropped: u8,
    },
    Reopen,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0..PRINCIPALS, 0..CHANNELS, 0..VALUES).prop_map(|(principal, channel, value)| {
            Op::Append { principal, channel, value }
        }),
        2 => Just(Op::Pin),
        1 => (0..PRINCIPALS).prop_map(|dropped| Op::Compact { dropped }),
        1 => Just(Op::Reopen),
    ]
}

fn principal(i: u8) -> Principal {
    Principal::new(format!("p{i}"))
}

fn channel(i: u8) -> Channel {
    Channel::new(format!("c{i}"))
}

fn value(i: u8) -> Value {
    Value::Channel(Channel::new(format!("v{i}")))
}

/// A record whose provenance names the next principal as the sender, so
/// the involved-principal postings differ from the acting ones.
fn record(p: u8, c: u8, v: u8) -> ProvenanceRecord {
    let sender = principal((p + 1) % PRINCIPALS);
    ProvenanceRecord::new(
        0,
        principal(p),
        Operation::Receive,
        channel(c),
        value(v),
        Provenance::single(Event::output(sender, Provenance::empty())),
    )
}

fn temp_dir() -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("piprov-view-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn check(view: &StoreView, model: &[ProvenanceRecord], what: &str) {
    let held: Vec<&ProvenanceRecord> = view.iter().collect();
    assert_eq!(held, model.iter().collect::<Vec<_>>(), "{what}: records");
    assert_eq!(view.len(), model.len(), "{what}: len");
    let watermark = model.last().map_or(0, |r| r.sequence);
    assert_eq!(view.watermark(), watermark, "{what}: watermark");
    for seq in 0..=watermark + 1 {
        assert_eq!(
            view.get(seq),
            model.iter().find(|r| r.sequence == seq),
            "{what}: get({seq})"
        );
    }

    let index = view.index();
    let expected = SharedStoreIndex::rebuild(model);
    assert!(index.principals().eq(expected.principals()), "{what}");
    assert!(index.channels().eq(expected.channels()), "{what}");
    assert!(index.values().eq(expected.values()), "{what}");
    for p in (0..PRINCIPALS).map(principal) {
        assert_eq!(index.by_principal(&p), expected.by_principal(&p), "{what}");
        assert_eq!(
            index.by_involved_principal(&p),
            expected.by_involved_principal(&p),
            "{what}"
        );
    }
    for c in (0..CHANNELS).map(channel) {
        assert_eq!(index.by_channel(&c), expected.by_channel(&c), "{what}");
    }
    for v in (0..VALUES).map(value) {
        assert_eq!(index.by_value(&v), expected.by_value(&v), "{what}");
    }
    assert_eq!(index.entry_count(), expected.entry_count(), "{what}");
}

proptest! {
    // 64 cases by default; PIPROV_PROPTEST_CASES overrides.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn live_pinned_and_reopened_views_match_the_model(
        program in proptest::collection::vec(arb_op(), 0..64),
    ) {
        let dir = temp_dir();
        let config = StoreConfig {
            segment_budget: 512,
        };
        let mut store = ProvenanceStore::open_with(&dir, config.clone()).unwrap();
        let mut model: Vec<ProvenanceRecord> = Vec::new();
        let mut pins: Vec<(Arc<StoreView>, Vec<ProvenanceRecord>)> = Vec::new();
        for op in &program {
            match *op {
                Op::Append { principal, channel, value } => {
                    let mut appended = record(principal, channel, value);
                    appended.sequence = store.append(appended.clone()).unwrap();
                    model.push(appended);
                }
                Op::Pin => pins.push((store.view(), model.clone())),
                Op::Compact { dropped } => {
                    let dropped = principal(dropped);
                    store.compact(|r| r.principal != dropped).unwrap();
                    model.retain(|r| r.principal != dropped);
                }
                Op::Reopen => {
                    drop(store);
                    store = ProvenanceStore::open_with(&dir, config.clone()).unwrap();
                }
            }
        }

        check(&store.view(), &model, "live");
        for (i, (view, pinned_model)) in pins.iter().enumerate() {
            check(view, pinned_model, &format!("pin {i}"));
        }
        drop(store);
        let reopened = ProvenanceStore::open_with(&dir, config).unwrap();
        check(&reopened.view(), &model, "reopened");
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }
}
