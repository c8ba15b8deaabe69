//! Seeded input generators: the histories the workloads audit.
//!
//! Provenance spines are newest-first, as the calculus records them.

use crate::stats::Rng;
use piprov_core::name::{Channel, Principal};
use piprov_core::provenance::{Event, Provenance};
use piprov_core::value::Value;
use piprov_policy::{PackFile, PackSource};
use piprov_store::{Operation, ProvenanceRecord, ProvenanceStore};
use std::path::Path;

/// The shipped supply-chain pack's policies, by fully qualified name.
pub const SUPPLY_POLICIES: [&str; 3] = [
    "supply_chain::build::vendor_only",
    "supply_chain::build::relayed",
    "supply_chain::promotion::promotable",
];

/// Lots (shared older histories) items are cut from.
const LOTS: usize = 64;

/// Writes `records` into a fresh store at `dir`, bypassing the engine.
pub fn write_store(dir: &Path, records: &[ProvenanceRecord]) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut store = ProvenanceStore::open(dir).map_err(|e| format!("open store: {e}"))?;
    for record in records {
        store
            .append(record.clone())
            .map_err(|e| format!("append: {e}"))?;
    }
    store.sync().map_err(|e| format!("sync: {e}"))
}

/// The shipped `policies/supply_chain` pack, read from the repository.
pub fn supply_chain_pack() -> Result<PackSource, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../policies/supply_chain");
    PackSource::from_dir(&dir).map_err(|e| format!("read {}: {e}", dir.display()))
}

/// The value of supply-chain item `i`.
pub fn item_value(i: usize) -> Value {
    Value::Channel(Channel::new(format!("item{i}")))
}

/// The value of deep causal value `i`.
pub fn deep_value(i: usize) -> Value {
    Value::Channel(Channel::new(format!("deep{i}")))
}

fn ev_out(principal: &str) -> Event {
    Event::output(Principal::new(principal), Provenance::empty())
}

fn ev_in(principal: &str) -> Event {
    Event::input(Principal::new(principal), Provenance::empty())
}

/// `items` supply-chain items named `item{i}`: every record in order, and
/// each item's newest record.
///
/// An item is sent by a vendor out of one of 64 plant lots (shared older
/// histories), then handed through zero to three relays; about one in ten
/// passes through an unapproved broker.  One record per hop, so an item's
/// newest record carries its whole route.
pub fn supply_chain_items(
    rng: &mut Rng,
    items: usize,
) -> (Vec<ProvenanceRecord>, Vec<ProvenanceRecord>) {
    let lots: Vec<Provenance> = (0..LOTS)
        .map(|lot| {
            Provenance::from_events(vec![
                ev_in(&format!("line{}", lot % 5)),
                ev_out(&format!("plant{}", lot % 8)),
                ev_in(&format!("plant{}", lot % 8)),
                ev_out(&format!("mill{lot}")),
            ])
        })
        .collect();
    let mut history = Vec::new();
    let mut newest = Vec::with_capacity(items);
    for i in 0..items {
        let value = item_value(i);
        let vendor = format!("supplier{}", rng.below(4));
        let mut spine = lots[rng.below(LOTS)].prepend(ev_out(&vendor));
        let mut record = ProvenanceRecord::new(
            0,
            vendor.as_str(),
            Operation::Send,
            "ship",
            value.clone(),
            spine.clone(),
        );
        let relays = rng.below(4);
        let mut handlers: Vec<String> = (0..relays)
            .map(|_| format!("relay{}", rng.below(3)))
            .collect();
        if rng.chance(10) {
            handlers.insert(rng.below(relays + 1), "broker".to_string());
        }
        for (hop, handler) in handlers.iter().enumerate() {
            history.push(record);
            spine = spine.prepend(ev_in(handler));
            record = ProvenanceRecord::new(
                hop as u64 + 1,
                handler.as_str(),
                Operation::Receive,
                "ship",
                value.clone(),
                spine.clone(),
            );
        }
        newest.push(record.clone());
        history.push(record);
    }
    (history, newest)
}

/// The item's next hop after its newest record: a relay, or now and then
/// the broker.  Ingest batches are made of these, so a batch adds records
/// but no new index keys.
pub fn next_hop(rng: &mut Rng, newest: &ProvenanceRecord) -> ProvenanceRecord {
    let handler = if rng.chance(10) {
        "broker".to_string()
    } else {
        format!("relay{}", rng.below(3))
    };
    ProvenanceRecord::new(
        newest.logical_time + 1,
        handler.as_str(),
        Operation::Receive,
        "ship",
        newest.value.clone(),
        newest.provenance.prepend(ev_in(&handler)),
    )
}

/// The causal workload's pack: one policy whose verdict needs the whole
/// spine, and one that fails at the removable hop.
pub fn causal_pack() -> PackSource {
    PackSource::new(
        "causal",
        vec![PackFile::new(
            "deep.ppol",
            "# A vendor send, one inspection hop, then only the relay tier.\n\
             policy inspected = (s0 + s1 + s2 + s3)!Any; (d0 + d1 + d2 + d3 + d4 + d5 + d6 + d7)?Any; (relay?Any)*\n\
             # A vendor send straight onto the relay tier.\n\
             policy direct = (s0 + s1 + s2 + s3)!Any; (relay?Any)*\n",
        )],
    )
}

pub const CAUSAL_INSPECTED: &str = "causal::deep::inspected";
pub const CAUSAL_DIRECT: &str = "causal::deep::direct";

/// A deep causal value: its head vendor, its removable inspection hop,
/// and its one record.
#[derive(Debug, Clone)]
pub struct DeepValue {
    pub value: Value,
    pub vendor: Principal,
    pub inspector: Principal,
    pub record: ProvenanceRecord,
}

/// `values` values with e19's deep-spine shape: an accepting vendor head,
/// one removable inspection hop, and a `depth`-hop relay suffix every value
/// shares.
pub fn deep_values(rng: &mut Rng, values: usize, depth: usize) -> Vec<DeepValue> {
    let suffix = Provenance::from_events((0..depth).map(|_| ev_in("relay")));
    (0..values)
        .map(|i| {
            let vendor = format!("s{}", rng.below(4));
            let inspector = format!("d{}", rng.below(8));
            let spine = suffix.prepend(ev_in(&inspector)).prepend(ev_out(&vendor));
            let value = deep_value(i);
            DeepValue {
                record: ProvenanceRecord::new(
                    i as u64,
                    vendor.as_str(),
                    Operation::Send,
                    "ship",
                    value.clone(),
                    spine,
                ),
                value,
                vendor: Principal::new(vendor),
                inspector: Principal::new(inspector),
            }
        })
        .collect()
}
