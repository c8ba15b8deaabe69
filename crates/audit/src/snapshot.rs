//! MVCC snapshots: the immutable state an audit query reads.
//!
//! An [`EngineSnapshot`] is the store's own [`piprov_store::StoreView`]: a
//! frozen, internally consistent view of the record log at one
//! **watermark** (the highest sequence number it contains).  There is no
//! second copy of the records: the ingest path appends a batch to the
//! store, whose copy-on-write view shares every existing record chunk and
//! every untouched posting list with the one last published, and then
//! publishes [`piprov_store::ProvenanceStore::view`] with a single `Arc`
//! swap.  Auditors therefore never observe a half-applied batch: every
//! response is explained by exactly one published watermark.

use std::sync::{Arc, RwLock};

/// An immutable, internally consistent view of the engine's record log at
/// one watermark.
///
/// All audit request kinds answer entirely from a snapshot, and the store
/// itself — including the engine's lock around it — is never touched.
/// Snapshots are cheap to hold: pin one (via
/// [`crate::AuditEngine::snapshot`]) and every query served through
/// [`crate::AuditEngine::handle_at`] sees the same frozen state, however
/// much ingest lands in the meantime.
pub type EngineSnapshot = piprov_store::StoreView;

/// A publication point: readers load the current value, a writer swaps
/// in the next one.  The engine publishes its snapshots and its policy
/// sets ([`crate::registry`]) through one each.
///
/// Publication is a single `Arc` pointer swap under a reader-writer latch
/// held only for the swap itself (writers) or an `Arc` clone (readers) —
/// nanoseconds either way, and crucially **independent of batch size**:
/// the next snapshot is built by the store's appends, outside the latch,
/// so a reader is never blocked behind a batch being applied, which is
/// exactly the starvation the old design (queries behind the store's
/// reader-writer lock) suffered.  A swap cannot leave the value half
/// written, so a poisoned latch is used as it stands.
#[derive(Debug)]
pub(crate) struct Published<T> {
    current: RwLock<Arc<T>>,
}

impl<T> Published<T> {
    pub(crate) fn new(value: Arc<T>) -> Self {
        Published {
            current: RwLock::new(value),
        }
    }

    /// The currently published value.
    pub(crate) fn load(&self) -> Arc<T> {
        match self.current.read() {
            Ok(guard) => Arc::clone(&guard),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    /// Atomically replaces the published value.
    pub(crate) fn publish(&self, value: Arc<T>) {
        match self.current.write() {
            Ok(mut guard) => *guard = value,
            Err(poisoned) => *poisoned.into_inner() = value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piprov_core::name::{Channel, Principal};
    use piprov_core::provenance::{Event, Provenance};
    use piprov_core::value::Value;
    use piprov_store::{Operation, ProvenanceRecord, ProvenanceStore};

    fn record(who: &str, value: &str) -> ProvenanceRecord {
        ProvenanceRecord::new(
            0,
            who,
            Operation::Send,
            "m",
            Value::Channel(Channel::new(value)),
            Provenance::single(Event::output(Principal::new(who), Provenance::empty())),
        )
    }

    #[test]
    fn cell_publishes_atomically_and_pinned_snapshots_survive() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("piprov-audit-{}-cell", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = ProvenanceStore::open(&dir).unwrap();
        store.append(record("a", "v")).unwrap();
        let cell = Published::new(store.view());
        let pinned = cell.load();
        store.append(record("b", "w")).unwrap();
        assert_eq!(cell.load().watermark(), 1, "nothing published yet");
        cell.publish(store.view());
        assert_eq!(pinned.watermark(), 1, "a pinned snapshot stays frozen");
        assert_eq!(pinned.len(), 1);
        assert_eq!(cell.load().watermark(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
