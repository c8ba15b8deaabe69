//! In-memory secondary indexes over the record log.
//!
//! The store keeps the authoritative data in its append-only segments; the
//! index here is rebuilt on recovery by scanning the segments and is used
//! to answer audit queries without a full scan.
//!
//! There is one index type, [`SharedStoreIndex`], and it lives inside the
//! store's copy-on-write [`crate::StoreView`].  Every posting list sits
//! behind an [`Arc`]: while nobody else holds a bucket, [`insert`]
//! appends to it in place; once a published view shares it, the first
//! insert that touches it copies it ([`Arc::make_mut`]).  A view cloned
//! for the next append therefore shares every bucket its batch does not
//! touch with its predecessor.
//!
//! [`insert`]: SharedStoreIndex::insert

use crate::record::{ProvenanceRecord, SequenceNumber};
use piprov_core::name::{Channel, Principal};
use piprov_core::value::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One posting list: copy-on-write, so unshared buckets grow in place and
/// shared ones are copied exactly when touched.
type Bucket = Arc<Vec<SequenceNumber>>;

/// Appends `seq` unless it is already the tail entry: sequence numbers
/// arrive in ascending order (appends are monotone; rebuilds replay in
/// sequence order), so a record that maps to the same key several times —
/// or an insert replayed for a record already indexed — only ever tries to
/// append the sequence number the list already ends with, and checking the
/// tail suffices.  The check comes first, so a replay never copies a
/// shared bucket.
fn push_unique(bucket: &mut Bucket, seq: SequenceNumber) {
    if bucket.last() != Some(&seq) {
        Arc::make_mut(bucket).push(seq);
    }
}

fn postings<'a, K: Ord>(map: &'a BTreeMap<K, Bucket>, key: &K) -> &'a [SequenceNumber] {
    map.get(key).map(|bucket| bucket.as_slice()).unwrap_or(&[])
}

fn entries<K>(map: &BTreeMap<K, Bucket>) -> usize {
    map.values().map(|bucket| bucket.len()).sum()
}

/// Secondary indexes mapping principals, channels and values to the
/// sequence numbers of the records that mention them.
///
/// Cloning copies only the map skeletons (one `Arc` clone per key), and
/// [`SharedStoreIndex::extended`] copies just the posting lists its batch
/// touches, so consecutive versions share the overwhelming majority of
/// their buckets.
#[derive(Debug, Clone, Default)]
pub struct SharedStoreIndex {
    by_principal: BTreeMap<Principal, Bucket>,
    by_channel: BTreeMap<Channel, Bucket>,
    by_value: BTreeMap<Value, Bucket>,
    /// Principals that appear anywhere in a record's provenance, not just
    /// as the acting principal.
    by_involved_principal: BTreeMap<Principal, Bucket>,
}

impl SharedStoreIndex {
    /// An empty index.
    pub fn new() -> Self {
        SharedStoreIndex::default()
    }

    /// Indexes one record, in place.
    ///
    /// Posting lists stay duplicate-free as long as records arrive in
    /// ascending sequence order (see the tail check above), which is how
    /// the store appends and recovers them.
    pub fn insert(&mut self, record: &ProvenanceRecord) {
        let seq = record.sequence;
        push_unique(
            self.by_principal
                .entry(record.principal.clone())
                .or_default(),
            seq,
        );
        push_unique(
            self.by_channel.entry(record.channel.clone()).or_default(),
            seq,
        );
        push_unique(self.by_value.entry(record.value.clone()).or_default(), seq);
        for p in record.principals_involved() {
            push_unique(self.by_involved_principal.entry(p).or_default(), seq);
        }
    }

    /// Builds an index from scratch.
    pub fn rebuild<'a>(records: impl IntoIterator<Item = &'a ProvenanceRecord>) -> Self {
        let mut index = SharedStoreIndex::new();
        for r in records {
            index.insert(r);
        }
        index
    }

    /// A new index covering `self`'s records plus `records`, sharing every
    /// bucket the batch does not touch with `self` (verifiable with
    /// [`SharedStoreIndex::value_bucket`] / `Arc::ptr_eq`).
    pub fn extended<'a>(&self, records: impl IntoIterator<Item = &'a ProvenanceRecord>) -> Self {
        let mut next = self.clone();
        for r in records {
            next.insert(r);
        }
        next
    }

    /// Sequence numbers of records where `principal` acted.
    pub fn by_principal(&self, principal: &Principal) -> &[SequenceNumber] {
        postings(&self.by_principal, principal)
    }

    /// Sequence numbers of records on `channel`.
    pub fn by_channel(&self, channel: &Channel) -> &[SequenceNumber] {
        postings(&self.by_channel, channel)
    }

    /// Sequence numbers of records whose exchanged value is `value`.
    pub fn by_value(&self, value: &Value) -> &[SequenceNumber] {
        postings(&self.by_value, value)
    }

    /// Sequence numbers of records whose provenance mentions `principal`
    /// anywhere (acting or historical).
    pub fn by_involved_principal(&self, principal: &Principal) -> &[SequenceNumber] {
        postings(&self.by_involved_principal, principal)
    }

    /// All principals that ever acted.
    pub fn principals(&self) -> impl Iterator<Item = &Principal> {
        self.by_principal.keys()
    }

    /// All channels that ever carried a value.
    pub fn channels(&self) -> impl Iterator<Item = &Channel> {
        self.by_channel.keys()
    }

    /// All distinct values ever exchanged.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.by_value.keys()
    }

    /// Number of acting-principal, channel and value entries (for
    /// introspection and tests).
    pub fn entry_count(&self) -> usize {
        entries(&self.by_principal) + entries(&self.by_channel) + entries(&self.by_value)
    }

    /// The shared bucket behind [`SharedStoreIndex::by_value`], exposed so
    /// sharing across extended indexes is checkable (`Arc::ptr_eq`).
    pub fn value_bucket(&self, value: &Value) -> Option<&Arc<Vec<SequenceNumber>>> {
        self.by_value.get(value)
    }

    /// The shared bucket behind [`SharedStoreIndex::by_principal`], exposed
    /// so sharing across extended indexes is checkable (`Arc::ptr_eq`).
    pub fn principal_bucket(&self, principal: &Principal) -> Option<&Arc<Vec<SequenceNumber>>> {
        self.by_principal.get(principal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Operation;
    use piprov_core::provenance::{Event, Provenance};

    fn record(seq: u64, principal: &str, channel: &str, value: &str) -> ProvenanceRecord {
        ProvenanceRecord {
            sequence: seq,
            logical_time: seq,
            principal: Principal::new(principal),
            operation: Operation::Send,
            channel: Channel::new(channel),
            value: Value::Channel(Channel::new(value)),
            provenance: Provenance::single(Event::output(
                Principal::new("origin"),
                Provenance::empty(),
            )),
        }
    }

    #[test]
    fn indexes_by_all_dimensions() {
        let records = vec![
            record(1, "a", "m", "v"),
            record(2, "b", "m", "w"),
            record(3, "a", "n", "v"),
        ];
        let index = SharedStoreIndex::rebuild(&records);
        assert_eq!(index.by_principal(&Principal::new("a")), &[1, 3]);
        assert_eq!(index.by_principal(&Principal::new("b")), &[2]);
        assert_eq!(index.by_channel(&Channel::new("m")), &[1, 2]);
        assert_eq!(index.by_value(&Value::Channel(Channel::new("v"))), &[1, 3]);
        assert!(index.by_principal(&Principal::new("zz")).is_empty());
        assert_eq!(index.principals().count(), 2);
        assert_eq!(index.channels().count(), 2);
        assert_eq!(index.values().count(), 2);
        assert_eq!(index.entry_count(), 9);
    }

    #[test]
    fn posting_lists_stay_duplicate_free() {
        // A record whose provenance mentions the same value's carriers
        // repeatedly still yields one posting per list, and replaying the
        // same record through insert (as a segment replay that revisits a
        // frame would) cannot double-count it.
        let km = Provenance::single(Event::output(Principal::new("origin"), Provenance::empty()));
        let r = ProvenanceRecord {
            sequence: 7,
            logical_time: 7,
            principal: Principal::new("origin"),
            operation: Operation::Send,
            channel: Channel::new("m"),
            value: Value::Channel(Channel::new("v")),
            // origin appears as actor, as a top-level event and nested in
            // the channel provenance of a later event.
            provenance: Provenance::single(Event::output(Principal::new("origin"), km)),
        };
        let mut index = SharedStoreIndex::new();
        index.insert(&r);
        index.insert(&r);
        assert_eq!(index.by_principal(&Principal::new("origin")), &[7]);
        assert_eq!(index.by_channel(&Channel::new("m")), &[7]);
        assert_eq!(index.by_value(&Value::Channel(Channel::new("v"))), &[7]);
        assert_eq!(index.by_involved_principal(&Principal::new("origin")), &[7]);
        assert_eq!(index.entry_count(), 3);
    }

    #[test]
    fn extended_shares_untouched_buckets_and_copies_touched_ones() {
        let base = SharedStoreIndex::rebuild(&[record(1, "a", "m", "v"), record(2, "b", "m", "w")]);
        // The batch touches value w (and principal b) but not value v.
        let next = base.extended(&[record(3, "b", "m", "w")]);

        let v = Value::Channel(Channel::new("v"));
        let w = Value::Channel(Channel::new("w"));
        assert!(
            Arc::ptr_eq(
                base.value_bucket(&v).unwrap(),
                next.value_bucket(&v).unwrap()
            ),
            "untouched bucket is shared, not copied"
        );
        assert!(
            !Arc::ptr_eq(
                base.value_bucket(&w).unwrap(),
                next.value_bucket(&w).unwrap()
            ),
            "touched bucket is copied"
        );
        assert!(Arc::ptr_eq(
            base.principal_bucket(&Principal::new("a")).unwrap(),
            next.principal_bucket(&Principal::new("a")).unwrap()
        ));
        // The base index is immutable: extending never mutates it.
        assert_eq!(base.by_value(&w), &[2]);
        assert_eq!(next.by_value(&w), &[2, 3]);
        assert_eq!(next.by_value(&v), &[1]);
        // Extending matches a from-scratch rebuild.
        let rebuilt = SharedStoreIndex::rebuild(&[
            record(1, "a", "m", "v"),
            record(2, "b", "m", "w"),
            record(3, "b", "m", "w"),
        ]);
        assert_eq!(rebuilt.entry_count(), next.entry_count());
        assert_eq!(rebuilt.by_principal(&Principal::new("b")), &[2, 3]);
    }

    #[test]
    fn shared_index_insert_replay_stays_duplicate_free() {
        let base = SharedStoreIndex::rebuild(&[record(7, "a", "m", "v")]);
        let next = base.extended(&[record(7, "a", "m", "v")]);
        assert_eq!(next.by_principal(&Principal::new("a")), &[7]);
        assert_eq!(next.entry_count(), base.entry_count());
        assert!(
            Arc::ptr_eq(
                base.principal_bucket(&Principal::new("a")).unwrap(),
                next.principal_bucket(&Principal::new("a")).unwrap()
            ),
            "a replayed insert copies no shared bucket"
        );
    }

    #[test]
    fn involved_principals_include_provenance_history() {
        let records = vec![record(1, "a", "m", "v")];
        let index = SharedStoreIndex::rebuild(&records);
        assert_eq!(
            index.by_involved_principal(&Principal::new("origin")),
            &[1],
            "the historical sender appears via the provenance"
        );
        assert_eq!(index.by_involved_principal(&Principal::new("a")), &[1]);
    }
}
