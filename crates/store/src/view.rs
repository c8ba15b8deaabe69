//! The store's in-memory state: a copy-on-write view of the record log.
//!
//! A [`StoreView`] holds every record the store's segments hold, plus the
//! secondary indexes over them, at one **watermark** (the highest
//! sequence number it contains).  The store keeps its view in an [`Arc`]
//! and appends through [`Arc::make_mut`], so one structure serves both the
//! store's own queries and the audit engine's MVCC snapshots:
//!
//! * while nobody else holds the view, an append pushes the record and its
//!   postings in place;
//! * once a reader holds it (the engine publishes [`ProvenanceStore::view`]
//!   after every batch), the next append clones it first — the chunk
//!   *pointers* and the index's map skeleton — starts a new chunk, and
//!   copies only the posting lists it touches.  The reader's view stays
//!   frozen; no record is ever copied after it is shared.
//!
//! Records are held as a vector of `Arc`'d chunks, each a run of
//! contiguous sequence numbers, so lookup is a binary search over chunk
//! start sequences plus an offset — `O(log chunks)`.
//!
//! [`ProvenanceStore::view`]: crate::ProvenanceStore::view

use crate::index::SharedStoreIndex;
use crate::query::AuditTrail;
use crate::record::{ProvenanceRecord, SequenceNumber};
use piprov_core::value::Value;
use std::sync::Arc;

/// One immutable-once-shared run of records with contiguous sequence
/// numbers.
#[derive(Debug, Clone)]
struct RecordChunk {
    /// Sequence number of `records[0]`.
    first: SequenceNumber,
    records: Arc<Vec<ProvenanceRecord>>,
}

impl RecordChunk {
    fn new(records: Vec<ProvenanceRecord>) -> Self {
        RecordChunk {
            first: records[0].sequence,
            records: Arc::new(records),
        }
    }

    /// The sequence number the next record must carry to extend this run.
    fn next(&self) -> SequenceNumber {
        self.first + self.records.len() as u64
    }
}

/// An internally consistent view of a store's record log at one watermark.
///
/// Every query answers entirely from a view: posting lists come from its
/// [`SharedStoreIndex`], records from its chunk list.  Views are cheap to
/// hold: pin one (via [`crate::ProvenanceStore::view`]) and it stays
/// frozen however much the store appends in the meantime.
#[derive(Debug, Clone)]
pub struct StoreView {
    chunks: Vec<RecordChunk>,
    index: SharedStoreIndex,
    watermark: SequenceNumber,
    len: usize,
}

impl StoreView {
    /// A view of `records`, which must ascend strictly by sequence number
    /// (gaps allowed: a compacted log has them).  Each contiguous run
    /// becomes one chunk, sized exactly.
    pub(crate) fn from_records(mut records: Vec<ProvenanceRecord>) -> Self {
        let mut view = StoreView {
            index: SharedStoreIndex::rebuild(&records),
            watermark: records.last().map_or(0, |r| r.sequence),
            len: records.len(),
            chunks: Vec::new(),
        };
        let gaps: Vec<usize> = (1..records.len())
            .filter(|&i| records[i].sequence != records[i - 1].sequence + 1)
            .collect();
        // Split back to front, so each `split_off` moves one run only.
        for &start in gaps.iter().rev() {
            view.chunks.push(RecordChunk::new(records.split_off(start)));
        }
        if !records.is_empty() {
            records.shrink_to_fit();
            view.chunks.push(RecordChunk::new(records));
        }
        view.chunks.reverse();
        debug_assert!(
            view.chunks.windows(2).all(|w| w[0].next() < w[1].first),
            "records ascend strictly"
        );
        view
    }

    /// Adds one record above the watermark: into the last chunk in place
    /// when the record continues its run and nobody shares it, else into a
    /// new chunk.
    pub(crate) fn push(&mut self, record: ProvenanceRecord) {
        let seq = record.sequence;
        debug_assert!(seq > self.watermark, "sequence numbers ascend");
        self.index.insert(&record);
        self.watermark = seq;
        self.len += 1;
        let tail = self
            .chunks
            .last_mut()
            .filter(|chunk| chunk.next() == seq)
            .and_then(|chunk| Arc::get_mut(&mut chunk.records));
        match tail {
            Some(records) => records.push(record),
            None => self.chunks.push(RecordChunk::new(vec![record])),
        }
    }

    /// The highest sequence number this view contains (0 when empty).
    pub fn watermark(&self) -> SequenceNumber {
        self.watermark
    }

    /// Number of records visible.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the view holds no record.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of record chunks (one per contiguous run recovered, plus one
    /// per append that found its predecessor shared) — introspection for
    /// the sharing tests.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// The view's secondary indexes.
    pub fn index(&self) -> &SharedStoreIndex {
        &self.index
    }

    /// Looks up a record by sequence number.
    pub fn get(&self, sequence: SequenceNumber) -> Option<&ProvenanceRecord> {
        let position = self.chunks.partition_point(|c| c.first <= sequence);
        let chunk = self.chunks[..position].last()?;
        chunk.records.get((sequence - chunk.first) as usize)
    }

    /// Looks up several records by sequence number, skipping unknown ones.
    pub fn get_many<'a>(
        &'a self,
        sequences: impl IntoIterator<Item = SequenceNumber> + 'a,
    ) -> impl Iterator<Item = &'a ProvenanceRecord> + 'a {
        sequences.into_iter().filter_map(|s| self.get(s))
    }

    /// Iterates over all records in sequence order.
    pub fn iter(&self) -> impl Iterator<Item = &ProvenanceRecord> {
        self.chunks.iter().flat_map(|chunk| chunk.records.iter())
    }

    /// Reconstructs the audit trail of `value` as of this view's
    /// watermark — the same construction [`crate::StoreQuery`] uses.
    pub fn audit_trail(&self, value: &Value) -> AuditTrail {
        let records: Vec<ProvenanceRecord> = self
            .get_many(self.index.by_value(value).iter().copied())
            .cloned()
            .collect();
        AuditTrail::from_records(value.clone(), records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Operation;
    use piprov_core::name::{Channel, Principal};
    use piprov_core::provenance::{Event, Provenance};

    fn record(seq: u64, who: &str, value: &str) -> ProvenanceRecord {
        let mut r = ProvenanceRecord::new(
            seq,
            who,
            Operation::Send,
            "m",
            Value::Channel(Channel::new(value)),
            Provenance::single(Event::output(Principal::new(who), Provenance::empty())),
        );
        r.sequence = seq;
        r
    }

    /// What the store does on append: push through `Arc::make_mut`.
    fn appended(view: &Arc<StoreView>, records: Vec<ProvenanceRecord>) -> Arc<StoreView> {
        let mut next = Arc::clone(view);
        for r in records {
            Arc::make_mut(&mut next).push(r);
        }
        next
    }

    #[test]
    fn lookup_spans_chunks_and_misses_cleanly() {
        let base = Arc::new(StoreView::from_records(vec![
            record(1, "a", "v"),
            record(2, "b", "w"),
        ]));
        let next = appended(&base, vec![record(3, "c", "v")]);
        assert_eq!(next.len(), 3);
        assert_eq!(next.watermark(), 3);
        assert_eq!(next.chunk_count(), 2);
        for seq in 1..=3 {
            assert_eq!(next.get(seq).unwrap().sequence, seq);
        }
        assert!(next.get(0).is_none());
        assert!(next.get(4).is_none());
        assert!(base.get(3).is_none(), "the base view is frozen");
        assert_eq!(base.watermark(), 2);
        let trail = next.audit_trail(&Value::Channel(Channel::new("v")));
        assert_eq!(
            trail.records.iter().map(|r| r.sequence).collect::<Vec<_>>(),
            vec![1, 3]
        );
        assert_eq!(
            next.iter().map(|r| r.sequence).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn empty_view_answers_nothing() {
        let view = StoreView::from_records(Vec::new());
        assert!(view.is_empty());
        assert_eq!(view.watermark(), 0);
        assert!(view.get(1).is_none());
        assert_eq!(view.iter().count(), 0);
        assert!(view
            .audit_trail(&Value::Channel(Channel::new("v")))
            .records
            .is_empty());
        assert_eq!(view.chunk_count(), 0);
    }

    #[test]
    fn recovery_of_a_compacted_log_splits_at_the_sequence_gap() {
        // A compacted store can hold non-contiguous sequences; the view
        // must still resolve each one exactly.
        let view = StoreView::from_records(vec![
            record(1, "a", "v"),
            record(2, "a", "v"),
            record(7, "b", "w"),
            record(8, "b", "w"),
        ]);
        assert_eq!(view.chunk_count(), 2);
        assert_eq!(view.watermark(), 8);
        assert_eq!(view.get(2).unwrap().sequence, 2);
        assert_eq!(view.get(7).unwrap().sequence, 7);
        assert!(view.get(4).is_none(), "the gap stays a miss");
        assert!(view.get(9).is_none());
    }

    #[test]
    fn an_unshared_view_grows_in_place_and_splits_at_gaps() {
        let mut view = Arc::new(StoreView::from_records(vec![record(1, "a", "v")]));
        let chunk = Arc::as_ptr(&view.chunks[0].records);
        let view_ptr = Arc::as_ptr(&view);
        Arc::make_mut(&mut view).push(record(2, "a", "v"));
        assert_eq!(Arc::as_ptr(&view), view_ptr, "no reader, no copy");
        assert_eq!(view.chunk_count(), 1);
        assert_eq!(Arc::as_ptr(&view.chunks[0].records), chunk);
        // A sequence gap (records compacted away) starts a new run.
        Arc::make_mut(&mut view).push(record(5, "a", "v"));
        assert_eq!(view.chunk_count(), 2);
        assert!(view.get(3).is_none());
        assert_eq!(view.get(5).unwrap().sequence, 5);
        assert_eq!(
            view.index().by_value(&Value::Channel(Channel::new("v"))),
            &[1, 2, 5]
        );
    }

    #[test]
    fn appending_to_a_shared_view_shares_chunks_and_untouched_buckets() {
        let base = Arc::new(StoreView::from_records(vec![record(1, "a", "v")]));
        let next = appended(&base, vec![record(2, "b", "w"), record(3, "b", "w")]);
        assert!(
            Arc::ptr_eq(&base.chunks[0].records, &next.chunks[0].records),
            "shared chunks are never re-copied"
        );
        assert_eq!(next.chunk_count(), 2, "one new chunk for the batch");
        let v = Value::Channel(Channel::new("v"));
        assert!(Arc::ptr_eq(
            base.index.value_bucket(&v).unwrap(),
            next.index.value_bucket(&v).unwrap()
        ));
        assert_eq!(base.len(), 1);
        assert_eq!(next.len(), 3);
    }
}
