//! The provenance store: durable, append-only storage of provenance
//! records with an in-memory view and crash recovery.
//!
//! Layout on disk: a directory containing numbered segment files
//! `seg-000001.plog`, `seg-000002.plog`, ….  Records are appended to the
//! highest-numbered (active) segment; when it exceeds the size budget a new
//! segment is started.  Recovery scans the segments in order, keeps every
//! cleanly decodable prefix, rebuilds the view and resumes appending.
//!
//! In memory the store holds one [`StoreView`] behind an [`Arc`]: every
//! record once, with its indexes.  [`ProvenanceStore::view`] hands out a
//! clone of that `Arc`, which stays frozen while the store keeps
//! appending (see [`crate::view`]).

use crate::error::StoreError;
use crate::index::SharedStoreIndex;
use crate::record::{ProvenanceRecord, SequenceNumber, MAX_PROVENANCE_DEPTH};
use crate::segment::{scan_segment, Segment, DEFAULT_SEGMENT_BUDGET};
use crate::view::StoreView;
use std::fmt;
use std::fs;
use std::fs::OpenOptions;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Configuration of a [`ProvenanceStore`].  An append is durable once
/// [`ProvenanceStore::sync`] (or a rotation) has run after it; the store
/// never syncs by itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// Size budget of a segment before rotation, in bytes.
    pub segment_budget: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            segment_budget: DEFAULT_SEGMENT_BUDGET,
        }
    }
}

/// Summary statistics of a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Number of records held.
    pub records: usize,
    /// Number of segment files (including the active one).
    pub segments: usize,
    /// Approximate bytes on disk.
    pub bytes: usize,
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} records in {} segments (~{} bytes)",
            self.records, self.segments, self.bytes
        )
    }
}

/// An append-only provenance store backed by segment files.
#[derive(Debug)]
pub struct ProvenanceStore {
    directory: PathBuf,
    config: StoreConfig,
    active: Segment,
    active_id: u64,
    sealed: Vec<PathBuf>,
    next_sequence: SequenceNumber,
    /// Every record in the segments, once; copy-on-write.
    view: Arc<StoreView>,
    bytes_on_disk: usize,
}

/// What [`ProvenanceStore::repair`] did to a store directory.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RepairReport {
    /// Bytes cut off the newest segment (0 when it was clean).
    pub truncated_bytes: usize,
    /// Sealed segments that still contain undecodable frames; repair never
    /// rewrites sealed files, so these need manual attention (or
    /// [`ProvenanceStore::compact`] from a restored copy).
    pub corrupt_sealed_segments: Vec<PathBuf>,
}

impl ProvenanceStore {
    /// Opens (or creates) a store in `directory`, recovering any existing
    /// segments.
    ///
    /// A torn final append (crash mid-write) is repaired automatically.
    /// Corruption that recovery cannot attribute to a torn append — a bad
    /// frame with decodable frames after it, a whole CRC-valid frame that
    /// does not decode (a body in a retired format, say), or any bad frame
    /// in a sealed segment — makes `open` refuse, leaving every byte in
    /// place; see [`ProvenanceStore::repair`] for the explicit, destructive
    /// way to accept the data loss and bring such a store back online.
    ///
    /// # Errors
    ///
    /// Returns an error if the directory cannot be created, a segment
    /// cannot be read, or a segment holds unrepairable corruption.
    pub fn open(directory: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(directory, StoreConfig::default())
    }

    /// Explicitly repairs a store directory that [`ProvenanceStore::open`]
    /// refuses to open: truncates the newest segment to its cleanly
    /// decodable prefix — discarding everything after the first bad frame,
    /// including any later frames that individually decode — and reports
    /// sealed segments that still hold corruption (those are never
    /// modified).
    ///
    /// This is the operator's decision, not recovery's: a crash can leave
    /// a hole in the unsynced tail (a later page flushed, an earlier one
    /// not), which is indistinguishable from mid-file bitrot by file
    /// contents alone.  Nothing after the last `sync` was durable, so
    /// truncating the tail is sound for the crash case; calling this on a
    /// genuinely bitrotten store destroys whatever followed the rot.
    ///
    /// # Errors
    ///
    /// Returns an error if the directory or a segment cannot be read, or
    /// the truncation fails.
    pub fn repair(directory: impl AsRef<Path>) -> Result<RepairReport, StoreError> {
        let directory = directory.as_ref();
        let mut segment_paths = existing_segments(directory)?;
        segment_paths.sort();
        let mut report = RepairReport::default();
        let Some((newest, sealed)) = segment_paths.split_last() else {
            return Ok(report);
        };
        for path in sealed {
            if !scan_segment(path)?.is_clean() {
                report.corrupt_sealed_segments.push(path.clone());
            }
        }
        let scan = scan_segment(newest)?;
        if !scan.is_clean() {
            let disk_len = fs::metadata(newest)?.len() as usize;
            let file = OpenOptions::new().write(true).open(newest)?;
            file.set_len(scan.valid_len as u64)?;
            file.sync_data()?;
            report.truncated_bytes = disk_len - scan.valid_len;
        }
        Ok(report)
    }

    /// Opens a store with an explicit configuration.
    ///
    /// Torn-append repair and the refuse-to-open policy for unrepairable
    /// corruption are as described on [`ProvenanceStore::open`].
    ///
    /// # Errors
    ///
    /// Returns an error if the directory cannot be created, a segment
    /// cannot be read, or a segment holds unrepairable corruption (see
    /// [`ProvenanceStore::repair`]).
    pub fn open_with(directory: impl AsRef<Path>, config: StoreConfig) -> Result<Self, StoreError> {
        let directory = directory.as_ref().to_path_buf();
        fs::create_dir_all(&directory)?;
        if !directory.is_dir() {
            return Err(StoreError::InvalidDirectory(
                directory.display().to_string(),
            ));
        }
        let mut segment_paths = existing_segments(&directory)?;
        segment_paths.sort();
        let mut records = Vec::new();
        let mut bytes_on_disk = 0usize;
        for (position, path) in segment_paths.iter().enumerate() {
            let scan = scan_segment(path)?;
            let disk_len = fs::metadata(path).map(|m| m.len() as usize).unwrap_or(0);
            let is_last = position == segment_paths.len() - 1;
            match scan.error {
                // A torn tail of the newest segment is an append
                // interrupted by a crash: keep the valid prefix and
                // truncate the partial frame away, so that new appends
                // cannot land after unreadable bytes and be lost on the
                // next recovery.
                Some(_) if is_last && scan.torn_tail => {
                    let file = OpenOptions::new().write(true).open(path)?;
                    file.set_len(scan.valid_len as u64)?;
                    file.sync_data()?;
                    bytes_on_disk += scan.valid_len;
                }
                // Anything else is corruption that recovery cannot repair:
                // a bad frame with valid frames after it (bitrot, partial
                // sector rewrite) or a whole frame that does not decode in
                // the newest segment, or any decode error in a sealed
                // segment, which is never written again and so can never
                // have a legitimately torn tail.  Refuse to open rather
                // than silently serving a partial store: the file is left
                // untouched as evidence for repair.
                Some(error) => return Err(error),
                None => bytes_on_disk += disk_len,
            }
            records.extend(scan.records);
        }
        // Segments hold ascending runs, but a compaction interrupted after
        // its new segment was synced and before the old ones were removed
        // leaves two copies of each kept record, the newer copy in the
        // higher-numbered segment.  Sort (stable) and keep one per sequence.
        records.sort_by_key(|r| r.sequence);
        records.dedup_by_key(|r| r.sequence);
        let next_sequence = records.last().map_or(1, |r| r.sequence + 1);
        let (active_id, active, sealed) = match segment_paths.last() {
            Some(last) => {
                let id = segment_id(last).unwrap_or(segment_paths.len() as u64);
                (
                    id,
                    Segment::open_append(last)?,
                    segment_paths[..segment_paths.len() - 1].to_vec(),
                )
            }
            None => {
                let id = 1;
                let path = segment_path(&directory, id);
                (id, Segment::create(&path)?, Vec::new())
            }
        };
        Ok(ProvenanceStore {
            directory,
            config,
            active,
            active_id,
            sealed,
            next_sequence,
            view: Arc::new(StoreView::from_records(records)),
            bytes_on_disk,
        })
    }

    /// The directory backing the store.
    pub fn directory(&self) -> &Path {
        &self.directory
    }

    /// The configuration in use.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Appends a record, assigning and returning its sequence number.
    ///
    /// The record joins the view as soon as the segment accepts it, so the
    /// view never lags the log: when the rotation that follows fails, the
    /// error is returned but the record is already visible (and a reopen
    /// recovers it).  It is durable only once [`ProvenanceStore::sync`]
    /// or a rotation has run after it.  If views handed out by
    /// [`ProvenanceStore::view`] are still held, the first append after
    /// them copies the view's skeleton and leaves theirs frozen.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::TooDeep`], having written nothing, if the
    /// record's provenance nests deeper than [`MAX_PROVENANCE_DEPTH`];
    /// otherwise an error if the write or the rotation fails.
    pub fn append(&mut self, mut record: ProvenanceRecord) -> Result<SequenceNumber, StoreError> {
        let depth = record.provenance.depth();
        if depth > MAX_PROVENANCE_DEPTH {
            return Err(StoreError::TooDeep(depth));
        }
        let seq = self.next_sequence;
        record.sequence = seq;
        self.next_sequence += 1;
        let written = self.active.append(&record)?;
        self.bytes_on_disk += written;
        Arc::make_mut(&mut self.view).push(record);
        if self.active.is_full(self.config.segment_budget) {
            self.rotate()?;
        }
        Ok(seq)
    }

    /// Flushes and syncs the active segment.
    ///
    /// # Errors
    ///
    /// Returns an error if the sync fails.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.active.sync()
    }

    /// Seals the active segment and starts a new one.
    ///
    /// The new segment is created before the old one is sealed, so a
    /// failure leaves the bookkeeping as it was: the active segment stays
    /// active and a later rotation retries the same id.
    ///
    /// # Errors
    ///
    /// Returns an error if the sync fails or the new segment cannot be
    /// created.
    pub fn rotate(&mut self) -> Result<(), StoreError> {
        self.active.sync()?;
        let id = self.active_id + 1;
        let fresh = Segment::create(segment_path(&self.directory, id))?;
        let sealed = std::mem::replace(&mut self.active, fresh);
        self.sealed.push(sealed.path().to_path_buf());
        self.active_id = id;
        Ok(())
    }

    /// Looks up a record by sequence number.
    pub fn get(&self, sequence: SequenceNumber) -> Option<&ProvenanceRecord> {
        self.view.get(sequence)
    }

    /// Looks up several records by sequence number, skipping unknown ones.
    pub fn get_many<'a>(
        &'a self,
        sequences: impl IntoIterator<Item = SequenceNumber> + 'a,
    ) -> impl Iterator<Item = &'a ProvenanceRecord> + 'a {
        self.view.get_many(sequences)
    }

    /// Iterates over all records in sequence order.
    pub fn iter(&self) -> impl Iterator<Item = &ProvenanceRecord> {
        self.view.iter()
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.view.len()
    }

    /// `true` when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.view.is_empty()
    }

    /// The secondary indexes.
    pub fn index(&self) -> &SharedStoreIndex {
        self.view.index()
    }

    /// The current view: every record and index as of the last append.
    ///
    /// This is an `Arc` clone, not a copy.  The returned view stays frozen
    /// while the store keeps appending; the audit engine publishes it as
    /// its MVCC snapshot.
    pub fn view(&self) -> Arc<StoreView> {
        Arc::clone(&self.view)
    }

    /// A query handle over this store.
    ///
    /// Equivalent to `StoreQuery::new(&store)`.  The `piprov-audit`
    /// engine does not query the store: it answers every request from the
    /// view it last published ([`ProvenanceStore::view`]).
    pub fn query(&self) -> crate::query::StoreQuery<'_> {
        crate::query::StoreQuery::new(self)
    }

    /// Store statistics.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            records: self.view.len(),
            segments: self.sealed.len() + 1,
            bytes: self.bytes_on_disk,
        }
    }

    /// Rewrites the store keeping only records accepted by `keep`,
    /// compacting everything into a single fresh segment and dropping the
    /// old ones.  Sequence numbers are preserved.
    ///
    /// # Errors
    ///
    /// Returns an error if rewriting fails; the original segments are left
    /// in place in that case.
    pub fn compact(&mut self, keep: impl Fn(&ProvenanceRecord) -> bool) -> Result<(), StoreError> {
        let kept: Vec<ProvenanceRecord> = self.iter().filter(|r| keep(r)).cloned().collect();
        let id = self.active_id + 1;
        let mut fresh = Segment::create(segment_path(&self.directory, id))?;
        let mut bytes = 0usize;
        for record in &kept {
            bytes += fresh.append(record)?;
        }
        fresh.sync()?;
        // Swap in the new state, then remove the old files.
        let old_paths: Vec<PathBuf> = self
            .sealed
            .drain(..)
            .chain(std::iter::once(self.active.path().to_path_buf()))
            .collect();
        self.active = fresh;
        self.active_id = id;
        self.view = Arc::new(StoreView::from_records(kept));
        self.bytes_on_disk = bytes;
        for path in old_paths {
            let _ = fs::remove_file(path);
        }
        Ok(())
    }
}

fn segment_path(directory: &Path, id: u64) -> PathBuf {
    directory.join(format!("seg-{:06}.plog", id))
}

fn segment_id(path: &Path) -> Option<u64> {
    let name = path.file_stem()?.to_str()?;
    name.strip_prefix("seg-")?.parse().ok()
}

fn existing_segments(directory: &Path) -> Result<Vec<PathBuf>, StoreError> {
    let mut out = Vec::new();
    for entry in fs::read_dir(directory)? {
        let entry = entry?;
        let path = entry.path();
        if path.extension().map(|e| e == "plog").unwrap_or(false) {
            out.push(path);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Operation;
    use piprov_core::name::{Channel, Principal};
    use piprov_core::provenance::{Event, Provenance};
    use piprov_core::value::Value;

    fn record(t: u64, principal: &str, value: &str) -> ProvenanceRecord {
        ProvenanceRecord::new(
            t,
            principal,
            Operation::Send,
            "m",
            Value::Channel(Channel::new(value)),
            Provenance::single(Event::output(
                Principal::new(principal),
                Provenance::empty(),
            )),
        )
    }

    fn temp_dir(name: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("piprov-store-{}-{}", std::process::id(), name));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_assigns_monotone_sequence_numbers() {
        let dir = temp_dir("seq");
        let mut store = ProvenanceStore::open(&dir).unwrap();
        assert!(store.is_empty());
        let s1 = store.append(record(1, "a", "v")).unwrap();
        let s2 = store.append(record(2, "b", "w")).unwrap();
        assert!(s2 > s1);
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(s1).unwrap().principal, Principal::new("a"));
        assert!(store.get(999).is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_restores_records_and_indexes() {
        let dir = temp_dir("recovery");
        {
            let mut store = ProvenanceStore::open(&dir).unwrap();
            for i in 0..20 {
                store
                    .append(record(i, if i % 2 == 0 { "a" } else { "b" }, "v"))
                    .unwrap();
            }
            store.sync().unwrap();
        }
        let store = ProvenanceStore::open(&dir).unwrap();
        assert_eq!(store.len(), 20);
        assert_eq!(store.index().by_principal(&Principal::new("a")).len(), 10);
        assert_eq!(store.stats().segments, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sequence_numbers_continue_after_recovery() {
        let dir = temp_dir("resume");
        let last = {
            let mut store = ProvenanceStore::open(&dir).unwrap();
            store.append(record(1, "a", "v")).unwrap();
            store.append(record(2, "a", "w")).unwrap()
        };
        let mut store = ProvenanceStore::open(&dir).unwrap();
        let next = store.append(record(3, "a", "u")).unwrap();
        assert_eq!(next, last + 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_creates_new_segments() {
        let dir = temp_dir("rotate");
        let config = StoreConfig {
            segment_budget: 256,
        };
        let mut store = ProvenanceStore::open_with(&dir, config).unwrap();
        for i in 0..50 {
            store.append(record(i, "a", "v")).unwrap();
        }
        assert!(store.stats().segments > 1, "{}", store.stats());
        // All records still readable after reopening.
        drop(store);
        let store = ProvenanceStore::open(&dir).unwrap();
        assert_eq!(store.len(), 50);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_keeps_only_selected_records() {
        let dir = temp_dir("compact");
        let mut store = ProvenanceStore::open_with(
            &dir,
            StoreConfig {
                segment_budget: 256,
            },
        )
        .unwrap();
        for i in 0..40 {
            store
                .append(record(i, if i % 4 == 0 { "keep" } else { "drop" }, "v"))
                .unwrap();
        }
        store
            .compact(|r| r.principal == Principal::new("keep"))
            .unwrap();
        assert_eq!(store.len(), 10);
        assert_eq!(store.stats().segments, 1);
        // Recovery after compaction sees only the kept records.
        drop(store);
        let store = ProvenanceStore::open(&dir).unwrap();
        assert_eq!(store.len(), 10);
        assert!(store.iter().all(|r| r.principal == Principal::new("keep")));
        fs::remove_dir_all(&dir).ok();
    }

    /// Blocks the creation of segment `id` with a directory at its path,
    /// so the rotation that reaches it fails.
    fn block_segment(dir: &Path, id: u64) -> PathBuf {
        let blocker = segment_path(dir, id);
        fs::create_dir(&blocker).unwrap();
        blocker
    }

    fn segment_files(dir: &Path) -> usize {
        existing_segments(dir)
            .unwrap()
            .iter()
            .filter(|p| p.is_file())
            .count()
    }

    /// `levels` events, each sent on a channel whose provenance is the
    /// one before: `depth() == levels`.
    fn nested(levels: usize) -> Provenance {
        (0..levels).fold(Provenance::empty(), |channel, _| {
            Provenance::single(Event::output(Principal::new("p"), channel))
        })
    }

    #[test]
    fn a_record_nested_past_the_depth_limit_is_refused_before_it_is_written() {
        let dir = temp_dir("too-deep");
        let mut store = ProvenanceStore::open(&dir).unwrap();
        let with = |provenance| ProvenanceRecord {
            provenance,
            ..record(1, "a", "v")
        };
        assert!(matches!(
            store.append(with(nested(MAX_PROVENANCE_DEPTH + 1))),
            Err(StoreError::TooDeep(depth)) if depth == MAX_PROVENANCE_DEPTH + 1
        ));
        assert!(store.is_empty());
        let deepest = store.append(with(nested(MAX_PROVENANCE_DEPTH))).unwrap();
        assert_eq!(deepest, 1, "the refused record took no sequence number");
        drop(store);

        let store = ProvenanceStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.get(deepest).unwrap().provenance,
            nested(MAX_PROVENANCE_DEPTH)
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_refuses_a_logged_frame_nested_past_the_depth_limit() {
        let dir = temp_dir("deep-frame");
        let mut store = ProvenanceStore::open(&dir).unwrap();
        store.append(record(1, "a", "v")).unwrap();
        drop(store);
        // A CRC-valid frame whose provenance nests one level past the
        // limit, followed by a good frame, so recovery cannot call it
        // torn.  (The codec tests decode 100,000 levels, which overflowed
        // the stack of the thread that walked the result.)
        let levels = MAX_PROVENANCE_DEPTH as u32 + 1;
        let body = crate::codec::nested_body(levels);
        let mut segment = OpenOptions::new()
            .append(true)
            .open(segment_path(&dir, 1))
            .unwrap();
        use std::io::Write;
        segment
            .write_all(&(body.len() as u32).to_be_bytes())
            .unwrap();
        segment
            .write_all(&crate::codec::crc32(&body).to_be_bytes())
            .unwrap();
        segment.write_all(&body).unwrap();
        segment
            .write_all(&crate::codec::encode_framed(&record(3, "c", "x")))
            .unwrap();
        drop(segment);

        assert!(matches!(
            ProvenanceStore::open(&dir),
            Err(StoreError::Corrupt(_))
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_refuses_a_lone_frame_in_a_retired_body_format() {
        // A store holding only untagged (seed) or tag-1 (preorder) bodies:
        // every frame is whole and passes its CRC, so none of it is a torn
        // append, and open must refuse rather than truncate the segment.
        for tag in [0u8, 1] {
            let dir = temp_dir(&format!("retired-{}", tag));
            fs::create_dir_all(&dir).unwrap();
            let mut body = crate::codec::encode_body(&record(1, "a", "v")).to_vec();
            body[0] = tag;
            let mut frame = Vec::new();
            frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
            frame.extend_from_slice(&crate::codec::crc32(&body).to_be_bytes());
            frame.extend_from_slice(&body);
            let path = segment_path(&dir, 1);
            fs::write(&path, &frame).unwrap();

            assert!(
                matches!(ProvenanceStore::open(&dir), Err(StoreError::Corrupt(_))),
                "a tag-{} body is refused",
                tag
            );
            assert_eq!(
                fs::metadata(&path).unwrap().len(),
                frame.len() as u64,
                "the refused segment is left untouched"
            );
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_failed_rotation_keeps_the_active_segment() {
        let dir = temp_dir("failed-rotation");
        let config = StoreConfig { segment_budget: 1 };
        let mut store = ProvenanceStore::open_with(&dir, config).unwrap();
        let blocker = block_segment(&dir, 2);
        assert!(store.append(record(1, "a", "v")).is_err());
        assert_eq!(store.stats().segments, 1, "{}", store.stats());
        assert_eq!(store.len(), 1, "the record reached the log and the view");

        fs::remove_dir(&blocker).unwrap();
        store.append(record(2, "b", "w")).unwrap();
        assert_eq!(store.stats().segments, segment_files(&dir));
        assert_eq!(store.stats().segments, 2, "no segment id was skipped");
        drop(store);

        let store = ProvenanceStore::open(&dir).unwrap();
        assert_eq!(
            store.iter().map(|r| r.sequence).collect::<Vec<_>>(),
            vec![1, 2]
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_after_an_interrupted_compaction_keeps_one_copy_of_each_record() {
        let dir = temp_dir("interrupted-compaction");
        let mut store = ProvenanceStore::open_with(
            &dir,
            StoreConfig {
                segment_budget: 256,
            },
        )
        .unwrap();
        for i in 0..40 {
            store
                .append(record(i, if i % 4 == 0 { "keep" } else { "drop" }, "v"))
                .unwrap();
        }
        store.sync().unwrap();
        assert!(store.stats().segments > 1, "test needs several segments");
        let saved: Vec<(PathBuf, Vec<u8>)> = existing_segments(&dir)
            .unwrap()
            .into_iter()
            .map(|path| {
                let bytes = fs::read(&path).unwrap();
                (path, bytes)
            })
            .collect();
        // Keep everything: the compacted segment then repeats every record.
        store.compact(|_| true).unwrap();
        drop(store);
        // A crash between syncing the new segment and removing the old
        // ones leaves both on disk.
        for (path, bytes) in &saved {
            fs::write(path, bytes).unwrap();
        }

        let store = ProvenanceStore::open(&dir).unwrap();
        assert_eq!(
            store.iter().map(|r| r.sequence).collect::<Vec<_>>(),
            (1..=40).collect::<Vec<_>>()
        );
        for seq in 1..=40 {
            assert_eq!(store.get(seq).unwrap().sequence, seq);
        }
        assert_eq!(
            store.index().by_principal(&Principal::new("keep")).len(),
            10
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_display() {
        let dir = temp_dir("stats");
        let mut store = ProvenanceStore::open(&dir).unwrap();
        store.append(record(1, "a", "v")).unwrap();
        let shown = store.stats().to_string();
        assert!(shown.contains("1 records"));
        fs::remove_dir_all(&dir).ok();
    }

    /// Truncates the highest-numbered segment file by `cut` bytes,
    /// simulating a crash that tore the last append mid-record.
    fn tear_last_segment(dir: &Path, cut: u64) {
        let mut segments = existing_segments(dir).unwrap();
        segments.sort();
        let last = segments.last().expect("store has at least one segment");
        let file = OpenOptions::new().write(true).open(last).unwrap();
        let len = file.metadata().unwrap().len();
        assert!(cut < len, "tear must leave a partial frame behind");
        file.set_len(len - cut).unwrap();
    }

    #[test]
    fn torn_write_recovery_drops_only_the_torn_record() {
        let dir = temp_dir("torn-write");
        {
            let mut store = ProvenanceStore::open(&dir).unwrap();
            for i in 0..10 {
                store.append(record(i, "a", &format!("v{}", i))).unwrap();
            }
            store.sync().unwrap();
        }
        // Cut 3 bytes off the tail: the final record's frame is torn, every
        // earlier record is untouched.
        tear_last_segment(&dir, 3);
        let store = ProvenanceStore::open(&dir).unwrap();
        assert_eq!(store.len(), 9, "exactly the torn record is dropped");
        for (seq, i) in (1..=9u64).zip(0..) {
            let recovered = store.get(seq).unwrap();
            assert_eq!(recovered.logical_time, i);
            assert_eq!(
                recovered.value,
                Value::Channel(Channel::new(format!("v{}", i)))
            );
        }
        assert!(store.get(10).is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_write_in_last_segment_leaves_sealed_segments_whole() {
        let dir = temp_dir("torn-multi");
        let written = {
            let mut store = ProvenanceStore::open_with(
                &dir,
                StoreConfig {
                    segment_budget: 256,
                },
            )
            .unwrap();
            for i in 0..50 {
                store.append(record(i, "a", "v")).unwrap();
            }
            // An append can land exactly on a rotation boundary, leaving a
            // fresh empty active segment; keep appending until the newest
            // segment holds a record so the tear hits a partial frame.
            let mut extra = 50;
            loop {
                store.sync().unwrap();
                let mut segments = existing_segments(&dir).unwrap();
                segments.sort();
                let last_len = fs::metadata(segments.last().unwrap()).unwrap().len();
                if last_len > 2 {
                    break;
                }
                store.append(record(extra, "a", "v")).unwrap();
                extra += 1;
            }
            assert!(store.stats().segments > 1, "test needs several segments");
            store.len()
        };
        tear_last_segment(&dir, 2);
        let store = ProvenanceStore::open(&dir).unwrap();
        assert_eq!(
            store.len(),
            written - 1,
            "only the torn tail record is lost"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mid_file_corruption_refuses_to_open_and_preserves_the_file() {
        let dir = temp_dir("midfile-corrupt");
        {
            let mut store = ProvenanceStore::open(&dir).unwrap();
            for i in 0..5 {
                store.append(record(i, "a", "v")).unwrap();
            }
            store.sync().unwrap();
        }
        // Flip a byte inside the FIRST record's body (well past the 8-byte
        // frame header, so both length prefixes stay intact): the CRC
        // breaks while four complete, valid frames follow.
        let mut segments = existing_segments(&dir).unwrap();
        segments.sort();
        let path = segments.last().unwrap().clone();
        let mut contents = fs::read(&path).unwrap();
        let len_before = contents.len();
        contents[12] ^= 0xFF;
        fs::write(&path, &contents).unwrap();

        let result = ProvenanceStore::open(&dir);
        assert!(
            result.is_err(),
            "mid-file corruption must refuse to open, not truncate"
        );
        assert_eq!(
            fs::metadata(&path).unwrap().len() as usize,
            len_before,
            "the corrupt file is preserved as evidence"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_length_prefix_midfile_refuses_to_open() {
        let dir = temp_dir("midfile-badlen");
        {
            let mut store = ProvenanceStore::open(&dir).unwrap();
            for i in 0..5 {
                store.append(record(i, "a", "v")).unwrap();
            }
            store.sync().unwrap();
        }
        // Inflate the second frame's length prefix: the bad frame claims
        // to run past end-of-file, but three durable records follow it and
        // must not be truncated away.
        let mut segments = existing_segments(&dir).unwrap();
        segments.sort();
        let path = segments.last().unwrap().clone();
        let mut contents = fs::read(&path).unwrap();
        let len_before = contents.len();
        let first_frame_len = {
            // The first record the store persisted: logical time 0, and
            // append assigned it sequence 1.
            let mut first = record(0, "a", "v");
            first.sequence = 1;
            crate::codec::encode_framed(&first).len()
        };
        contents[first_frame_len] = 0xFF;
        fs::write(&path, &contents).unwrap();

        assert!(ProvenanceStore::open(&dir).is_err());
        assert_eq!(
            fs::metadata(&path).unwrap().len() as usize,
            len_before,
            "no byte of the suspect file is destroyed"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_hole_in_unsynced_tail_refuses_then_repairs() {
        let dir = temp_dir("crash-hole");
        {
            let mut store = ProvenanceStore::open(&dir).unwrap();
            for i in 0..3 {
                store.append(record(i, "a", "v")).unwrap();
            }
            store.sync().unwrap();
        }
        // Simulate a crash where the OS flushed a LATER page of the
        // unsynced tail but not an earlier one: garbage where frame A
        // would be, followed by a fully valid frame C.
        let mut segments = existing_segments(&dir).unwrap();
        segments.sort();
        let path = segments.last().unwrap().clone();
        let mut contents = fs::read(&path).unwrap();
        let synced_len = contents.len();
        let mut unflushed = record(7, "a", "v");
        unflushed.sequence = 4;
        let valid_frame = crate::codec::encode_framed(&unflushed);
        contents.extend_from_slice(&vec![0u8; valid_frame.len()]); // the hole
        contents.extend_from_slice(&valid_frame);
        fs::write(&path, &contents).unwrap();

        // File contents alone cannot distinguish this from bitrot, so open
        // refuses rather than destroying data…
        assert!(ProvenanceStore::open(&dir).is_err());
        // …and the operator's explicit repair truncates the unsynced tail
        // and brings the store back.
        let report = ProvenanceStore::repair(&dir).unwrap();
        assert_eq!(report.truncated_bytes, 2 * valid_frame.len());
        assert!(report.corrupt_sealed_segments.is_empty());
        assert_eq!(
            fs::metadata(&path).unwrap().len() as usize,
            synced_len,
            "repair keeps exactly the synced prefix"
        );
        let mut store = ProvenanceStore::open(&dir).unwrap();
        assert_eq!(store.len(), 3);
        store.append(record(9, "b", "w")).unwrap();
        store.sync().unwrap();
        drop(store);
        assert_eq!(ProvenanceStore::open(&dir).unwrap().len(), 4);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repair_on_a_clean_store_is_a_no_op() {
        let dir = temp_dir("repair-clean");
        {
            let mut store = ProvenanceStore::open(&dir).unwrap();
            store.append(record(1, "a", "v")).unwrap();
            store.sync().unwrap();
        }
        let report = ProvenanceStore::repair(&dir).unwrap();
        assert_eq!(report, RepairReport::default());
        assert_eq!(ProvenanceStore::open(&dir).unwrap().len(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_in_a_sealed_segment_refuses_to_open() {
        let dir = temp_dir("sealed-corrupt");
        {
            let mut store = ProvenanceStore::open_with(
                &dir,
                StoreConfig {
                    segment_budget: 256,
                },
            )
            .unwrap();
            for i in 0..50 {
                store.append(record(i, "a", "v")).unwrap();
            }
            store.sync().unwrap();
            assert!(store.stats().segments > 1, "test needs a sealed segment");
        }
        // Flip a byte inside the FIRST (sealed) segment's first record
        // body: sealed segments are never legitimately torn, so recovery
        // must refuse rather than silently serve a partial store.
        let mut segments = existing_segments(&dir).unwrap();
        segments.sort();
        let sealed = segments.first().unwrap().clone();
        let mut contents = fs::read(&sealed).unwrap();
        contents[12] ^= 0xFF;
        fs::write(&sealed, &contents).unwrap();

        assert!(ProvenanceStore::open(&dir).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_truncates_torn_tail_so_appends_survive_the_next_reopen() {
        let dir = temp_dir("torn-resume");
        {
            let mut store = ProvenanceStore::open(&dir).unwrap();
            for i in 0..5 {
                store.append(record(i, "a", "v")).unwrap();
            }
            store.sync().unwrap();
        }
        tear_last_segment(&dir, 4);
        {
            let mut store = ProvenanceStore::open(&dir).unwrap();
            assert_eq!(store.len(), 4);
            // Appending after recovery must land where the torn frame was
            // truncated, not after leftover garbage.
            store.append(record(99, "b", "w")).unwrap();
            store.sync().unwrap();
        }
        let store = ProvenanceStore::open(&dir).unwrap();
        assert_eq!(store.len(), 5, "post-recovery append survives a reopen");
        assert_eq!(
            store
                .iter()
                .filter(|r| r.principal == Principal::new("b"))
                .count(),
            1
        );
        fs::remove_dir_all(&dir).ok();
    }
}
