//! Append-only segment files.
//!
//! A segment is a file containing a sequence of framed records (see
//! [`crate::codec`]).  Segments are written strictly append-only; once a
//! segment reaches its size budget the store seals it and opens a new one.
//! Reading a segment scans it front to back, stopping cleanly at the end
//! or reporting corruption (torn final frame after a crash is reported so
//! that recovery can truncate it).

use crate::codec::{decode_framed, encode_framed};
use crate::error::StoreError;
use crate::record::ProvenanceRecord;
use bytes::{Buf, Bytes};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Default size budget for a segment before rotation (bytes).
pub const DEFAULT_SEGMENT_BUDGET: usize = 4 * 1024 * 1024;

/// A writable, append-only segment.
#[derive(Debug)]
pub struct Segment {
    path: PathBuf,
    writer: BufWriter<File>,
    written: usize,
    records: usize,
}

impl Segment {
    /// Creates (or truncates) a segment file at `path`.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        Ok(Segment {
            path,
            writer: BufWriter::new(file),
            written: 0,
            records: 0,
        })
    }

    /// Opens an existing segment for appending.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be opened; the current size is
    /// read so rotation accounting stays correct.
    pub fn open_append(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let written = file.metadata()?.len() as usize;
        Ok(Segment {
            path,
            writer: BufWriter::new(file),
            written,
            records: 0,
        })
    }

    /// The segment's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes written so far (including pre-existing content for reopened
    /// segments).
    pub fn bytes_written(&self) -> usize {
        self.written
    }

    /// Records appended through this handle.
    pub fn records_appended(&self) -> usize {
        self.records
    }

    /// Appends a record, returning the number of bytes written.
    ///
    /// # Errors
    ///
    /// Returns an error if the write fails.
    pub fn append(&mut self, record: &ProvenanceRecord) -> Result<usize, StoreError> {
        let framed = encode_framed(record);
        self.writer.write_all(&framed)?;
        self.written += framed.len();
        self.records += 1;
        Ok(framed.len())
    }

    /// Flushes buffered writes to the operating system.
    ///
    /// # Errors
    ///
    /// Returns an error if the flush fails.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Flushes and syncs the segment to stable storage.
    ///
    /// # Errors
    ///
    /// Returns an error if the flush or sync fails.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.writer.flush()?;
        self.writer.get_ref().sync_data()?;
        Ok(())
    }

    /// `true` when the segment has reached its size budget.
    pub fn is_full(&self, budget: usize) -> bool {
        self.written >= budget
    }
}

/// The result of scanning a segment file.
#[derive(Debug)]
pub struct SegmentScan {
    /// Records successfully decoded, in file order.
    pub records: Vec<ProvenanceRecord>,
    /// Length in bytes of the cleanly decodable prefix; recovery truncates
    /// a torn segment to this length before resuming appends.
    pub valid_len: usize,
    /// When a decode error stopped the scan, `true` iff the failing frame
    /// is not whole and CRC-valid and no decodable frame exists anywhere
    /// after it: the signature of an append interrupted by a crash.
    /// `false` means the frame was written whole but does not decode (a
    /// retired body format, say), or valid frames follow the bad one —
    /// either way the bytes are not a torn append, and recovery must
    /// never truncate them away.
    pub torn_tail: bool,
    /// `Some(error)` if the scan stopped early due to a torn or corrupt
    /// frame (everything before it is still returned).
    pub error: Option<StoreError>,
}

impl SegmentScan {
    /// `true` if the whole segment decoded cleanly.
    pub fn is_clean(&self) -> bool {
        self.error.is_none()
    }
}

/// Reads every record from a segment file.
///
/// # Errors
///
/// Returns an error only if the file cannot be read at all; decode errors
/// are reported inside the returned [`SegmentScan`] so that recovery can
/// keep the valid prefix.
pub fn scan_segment(path: impl AsRef<Path>) -> Result<SegmentScan, StoreError> {
    let mut file = File::open(path.as_ref())?;
    let mut contents = Vec::new();
    file.read_to_end(&mut contents)?;
    let total = contents.len();
    let full = Bytes::from(contents);
    let mut buf = full.clone();
    let mut records = Vec::new();
    loop {
        let clean_prefix = total - buf.remaining();
        match decode_framed(&mut buf) {
            Ok(Some(record)) => records.push(record),
            Ok(None) => {
                return Ok(SegmentScan {
                    records,
                    valid_len: total - buf.remaining(),
                    torn_tail: false,
                    error: None,
                })
            }
            Err(e) => {
                // A whole frame that passes its CRC was not torn by a
                // crash: if it fails to decode, it was written that way,
                // and recovery must refuse it, not truncate it.  Otherwise
                // a failing frame with nothing decodable after it is a
                // torn append; decodable frames after it mean mid-file
                // corruption.  The bad frame's own length prefix cannot be
                // trusted to find "after" (the flipped bit may be *in* the
                // prefix), so scan for any CRC-valid frame at a later
                // offset instead.
                let torn_tail = crc_valid_body(&full, clean_prefix).is_none()
                    && !contains_valid_frame(&full, clean_prefix + 1);
                return Ok(SegmentScan {
                    records,
                    valid_len: clean_prefix,
                    torn_tail,
                    error: Some(e),
                });
            }
        }
    }
}

/// The smallest body [`crate::codec::decode_body`] can accept (version
/// tag + sequence + logical time + operation tag); a run of zero bytes
/// reads as a CRC-valid empty frame, so shorter candidates never count.
const MIN_BODY: usize = 18;

/// The body of the whole, CRC-valid frame of at least [`MIN_BODY`] bytes
/// that starts at byte `offset`, if there is one.
fn crc_valid_body(data: &[u8], offset: usize) -> Option<&[u8]> {
    let header = data.get(offset..offset + 8)?;
    let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let crc = u32::from_be_bytes([header[4], header[5], header[6], header[7]]);
    let body = data.get(offset + 8..)?.get(..len)?;
    (len >= MIN_BODY && crate::codec::crc32(body) == crc).then_some(body)
}

/// Whether any complete, CRC-valid, decodable frame starts at or after
/// byte `from`.  Used only on the scan error path to tell a torn final
/// append (safe to truncate) from mid-file corruption (must be preserved).
/// A candidate only counts if its body also decodes, so runs of zero bytes
/// left by out-of-order block writes cannot masquerade as frames.
fn contains_valid_frame(data: &[u8], from: usize) -> bool {
    (from..data.len()).any(|offset| {
        crc_valid_body(data, offset)
            .is_some_and(|body| crate::codec::decode_body(Bytes::copy_from_slice(body)).is_ok())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Operation;
    use piprov_core::name::{Channel, Principal};
    use piprov_core::provenance::Provenance;
    use piprov_core::value::Value;

    fn record(seq: u64) -> ProvenanceRecord {
        ProvenanceRecord {
            sequence: seq,
            logical_time: seq,
            principal: Principal::new("a"),
            operation: Operation::Send,
            channel: Channel::new("m"),
            value: Value::Channel(Channel::new(format!("v{}", seq))),
            provenance: Provenance::empty(),
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("piprov-segment-{}-{}", std::process::id(), name));
        dir
    }

    #[test]
    fn write_then_scan_round_trip() {
        let path = temp_path("roundtrip");
        {
            let mut seg = Segment::create(&path).unwrap();
            for i in 0..10 {
                seg.append(&record(i)).unwrap();
            }
            assert_eq!(seg.records_appended(), 10);
            assert!(seg.bytes_written() > 0);
            seg.sync().unwrap();
        }
        let scan = scan_segment(&path).unwrap();
        assert!(scan.is_clean());
        assert_eq!(scan.records.len(), 10);
        assert_eq!(scan.records[3], record(3));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_appends_after_existing_records() {
        let path = temp_path("reopen");
        {
            let mut seg = Segment::create(&path).unwrap();
            seg.append(&record(0)).unwrap();
            seg.flush().unwrap();
        }
        {
            let mut seg = Segment::open_append(&path).unwrap();
            assert!(seg.bytes_written() > 0);
            seg.append(&record(1)).unwrap();
            seg.flush().unwrap();
        }
        let scan = scan_segment(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_reported_but_prefix_survives() {
        let path = temp_path("torn");
        {
            let mut seg = Segment::create(&path).unwrap();
            seg.append(&record(0)).unwrap();
            seg.append(&record(1)).unwrap();
            seg.flush().unwrap();
        }
        // Simulate a crash mid-write: append garbage that looks like the
        // start of a frame.
        {
            let mut file = OpenOptions::new().append(true).open(&path).unwrap();
            file.write_all(&[0, 0, 0, 50, 1, 2, 3]).unwrap();
        }
        let scan = scan_segment(&path).unwrap();
        assert!(!scan.is_clean());
        assert_eq!(scan.records.len(), 2, "valid prefix is preserved");
        assert!(scan.torn_tail, "a trailing partial frame is a torn append");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_followed_by_valid_frames_is_not_a_torn_tail() {
        let path = temp_path("midfile");
        {
            let mut seg = Segment::create(&path).unwrap();
            for i in 0..4 {
                seg.append(&record(i)).unwrap();
            }
            seg.flush().unwrap();
        }
        // Flip a byte inside the first record's body (past the 8-byte
        // header, so the frame length stays intact).
        let mut contents = std::fs::read(&path).unwrap();
        contents[12] ^= 0xFF;
        std::fs::write(&path, &contents).unwrap();
        let scan = scan_segment(&path).unwrap();
        assert!(!scan.is_clean());
        assert_eq!(scan.records.len(), 0, "scan stops at the corrupt frame");
        assert!(
            !scan.torn_tail,
            "complete frames after the bad one mean mid-file corruption"
        );
        assert_eq!(scan.valid_len, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_length_prefix_with_valid_frames_after_is_not_torn() {
        let path = temp_path("badlen");
        {
            let mut seg = Segment::create(&path).unwrap();
            for i in 0..5 {
                seg.append(&record(i)).unwrap();
            }
            seg.flush().unwrap();
        }
        // Inflate the SECOND frame's length prefix so the bad frame claims
        // to reach past end-of-file; the three valid frames after it must
        // still defeat the torn-tail classification.
        let first_frame_len = encode_framed(&record(0)).len();
        let mut contents = std::fs::read(&path).unwrap();
        contents[first_frame_len] = 0xFF;
        std::fs::write(&path, &contents).unwrap();
        let scan = scan_segment(&path).unwrap();
        assert!(!scan.is_clean());
        assert_eq!(scan.records.len(), 1, "only the first record decodes");
        assert!(
            !scan.torn_tail,
            "valid frames after a corrupt length prefix mean mid-file corruption"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_final_frame_with_nothing_after_counts_as_torn() {
        let path = temp_path("badfinal");
        {
            let mut seg = Segment::create(&path).unwrap();
            seg.append(&record(0)).unwrap();
            seg.append(&record(1)).unwrap();
            seg.flush().unwrap();
        }
        // Corrupt the last byte of the file: the final frame's CRC breaks
        // but the frame is still exactly the last thing in the file — the
        // signature of an append torn by out-of-order block writes.
        let mut contents = std::fs::read(&path).unwrap();
        let last = contents.len() - 1;
        contents[last] ^= 0xFF;
        std::fs::write(&path, &contents).unwrap();
        let scan = scan_segment(&path).unwrap();
        assert!(!scan.is_clean());
        assert_eq!(scan.records.len(), 1);
        assert!(
            scan.torn_tail,
            "a bad final frame is recoverable by truncation"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rotation_budget() {
        let path = temp_path("budget");
        let mut seg = Segment::create(&path).unwrap();
        assert!(!seg.is_full(1024));
        for i in 0..50 {
            seg.append(&record(i)).unwrap();
        }
        assert!(seg.is_full(64), "tiny budget should be exceeded");
        std::fs::remove_file(&path).ok();
    }
}
