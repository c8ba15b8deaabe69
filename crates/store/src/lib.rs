//! # piprov-store
//!
//! An append-only **provenance store**: durable storage and audit querying
//! for the provenance records produced by running provenance-calculus
//! systems.
//!
//! The paper's motivating applications (auditing, error investigation,
//! trust decisions) all need the provenance that the calculus tracks at run
//! time to be *persisted* and *queryable* afterwards — the role played by
//! provenance-aware storage systems such as PASS (the paper's citation
//! \[20\]).  This crate provides that substrate:
//!
//! * [`record`] — provenance records, one per exchanged value per step;
//! * [`codec`] — a checksummed, length-prefixed binary encoding;
//! * [`segment`] — append-only segment files with torn-write detection;
//! * [`store`] — the [`ProvenanceStore`]: rotation, recovery, compaction;
//! * [`view`] — the [`StoreView`]: the store's only in-memory copy of its
//!   records, copy-on-write, so a held view is a frozen snapshot;
//! * [`index`] — the view's secondary indexes by principal/channel/value;
//! * [`query`] — audit trails, taint analysis, origin queries;
//! * [`recorder`] — glue that persists an executor's trace as it runs.
//!
//! ```
//! use piprov_core::pattern::{AnyPattern, TrivialPatterns};
//! use piprov_core::process::Process;
//! use piprov_core::system::System;
//! use piprov_core::value::{Identifier, Value};
//! use piprov_core::name::Channel;
//! use piprov_store::{ProvenanceStore, StoreQuery, run_and_record};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dir = std::env::temp_dir().join(format!("piprov-doc-{}", std::process::id()));
//! let mut store = ProvenanceStore::open(&dir)?;
//! let system: System<AnyPattern> = System::par(
//!     System::located("a", Process::output(Identifier::channel("m"), Identifier::channel("v"))),
//!     System::located("b", Process::input(Identifier::channel("m"), AnyPattern, "x", Process::nil())),
//! );
//! run_and_record(&system, TrivialPatterns, &mut store, 100)?;
//! let query = StoreQuery::new(&store);
//! let trail = query.audit_trail(&Value::Channel(Channel::new("v")));
//! assert_eq!(trail.records.len(), 2);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod error;
pub mod index;
pub mod query;
pub mod record;
pub mod recorder;
pub mod segment;
pub mod store;
pub mod view;

pub use error::StoreError;
pub use index::SharedStoreIndex;
pub use query::{AuditTrail, StoreQuery};
pub use record::{Operation, ProvenanceRecord, SequenceNumber};
pub use recorder::{run_and_record, TraceRecorder};
pub use segment::{scan_segment, Segment, SegmentScan};
pub use store::{ProvenanceStore, RepairReport, StoreConfig, StoreStats};
pub use view::StoreView;
