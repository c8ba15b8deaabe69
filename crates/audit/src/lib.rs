//! # piprov-audit
//!
//! A concurrent, in-process **audit service** over recorded provenance.
//!
//! The paper's whole point is that recorded provenance lets an auditor ask
//! *after the fact*: who touched this value, where did it originate, and
//! did its history satisfy policy `π`?  The store crate answers those
//! questions single-threaded; this crate packages them as a serving layer
//! in the shape a production deployment wants — a policy *engine* that
//! owns the store plus a registry of compiled patterns and vets many
//! requests concurrently:
//!
//! * [`engine`] — the [`AuditEngine`]: a thread-safe facade over a
//!   [`piprov_store::ProvenanceStore`] and named, pre-compiled patterns
//!   with bounded memos; queries answer from MVCC snapshots, never from
//!   the store's lock;
//! * [`snapshot`] — the [`EngineSnapshot`]: the store's own watermarked,
//!   copy-on-write [`piprov_store::StoreView`] (shared record chunks +
//!   structurally shared indexes), which the ingest path publishes once
//!   per batch and every query reads;
//! * [`request`] — the typed request/response vocabulary:
//!   [`AuditRequest`] (`VetValue`, `AuditTrail`, `WhoTouched`,
//!   `OriginOf`, `Why`, `Counterfactual`), [`AuditResponse`] and
//!   per-request [`RequestStats`] (index hits, memo hits, DAG nodes
//!   visited, counterfactual memo reuse);
//! * [`causal`] — the causal-query layer: [`WhySlice`] witness sets
//!   explaining a verdict event-by-event against the interned DAG, and
//!   [`EventFilter`]-driven counterfactual audits that re-vet a filtered
//!   view of a history without building or interning it
//!   ([`causal::filtered_view`]);
//! * [`registry`] — the versioned policy registry: immutable
//!   [`PolicySet`]s published by single pointer swap, so a whole
//!   [`piprov_policy::PolicyPack`] hot-reloads atomically
//!   ([`AuditEngine::install_pack`]) while in-flight audits keep the set
//!   — and the pack version stamped on their responses — that they
//!   loaded at entry;
//! * [`recorder`] — the [`AuditRecorder`]: a
//!   [`piprov_runtime::DeliverySink`] that streams a simulation's
//!   delivered messages into the engine while auditors query it;
//! * [`ingest`] — the bounded [`IngestQueue`]: batched ingest with typed
//!   back-pressure (`Busy` instead of unbounded buffering, counted in
//!   batches and in encoded bytes); the drain worker decodes admitted
//!   batches and applies each under one store-lock acquisition, reports a
//!   failure to the submitter's own flush ticket alone, and answers the
//!   tickets that fall due together after one sync;
//! * [`metrics`] — the observability plane: each policy's verdict
//!   counters and lock-free latency histogram ([`PolicyMetrics`], carried
//!   by its [`PolicyEntry`]) recorded on the vet hot path, a
//!   [`MetricsRegistry`] of per-stage histograms and connection counters,
//!   the aggregated [`MetricsSnapshot`] over every stats surface the
//!   workspace keeps, and a Prometheus-style text exposition with a
//!   validating parser ([`metrics::validate_exposition`]) and a sample
//!   lookup on the same parser ([`metrics::exposition_sample`]);
//! * [`trace`] — the request tracing plane: wire-propagated
//!   [`TraceContext`]s, per-stage [`Span`]s (client encode, decode, queue
//!   wait, engine handle, response write), and the bounded lock-free
//!   [`TraceCollector`] ring with head-based + always-sample-slow
//!   sampling, a deterministic text renderer ([`render_traces`]) and its
//!   linter ([`validate_trace_text`]).
//!
//! Every query is answered through the store's secondary indexes — never
//! by a full scan — and every vet goes through the NFA engine's
//! `(ProvId, state set)` memo, so a long-lived service pays per *new*
//! history node, not per query.
//!
//! ```
//! use piprov_audit::{AuditEngine, AuditOutcome, AuditRequest};
//! use piprov_core::name::{Channel, Principal};
//! use piprov_core::provenance::{Event, Provenance};
//! use piprov_core::value::Value;
//! use piprov_store::{Operation, ProvenanceRecord};
//!
//! # fn main() -> Result<(), piprov_store::StoreError> {
//! let dir = std::env::temp_dir().join(format!("piprov-audit-doc-{}", std::process::id()));
//! let engine = AuditEngine::open(&dir)?;
//! engine.register_pattern("from-a", piprov_patterns::Pattern::originated_at(
//!     piprov_patterns::GroupExpr::single("a"),
//! ));
//! let k = Provenance::single(Event::output(Principal::new("a"), Provenance::empty()));
//! engine.ingest(ProvenanceRecord::new(
//!     1, "a", Operation::Send, "m", Value::Channel(Channel::new("v")), k,
//! ))?;
//! let response = engine.handle(&AuditRequest::VetValue {
//!     value: Value::Channel(Channel::new("v")),
//!     pattern: "from-a".into(),
//! });
//! assert!(matches!(response.outcome, AuditOutcome::Vetted { verdict: true, .. }));
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod causal;
pub mod engine;
pub mod ingest;
pub mod metrics;
pub mod recorder;
pub mod registry;
pub mod request;
pub mod snapshot;
pub mod trace;

pub use causal::{
    filtered_view, CounterfactualVerdict, EventFilter, FilteredView, WhyEvent, WhySlice,
};
pub use engine::{AuditConfig, AuditEngine, EngineStats};
pub use ingest::{FlushDone, IngestQueue, SubmitOutcome};
pub use metrics::{
    exposition_sample, render_exposition, render_exposition_with, validate_exposition, Exemplar,
    ExpositionOptions, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, PolicyMetrics,
    PolicySnapshot, VetOutcomeKind, LATENCY_BUCKET_BOUNDS_NS,
};
pub use recorder::AuditRecorder;
pub use registry::{PackInstall, PolicyEntry, PolicyInfo, PolicyListing, PolicySet};
pub use request::{AuditOutcome, AuditRequest, AuditResponse, RequestStats};
pub use snapshot::EngineSnapshot;
pub use trace::{
    render_traces, validate_trace_text, RequestKind, Span, SpanKind, TraceCollector, TraceConfig,
    TraceContext, TraceRecord,
};
