//! # piprov
//!
//! An executable model of the **provenance calculus** of Souilah,
//! Francalanza and Sassone, *"A Formal Model of Provenance in Distributed
//! Systems"* (2009), together with the substrates a deployment of it needs:
//! a pattern language, the meta-theory of §3 as runnable checkers, a
//! distributed-system simulator, a durable provenance store and a static
//! provenance-flow analysis.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `piprov-core` | syntax, provenance, reduction semantics, executor |
//! | [`patterns`] | `piprov-patterns` | the sample pattern language (Table 3), NFA engine, parser |
//! | [`policy`] | `piprov-policy` | `.ppol` policy packs: parser, package hierarchy, directory loader |
//! | [`logs`] | `piprov-logs` | logs, the ⊑ ordering, denotation, monitored systems, correctness |
//! | [`store`] | `piprov-store` | append-only provenance store with audit queries |
//! | [`runtime`] | `piprov-runtime` | discrete-event simulator, workloads, fault injection |
//! | [`analysis`] | `piprov-static` | static provenance-flow analysis |
//! | [`audit`] | `piprov-audit` | concurrent audit service: engine, typed requests, recorder sink, bounded ingest queue |
//! | [`serve`] | `piprov-serve` | cross-process serving: framed wire protocol, TCP server/client, remote recorder |
//!
//! ## Quickstart
//!
//! ```
//! use piprov::prelude::*;
//!
//! // The paper's introductory example: two producers, one consumer that
//! // only trusts data sent directly by `a`.
//! let system: System<Pattern> = System::par_all(vec![
//!     System::located("a", Process::output(Identifier::channel("n"), Identifier::channel("v1"))),
//!     System::located("b", Process::output(Identifier::channel("n"), Identifier::channel("v2"))),
//!     System::located("c", Process::input(
//!         Identifier::channel("n"),
//!         Pattern::immediately_sent_by(GroupExpr::single("a")),
//!         "x",
//!         Process::nil(),
//!     )),
//! ]);
//! let mut exec = Executor::new(&system, SamplePatterns::new());
//! exec.run(1_000)?;
//! // Only a's value could be consumed; b's sits unclaimed.
//! assert_eq!(exec.configuration().message_count(), 1);
//! # Ok::<(), piprov::core::reduction::ReductionError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use piprov_audit as audit;
pub use piprov_core as core;
pub use piprov_logs as logs;
pub use piprov_patterns as patterns;
pub use piprov_policy as policy;
pub use piprov_runtime as runtime;
pub use piprov_serve as serve;
pub use piprov_static as analysis;
pub use piprov_store as store;

/// Convenient re-exports of the items almost every user of the library
/// needs.
pub mod prelude {
    pub use piprov_audit::{
        render_exposition, render_traces, validate_exposition, validate_trace_text, AuditEngine,
        AuditOutcome, AuditRecorder, AuditRequest, AuditResponse, CounterfactualVerdict,
        EngineSnapshot, EventFilter, IngestQueue, MetricsSnapshot, TraceConfig, TraceContext,
        TraceRecord, WhySlice,
    };
    pub use piprov_core::interpreter::{Executor, SchedulerPolicy, StopReason};
    pub use piprov_core::name::{Channel, Principal, Variable};
    pub use piprov_core::pattern::{AnyPattern, PatternLanguage, TrivialPatterns};
    pub use piprov_core::process::{InputBranch, Process};
    pub use piprov_core::provenance::{Direction, Event, Provenance};
    pub use piprov_core::reduction::{StepEvent, StepKind};
    pub use piprov_core::system::{Message, System};
    pub use piprov_core::value::{AnnotatedValue, Identifier, Value};
    pub use piprov_logs::{
        check_provenance, has_correct_provenance, MonitoredExecutor, MonitoredSystem,
    };
    pub use piprov_patterns::{parse_pattern, GroupExpr, Pattern, SamplePatterns};
    pub use piprov_policy::{PackError, PackFile, PackSource, PolicyPack};
    pub use piprov_runtime::{
        workload, NetworkConfig, SimConfig, SimStop, Simulation, TrackingMode,
    };
    pub use piprov_serve::{AuditClient, AuditServer, RemoteRecorder, ServeConfig};
    pub use piprov_static::{analyze, elide_redundant_checks, AnalysisConfig};
    pub use piprov_store::{run_and_record, ProvenanceStore, StoreQuery};
}
