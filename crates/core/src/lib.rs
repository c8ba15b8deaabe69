//! # piprov-core
//!
//! Core syntax and provenance-tracking reduction semantics of the
//! *provenance calculus* of Souilah, Francalanza and Sassone,
//! "A Formal Model of Provenance in Distributed Systems" (2009).
//!
//! The calculus is an asynchronous pi-calculus extended with explicit
//! principal identities, provenance-annotated data, a provenance-tracking
//! reduction semantics, and pattern-restricted input.  This crate provides:
//!
//! * the syntax of processes and systems ([`process`], [`system`]),
//! * provenance sequences and events ([`provenance`]),
//! * the parametric pattern-language interface ([`pattern`]),
//! * capture-avoiding substitution ([`subst`]),
//! * structural congruence and configurations ([`configuration`]),
//! * the reduction relation with provenance tracking ([`reduction`]),
//! * a stepwise executor with pluggable schedulers ([`interpreter`]),
//! * a random system generator for property-based testing ([`generate`]).
//!
//! The sample pattern language of the paper's Table 3 lives in the
//! companion crate `piprov-patterns`; logs, monitored systems and the
//! correctness results of §3 live in `piprov-logs`.
//!
//! ## Quick example
//!
//! The paper's introductory "market of values" scenario: two producers and
//! one consumer share a channel, and provenance tracking records who sent
//! what.
//!
//! ```
//! use piprov_core::pattern::{AnyPattern, TrivialPatterns};
//! use piprov_core::process::Process;
//! use piprov_core::system::System;
//! use piprov_core::value::Identifier;
//! use piprov_core::interpreter::Executor;
//!
//! let system: System<AnyPattern> = System::par_all(vec![
//!     System::located("a", Process::output(Identifier::channel("n"), Identifier::channel("v1"))),
//!     System::located("b", Process::output(Identifier::channel("n"), Identifier::channel("v2"))),
//!     System::located("c", Process::input(Identifier::channel("n"), AnyPattern, "x", Process::nil())),
//! ]);
//!
//! let mut exec = Executor::new(&system, TrivialPatterns);
//! let outcome = exec.run(100)?;
//! assert!(outcome.steps >= 3);
//! # Ok::<(), piprov_core::reduction::ReductionError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod configuration;
pub mod generate;
pub mod interpreter;
pub mod name;
pub mod pattern;
pub mod process;
pub mod provenance;
pub mod reduction;
pub mod subst;
pub mod system;
pub mod value;

pub use configuration::{structurally_congruent, Configuration};
pub use interpreter::{Executor, RunOutcome, SchedulerPolicy, StopReason};
pub use name::{Channel, NameSupply, Principal, Variable};
pub use pattern::{AnyPattern, PatternLanguage, TrivialPatterns};
pub use process::{InputBranch, Process};
pub use provenance::{interner_stats, Direction, Event, InternerStats, ProvId, Provenance};
pub use reduction::{
    apply_redex, enumerate_redexes, successors, Redex, ReductionError, StepEvent, StepKind,
};
pub use subst::Substitution;
pub use system::{Message, System};
pub use value::{AnnotatedValue, Identifier, Value};
