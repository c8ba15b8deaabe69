//! # piprov-serve
//!
//! The **cross-process audit service**: the wire boundary that lets an
//! auditor (or a provenance-producing deployment) talk to an
//! [`piprov_audit::AuditEngine`] without sharing its address space.
//!
//! The paper's central claim is that recorded provenance lets a *remote*
//! principal audit where a value came from; until this crate, "remote"
//! stopped at a thread boundary.  Here the typed
//! `AuditRequest`/`AuditResponse` vocabulary — plus `IngestBatch` ingest
//! and `Flush`/`Metrics` control messages (`Metrics` ships the whole
//! observability plane as the Prometheus text the server also serves on
//! `GET /metrics`, rendered once on the server: [`AuditClient::metrics`]
//! returns it, and [`piprov_audit::exposition_sample`] reads one sample
//! out of it) and the policy-pack plane
//! (`LoadPack` ships a whole pack for one atomic, versioned swap —
//! [`AuditClient::load_pack`] — and `ListPolicies` reads back the
//! published set, also served as plaintext on `GET /policies`) —
//! travels a hardened, versioned binary protocol over TCP:
//!
//! * [`wire`] — length-prefixed, CRC-guarded, versioned framing with
//!   decode-side caps: a hostile length prefix or record count is a typed
//!   error before any allocation, never memory exhaustion;
//! * [`codec`] — the binary message codec; embedded records reuse the
//!   store's DAG body format, so sharing-heavy provenance stays O(DAG) on
//!   the wire and re-interns on arrival;
//! * [`server`] — the [`AuditServer`]: one readiness-based **event
//!   loop** — a loop thread owning accept and every connection's
//!   read-accumulate → decode → handle → write-drain state machine — and
//!   the ingest queue's drain worker, two threads in all.  The loop
//!   answers every frame itself: an ingest batch is checked for structure
//!   and queued still encoded (`IngestAck` means queued), and a `Flush`
//!   is a ticket the drain worker answers, so no thread waits for a
//!   flush.  Thousands of idle connections cost only a registered fd.
//!   Requests pipeline per connection, a plaintext `GET /metrics` is
//!   answered with a scrape, [`ServeConfig::idle_timeout`] is enforced, a
//!   peer that does not read its answers stalls on its own socket, and
//!   ingest gets **back-pressure** through the engine's bounded
//!   [`piprov_audit::IngestQueue`] (overflow answers a typed `Busy`; the
//!   drain worker decodes each batch and applies it under one store-lock
//!   acquisition, or not at all, and a failure goes to the submitting
//!   connection's next `Flush`).  The server needs a Unix host;
//! * [`poll`] — the zero-dependency readiness FFI shim the event loop
//!   stands on: `epoll`/`eventfd` on Linux, `poll(2)` and a socket-pair
//!   wake on other Unix hosts;
//! * [`client`] — the blocking [`AuditClient`] with pipelined queries and
//!   two ingest modes (blocking, fire-and-batch); by default every
//!   request carries a wire-propagated sampled trace context, and
//!   [`AuditClient::traces`] reads back the server's per-stage span
//!   records (`GET /trace` serves the same ring as lintable text);
//! * [`recorder`] — the [`RemoteRecorder`]
//!   [`piprov_runtime::DeliverySink`], so a simulation streams deliveries
//!   into a server in another process.
//!
//! ```
//! use piprov_audit::{AuditEngine, AuditOutcome, AuditRequest};
//! use piprov_core::name::{Channel, Principal};
//! use piprov_core::provenance::{Event, Provenance};
//! use piprov_core::value::Value;
//! use piprov_serve::{AuditClient, AuditServer, ServeConfig};
//! use piprov_store::{Operation, ProvenanceRecord};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dir = std::env::temp_dir().join(format!("piprov-serve-doc-{}", std::process::id()));
//! let engine = Arc::new(AuditEngine::open(&dir)?);
//! engine.register_pattern("from-a", piprov_patterns::Pattern::originated_at(
//!     piprov_patterns::GroupExpr::single("a"),
//! ));
//! let server = AuditServer::bind(engine, "127.0.0.1:0", ServeConfig::default())?;
//!
//! // Another process would connect to the same address.
//! let mut client = AuditClient::connect(server.local_addr())?;
//! let k = Provenance::single(Event::output(Principal::new("a"), Provenance::empty()));
//! client.ingest_blocking(vec![ProvenanceRecord::new(
//!     1, "a", Operation::Send, "m", Value::Channel(Channel::new("v")), k,
//! )])?;
//! client.flush()?;
//! let response = client.request(&AuditRequest::VetValue {
//!     value: Value::Channel(Channel::new("v")),
//!     pattern: "from-a".into(),
//! })?;
//! assert!(matches!(response.outcome, AuditOutcome::Vetted { verdict: true, .. }));
//! server.shutdown()?;
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

// `deny`, not `forbid`: the `poll` module opts back in for its FFI
// declarations (a `forbid` could not be overridden there).  Everything
// outside `poll` remains safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod codec;
mod event_loop;
pub mod poll;
pub mod recorder;
pub mod server;
pub mod wire;

pub use client::{
    AuditClient, ClientConfig, ClientError, FlushAck, IngestOutcome, PackLoadOutcome,
};
pub use codec::{request_kind, RequestTrace, WireRequest, WireResponse};
pub use recorder::RemoteRecorder;
pub use server::{AuditServer, ServeConfig};
pub use wire::{WireError, WireLimits, DEFAULT_MAX_FRAME_LEN, DEFAULT_MAX_RECORDS, WIRE_VERSION};
