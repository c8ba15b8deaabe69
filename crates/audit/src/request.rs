//! The typed request/response vocabulary of the audit service.
//!
//! Requests name the four questions the paper motivates recorded
//! provenance with; responses carry a structured outcome plus
//! [`RequestStats`], the per-request work accounting that makes the
//! service's index-and-memo discipline observable (and testable): a
//! healthy engine answers warm queries almost entirely from posting lists
//! and memoized verdicts.

use crate::causal::{CounterfactualVerdict, EventFilter, WhySlice};
use piprov_core::name::Principal;
use piprov_core::value::Value;
use piprov_store::{AuditTrail, SequenceNumber};
use std::fmt;

/// A question posed to the [`crate::AuditEngine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditRequest {
    /// Does the value's current (most recently recorded) history satisfy
    /// the named policy pattern?
    VetValue {
        /// The value whose history is vetted.
        value: Value,
        /// Name of a pattern previously registered with the engine.
        pattern: String,
    },
    /// Reconstruct the full audit trail of a value: every record that
    /// exchanged it, the principals involved, the channels it travelled.
    AuditTrail {
        /// The value being audited.
        value: Value,
    },
    /// Which records (and which values) did `principal` touch, whether as
    /// the acting principal or anywhere in a recorded history?
    WhoTouched {
        /// The principal under investigation.
        principal: Principal,
    },
    /// Where did the value originate — the oldest recorded output event?
    OriginOf {
        /// The value whose origin is sought.
        value: Value,
    },
    /// *Why* does the value's history satisfy (or fail) the named policy?
    /// Answers with a [`WhySlice`]: the witness events with their DAG node
    /// ids, or the blocking frontier where every candidate trail dies.
    Why {
        /// The value whose verdict is explained.
        value: Value,
        /// Name of a pattern previously registered with the engine.
        pattern: String,
    },
    /// Would the value still satisfy the policy with some events removed?
    /// Re-vets against a filtered view of the history without materializing
    /// a copy, reusing memoized verdicts for untouched subgraphs.
    Counterfactual {
        /// The value whose history is re-vetted.
        value: Value,
        /// Name of a pattern previously registered with the engine.
        pattern: String,
        /// Which events the counterfactual removes.
        remove: EventFilter,
    },
}

impl fmt::Display for AuditRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditRequest::VetValue { value, pattern } => {
                write!(f, "vet({}, {})", value, pattern)
            }
            AuditRequest::AuditTrail { value } => write!(f, "trail({})", value),
            AuditRequest::WhoTouched { principal } => write!(f, "touched({})", principal),
            AuditRequest::OriginOf { value } => write!(f, "origin({})", value),
            AuditRequest::Why { value, pattern } => write!(f, "why({}, {})", value, pattern),
            AuditRequest::Counterfactual {
                value,
                pattern,
                remove,
            } => write!(f, "counterfactual({}, {}, -{})", value, pattern, remove),
        }
    }
}

/// Work accounting for one served request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestStats {
    /// Posting-list entries the store's secondary indexes supplied — the
    /// records the request consulted *without* scanning the store.
    pub index_hits: usize,
    /// Pattern-memo lookups answered from a cache (vet requests only).
    pub memo_hits: usize,
    /// Provenance DAG nodes actually walked: spine nodes the NFA
    /// simulated for a vet; for trails and origins, the top-level events
    /// of the consulted records (an O(1) cached read per record).
    pub dag_nodes_visited: usize,
    /// Memoized verdicts reused by a counterfactual re-vet specifically:
    /// the cache hits scored while matching the *filtered* view — on the
    /// untouched suffix the re-walk did not have to re-simulate, and in
    /// nested channel memos while the kept events above it are stepped.
    /// Zero for every other request kind.
    pub memo_reused: usize,
}

/// The structured answer to one [`AuditRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditOutcome {
    /// Answer to [`AuditRequest::VetValue`].
    Vetted {
        /// Whether the value's latest recorded history satisfies the
        /// pattern.
        verdict: bool,
        /// The record whose provenance was vetted (the newest mentioning
        /// the value).
        sequence: SequenceNumber,
    },
    /// Answer to [`AuditRequest::AuditTrail`].
    Trail(AuditTrail),
    /// Answer to [`AuditRequest::WhoTouched`].
    Touched {
        /// Sequence numbers of every record the principal appears in
        /// (acting or historical), in sequence order.
        records: Vec<SequenceNumber>,
        /// Distinct values among those records, in order of first
        /// appearance.
        values: Vec<Value>,
    },
    /// Answer to [`AuditRequest::OriginOf`].
    Origin {
        /// The principal whose output event is the oldest recorded for
        /// the value, if any output was recorded.
        principal: Option<Principal>,
    },
    /// Answer to [`AuditRequest::Why`].
    Why(WhySlice),
    /// Answer to [`AuditRequest::Counterfactual`].
    Counterfactual(CounterfactualVerdict),
    /// The requested value has no records in the store.
    UnknownValue,
    /// The request named a pattern the engine has not registered.  The
    /// payload lets an operator spot a typo without a second round
    /// trip.
    UnknownPattern {
        /// Every registered policy name, sorted.
        known: Vec<String>,
        /// The registered name closest to the requested one by edit
        /// distance, when one is plausibly a typo for it.
        nearest: Option<String>,
    },
}

/// Response to one request: the outcome plus its work accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditResponse {
    /// The structured answer.
    pub outcome: AuditOutcome,
    /// What serving the answer cost.
    pub stats: RequestStats,
    /// The watermark (highest visible sequence number) of the published
    /// [`crate::EngineSnapshot`] that answered the request.  Every record
    /// a response mentions has `sequence <= watermark`, and watermarks
    /// observed through one engine are monotone — together, the engine's
    /// consistency contract (see [`crate::AuditEngine`]).
    pub watermark: SequenceNumber,
    /// Version of the policy set that answered the request.  A request
    /// loads one [`crate::PolicySet`] at entry and answers entirely
    /// from it, so every response is explained by exactly one pack
    /// version even while a hot reload swaps the registry underneath.
    pub pack_version: u64,
}

impl AuditResponse {
    pub(crate) fn new(
        outcome: AuditOutcome,
        stats: RequestStats,
        watermark: SequenceNumber,
        pack_version: u64,
    ) -> Self {
        AuditResponse {
            outcome,
            stats,
            watermark,
            pack_version,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piprov_core::name::Channel;

    #[test]
    fn requests_display_compactly() {
        let v = Value::Channel(Channel::new("v"));
        assert_eq!(
            AuditRequest::VetValue {
                value: v.clone(),
                pattern: "p".into()
            }
            .to_string(),
            "vet(v, p)"
        );
        assert_eq!(
            AuditRequest::AuditTrail { value: v.clone() }.to_string(),
            "trail(v)"
        );
        assert_eq!(
            AuditRequest::WhoTouched {
                principal: Principal::new("a")
            }
            .to_string(),
            "touched(a)"
        );
        assert_eq!(AuditRequest::OriginOf { value: v }.to_string(), "origin(v)");
    }
}
