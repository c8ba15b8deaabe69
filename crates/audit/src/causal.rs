//! Causal queries over the interned provenance DAG: why-provenance
//! slices and counterfactual audits.
//!
//! The engine's vet plane answers *whether* a value's history satisfies a
//! policy; this module answers *why* and *what if*, following the
//! causality reading of provenance (Cheney's *Causality and the Semantics
//! of Provenance*): provenance is dependency information, so a verdict
//! can be explained by the events it depends on and probed by removing
//! them.
//!
//! **Why-provenance slices.**  The NFA subset simulation tracks every
//! candidate trail at once, so a single walk yields an exact explanation
//! (see `CompiledPattern::witness` in `piprov-patterns`): for a Passed
//! verdict, one accepting trail's events — the [`WhySlice`] — each tagged
//! with the interned DAG node (`ProvId`) of the suffix it heads; for a
//! Failed verdict, the blocking frontier — the earliest event at which
//! every candidate trail dies, or the end of a history that is simply too
//! short.
//!
//! **Counterfactual audits.**  [`EventFilter`] names a set of spine
//! events to remove — by acting principal, by event kind, or by the
//! channel's own history (the paper's δ(k) discipline records a channel's
//! *provenance* on each event, not its name, so "remove channel c's
//! events" is grounded in who built the channel).  [`filtered_view`]
//! produces the filtered history *without materializing a copy of the
//! DAG*: the spine suffix strictly older than the deepest removed event
//! is kept as the very same interned nodes — so every NFA memo verdict
//! for it remains valid and is reused — and only the kept events above it
//! are re-interned (one hash-cons lookup each).  The re-vet's memo reuse
//! is surfaced as `RequestStats::memo_reused`.

use piprov_core::name::Principal;
use piprov_core::provenance::{Direction, Event, Provenance};
use piprov_patterns::{WitnessStep, WitnessTrail};
use piprov_store::SequenceNumber;
use std::fmt;

/// Names the spine events a counterfactual removes.
///
/// Filters apply to the *top-level* spine events of the vetted history;
/// channel provenances ride along unchanged inside kept events (they are
/// the channel's own history, not the value's).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventFilter {
    /// Remove every event performed by this principal.
    Principal(Principal),
    /// Remove every event of this kind (all outputs, or all inputs).
    Kind(Direction),
    /// Remove every event exchanged on a channel whose own recorded
    /// history involves this principal.  Events carry the channel's
    /// provenance rather than its name (the paper's δ(k) discipline), so
    /// this is how "remove channel c's events" is grounded: by who built
    /// the channel.
    ChannelVia(Principal),
}

impl EventFilter {
    /// Whether this filter removes `event` from a history.
    pub fn removes(&self, event: &Event) -> bool {
        match self {
            EventFilter::Principal(principal) => event.principal == *principal,
            EventFilter::Kind(direction) => event.direction == *direction,
            EventFilter::ChannelVia(principal) => event
                .channel_provenance
                .principals_involved()
                .contains(principal),
        }
    }
}

impl fmt::Display for EventFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventFilter::Principal(principal) => write!(f, "principal={}", principal),
            EventFilter::Kind(Direction::Output) => write!(f, "kind=output"),
            EventFilter::Kind(Direction::Input) => write!(f, "kind=input"),
            EventFilter::ChannelVia(principal) => write!(f, "channel-via={}", principal),
        }
    }
}

/// One event of a witness slice, tagged with the interned DAG node id
/// (`ProvId::as_u32`) of the spine suffix it heads — the pointer back
/// into the hash-consed DAG an operator can correlate across slices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WhyEvent {
    /// Interned id of the suffix whose head is `event` (`κ#node`).
    pub node: u32,
    /// The event itself.
    pub event: Event,
}

/// Renders `κ#node a!ε`, or `κ#node a![κ#id]` when the channel has a
/// history: the channel's interned node id stands in for the history,
/// whose expanded tree can be exponentially larger than its DAG.
///
/// The bracketed id comes from the interner of the process that renders
/// the event, and only means something there: for `GET /why` that is the
/// server, whose ids `κ#node` also carries.  A slice decoded by a client
/// interns its channel histories anew, so rendered there the bracketed id
/// and `κ#node` come from different id spaces.
impl fmt::Display for WhyEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let event = &self.event;
        write!(f, "κ#{} {}{}", self.node, event.principal, event.direction)?;
        match event.channel_provenance.id() {
            id if id.is_empty() => write!(f, "ε"),
            id => write!(f, "[κ#{}]", id.as_u32()),
        }
    }
}

/// The witness set of events explaining one vet verdict.
///
/// For `verdict == true`: `events` is an accepting trail (the full spine
/// the subset walk consumed, most recent first) and `blocked` is `None`.
/// For `verdict == false`: either `blocked` indexes the event in `events`
/// at which every candidate trail died (the blocking frontier), or
/// `blocked` is `None` and the whole history was consumed without
/// reaching acceptance — the history ends too early for the policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WhySlice {
    /// The verdict being explained.
    pub verdict: bool,
    /// The record whose provenance was vetted (the newest mentioning the
    /// value).
    pub sequence: SequenceNumber,
    /// Witness events, most recent first.
    pub events: Vec<WhyEvent>,
    /// Index into `events` of the blocking-frontier event, when the
    /// verdict failed mid-walk.
    pub blocked: Option<u32>,
}

fn why_event(step: WitnessStep) -> WhyEvent {
    WhyEvent {
        node: step.node.as_u32(),
        event: step.event,
    }
}

impl WhySlice {
    /// Builds the slice from a witness walk's trail (see
    /// `CompiledPattern::witness` in `piprov-patterns`).
    pub fn from_trail(trail: WitnessTrail, sequence: SequenceNumber) -> Self {
        match trail {
            WitnessTrail::Accepted { steps } => WhySlice {
                verdict: true,
                sequence,
                events: steps.into_iter().map(why_event).collect(),
                blocked: None,
            },
            WitnessTrail::Blocked { consumed, blocked } => {
                let mut events: Vec<WhyEvent> = consumed.into_iter().map(why_event).collect();
                let index = events.len() as u32;
                events.push(why_event(blocked));
                WhySlice {
                    verdict: false,
                    sequence,
                    events,
                    blocked: Some(index),
                }
            }
            WitnessTrail::Exhausted { consumed } => WhySlice {
                verdict: false,
                sequence,
                events: consumed.into_iter().map(why_event).collect(),
                blocked: None,
            },
        }
    }
}

impl fmt::Display for WhySlice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "why: verdict={} sequence={} events={}",
            if self.verdict { "pass" } else { "fail" },
            self.sequence,
            self.events.len()
        )?;
        for (index, event) in self.events.iter().enumerate() {
            write!(f, "  {}", event)?;
            if self.blocked == Some(index as u32) {
                write!(f, "   <- every candidate trail dies here")?;
            }
            writeln!(f)?;
        }
        if !self.verdict && self.blocked.is_none() {
            writeln!(f, "  (history exhausted before an accepting state)")?;
        }
        Ok(())
    }
}

/// Both verdicts of a counterfactual audit plus the delta slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterfactualVerdict {
    /// Verdict of the unmodified history.
    pub original: bool,
    /// Verdict of the filtered history.
    pub counterfactual: bool,
    /// The record whose provenance was (re-)vetted.
    pub sequence: SequenceNumber,
    /// The delta slice: the spine events the filter removed, most recent
    /// first, each tagged with its original DAG node id.
    pub removed: Vec<WhyEvent>,
}

impl CounterfactualVerdict {
    /// Whether removing the events changed the verdict — the filtered
    /// events were *causal* for the original answer.
    pub fn flipped(&self) -> bool {
        self.original != self.counterfactual
    }
}

impl fmt::Display for CounterfactualVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let word = |v: bool| if v { "pass" } else { "fail" };
        write!(
            f,
            "counterfactual: {} -> {} ({} events removed)",
            word(self.original),
            word(self.counterfactual),
            self.removed.len()
        )
    }
}

/// A filtered view of one history: the rebuilt spine plus the delta.
#[derive(Debug, Clone)]
pub struct FilteredView {
    /// The filtered history.  When nothing was removed this is the *same*
    /// interned handle as the input (id-equal), so a re-vet is answered
    /// entirely from the memo.
    pub provenance: Provenance,
    /// The removed events, most recent first, tagged with their original
    /// DAG node ids.
    pub removed: Vec<WhyEvent>,
}

/// Applies `filter` to the spine of `provenance` without materializing a
/// DAG copy.
///
/// The walk finds the deepest (oldest) removed event; the spine suffix
/// strictly older than it is kept as-is — the identical interned nodes,
/// which is what lets the NFA memo answer for that whole subgraph — and
/// only the kept events above it are re-interned, one hash-cons lookup
/// per event.  If the filter removes nothing, the input handle is
/// returned unchanged.
pub fn filtered_view(provenance: &Provenance, filter: &EventFilter) -> FilteredView {
    // One pass down the spine: remember each suffix handle and which
    // heads the filter removes.
    let mut suffixes: Vec<&Provenance> = Vec::with_capacity(provenance.len());
    let mut cursor = provenance;
    while let Some(tail) = cursor.tail() {
        suffixes.push(cursor);
        cursor = tail;
    }
    let mut removed: Vec<WhyEvent> = Vec::new();
    let mut deepest: Option<usize> = None;
    for (index, suffix) in suffixes.iter().enumerate() {
        let event = suffix.head().expect("suffix is non-empty");
        if filter.removes(event) {
            removed.push(WhyEvent {
                node: suffix.id().as_u32(),
                event: event.clone(),
            });
            deepest = Some(index);
        }
    }
    let Some(deepest) = deepest else {
        return FilteredView {
            provenance: provenance.clone(),
            removed,
        };
    };
    // Everything strictly older than the deepest removed event is shared
    // verbatim; re-prepend the kept newer events oldest-first.
    let mut rebuilt = suffixes[deepest]
        .tail()
        .expect("suffix is non-empty")
        .clone();
    for suffix in suffixes[..deepest].iter().rev() {
        let event = suffix.head().expect("suffix is non-empty");
        if !filter.removes(event) {
            rebuilt = rebuilt.prepend(event.clone());
        }
    }
    FilteredView {
        provenance: rebuilt,
        removed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out(p: &str) -> Event {
        Event::output(Principal::new(p), Provenance::empty())
    }
    fn inp(p: &str) -> Event {
        Event::input(Principal::new(p), Provenance::empty())
    }

    #[test]
    fn why_events_render_a_channel_history_by_its_node_id() {
        let channel = Provenance::from_events(vec![out("a"), inp("c")]);
        let nested = WhyEvent {
            node: 12,
            event: Event::input(Principal::new("b"), channel.clone()),
        };
        assert_eq!(
            nested.to_string(),
            format!("κ#12 b?[κ#{}]", channel.id().as_u32())
        );
        let bare = WhyEvent {
            node: 3,
            event: out("s0"),
        };
        assert_eq!(bare.to_string(), "κ#3 s0!ε");
    }

    #[test]
    fn empty_filter_returns_the_identical_handle() {
        let k = Provenance::from_events(vec![out("a"), inp("b"), out("c")]);
        let view = filtered_view(&k, &EventFilter::Principal(Principal::new("nobody")));
        assert_eq!(view.provenance.id(), k.id());
        assert!(view.removed.is_empty());
    }

    #[test]
    fn filtering_matches_rebuilding_from_filtered_events() {
        let k = Provenance::from_events(vec![out("a"), inp("b"), out("a"), inp("c")]);
        for filter in [
            EventFilter::Principal(Principal::new("a")),
            EventFilter::Principal(Principal::new("b")),
            EventFilter::Kind(Direction::Output),
            EventFilter::Kind(Direction::Input),
        ] {
            let view = filtered_view(&k, &filter);
            let oracle =
                Provenance::from_events(k.to_vec().into_iter().filter(|e| !filter.removes(e)));
            assert_eq!(
                view.provenance.id(),
                oracle.id(),
                "filtered view diverges for {}",
                filter
            );
            let removed = k.to_vec().into_iter().filter(|e| filter.removes(e)).count();
            assert_eq!(view.removed.len(), removed);
        }
    }

    #[test]
    fn untouched_suffix_keeps_its_interned_nodes() {
        // Remove only the newest event: every older suffix must keep its id.
        let k = Provenance::from_events(vec![out("x"), inp("b"), out("a")]);
        let view = filtered_view(&k, &EventFilter::Principal(Principal::new("x")));
        assert_eq!(
            view.provenance.id(),
            k.tail().unwrap().id(),
            "tail after removing the head must be the shared suffix"
        );
        assert_eq!(view.removed.len(), 1);
        assert_eq!(view.removed[0].node, k.id().as_u32());
    }

    #[test]
    fn channel_via_is_grounded_in_the_channel_history() {
        let via_m = Event::input(Principal::new("b"), Provenance::single(out("m")));
        let plain = out("a");
        let filter = EventFilter::ChannelVia(Principal::new("m"));
        assert!(filter.removes(&via_m));
        assert!(!filter.removes(&plain));
    }
}
