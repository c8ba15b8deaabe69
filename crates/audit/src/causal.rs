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
//! describes the filtered history *without building it*: the kept events
//! above the deepest removed one, as plain borrowed events, and the spine
//! suffix strictly older than it, as the very same interned nodes.  The
//! re-vet steps the automaton over the kept events and then continues
//! its memoized walk on the suffix (`CompiledPattern::matches_after`), so
//! every memo verdict for the suffix is reused and nothing is interned:
//! a wire client's what-if questions cannot grow the process-global
//! interner.  The re-vet's memo reuse is surfaced as
//! `RequestStats::memo_reused`.

use piprov_core::name::Principal;
use piprov_core::provenance::{Direction, Event, ProvId, Provenance};
use piprov_patterns::{WitnessStep, WitnessTrail};
use piprov_store::SequenceNumber;
use std::collections::HashMap;
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
    /// Whether this filter removes `event` from a history: the reference
    /// definition the differential oracles filter with.  [`filtered_view`]
    /// answers `ChannelVia` from a memo shared along its walk, which
    /// agrees with this.
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

/// A filtered view of one history, borrowed from it: the filtered history
/// is `kept ; suffix`, and nothing is built or interned for it.
#[derive(Debug, Clone)]
pub struct FilteredView<'a> {
    /// The events above the deepest removed one that the filter keeps,
    /// most recent first.  Empty when nothing was removed.
    pub kept: Vec<&'a Event>,
    /// The spine strictly older than the deepest removed event — the
    /// original interned nodes, whose memoized verdicts a re-vet reuses —
    /// or the whole input when nothing was removed.
    pub suffix: &'a Provenance,
    /// The removed events, most recent first, tagged with their original
    /// DAG node ids.
    pub removed: Vec<WhyEvent>,
}

/// Applies `filter` to the spine of `provenance` without building the
/// filtered history.
///
/// One walk down the spine decides each event.  The suffix below the
/// deepest removed event is returned as the input's own node, and the
/// kept events above it are borrowed: the kept events between two removed
/// ones are collected when the lower of the two is found, so the events
/// below the deepest removal are passed over once and never collected.
/// `ChannelVia` is decided with a memo over the channel histories' DAG
/// nodes that lasts for this one walk, so the walk costs the spine plus
/// the distinct channel-history nodes, however many events share them.
pub fn filtered_view<'a>(provenance: &'a Provenance, filter: &EventFilter) -> FilteredView<'a> {
    let mut memo = HashMap::new();
    let mut removes = |event: &Event| match filter {
        EventFilter::ChannelVia(principal) => {
            involves(&event.channel_provenance, principal, &mut memo)
        }
        filter => filter.removes(event),
    };
    let mut kept = Vec::new();
    let mut removed = Vec::new();
    let mut suffix = provenance;
    // Events kept since the last removal: above the deepest removed event
    // only if another removal follows.
    let mut pending = 0;
    let mut cursor = provenance;
    while let (Some(event), Some(tail)) = (cursor.head(), cursor.tail()) {
        if removes(event) {
            kept.extend(suffix.iter().take(pending));
            pending = 0;
            removed.push(WhyEvent {
                node: cursor.id().as_u32(),
                event: event.clone(),
            });
            suffix = tail;
        } else {
            pending += 1;
        }
        cursor = tail;
    }
    FilteredView {
        kept,
        suffix,
        removed,
    }
}

/// Whether `principal` performs any event in the DAG below `history` —
/// its spine and, recursively, every channel history on it: the memoized
/// form of `history.principals_involved().contains(principal)`.
///
/// The spine is walked down to the first node whose answer `memo` holds,
/// or to one that settles it; every node passed shares that answer, so
/// each node is decided once.  The recursion follows channel nesting,
/// never the spine's length.
fn involves(history: &Provenance, principal: &Principal, memo: &mut HashMap<ProvId, bool>) -> bool {
    let mut passed = Vec::new();
    let mut cursor = history;
    let answer = loop {
        let (Some(event), Some(tail)) = (cursor.head(), cursor.tail()) else {
            break false;
        };
        if let Some(&known) = memo.get(&cursor.id()) {
            break known;
        }
        passed.push(cursor.id());
        if event.principal == *principal || involves(&event.channel_provenance, principal, memo) {
            break true;
        }
        cursor = tail;
    };
    for id in passed {
        memo.insert(id, answer);
    }
    answer
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

    /// `kept ; suffix` as one event list, most recent first.
    fn joined(view: &FilteredView<'_>) -> Vec<Event> {
        view.kept
            .iter()
            .map(|event| (*event).clone())
            .chain(view.suffix.to_vec())
            .collect()
    }

    #[test]
    fn empty_filter_returns_the_identical_handle() {
        let k = Provenance::from_events(vec![out("a"), inp("b"), out("c")]);
        let view = filtered_view(&k, &EventFilter::Principal(Principal::new("nobody")));
        assert!(view.kept.is_empty());
        assert!(std::ptr::eq(view.suffix, &k), "the suffix is the input");
        assert!(view.removed.is_empty());
    }

    #[test]
    fn filtering_matches_rebuilding_from_filtered_events() {
        let k = Provenance::from_events(vec![out("a"), inp("b"), out("a"), inp("c"), out("d")]);
        for filter in [
            EventFilter::Principal(Principal::new("a")),
            EventFilter::Principal(Principal::new("b")),
            EventFilter::Principal(Principal::new("d")),
            EventFilter::Kind(Direction::Output),
            EventFilter::Kind(Direction::Input),
        ] {
            let view = filtered_view(&k, &filter);
            let oracle: Vec<Event> = k.iter().filter(|e| !filter.removes(e)).cloned().collect();
            assert_eq!(
                joined(&view),
                oracle,
                "filtered view diverges for {}",
                filter
            );
            let removed: Vec<Event> = k.iter().filter(|e| filter.removes(e)).cloned().collect();
            let got: Vec<Event> = view.removed.iter().map(|r| r.event.clone()).collect();
            assert_eq!(got, removed, "removed events for {}", filter);
        }
    }

    #[test]
    fn untouched_suffix_keeps_its_interned_nodes() {
        let x = EventFilter::Principal(Principal::new("x"));
        // Remove the newest event: the suffix is the original tail.
        let head_only = Provenance::from_events(vec![out("x"), inp("b"), out("a")]);
        let view = filtered_view(&head_only, &x);
        assert!(view.kept.is_empty());
        assert_eq!(view.suffix.id(), head_only.tail().unwrap().id());
        assert_eq!(view.removed.len(), 1);
        assert_eq!(view.removed[0].node, head_only.id().as_u32());
        // Remove two events: everything below the deeper one is shared
        // verbatim, and each removed event keeps its original node id.
        let k = Provenance::from_events(vec![out("x"), inp("b"), out("x"), inp("c"), out("a")]);
        let tail = |depth: usize| (0..depth).fold(&k, |p, _| p.tail().unwrap());
        let view = filtered_view(&k, &x);
        assert_eq!(view.suffix.id(), tail(3).id());
        assert_eq!(view.kept, vec![&inp("b")]);
        let nodes: Vec<u32> = view.removed.iter().map(|r| r.node).collect();
        assert_eq!(nodes, vec![k.id().as_u32(), tail(2).id().as_u32()]);
    }

    /// `channel_chained` in the serve crate's causal-plane tests: each hop
    /// sends and receives on a channel carrying the whole history so far.
    fn channel_chained(hops: usize) -> Provenance {
        let mut provenance = Provenance::single(out("s1"));
        for hop in 0..hops {
            let relay = Principal::new(format!("relay{}", hop % 3));
            provenance = provenance
                .prepend(Event::output(relay.clone(), provenance.clone()))
                .prepend(Event::input(relay, provenance.clone()));
        }
        provenance
    }

    #[test]
    fn the_channel_via_memo_agrees_with_removes() {
        // Many events sharing one channel history, and histories whose
        // channels overlap one another.
        let channel = Provenance::from_events(vec![out("m"), inp("n"), out("o")]);
        let inner = Provenance::single(Event::input(Principal::new("q"), channel.clone()));
        let shared = Provenance::from_events(vec![
            Event::input(Principal::new("a"), channel.clone()),
            Event::output(Principal::new("b"), inner.clone()),
            out("c"),
            Event::input(Principal::new("d"), channel.tail().unwrap().clone()),
            Event::output(Principal::new("e"), channel),
            Event::input(Principal::new("f"), inner),
        ]);
        let names = [
            "s1", "relay0", "relay1", "relay2", "m", "n", "o", "q", "a", "nobody",
        ];
        for history in [channel_chained(12), shared] {
            for name in names {
                let principal = Principal::new(name);
                let filter = EventFilter::ChannelVia(principal.clone());
                // One memo across the spine, as filtered_view keeps it.
                let mut memo = HashMap::new();
                for event in history.iter() {
                    assert_eq!(
                        involves(&event.channel_provenance, &principal, &mut memo),
                        filter.removes(event),
                        "{} on {}",
                        filter,
                        event
                    );
                }
                let view = filtered_view(&history, &filter);
                let oracle: Vec<Event> = history
                    .iter()
                    .filter(|e| !filter.removes(e))
                    .cloned()
                    .collect();
                assert_eq!(joined(&view), oracle, "{}", filter);
            }
        }
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
