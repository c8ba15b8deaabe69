//! Provenance sequences and events.
//!
//! The provenance `κ` of a value is a sequence of events `e₁; …; eₙ`,
//! temporally ordered with the *most recent event first*.  An event is
//! either an output event `a!κ` (the value was sent by principal `a` on a
//! channel whose provenance is `κ`) or an input event `a?κ` (the value was
//! received by principal `a` on a channel whose provenance is `κ`).
//!
//! Because every event embeds the *entire* provenance of the channel it
//! travelled on, the logical term is a tree that can be exponentially
//! larger than its underlying DAG.  The canonical representation here is a
//! **hash-consed (interned) DAG**: every distinct `(event, tail)` node is
//! created exactly once by the global [`interner`], carries a stable
//! [`ProvId`], and caches its `len`, `depth`, `total_size` and principal
//! filter.  As a result:
//!
//! * [`Provenance::prepend`] — the operation performed by the reduction
//!   rules (`κ ↦ a!κₘ; κ`) — is O(1) plus one interner lookup and shares
//!   the entire old sequence;
//! * equality and hashing are O(1) (they compare ids — two provenances are
//!   structurally equal if and only if they intern to the same node);
//! * [`Provenance::len`], [`Provenance::depth`] and
//!   [`Provenance::total_size`] are O(1) cached reads, even when the
//!   logical tree has exponentially many events.
//!
//! Two non-interned representations are kept as ablation baselines for
//! experiment E9 (`DESIGN.md` §6): the seed's structurally shared cons
//! list ([`cons`]) with deep equality, and a flat eagerly cloned vector
//! ([`compact`]).

use crate::name::Principal;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

pub mod compact;
pub mod cons;
pub mod interner;

pub use interner::{interner_stats, principal_bit, InternerStats, ProvId};

/// The direction of a provenance event: output (`!`) or input (`?`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// The value was sent.
    Output,
    /// The value was received.
    Input,
}

impl Direction {
    /// The symbol used in the paper's notation: `!` for output, `?` for input.
    pub fn symbol(self) -> char {
        match self {
            Direction::Output => '!',
            Direction::Input => '?',
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

/// A single provenance event `a!κ` or `a?κ`.
///
/// The channel provenance is itself an interned [`Provenance`], so cloning,
/// comparing and hashing events is cheap regardless of how deeply the
/// channel's history nests.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Event {
    /// The principal that performed the send or receive.
    pub principal: Principal,
    /// Whether the event is an output (`!`) or an input (`?`).
    pub direction: Direction,
    /// The provenance of the *channel* on which the exchange happened.
    pub channel_provenance: Provenance,
}

impl Event {
    /// Builds an output event `principal!channel_provenance`.
    pub fn output(principal: impl Into<Principal>, channel_provenance: Provenance) -> Self {
        Event {
            principal: principal.into(),
            direction: Direction::Output,
            channel_provenance,
        }
    }

    /// Builds an input event `principal?channel_provenance`.
    pub fn input(principal: impl Into<Principal>, channel_provenance: Provenance) -> Self {
        Event {
            principal: principal.into(),
            direction: Direction::Input,
            channel_provenance,
        }
    }

    /// Returns `true` if this is an output event.
    pub fn is_output(&self) -> bool {
        self.direction == Direction::Output
    }

    /// Returns `true` if this is an input event.
    pub fn is_input(&self) -> bool {
        self.direction == Direction::Input
    }

    /// Total number of events reachable from this event, including itself
    /// and everything nested inside the channel provenance (O(1): the
    /// nested size is cached on the interned channel provenance).
    pub fn total_size(&self) -> usize {
        1usize.saturating_add(self.channel_provenance.total_size())
    }

    /// Nesting depth of the event (an event over an empty channel
    /// provenance has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.channel_provenance.depth()
    }
}

impl fmt::Debug for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.channel_provenance.is_empty() {
            write!(f, "{}{}ε", self.principal, self.direction)
        } else {
            write!(
                f,
                "{}{}[{}]",
                self.principal, self.direction, self.channel_provenance
            )
        }
    }
}

/// A provenance sequence `κ ::= ε | e | κ;κ`, kept in the flattened
/// (right-associated) normal form the paper works with: a list of events,
/// most recent first.
///
/// `Provenance` values are immutable handles onto interned DAG nodes:
/// cloning is an `Arc` bump, equality and hashing compare [`ProvId`]s in
/// O(1), and prefixing an event with [`Provenance::prepend`] shares the
/// tail (one interner lookup).
///
/// ```
/// use piprov_core::provenance::{Event, Provenance};
///
/// let kappa = Provenance::empty()
///     .prepend(Event::output("a", Provenance::empty()))
///     .prepend(Event::input("b", Provenance::empty()));
/// assert_eq!(kappa.to_string(), "b?ε; a!ε");
/// assert_eq!(kappa.len(), 2);
///
/// // Structurally equal sequences intern to the same node.
/// let again = Provenance::from_events(kappa.to_vec());
/// assert_eq!(again.id(), kappa.id());
/// ```
#[derive(Clone)]
pub struct Provenance {
    node: Option<interner::NodeHandle>,
}

impl Provenance {
    /// The empty provenance sequence `ε`: the value originated locally and
    /// has never been exchanged.
    pub fn empty() -> Self {
        Provenance { node: None }
    }

    fn from_node(node: interner::NodeHandle) -> Self {
        Provenance { node: Some(node) }
    }

    /// The stable identifier of the interned node backing this sequence
    /// ([`ProvId::EMPTY`] for `ε`).
    ///
    /// Ids are stable for the lifetime of the process: two `Provenance`
    /// values are structurally equal if and only if their ids are equal.
    pub fn id(&self) -> ProvId {
        self.node.as_ref().map(|n| n.id).unwrap_or(ProvId::EMPTY)
    }

    /// Builds a provenance sequence from events given *most recent first*.
    pub fn from_events<I>(events: I) -> Self
    where
        I: IntoIterator<Item = Event>,
        I::IntoIter: DoubleEndedIterator,
    {
        let mut acc = Provenance::empty();
        for ev in events.into_iter().rev() {
            acc = acc.prepend(ev);
        }
        acc
    }

    /// Builds a provenance holding a single event.
    pub fn single(event: Event) -> Self {
        Provenance::empty().prepend(event)
    }

    /// Returns a new sequence with `event` as the new most-recent event.
    ///
    /// This is the operation performed by the provenance-tracking reduction
    /// rules: `κ ↦ a!κₘ; κ` on output and `κ ↦ a?κₘ; κ` on input.  The
    /// node is built through the global interner, so repeated histories
    /// share storage and compare in O(1).
    pub fn prepend(&self, event: Event) -> Self {
        Provenance::from_node(interner::intern(&event, self))
    }

    /// Concatenates two sequences: `self ; other` (all of `self` is more
    /// recent than all of `other`).
    ///
    /// Runs in a single reverse pass over `self`'s spine, re-interning each
    /// node on top of `other`; events are only cloned when the interner has
    /// not seen the `(event, tail)` pair before.
    pub fn concat(&self, other: &Provenance) -> Self {
        if other.is_empty() {
            return self.clone();
        }
        if self.is_empty() {
            return other.clone();
        }
        let mut spine: Vec<&interner::NodeHandle> = Vec::with_capacity(self.len());
        let mut cursor = &self.node;
        while let Some(node) = cursor {
            spine.push(node);
            cursor = &node.tail.node;
        }
        let mut acc = other.clone();
        for node in spine.into_iter().rev() {
            acc = Provenance::from_node(interner::intern(&node.event, &acc));
        }
        acc
    }

    /// `true` when the sequence is `ε`.
    pub fn is_empty(&self) -> bool {
        self.node.is_none()
    }

    /// Number of top-level events in the sequence (nested channel
    /// provenances are not counted; see [`Provenance::total_size`]).  O(1):
    /// cached on the interned node.
    pub fn len(&self) -> usize {
        self.node.as_ref().map_or(0, |n| n.len as usize)
    }

    /// The most recent event, if any.
    pub fn head(&self) -> Option<&Event> {
        self.node.as_ref().map(|n| &n.event)
    }

    /// Everything but the most recent event.  Returns `None` on `ε`.
    pub fn tail(&self) -> Option<&Provenance> {
        self.node.as_ref().map(|n| &n.tail)
    }

    /// Iterates over the top-level events, most recent first.
    pub fn iter(&self) -> Iter<'_> {
        Iter { current: self }
    }

    /// Collects the top-level events into a vector, most recent first.
    pub fn to_vec(&self) -> Vec<Event> {
        self.iter().cloned().collect()
    }

    /// Total number of events in the *logical tree*, i.e. including those
    /// nested inside channel provenances, counting shared substructure once
    /// per occurrence.  This is the quantity that grows (potentially
    /// exponentially) during long runs; it is cached on the interned node,
    /// so reading it is O(1).  Saturates at `usize::MAX`.
    pub fn total_size(&self) -> usize {
        self.node.as_ref().map(|n| n.total_size).unwrap_or(0)
    }

    /// Maximum nesting depth of channel provenances (ε has depth 0).
    /// O(1): cached on the interned node.
    pub fn depth(&self) -> usize {
        self.node.as_ref().map_or(0, |n| n.depth as usize)
    }

    /// The [`principal_bit`]s of every principal at or below this node, on
    /// the spine and in every channel history (0 for `ε`).  O(1): cached
    /// on the interned node.
    ///
    /// A clear bit is an exact "no": a principal whose bit is clear
    /// performs no event anywhere in the DAG below.  A set bit is only
    /// "maybe", because 64 bits are shared among all names.
    pub fn principal_filter(&self) -> u64 {
        self.node.as_ref().map_or(0, |n| n.principals)
    }

    /// Number of *distinct* interned nodes reachable from this sequence
    /// through tail and channel-provenance edges — the size of the DAG, as
    /// opposed to [`Provenance::total_size`] which is the size of the tree.
    ///
    /// The ratio `total_size / dag_size` measures how much sharing the
    /// interned representation exploits.
    pub fn dag_size(&self) -> usize {
        let mut visited: HashSet<ProvId> = HashSet::new();
        let mut stack = vec![self.clone()];
        while let Some(start) = stack.pop() {
            let mut cursor = start;
            while let Some(node) = cursor.node.as_ref() {
                if !visited.insert(node.id) {
                    break;
                }
                let channel = node.event.channel_provenance.clone();
                if !channel.is_empty() {
                    stack.push(channel);
                }
                let tail = node.tail.clone();
                cursor = tail;
            }
        }
        visited.len()
    }

    /// All distinct interned nodes reachable from any of `roots`, in
    /// postorder: the channel provenance and tail of a node are listed
    /// before the node itself, and `ε` is never listed.  A node reachable
    /// from more than one root is listed once, where the first root to
    /// reach it lists it.
    ///
    /// This is the enumeration the store's node table serializes: because
    /// children precede parents, every node can refer to its children by
    /// their position in this list.
    pub fn dag_nodes<'a>(roots: impl IntoIterator<Item = &'a Provenance>) -> Vec<Provenance> {
        let mut visited: HashSet<ProvId> = HashSet::new();
        let mut order = Vec::new();
        let mut stack: Vec<(Provenance, bool)> = Vec::new();
        for root in roots {
            stack.push((root.clone(), false));
            while let Some((current, expanded)) = stack.pop() {
                let Some(node) = current.node.as_ref() else {
                    continue;
                };
                if expanded {
                    order.push(current.clone());
                    continue;
                }
                if !visited.insert(node.id) {
                    continue;
                }
                let tail = node.tail.clone();
                let channel = node.event.channel_provenance.clone();
                stack.push((current.clone(), true));
                stack.push((tail, false));
                stack.push((channel, false));
            }
        }
        order
    }

    /// All principals mentioned anywhere in the sequence, in order of first
    /// appearance (most recent first), without duplicates.
    ///
    /// This is the basis of the auditing example of the paper: the
    /// principals that "were involved" with a value.
    ///
    /// Visits each DAG node once, so the cost follows
    /// [`Provenance::dag_size`], not the exponentially larger tree.
    pub fn principals_involved(&self) -> Vec<Principal> {
        let mut out: Vec<Principal> = Vec::new();
        self.collect_principals(&mut out, &mut HashSet::new(), false);
        out
    }

    /// Walks the spine, each channel provenance right after its event.
    /// Inside a channel provenance (`nested`) every node is remembered in
    /// `seen`, and a node seen before ends the walk: its whole sub-DAG was
    /// walked when it was first reached, so its principals are in `out`
    /// already.  A spine without channel provenances hashes nothing.
    fn collect_principals(
        &self,
        out: &mut Vec<Principal>,
        seen: &mut HashSet<ProvId>,
        nested: bool,
    ) {
        let mut cursor = self;
        while let Some(node) = cursor.node.as_ref() {
            if nested && !seen.insert(node.id) {
                return;
            }
            if !out.contains(&node.event.principal) {
                out.push(node.event.principal.clone());
            }
            if !node.event.channel_provenance.is_empty() {
                node.event
                    .channel_provenance
                    .collect_principals(out, seen, true);
            }
            cursor = &node.tail;
        }
    }

    /// `true` if the most recent event is an output by `principal`.
    ///
    /// Corresponds to the "immediate sender" authentication check of the
    /// paper's first example.
    pub fn last_sent_by(&self, principal: &Principal) -> bool {
        matches!(self.head(), Some(ev) if ev.is_output() && &ev.principal == principal)
    }

    /// `true` if the *oldest* top-level event is an output by `principal`,
    /// i.e. the value originated at `principal`.
    ///
    /// Corresponds to the "original sender" authentication check of the
    /// paper's first example.
    pub fn originated_at(&self, principal: &Principal) -> bool {
        matches!(self.iter().last(), Some(ev) if ev.is_output() && &ev.principal == principal)
    }
}

impl PartialEq for Provenance {
    fn eq(&self, other: &Self) -> bool {
        self.id() == other.id()
    }
}

impl Eq for Provenance {}

impl std::hash::Hash for Provenance {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id().hash(state);
    }
}

impl Serialize for Provenance {}
impl Deserialize for Provenance {}

impl Default for Provenance {
    fn default() -> Self {
        Provenance::empty()
    }
}

impl FromIterator<Event> for Provenance {
    fn from_iter<T: IntoIterator<Item = Event>>(iter: T) -> Self {
        Provenance::from_events(iter.into_iter().collect::<Vec<_>>())
    }
}

impl<'a> IntoIterator for &'a Provenance {
    type Item = &'a Event;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over the top-level events of a [`Provenance`], most recent first.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    current: &'a Provenance,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a Event;

    fn next(&mut self) -> Option<Self::Item> {
        let node = self.current.node.as_ref()?;
        self.current = &node.tail;
        Some(&node.event)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.current.len(), Some(self.current.len()))
    }
}

impl<'a> ExactSizeIterator for Iter<'a> {}

impl fmt::Debug for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "ε");
        }
        let mut first = true;
        for ev in self.iter() {
            if !first {
                write!(f, "; ")?;
            }
            first = false;
            write!(f, "{}", ev)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> Principal {
        Principal::new("a")
    }
    fn b() -> Principal {
        Principal::new("b")
    }

    #[test]
    fn empty_has_no_events() {
        let e = Provenance::empty();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert_eq!(e.head(), None);
        assert_eq!(e.tail(), None);
        assert_eq!(e.to_string(), "ε");
        assert_eq!(e.depth(), 0);
        assert_eq!(e.total_size(), 0);
        assert_eq!(e.id(), ProvId::EMPTY);
        assert_eq!(e.dag_size(), 0);
    }

    #[test]
    fn prepend_puts_most_recent_first() {
        let k = Provenance::empty()
            .prepend(Event::output(a(), Provenance::empty()))
            .prepend(Event::input(b(), Provenance::empty()));
        let events = k.to_vec();
        assert_eq!(events.len(), 2);
        assert!(events[0].is_input());
        assert_eq!(events[0].principal, b());
        assert!(events[1].is_output());
        assert_eq!(events[1].principal, a());
    }

    #[test]
    fn from_events_preserves_order() {
        let e1 = Event::output(a(), Provenance::empty());
        let e2 = Event::input(b(), Provenance::empty());
        let k = Provenance::from_events(vec![e1.clone(), e2.clone()]);
        assert_eq!(k.to_vec(), vec![e1, e2]);
    }

    #[test]
    fn concat_orders_left_before_right() {
        let left = Provenance::single(Event::output(a(), Provenance::empty()));
        let right = Provenance::single(Event::input(b(), Provenance::empty()));
        let joined = left.concat(&right);
        assert_eq!(joined.len(), 2);
        assert_eq!(joined.to_vec()[0], left.to_vec()[0]);
        assert_eq!(joined.to_vec()[1], right.to_vec()[0]);
    }

    #[test]
    fn concat_with_empty_is_identity() {
        let k = Provenance::single(Event::output(a(), Provenance::empty()));
        assert_eq!(k.concat(&Provenance::empty()), k);
        assert_eq!(Provenance::empty().concat(&k), k);
    }

    #[test]
    fn concat_preserves_structural_sharing() {
        // Build a long right-hand side and a moderate left-hand side; the
        // concatenation must share the *entire* right-hand side (same
        // interned node, not a copy), and the result must be the same node
        // as prepending the left events one by one.
        let right = Provenance::from_events(
            (0..64)
                .map(|i| Event::output(Principal::new(format!("r{}", i)), Provenance::empty()))
                .collect::<Vec<_>>(),
        );
        let left = Provenance::from_events(
            (0..16)
                .map(|i| Event::input(Principal::new(format!("l{}", i)), Provenance::empty()))
                .collect::<Vec<_>>(),
        );
        let joined = left.concat(&right);
        assert_eq!(joined.len(), 80);
        // Walk past the left part: what remains must be `right` itself.
        let mut suffix = &joined;
        for _ in 0..left.len() {
            suffix = suffix.tail().unwrap();
        }
        assert_eq!(suffix.id(), right.id(), "tail is shared, not rebuilt");
        // And concat agrees node-for-node with the fold over prepend.
        let mut expected = right.clone();
        for ev in left.to_vec().into_iter().rev() {
            expected = expected.prepend(ev);
        }
        assert_eq!(joined.id(), expected.id());
    }

    #[test]
    fn display_matches_paper_notation() {
        let km = Provenance::single(Event::output(a(), Provenance::empty()));
        let k = Provenance::single(Event::input(b(), km));
        assert_eq!(k.to_string(), "b?[a!ε]");
    }

    #[test]
    fn total_size_counts_nested_events() {
        let inner = Provenance::single(Event::output(a(), Provenance::empty()));
        let outer = Provenance::single(Event::input(b(), inner.clone())).prepend(Event::output(
            a(),
            Provenance::single(Event::input(b(), inner)),
        ));
        // outer has two top-level events; first has 2 nested (b? + a!), second has 1.
        assert_eq!(outer.total_size(), 2 + 1 + 2);
        assert_eq!(outer.depth(), 3);
    }

    #[test]
    fn principals_involved_deduplicates_in_order() {
        let km = Provenance::single(Event::output(b(), Provenance::empty()));
        let k = Provenance::from_events(vec![
            Event::input(a(), km),
            Event::output(a(), Provenance::empty()),
            Event::output(b(), Provenance::empty()),
        ]);
        assert_eq!(k.principals_involved(), vec![a(), b()]);
    }

    #[test]
    fn authentication_helpers() {
        // κ = c! ; b? ; d!   (most recent first)
        let k = Provenance::from_events(vec![
            Event::output(Principal::new("c"), Provenance::empty()),
            Event::input(b(), Provenance::empty()),
            Event::output(Principal::new("d"), Provenance::empty()),
        ]);
        assert!(k.last_sent_by(&Principal::new("c")));
        assert!(!k.last_sent_by(&Principal::new("d")));
        assert!(k.originated_at(&Principal::new("d")));
        assert!(!k.originated_at(&Principal::new("c")));
        assert!(!Provenance::empty().last_sent_by(&a()));
        assert!(!Provenance::empty().originated_at(&a()));
    }

    #[test]
    fn clone_shares_structure() {
        let base = Provenance::from_events(vec![Event::output(a(), Provenance::empty())]);
        let extended = base.prepend(Event::input(b(), Provenance::empty()));
        // The tail of the extended sequence is the same interned node as `base`.
        assert_eq!(extended.tail(), Some(&base));
        assert_eq!(extended.tail().unwrap().id(), base.id());
        assert_eq!(base.len(), 1);
        assert_eq!(extended.len(), 2);
    }

    #[test]
    fn equality_is_structural_and_o1() {
        let k1 = Provenance::from_events(vec![
            Event::output(a(), Provenance::empty()),
            Event::input(b(), Provenance::empty()),
        ]);
        let k2 = Provenance::empty()
            .prepend(Event::input(b(), Provenance::empty()))
            .prepend(Event::output(a(), Provenance::empty()));
        assert_eq!(k1, k2);
        // Hash-consing: structural equality coincides with id equality.
        assert_eq!(k1.id(), k2.id());
        let k3 = k1.prepend(Event::output(a(), Provenance::empty()));
        assert_ne!(k1, k3);
        assert_ne!(k1.id(), k3.id());
    }

    #[test]
    fn interner_deduplicates_across_construction_paths() {
        let build = || {
            Provenance::from_events(vec![
                Event::output(Principal::new("dedup-x"), Provenance::empty()),
                Event::input(Principal::new("dedup-y"), Provenance::empty()),
            ])
        };
        let k1 = build();
        let k2 = build();
        // Hash-consing: both builds resolve to the same interned node, so
        // the handles are pointer-identical, not merely structurally equal.
        assert_eq!(k1.id(), k2.id());
        assert!(interner_stats().interned_nodes >= 2);
    }

    #[test]
    fn dag_size_is_linear_under_exponential_tree_growth() {
        // Channel-chained growth: each event travels on a channel whose
        // provenance is the entire current history.  The tree doubles every
        // step; the DAG grows by one node per step.
        let mut k = Provenance::single(Event::output(a(), Provenance::empty()));
        for _ in 0..20 {
            k = Provenance::single(Event::input(b(), k.clone())).concat(&k);
        }
        assert!(k.total_size() > 1 << 20, "tree is exponential");
        assert!(k.dag_size() <= 64, "DAG stays linear: {}", k.dag_size());
    }

    #[test]
    fn dag_nodes_is_postorder_and_deduplicated() {
        let shared = Provenance::single(Event::output(a(), Provenance::empty()));
        let k = Provenance::single(Event::input(b(), shared.clone()))
            .prepend(Event::output(a(), shared.clone()));
        let nodes = Provenance::dag_nodes([&k]);
        // Distinct nodes only.
        let ids: Vec<ProvId> = nodes.iter().map(Provenance::id).collect();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "no duplicates");
        // Children precede parents.
        for (i, node) in nodes.iter().enumerate() {
            for child in [
                node.tail().unwrap(),
                &node.head().unwrap().channel_provenance,
            ] {
                if !child.is_empty() {
                    let pos = nodes.iter().position(|n| n.id() == child.id()).unwrap();
                    assert!(pos < i, "child listed before parent");
                }
            }
        }
        // The root is last.
        assert_eq!(nodes.last().unwrap().id(), k.id());
    }

    #[test]
    fn dag_nodes_lists_a_node_shared_by_two_roots_once() {
        let shared = Provenance::single(Event::output(a(), Provenance::empty()));
        let first = Provenance::single(Event::input(b(), shared.clone()));
        let second = shared.prepend(Event::output(b(), shared.clone()));
        let nodes = Provenance::dag_nodes([&first, &Provenance::empty(), &second]);
        let ids: Vec<ProvId> = nodes.iter().map(Provenance::id).collect();
        assert_eq!(ids, vec![shared.id(), first.id(), second.id()]);
    }

    #[test]
    fn iterator_is_exact_size() {
        let k = Provenance::from_events(vec![
            Event::output(a(), Provenance::empty()),
            Event::input(b(), Provenance::empty()),
        ]);
        let it = k.iter();
        assert_eq!(it.len(), 2);
        assert_eq!(it.count(), 2);
    }
}
