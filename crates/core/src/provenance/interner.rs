//! The global provenance interner (hash-consing table).
//!
//! Every distinct provenance node — a `(event, tail)` pair, where the
//! event's channel provenance and the tail are themselves interned — is
//! created exactly once and assigned a stable [`ProvId`].  All
//! [`Provenance`] construction funnels through the crate-internal
//! `intern` entry point, which gives the calculus three properties the
//! tree representation cannot offer:
//!
//! * **O(1) equality and hashing** — structural equality coincides with id
//!   equality, by induction over the construction;
//! * **O(1) size queries** — `len`, `depth` and `total_size` are computed
//!   once, when the node is interned, from the already-cached values of
//!   its children;
//! * **O(1) "is this principal below?" answers** — the fourth cached
//!   quantity is a 64-bit filter of every principal at or below the node,
//!   on its spine and in its channel histories: the principal's bit
//!   ([`principal_bit`]) OR the channel's filter OR the tail's filter,
//!   computed on an intern miss.  Like the paper's §5 static analysis it
//!   over-approximates: a clear bit is an exact "no", a set bit only
//!   "maybe", since names share the 64 bits.  One filter serves the
//!   causal plane's principal and channel-history filters alike, because
//!   the spine's principals and the channels' principals are each a
//!   subset of it; a second filter would cost 8 more bytes per node;
//! * **DAG-sized serialization** — downstream layers (the store codec, the
//!   pattern-match memo, the simulator's sharing metrics) can key work by
//!   `ProvId` and pay per *distinct* node instead of per tree occurrence.
//!
//! The process-global table is one [`HashMap`] from node key to node,
//! behind one `Mutex` that also guards the next id and the hit and miss
//! counts.  An intern call takes the lock once and hashes its key once,
//! through the map's entry API; a miss takes its id under the same lock,
//! so threads racing to intern one history agree on its [`ProvId`].  One
//! lock is enough because interning is not a concurrent workload: audit
//! queries read interned histories but intern nothing (counterfactuals
//! borrow a filtered view of them), and a server interns only while its
//! store recovers, before it serves, and on the ingest drain worker,
//! which decodes one batch at a time.  The map hashes with `RandomState`:
//! principals arrive off the wire, and a fixed hasher would let a writer
//! choose colliding names.  [`interner_stats`] reads the node count and
//! the hit and miss counts.  Nodes are never reclaimed; compacting
//! unreferenced nodes remains a ROADMAP open item.
//!
//! The filter is paid for by narrowing `len` and `depth` to `u32`, so a
//! node still takes 72 bytes on 64-bit targets.  Both are bounded by the
//! number of distinct nodes, which [`ProvId`]'s `u32` already caps: every
//! node of a spine, and every level of a channel nesting, is a distinct
//! node.  `total_size` stays `usize`: it counts the logical tree, which
//! grows exponentially under channel-chained histories.

use super::{Direction, Event, Provenance};
use crate::name::Principal;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Stable identifier of an interned provenance node.
///
/// `ProvId::EMPTY` (id 0) is reserved for the empty sequence `ε`; every
/// non-empty sequence gets a positive id in interning order.  Ids are
/// stable for the lifetime of the process and totally ordered, which makes
/// them usable as compact map keys (the pattern engine memoizes match
/// results per `(ProvId, state set)`, the simulator deduplicates delivered
/// nodes per `ProvId`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProvId(u32);

impl ProvId {
    /// The id of the empty provenance sequence `ε`.
    pub const EMPTY: ProvId = ProvId(0);

    /// The raw numeric form of the id (0 for `ε`).
    pub fn as_u32(self) -> u32 {
        self.0
    }

    /// `true` if this is the id of `ε`.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for ProvId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "κ#{}", self.0)
    }
}

/// An interned provenance node: one event plus the (interned) rest of the
/// sequence, with the derived quantities cached at construction time.
pub(super) struct Node {
    pub(super) id: ProvId,
    pub(super) event: Event,
    pub(super) tail: Provenance,
    pub(super) len: u32,
    pub(super) depth: u32,
    pub(super) total_size: usize,
    /// [`principal_bit`] of every principal at or below this node, on the
    /// spine and in channel histories.
    pub(super) principals: u64,
}

/// The bit of `principal` in a node's principal filter (see
/// [`Provenance::principal_filter`]): one of 64, picked by a fixed
/// multiply-rotate hash of the name's bytes.  The top six bits of the hash
/// choose it, because the low bits of a product depend only on the low
/// bits of its factors.
pub fn principal_bit(principal: &Principal) -> u64 {
    let mut hash = 0u64;
    for chunk in principal.as_str().as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        hash = (hash.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    1 << (hash >> 58)
}

/// Shared handle onto an interned node.
pub(super) type NodeHandle = Arc<Node>;

/// Hash-consing key: the event's principal and direction plus the ids of
/// the event's channel provenance and of the tail.  Because channel and
/// tail are already interned, comparing ids is exactly structural
/// comparison, and the key is O(1)-sized regardless of history depth.
type Key = (Principal, Direction, u32, u32);

/// The hash-consing table: every node by its key, the next id to assign,
/// and the count of intern calls answered by an existing node (`hits`)
/// or by a new one (`misses`).  The process-global table lives behind one
/// `Mutex` (see [`intern`]).
struct InternTable {
    map: HashMap<Key, NodeHandle>,
    next_id: u32,
    hits: u64,
    misses: u64,
}

impl InternTable {
    fn new() -> Self {
        InternTable {
            map: HashMap::new(),
            next_id: 1,
            hits: 0,
            misses: 0,
        }
    }

    /// Interns the node `event; tail`, returning the canonical handle.
    ///
    /// The event is cloned only when the `(event, tail)` pair has not been
    /// seen before; on a hit the existing node is returned and the
    /// caller's borrow is untouched.
    fn intern(&mut self, event: &Event, tail: &Provenance) -> NodeHandle {
        let key: Key = (
            event.principal.clone(),
            event.direction,
            event.channel_provenance.id().as_u32(),
            tail.id().as_u32(),
        );
        let slot = match self.map.entry(key) {
            Entry::Occupied(found) => {
                self.hits += 1;
                return found.get().clone();
            }
            Entry::Vacant(slot) => slot,
        };
        // The counter never passes u32::MAX: a wrapped counter would hand
        // out ids that collide with live nodes (ProvId::EMPTY included),
        // silently conflating distinct histories, whereas stopping here
        // makes every intern past the last id panic and add nothing.
        assert!(self.next_id != u32::MAX, "provenance interner overflow");
        let id = ProvId(self.next_id);
        self.next_id += 1;
        self.misses += 1;
        // Derived quantities read cached values off the children;
        // saturating arithmetic because the logical tree size grows
        // exponentially under channel-chained histories.
        let channel = &event.channel_provenance;
        let node = Arc::new(Node {
            id,
            event: event.clone(),
            tail: tail.clone(),
            // Both fit: each counts distinct nodes, which ProvId's u32 caps.
            len: tail.len() as u32 + 1,
            depth: tail.depth().max(1 + channel.depth()) as u32,
            total_size: 1usize
                .saturating_add(channel.total_size())
                .saturating_add(tail.total_size()),
            principals: principal_bit(&event.principal)
                | channel.principal_filter()
                | tail.principal_filter(),
        });
        slot.insert(node).clone()
    }

    fn stats(&self) -> InternerStats {
        InternerStats {
            interned_nodes: self.map.len(),
            hits: self.hits,
            misses: self.misses,
        }
    }
}

/// Locks `table`, recovering it from a panicked holder: an intern call
/// that panics has changed nothing.
fn lock(table: &Mutex<InternTable>) -> MutexGuard<'_, InternTable> {
    match table.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn table() -> MutexGuard<'static, InternTable> {
    static TABLE: OnceLock<Mutex<InternTable>> = OnceLock::new();
    lock(TABLE.get_or_init(|| Mutex::new(InternTable::new())))
}

/// Interns the node `event; tail` into the process-global table.
pub(super) fn intern(event: &Event, tail: &Provenance) -> NodeHandle {
    table().intern(event, tail)
}

/// A snapshot of the interner's occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternerStats {
    /// Number of distinct provenance nodes interned so far in this process
    /// (the empty sequence is not counted).
    pub interned_nodes: usize,
    /// Intern calls answered by an existing node.
    pub hits: u64,
    /// Intern calls that created a new node (equals `interned_nodes` for a
    /// fresh table).
    pub misses: u64,
}

impl InternerStats {
    /// Fraction of intern calls answered by an existing node (0.0 when no
    /// call was made yet).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Reads the current occupancy of the process-global interner.
///
/// The counters are process-global and monotone: they cover every distinct
/// provenance node ever built, across all systems, simulations and tests
/// that ran in this process.
pub fn interner_stats() -> InternerStats {
    table().stats()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn the_principal_filter_keeps_a_node_at_72_bytes() {
        assert!(std::mem::size_of::<Node>() <= 72);
    }

    #[test]
    fn the_principal_filter_covers_spine_and_channel_principals() {
        let bit = |name: &str| principal_bit(&Principal::new(name));
        let channel = Provenance::single(Event::output(
            Principal::new("filter-chan"),
            Provenance::empty(),
        ));
        let k = Provenance::single(Event::input(Principal::new("filter-tail"), channel.clone()))
            .prepend(Event::output(
                Principal::new("filter-head"),
                Provenance::empty(),
            ));
        assert_eq!(Provenance::empty().principal_filter(), 0);
        assert_eq!(channel.principal_filter(), bit("filter-chan"));
        assert_eq!(
            k.principal_filter(),
            bit("filter-head") | bit("filter-tail") | bit("filter-chan")
        );
        assert_eq!(bit("filter-head").count_ones(), 1);
    }

    #[test]
    fn ids_are_stable_and_deduplicated() {
        let p = Principal::new("interner-test-a");
        let e = Event::output(p, Provenance::empty());
        let k1 = Provenance::single(e.clone());
        let k2 = Provenance::single(e);
        assert_eq!(k1.id(), k2.id());
        assert!(!k1.id().is_empty());
        assert!(ProvId::EMPTY.is_empty());
        assert_eq!(ProvId::EMPTY.as_u32(), 0);
        assert_eq!(format!("{:?}", ProvId::EMPTY), "κ#0");
    }

    #[test]
    fn stats_grow_with_fresh_nodes() {
        let before = interner_stats().interned_nodes;
        let _k = Provenance::single(Event::output(
            Principal::new("interner-stats-unique-xyzzy"),
            Provenance::empty(),
        ));
        let after = interner_stats().interned_nodes;
        assert!(after > before);
    }

    #[test]
    fn distinct_channels_make_distinct_nodes() {
        let chan = Provenance::single(Event::output(
            Principal::new("interner-chan"),
            Provenance::empty(),
        ));
        let on_empty = Provenance::single(Event::output(
            Principal::new("interner-x"),
            Provenance::empty(),
        ));
        let on_chan = Provenance::single(Event::output(Principal::new("interner-x"), chan));
        assert_ne!(on_empty.id(), on_chan.id());
        assert_ne!(on_empty, on_chan);
    }

    /// Interns `event; tail` into `tbl`, a table other than the global
    /// one.  Ids are per table, so its handles compare only with each
    /// other.
    fn intern_in(tbl: &Mutex<InternTable>, event: &Event, tail: &Provenance) -> Provenance {
        Provenance::from_node(lock(tbl).intern(event, tail))
    }

    #[test]
    fn secondary_table_counts_hits_and_misses_exactly() {
        let tbl = Mutex::new(InternTable::new());
        let e1 = Event::output(Principal::new("t-a"), Provenance::empty());
        let e2 = Event::input(Principal::new("t-b"), Provenance::empty());
        let k1 = intern_in(&tbl, &e1, &Provenance::empty());
        let k2 = intern_in(&tbl, &e2, &k1);
        let again = intern_in(&tbl, &e2, &k1);
        assert_eq!(k2.id(), again.id());
        let stats = lock(&tbl).stats();
        assert_eq!(stats.interned_nodes, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 1);
        assert!((stats.hit_ratio() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn an_exhausted_table_panics_instead_of_wrapping() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut tbl = InternTable::new();
        tbl.next_id = u32::MAX - 1;
        let last = tbl.intern(
            &Event::output(Principal::new("overflow-last"), Provenance::empty()),
            &Provenance::empty(),
        );
        assert_eq!(last.id.as_u32(), u32::MAX - 1, "the last id is handed out");
        let past = Event::output(Principal::new("overflow-past"), Provenance::empty());
        for _ in 0..2 {
            let panic = catch_unwind(AssertUnwindSafe(|| {
                tbl.intern(&past, &Provenance::empty());
            }))
            .expect_err("an intern past the last id panics");
            assert_eq!(
                panic.downcast_ref::<&str>(),
                Some(&"provenance interner overflow")
            );
            // Nothing was added or counted, and the counter did not wrap
            // onto ProvId::EMPTY: the next attempt panics the same way.
            assert_eq!(tbl.next_id, u32::MAX);
            assert_eq!(
                tbl.stats(),
                InternerStats {
                    interned_nodes: 1,
                    hits: 0,
                    misses: 1,
                }
            );
        }
        // A node that is already there is still found.
        let again = tbl.intern(&last.event, &Provenance::empty());
        assert_eq!(again.id, last.id);
    }

    #[test]
    fn concurrent_interning_agrees_on_every_id() {
        use std::thread;
        // N threads intern the same overlapping histories (each thread
        // also interns a private branch so shards see mixed traffic); all
        // threads must resolve every shared history to the same ProvId.
        let threads = 8;
        let depth = 64;
        let build_shared = |salt: &str| {
            let mut k = Provenance::empty();
            for i in 0..depth {
                k = k.prepend(Event::output(
                    Principal::new(format!("conc-{}-{}", salt, i % 7)),
                    Provenance::empty(),
                ));
            }
            k
        };
        let ids: Vec<Vec<ProvId>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let shared = build_shared("shared");
                        let chained = build_shared("shared").prepend(Event::input(
                            Principal::new("conc-reader"),
                            build_shared("shared"),
                        ));
                        let private = build_shared(&format!("private-{}", t));
                        vec![shared.id(), chained.id(), private.id()]
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for row in &ids[1..] {
            assert_eq!(row[0], ids[0][0], "shared history ids agree");
            assert_eq!(row[1], ids[0][1], "chained history ids agree");
        }
        // Private branches are all distinct.
        let mut privates: Vec<ProvId> = ids.iter().map(|row| row[2]).collect();
        privates.sort();
        privates.dedup();
        assert_eq!(privates.len(), threads);
    }

    #[test]
    fn concurrent_stats_sum_to_serial_counts() {
        use std::thread;
        // A fresh secondary table sees exactly the traffic this test
        // generates, so its stats must reproduce the serial accounting:
        // every intern call is a hit or a miss, and misses equal the
        // number of distinct nodes.
        let threads = 8usize;
        let per_thread = 256usize;
        let distinct = 32usize;
        let tbl = Mutex::new(InternTable::new());
        thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut tails: Vec<Provenance> = vec![Provenance::empty()];
                    for i in 0..per_thread {
                        let event = Event::output(
                            Principal::new(format!("sum-{}", i % distinct)),
                            Provenance::empty(),
                        );
                        let tail = tails[i % tails.len()].clone();
                        let node = intern_in(&tbl, &event, &tail);
                        if tails.len() < distinct {
                            tails.push(node);
                        }
                    }
                });
            }
        });
        let stats = lock(&tbl).stats();
        assert_eq!(
            stats.hits + stats.misses,
            (threads * per_thread) as u64,
            "every intern call is counted exactly once"
        );
        assert_eq!(
            stats.misses as usize, stats.interned_nodes,
            "each distinct node was created exactly once across all threads"
        );
    }
}
