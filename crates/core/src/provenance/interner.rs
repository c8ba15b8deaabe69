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
//! The process-global table is an [`InternTable`] **sharded N ways by
//! node-key hash**: concurrent simulator and auditor threads interning
//! unrelated histories take different shard locks and proceed in parallel,
//! while threads interning the *same* history serialize only on the one
//! shard that owns the node — and still agree on its [`ProvId`], because
//! ids are assigned under the owning shard's lock.  Each shard keeps its
//! own occupancy and hit/miss counters ([`ShardStats`]); the facade
//! [`interner_stats`] aggregates them and [`interner_shard_stats`] exposes
//! the per-shard breakdown.  Nodes are never reclaimed; compacting
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
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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

/// Number of shards of the process-global table.  A modest power of two:
/// enough that simulator plus auditor threads rarely collide on a shard
/// lock, small enough that aggregating stats stays trivial.
const DEFAULT_SHARDS: usize = 16;

#[derive(Default)]
struct Shard {
    map: HashMap<Key, NodeHandle>,
    hits: u64,
    misses: u64,
}

/// A sharded hash-consing table.
///
/// The process-global interner (reached through [`Provenance::prepend`]
/// and friends) is one instance of this type; independent instances can be
/// created with [`InternTable::with_shards`] for controlled experiments —
/// the E12 sharded-vs-single-lock ablation interns the same workload into
/// a 1-shard and an N-shard table and compares throughput, and the
/// concurrency tests check shard-stat aggregation against serial counts on
/// a fresh table, unpolluted by whatever else the process interned.
///
/// **Caveat for secondary tables:** [`ProvId`]s are assigned per table, so
/// ids (and therefore [`Provenance`] equality, which compares ids) are
/// only meaningful among provenances interned through the *same* table.
/// Never mix handles from a secondary table with handles from the global
/// one; secondary tables are measurement instruments, not a second source
/// of canonical provenance.
pub struct InternTable {
    shards: Box<[Mutex<Shard>]>,
    /// Next id to assign; incremented under the owning shard's lock.
    next_id: AtomicU32,
}

impl fmt::Debug for InternTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InternTable")
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl InternTable {
    /// Creates a table with `shards` shards (rounded up to a power of two,
    /// minimum 1).
    pub fn with_shards(shards: usize) -> Self {
        let count = shards.max(1).next_power_of_two();
        InternTable {
            shards: (0..count).map(|_| Mutex::new(Shard::default())).collect(),
            next_id: AtomicU32::new(1),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, key: &Key) -> &Mutex<Shard> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        // shard count is a power of two, so the mask keeps the low bits.
        let index = (hasher.finish() as usize) & (self.shards.len() - 1);
        &self.shards[index]
    }

    /// Interns the node `event; tail`, returning the canonical handle.
    ///
    /// The event is cloned only when the `(event, tail)` pair has not been
    /// seen before; on a cache hit the existing node is returned and the
    /// caller's borrow is untouched.
    pub(super) fn intern(&self, event: &Event, tail: &Provenance) -> NodeHandle {
        let key: Key = (
            event.principal.clone(),
            event.direction,
            event.channel_provenance.id().as_u32(),
            tail.id().as_u32(),
        );
        // Derived quantities read cached values off the children, outside
        // the lock; saturating arithmetic because the logical tree size
        // grows exponentially under channel-chained histories.
        let channel = &event.channel_provenance;
        // Both fit: each counts distinct nodes, which ProvId's u32 caps.
        let len = tail.len() as u32 + 1;
        let depth = tail.depth().max(1 + channel.depth()) as u32;
        let total_size = 1usize
            .saturating_add(channel.total_size())
            .saturating_add(tail.total_size());
        let mut shard = match self.shard_of(&key).lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(existing) = shard.map.get(&key).cloned() {
            shard.hits += 1;
            return existing;
        }
        shard.misses += 1;
        // The id is allocated while the owning shard is locked, so every
        // thread racing to intern this key observes the same winner (and
        // therefore the same id); ids stay unique across shards because
        // the counter is shared.  Allocation is a CAS loop rather than a
        // fetch_add so the counter can never pass u32::MAX: a wrapped
        // counter would hand later interns ids that collide with live
        // nodes (including ProvId::EMPTY), silently conflating distinct
        // histories, whereas saturating here makes every post-overflow
        // intern panic deterministically.
        let mut raw = self.next_id.load(Ordering::Relaxed);
        loop {
            assert!(raw != u32::MAX, "provenance interner overflow");
            match self.next_id.compare_exchange_weak(
                raw,
                raw + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => raw = actual,
            }
        }
        let principals =
            principal_bit(&event.principal) | channel.principal_filter() | tail.principal_filter();
        let node = Arc::new(Node {
            id: ProvId(raw),
            event: event.clone(),
            tail: tail.clone(),
            len,
            depth,
            total_size,
            principals,
        });
        shard.map.insert(key, node.clone());
        node
    }

    /// Interns `event; tail` and wraps the node as a [`Provenance`] handle.
    ///
    /// This is the entry point for secondary (ablation/measurement)
    /// tables; see the type-level caveat about never mixing handles across
    /// tables.
    pub fn intern_on(&self, event: &Event, tail: &Provenance) -> Provenance {
        Provenance::from_node(self.intern(event, tail))
    }

    /// Aggregated occupancy and hit/miss counts across all shards.
    pub fn stats(&self) -> InternerStats {
        let mut out = InternerStats {
            interned_nodes: 0,
            hits: 0,
            misses: 0,
            shards: self.shards.len(),
        };
        for shard in self.shards.iter() {
            let shard = match shard.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            out.interned_nodes += shard.map.len();
            out.hits += shard.hits;
            out.misses += shard.misses;
        }
        out
    }

    /// Per-shard occupancy and hit/miss counts, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(index, shard)| {
                let shard = match shard.lock() {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
                ShardStats {
                    shard: index,
                    entries: shard.map.len(),
                    hits: shard.hits,
                    misses: shard.misses,
                }
            })
            .collect()
    }
}

fn table() -> &'static InternTable {
    static TABLE: OnceLock<InternTable> = OnceLock::new();
    TABLE.get_or_init(|| InternTable::with_shards(DEFAULT_SHARDS))
}

/// Interns the node `event; tail` into the process-global table.
pub(super) fn intern(event: &Event, tail: &Provenance) -> NodeHandle {
    table().intern(event, tail)
}

/// A snapshot of the interner's occupancy, aggregated across shards.
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
    /// Number of shards the table is split into.
    pub shards: usize,
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

/// Occupancy and hit/miss counts of one shard of an [`InternTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// The shard's index within its table.
    pub shard: usize,
    /// Distinct nodes owned by this shard.
    pub entries: usize,
    /// Intern calls this shard answered from its map.
    pub hits: u64,
    /// Intern calls that created a node in this shard.
    pub misses: u64,
}

/// Reads the current aggregated occupancy of the process-global interner.
///
/// The counters are process-global and monotone: they cover every distinct
/// provenance node ever built, across all systems, simulations and tests
/// that ran in this process.
pub fn interner_stats() -> InternerStats {
    table().stats()
}

/// Reads the per-shard breakdown of the process-global interner.
pub fn interner_shard_stats() -> Vec<ShardStats> {
    table().shard_stats()
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

    #[test]
    fn shard_stats_aggregate_to_interner_stats() {
        // Exact equality needs a quiescent table, so check it on a fresh
        // secondary one (sibling tests intern into the global table
        // concurrently, and its two snapshots below are not atomic).
        let tbl = InternTable::with_shards(8);
        let mut tail = Provenance::empty();
        for i in 0..32 {
            let event = Event::output(
                Principal::new(format!("agg-{}", i % 5)),
                Provenance::empty(),
            );
            tail = tbl.intern_on(&event, &tail);
        }
        let aggregated = tbl.stats();
        let shards = tbl.shard_stats();
        assert_eq!(shards.len(), aggregated.shards);
        assert_eq!(
            shards.iter().map(|s| s.entries).sum::<usize>(),
            aggregated.interned_nodes
        );
        assert_eq!(shards.iter().map(|s| s.hits).sum::<u64>(), aggregated.hits);
        assert_eq!(
            shards.iter().map(|s| s.misses).sum::<u64>(),
            aggregated.misses
        );
        // The global facade reports the same shape (values race with
        // sibling tests, so only stable facts are asserted).
        let global = interner_stats();
        assert_eq!(interner_shard_stats().len(), global.shards);
        assert!(global.shards >= 1);
    }

    #[test]
    fn secondary_table_counts_hits_and_misses_exactly() {
        let tbl = InternTable::with_shards(4);
        assert_eq!(tbl.shard_count(), 4);
        let e1 = Event::output(Principal::new("t-a"), Provenance::empty());
        let e2 = Event::input(Principal::new("t-b"), Provenance::empty());
        let k1 = tbl.intern_on(&e1, &Provenance::empty());
        let k2 = tbl.intern_on(&e2, &k1);
        let again = tbl.intern_on(&e2, &k1);
        assert_eq!(k2.id(), again.id());
        let stats = tbl.stats();
        assert_eq!(stats.interned_nodes, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 1);
        assert!((stats.hit_ratio() - 1.0 / 3.0).abs() < 1e-9);
        assert!(format!("{:?}", tbl).contains("InternTable"));
    }

    #[test]
    fn shard_count_rounds_up_to_a_power_of_two() {
        assert_eq!(InternTable::with_shards(0).shard_count(), 1);
        assert_eq!(InternTable::with_shards(1).shard_count(), 1);
        assert_eq!(InternTable::with_shards(3).shard_count(), 4);
        assert_eq!(InternTable::with_shards(16).shard_count(), 16);
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
    fn concurrent_shard_stats_sum_to_serial_counts() {
        use std::thread;
        // A fresh secondary table sees exactly the traffic this test
        // generates, so the aggregated shard stats must reproduce the
        // serial accounting: every intern call is a hit or a miss, and
        // misses equal the number of distinct nodes.
        let threads = 8usize;
        let per_thread = 256usize;
        let distinct = 32usize;
        let tbl = InternTable::with_shards(8);
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
                        let node = tbl.intern_on(&event, &tail);
                        if tails.len() < distinct {
                            tails.push(node);
                        }
                    }
                });
            }
        });
        let stats = tbl.stats();
        assert_eq!(
            stats.hits + stats.misses,
            (threads * per_thread) as u64,
            "every intern call is counted exactly once"
        );
        assert_eq!(
            stats.misses as usize, stats.interned_nodes,
            "each distinct node was created exactly once across all threads"
        );
        let shards = tbl.shard_stats();
        assert_eq!(
            shards.iter().map(|s| s.entries).sum::<usize>(),
            stats.interned_nodes
        );
        assert_eq!(shards.iter().map(|s| s.hits).sum::<u64>(), stats.hits);
        assert_eq!(shards.iter().map(|s| s.misses).sum::<u64>(), stats.misses);
    }
}
