//! A compiled matching engine for the sample pattern language.
//!
//! The reference matcher in [`crate::matching`] follows the paper's
//! inference rules directly, which makes sequencing and repetition try every
//! split point — exponential in the worst case.  Patterns are, however,
//! ordinary regular expressions over an alphabet of *event predicates*, so
//! we compile them once (Thompson construction) and then simulate the NFA
//! over the provenance sequence in `O(|κ| · |states|)` transitions; nested
//! channel patterns are compiled recursively and evaluated when their atom
//! is crossed.
//!
//! **The subset walk.**  A state set is a bitset of `⌈states / 64⌉` words,
//! and every automaton size runs the same code.  Compilation folds the ε
//! moves away: it stores each state's ε-closure as a bitset *row* (the
//! start state's row is the initial set) and keeps only the consuming
//! transitions.  A step clears a reused buffer and ORs in the closure row
//! of every transition it crosses, so it needs no closure stack.  A walk
//! follows the interned spine by reference (no handle clone per node) and
//! swaps two state buffers.  Its trail of visited `(suffix, state set)`
//! pairs is a list of ids plus one flat run of state words, sized from the
//! spine's cached length, so a walk allocates a fixed handful of buffers
//! however long the spine is.  A walk answered at the root — a memo-warm
//! vet, or a nested channel check on a memoized history — borrows the
//! start state's row and allocates nothing.  A walk may also start from a
//! state set reached elsewhere: [`CompiledPattern::matches_after`] steps
//! a few plain events first, then joins the memoized walk at an interned
//! suffix.
//!
//! On top of the simulation sits a **match memo** keyed by
//! `(ProvId, state set)`: provenance sequences are interned DAG nodes
//! (see [`piprov_core::provenance::interner`]), and NFA simulation from a
//! given state set over a given suffix is deterministic, so its verdict
//! can be cached per interned node.  Long runs vet the same channel
//! provenance thousands of times (every value exchanged on a channel
//! carries that channel's history in its events); with the memo each
//! distinct `(suffix, state set)` pair is simulated once per automaton and
//! every later query is a hash lookup.  Nested channel automata carry
//! their own memos, so the sharing compounds through nesting levels.
//!
//! Both levels of the memo hash with a fixed multiply-rotate hasher rather
//! than the standard library's keyed SipHash.  Lookups and inserts take the
//! state set as a borrowed slice; a key is boxed only when a new entry is
//! stored.  A fixed hasher is safe here because no client chooses the hashed
//! bytes: the keys are interner-assigned ids and automaton state bits, so
//! nobody can pick inputs that collide on purpose.
//!
//! The memo is **bounded**: a long-lived automaton (an audit service vets
//! requests for the lifetime of the process) caps the number of cached
//! verdicts at a configurable bound ([`CompiledPattern::set_memo_bound`],
//! default [`DEFAULT_MEMO_BOUND`]) and, when an insert would exceed it,
//! starts a fresh **epoch**.  The rollover is generational: it keeps the
//! entries that actually answered lookups during the ending epoch — up to
//! half the bound — so a stable working set survives the rollover and only
//! the one-shot tail pays the cold-start cost again.  Inserting a pair the memo already holds changes
//! nothing, so a walk that re-seeds memoized pairs neither demotes them nor
//! starts an epoch.  [`CompiledPattern::memo_stats`] reports entries, hits,
//! misses, the epoch counter and the cumulative survivors.
//!
//! The equivalence of the two engines is checked by unit tests here and by
//! property-based tests over random patterns and provenances.

use crate::ast::{EventPattern, Pattern};
use crate::matching::event_satisfies;
use piprov_core::provenance::{Event, ProvId, Provenance};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Mutex;

/// A consuming transition's label (ε moves are folded into the closure
/// rows at compile time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Label {
    /// Consume one event that satisfies the indexed atom.
    Atom(usize),
    /// Consume any one event.
    AnyEvent,
}

/// A single consuming transition of the NFA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Transition {
    to: usize,
    label: Label,
}

/// The memo's hasher: FxHash-style multiply-rotate, one word at a time.
/// Keyless, so the memo's maps carry no per-map hasher state (see the
/// module docs for why that is safe).
#[derive(Default, Clone, Copy)]
struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_ne_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_ne_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// Default bound on the number of `(suffix, state set)` verdicts one
/// automaton level memoizes before starting a fresh epoch.
pub const DEFAULT_MEMO_BOUND: usize = 65_536;

/// One cached verdict plus its generation bit: `hot` is set when the entry
/// answers a lookup and cleared when it survives a rollover, so "hot" means
/// *used during the current epoch*.
#[derive(Debug, Clone, Copy)]
struct Cached {
    verdict: bool,
    hot: bool,
}

/// The bounded match memo of one automaton level.
struct Memo {
    /// Verdicts per suffix id, per state set at that suffix.
    verdicts: WordMap<ProvId, WordMap<Box<[u64]>, Cached>>,
    /// Total `(suffix, state set)` pairs held (kept incrementally; summing
    /// the inner maps on every insert would be quadratic).
    entries: usize,
    /// Maximum entries before the next insert starts a new epoch.
    bound: usize,
    /// Number of epoch rollovers performed so far.
    epochs: u64,
    /// Lookups answered from the memo.
    hits: u64,
    /// Lookups that had to fall through to simulation.
    misses: u64,
    /// Entries that survived a rollover, summed over all rollovers.
    retained: u64,
}

impl Memo {
    fn new(bound: usize) -> Self {
        Memo {
            verdicts: WordMap::default(),
            entries: 0,
            bound: bound.max(1),
            epochs: 0,
            hits: 0,
            misses: 0,
            retained: 0,
        }
    }

    fn lookup(&mut self, id: ProvId, states: &[u64]) -> Option<bool> {
        let found = self
            .verdicts
            .get_mut(&id)
            .and_then(|m| m.get_mut(states))
            .map(|cached| {
                cached.hot = true;
                cached.verdict
            });
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    /// Starts a new epoch: up to `bound / 2` hot entries survive with
    /// their hotness reset (they must earn their place in the new epoch
    /// too), and the rest are dropped.  Capping the survivors at half the
    /// bound guarantees every rollover frees at least half the memo, so a
    /// fully hot working set cannot wedge the memo into rolling over on
    /// every insert.
    fn rollover(&mut self) {
        let budget = self.bound / 2;
        let mut kept = 0usize;
        self.verdicts.retain(|_, per_states| {
            per_states.retain(|_, cached| {
                if cached.hot && kept < budget {
                    cached.hot = false;
                    kept += 1;
                    true
                } else {
                    false
                }
            });
            !per_states.is_empty()
        });
        self.entries = kept;
        self.retained += kept as u64;
        self.epochs += 1;
    }

    /// Inserts one verdict, rolling the epoch over first if the memo is
    /// full.  A pair the memo already holds is left exactly as it is, hot
    /// bit included, and starts no epoch: verdicts are deterministic, so
    /// there is nothing to update.  The invariant `entries <= bound` holds
    /// after every insert, whatever order verdicts arrive in (the rollover
    /// keeps at most `bound / 2 < bound` entries).
    fn insert(&mut self, id: ProvId, states: &[u64], verdict: bool) {
        if let Some(cached) = self.verdicts.get(&id).and_then(|m| m.get(states)) {
            debug_assert_eq!(
                cached.verdict, verdict,
                "memoized verdicts are deterministic"
            );
            return;
        }
        if self.entries >= self.bound {
            self.rollover();
        }
        self.verdicts.entry(id).or_default().insert(
            states.into(),
            Cached {
                verdict,
                hot: false,
            },
        );
        self.entries += 1;
    }

    fn stats(&self) -> MemoStats {
        MemoStats {
            entries: self.entries,
            bound: self.bound,
            epochs: self.epochs,
            hits: self.hits,
            misses: self.misses,
            retained: self.retained,
        }
    }
}

/// A snapshot of one automaton level's memo occupancy and traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// `(suffix, state set)` verdicts currently held.
    pub entries: usize,
    /// Configured bound; `entries` never exceeds it.
    pub bound: usize,
    /// Epoch rollovers performed so far (0 until the bound is first hit).
    pub epochs: u64,
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that fell through to NFA simulation.
    pub misses: u64,
    /// Entries that survived a rollover because they were hot, summed over
    /// all rollovers.
    pub retained: u64,
}

/// Work accounting for one [`CompiledPattern::matches_with_stats`] call,
/// accumulated across this automaton and every nested channel automaton it
/// consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MatchStats {
    /// Memo lookups answered from a cache (this level and nested levels).
    pub memo_hits: usize,
    /// Spine nodes actually simulated (events consumed by some automaton).
    pub nodes_visited: usize,
}

/// One consumed spine event of a [`CompiledPattern::witness`] walk: the
/// event together with the interned id of the suffix that starts at it, so
/// callers can point back into the hash-consed DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessStep {
    /// Interned id of the spine suffix whose head is `event`.
    pub node: ProvId,
    /// The consumed event.
    pub event: Event,
}

/// The explained outcome of simulating a provenance against a pattern.
///
/// The subset simulation tracks *every* candidate trail of the NFA at
/// once, so one walk explains the verdict exactly: on acceptance the
/// consumed spine is an accepting trail's event set, and on rejection
/// there is a unique earliest point where all surviving candidates die —
/// either a concrete blocking event or the end of the history with no
/// accept state held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WitnessTrail {
    /// The automaton accepted; `steps` is the full consumed spine,
    /// most recent first.
    Accepted {
        /// Events of one accepting trail (the whole spine — the subset
        /// walk consumes every event), most recent first.
        steps: Vec<WitnessStep>,
    },
    /// The state subset went empty consuming `blocked`: the blocking
    /// frontier where every candidate trail dies at once.
    Blocked {
        /// Events consumed successfully before the death point.
        consumed: Vec<WitnessStep>,
        /// The earliest event (in match order) no candidate trail survives.
        blocked: WitnessStep,
    },
    /// Every event was consumed but no accept state held at the end of the
    /// history: the history is too short for the pattern.
    Exhausted {
        /// The full consumed spine, most recent first.
        consumed: Vec<WitnessStep>,
    },
}

impl WitnessTrail {
    /// The verdict this trail explains.
    pub fn verdict(&self) -> bool {
        matches!(self, WitnessTrail::Accepted { .. })
    }
}

fn set_bit(states: &mut [u64], bit: usize) {
    states[bit / 64] |= 1u64 << (bit % 64);
}

fn get_bit(states: &[u64], bit: usize) -> bool {
    states[bit / 64] & (1u64 << (bit % 64)) != 0
}

fn iter_bits(states: &[u64]) -> impl Iterator<Item = usize> + '_ {
    states.iter().enumerate().flat_map(|(word, &bits)| {
        let mut bits = bits;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(word * 64 + bit)
            }
        })
    })
}

/// The `(suffix, state set)` pairs one walk visited, back-filled into the
/// memo with the walk's verdict: the suffix ids plus one flat run of state
/// words, `words` per id.
struct Trail {
    ids: Vec<ProvId>,
    states: Vec<u64>,
}

impl Trail {
    fn with_capacity(nodes: usize, words: usize) -> Self {
        Trail {
            ids: Vec::with_capacity(nodes),
            states: Vec::with_capacity(nodes * words),
        }
    }

    fn push(&mut self, id: ProvId, states: &[u64]) {
        self.ids.push(id);
        self.states.extend_from_slice(states);
    }
}

/// A pattern compiled to a non-deterministic finite automaton over event
/// predicates.
///
/// ```
/// use piprov_patterns::ast::{GroupExpr, Pattern};
/// use piprov_patterns::nfa::CompiledPattern;
/// use piprov_core::provenance::{Event, Provenance};
/// use piprov_core::name::Principal;
///
/// let pattern = Pattern::immediately_sent_by(GroupExpr::single("c"));
/// let compiled = CompiledPattern::compile(&pattern);
/// let prov = Provenance::single(Event::output(Principal::new("c"), Provenance::empty()));
/// assert!(compiled.matches(&prov));
/// ```
pub struct CompiledPattern {
    /// The source pattern (kept for display and introspection).
    source: Pattern,
    /// Consuming transitions per state (ε moves live in `closure`).
    transitions: Vec<Vec<Transition>>,
    /// Words per state set: `⌈state_count() / 64⌉`.
    words: usize,
    /// ε-closure rows, `words` words per state (see `row`).
    closure: Box<[u64]>,
    /// Atom predicates; nested channel patterns are compiled too.
    atoms: Vec<CompiledAtom>,
    start: usize,
    accept: usize,
    /// Match memo: verdict of simulating from a state set over the suffix
    /// identified by an interned `ProvId`.  Bounded, with epoch-based
    /// eviction (see the module docs).
    memo: Mutex<Memo>,
}

/// A compiled event predicate: the group/direction test plus a compiled
/// nested pattern for the channel provenance.
#[derive(Clone)]
struct CompiledAtom {
    pattern: EventPattern,
    channel: Box<CompiledPattern>,
}

impl Clone for CompiledPattern {
    fn clone(&self) -> Self {
        CompiledPattern {
            source: self.source.clone(),
            transitions: self.transitions.clone(),
            words: self.words,
            closure: self.closure.clone(),
            atoms: self.atoms.clone(),
            start: self.start,
            accept: self.accept,
            // The memo is a cache: clones start cold but keep the bound.
            memo: Mutex::new(Memo::new(self.lock_memo().bound)),
        }
    }
}

impl fmt::Debug for CompiledPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledPattern")
            .field("source", &self.source.to_string())
            .field("states", &self.transitions.len())
            .field("atoms", &self.atoms.len())
            .field("memo_entries", &self.memo_entries())
            .finish()
    }
}

/// Builder state for the Thompson construction.
struct Builder {
    transitions: Vec<Vec<Transition>>,
    /// ε moves per state.
    epsilon: Vec<Vec<usize>>,
    atoms: Vec<CompiledAtom>,
}

impl Builder {
    fn new_state(&mut self) -> usize {
        self.transitions.push(Vec::new());
        self.epsilon.push(Vec::new());
        self.transitions.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize, label: Label) {
        self.transitions[from].push(Transition { to, label });
    }

    fn epsilon_edge(&mut self, from: usize, to: usize) {
        self.epsilon[from].push(to);
    }

    /// Compiles `pattern` into a fragment with fresh start/accept states.
    fn fragment(&mut self, pattern: &Pattern) -> (usize, usize) {
        match pattern {
            Pattern::Empty => {
                let s = self.new_state();
                let a = self.new_state();
                self.epsilon_edge(s, a);
                (s, a)
            }
            Pattern::Any => {
                // Any ≡ (any single event)*
                let s = self.new_state();
                let a = self.new_state();
                self.epsilon_edge(s, a);
                self.edge(s, s, Label::AnyEvent);
                (s, a)
            }
            Pattern::Event(ep) => {
                let s = self.new_state();
                let a = self.new_state();
                let idx = self.atoms.len();
                self.atoms.push(CompiledAtom {
                    pattern: ep.clone(),
                    channel: Box::new(CompiledPattern::compile(&ep.channel_pattern)),
                });
                self.edge(s, a, Label::Atom(idx));
                (s, a)
            }
            Pattern::Seq(first, second) => {
                let (s1, a1) = self.fragment(first);
                let (s2, a2) = self.fragment(second);
                self.epsilon_edge(a1, s2);
                (s1, a2)
            }
            Pattern::Alt(left, right) => {
                let s = self.new_state();
                let a = self.new_state();
                let (sl, al) = self.fragment(left);
                let (sr, ar) = self.fragment(right);
                self.epsilon_edge(s, sl);
                self.epsilon_edge(s, sr);
                self.epsilon_edge(al, a);
                self.epsilon_edge(ar, a);
                (s, a)
            }
            Pattern::Star(inner) => {
                let s = self.new_state();
                let a = self.new_state();
                let (si, ai) = self.fragment(inner);
                self.epsilon_edge(s, a);
                self.epsilon_edge(s, si);
                self.epsilon_edge(ai, si);
                self.epsilon_edge(ai, a);
                (s, a)
            }
        }
    }

    /// The ε-closure of every state, as rows of `words` words each.
    fn closure_rows(&self, words: usize) -> Box<[u64]> {
        let mut rows = vec![0u64; self.epsilon.len() * words].into_boxed_slice();
        let mut stack = Vec::new();
        for (state, row) in rows.chunks_exact_mut(words).enumerate() {
            set_bit(row, state);
            stack.push(state);
            while let Some(from) = stack.pop() {
                for &to in &self.epsilon[from] {
                    if !get_bit(row, to) {
                        set_bit(row, to);
                        stack.push(to);
                    }
                }
            }
        }
        rows
    }
}

impl CompiledPattern {
    /// Compiles a pattern into an NFA.
    pub fn compile(pattern: &Pattern) -> Self {
        let mut builder = Builder {
            transitions: Vec::new(),
            epsilon: Vec::new(),
            atoms: Vec::new(),
        };
        let (start, accept) = builder.fragment(pattern);
        let words = builder.transitions.len().div_ceil(64);
        let closure = builder.closure_rows(words);
        CompiledPattern {
            source: pattern.clone(),
            transitions: builder.transitions,
            words,
            closure,
            atoms: builder.atoms,
            start,
            accept,
            memo: Mutex::new(Memo::new(DEFAULT_MEMO_BOUND)),
        }
    }

    /// The pattern this automaton was compiled from.
    pub fn source(&self) -> &Pattern {
        &self.source
    }

    /// Number of NFA states (including states of *this* level only; nested
    /// channel patterns have their own automata).
    pub fn state_count(&self) -> usize {
        self.transitions.len()
    }

    /// Number of `(suffix, state set)` verdicts currently memoized at this
    /// level (nested channel automata keep their own memos).
    pub fn memo_entries(&self) -> usize {
        self.lock_memo().entries
    }

    /// A snapshot of this level's memo occupancy and traffic (nested
    /// channel automata keep their own memos and stats).
    pub fn memo_stats(&self) -> MemoStats {
        self.lock_memo().stats()
    }

    /// Sets the memo bound of this automaton *and every nested channel
    /// automaton*, clamped to at least 1.  If the memo currently holds
    /// more entries than the new bound, it is cleared immediately (a new
    /// epoch), so `memo_entries() <= bound` holds from the moment this
    /// returns.
    pub fn set_memo_bound(&self, bound: usize) {
        {
            let mut memo = self.lock_memo();
            memo.bound = bound.max(1);
            if memo.entries > memo.bound {
                memo.rollover();
            }
        }
        for atom in &self.atoms {
            atom.channel.set_memo_bound(bound);
        }
    }

    fn lock_memo(&self) -> std::sync::MutexGuard<'_, Memo> {
        match self.memo.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The ε-closure of `state`: every state reachable from it by ε moves
    /// alone.  The start state's row is the set every walk begins from.
    fn row(&self, state: usize) -> &[u64] {
        &self.closure[state * self.words..(state + 1) * self.words]
    }

    /// Consumes `event` from every state in `from`, writing the successor
    /// set into `into`: the union of the closure rows of every transition
    /// crossed.  Returns `false` when no state survives.
    fn step(&self, from: &[u64], event: &Event, into: &mut [u64], stats: &mut MatchStats) -> bool {
        into.fill(0);
        for state in iter_bits(from) {
            for t in &self.transitions[state] {
                let crosses = match t.label {
                    Label::AnyEvent => true,
                    Label::Atom(idx) => self.atom_matches(idx, event, stats),
                };
                if crosses {
                    for (word, bits) in into.iter_mut().zip(self.row(t.to)) {
                        *word |= bits;
                    }
                }
            }
        }
        into.iter().any(|&word| word != 0)
    }

    /// Back-fills the memo with `verdict` for every pair on `trail`.
    fn seed_memo(&self, trail: &Trail, verdict: bool) {
        let mut memo = self.lock_memo();
        for (&id, states) in trail.ids.iter().zip(trail.states.chunks_exact(self.words)) {
            memo.insert(id, states, verdict);
        }
    }

    /// Decides `κ ⊨ π` by NFA simulation, memoized per
    /// `(ProvId, state set)`.
    ///
    /// The walk follows the interned spine of `κ`; at each node it first
    /// consults the memo (simulation from a state set over a fixed suffix
    /// is deterministic, so the cached verdict is exact) and otherwise
    /// records the node on a trail that is back-filled with the final
    /// verdict.  Re-vetting a provenance whose suffix was seen before —
    /// the common case when every message on a channel carries that
    /// channel's history — therefore costs one hash lookup per *new* node
    /// only.
    pub fn matches(&self, provenance: &Provenance) -> bool {
        self.matches_collect(provenance, &mut MatchStats::default())
    }

    /// Like [`CompiledPattern::matches`], but also reports how much work
    /// the query cost: memo hits and spine nodes simulated, accumulated
    /// across this automaton and every nested channel automaton consulted.
    pub fn matches_with_stats(&self, provenance: &Provenance) -> (bool, MatchStats) {
        let mut stats = MatchStats::default();
        let verdict = self.matches_collect(provenance, &mut stats);
        (verdict, stats)
    }

    /// Decides `kept ; suffix ⊨ π` without building that history: steps
    /// the automaton over the plain events `kept` (most recent first),
    /// which have no interned node and so no memo entry, then continues
    /// the ordinary memoized walk over the interned `suffix` from the
    /// state set it reached.  Nested channel atoms consult their own
    /// memos, whose keys are the events' real channel histories.
    ///
    /// This is how a counterfactual re-vets a history with some events
    /// removed: nothing is interned, and only `suffix` nodes enter the
    /// memo.  With `kept` empty it is [`CompiledPattern::matches_with_stats`]
    /// on `suffix`.
    pub fn matches_after(&self, kept: &[&Event], suffix: &Provenance) -> (bool, MatchStats) {
        let mut stats = MatchStats::default();
        if kept.is_empty() {
            let verdict = self.matches_collect(suffix, &mut stats);
            return (verdict, stats);
        }
        let mut states = self.row(self.start).to_vec();
        let mut next = vec![0u64; self.words];
        for event in kept {
            stats.nodes_visited += 1;
            if !self.step(&states, event, &mut next, &mut stats) {
                return (false, stats);
            }
            std::mem::swap(&mut states, &mut next);
        }
        let verdict = self.matches_from(&states, suffix, &mut stats);
        (verdict, stats)
    }

    fn matches_collect(&self, provenance: &Provenance, stats: &mut MatchStats) -> bool {
        self.matches_from(self.row(self.start), provenance, stats)
    }

    /// The memoized walk over `provenance` from the state set `from`.  A
    /// walk answered at its first node borrows `from` and allocates
    /// nothing.
    fn matches_from(&self, from: &[u64], provenance: &Provenance, stats: &mut MatchStats) -> bool {
        if let Some(cached) = self.lock_memo().lookup(provenance.id(), from) {
            stats.memo_hits += 1;
            return cached;
        }
        let mut trail = Trail::with_capacity(provenance.len() + 1, self.words);
        let mut states = from.to_vec();
        let mut next = vec![0u64; self.words];
        let mut cursor = provenance;
        let verdict = loop {
            trail.push(cursor.id(), &states);
            let Some(event) = cursor.head() else {
                break get_bit(&states, self.accept);
            };
            stats.nodes_visited += 1;
            if !self.step(&states, event, &mut next, stats) {
                break false;
            }
            std::mem::swap(&mut states, &mut next);
            cursor = cursor.tail().expect("non-empty provenance");
            if let Some(cached) = self.lock_memo().lookup(cursor.id(), &states) {
                stats.memo_hits += 1;
                break cached;
            }
        };
        self.seed_memo(&trail, verdict);
        verdict
    }

    /// Explains `κ ⊨ π` (or its failure) with a [`WitnessTrail`].
    ///
    /// The walk mirrors [`CompiledPattern::matches`] but records, for every
    /// consumed event, the interned id of the suffix it heads.  It does not
    /// *consult* the memo — a cached verdict carries no trail — but it
    /// seeds the memo with the final verdict for every suffix visited,
    /// exactly as a plain match would, so later (e.g. counterfactual)
    /// matches over untouched subgraphs answer from cache.  Pairs the memo
    /// already holds are left as they are.
    pub fn witness(&self, provenance: &Provenance, stats: &mut MatchStats) -> WitnessTrail {
        let len = provenance.len();
        let mut trail = Trail::with_capacity(len + 1, self.words);
        let mut consumed: Vec<WitnessStep> = Vec::with_capacity(len);
        let mut states = self.row(self.start).to_vec();
        let mut next = vec![0u64; self.words];
        let mut cursor = provenance;
        let outcome = loop {
            let id = cursor.id();
            trail.push(id, &states);
            let Some(event) = cursor.head() else {
                break if get_bit(&states, self.accept) {
                    WitnessTrail::Accepted { steps: consumed }
                } else {
                    WitnessTrail::Exhausted { consumed }
                };
            };
            stats.nodes_visited += 1;
            let step = WitnessStep {
                node: id,
                event: event.clone(),
            };
            if !self.step(&states, event, &mut next, stats) {
                break WitnessTrail::Blocked {
                    consumed,
                    blocked: step,
                };
            }
            consumed.push(step);
            std::mem::swap(&mut states, &mut next);
            cursor = cursor.tail().expect("non-empty provenance");
        };
        self.seed_memo(&trail, outcome.verdict());
        outcome
    }

    fn atom_matches(&self, idx: usize, event: &Event, stats: &mut MatchStats) -> bool {
        let atom = &self.atoms[idx];
        event.direction == atom.pattern.direction
            && atom.pattern.group.contains(&event.principal)
            && atom
                .channel
                .matches_collect(&event.channel_provenance, stats)
    }

    /// Checks that the NFA agrees with the reference matcher on a single
    /// input; used by the property-based test suite.
    pub fn agrees_with_reference(&self, provenance: &Provenance) -> bool {
        self.matches(provenance) == crate::matching::satisfies(provenance, &self.source)
    }
}

/// Convenience: checks one event against an event pattern using the same
/// logic as the reference matcher (re-exported for the static analysis).
pub fn compiled_event_satisfies(event: &Event, pattern: &EventPattern) -> bool {
    event_satisfies(event, pattern)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::GroupExpr;
    use crate::matching::satisfies;
    use piprov_core::name::Principal;

    fn out(p: &str) -> Event {
        Event::output(Principal::new(p), Provenance::empty())
    }
    fn inp(p: &str) -> Event {
        Event::input(Principal::new(p), Provenance::empty())
    }
    fn seq(events: Vec<Event>) -> Provenance {
        Provenance::from_events(events)
    }

    fn check_agreement(pattern: &Pattern, provenances: &[Provenance]) {
        let compiled = CompiledPattern::compile(pattern);
        for p in provenances {
            assert_eq!(
                compiled.matches(p),
                satisfies(p, pattern),
                "engines disagree on {} ⊨ {}",
                p,
                pattern
            );
        }
    }

    fn sample_provenances() -> Vec<Provenance> {
        vec![
            Provenance::empty(),
            seq(vec![out("a")]),
            seq(vec![inp("a")]),
            seq(vec![out("b")]),
            seq(vec![out("c"), inp("b"), out("a")]),
            seq(vec![inp("b"), out("a"), out("a")]),
            seq(vec![out("a"), out("a"), out("a"), out("a")]),
            Provenance::single(Event::output(
                Principal::new("a"),
                seq(vec![out("b"), inp("c")]),
            )),
        ]
    }

    #[test]
    fn engines_agree_on_basic_patterns() {
        let patterns = vec![
            Pattern::Empty,
            Pattern::Any,
            Pattern::send(GroupExpr::single("a"), Pattern::Any),
            Pattern::receive(GroupExpr::all(), Pattern::Any),
            Pattern::immediately_sent_by(GroupExpr::single("c")),
            Pattern::originated_at(GroupExpr::single("a")),
            Pattern::only_touched_by(GroupExpr::any_of(["a", "b"])),
            Pattern::send(GroupExpr::everyone_but("a"), Pattern::Any).star(),
            Pattern::Any.then(Pattern::Any).then(Pattern::Empty),
            Pattern::Empty.or(Pattern::send(GroupExpr::single("a"), Pattern::Any)),
            Pattern::send(
                GroupExpr::single("a"),
                Pattern::send(GroupExpr::single("b"), Pattern::Any).then(Pattern::Any),
            ),
        ];
        let provenances = sample_provenances();
        for p in &patterns {
            check_agreement(p, &provenances);
        }
    }

    #[test]
    fn nested_channel_patterns_are_simulated_recursively() {
        let inner = Pattern::send(GroupExpr::single("b"), Pattern::Any).then(Pattern::Any);
        let pattern = Pattern::send(GroupExpr::single("a"), inner);
        let compiled = CompiledPattern::compile(&pattern);
        let chan_prov = seq(vec![out("b"), inp("c")]);
        let good = Provenance::single(Event::output(Principal::new("a"), chan_prov));
        let bad = Provenance::single(Event::output(Principal::new("a"), seq(vec![inp("c")])));
        assert!(compiled.matches(&good));
        assert!(!compiled.matches(&bad));
    }

    #[test]
    fn pathological_pattern_is_fast() {
        // (Any; Any)* over a long provenance: the reference matcher would
        // explore exponentially many splits; the NFA stays linear.
        let pattern = Pattern::Any.then(Pattern::Any).star();
        let compiled = CompiledPattern::compile(&pattern);
        let long = Provenance::from_events((0..200).map(|_| out("a")).collect::<Vec<_>>());
        assert!(compiled.matches(&long));
    }

    #[test]
    fn star_requires_all_chunks_to_match() {
        let pattern = Pattern::send(GroupExpr::single("a"), Pattern::Any).star();
        let compiled = CompiledPattern::compile(&pattern);
        assert!(compiled.matches(&seq(vec![out("a"), out("a")])));
        assert!(!compiled.matches(&seq(vec![out("a"), out("b")])));
        assert!(compiled.matches(&Provenance::empty()));
    }

    #[test]
    fn dead_states_short_circuit() {
        let pattern = Pattern::send(GroupExpr::single("a"), Pattern::Any);
        let compiled = CompiledPattern::compile(&pattern);
        // Second event can never be consumed: no live state remains.
        assert!(!compiled.matches(&seq(vec![out("a"), out("a"), out("a")])));
    }

    #[test]
    fn memo_returns_consistent_verdicts() {
        let pattern = Pattern::only_touched_by(GroupExpr::any_of(["a", "b"]));
        let compiled = CompiledPattern::compile(&pattern);
        let yes = seq(vec![out("a"), inp("b"), out("b")]);
        let no = seq(vec![out("a"), inp("c")]);
        for _ in 0..3 {
            assert!(compiled.matches(&yes));
            assert!(!compiled.matches(&no));
        }
        assert!(compiled.memo_entries() > 0, "verdicts were memoized");
    }

    #[test]
    fn memo_is_reused_across_shared_suffixes() {
        let pattern = Pattern::send(GroupExpr::all(), Pattern::Any).star();
        let compiled = CompiledPattern::compile(&pattern);
        // Grow one history; every extension shares the previous spine, so
        // the memo grows by O(1) nodes per query instead of re-simulating
        // the whole sequence.
        let mut prov = Provenance::empty();
        for i in 0..32 {
            prov = prov.prepend(out(&format!("p{}", i % 4)));
            assert!(compiled.matches(&prov));
        }
        let entries_after_growth = compiled.memo_entries();
        // Re-vetting the full history is answered from the memo alone.
        assert!(compiled.matches(&prov));
        assert_eq!(compiled.memo_entries(), entries_after_growth);
    }

    #[test]
    fn memo_stays_under_its_bound_on_a_long_workload() {
        let pattern = Pattern::send(GroupExpr::all(), Pattern::Any).star();
        let compiled = CompiledPattern::compile(&pattern);
        compiled.set_memo_bound(16);
        // Vet far more distinct histories than the bound admits.
        for i in 0..400 {
            let prov = Provenance::from_events(
                (0..(1 + i % 7))
                    .map(|j| out(&format!("bound-{}-{}", i, j)))
                    .collect::<Vec<_>>(),
            );
            assert!(compiled.matches(&prov));
            assert!(
                compiled.memo_entries() <= 16,
                "memo exceeded its bound: {}",
                compiled.memo_entries()
            );
        }
        let stats = compiled.memo_stats();
        assert_eq!(stats.bound, 16);
        assert!(stats.epochs > 0, "the bound forced at least one epoch");
        assert!(stats.misses > 0);
        // Verdicts stay correct across epochs.
        assert!(compiled.matches(&seq(vec![out("fresh")])));
        assert!(!compiled.matches(&seq(vec![inp("fresh")])));
    }

    #[test]
    fn set_memo_bound_reaches_nested_channel_automata() {
        let inner = Pattern::send(GroupExpr::single("b"), Pattern::Any).then(Pattern::Any);
        let pattern = Pattern::send(GroupExpr::single("a"), inner);
        let compiled = CompiledPattern::compile(&pattern);
        compiled.set_memo_bound(4);
        for i in 0..64 {
            let chan = seq(vec![out("b"), inp(&format!("nested-{}", i))]);
            let prov = Provenance::single(Event::output(Principal::new("a"), chan));
            assert!(compiled.matches(&prov));
        }
        // The nested automaton (vetting channel histories) saw 64 distinct
        // suffixes under a bound of 4: it must have cycled epochs.
        let nested_epochs: u64 = compiled
            .atoms
            .iter()
            .map(|a| a.channel.memo_stats().epochs)
            .sum();
        assert!(nested_epochs > 0, "nested memos respect the bound too");
        assert!(compiled.atoms.iter().all(|a| a.channel.memo_entries() <= 4));
    }

    #[test]
    fn shrinking_the_bound_clears_excess_entries_immediately() {
        let pattern = Pattern::Any;
        let compiled = CompiledPattern::compile(&pattern);
        for i in 0..32 {
            assert!(compiled.matches(&seq(vec![out(&format!("shrink-{}", i))])));
        }
        assert!(compiled.memo_entries() > 8);
        compiled.set_memo_bound(8);
        assert!(compiled.memo_entries() <= 8);
        assert!(compiled.memo_stats().epochs >= 1);
    }

    #[test]
    fn matches_with_stats_reports_memo_reuse() {
        let pattern = Pattern::send(GroupExpr::all(), Pattern::Any).star();
        let compiled = CompiledPattern::compile(&pattern);
        let prov = seq(vec![out("ws-a"), out("ws-b"), out("ws-c")]);
        let (verdict, cold) = compiled.matches_with_stats(&prov);
        assert!(verdict);
        // The outer spine is fully simulated; the only hits come from the
        // nested channel automaton re-vetting the (memoized) ε history.
        assert_eq!(cold.nodes_visited, 3);
        assert_eq!(cold.memo_hits, 2);
        let (verdict, warm) = compiled.matches_with_stats(&prov);
        assert!(verdict);
        assert_eq!(warm.nodes_visited, 0, "second query simulates nothing");
        assert_eq!(warm.memo_hits, 1, "…it is answered by one memo lookup");
        // Extending the history costs O(new nodes): the new event plus at
        // most one more step until the state set re-enters a memoized
        // (suffix, states) pair — never a re-simulation of the whole spine.
        let grown = prov.prepend(out("ws-d"));
        let (_, incremental) = compiled.matches_with_stats(&grown);
        assert!(incremental.nodes_visited <= 2);
        assert!(incremental.memo_hits >= 1);
    }

    #[test]
    fn matches_after_agrees_with_matching_the_joined_history() {
        let patterns = [
            Pattern::send(GroupExpr::single("a"), Pattern::Any).star(),
            Pattern::originated_at(GroupExpr::single("a")),
            Pattern::only_touched_by(GroupExpr::any_of(["a", "b"])),
            Pattern::send(
                GroupExpr::single("a"),
                Pattern::send(GroupExpr::single("b"), Pattern::Any).then(Pattern::Any),
            ),
        ];
        for pattern in &patterns {
            let compiled = CompiledPattern::compile(pattern);
            for provenance in sample_provenances() {
                let events = provenance.to_vec();
                let mut suffix = &provenance;
                for split in 0..=events.len() {
                    // Every other event above the split is kept.
                    let kept: Vec<&Event> = events[..split].iter().step_by(2).collect();
                    let joined = Provenance::from_events(
                        kept.iter().map(|e| (*e).clone()).chain(suffix.to_vec()),
                    );
                    let (verdict, _) = compiled.matches_after(&kept, suffix);
                    assert_eq!(
                        verdict,
                        satisfies(&joined, pattern),
                        "{} ⊨ {}",
                        joined,
                        pattern
                    );
                    if let Some(tail) = suffix.tail() {
                        suffix = tail;
                    }
                }
            }
        }
    }

    #[test]
    fn generational_eviction_retains_the_hot_working_set() {
        // A small working set is re-vetted on every iteration while a
        // stream of one-shot histories forces epoch rollovers.  The hot
        // set's verdicts survive every rollover: after the first pass,
        // each re-vet answers from the memo at its root.
        let pattern = Pattern::send(GroupExpr::all(), Pattern::Any).star();
        let compiled = CompiledPattern::compile(&pattern);
        compiled.set_memo_bound(16);
        let hot: Vec<Provenance> = (0..4)
            .map(|i| seq(vec![out(&format!("hot-{}", i)), out("shared")]))
            .collect();
        for i in 0..300 {
            let (verdict, stats) = compiled.matches_with_stats(&hot[i % hot.len()]);
            assert!(verdict);
            if i >= hot.len() {
                assert_eq!(stats.nodes_visited, 0, "re-vet {} of the hot set walked", i);
            }
            let cold = seq(vec![out(&format!("cold-{}", i))]);
            assert!(compiled.matches(&cold));
            assert!(
                compiled.memo_entries() <= 16,
                "memo exceeded its bound: {}",
                compiled.memo_entries()
            );
        }
        let stats = compiled.memo_stats();
        assert!(stats.epochs > 0, "the cold stream forced rollovers");
        assert!(stats.retained > 0, "hot entries survived the rollovers");
    }

    #[test]
    fn generational_rollover_frees_at_least_half_the_memo() {
        // A workload where *every* entry is hot: vet the same histories
        // repeatedly so all cached verdicts answer lookups, then overflow.
        // The survivor cap (bound / 2) must still free room for the new
        // epoch rather than thrashing a rollover per insert.
        let pattern = Pattern::send(GroupExpr::all(), Pattern::Any).star();
        let compiled = CompiledPattern::compile(&pattern);
        compiled.set_memo_bound(8);
        let working: Vec<Provenance> = (0..8)
            .map(|i| seq(vec![out(&format!("w-{}", i))]))
            .collect();
        for _ in 0..3 {
            for prov in &working {
                assert!(compiled.matches(prov));
            }
        }
        // Overflow with fresh histories; entries never exceed the bound and
        // the memo never holds more than bound/2 survivors post-rollover.
        for i in 0..64 {
            assert!(compiled.matches(&seq(vec![out(&format!("fresh-{}", i))])));
            assert!(compiled.memo_entries() <= 8);
        }
        let stats = compiled.memo_stats();
        assert!(stats.epochs > 0);
        assert!(
            stats.retained <= stats.epochs * 4,
            "each rollover keeps at most bound/2 = 4 entries"
        );
    }

    #[test]
    fn witness_keeps_memo_entries_hot() {
        let pattern = Pattern::send(GroupExpr::all(), Pattern::Any).star();
        for with_witness in [false, true] {
            let compiled = CompiledPattern::compile(&pattern);
            let prov = seq(vec![out("hot-a"), out("hot-b"), out("hot-c")]);
            assert!(compiled.matches(&prov));
            assert!(
                compiled.matches(&prov),
                "answered at the root, which turns hot"
            );
            if with_witness {
                assert!(compiled
                    .witness(&prov, &mut MatchStats::default())
                    .verdict());
            }
            // Four entries (three suffixes and ε) over a bound of 2: the
            // rollover keeps one hot entry, and only the root is hot.
            compiled.set_memo_bound(2);
            let stats = compiled.memo_stats();
            assert_eq!(stats.epochs, 1);
            assert_eq!(stats.retained, 1, "with_witness = {}", with_witness);
            let (verdict, work) = compiled.matches_with_stats(&prov);
            assert!(verdict);
            assert_eq!(work.nodes_visited, 0, "with_witness = {}", with_witness);
        }
    }

    #[test]
    fn witness_over_memoized_nodes_does_not_roll_the_memo_over() {
        let pattern = Pattern::send(GroupExpr::all(), Pattern::Any).star();
        let compiled = CompiledPattern::compile(&pattern);
        compiled.set_memo_bound(4);
        let prov = seq(vec![out("full-a"), out("full-b"), out("full-c")]);
        assert!(compiled.matches(&prov));
        let before = compiled.memo_stats();
        assert_eq!(before.entries, 4, "three suffixes and ε fill the memo");
        assert!(compiled
            .witness(&prov, &mut MatchStats::default())
            .verdict());
        let after = compiled.memo_stats();
        assert_eq!(
            after.epochs, before.epochs,
            "re-seeding held pairs adds nothing"
        );
        assert_eq!(after.entries, 4);
    }

    #[test]
    fn clones_start_with_a_cold_memo() {
        let pattern = Pattern::Any;
        let compiled = CompiledPattern::compile(&pattern);
        assert!(compiled.matches(&seq(vec![out("a")])));
        assert!(compiled.memo_entries() > 0);
        let cloned = compiled.clone();
        assert_eq!(cloned.memo_entries(), 0);
        assert!(cloned.matches(&seq(vec![out("a")])));
    }

    #[test]
    fn debug_and_introspection() {
        let pattern = Pattern::immediately_sent_by(GroupExpr::single("c"));
        let compiled = CompiledPattern::compile(&pattern);
        assert!(compiled.state_count() >= 4);
        assert_eq!(compiled.source(), &pattern);
        let dbg = format!("{:?}", compiled);
        assert!(dbg.contains("CompiledPattern"));
    }

    #[test]
    fn agreement_helper() {
        let pattern = Pattern::originated_at(GroupExpr::single("d"));
        let compiled = CompiledPattern::compile(&pattern);
        for p in sample_provenances() {
            assert!(compiled.agrees_with_reference(&p));
        }
    }
}
