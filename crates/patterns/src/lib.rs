//! # piprov-patterns
//!
//! The sample pattern matching language of Table 3 of *"A Formal Model of
//! Provenance in Distributed Systems"*: regular-expression patterns over
//! provenance sequences, with group expressions over principals.
//!
//! The crate provides:
//!
//! * the pattern AST and group expressions ([`ast`]),
//! * the reference satisfaction relation `κ ⊨ π`, a direct transcription of
//!   the paper's inference rules ([`matching`]),
//! * a compiled NFA engine with identical semantics but linear-time
//!   matching ([`nfa`]),
//! * a parser for a concrete pattern syntax ([`parse`]),
//! * [`SamplePatterns`], an implementation of
//!   [`piprov_core::pattern::PatternLanguage`] that plugs either engine into
//!   the reduction semantics.
//!
//! ```
//! use piprov_core::pattern::PatternLanguage;
//! use piprov_core::provenance::{Event, Provenance};
//! use piprov_core::name::Principal;
//! use piprov_patterns::{parse::parse_pattern, SamplePatterns};
//!
//! let matcher = SamplePatterns::new();
//! let pattern = parse_pattern("c!Any; Any")?;
//! let prov = Provenance::single(Event::output(Principal::new("c"), Provenance::empty()));
//! assert!(matcher.satisfies(&prov, &pattern));
//! # Ok::<(), piprov_patterns::parse::ParsePatternError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ast;
pub mod matching;
pub mod nfa;
pub mod parse;

pub use ast::{EventPattern, GroupExpr, Pattern};
pub use nfa::{
    CompiledPattern, MatchStats, MemoStats, WitnessStep, WitnessTrail, DEFAULT_MEMO_BOUND,
};
pub use parse::{parse_pattern, ParsePatternError};

use piprov_core::pattern::PatternLanguage;
use piprov_core::provenance::Provenance;
use std::collections::HashMap;
use std::sync::Mutex;

/// Which engine a [`SamplePatterns`] matcher uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The reference backtracking matcher (the paper's rules verbatim).
    Reference,
    /// The compiled NFA engine with a per-pattern compilation cache.
    #[default]
    Compiled,
}

/// The sample pattern language packaged as a
/// [`PatternLanguage`] instance, so it
/// can drive the reduction semantics of `piprov-core`.
///
/// The compiled engine memoises compilations keyed by the pattern's textual
/// form, so repeated vetting of the same input pattern (the common case in
/// long simulation runs) costs one hash lookup plus an NFA simulation.
#[derive(Debug, Default)]
pub struct SamplePatterns {
    engine: Engine,
    cache: Mutex<HashMap<Pattern, CompiledPattern>>,
}

impl SamplePatterns {
    /// A matcher using the default (compiled) engine.
    pub fn new() -> Self {
        SamplePatterns::default()
    }

    /// A matcher using the reference backtracking engine.
    pub fn reference() -> Self {
        SamplePatterns {
            engine: Engine::Reference,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// A matcher using the compiled NFA engine.
    pub fn compiled() -> Self {
        SamplePatterns {
            engine: Engine::Compiled,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The engine in use.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Number of patterns currently in the compilation cache.
    pub fn cached_patterns(&self) -> usize {
        self.cache.lock().map(|c| c.len()).unwrap_or(0)
    }
}

impl Clone for SamplePatterns {
    fn clone(&self) -> Self {
        SamplePatterns {
            engine: self.engine,
            cache: Mutex::new(HashMap::new()),
        }
    }
}

impl PatternLanguage for SamplePatterns {
    type Pattern = Pattern;

    fn satisfies(&self, provenance: &Provenance, pattern: &Pattern) -> bool {
        match self.engine {
            Engine::Reference => matching::satisfies(provenance, pattern),
            Engine::Compiled => {
                let mut cache = match self.cache.lock() {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
                let compiled = cache
                    .entry(pattern.clone())
                    .or_insert_with(|| CompiledPattern::compile(pattern));
                compiled.matches(provenance)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piprov_core::name::Principal;
    use piprov_core::provenance::Event;

    fn sent_by(p: &str) -> Provenance {
        Provenance::single(Event::output(Principal::new(p), Provenance::empty()))
    }

    #[test]
    fn both_engines_agree_through_the_trait() {
        let pattern = parse_pattern("c!Any; Any").unwrap();
        let reference = SamplePatterns::reference();
        let compiled = SamplePatterns::compiled();
        for prov in [sent_by("c"), sent_by("d"), Provenance::empty()] {
            assert_eq!(
                reference.satisfies(&prov, &pattern),
                compiled.satisfies(&prov, &pattern)
            );
        }
    }

    #[test]
    fn compiled_engine_caches_compilations() {
        let matcher = SamplePatterns::compiled();
        let pattern = parse_pattern("Any; d!Any").unwrap();
        assert_eq!(matcher.cached_patterns(), 0);
        let _ = matcher.satisfies(&sent_by("d"), &pattern);
        let _ = matcher.satisfies(&sent_by("e"), &pattern);
        assert_eq!(matcher.cached_patterns(), 1);
    }

    #[test]
    fn default_engine_is_compiled() {
        assert_eq!(SamplePatterns::new().engine(), Engine::Compiled);
        assert_eq!(SamplePatterns::reference().engine(), Engine::Reference);
        let cloned = SamplePatterns::new().clone();
        assert_eq!(cloned.engine(), Engine::Compiled);
    }
}

#[cfg(test)]
mod proptests {
    //! Property-based tests: the two engines agree on random patterns and
    //! random provenance sequences, and parsing round-trips through display.

    use super::*;
    use piprov_core::name::Principal;
    use piprov_core::provenance::{Event, Provenance};
    use proptest::prelude::*;

    fn arb_principal() -> impl Strategy<Value = Principal> {
        prop_oneof![Just("a"), Just("b"), Just("c"), Just("d")].prop_map(Principal::new)
    }

    fn arb_group(depth: u32) -> BoxedStrategy<GroupExpr> {
        let leaf = prop_oneof![
            arb_principal().prop_map(GroupExpr::Single),
            Just(GroupExpr::All),
        ];
        if depth == 0 {
            leaf.boxed()
        } else {
            prop_oneof![
                4 => leaf,
                1 => (arb_group(depth - 1), arb_group(depth - 1))
                    .prop_map(|(g, h)| g.union(h)),
                1 => (arb_group(depth - 1), arb_group(depth - 1))
                    .prop_map(|(g, h)| g.difference(h)),
            ]
            .boxed()
        }
    }

    fn arb_pattern(depth: u32) -> BoxedStrategy<Pattern> {
        let leaf = prop_oneof![
            Just(Pattern::Empty),
            Just(Pattern::Any),
            arb_group(1).prop_map(|g| Pattern::send(g, Pattern::Any)),
            arb_group(1).prop_map(|g| Pattern::receive(g, Pattern::Any)),
        ];
        if depth == 0 {
            leaf.boxed()
        } else {
            let rec = arb_pattern(depth - 1);
            prop_oneof![
                3 => leaf,
                2 => (arb_pattern(depth - 1), arb_pattern(depth - 1))
                    .prop_map(|(a, b)| a.then(b)),
                2 => (arb_pattern(depth - 1), arb_pattern(depth - 1))
                    .prop_map(|(a, b)| a.or(b)),
                1 => rec.prop_map(|a| a.star()),
                1 => (arb_group(1), arb_pattern(depth - 1))
                    .prop_map(|(g, p)| Pattern::send(g, p)),
            ]
            .boxed()
        }
    }

    fn arb_event(depth: u32) -> BoxedStrategy<Event> {
        if depth == 0 {
            (arb_principal(), any::<bool>())
                .prop_map(|(p, send)| {
                    if send {
                        Event::output(p, Provenance::empty())
                    } else {
                        Event::input(p, Provenance::empty())
                    }
                })
                .boxed()
        } else {
            (arb_principal(), any::<bool>(), arb_provenance(depth - 1))
                .prop_map(|(p, send, chan)| {
                    if send {
                        Event::output(p, chan)
                    } else {
                        Event::input(p, chan)
                    }
                })
                .boxed()
        }
    }

    fn arb_provenance(depth: u32) -> BoxedStrategy<Provenance> {
        proptest::collection::vec(arb_event(depth), 0..5)
            .prop_map(Provenance::from_events)
            .boxed()
    }

    /// Patterns whose automata have more than 64 states, so every state
    /// set spans at least two words: a left-nested `then`/`or` chain of
    /// 33–40 small patterns, each of which compiles to at least two
    /// states.  (`arb_pattern(2)` tops out at 14 states.)  Left nesting
    /// numbers the outermost links' states highest, and every walk
    /// crosses the outermost links, so the second word decides verdicts.
    fn arb_wide_pattern() -> BoxedStrategy<Pattern> {
        proptest::collection::vec((arb_pattern(1), any::<bool>()), 33..41)
            .prop_map(|links| {
                let mut links = links.into_iter();
                let (mut chain, _) = links.next().expect("at least 33 links");
                for (link, then) in links {
                    chain = if then {
                        chain.then(link)
                    } else {
                        chain.or(link)
                    };
                }
                chain
            })
            .boxed()
    }

    /// Every suffix of `prov`, shortest (ε) first.
    fn suffixes_oldest_first(prov: &Provenance) -> Vec<Provenance> {
        let mut suffixes = vec![prov.clone()];
        while let Some(tail) = suffixes.last().and_then(|s| s.tail()) {
            suffixes.push(tail.clone());
        }
        suffixes.reverse();
        suffixes
    }

    /// The compiled automaton against the reference matcher, memo-warm
    /// answers against memo-cold ones, and the witness walk against the
    /// plain walk — on every suffix of `prov`.
    fn check_kernel(pattern: &Pattern, prov: &Provenance) {
        // Vetting the suffixes oldest first makes each longer walk stop
        // at a memoized suffix, so the warm automaton answers mid-walk
        // from the memo; a fresh automaton per suffix answers cold.
        let warm = CompiledPattern::compile(pattern);
        for suffix in suffixes_oldest_first(prov) {
            let cold = CompiledPattern::compile(pattern).matches(&suffix);
            prop_assert_eq!(cold, matching::satisfies(&suffix, pattern));
            prop_assert_eq!(warm.matches(&suffix), cold);
            let trail =
                CompiledPattern::compile(pattern).witness(&suffix, &mut nfa::MatchStats::default());
            prop_assert_eq!(trail.verdict(), cold);
            let warm_trail = warm.witness(&suffix, &mut nfa::MatchStats::default());
            prop_assert_eq!(&warm_trail, &trail);
            if let WitnessTrail::Accepted { steps } = trail {
                let spine = suffixes_oldest_first(&suffix);
                let nodes: Vec<_> = spine.iter().skip(1).rev().map(|s| s.id()).collect();
                let events: Vec<_> = steps.iter().map(|s| s.event.clone()).collect();
                prop_assert_eq!(steps.iter().map(|s| s.node).collect::<Vec<_>>(), nodes);
                prop_assert_eq!(events, suffix.to_vec());
            }
        }
    }

    /// A channel pattern that rejects ε (`H!Any`, `H?Any;Any`) or accepts
    /// only ε, so that deciding an ε channel history the wrong way round
    /// changes the verdict of the atom that nests it.
    fn arb_channel_pattern() -> BoxedStrategy<Pattern> {
        prop_oneof![
            arb_group(1).prop_map(|h| Pattern::send(h, Pattern::Any)),
            arb_group(1).prop_map(|h| Pattern::receive(h, Pattern::Any).then(Pattern::Any)),
            Just(Pattern::Empty),
        ]
        .boxed()
    }

    /// Patterns whose every atom nests an [`arb_channel_pattern`]:
    /// `G!(H!Any)`, `G?(H?Any;Any);Any`, `(G!ε)*` and their sequences and
    /// choices.
    fn arb_nested_pattern(depth: u32) -> BoxedStrategy<Pattern> {
        let atom =
            (arb_group(1), any::<bool>(), arb_channel_pattern()).prop_map(|(g, send, channel)| {
                if send {
                    Pattern::send(g, channel)
                } else {
                    Pattern::receive(g, channel)
                }
            });
        if depth == 0 {
            atom.boxed()
        } else {
            prop_oneof![
                2 => atom,
                2 => arb_nested_pattern(depth - 1).prop_map(|a| a.then(Pattern::Any)),
                2 => (arb_nested_pattern(depth - 1), arb_nested_pattern(depth - 1))
                    .prop_map(|(a, b)| a.then(b)),
                1 => (arb_nested_pattern(depth - 1), arb_nested_pattern(depth - 1))
                    .prop_map(|(a, b)| a.or(b)),
                1 => arb_nested_pattern(depth - 1).prop_map(|a| a.star()),
            ]
            .boxed()
        }
    }

    /// Histories whose events travel on ε channels and on channels with a
    /// one- or two-event history, about half each.
    fn arb_mixed_provenance() -> BoxedStrategy<Provenance> {
        let channel = prop_oneof![
            Just(Provenance::empty()),
            proptest::collection::vec(arb_event(0), 1..3).prop_map(Provenance::from_events),
        ];
        let event = (arb_principal(), any::<bool>(), channel).prop_map(|(p, send, channel)| {
            if send {
                Event::output(p, channel)
            } else {
                Event::input(p, channel)
            }
        });
        proptest::collection::vec(event, 0..5)
            .prop_map(Provenance::from_events)
            .boxed()
    }

    /// `matches`, `witness` and `matches_after` (over every split, keeping
    /// every other event above it) against the reference matcher.
    fn check_walks_against_reference(pattern: &Pattern, prov: &Provenance) {
        let expected = matching::satisfies(prov, pattern);
        prop_assert_eq!(CompiledPattern::compile(pattern).matches(prov), expected);
        let trail =
            CompiledPattern::compile(pattern).witness(prov, &mut nfa::MatchStats::default());
        prop_assert_eq!(trail.verdict(), expected);
        let compiled = CompiledPattern::compile(pattern);
        let events = prov.to_vec();
        for (split, suffix) in suffixes_oldest_first(prov).iter().rev().enumerate() {
            let kept: Vec<&Event> = events[..split].iter().step_by(2).collect();
            let joined =
                Provenance::from_events(kept.iter().map(|e| (*e).clone()).chain(suffix.to_vec()));
            let (verdict, _) = compiled.matches_after(&kept, suffix);
            prop_assert_eq!(verdict, matching::satisfies(&joined, pattern));
        }
    }

    proptest! {
        // 128 cases by default; the PIPROV_PROPTEST_CASES environment
        // variable overrides it (handled inside with_cases) for deeper CI
        // runs.
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The automaton decides an atom's ε channel history without the
        /// nested memo; nesting only channel patterns that reject ε or
        /// accept only ε makes every such decision count.
        #[test]
        fn epsilon_channels_are_decided_as_the_reference_decides_them(
            pattern in arb_nested_pattern(2),
            prov in arb_mixed_provenance(),
        ) {
            check_walks_against_reference(&pattern, &prov);
        }

        #[test]
        fn nfa_agrees_with_reference(pattern in arb_pattern(2), prov in arb_provenance(1)) {
            let compiled = CompiledPattern::compile(&pattern);
            prop_assert_eq!(compiled.matches(&prov), matching::satisfies(&prov, &pattern));
        }

        #[test]
        fn kernel_holds_on_one_word_state_sets(pattern in arb_pattern(2), prov in arb_provenance(1)) {
            check_kernel(&pattern, &prov);
        }

        #[test]
        fn kernel_holds_on_multi_word_state_sets(pattern in arb_wide_pattern(), prov in arb_provenance(1)) {
            prop_assert!(CompiledPattern::compile(&pattern).state_count() > 64);
            check_kernel(&pattern, &prov);
        }

        #[test]
        fn display_parse_round_trip(pattern in arb_pattern(2)) {
            let printed = pattern.to_string();
            let reparsed = parse::parse_pattern(&printed).unwrap();
            // Semantically equal: check on a few provenances (structural
            // equality can differ because display flattens parentheses).
            let compiled_a = CompiledPattern::compile(&pattern);
            let compiled_b = CompiledPattern::compile(&reparsed);
            let samples = [
                Provenance::empty(),
                Provenance::single(Event::output(Principal::new("a"), Provenance::empty())),
                Provenance::from_events(vec![
                    Event::input(Principal::new("b"), Provenance::empty()),
                    Event::output(Principal::new("a"), Provenance::empty()),
                ]),
            ];
            for s in &samples {
                prop_assert_eq!(compiled_a.matches(s), compiled_b.matches(s));
            }
        }

        #[test]
        fn any_pattern_always_matches(prov in arb_provenance(1)) {
            prop_assert!(matching::satisfies(&prov, &Pattern::Any));
        }

        #[test]
        fn empty_pattern_matches_only_empty(prov in arb_provenance(1)) {
            prop_assert_eq!(matching::satisfies(&prov, &Pattern::Empty), prov.is_empty());
        }

        #[test]
        fn star_is_idempotent_on_match(pattern in arb_pattern(1), prov in arb_provenance(1)) {
            // If κ ⊨ π* then κ ⊨ (π*)* as well.
            let starred = pattern.clone().star();
            let double = starred.clone().star();
            if matching::satisfies(&prov, &starred) {
                prop_assert!(matching::satisfies(&prov, &double));
            }
        }
    }
}
