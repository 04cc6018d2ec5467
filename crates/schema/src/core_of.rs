//! Cores of instances.
//!
//! The *core* of an instance `J` is a smallest subinstance of `J` to which
//! `J` retracts; it is unique up to isomorphism and homomorphically
//! equivalent to `J`. Cores are not used by the paper's algorithms
//! directly, but they give canonical representatives of the
//! hom-equivalence classes that `~M` and faithfulness (§6) reason about,
//! and the test-suite uses them to compare chase results structurally.
//!
//! # Retraction-based computation
//!
//! [`core_of`] is a FindCore-style fold rather than greedy fact
//! elimination. Per round it looks, for each null `n` of the current
//! instance, for a single *endomorphism whose image avoids `n`*
//! (a [`crate::MatchConstraints::forbidden_values`] search); applying
//! such a map through [`crate::Instance::map_values`] eliminates `n` —
//! and usually many other nulls in the same stroke, since nothing
//! restricts the endomorphism to move only `n`. The null count strictly
//! decreases with every fold, so the loop terminates after at most
//! `#nulls` folds.
//!
//! The stopping condition is exact: the result is a core *iff* no null
//! is avoidable. A non-core has an idempotent retraction `r` onto a
//! proper subinstance; `r` cannot be surjective on nulls (a null-
//! surjective endomorphism is injective on the finite null set, hence
//! maps distinct facts to distinct facts and cannot shrink anything), so
//! some null is absent from `r`'s entire image — exactly what the
//! per-null search looks for.
//!
//! # Block-local refutation
//!
//! Most candidate nulls are not avoidable, and a whole-instance search
//! pays for every fact to say so. Each round therefore splits the
//! non-ground facts into *blocks* — nulls connected through shared
//! facts — and first searches only the block of `n`, mapped into the
//! current instance with `n` forbidden. This is exact: an endomorphism
//! avoiding `n` restricts to such a block match, and a block match
//! extends by the identity on every other block and on every ground
//! fact (no other block mentions `n`) to an endomorphism avoiding `n`.
//! Only on a block match does the whole-instance search run, unchanged,
//! to pick the fold — so the core and [`CoreStats`] are exactly those
//! of the whole-instance loop. A round with a single block skips the
//! block search, which would repeat the whole one.
//!
//! The pre-v2 greedy loop (drop one fact at a time while a hom into the
//! remainder exists) is kept as [`core_of_greedy`] behind the
//! `greedy-core` feature: it is the reference implementation the
//! differential oracle (`tests/core_oracle.rs`) compares against.

use crate::hom::{MatchConstraints, MatchEngine, PatFact, PatTerm, Pattern, VarIdx};
use crate::instance::Instance;
use crate::value::{NullId, Value};
use std::collections::BTreeMap;

/// Counters from one [`core_of_with_stats`] run, exported through the
/// `qimap` CLI `--stats` flag.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Endomorphism searches attempted (one per candidate null per
    /// round, successful or not).
    pub endos_tried: u64,
    /// Nulls eliminated across all folds (a single fold may eliminate
    /// many nulls at once).
    pub nulls_folded: u64,
    /// Retraction rounds: pattern rebuilds after a successful fold, plus
    /// the final round that certifies no null is avoidable.
    pub rounds: u64,
}

/// Compute the core of `instance` (see the module docs for the
/// algorithm).
///
/// Ground instances are their own cores (constants are fixed by
/// homomorphisms), so the search is skipped entirely for them.
pub fn core_of(instance: &Instance) -> Instance {
    core_of_with_stats(instance).0
}

/// [`core_of`] plus the counters describing the computation.
pub fn core_of_with_stats(instance: &Instance) -> (Instance, CoreStats) {
    let mut stats = CoreStats::default();
    let mut current = instance.clone();
    'outer: loop {
        let nulls: Vec<NullId> = current.nulls().iter().copied().collect();
        if nulls.is_empty() {
            return (current, stats);
        }
        stats.rounds += 1;
        let (pattern, vars) = Pattern::from_instance(&current);
        let blocks = NullBlocks::of(&pattern);
        let lone = blocks.patterns.len() == 1;
        for (i, &n) in nulls.iter().enumerate() {
            stats.endos_tried += 1;
            let constraints = MatchConstraints {
                forbidden_values: vec![Value::Null(n)],
                ..Default::default()
            };
            // Block-local refutation: every other block and every ground
            // fact keep the identity as a witness avoiding `n`, so an
            // endomorphism avoiding `n` exists iff `n`'s block maps into
            // the instance avoiding `n`. (A lone block is the whole
            // search, so it goes straight there.)
            let block = &blocks.patterns[blocks.block_of[i]];
            if !lone && !MatchEngine::new(block, &current, &constraints).exists() {
                continue;
            }
            let engine = MatchEngine::new(&pattern, &current, &constraints);
            let Some(h) = engine.any_match() else {
                assert!(lone, "a block match extends by the identity");
                continue;
            };
            // h is an endomorphism of `current` whose image avoids
            // Null(n): the mapped instance is a subinstance missing at
            // least that null (h one way, inclusion back, so
            // hom-equivalence is preserved).
            let map: BTreeMap<Value, Value> = vars
                .iter()
                .enumerate()
                .map(|(i, &m)| (Value::Null(m), h.value(i as u32)))
                .collect();
            let before = current.nulls().len();
            current = current.map_values(|v| map.get(&v).copied().unwrap_or(v));
            stats.nulls_folded += (before - current.nulls().len()) as u64;
            continue 'outer;
        }
        return (current, stats);
    }
}

/// The non-ground facts of an instance split into **blocks**: nulls
/// connected through shared facts, each block a pattern whose variables
/// are its nulls (constants stay fixed).
struct NullBlocks {
    /// One pattern per block, in order of each block's smallest null.
    patterns: Vec<Pattern>,
    /// `block_of[v]` = the block of the instance pattern's variable `v`.
    block_of: Vec<usize>,
}

impl NullBlocks {
    /// Blocks of an instance, read off its [`Pattern::from_instance`]
    /// pattern (one variable per null, ground facts variable-free).
    fn of(pattern: &Pattern) -> NullBlocks {
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        fn vars_of(f: &PatFact) -> impl Iterator<Item = usize> + '_ {
            f.args.iter().filter_map(|t| match *t {
                PatTerm::Var(v) => Some(v as usize),
                PatTerm::Value(_) => None,
            })
        }
        let mut parent: Vec<usize> = (0..pattern.nvars).collect();
        for f in &pattern.facts {
            let mut vs = vars_of(f);
            if let Some(first) = vs.next() {
                for v in vs {
                    let (a, b) = (find(&mut parent, first), find(&mut parent, v));
                    parent[a.max(b)] = a.min(b);
                }
            }
        }
        // Roots are each block's smallest variable, so numbering blocks
        // by first root seen orders them by smallest null.
        let mut block_of_root: Vec<Option<usize>> = vec![None; pattern.nvars];
        let mut block_of = Vec::with_capacity(pattern.nvars);
        let mut local: Vec<VarIdx> = Vec::with_capacity(pattern.nvars);
        let mut patterns: Vec<Pattern> = Vec::new();
        for v in 0..pattern.nvars {
            let root = find(&mut parent, v);
            let b = *block_of_root[root].get_or_insert_with(|| {
                patterns.push(Pattern::empty(0));
                patterns.len() - 1
            });
            local.push(patterns[b].nvars as VarIdx);
            patterns[b].nvars += 1;
            block_of.push(b);
        }
        for f in &pattern.facts {
            let Some(v) = vars_of(f).next() else {
                continue;
            };
            patterns[block_of[v]].facts.push(PatFact {
                rel: f.rel,
                args: f
                    .args
                    .iter()
                    .map(|t| match *t {
                        PatTerm::Var(v) => PatTerm::Var(local[v as usize]),
                        c => c,
                    })
                    .collect(),
            });
        }
        NullBlocks { patterns, block_of }
    }
}

/// The pre-v2 greedy core: repeatedly drop a fact `f` such that the
/// current instance still maps homomorphically into `current − f` (the
/// inclusion gives the other direction, so equivalence is preserved).
/// When no fact can be dropped, every endomorphism is surjective and the
/// remainder is a core.
///
/// Kept behind the `greedy-core` feature as the reference path for the
/// differential oracle (`tests/core_oracle.rs`); [`core_of`] supersedes
/// it everywhere else. Note on the old "candidate staleness" rescan:
/// dropping a fact removes only that fact, so the per-round candidate
/// snapshot never holds a dead fact — the `contains_fact` re-check the
/// original loop paid on every iteration was pure overhead and is gone.
#[cfg(any(test, feature = "greedy-core"))]
pub fn core_of_greedy(instance: &Instance) -> Instance {
    use crate::hom::has_hom;
    let mut current = instance.clone();
    if current.is_ground() {
        return current;
    }
    loop {
        let mut shrunk = false;
        // Try dropping facts that contain at least one null; a fact with
        // only constants can never be dropped (no hom can re-create it).
        let candidates: Vec<_> = current.facts().filter(|f| !f.is_ground()).collect();
        for fact in candidates {
            let smaller = current.without_fact(&fact);
            if has_hom(&current, &smaller) {
                current = smaller;
                shrunk = true;
            }
        }
        if !shrunk {
            return current;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hom::hom_equivalent;
    use crate::iso::is_isomorphic;
    use crate::schema::Schema;

    fn inst(schema: &Schema, text: &str) -> Instance {
        Instance::parse(schema, text).unwrap()
    }

    #[test]
    fn ground_instance_is_its_own_core() {
        let s = Schema::parse("P/2").unwrap();
        let i = inst(&s, "P(a,b) P(b,c)");
        assert_eq!(core_of(&i), i);
        let (_, stats) = core_of_with_stats(&i);
        assert_eq!(stats.endos_tried, 0, "ground: no search at all");
    }

    #[test]
    fn redundant_null_fact_dropped() {
        let s = Schema::parse("P/2").unwrap();
        // P(a,N1) folds onto P(a,b).
        let i = inst(&s, "P(a,b) P(a,N1)");
        let c = core_of(&i);
        assert_eq!(c, inst(&s, "P(a,b)"));
        assert!(hom_equivalent(&i, &c));
    }

    #[test]
    fn chain_of_nulls_collapses_onto_loop() {
        let s = Schema::parse("E/2").unwrap();
        let i = inst(&s, "E(a,a) E(a,N1) E(N1,N2)");
        let c = core_of(&i);
        assert_eq!(c, inst(&s, "E(a,a)"));
        let (_, stats) = core_of_with_stats(&i);
        assert_eq!(stats.nulls_folded, 2, "one fold removes the chain");
    }

    #[test]
    fn rigid_instance_unchanged() {
        let s = Schema::parse("E/2").unwrap();
        // N1→N2 with different constant anchors: nothing folds.
        let i = inst(&s, "E(a,N1) E(b,N2)");
        let c = core_of(&i);
        assert_eq!(c.fact_count(), 2);
        assert!(hom_equivalent(&i, &c));
    }

    #[test]
    fn core_is_idempotent() {
        let s = Schema::parse("E/2").unwrap();
        let i = inst(&s, "E(a,a) E(a,N1) E(N1,N2) E(N3,N3)");
        let once = core_of(&i);
        let twice = core_of(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn retraction_agrees_with_greedy_reference() {
        let s = Schema::parse("E/2 P/2").unwrap();
        for text in [
            "E(a,a) E(a,N1) E(N1,N2) E(N3,N3)",
            "E(a,b) E(b,c)",
            "E(a,N1) E(b,N2)",
            "E(N1,N2) E(N2,N1) P(N1,N1)",
            "P(a,b) P(a,N1) E(N2,N2)",
            "E(N1,N2) E(N2,N3) E(N3,N1)",
        ] {
            let i = inst(&s, text);
            let v2 = core_of(&i);
            let greedy = core_of_greedy(&i);
            assert!(
                is_isomorphic(&v2, &greedy),
                "cores of {text} differ: v2={v2} greedy={greedy}"
            );
            assert!(hom_equivalent(&i, &v2));
        }
    }
}
