//! Differential oracle for the homomorphism engine v2 core computation.
//!
//! `core_of` is a retraction-based fold: per round it searches, for each
//! null, for an endomorphism whose image avoids that null, and applies it
//! through `map_values`. This file pins that algorithm against three
//! independent referees on seed-scheduled random instances:
//!
//! * the **greedy reference** (`core_of_greedy`, the pre-v2 fact-dropping
//!   loop, kept behind the `greedy-core` feature) — the two must agree up
//!   to isomorphism, since cores are unique up to isomorphism;
//! * **hom-equivalence with the input** — a core that is not equivalent
//!   to its instance is not a retract at all;
//! * **brute-force minimality** — no single fact of the result may be
//!   droppable (a homomorphism from the core into the core minus one
//!   fact would contradict core-ness), checked fact by fact with the
//!   plain `has_hom` search.
//!
//! A fourth referee is the whole-instance loop `core_of` ran before
//! block-local refutation: same rendered core, same `CoreStats`.
//!
//! The thread-sweep test covers executor thread counts 1 and 4: `core_of`
//! sits on top of `exists`/`any_match`, whose component decomposition may
//! fan out through `qi-exec`, and the rendered core must stay
//! byte-identical at every setting — same contract `tests/match_oracle.rs`
//! enforces for the chase.

use quasi_inverse::exec::set_global_threads;
use quasi_inverse::schema::{
    core_of, core_of_greedy, core_of_with_stats, has_hom, hom_equivalent, is_isomorphic, CoreStats,
    Instance, MatchConstraints, MatchEngine, NullId, PatFact, PatTerm, Pattern, Schema, Value,
};
use quasi_inverse::workloads::random::rng;
use quasi_inverse::workloads::rng::Rng64;
use std::collections::BTreeMap;

const CASES: u64 = 40;

/// A random instance mixing constants and nulls; null-heavy (60%) so the
/// cores are non-trivial more often than not.
fn random_instance(schema: &Schema, r: &mut Rng64, n_facts: usize, n_vals: usize) -> Instance {
    let mut inst = Instance::new(schema.clone());
    for _ in 0..n_facts {
        let rel = schema
            .rel_ids()
            .nth(r.random_range(0..schema.len()))
            .unwrap();
        let args: Vec<Value> = (0..schema.arity(rel))
            .map(|_| {
                let k = r.random_range(0..n_vals);
                if r.random_bool(0.6) {
                    Value::null(k as u64)
                } else {
                    Value::constant(&format!("c{k}"))
                }
            })
            .collect();
        inst.insert(rel, args).unwrap();
    }
    inst
}

/// All the per-instance core invariants; returns the v2 core.
fn check_core(i: &Instance, ctx: &str) -> Instance {
    let (v2, stats) = core_of_with_stats(i);
    let greedy = core_of_greedy(i);
    assert!(
        is_isomorphic(&v2, &greedy),
        "{ctx}: cores differ: v2 = {v2} / greedy = {greedy} (input {i})"
    );
    assert!(
        hom_equivalent(i, &v2),
        "{ctx}: core {v2} not equivalent to input {i}"
    );
    // Brute-force minimality: no fact of a core is droppable.
    for fact in v2.facts() {
        let smaller = v2.without_fact(&fact);
        assert!(
            !has_hom(&v2, &smaller),
            "{ctx}: core {v2} retracts further into {smaller}"
        );
    }
    // Idempotence is exact (not just up to isomorphism): a core has no
    // avoidable null, so the fold returns it unchanged.
    assert_eq!(core_of(&v2), v2, "{ctx}: core_of not idempotent");
    // The fold counters must account for exactly the nulls that vanished.
    assert_eq!(
        stats.nulls_folded as usize,
        i.nulls().len() - v2.nulls().len(),
        "{ctx}: nulls_folded out of balance"
    );
    v2
}

#[test]
fn retraction_core_agrees_with_greedy_and_brute_minimality() {
    let schema = Schema::parse("E/2 P/2 Q/1").unwrap();
    for seed in 0..CASES {
        let mut r = rng(7_000 + seed);
        let n_facts = 2 + r.random_range(0..8);
        let n_vals = 2 + r.random_range(0..4);
        let i = random_instance(&schema, &mut r, n_facts, n_vals);
        check_core(&i, &format!("seed {seed}"));
    }
}

#[test]
fn wide_instances_with_many_null_chains() {
    // Chains anchored on a constant loop: the shape the chase produces
    // for closure-style mappings, and the one where retraction folding
    // collapses many nulls per round.
    let schema = Schema::parse("E/2").unwrap();
    for k in [1usize, 3, 6] {
        let mut text = String::from("E(a,a)");
        for c in 0..3 {
            let base = (c * (k + 1)) as u64;
            text.push_str(&format!(" E(a,N{})", base + 1));
            for j in 1..k {
                let n = base + j as u64;
                text.push_str(&format!(" E(N{},N{})", n, n + 1));
            }
        }
        let i = Instance::parse(&schema, &text).unwrap();
        let core = check_core(&i, &format!("chains k={k}"));
        assert_eq!(
            core,
            Instance::parse(&schema, "E(a,a)").unwrap(),
            "chains k={k}: everything must fold onto the constant loop"
        );
    }
}

#[test]
fn core_is_byte_identical_across_thread_counts() {
    let schema = Schema::parse("E/2 P/2 Q/1").unwrap();
    let mut inputs = Vec::new();
    for seed in 0..12 {
        let mut r = rng(8_000 + seed);
        inputs.push(random_instance(&schema, &mut r, 9, 4));
    }
    let render = |threads: usize| -> Vec<String> {
        set_global_threads(threads);
        let out = inputs.iter().map(|i| core_of(i).to_string()).collect();
        set_global_threads(0);
        out
    };
    let at_one = render(1);
    let at_four = render(4);
    assert_eq!(at_one, at_four, "core_of diverged across thread counts");
    // And both agree with the auto setting (whatever this host resolves).
    assert_eq!(
        at_one,
        inputs
            .iter()
            .map(|i| core_of(i).to_string())
            .collect::<Vec<_>>()
    );
}

// ---------------------------------------------------------------------
// Block-local refutation: `core_of` refutes "some endomorphism avoids
// null n" on n's block alone. The referees below are the whole-instance
// search it replaced.
// ---------------------------------------------------------------------

fn avoiding(n: NullId) -> MatchConstraints {
    MatchConstraints {
        forbidden_values: vec![Value::Null(n)],
        ..Default::default()
    }
}

/// Is there an endomorphism of `i` whose image avoids `n`? The whole
/// instance as the pattern.
fn whole_instance_avoids(i: &Instance, n: NullId) -> bool {
    let (pattern, _) = Pattern::from_instance(i);
    MatchEngine::new(&pattern, i, &avoiding(n))
        .any_match()
        .is_some()
}

/// The same question on `n`'s block only: the non-ground facts reachable
/// from `n` through shared nulls, found by a plain fixpoint.
fn block_avoids(i: &Instance, n: NullId) -> bool {
    let facts: Vec<_> = i.facts().filter(|f| !f.is_ground()).collect();
    let mut block_nulls = vec![n];
    let mut in_block = vec![false; facts.len()];
    let mut grew = true;
    while grew {
        grew = false;
        for (k, f) in facts.iter().enumerate() {
            let touches = f
                .args
                .iter()
                .any(|v| matches!(v, Value::Null(m) if block_nulls.contains(m)));
            if !in_block[k] && touches {
                in_block[k] = true;
                grew = true;
                for v in &f.args {
                    if let Value::Null(m) = *v {
                        if !block_nulls.contains(&m) {
                            block_nulls.push(m);
                        }
                    }
                }
            }
        }
    }
    let var = |m: NullId| block_nulls.iter().position(|&b| b == m).unwrap() as u32;
    let pattern = Pattern {
        facts: facts
            .iter()
            .zip(&in_block)
            .filter(|(_, &b)| b)
            .map(|(f, _)| PatFact {
                rel: f.rel,
                args: f
                    .args
                    .iter()
                    .map(|&v| match v {
                        Value::Null(m) => PatTerm::Var(var(m)),
                        c => PatTerm::Value(c),
                    })
                    .collect(),
            })
            .collect(),
        nvars: block_nulls.len(),
    };
    MatchEngine::new(&pattern, i, &avoiding(n)).exists()
}

/// The retraction fold with the whole-instance search for every null —
/// the loop block-local refutation must reproduce byte for byte,
/// counters included.
fn whole_instance_core(instance: &Instance) -> (Instance, CoreStats) {
    let mut stats = CoreStats::default();
    let mut current = instance.clone();
    'outer: loop {
        let nulls: Vec<NullId> = current.nulls().iter().copied().collect();
        if nulls.is_empty() {
            return (current, stats);
        }
        stats.rounds += 1;
        let (pattern, vars) = Pattern::from_instance(&current);
        for &n in &nulls {
            stats.endos_tried += 1;
            let constraints = avoiding(n);
            if let Some(h) = MatchEngine::new(&pattern, &current, &constraints).any_match() {
                let map: BTreeMap<Value, Value> = vars
                    .iter()
                    .enumerate()
                    .map(|(k, &m)| (Value::Null(m), h.value(k as u32)))
                    .collect();
                let before = current.nulls().len();
                current = current.map_values(|v| map.get(&v).copied().unwrap_or(v));
                stats.nulls_folded += (before - current.nulls().len()) as u64;
                continue 'outer;
            }
        }
        return (current, stats);
    }
}

/// `core_of_with_stats` against the whole-instance loop: same rendered
/// core, same counters.
fn check_against_whole_instance(i: &Instance, ctx: &str) -> CoreStats {
    let (core, stats) = core_of_with_stats(i);
    let (reference, ref_stats) = whole_instance_core(i);
    assert_eq!(
        core.to_string(),
        reference.to_string(),
        "{ctx}: core differs"
    );
    assert_eq!(stats, ref_stats, "{ctx}: CoreStats differ");
    stats
}

#[test]
fn block_local_refutation_agrees_with_the_whole_instance_search() {
    let schema = Schema::parse("E/2 P/2 Q/1").unwrap();
    let (mut avoidable, mut rigid) = (0, 0);
    for seed in 0..CASES {
        let mut r = rng(7_000 + seed);
        let n_facts = 2 + r.random_range(0..8);
        let n_vals = 2 + r.random_range(0..4);
        let i = random_instance(&schema, &mut r, n_facts, n_vals);
        for &n in i.nulls().iter() {
            let whole = whole_instance_avoids(&i, n);
            assert_eq!(block_avoids(&i, n), whole, "seed {seed}, null {n:?}, {i}");
            if whole {
                avoidable += 1;
            } else {
                rigid += 1;
            }
        }
        check_against_whole_instance(&i, &format!("seed {seed}"));
    }
    assert!(
        avoidable > 10 && rigid > 10,
        "{avoidable} avoidable / {rigid} rigid"
    );
}

/// `blocks` copies of a rigid two-null gadget, each anchored on its own
/// constants; `folding` of them also get a redundant null fact that
/// folds onto the gadget.
fn gadgets(schema: &Schema, blocks: usize, folding: usize) -> Instance {
    let mut text = String::new();
    for b in 0..blocks as u64 {
        let (n1, n2) = (3 * b, 3 * b + 1);
        text.push_str(&format!(
            " E(a{b},N{n1}) E(N{n1},N{n2}) E(N{n2},b{b}) P(N{n1},N{n2})"
        ));
        if (b as usize) < folding {
            text.push_str(&format!(" E(a{b},N{})", 3 * b + 2));
        }
    }
    Instance::parse(schema, &text).unwrap()
}

#[test]
fn many_block_rigid_instance_keeps_its_counters() {
    let schema = Schema::parse("E/2 P/2 Q/1").unwrap();
    let i = gadgets(&schema, 24, 0);
    let stats = check_against_whole_instance(&i, "rigid");
    assert_eq!(
        stats,
        CoreStats {
            endos_tried: 48,
            nulls_folded: 0,
            rounds: 1
        }
    );
    assert_eq!(core_of(&i), i, "a rigid instance is its own core");
}

#[test]
fn mixed_instance_folds_only_its_redundant_blocks() {
    let schema = Schema::parse("E/2 P/2 Q/1").unwrap();
    let i = gadgets(&schema, 12, 5);
    let stats = check_against_whole_instance(&i, "mixed");
    assert_eq!(stats.nulls_folded, 5, "{stats:?}");
    assert_eq!(core_of(&i), gadgets(&schema, 12, 0));
    check_core(&i, "mixed");
}
