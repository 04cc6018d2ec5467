//! Store oracle: [`FactStore::rename_nulls`] patches a copy of the store
//! (shared tuples, re-keyed postings, adjusted bloom counters) instead
//! of rebuilding it. Over random stores and random strictly increasing
//! partial null renamings ρ, the patched copy must be indistinguishable
//! from a store rebuilt by inserting the renamed tuples afresh:
//!
//! * the same fact set, fingerprint, active domain and nulls;
//! * every surviving tuple keeps its id, every dropped id is dead and
//!   reported, and nothing else is reported;
//! * the same posting lists, in content and in order (the rename's order
//!   `debug_assert` is off in release builds, so this is what guards
//!   posting order there);
//! * bloom filters that admit every present value and answer exactly
//!   like the rebuilt store's, so their negatives stay exact;
//! * an empty delta, and the same behaviour under further inserts,
//!   removals and a second rename.
//!
//! The randomized case count defaults to 64, overridden by
//! `PROPTEST_CASES` (the deep push-only CI tier runs 1024).

use quasi_inverse::schema::store::{FactStore, TupleId};
use quasi_inverse::schema::{NullId, Value};
use quasi_inverse::workloads::rng::Rng64;
use std::collections::BTreeMap;

fn cases() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Nulls of the random stores are drawn below this id.
const NULLS: u64 = 12;

/// Kinds of situations a case covers, counted over the sweep.
#[derive(Default, Debug)]
struct Coverage {
    /// A null moved onto the old id of another moved null.
    onto_moved: usize,
    /// A null moved to a smaller id.
    downward: usize,
    /// Kept tuples holding constants only.
    ground: usize,
    /// Tuples dropped because exactly one of their nulls is dead.
    one_dead: usize,
    /// Tuples ρ fixes that hold a null.
    fixed_null: usize,
}

fn random_value(rng: &mut Rng64) -> Value {
    if rng.random_bool(0.4) {
        Value::constant(&format!("so{}", rng.random_range(0..5)))
    } else {
        Value::null(rng.random_range(0..NULLS as usize) as u64)
    }
}

fn random_tuple(rng: &mut Rng64, arity: usize) -> Vec<Value> {
    (0..arity).map(|_| random_value(rng)).collect()
}

/// A random store with removals (arena holes) and a non-empty delta.
fn random_store(rng: &mut Rng64) -> (FactStore, Vec<usize>) {
    let arities: Vec<usize> = (0..rng.random_range(1..=3))
        .map(|_| rng.random_range(1..=3))
        .collect();
    let mut store = FactStore::new(&arities);
    for round in 0..2 {
        if round == 1 {
            store.begin_round();
        }
        for _ in 0..rng.random_range(0..=30) {
            let rel = rng.random_range(0..arities.len());
            store.insert(rel, random_tuple(rng, arities[rel]));
        }
        for _ in 0..rng.random_range(0..=6) {
            let rel = rng.random_range(0..arities.len());
            store.remove(rel, &random_tuple(rng, arities[rel]));
            let first = store.tuples(rel).next().map(<[Value]>::to_vec);
            if let Some(t) = first.filter(|_| rng.random_bool(0.3)) {
                store.remove(rel, &t);
            }
        }
    }
    (store, arities)
}

/// A random strictly increasing partial map on the nulls below `NULLS`:
/// each null is dead with some probability; the live ones take an
/// increasing sequence of new ids that starts low and grows by random
/// gaps, so nulls move up, move down, stay, and land on ids other
/// moved nulls held.
fn random_rho(rng: &mut Rng64) -> BTreeMap<u64, u64> {
    let mut rho = BTreeMap::new();
    let mut next = rng.random_range(0..3) as u64;
    for n in 0..NULLS {
        if rng.random_bool(0.2) {
            continue;
        }
        rho.insert(n, next);
        next += rng.random_range(1..=3) as u64;
    }
    rho
}

fn rename(rho: &BTreeMap<u64, u64>, t: &[Value]) -> Option<Vec<Value>> {
    t.iter()
        .map(|&v| match v {
            Value::Null(n) => rho.get(&n.0).map(|&m| Value::null(m)),
            c => Some(c),
        })
        .collect()
}

/// Insert the live tuples of `store` afresh.
fn rebuilt(store: &FactStore, arities: &[usize]) -> FactStore {
    let mut out = FactStore::new(arities);
    for rel in 0..arities.len() {
        for t in store.tuples(rel) {
            out.insert(rel, t.to_vec());
        }
    }
    out
}

/// Every value a case can mention, before or after a rename.
fn universe() -> Vec<Value> {
    let consts = (0..5).map(|i| Value::constant(&format!("so{i}")));
    consts.chain((0..4 * NULLS).map(Value::null)).collect()
}

/// `actual` must be indistinguishable from the freshly built `expected`.
fn assert_same_store(actual: &FactStore, expected: &FactStore, what: &str) {
    assert!(actual == expected, "{what}: fact sets differ");
    assert_eq!(actual.fingerprint(), expected.fingerprint(), "{what}");
    assert_eq!(actual.active_domain(), expected.active_domain(), "{what}");
    assert_eq!(actual.nulls(), expected.nulls(), "{what}");
    for rel in 0..expected.num_rels() {
        assert!(actual.tuples(rel).eq(expected.tuples(rel)), "{what}: order");
        for pos in 0..expected.arity(rel) {
            assert_eq!(
                actual.position_distinct(rel, pos),
                expected.position_distinct(rel, pos),
                "{what}: posting keys of ({rel}, {pos})"
            );
            for v in universe() {
                let list = |s: &FactStore| -> Vec<Vec<Value>> {
                    s.posting(rel, pos, v)
                        .iter()
                        .map(|&id| s.tuple(rel, id).to_vec())
                        .collect()
                };
                assert_eq!(
                    list(actual),
                    list(expected),
                    "{what}: posting ({rel}, {pos}, {v:?})"
                );
                let present = !expected.posting(rel, pos, v).is_empty();
                let admits = actual.bloom_admits(rel, pos, v);
                assert!(admits || !present, "{what}: bloom rejects a present value");
                assert_eq!(admits, expected.bloom_admits(rel, pos, v), "{what}: bloom");
            }
        }
    }
}

/// One case: rename, compare, keep mutating, rename again.
fn check_case(seed: u64, cov: &mut Coverage) {
    let mut rng = Rng64::new(seed);
    let (store, arities) = random_store(&mut rng);
    let rho = random_rho(&mut rng);
    let moved: BTreeMap<u64, u64> = rho
        .iter()
        .filter(|(n, m)| n != m)
        .map(|(&n, &m)| (n, m))
        .collect();
    cov.onto_moved += moved.values().filter(|m| moved.contains_key(m)).count();
    cov.downward += moved.iter().filter(|(n, m)| m < n).count();
    let (renamed, dropped) = store.rename_nulls(|n| rho.get(&n.0).map(|&m| NullId(m)));
    let what = format!("seed {seed}");
    assert_eq!(
        renamed.delta_len(),
        0,
        "{what}: the copy starts a fresh round"
    );

    let mut expected = FactStore::new(&arities);
    let mut expected_dropped: Vec<(usize, TupleId)> = Vec::new();
    for (rel, &arity) in arities.iter().enumerate() {
        for t in store.tuples(rel) {
            let id = store.tuple_id(rel, t).expect("present");
            match rename(&rho, t) {
                Some(r) => {
                    assert_eq!(renamed.live_tuple(rel, id), Some(&r[..]), "{what}: id kept");
                    assert_eq!(renamed.tuple_id(rel, &r), Some(id), "{what}");
                    cov.ground += usize::from(r.iter().all(|v| v.is_const()));
                    cov.fixed_null += usize::from(r == t && r.iter().any(|v| !v.is_const()));
                    expected.insert(rel, r);
                }
                None => {
                    assert_eq!(renamed.live_tuple(rel, id), None, "{what}: dropped id dead");
                    let dead = t
                        .iter()
                        .filter(|v| matches!(v, Value::Null(n) if !rho.contains_key(&n.0)))
                        .count();
                    cov.one_dead += usize::from(dead == 1 && arity > 1);
                    expected_dropped.push((rel, id));
                }
            }
        }
    }
    let mut reported = dropped.clone();
    reported.sort_unstable();
    expected_dropped.sort_unstable();
    assert_eq!(reported, expected_dropped, "{what}: reported drops");
    assert_same_store(&renamed, &expected, &what);

    // The copy is a valid store: further mutations and a second rename
    // agree with the rebuilt one.
    let mut renamed = renamed;
    for _ in 0..rng.random_range(0..=8) {
        let rel = rng.random_range(0..arities.len());
        let t = random_tuple(&mut rng, arities[rel]);
        if rng.random_bool(0.5) {
            assert_eq!(renamed.insert(rel, t.clone()), expected.insert(rel, t));
        } else {
            assert_eq!(renamed.remove(rel, &t), expected.remove(rel, &t));
        }
    }
    assert_same_store(
        &renamed,
        &rebuilt(&expected, &arities),
        &format!("{what}, mutated"),
    );
    let again = random_rho(&mut rng);
    let (twice, _) = renamed.rename_nulls(|n| again.get(&n.0).map(|&m| NullId(m)));
    let mut expected_twice = FactStore::new(&arities);
    for rel in 0..arities.len() {
        for t in expected.tuples(rel) {
            if let Some(r) = rename(&again, t) {
                expected_twice.insert(rel, r);
            }
        }
    }
    assert_same_store(&twice, &expected_twice, &format!("{what}, renamed twice"));
}

#[test]
fn rename_nulls_equals_a_rebuilt_store() {
    let mut cov = Coverage::default();
    for case in 0..cases() {
        check_case(0x5702_e000 + case, &mut cov);
    }
    // The sweep reaches every situation the patch treats specially.
    assert!(cov.onto_moved > 0, "{cov:?}");
    assert!(cov.downward > 0, "{cov:?}");
    assert!(cov.ground > 0, "{cov:?}");
    assert!(cov.one_dead > 0, "{cov:?}");
    assert!(cov.fixed_null > 0, "{cov:?}");
}
