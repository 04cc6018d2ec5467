//! Incremental fact storage: canonical tuple order, per-position posting
//! lists, and a per-round delta.
//!
//! [`FactStore`] is the tuple storage behind [`crate::Instance`]. Three
//! invariants make it more than a set of `BTreeSet`s:
//!
//! * **Canonical order** — each relation keeps its tuples in a
//!   `BTreeMap` keyed by the tuple itself, so iteration order is the
//!   lexicographic tuple order (constants before nulls, see
//!   [`crate::Value`]). This is the PR-1 determinism contract: every
//!   consumer that enumerates tuples sees the same order the old
//!   `BTreeSet` storage produced.
//! * **Incremental postings** — for every `(relation, position)` pair, a
//!   posting list maps a value to the tuples carrying it at that
//!   position, *maintained on insert/remove* rather than rebuilt by each
//!   `MatchEngine`. Posting lists store tuple ids kept sorted by the
//!   tuple order, so iterating a posting list visits the same tuples in
//!   the same order a filtered scan of the relation would — an indexed
//!   match enumeration is byte-identical to an unindexed one.
//! * **Generation + delta** — a monotone [`generation`](FactStore::generation)
//!   counter ticks on every successful insert or remove (cache
//!   invalidation for derived values such as the active domain), and
//!   each relation records the *delta*: the tuples inserted since the
//!   last [`begin_round`](FactStore::begin_round). Semi-naive chase
//!   rounds restrict trigger enumeration to matches that touch at least
//!   one delta tuple.

use crate::value::{NullId, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

/// Identifier of a tuple within one relation's arena (stable across
/// inserts; never reused within a store's lifetime).
pub type TupleId = u32;

/// Number of counter slots per position bloom filter (1 KiB of `u16`s).
const BLOOM_SLOTS: usize = 512;

/// Counting bloom filter over the values at one `(relation, position)`
/// pair, maintained on insert/remove alongside the posting lists.
///
/// Two counter slots per value, derived from one `splitmix64` hash of
/// the value's stable identity (interned-constant index or null id —
/// never a process-seeded hasher, so filter state is a pure function of
/// the mutation history and identical across runs). Counters saturate
/// *stickily*: a slot that ever reaches `u16::MAX` is pinned there and
/// no longer decremented, which keeps the one guarantee that matters —
/// **a negative answer is exact** (the value certainly does not occur
/// at this position). Positives are only "maybe" and callers must
/// confirm against the posting list.
#[derive(Clone, Debug)]
struct Bloom {
    counters: Vec<u16>,
}

/// The 64-bit finalizer of splitmix64 — a cheap, stable scrambler.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stable 64-bit identity of a value: interned-constant index or null
/// id, tagged apart in the low bit.
fn value_key(v: Value) -> u64 {
    match v {
        Value::Const(c) => (c.index() as u64) << 1,
        Value::Null(n) => (n.0 << 1) | 1,
    }
}

impl Bloom {
    fn new() -> Self {
        Bloom {
            counters: vec![0; BLOOM_SLOTS],
        }
    }

    fn slots(v: Value) -> (usize, usize) {
        let h = splitmix64(value_key(v));
        (h as usize % BLOOM_SLOTS, (h >> 32) as usize % BLOOM_SLOTS)
    }

    fn add(&mut self, v: Value) {
        let (a, b) = Self::slots(v);
        self.counters[a] = self.counters[a].saturating_add(1);
        self.counters[b] = self.counters[b].saturating_add(1);
    }

    fn sub(&mut self, v: Value) {
        let (a, b) = Self::slots(v);
        for i in [a, b] {
            // Sticky saturation: a pinned counter has lost its true
            // count, so it may only stay pinned (conservative — keeps
            // negatives exact at the cost of permanent "maybe"s).
            if self.counters[i] != 0 && self.counters[i] != u16::MAX {
                self.counters[i] -= 1;
            }
        }
    }

    fn maybe_contains(&self, v: Value) -> bool {
        let (a, b) = Self::slots(v);
        self.counters[a] > 0 && self.counters[b] > 0
    }
}

/// A stored tuple. The arena and the canonical index hold the same
/// allocation, and so do the copies of a store: cloning a store or
/// renaming it copies pointers, not tuples. `Arc<[Value]>` orders like
/// `[Value]` and borrows as one, so lookups by `&[Value]` need no
/// conversion, and a read is one pointer hop from the arena.
type Tuple = Arc<[Value]>;

/// Storage of a single relation: arena + canonical index + postings +
/// delta.
#[derive(Clone, Debug, Default)]
struct RelStore {
    /// Append-only tuple arena; `None` marks a removed tuple (removal is
    /// rare — core computation and egd repair only).
    arena: Vec<Option<Tuple>>,
    /// Canonical index: tuple → arena id, iterated in tuple order.
    sorted: BTreeMap<Tuple, TupleId>,
    /// `postings[pos][value]` = ids of live tuples whose `pos`-th
    /// component is `value`, kept sorted by tuple order.
    postings: Vec<HashMap<Value, Vec<TupleId>>>,
    /// Ids inserted since the last `begin_round`, sorted by tuple order.
    delta: Vec<TupleId>,
    /// `blooms[pos]` = counting bloom over the values at position `pos`,
    /// probed by the join-planner prefilters before the posting map.
    blooms: Vec<Bloom>,
}

impl RelStore {
    fn new(arity: usize) -> Self {
        RelStore {
            arena: Vec::new(),
            sorted: BTreeMap::new(),
            postings: vec![HashMap::new(); arity],
            delta: Vec::new(),
            blooms: vec![Bloom::new(); arity],
        }
    }

    fn tuple(&self, id: TupleId) -> &[Value] {
        self.arena[id as usize].as_ref().expect("live tuple id")
    }

    fn insert(&mut self, tuple: Vec<Value>) -> bool {
        if self.sorted.contains_key(tuple.as_slice()) {
            return false;
        }
        let tuple: Tuple = tuple.into();
        let id = TupleId::try_from(self.arena.len()).expect("tuple arena overflow");
        let arena = &self.arena;
        let by_tuple = |probe: &TupleId| **arena[*probe as usize].as_ref().expect("live") < *tuple;
        for (pos, map) in self.postings.iter_mut().enumerate() {
            let list = map.entry(tuple[pos]).or_default();
            let at = list.partition_point(by_tuple);
            list.insert(at, id);
        }
        for (pos, bloom) in self.blooms.iter_mut().enumerate() {
            bloom.add(tuple[pos]);
        }
        let at = self.delta.partition_point(by_tuple);
        self.delta.insert(at, id);
        self.sorted.insert(Arc::clone(&tuple), id);
        self.arena.push(Some(tuple));
        true
    }

    fn remove(&mut self, tuple: &[Value]) -> bool {
        let Some(id) = self.sorted.remove(tuple) else {
            return false;
        };
        self.unpost(id, tuple);
        self.delta.retain(|&t| t != id);
        self.arena[id as usize] = None;
        true
    }

    /// Take tuple `id`, whose values are `tuple`, out of the postings
    /// and blooms.
    fn unpost(&mut self, id: TupleId, tuple: &[Value]) {
        for (pos, map) in self.postings.iter_mut().enumerate() {
            if let Some(list) = map.get_mut(&tuple[pos]) {
                list.retain(|&t| t != id);
                if list.is_empty() {
                    map.remove(&tuple[pos]);
                }
            }
        }
        for (pos, bloom) in self.blooms.iter_mut().enumerate() {
            bloom.sub(tuple[pos]);
        }
    }

    /// A copy of the relation with its nulls renamed through `rho` (see
    /// [`FactStore::rename_nulls`]), and the ids of the tuples it drops.
    ///
    /// Only what `rho` moves is rewritten. A tuple `rho` fixes keeps its
    /// allocation; a tuple with a moved null gets a new one. Postings and
    /// blooms start as copies of the old ones: the posting entries of
    /// moved nulls are re-keyed whole (all lifted out before any goes
    /// back, since a null may move onto the old id of another moved
    /// null), dropped ids leave their lists, and bloom counters change
    /// only for changed values. `rho` is strictly increasing, so every
    /// list keeps its order.
    fn rename_nulls(&self, rho: &impl Fn(NullId) -> Option<NullId>) -> (RelStore, Vec<TupleId>) {
        let mut out = RelStore {
            arena: vec![None; self.arena.len()],
            sorted: BTreeMap::new(),
            postings: self.postings.clone(),
            delta: Vec::new(),
            blooms: self.blooms.clone(),
        };
        let mut sorted: Vec<(Tuple, TupleId)> = Vec::with_capacity(self.sorted.len());
        // Per position: the nulls whose posting entries are re-keyed.
        let mut moved: Vec<Vec<NullId>> = vec![Vec::new(); self.postings.len()];
        let mut dropped = Vec::new();
        'tuples: for (t, &id) in &self.sorted {
            let mut fixed = true;
            for &v in t.iter() {
                let Value::Null(n) = v else { continue };
                match rho(n) {
                    None => {
                        dropped.push(id);
                        continue 'tuples;
                    }
                    Some(m) => fixed &= m == n,
                }
            }
            let t: Tuple = if fixed {
                Arc::clone(t)
            } else {
                let renamed: Tuple = t
                    .iter()
                    .map(|&v| match v {
                        Value::Null(n) => Value::Null(rho(n).expect("checked live")),
                        c => c,
                    })
                    .collect();
                for (pos, (&old, &new)) in t.iter().zip(renamed.iter()).enumerate() {
                    if old != new {
                        out.blooms[pos].sub(old);
                        out.blooms[pos].add(new);
                        if let Value::Null(n) = old {
                            moved[pos].push(n);
                        }
                    }
                }
                renamed
            };
            out.arena[id as usize] = Some(Arc::clone(&t));
            sorted.push((t, id));
        }
        debug_assert!(
            sorted.windows(2).all(|w| w[0].0 < w[1].0),
            "a null renaming must be strictly increasing"
        );
        out.sorted = sorted.into_iter().collect();
        for &id in &dropped {
            out.unpost(id, self.tuple(id));
        }
        for (pos, nulls) in moved.iter_mut().enumerate() {
            nulls.sort_unstable();
            nulls.dedup();
            let map = &mut out.postings[pos];
            let lifted: Vec<(NullId, Vec<TupleId>)> = nulls
                .iter()
                .filter_map(|&n| map.remove(&Value::Null(n)).map(|list| (n, list)))
                .collect();
            for (n, list) in lifted {
                let m = rho(n).expect("a moved null is live");
                let clash = map.insert(Value::Null(m), list);
                debug_assert!(clash.is_none(), "a null renaming must be injective");
            }
        }
        (out, dropped)
    }
}

/// Does `tuple` hold no null?
fn is_ground(tuple: &[Value]) -> bool {
    tuple.iter().all(|v| v.is_const())
}

/// Cached derived value, invalidated by the store generation.
type Cached<T> = Mutex<Option<(u64, Arc<T>)>>;

/// Incremental tuple storage for all relations of one schema (see the
/// module docs for the invariants).
///
/// The store knows only relation *arities*; names and `RelId` resolution
/// stay in [`crate::Schema`]. Relations are addressed by index.
#[derive(Debug, Default)]
pub struct FactStore {
    rels: Vec<RelStore>,
    generation: u64,
    adom_cache: Cached<BTreeSet<Value>>,
    nulls_cache: Cached<BTreeSet<NullId>>,
    fp_cache: Cached<String>,
}

impl Clone for FactStore {
    fn clone(&self) -> Self {
        FactStore {
            rels: self.rels.clone(),
            generation: self.generation,
            adom_cache: Mutex::new(self.adom_cache.lock().expect("cache lock").clone()),
            nulls_cache: Mutex::new(self.nulls_cache.lock().expect("cache lock").clone()),
            fp_cache: Mutex::new(self.fp_cache.lock().expect("cache lock").clone()),
        }
    }
}

impl PartialEq for FactStore {
    /// Equality is *fact-set* equality: tuple ids, postings, deltas and
    /// generations are evaluation state, not part of the value.
    fn eq(&self, other: &Self) -> bool {
        self.rels.len() == other.rels.len()
            && self.rels.iter().zip(&other.rels).all(|(a, b)| {
                a.sorted.len() == b.sorted.len() && a.sorted.keys().eq(b.sorted.keys())
            })
    }
}

impl Eq for FactStore {}

impl FactStore {
    /// Empty store for relations with the given arities.
    pub fn new(arities: &[usize]) -> Self {
        FactStore {
            rels: arities.iter().map(|&a| RelStore::new(a)).collect(),
            generation: 0,
            adom_cache: Mutex::new(None),
            nulls_cache: Mutex::new(None),
            fp_cache: Mutex::new(None),
        }
    }

    /// Monotone counter, bumped on every successful insert or remove.
    /// Lets derived-value caches (active domain, nulls) detect staleness.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Insert `tuple` into relation `rel`; returns `true` when new.
    /// The caller (i.e. [`crate::Instance`]) is responsible for arity
    /// checking.
    pub fn insert(&mut self, rel: usize, tuple: Vec<Value>) -> bool {
        let ground = is_ground(&tuple);
        let added = self.rels[rel].insert(tuple);
        if added {
            self.bump(ground);
        }
        added
    }

    /// Remove `tuple` from relation `rel`; returns whether it was present.
    ///
    /// A successful removal bumps the generation. A removed tuple also
    /// leaves the per-round delta, which means "inserted since
    /// `begin_round`" and feeds semi-naive *trigger enumeration*, where
    /// a removed tuple can never be part of a new match.
    pub fn remove(&mut self, rel: usize, tuple: &[Value]) -> bool {
        let removed = self.rels[rel].remove(tuple);
        if removed {
            self.bump(is_ground(tuple));
        }
        removed
    }

    /// Advance the generation after a mutation. A ground tuple leaves
    /// the set of nulls as it was, so a null-set cache that was current
    /// stays current: a ground update keeps `nulls()` (and so every
    /// fresh-null floor) free of a whole-store scan.
    fn bump(&mut self, ground: bool) {
        let before = self.generation;
        self.generation += 1;
        if ground {
            let cache = self.nulls_cache.get_mut().expect("cache lock");
            if let Some((gen, _)) = cache.as_mut().filter(|(gen, _)| *gen == before) {
                *gen = self.generation;
            }
        }
    }

    /// Does relation `rel` contain `tuple`?
    pub fn contains(&self, rel: usize, tuple: &[Value]) -> bool {
        self.rels[rel].sorted.contains_key(tuple)
    }

    /// The tuples of relation `rel` in canonical (lexicographic) order.
    pub fn tuples(&self, rel: usize) -> impl Iterator<Item = &[Value]> + '_ {
        self.rels[rel].sorted.keys().map(|t| &**t)
    }

    /// Number of tuples in relation `rel`.
    pub fn rel_len(&self, rel: usize) -> usize {
        self.rels[rel].sorted.len()
    }

    /// Number of relations.
    pub fn num_rels(&self) -> usize {
        self.rels.len()
    }

    /// Total number of tuples.
    pub fn len(&self) -> usize {
        self.rels.iter().map(|r| r.sorted.len()).sum()
    }

    /// True when no relation has tuples.
    pub fn is_empty(&self) -> bool {
        self.rels.iter().all(|r| r.sorted.is_empty())
    }

    /// The tuple behind an id from a posting or delta list.
    pub fn tuple(&self, rel: usize, id: TupleId) -> &[Value] {
        self.rels[rel].tuple(id)
    }

    /// Arity of relation `rel` (the number of posting positions).
    pub fn arity(&self, rel: usize) -> usize {
        self.rels[rel].postings.len()
    }

    /// The distinct values occurring at `(rel, pos)`, from the posting
    /// map's key set. Iteration order is unspecified (hash order) —
    /// consumers must be order-insensitive, like the existence-of-a-
    /// refutation scan in `qi_schema::hom::hom_refuted_quick`.
    pub fn position_values(&self, rel: usize, pos: usize) -> impl Iterator<Item = Value> + '_ {
        self.rels[rel].postings[pos].keys().copied()
    }

    /// Number of distinct values occurring at `(rel, pos)` — the posting
    /// map's key count, O(1). The join planner divides a relation's
    /// cardinality by this to estimate the expected posting-list size of
    /// a join position bound by an earlier atom.
    pub fn position_distinct(&self, rel: usize, pos: usize) -> usize {
        self.rels[rel].postings[pos].len()
    }

    /// The posting list of `(rel, pos, value)`: ids of the tuples whose
    /// `pos`-th component is `value`, sorted by tuple order (so walking a
    /// posting list visits tuples in the same order a filtered relation
    /// scan would).
    pub fn posting(&self, rel: usize, pos: usize, value: Value) -> &[TupleId] {
        self.rels[rel].postings[pos]
            .get(&value)
            .map(|l| l.as_slice())
            .unwrap_or(&[])
    }

    /// Start a new round: clear every relation's delta. Facts inserted
    /// after this call form the next delta.
    pub fn begin_round(&mut self) {
        for r in &mut self.rels {
            r.delta.clear();
        }
    }

    /// Ids of relation `rel`'s tuples inserted since the last
    /// [`begin_round`](FactStore::begin_round), sorted by tuple order.
    pub fn delta_ids(&self, rel: usize) -> &[TupleId] {
        &self.rels[rel].delta
    }

    /// Total delta size across relations.
    pub fn delta_len(&self) -> usize {
        self.rels.iter().map(|r| r.delta.len()).sum()
    }

    /// A copy of the store with every null renamed through `rho`, and
    /// the ids of the tuples the copy drops: those that mention a null
    /// `rho` leaves unmapped. Every other tuple keeps its [`TupleId`], so
    /// id-keyed side tables stay valid across the rename.
    ///
    /// `rho` must be strictly increasing on the nulls it maps. Values
    /// order constants before nulls and nulls by id, so such a renaming
    /// keeps the canonical tuple order and the order of every posting
    /// list. The copy rewrites only what `rho` moves: a tuple whose
    /// nulls `rho` fixes shares its allocation with `self`. The copy
    /// starts a fresh round (empty delta).
    pub fn rename_nulls(
        &self,
        rho: impl Fn(NullId) -> Option<NullId>,
    ) -> (FactStore, Vec<(usize, TupleId)>) {
        let mut dropped = Vec::new();
        let rels = self
            .rels
            .iter()
            .enumerate()
            .map(|(rel, r)| {
                let (out, gone) = r.rename_nulls(&rho);
                dropped.extend(gone.into_iter().map(|id| (rel, id)));
                out
            })
            .collect();
        let store = FactStore {
            rels,
            ..FactStore::default()
        };
        (store, dropped)
    }

    /// The id of `tuple` in relation `rel`, if present.
    pub fn tuple_id(&self, rel: usize, tuple: &[Value]) -> Option<TupleId> {
        self.rels[rel].sorted.get(tuple).copied()
    }

    /// The tuple behind `id` in relation `rel`, or `None` when that id
    /// was removed (or never issued).
    pub fn live_tuple(&self, rel: usize, id: TupleId) -> Option<&[Value]> {
        self.rels[rel].arena.get(id as usize)?.as_deref()
    }

    /// Probe the counting bloom filter at `(rel, pos)`: `false` means
    /// `value` *certainly* does not occur at that position (exact
    /// negative); `true` means "maybe" and the posting list decides.
    pub fn bloom_admits(&self, rel: usize, pos: usize, value: Value) -> bool {
        self.rels[rel].blooms[pos].maybe_contains(value)
    }

    /// The set of values occurring in the store, cached until the
    /// generation changes. It is read off the posting maps' key sets,
    /// which hold exactly the values of live tuples, so no tuple is
    /// scanned.
    pub fn active_domain(&self) -> Arc<BTreeSet<Value>> {
        let mut cache = self.adom_cache.lock().expect("cache lock");
        if let Some((gen, ref set)) = *cache {
            if gen == self.generation {
                return Arc::clone(set);
            }
        }
        let mut set = BTreeSet::new();
        for map in self.rels.iter().flat_map(|r| &r.postings) {
            set.extend(map.keys().copied());
        }
        let set = Arc::new(set);
        *cache = Some((self.generation, Arc::clone(&set)));
        set
    }

    /// The set of nulls occurring in the store, cached until the
    /// generation changes.
    pub fn nulls(&self) -> Arc<BTreeSet<NullId>> {
        let mut cache = self.nulls_cache.lock().expect("cache lock");
        if let Some((gen, ref set)) = *cache {
            if gen == self.generation {
                return Arc::clone(set);
            }
        }
        let set: Arc<BTreeSet<NullId>> = Arc::new(
            self.active_domain()
                .iter()
                .filter_map(|v| match v {
                    Value::Null(n) => Some(*n),
                    Value::Const(_) => None,
                })
                .collect(),
        );
        *cache = Some((self.generation, Arc::clone(&set)));
        set
    }

    /// A canonical fingerprint of the fact set, cached until the
    /// generation changes. This is the hom-cache key
    /// (`qi_schema::HomCache`).
    ///
    /// Nulls are renamed by first occurrence over the canonical fact
    /// order, the renamed tuples re-sorted, and the rename+sort repeated
    /// once (a refinement round that normalizes the common case where
    /// renaming reorders tuples); the result is rendered per relation
    /// with interned-constant indices. The rename is a bijection on
    /// nulls, so **equal fingerprints imply isomorphic fact sets** —
    /// a fingerprint-keyed cache can never conflate inequivalent
    /// instances. The converse does not hold: isomorphic stores whose
    /// null order resists one refinement round render differently, which
    /// costs a consumer a cache miss, never a wrong answer.
    pub fn fingerprint(&self) -> Arc<String> {
        let mut cache = self.fp_cache.lock().expect("cache lock");
        if let Some((gen, ref fp)) = *cache {
            if gen == self.generation {
                return Arc::clone(fp);
            }
        }
        let fp = Arc::new(self.render_fingerprint());
        *cache = Some((self.generation, Arc::clone(&fp)));
        fp
    }

    fn render_fingerprint(&self) -> String {
        use std::fmt::Write;
        let mut rels: Vec<Vec<Vec<Value>>> = self
            .rels
            .iter()
            .map(|r| r.sorted.keys().map(|t| t.to_vec()).collect())
            .collect();
        for _ in 0..2 {
            let mut map: HashMap<NullId, NullId> = HashMap::new();
            for tuples in &mut rels {
                for t in tuples.iter_mut() {
                    for v in t.iter_mut() {
                        if let Value::Null(n) = *v {
                            let fresh = NullId(map.len() as u64);
                            *v = Value::Null(*map.entry(n).or_insert(fresh));
                        }
                    }
                }
            }
            for tuples in &mut rels {
                // Renaming is injective, so sorting cannot merge tuples.
                tuples.sort();
            }
        }
        let mut out = String::new();
        for (rel, tuples) in rels.iter().enumerate() {
            let _ = write!(out, "r{rel}#{}:", self.arity(rel));
            for t in tuples {
                out.push('(');
                for v in t {
                    match v {
                        Value::Const(c) => {
                            let _ = write!(out, "c{},", c.index());
                        }
                        Value::Null(n) => {
                            let _ = write!(out, "~{},", n.0);
                        }
                    }
                }
                out.push(')');
            }
            out.push(';');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(name: &str) -> Value {
        Value::constant(name)
    }

    #[test]
    fn insert_dedup_and_canonical_order() {
        let mut s = FactStore::new(&[2]);
        assert!(s.insert(0, vec![v("b"), v("x")]));
        assert!(s.insert(0, vec![v("a"), v("y")]));
        assert!(!s.insert(0, vec![v("a"), v("y")]));
        let tuples: Vec<&[Value]> = s.tuples(0).collect();
        assert_eq!(tuples, [&vec![v("a"), v("y")], &vec![v("b"), v("x")]]);
        assert_eq!(s.rel_len(0), 2);
    }

    #[test]
    fn postings_track_inserts_in_tuple_order() {
        let mut s = FactStore::new(&[2]);
        s.insert(0, vec![v("b"), v("m")]);
        s.insert(0, vec![v("a"), v("m")]);
        s.insert(0, vec![v("c"), v("n")]);
        let at_m: Vec<&[Value]> = s
            .posting(0, 1, v("m"))
            .iter()
            .map(|&id| s.tuple(0, id))
            .collect();
        // Posting order equals a filtered scan of the canonical order.
        assert_eq!(at_m, [&vec![v("a"), v("m")], &vec![v("b"), v("m")]]);
        assert!(s.posting(0, 1, v("zzz")).is_empty());
    }

    #[test]
    fn remove_purges_postings_and_delta() {
        let mut s = FactStore::new(&[1]);
        s.insert(0, vec![v("a")]);
        s.insert(0, vec![v("b")]);
        assert!(s.remove(0, &[v("a")]));
        assert!(!s.remove(0, &[v("a")]));
        assert!(s.posting(0, 0, v("a")).is_empty());
        assert_eq!(s.delta_ids(0).len(), 1);
        assert!(!s.contains(0, &[v("a")]));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn delta_tracks_rounds() {
        let mut s = FactStore::new(&[1]);
        s.insert(0, vec![v("a")]);
        assert_eq!(s.delta_len(), 1);
        s.begin_round();
        assert_eq!(s.delta_len(), 0);
        s.insert(0, vec![v("b")]);
        s.insert(0, vec![v("a")]); // duplicate: not part of the delta
        assert_eq!(s.delta_len(), 1);
        assert_eq!(s.tuple(0, s.delta_ids(0)[0]), &vec![v("b")]);
    }

    #[test]
    fn generation_ticks_and_caches_invalidate() {
        let mut s = FactStore::new(&[1]);
        let g0 = s.generation();
        assert!(s.active_domain().is_empty());
        s.insert(0, vec![v("a")]);
        assert!(s.generation() > g0);
        assert_eq!(s.active_domain().len(), 1);
        // A cache hit returns the same Arc.
        assert!(Arc::ptr_eq(&s.active_domain(), &s.active_domain()));
        s.insert(0, vec![Value::null(3)]);
        assert_eq!(s.active_domain().len(), 2);
        assert_eq!(s.nulls().iter().map(|n| n.0).collect::<Vec<_>>(), [3]);
        s.remove(0, &[Value::null(3)]);
        assert!(s.nulls().is_empty());
    }

    #[test]
    fn rename_nulls_keeps_order_postings_and_blooms() {
        let n = |i| Value::null(i);
        let mut s = FactStore::new(&[2]);
        s.insert(0, vec![v("a"), n(5)]);
        s.insert(0, vec![n(3), v("b")]);
        s.insert(0, vec![n(4), n(3)]);
        s.insert(0, vec![n(7), v("a")]);
        // 3 → 10, 4 dropped, 5 → 11, 7 → 12: strictly increasing.
        let (r, dropped) = s.rename_nulls(|id| match id.0 {
            3 => Some(NullId(10)),
            5 => Some(NullId(11)),
            7 => Some(NullId(12)),
            _ => None,
        });
        let tuples: Vec<&[Value]> = r.tuples(0).collect();
        assert_eq!(
            tuples,
            [
                &vec![v("a"), n(11)],
                &vec![n(10), v("b")],
                &vec![n(12), v("a")]
            ]
        );
        // Postings follow tuple order; blooms and caches see new ids.
        let at_a: Vec<&[Value]> = r
            .posting(0, 1, v("a"))
            .iter()
            .map(|&id| r.tuple(0, id))
            .collect();
        assert_eq!(at_a, [&vec![n(12), v("a")]]);
        assert!(r.bloom_admits(0, 0, n(10)));
        assert!(!r.bloom_admits(0, 0, n(3)));
        // Ids survive; the dropped tuple's id is dead.
        let id = s.tuple_id(0, &[n(3), v("b")]).unwrap();
        assert_eq!(r.live_tuple(0, id), Some(&[n(10), v("b")][..]));
        assert_eq!(r.tuple_id(0, &[n(10), v("b")]), Some(id));
        let gone = s.tuple_id(0, &[n(4), n(3)]).unwrap();
        assert_eq!(r.live_tuple(0, gone), None);
        assert_eq!(dropped, [(0, gone)]);
        assert_eq!(r.delta_len(), 0);
        let mut fresh = FactStore::new(&[2]);
        for t in [[v("a"), n(11)], [n(10), v("b")], [n(12), v("a")]] {
            fresh.insert(0, t.to_vec());
        }
        assert_eq!(r, fresh);
        assert_eq!(r.fingerprint(), fresh.fingerprint());
    }

    /// The allocation behind tuple `id` of relation `rel`.
    fn shared(s: &FactStore, rel: usize, id: TupleId) -> &Tuple {
        s.rels[rel].arena[id as usize].as_ref().expect("live")
    }

    #[test]
    fn clones_and_renames_share_the_tuples_they_keep() {
        let n = |i| Value::null(i);
        let mut s = FactStore::new(&[2]);
        s.insert(0, vec![v("a"), v("b")]); // constants only
        s.insert(0, vec![v("a"), n(2)]); // ρ fixes ~2
        s.insert(0, vec![n(3), v("b")]); // ρ moves ~3
        s.insert(0, vec![n(2), n(4)]); // ρ drops ~4
        let ids: Vec<TupleId> = s.tuples(0).map(|t| s.tuple_id(0, t).unwrap()).collect();
        // A clone copies pointers: every tuple shares its allocation, and
        // the canonical index points at the arena's allocation.
        let c = s.clone();
        for &id in &ids {
            assert!(Arc::ptr_eq(shared(&c, 0, id), shared(&s, 0, id)));
        }
        for (t, &id) in &c.rels[0].sorted {
            assert!(Arc::ptr_eq(t, shared(&c, 0, id)));
        }
        let (r, dropped) = s.rename_nulls(|id| match id.0 {
            2 => Some(NullId(2)),
            3 => Some(NullId(5)),
            _ => None,
        });
        let id = |t: &[Value]| s.tuple_id(0, t).unwrap();
        assert_eq!(dropped, [(0, id(&[n(2), n(4)]))]);
        for fixed in [&[v("a"), v("b")][..], &[v("a"), n(2)]] {
            assert!(Arc::ptr_eq(
                shared(&r, 0, id(fixed)),
                shared(&s, 0, id(fixed))
            ));
        }
        let moved = id(&[n(3), v("b")]);
        assert!(!Arc::ptr_eq(shared(&r, 0, moved), shared(&s, 0, moved)));
        assert_eq!(r.live_tuple(0, moved), Some(&[n(5), v("b")][..]));
        for (t, &id) in &r.rels[0].sorted {
            assert!(Arc::ptr_eq(t, shared(&r, 0, id)));
        }
    }

    #[test]
    fn bloom_negatives_are_exact_and_survive_removal() {
        // Nulls have history-independent filter slots (their bloom key
        // is the null id, not an interner index), so the *negative*
        // assertions below are deterministic; nulls 1, 2, 3, 7 land in
        // pairwise-disjoint slots.
        let n = |i| Value::null(i);
        let mut s = FactStore::new(&[2]);
        s.insert(0, vec![n(1), n(3)]);
        s.insert(0, vec![n(2), n(3)]);
        // Present values are always admitted (no false negatives).
        assert!(s.bloom_admits(0, 0, n(1)));
        assert!(s.bloom_admits(0, 1, n(3)));
        // Removal decrements: a value whose last occurrence is gone is
        // rejected again (counting filter, not a plain bitset).
        s.remove(0, &[n(1), n(3)]);
        assert!(!s.bloom_admits(0, 0, n(1)));
        assert!(s.bloom_admits(0, 1, n(3))); // still carried by (~2,~3)
        s.remove(0, &[n(2), n(3)]);
        assert!(!s.bloom_admits(0, 1, n(3)));
        // A never-inserted value is rejected outright.
        assert!(!s.bloom_admits(0, 0, n(7)));
    }

    #[test]
    fn equality_ignores_evaluation_state() {
        let mut a = FactStore::new(&[1]);
        let mut b = FactStore::new(&[1]);
        // Different insertion orders, different generations, different
        // deltas — equal fact sets.
        a.insert(0, vec![v("x")]);
        a.insert(0, vec![v("y")]);
        b.insert(0, vec![v("y")]);
        b.begin_round();
        b.insert(0, vec![v("x")]);
        b.insert(0, vec![v("z")]);
        b.remove(0, &[v("z")]);
        assert_eq!(a, b);
        b.remove(0, &[v("x")]);
        assert_ne!(a, b);
    }
}
