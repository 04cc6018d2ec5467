//! Homomorphisms and a reusable backtracking pattern matcher.
//!
//! A *homomorphism* `h : Const ∪ Var → Const ∪ Var` from instance `J` to
//! instance `J'` fixes every constant and maps every fact of `J` to a fact
//! of `J'` (§2 of the paper). Finding one is a constraint-satisfaction
//! problem whose variables are the nulls of `J`.
//!
//! The same search also answers every other matching question in this
//! reproduction — chase-trigger enumeration (homomorphisms from a tgd
//! premise into an instance), the `Constant(x)` and `x ≠ x'` side
//! conditions of Definition 6.2, and injective matching for isomorphism
//! tests — so it is exposed generically: a [`Pattern`] is a conjunction of
//! [`PatFact`]s over match variables, a [`MatchConstraints`] bundle carries
//! the side conditions, and [`MatchEngine`] enumerates satisfying
//! [`Assignment`]s against a target [`Instance`].
//!
//! The search picks, at every step, the pattern fact with the fewest
//! consistent candidate tuples (fail-first). Candidate lookup uses the
//! target's incrementally-maintained per-`(relation, position)` posting
//! lists ([`crate::FactStore`]) whenever some position of the pattern
//! fact is bound; posting lists are kept in canonical tuple order, so the
//! indexed enumeration is byte-identical to a filtered relation scan.
//! An engine can additionally be restricted to one *delta atom*
//! ([`MatchEngine::with_delta_atom`]): that pattern fact then draws its
//! candidates from the facts inserted since the target's last
//! `begin_round()`, which is what semi-naive chase rounds use to
//! enumerate only triggers touching at least one new fact.

use crate::instance::Instance;
use crate::plan::{
    build_prefilter, plan_pattern, planning_enabled, JoinPlan, Prefilter, StaticCosts,
};
use crate::schema::RelId;
use crate::store::TupleId;
use crate::value::{NullId, Value};
use std::cell::{Cell, OnceCell};
use std::collections::BTreeMap;

/// Index of a match variable within a [`Pattern`].
pub type VarIdx = u32;

/// A term of a pattern fact: a fixed value or a match variable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PatTerm {
    /// A concrete value that candidate tuples must equal position-wise.
    Value(Value),
    /// A match variable to be assigned by the search.
    Var(VarIdx),
}

/// One atom of a pattern: a relation and a vector of pattern terms.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PatFact {
    /// Relation the candidate tuples are drawn from.
    pub rel: RelId,
    /// Terms; length must match the relation's arity.
    pub args: Vec<PatTerm>,
}

/// A conjunction of pattern facts over variables `0..nvars`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Pattern {
    /// The atoms to match simultaneously.
    pub facts: Vec<PatFact>,
    /// Number of match variables.
    pub nvars: usize,
}

impl Pattern {
    /// Pattern with no atoms (matched by the empty assignment).
    pub fn empty(nvars: usize) -> Self {
        Pattern {
            facts: Vec::new(),
            nvars,
        }
    }

    /// Turn an instance into a pattern by replacing each null with a match
    /// variable. Returns the pattern and the nulls in variable order, so
    /// `vars[i]` is the null represented by variable `i`.
    pub fn from_instance(instance: &Instance) -> (Pattern, Vec<NullId>) {
        let nulls: Vec<NullId> = instance.nulls().iter().copied().collect();
        let index: BTreeMap<NullId, VarIdx> = nulls
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i as VarIdx))
            .collect();
        let facts = instance
            .facts()
            .map(|f| PatFact {
                rel: f.rel,
                args: f
                    .args
                    .iter()
                    .map(|&v| match v {
                        Value::Null(n) => PatTerm::Var(index[&n]),
                        c => PatTerm::Value(c),
                    })
                    .collect(),
            })
            .collect();
        (
            Pattern {
                facts,
                nvars: nulls.len(),
            },
            nulls,
        )
    }
}

/// Side conditions on a match.
#[derive(Clone, Default, Debug)]
pub struct MatchConstraints {
    /// Pre-assignments `var ↦ value` (used to fix shared variables).
    pub fixed: Vec<(VarIdx, Value)>,
    /// Pairs that must receive distinct values (`x ≠ x'` of Def 2.1).
    pub distinct: Vec<(VarIdx, VarIdx)>,
    /// Variables that must be assigned constants (`Constant(x)`).
    pub constants_only: Vec<VarIdx>,
    /// Variables that must be assigned nulls (isomorphism search).
    pub nulls_only: Vec<VarIdx>,
    /// Require all variables to take pairwise-distinct values
    /// (isomorphism search).
    pub injective: bool,
    /// Values no variable may take. The retraction-based core search uses
    /// this to ask for an endomorphism whose image avoids a given null
    /// (applying such a map eliminates the null from the instance).
    pub forbidden_values: Vec<Value>,
}

/// A (possibly partial) assignment of match variables to values.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Assignment {
    slots: Vec<Option<Value>>,
}

impl Assignment {
    fn new(nvars: usize) -> Self {
        Assignment {
            slots: vec![None; nvars],
        }
    }

    /// The value assigned to `var`, if any.
    pub fn get(&self, var: VarIdx) -> Option<Value> {
        self.slots[var as usize]
    }

    /// The value assigned to `var`; panics when unassigned (use only on
    /// complete assignments delivered by the engine).
    pub fn value(&self, var: VarIdx) -> Value {
        self.slots[var as usize].expect("variable unassigned in complete match")
    }

    /// All assigned values in variable order (complete assignments only).
    pub fn values(&self) -> impl Iterator<Item = Value> + '_ {
        self.slots.iter().map(|s| s.expect("incomplete assignment"))
    }
}

/// Counters describing one engine's index and planner usage.
///
/// Engines are frequently constructed as throwaways deep inside chase
/// loops (head-satisfaction checks, egd repair, disjunct probes); callers
/// drain these into `ExecStats`-style totals at their merge points so
/// `--stats` stays honest across engine rebuilds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatchCounters {
    /// Candidate queries served from a store posting list.
    pub postings_reused: u64,
    /// Candidate queries that scanned a whole relation.
    pub postings_rebuilt: u64,
    /// Searches executed in a planned join order.
    pub plans_applied: u64,
    /// Bindings pruned by the forward-checking prefilter (including
    /// whole patterns refuted by an absent constant).
    pub prefilter_hits: u64,
    /// Prefilter prunes answered by a bloom-filter negative alone
    /// (exact: the value certainly misses, no posting probe needed).
    pub bloom_hits: u64,
    /// Bloom "maybe"s the posting probe then refuted — the filter's
    /// false positives (each cost one extra bloom probe).
    pub bloom_false_positives: u64,
}

impl MatchCounters {
    /// Sum another engine's counters into this bundle.
    pub fn merge(&mut self, other: &MatchCounters) {
        self.postings_reused += other.postings_reused;
        self.postings_rebuilt += other.postings_rebuilt;
        self.plans_applied += other.plans_applied;
        self.prefilter_hits += other.prefilter_hits;
        self.bloom_hits += other.bloom_hits;
        self.bloom_false_positives += other.bloom_false_positives;
    }
}

/// Backtracking matcher of a [`Pattern`] against an [`Instance`].
pub struct MatchEngine<'a> {
    pattern: &'a Pattern,
    target: &'a Instance,
    constraints: &'a MatchConstraints,
    /// When set, this pattern fact draws candidates from the target's
    /// current delta instead of the whole relation (semi-naive rounds).
    delta_atom: Option<usize>,
    /// Cost-based planning (join reordering on the order-insensitive
    /// entry points + prefilters everywhere); captured from
    /// [`crate::plan::planning_enabled`] at construction.
    planned: bool,
    /// Static cardinality fallback for planning against a cold store.
    static_costs: Option<&'a StaticCosts>,
    /// The greedy join plan, computed on first planned use.
    plan: OnceCell<JoinPlan>,
    /// Per-variable occurrence lists for the forward-checking prefilter,
    /// computed on first planned use.
    prefilter: OnceCell<Prefilter>,
    /// Candidate queries served from a posting list.
    postings_reused: Cell<u64>,
    /// Candidate queries that had to scan a whole relation (no position
    /// bound, so no posting list applies).
    postings_rebuilt: Cell<u64>,
    /// Searches executed in planned order.
    plans_applied: Cell<u64>,
    /// Bindings pruned by the prefilter.
    prefilter_hits: Cell<u64>,
    /// Prefilter prunes decided by a bloom negative alone.
    bloom_hits: Cell<u64>,
    /// Bloom "maybe"s the posting probe then refuted.
    bloom_false_positives: Cell<u64>,
    /// Forward checks performed so far, for the self-disable probation.
    prefilter_checks: Cell<u64>,
}

/// Forward checks a planned engine performs before concluding the
/// prefilter never prunes on this workload and switching it off. Each
/// check is a posting lookup per occurrence of the bound variable, so
/// on join shapes where every binding survives (dense shared domains)
/// an unbounded filter is pure per-binding overhead.
const PREFILTER_PROBATION: u64 = 8;

impl<'a> MatchEngine<'a> {
    /// Create a matcher; validates nothing (arity mismatches simply never
    /// match, since candidate tuples have the relation's arity).
    pub fn new(
        pattern: &'a Pattern,
        target: &'a Instance,
        constraints: &'a MatchConstraints,
    ) -> Self {
        MatchEngine {
            pattern,
            target,
            constraints,
            delta_atom: None,
            planned: planning_enabled(),
            static_costs: None,
            plan: OnceCell::new(),
            prefilter: OnceCell::new(),
            postings_reused: Cell::new(0),
            postings_rebuilt: Cell::new(0),
            plans_applied: Cell::new(0),
            prefilter_hits: Cell::new(0),
            bloom_hits: Cell::new(0),
            bloom_false_positives: Cell::new(0),
            prefilter_checks: Cell::new(0),
        }
    }

    /// Restrict pattern fact `atom` (an index into `pattern.facts`) to
    /// candidates from the target's per-round delta. Matches found by
    /// this engine then all touch at least one delta fact at that atom.
    pub fn with_delta_atom(mut self, atom: Option<usize>) -> Self {
        self.delta_atom = atom;
        self
    }

    /// Override the process-wide planning mode for this engine (the
    /// plan-invariance oracle compares both settings; parallel fan-out
    /// propagates the parent engine's mode to its private workers).
    pub fn with_planning(mut self, planned: bool) -> Self {
        self.planned = planned;
        self
    }

    /// Static per-relation cardinalities used when planning against an
    /// empty store (offline plan inspection).
    pub fn with_static_costs(mut self, costs: Option<&'a StaticCosts>) -> Self {
        self.static_costs = costs;
        self
    }

    /// Index-usage counters: `(postings_reused, postings_rebuilt)` —
    /// candidate queries served by a store posting list vs. full
    /// relation scans (no position bound).
    pub fn posting_counters(&self) -> (u64, u64) {
        (self.postings_reused.get(), self.postings_rebuilt.get())
    }

    /// All of this engine's counters as one bundle (postings, planned
    /// searches, prefilter prunes). Chase layers drain these into their
    /// `ExecStats` totals whenever a throwaway engine dies.
    pub fn counters(&self) -> MatchCounters {
        MatchCounters {
            postings_reused: self.postings_reused.get(),
            postings_rebuilt: self.postings_rebuilt.get(),
            plans_applied: self.plans_applied.get(),
            prefilter_hits: self.prefilter_hits.get(),
            bloom_hits: self.bloom_hits.get(),
            bloom_false_positives: self.bloom_false_positives.get(),
        }
    }

    /// Sum a private worker engine's counters into this engine.
    fn absorb_counters(&self, c: &MatchCounters) {
        self.postings_reused
            .set(self.postings_reused.get() + c.postings_reused);
        self.postings_rebuilt
            .set(self.postings_rebuilt.get() + c.postings_rebuilt);
        self.plans_applied
            .set(self.plans_applied.get() + c.plans_applied);
        self.prefilter_hits
            .set(self.prefilter_hits.get() + c.prefilter_hits);
        self.bloom_hits.set(self.bloom_hits.get() + c.bloom_hits);
        self.bloom_false_positives
            .set(self.bloom_false_positives.get() + c.bloom_false_positives);
    }

    /// The greedy join plan when planning is enabled, bumping the
    /// planned-search counter; `None` in source-order mode. Patterns
    /// with fewer than two atoms have no ordering choice, so the plan
    /// is skipped outright — existence probes against substituted
    /// single-atom heads stay as cheap as before planning existed.
    fn active_plan(&self) -> Option<&JoinPlan> {
        if !self.planned || self.pattern.facts.len() < 2 {
            return None;
        }
        let plan = self.plan.get_or_init(|| {
            let mut prebound = vec![false; self.pattern.nvars];
            for &(var, _) in &self.constraints.fixed {
                if let Some(slot) = prebound.get_mut(var as usize) {
                    *slot = true;
                }
            }
            plan_pattern(
                self.pattern,
                self.target.store(),
                self.static_costs,
                self.delta_atom,
                &prebound,
            )
        });
        self.plans_applied.set(self.plans_applied.get() + 1);
        Some(plan)
    }

    /// Constant prefilter: `false` when some atom can never match — an
    /// arity mismatch, or a constant term absent from its
    /// `(relation, position)` posting map — so the whole pattern has no
    /// matches and the search can be skipped. Refutation-sound, hence
    /// emission-transparent on every entry point.
    fn viable(&self) -> bool {
        // A single-atom search is itself one posting probe, so a
        // pre-check would only duplicate the lookups — existence probes
        // against substituted heads stay single-probe cheap.
        if self.pattern.facts.len() < 2 {
            return true;
        }
        let store = self.target.store();
        for fact in &self.pattern.facts {
            if self.target.schema().arity(fact.rel) != fact.args.len() {
                return false;
            }
            let rel = fact.rel.index();
            for (pos, term) in fact.args.iter().enumerate() {
                if let PatTerm::Value(v) = *term {
                    // Bloom first: an exact negative prunes without
                    // touching the posting map; a "maybe" falls through
                    // to the posting probe, which stays the decider.
                    if !store.bloom_admits(rel, pos, v) {
                        self.bloom_hits.set(self.bloom_hits.get() + 1);
                        self.prefilter_hits.set(self.prefilter_hits.get() + 1);
                        return false;
                    }
                    if store.posting(rel, pos, v).is_empty() {
                        self.bloom_false_positives
                            .set(self.bloom_false_positives.get() + 1);
                        self.prefilter_hits.set(self.prefilter_hits.get() + 1);
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Forward check for `var ↦ value`: every *yet-unmatched* atom where
    /// `var` occurs must have `value` in its `(relation, position)`
    /// posting map, or no complete match extends this binding. Pruned
    /// branches contain no matches, so the sequence of emitted matches
    /// is unchanged — safe on the ordered enumeration paths too.
    fn prefilter_admits(&self, var: VarIdx, value: Value, remaining: &[usize]) -> bool {
        if !self.planned {
            return true;
        }
        // Probation: once the filter has run PREFILTER_PROBATION checks
        // without pruning anything, it never fires on this search either
        // (dense shared domains) — stop paying the posting lookups.
        // Admitting is always refutation-sound, so the match sequence is
        // untouched; the engine is sequential, so the cut-off point is
        // deterministic and independent of thread count.
        let checks = self.prefilter_checks.get();
        if checks >= PREFILTER_PROBATION && self.prefilter_hits.get() == 0 {
            return true;
        }
        self.prefilter_checks.set(checks + 1);
        let prefilter = self
            .prefilter
            .get_or_init(|| build_prefilter(self.pattern, self.target.store()));
        let store = self.target.store();
        for &(atom, rel, pos) in &prefilter.occurrences[var as usize] {
            if !remaining.contains(&atom) {
                continue;
            }
            if !store.bloom_admits(rel, pos, value) {
                self.bloom_hits.set(self.bloom_hits.get() + 1);
                self.prefilter_hits.set(self.prefilter_hits.get() + 1);
                return false;
            }
            if store.posting(rel, pos, value).is_empty() {
                self.bloom_false_positives
                    .set(self.bloom_false_positives.get() + 1);
                self.prefilter_hits.set(self.prefilter_hits.get() + 1);
                return false;
            }
        }
        true
    }

    /// Does any complete match exist?
    ///
    /// When the pattern splits into independent connected components
    /// (facts linked by shared unfixed variables — see
    /// [`MatchEngine::count_matches`] for the contract), each component
    /// is solved separately: a match of the whole pattern exists iff
    /// every component has one, so the backtracking never crosses the
    /// product space. Large decompositions fan out through `qi-exec`;
    /// the answer is a conjunction of per-component booleans and thus
    /// independent of scheduling.
    pub fn exists(&self) -> bool {
        if let Some(comps) = self.decomposition() {
            return self.exists_decomposed(&comps);
        }
        if self.planned && !self.viable() {
            return false;
        }
        let Some(mut assignment) = self.base_assignment() else {
            return false;
        };
        let mut remaining: Vec<usize> = (0..self.pattern.facts.len()).collect();
        let mut found = false;
        self.search(
            &mut assignment,
            &mut remaining,
            self.active_plan(),
            &mut |_| {
                found = true;
                false
            },
        );
        found
    }

    /// The first complete match in deterministic order, if any.
    pub fn first(&self) -> Option<Assignment> {
        let mut out = None;
        self.for_each(|a| {
            out = Some(a.clone());
            false
        });
        out
    }

    /// All complete matches.
    pub fn all(&self) -> Vec<Assignment> {
        let mut out = Vec::new();
        self.for_each(|a| {
            out.push(a.clone());
            true
        });
        out
    }

    /// All complete matches in *unspecified* order: with planning
    /// enabled the search runs the planned join order, so the emission
    /// sequence generally differs from [`MatchEngine::all`] (the match
    /// *set* is identical). Only callers that own a canonical commit
    /// barrier may use this — e.g. the target chase pours the results
    /// into a `BTreeSet` before any firing order is derived. Never use
    /// it where emission order reaches a rendered artifact (fresh-null
    /// numbering follows the ordered entry points).
    pub fn all_unordered(&self) -> Vec<Assignment> {
        if !self.planned {
            return self.all();
        }
        if !self.viable() {
            return Vec::new();
        }
        let Some(mut assignment) = self.base_assignment() else {
            return Vec::new();
        };
        let mut remaining: Vec<usize> = (0..self.pattern.facts.len()).collect();
        let mut out = Vec::new();
        self.search(
            &mut assignment,
            &mut remaining,
            self.active_plan(),
            &mut |a| {
                out.push(a.clone());
                true
            },
        );
        out
    }

    /// Enumerate matches; the callback returns `false` to stop early.
    ///
    /// Enumeration order is part of the determinism contract (chase
    /// fresh-null assignment follows it), so this path never decomposes:
    /// only the order-insensitive entry points ([`MatchEngine::exists`],
    /// [`MatchEngine::count_matches`], [`MatchEngine::any_match`]) do.
    pub fn for_each(&self, mut f: impl FnMut(&Assignment) -> bool) {
        if self.planned && !self.viable() {
            // The constant prefilter is refutation-sound: a non-viable
            // pattern has no matches, so skipping the search emits the
            // same (empty) sequence.
            return;
        }
        let Some(mut assignment) = self.base_assignment() else {
            return;
        };
        let mut remaining: Vec<usize> = (0..self.pattern.facts.len()).collect();
        self.search(&mut assignment, &mut remaining, None, &mut f);
    }

    /// Apply the `fixed` pre-assignments, checking the unary and binary
    /// constraints they trigger; `None` when they are contradictory (no
    /// match can exist).
    fn base_assignment(&self) -> Option<Assignment> {
        let mut assignment = Assignment::new(self.pattern.nvars);
        for &(var, value) in &self.constraints.fixed {
            match assignment.slots[var as usize] {
                Some(existing) if existing != value => return None,
                _ => {}
            }
            if !self.value_ok(var, value, &assignment) {
                return None;
            }
            assignment.slots[var as usize] = Some(value);
        }
        Some(assignment)
    }

    /// Check unary constraints and binary constraints against the current
    /// assignment for `var ↦ value`.
    fn value_ok(&self, var: VarIdx, value: Value, assignment: &Assignment) -> bool {
        if self.constraints.forbidden_values.contains(&value) {
            return false;
        }
        if self.constraints.constants_only.contains(&var) && !value.is_const() {
            return false;
        }
        if self.constraints.nulls_only.contains(&var) && !value.is_null() {
            return false;
        }
        for &(a, b) in &self.constraints.distinct {
            if a == b && a == var {
                // A reflexive pair `x ≠ x` is unsatisfiable; without this
                // arm the generic check below compares the candidate value
                // against the same (still unassigned) slot and lets it
                // through — found by the brute-force differential oracle.
                return false;
            }
            let other = if a == var {
                b
            } else if b == var {
                a
            } else {
                continue;
            };
            if assignment.get(other) == Some(value) {
                return false;
            }
        }
        if self.constraints.injective {
            for (i, slot) in assignment.slots.iter().enumerate() {
                if i as VarIdx != var && *slot == Some(value) {
                    return false;
                }
            }
        }
        true
    }

    /// Does `tuple` agree with `fact` under `assignment` (fixed terms,
    /// bound variables, repeated variables within the fact)?
    fn tuple_consistent(fact: &PatFact, assignment: &Assignment, tuple: &[Value]) -> bool {
        if tuple.len() != fact.args.len() {
            return false;
        }
        let mut local: Vec<(VarIdx, Value)> = Vec::new();
        for (term, &v) in fact.args.iter().zip(tuple.iter()) {
            match *term {
                PatTerm::Value(fixed) => {
                    if fixed != v {
                        return false;
                    }
                }
                PatTerm::Var(var) => {
                    if let Some(bound) = assignment.get(var) {
                        if bound != v {
                            return false;
                        }
                    } else if let Some(&(_, prev)) = local.iter().find(|(lv, _)| *lv == var) {
                        if prev != v {
                            return false;
                        }
                    } else {
                        local.push((var, v));
                    }
                }
            }
        }
        true
    }

    /// Candidate tuples of pattern fact `fact_idx` consistent with
    /// `assignment`, capped at `cap` (for fail-first counting). Consults
    /// the store's incrementally-maintained posting lists whenever some
    /// position is bound; posting lists are in canonical tuple order, so
    /// the result (set *and* order) equals a filtered scan of the
    /// relation. Falls back to scanning only when no position is bound.
    fn candidates(&self, fact_idx: usize, assignment: &Assignment, cap: usize) -> Vec<&'a [Value]> {
        let fact = &self.pattern.facts[fact_idx];
        let store = self.target.store();
        let rel = fact.rel.index();
        let mut out = Vec::new();
        if self.target.schema().arity(fact.rel) != fact.args.len() {
            // Arity-mismatched pattern facts never match (and have no
            // valid posting position to consult).
            return out;
        }
        if self.delta_atom == Some(fact_idx) {
            // Semi-naive restriction: candidates come from the facts
            // inserted since the target's last `begin_round()`.
            for &id in store.delta_ids(rel) {
                let tuple = store.tuple(rel, id);
                if Self::tuple_consistent(fact, assignment, tuple) {
                    out.push(tuple);
                    if out.len() >= cap {
                        break;
                    }
                }
            }
            return out;
        }
        // Narrowest posting list among the bound positions.
        let mut best: Option<&'a [TupleId]> = None;
        for (pos, term) in fact.args.iter().enumerate() {
            let bound = match *term {
                PatTerm::Value(v) => Some(v),
                PatTerm::Var(var) => assignment.get(var),
            };
            if let Some(v) = bound {
                let list = store.posting(rel, pos, v);
                if best.is_none_or(|b: &[_]| list.len() < b.len()) {
                    best = Some(list);
                }
            }
        }
        match best {
            Some(list) => {
                self.postings_reused.set(self.postings_reused.get() + 1);
                for &id in list {
                    let tuple = store.tuple(rel, id);
                    if Self::tuple_consistent(fact, assignment, tuple) {
                        out.push(tuple);
                        if out.len() >= cap {
                            break;
                        }
                    }
                }
            }
            None => {
                self.postings_rebuilt.set(self.postings_rebuilt.get() + 1);
                for tuple in self.target.tuples(fact.rel) {
                    if Self::tuple_consistent(fact, assignment, tuple) {
                        out.push(tuple);
                        if out.len() >= cap {
                            break;
                        }
                    }
                }
            }
        }
        out
    }

    fn search(
        &self,
        assignment: &mut Assignment,
        remaining: &mut Vec<usize>,
        order: Option<&JoinPlan>,
        f: &mut impl FnMut(&Assignment) -> bool,
    ) -> bool {
        let picked = match order {
            // Planned order: the remaining fact earliest in the plan —
            // no per-node candidate counting, the planner paid that once.
            Some(plan) => self.pick_planned(remaining, plan),
            None => self.pick(remaining, assignment),
        };
        let Some(pick_pos) = picked else {
            // All facts matched: assignment restricted to pattern vars may
            // still have unassigned vars (vars not occurring in any fact);
            // leave them unassigned only if truly absent — callers building
            // patterns from formulas guarantee every var occurs. For safety
            // we refuse matches with unassigned variables that carry
            // constraints.
            return f(assignment);
        };
        let fact_idx = remaining[pick_pos];
        remaining.swap_remove(pick_pos);
        let fact = &self.pattern.facts[fact_idx];
        let cands = self.candidates(fact_idx, assignment, usize::MAX);
        for tuple in cands {
            // Extend the assignment; record which vars we newly bind.
            let mut newly: Vec<VarIdx> = Vec::new();
            let mut ok = true;
            for (term, &v) in fact.args.iter().zip(tuple.iter()) {
                if let PatTerm::Var(var) = *term {
                    match assignment.get(var) {
                        Some(_) => {}
                        None => {
                            if !self.value_ok(var, v, assignment)
                                || !self.prefilter_admits(var, v, remaining)
                            {
                                ok = false;
                                break;
                            }
                            assignment.slots[var as usize] = Some(v);
                            newly.push(var);
                        }
                    }
                }
            }
            if ok && !self.search(assignment, remaining, order, f) {
                for var in newly {
                    assignment.slots[var as usize] = None;
                }
                remaining.push(fact_idx);
                let last = remaining.len() - 1;
                remaining.swap(pick_pos.min(last), last);
                return false;
            }
            for var in newly {
                assignment.slots[var as usize] = None;
            }
        }
        remaining.push(fact_idx);
        let last = remaining.len() - 1;
        remaining.swap(pick_pos.min(last), last);
        true
    }

    /// Fail-first heuristic: pick the remaining fact with the fewest
    /// candidates (counted up to a small cap to bound the cost).
    fn pick(&self, remaining: &[usize], assignment: &Assignment) -> Option<usize> {
        const COUNT_CAP: usize = 8;
        let mut best: Option<(usize, usize)> = None;
        for (pos, &idx) in remaining.iter().enumerate() {
            let n = self.candidates(idx, assignment, COUNT_CAP).len();
            match best {
                Some((_, bn)) if bn <= n => {}
                _ => best = Some((pos, n)),
            }
            if n == 0 {
                break;
            }
        }
        best.map(|(pos, _)| pos)
    }

    /// Static pick under a [`JoinPlan`]: the remaining fact with the
    /// lowest plan rank (`min_by_key` keeps the first minimum, so the
    /// choice is deterministic).
    fn pick_planned(&self, remaining: &[usize], plan: &JoinPlan) -> Option<usize> {
        remaining
            .iter()
            .enumerate()
            .min_by_key(|&(_, &idx)| plan.rank[idx])
            .map(|(pos, _)| pos)
    }

    /// Split the pattern facts into connected components: facts linked by
    /// a shared *unfixed* variable end up in one component (a `fixed`
    /// variable is pre-assigned by [`MatchEngine::base_assignment`], so
    /// it does not couple the facts mentioning it). Returns `None` when
    /// decomposition does not apply: fewer than two components, a
    /// delta-restricted atom, `injective` matching (a global constraint),
    /// or a `distinct` pair whose two unfixed variables live in different
    /// components (independent searches could not see each other's
    /// choices). Components and the facts within them are ordered by
    /// first fact index, so the split is deterministic.
    fn decomposition(&self) -> Option<Vec<Vec<usize>>> {
        let nfacts = self.pattern.facts.len();
        if nfacts < 2 || self.delta_atom.is_some() || self.constraints.injective {
            return None;
        }
        let nvars = self.pattern.nvars;
        let mut is_fixed = vec![false; nvars];
        for &(var, _) in &self.constraints.fixed {
            is_fixed[var as usize] = true;
        }
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let mut parent: Vec<usize> = (0..nfacts).collect();
        // First fact mentioning each unfixed variable; later mentions
        // union their fact into that fact's component.
        let mut var_home: Vec<Option<usize>> = vec![None; nvars];
        for (i, fact) in self.pattern.facts.iter().enumerate() {
            for term in &fact.args {
                if let PatTerm::Var(var) = *term {
                    let v = var as usize;
                    if is_fixed[v] {
                        continue;
                    }
                    match var_home[v] {
                        None => var_home[v] = Some(i),
                        Some(home) => {
                            let (ri, rj) = (find(&mut parent, i), find(&mut parent, home));
                            if ri != rj {
                                parent[ri.max(rj)] = ri.min(rj);
                            }
                        }
                    }
                }
            }
        }
        let mut comp_of_root: Vec<Option<usize>> = vec![None; nfacts];
        let mut comps: Vec<Vec<usize>> = Vec::new();
        let mut fact_comp = vec![0usize; nfacts];
        for (i, fc) in fact_comp.iter_mut().enumerate() {
            let root = find(&mut parent, i);
            let c = *comp_of_root[root].get_or_insert_with(|| {
                comps.push(Vec::new());
                comps.len() - 1
            });
            comps[c].push(i);
            *fc = c;
        }
        if comps.len() < 2 {
            return None;
        }
        let comp_of_var = |var: VarIdx| -> Option<usize> {
            let v = var as usize;
            if v >= nvars || is_fixed[v] {
                return None;
            }
            var_home[v].map(|home| fact_comp[home])
        };
        for &(a, b) in &self.constraints.distinct {
            if a == b {
                continue; // reflexive x ≠ x: value_ok rejects it anywhere
            }
            if let (Some(ca), Some(cb)) = (comp_of_var(a), comp_of_var(b)) {
                if ca != cb {
                    return None;
                }
            }
        }
        Some(comps)
    }

    /// Existence check for one component: the backtracking search
    /// restricted to the component's facts, starting from `base`.
    fn component_exists(&self, base: &Assignment, comp: &[usize]) -> bool {
        if self.planned && !self.viable() {
            return false;
        }
        let mut assignment = base.clone();
        let mut remaining = comp.to_vec();
        let mut found = false;
        self.search(
            &mut assignment,
            &mut remaining,
            self.active_plan(),
            &mut |_| {
                found = true;
                false
            },
        );
        found
    }

    fn exists_decomposed(&self, comps: &[Vec<usize>]) -> bool {
        let Some(base) = self.base_assignment() else {
            return false;
        };
        if self.parallel_worthwhile(comps) {
            // The engine itself is not `Sync` (posting counters are
            // `Cell`s), so each worker builds a private engine over the
            // shared pattern/target/constraints — inheriting this
            // engine's planning mode — and reports its counters back;
            // summation order follows component order.
            let (pattern, target, constraints) = (self.pattern, self.target, self.constraints);
            let (planned, statics) = (self.planned, self.static_costs);
            let results = qi_exec::par_map(qi_exec::Parallelism::auto(), comps, |comp| {
                let engine = MatchEngine::new(pattern, target, constraints)
                    .with_planning(planned)
                    .with_static_costs(statics);
                let ok = engine.component_exists(&base, comp);
                (ok, engine.counters())
            });
            let mut all_ok = true;
            for (ok, counters) in results {
                all_ok &= ok;
                self.absorb_counters(&counters);
            }
            all_ok
        } else {
            comps.iter().all(|comp| self.component_exists(&base, comp))
        }
    }

    /// Fan components out through the deterministic executor only when
    /// there is enough work to amortize thread startup; the tiny hom
    /// checks dominating verification loops stay inline (where the
    /// sequential short-circuit across components also applies).
    fn parallel_worthwhile(&self, comps: &[Vec<usize>]) -> bool {
        const PAR_FACTS_MIN: usize = 8;
        comps.len() >= 2
            && self.pattern.facts.len() >= PAR_FACTS_MIN
            && qi_exec::Parallelism::auto().resolve() > 1
    }

    /// Number of complete matches.
    ///
    /// Over a decomposable pattern this multiplies per-component match
    /// counts — every complete match is exactly one independent choice
    /// of match per component, so the product equals the length of
    /// [`MatchEngine::all`] without materializing the cross product.
    /// Saturates at `u64::MAX`.
    pub fn count_matches(&self) -> u64 {
        let Some(comps) = self.decomposition() else {
            // The count is order-insensitive, so the planned atom order
            // is safe here even though `for_each` is not.
            if self.planned && !self.viable() {
                return 0;
            }
            let Some(mut assignment) = self.base_assignment() else {
                return 0;
            };
            let mut remaining: Vec<usize> = (0..self.pattern.facts.len()).collect();
            let mut n: u64 = 0;
            self.search(
                &mut assignment,
                &mut remaining,
                self.active_plan(),
                &mut |_| {
                    n = n.saturating_add(1);
                    true
                },
            );
            return n;
        };
        let Some(base) = self.base_assignment() else {
            return 0;
        };
        let mut total: u64 = 1;
        for comp in &comps {
            let mut n: u64 = 0;
            let mut assignment = base.clone();
            let mut remaining = comp.clone();
            self.search(
                &mut assignment,
                &mut remaining,
                self.active_plan(),
                &mut |_| {
                    n = n.saturating_add(1);
                    true
                },
            );
            total = total.saturating_mul(n);
            if total == 0 {
                return 0;
            }
        }
        total
    }

    /// Some complete match, or `None` when there is none. Unlike
    /// [`MatchEngine::first`] the result is not necessarily the first
    /// match in enumeration order: over a decomposable pattern it is
    /// assembled from the first match of each component independently
    /// (still fully deterministic — per-component enumeration order is
    /// fixed). The retraction-based core ([`crate::core_of()`]) uses
    /// this: any endomorphism avoiding a null folds it, and solving
    /// components independently sidesteps the product-space backtrack.
    pub fn any_match(&self) -> Option<Assignment> {
        let Some(comps) = self.decomposition() else {
            return self.first();
        };
        let mut merged = self.base_assignment()?;
        for comp in &comps {
            let mut remaining = comp.clone();
            let mut snapshot: Option<Assignment> = None;
            // Dynamic (unplanned) order here: the *identity* of the match
            // feeds core folding, so the pick must stay byte-stable
            // regardless of planning mode.
            self.search(&mut merged, &mut remaining, None, &mut |a| {
                snapshot = Some(a.clone());
                false
            });
            // The early-exit unwinding restored `merged`; adopt the
            // snapshot so later components extend this component's match.
            merged = snapshot?;
        }
        Some(merged)
    }
}

/// Find a homomorphism from `a` to `b` (constants fixed, nulls free).
///
/// Returns the null mapping when one exists. Instances over different
/// schemas never admit a homomorphism here (relation ids are matched
/// positionally), mirroring the paper where both instances are over the
/// target schema.
pub fn find_hom(a: &Instance, b: &Instance) -> Option<BTreeMap<NullId, Value>> {
    if hom_refuted_quick(a, b) {
        return None;
    }
    let (pattern, vars) = Pattern::from_instance(a);
    let constraints = MatchConstraints::default();
    let engine = MatchEngine::new(&pattern, b, &constraints);
    engine.first().map(|assignment| {
        vars.iter()
            .enumerate()
            .map(|(i, &n)| (n, assignment.value(i as VarIdx)))
            .collect()
    })
}

/// Refutation-sound fast rejection for `has_hom(a, b)`: `true` means *no*
/// homomorphism `a → b` can exist; `false` means "unknown, run the
/// search". Three filters, each a direct consequence of homomorphisms
/// fixing constants and mapping facts position-wise:
///
/// * a relation with facts in `a` but none in `b` (or a different arity
///   in `b`) leaves those facts nothing to map to;
/// * a constant occurring at `(relation, position)` in `a` must occur at
///   the same `(relation, position)` in `b` — the image tuple carries the
///   constant unchanged at that position — checked against `b`'s posting
///   lists in O(1) per constant;
/// * a fully ground fact of `a` is its own image, so it must be present
///   in `b` verbatim.
///
/// None of the filters can refute a pair that admits a homomorphism, so
/// wiring them in front of the search never changes an answer.
pub fn hom_refuted_quick(a: &Instance, b: &Instance) -> bool {
    let sa = a.store();
    let sb = b.store();
    if sa.num_rels() != sb.num_rels() {
        return false; // positional mismatch: let the engine decide
    }
    for rel in 0..sa.num_rels() {
        if sa.rel_len(rel) == 0 {
            continue;
        }
        if sb.rel_len(rel) == 0 || sa.arity(rel) != sb.arity(rel) {
            return true;
        }
        for pos in 0..sa.arity(rel) {
            for value in sa.position_values(rel, pos) {
                if value.is_const() && sb.posting(rel, pos, value).is_empty() {
                    return true;
                }
            }
        }
        for tuple in sa.tuples(rel) {
            if tuple.iter().all(|v| v.is_const()) && !sb.contains(rel, tuple) {
                return true;
            }
        }
    }
    false
}

/// Does a homomorphism from `a` to `b` exist?
pub fn has_hom(a: &Instance, b: &Instance) -> bool {
    if hom_refuted_quick(a, b) {
        return false;
    }
    let (pattern, _) = Pattern::from_instance(a);
    let constraints = MatchConstraints::default();
    MatchEngine::new(&pattern, b, &constraints).exists()
}

/// Are `a` and `b` homomorphically equivalent (§2)?
pub fn hom_equivalent(a: &Instance, b: &Instance) -> bool {
    has_hom(a, b) && has_hom(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn inst(schema: &Schema, text: &str) -> Instance {
        Instance::parse(schema, text).unwrap()
    }

    #[test]
    fn ground_hom_is_containment() {
        let s = Schema::parse("P/2").unwrap();
        let a = inst(&s, "P(a,b)");
        let b = inst(&s, "P(a,b) P(b,c)");
        assert!(has_hom(&a, &b));
        assert!(!has_hom(&b, &a));
    }

    #[test]
    fn nulls_map_freely() {
        let s = Schema::parse("P/2").unwrap();
        let a = inst(&s, "P(a,N1)");
        let b = inst(&s, "P(a,b)");
        assert!(has_hom(&a, &b));
        assert!(!has_hom(&b, &a)); // constants are fixed
        let h = find_hom(&a, &b).unwrap();
        assert_eq!(h[&NullId(1)], Value::constant("b"));
    }

    #[test]
    fn repeated_null_consistency() {
        let s = Schema::parse("P/2").unwrap();
        let a = inst(&s, "P(N1,N1)");
        let b = inst(&s, "P(a,b)");
        let c = inst(&s, "P(c,c)");
        assert!(!has_hom(&a, &b));
        assert!(has_hom(&a, &c));
    }

    #[test]
    fn join_across_facts() {
        let s = Schema::parse("E/2").unwrap();
        let path2 = inst(&s, "E(N1,N2) E(N2,N3)");
        let edge_loop = inst(&s, "E(a,a)");
        let chain = inst(&s, "E(a,b) E(b,c)");
        let split = inst(&s, "E(a,b) E(c,d)");
        assert!(has_hom(&path2, &edge_loop));
        assert!(has_hom(&path2, &chain));
        assert!(!has_hom(&path2, &split));
    }

    #[test]
    fn hom_equivalence_of_paths_and_loops() {
        let s = Schema::parse("E/2").unwrap();
        // A null 2-cycle retracts onto... nothing smaller here, but it maps
        // into a constant loop and vice versa is false (constants fixed).
        let cyc = inst(&s, "E(N1,N2) E(N2,N1)");
        let lp = inst(&s, "E(a,a)");
        assert!(has_hom(&cyc, &lp));
        assert!(!hom_equivalent(&cyc, &lp));
        // Two isomorphic null chains are equivalent.
        let c1 = inst(&s, "E(N1,N2)");
        let c2 = inst(&s, "E(N7,N9)");
        assert!(hom_equivalent(&c1, &c2));
    }

    #[test]
    fn constraints_distinct_and_constant() {
        let s = Schema::parse("P/2").unwrap();
        let b = inst(&s, "P(a,a) P(a,N1)");
        let pattern = Pattern {
            facts: vec![PatFact {
                rel: s.rel("P").unwrap(),
                args: vec![PatTerm::Var(0), PatTerm::Var(1)],
            }],
            nvars: 2,
        };
        let all = MatchConstraints::default();
        assert_eq!(MatchEngine::new(&pattern, &b, &all).all().len(), 2);
        let distinct = MatchConstraints {
            distinct: vec![(0, 1)],
            ..Default::default()
        };
        assert_eq!(MatchEngine::new(&pattern, &b, &distinct).all().len(), 1);
        let consts = MatchConstraints {
            constants_only: vec![0, 1],
            ..Default::default()
        };
        assert_eq!(MatchEngine::new(&pattern, &b, &consts).all().len(), 1);
        let fixed = MatchConstraints {
            fixed: vec![(1, Value::null(1))],
            ..Default::default()
        };
        assert_eq!(MatchEngine::new(&pattern, &b, &fixed).all().len(), 1);
    }

    #[test]
    fn injective_matching() {
        let s = Schema::parse("P/2").unwrap();
        let b = inst(&s, "P(a,a)");
        let pattern = Pattern {
            facts: vec![PatFact {
                rel: s.rel("P").unwrap(),
                args: vec![PatTerm::Var(0), PatTerm::Var(1)],
            }],
            nvars: 2,
        };
        let inj = MatchConstraints {
            injective: true,
            ..Default::default()
        };
        assert!(MatchEngine::new(&pattern, &b, &inj).all().is_empty());
    }

    #[test]
    fn empty_pattern_matches_once() {
        let s = Schema::parse("P/2").unwrap();
        let b = inst(&s, "P(a,a)");
        let pattern = Pattern::empty(0);
        let c = MatchConstraints::default();
        assert_eq!(MatchEngine::new(&pattern, &b, &c).all().len(), 1);
    }

    #[test]
    fn engine_reuse_after_early_exit_is_stateless() {
        // `exists`/`first` stop the search mid-enumeration by returning
        // `false` from the callback; the unwinding at that early-exit
        // point must restore `assignment` and `remaining` exactly, so
        // repeated and partial enumerations on one engine instance all
        // agree with a fresh engine.
        let s = Schema::parse("E/2").unwrap();
        let mut text = String::new();
        for k in 0..20 {
            text.push_str(&format!("E(v{},v{}) ", k, k + 1));
        }
        let b = inst(&s, &text);
        let e = s.rel("E").unwrap();
        let pattern = Pattern {
            facts: vec![
                PatFact {
                    rel: e,
                    args: vec![PatTerm::Var(0), PatTerm::Var(1)],
                },
                PatFact {
                    rel: e,
                    args: vec![PatTerm::Var(1), PatTerm::Var(2)],
                },
            ],
            nvars: 3,
        };
        let c = MatchConstraints::default();
        let fresh = MatchEngine::new(&pattern, &b, &c).all();
        assert_eq!(fresh.len(), 19, "one match per interior vertex");

        let engine = MatchEngine::new(&pattern, &b, &c);
        assert!(engine.exists());
        assert_eq!(engine.first().as_ref(), fresh.first());
        // A partial enumeration stopped mid-stream is the general form of
        // the early exit; it must not perturb later full enumerations.
        let mut seen = 0;
        engine.for_each(|_| {
            seen += 1;
            seen < 5
        });
        assert_eq!(seen, 5);
        for _ in 0..6 {
            assert_eq!(engine.first().as_ref(), fresh.first());
        }
        assert_eq!(engine.all(), fresh);
        assert!(engine.exists());
    }

    #[test]
    fn delta_atom_restricts_one_fact_to_the_round_delta() {
        let s = Schema::parse("E/2").unwrap();
        let mut b = inst(&s, "E(a,b) E(b,c)");
        b.begin_round();
        b.insert_consts("E", &["c", "d"]).unwrap();
        let e = s.rel("E").unwrap();
        // E(x,y) & E(y,z): with atom 1 delta-restricted only joins whose
        // *second* atom is the new fact E(c,d) survive.
        let pattern = Pattern {
            facts: vec![
                PatFact {
                    rel: e,
                    args: vec![PatTerm::Var(0), PatTerm::Var(1)],
                },
                PatFact {
                    rel: e,
                    args: vec![PatTerm::Var(1), PatTerm::Var(2)],
                },
            ],
            nvars: 3,
        };
        let c = MatchConstraints::default();
        let full = MatchEngine::new(&pattern, &b, &c).all();
        assert_eq!(full.len(), 2); // (a,b,c) and (b,c,d)
        let engine = MatchEngine::new(&pattern, &b, &c).with_delta_atom(Some(1));
        let delta = engine.all();
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].value(0), Value::constant("b"));
        assert_eq!(delta[0].value(2), Value::constant("d"));
        // Atom 0 delta-restricted: only (c,d,?) joins, and none complete.
        let engine = MatchEngine::new(&pattern, &b, &c).with_delta_atom(Some(0));
        assert!(engine.all().is_empty());
        // After another begin_round the delta is empty: no matches at all.
        b.begin_round();
        let engine = MatchEngine::new(&pattern, &b, &c).with_delta_atom(Some(1));
        assert!(engine.all().is_empty());
    }

    #[test]
    fn posting_counters_track_index_usage() {
        let s = Schema::parse("E/2").unwrap();
        let b = inst(&s, "E(a,b) E(b,c) E(c,d)");
        let e = s.rel("E").unwrap();
        let pattern = Pattern {
            facts: vec![
                PatFact {
                    rel: e,
                    args: vec![PatTerm::Var(0), PatTerm::Var(1)],
                },
                PatFact {
                    rel: e,
                    args: vec![PatTerm::Var(1), PatTerm::Var(2)],
                },
            ],
            nvars: 3,
        };
        let c = MatchConstraints::default();
        let engine = MatchEngine::new(&pattern, &b, &c);
        assert_eq!(engine.posting_counters(), (0, 0));
        engine.all();
        let (reused, rebuilt) = engine.posting_counters();
        // The join step always has a bound position, so posting lists
        // serve it; only the unbound first atom pays a relation scan.
        assert!(reused > 0);
        assert!(rebuilt > 0);
    }

    #[test]
    fn decomposed_entry_points_agree_with_enumeration() {
        let s = Schema::parse("P/2 Q/2").unwrap();
        let b = inst(&s, "P(a,b) P(a,c) Q(d,d) Q(d,e)");
        let (p, q) = (s.rel("P").unwrap(), s.rel("Q").unwrap());
        // P(x0,x1) & Q(x2,x3): two independent components.
        let pattern = Pattern {
            facts: vec![
                PatFact {
                    rel: p,
                    args: vec![PatTerm::Var(0), PatTerm::Var(1)],
                },
                PatFact {
                    rel: q,
                    args: vec![PatTerm::Var(2), PatTerm::Var(3)],
                },
            ],
            nvars: 4,
        };
        let free = MatchConstraints::default();
        let engine = MatchEngine::new(&pattern, &b, &free);
        assert!(engine.exists());
        assert_eq!(engine.count_matches(), engine.all().len() as u64);
        assert_eq!(engine.count_matches(), 4, "2 P-matches × 2 Q-matches");
        // A fixed variable does not couple components.
        let fixed = MatchConstraints {
            fixed: vec![(1, Value::constant("c"))],
            ..Default::default()
        };
        let engine = MatchEngine::new(&pattern, &b, &fixed);
        assert_eq!(engine.count_matches(), engine.all().len() as u64);
        assert_eq!(engine.count_matches(), 2);
        // A cross-component distinct pair forces the monolithic path —
        // the counts must still agree.
        let cross = MatchConstraints {
            distinct: vec![(1, 2)],
            ..Default::default()
        };
        let engine = MatchEngine::new(&pattern, &b, &cross);
        assert_eq!(engine.count_matches(), engine.all().len() as u64);
        // No Q(x,x) with x = b or c exists, so pinning x2 = x3 = b kills
        // only the Q component; existence must see that.
        let dead = MatchConstraints {
            fixed: vec![(2, Value::constant("b")), (3, Value::constant("b"))],
            ..Default::default()
        };
        let engine = MatchEngine::new(&pattern, &b, &dead);
        assert!(!engine.exists());
        assert_eq!(engine.count_matches(), 0);
    }

    #[test]
    fn any_match_is_a_complete_valid_match() {
        let s = Schema::parse("P/2 Q/2").unwrap();
        let b = inst(&s, "P(a,b) Q(c,d)");
        let (p, q) = (s.rel("P").unwrap(), s.rel("Q").unwrap());
        let pattern = Pattern {
            facts: vec![
                PatFact {
                    rel: p,
                    args: vec![PatTerm::Var(0), PatTerm::Var(1)],
                },
                PatFact {
                    rel: q,
                    args: vec![PatTerm::Var(2), PatTerm::Var(3)],
                },
            ],
            nvars: 4,
        };
        let c = MatchConstraints::default();
        let m = MatchEngine::new(&pattern, &b, &c).any_match().unwrap();
        for fact in &pattern.facts {
            let tuple: Vec<Value> = fact
                .args
                .iter()
                .map(|t| match *t {
                    PatTerm::Value(v) => v,
                    PatTerm::Var(v) => m.value(v),
                })
                .collect();
            assert!(b.contains(fact.rel, &tuple), "any_match image must hold");
        }
        // Monolithic fallback (single component) delegates to `first`.
        let joined = Pattern {
            facts: vec![PatFact {
                rel: p,
                args: vec![PatTerm::Var(0), PatTerm::Var(1)],
            }],
            nvars: 2,
        };
        let engine = MatchEngine::new(&joined, &b, &c);
        assert_eq!(engine.any_match(), engine.first());
    }

    #[test]
    fn forbidden_values_exclude_assignments() {
        let s = Schema::parse("P/2").unwrap();
        let b = inst(&s, "P(a,b) P(a,c)");
        let pattern = Pattern {
            facts: vec![PatFact {
                rel: s.rel("P").unwrap(),
                args: vec![PatTerm::Var(0), PatTerm::Var(1)],
            }],
            nvars: 2,
        };
        let forbid_b = MatchConstraints {
            forbidden_values: vec![Value::constant("b")],
            ..Default::default()
        };
        assert_eq!(MatchEngine::new(&pattern, &b, &forbid_b).all().len(), 1);
        let forbid_a = MatchConstraints {
            forbidden_values: vec![Value::constant("a")],
            ..Default::default()
        };
        assert!(!MatchEngine::new(&pattern, &b, &forbid_a).exists());
        // A fixed value that is forbidden is contradictory.
        let contradictory = MatchConstraints {
            fixed: vec![(0, Value::constant("a"))],
            forbidden_values: vec![Value::constant("a")],
            ..Default::default()
        };
        assert!(!MatchEngine::new(&pattern, &b, &contradictory).exists());
    }

    #[test]
    fn prefilter_is_refutation_sound() {
        let s = Schema::parse("P/2 Q/1").unwrap();
        let pairs = [
            // (a, b, expected has_hom)
            ("P(a,N1)", "P(a,b)", true),
            ("P(a,b)", "P(a,N1)", false),     // ground fact missing
            ("P(b,N1)", "P(a,b)", false),     // constant profile at pos 0
            ("P(a,b) Q(c)", "P(a,b)", false), // relation empty in target
            ("P(N1,N1)", "P(a,b)", false),    // prefilter can't see this one
        ];
        for (x, y, expect) in pairs {
            let a = Instance::parse(&s, x).unwrap();
            let b = Instance::parse(&s, y).unwrap();
            assert_eq!(has_hom(&a, &b), expect, "{x} → {y}");
            if hom_refuted_quick(&a, &b) {
                assert!(!expect, "prefilter refuted a true pair: {x} → {y}");
            }
        }
    }

    #[test]
    fn conflicting_fixed_yields_nothing() {
        let s = Schema::parse("P/2").unwrap();
        let b = inst(&s, "P(a,a)");
        let pattern = Pattern::empty(1);
        let c = MatchConstraints {
            fixed: vec![(0, Value::constant("a")), (0, Value::constant("b"))],
            ..Default::default()
        };
        assert!(MatchEngine::new(&pattern, &b, &c).all().is_empty());
    }

    /// A two-atom join where the selective atom comes second in source
    /// order, so planning visibly changes the visit order.
    fn skewed_join(s: &Schema) -> (Instance, Pattern) {
        let mut text = String::from("Q(z,w)");
        for i in 0..12 {
            text.push_str(&format!(" P(c{i},z)"));
        }
        let b = inst(s, &text);
        let (p, q) = (s.rel("P").unwrap(), s.rel("Q").unwrap());
        let pattern = Pattern {
            facts: vec![
                PatFact {
                    rel: p,
                    args: vec![PatTerm::Var(0), PatTerm::Var(1)],
                },
                PatFact {
                    rel: q,
                    args: vec![PatTerm::Var(1), PatTerm::Var(2)],
                },
            ],
            nvars: 3,
        };
        (b, pattern)
    }

    #[test]
    fn planned_entry_points_agree_with_unplanned() {
        let s = Schema::parse("P/2 Q/2").unwrap();
        let (b, pattern) = skewed_join(&s);
        let c = MatchConstraints::default();
        let planned = MatchEngine::new(&pattern, &b, &c).with_planning(true);
        let unplanned = MatchEngine::new(&pattern, &b, &c).with_planning(false);
        assert_eq!(planned.exists(), unplanned.exists());
        assert_eq!(planned.count_matches(), unplanned.count_matches());
        assert_eq!(planned.any_match(), unplanned.any_match());
        // `all_unordered` may permute, but the match *set* is identical.
        let mut a1 = planned.all_unordered();
        let mut a2 = unplanned.all();
        let key = |a: &Assignment| {
            (0..pattern.nvars)
                .map(|v| format!("{:?}", a.slots[v]))
                .collect::<Vec<_>>()
        };
        a1.sort_by_key(|a| key(a));
        a2.sort_by_key(|a| key(a));
        assert_eq!(a1, a2);
        // Ordered enumeration ignores the plan entirely.
        assert_eq!(planned.all(), unplanned.all());
        assert!(planned.counters().plans_applied > 0, "plan was consulted");
    }

    #[test]
    fn planned_viability_rejects_empty_constant_postings() {
        let s = Schema::parse("P/2").unwrap();
        let b = inst(&s, "P(a,b)");
        let rel = s.rel("P").unwrap();
        // Two atoms (sub-2-atom patterns skip the pre-check: a 1-atom
        // search is already a single posting probe).
        let pattern = Pattern {
            facts: vec![
                PatFact {
                    rel,
                    args: vec![PatTerm::Var(0), PatTerm::Var(1)],
                },
                PatFact {
                    rel,
                    args: vec![PatTerm::Value(Value::constant("zz")), PatTerm::Var(0)],
                },
            ],
            nvars: 2,
        };
        let c = MatchConstraints::default();
        let e = MatchEngine::new(&pattern, &b, &c).with_planning(true);
        assert!(!e.exists());
        assert!(e.counters().prefilter_hits > 0, "viability prefilter fired");
    }

    #[test]
    fn counters_merge_and_absorb() {
        let mut a = MatchCounters {
            postings_reused: 1,
            postings_rebuilt: 2,
            plans_applied: 3,
            prefilter_hits: 4,
            bloom_hits: 5,
            bloom_false_positives: 6,
        };
        let b = MatchCounters {
            postings_reused: 10,
            postings_rebuilt: 20,
            plans_applied: 30,
            prefilter_hits: 40,
            bloom_hits: 50,
            bloom_false_positives: 60,
        };
        a.merge(&b);
        assert_eq!(
            (
                a.postings_reused,
                a.postings_rebuilt,
                a.plans_applied,
                a.prefilter_hits,
                a.bloom_hits,
                a.bloom_false_positives
            ),
            (11, 22, 33, 44, 55, 66)
        );
    }
}
