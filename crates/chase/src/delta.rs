//! Incremental chase maintenance: differential re-chase over a fact
//! [`Diff`] instead of a from-scratch run.
//!
//! # Contract
//!
//! `chase_delta(chase_incremental(I), Δ)` renders **byte-identically**
//! to `chase_incremental(I ± Δ)` — at every thread count, planned and
//! unplanned, and (when a budget trips) with a typed
//! [`ChaseError::Resource`] whose partial instance is a sound subset of
//! the uninterrupted result. Stats are *not* part of the contract: an
//! incremental run does less work and its counters say so.
//!
//! # How
//!
//! The s-t stage is **memoize enumeration, patch the base**: the
//! producing run records each tgd's full trigger enumeration
//! (`body_vals` in the engine's deterministic order) with each
//! trigger's fire/skip decision, plus the first producer of every s-t
//! output fact. On a delta, new triggers are enumerated with the
//! engine's delta-atom restriction (one body atom pinned to the newly
//! inserted facts) and slotted into the memoized stream by their
//! enumeration key — the substituted body-atom fact sequence, which
//! `MatchEngine::all` visits in lexicographic order — so the merged
//! stream is exactly the from-scratch stream on the updated source.
//! Old triggers that lost a body fact are dead. A surviving trigger
//! keeps its decision unless a *changed* fact — one whose first producer
//! moved earlier in the stream — unifies with one of its head atoms
//! under its body values; only fresh and such reached triggers re-take
//! the restricted check, against the base as it stands at their
//! position. So the s-t stage fires on the order of the diff, and the
//! new base is the previous one renamed and patched with the changed
//! facts.
//!
//! The new stream renumbers fresh nulls: a change early in trigger
//! order shifts every null minted after it. One counting pass over the
//! stream numbers them, and a trigger that fires in both runs maps its
//! old nulls to its new ones. That null renaming ρ is strictly
//! increasing on the nulls it maps; every other null is dead, and the
//! facts mentioning it are dropped as removed.
//!
//! The target stage is incremental only when it is **Datalog**: every
//! target tgd is existential-free and there are no egds. Then the
//! target fixpoint is the unique least fixpoint of a monotone operator
//! over the s-t output, so the *fact set* determines the render, and
//! that fixpoint commutes with injective renamings of nulls. The
//! previous solution is renamed through ρ in one pass
//! ([`Instance::rename_nulls`]), so **DRed** (delete/re-derive) sees
//! only the real change: over-delete every fact whose recorded
//! derivation transitively touches a removed fact, re-derive the
//! survivors from the remaining facts, then run the ordinary
//! semi-naive continuation seeded with the re-inserted and newly added
//! facts. Support edges (one recorded derivation per derived fact, plus
//! the reverse index) name facts by tuple id, which the rename keeps;
//! they are collected during eligible runs by
//! `crate::target::Rounds::run`. Settings with existential target tgds
//! or egds fall back to re-running the target stage from the patched
//! s-t output — still byte-identical, still skipping nothing observable.
//!
//! Finally, fingerprint-keyed [`HomCache`] entries mentioning a changed
//! relation are evicted (a freshness/memory policy — cached entries are
//! keyed by instance content, so eviction is never needed for
//! correctness).

use crate::error::ChaseError;
use crate::kernel::{
    absorb_match_counters, body_fact_keys, compile, fire_tgd, head_satisfied, instantiate, tripped,
    values_of, CompiledTgd, FactKey, Kernel, Scan, Trigger, TriggerLog,
};
use crate::standard::{run_st, ChaseOptions};
use crate::target::{
    ExchangeSetting, Rounds, TargetChaseOptions, TargetChaseResult, TargetChaseStats,
};
use qi_analyze::{DependencyGraph, TerminationCertificate};
use qi_exec::{ExecConfig, ExecStats};
use qi_schema::{
    Diff, Fact, HomCache, Instance, MatchConstraints, MatchEngine, NullId, PatFact, PatTerm, RelId,
    Schema, TupleId, Value,
};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// A fact of the solution store, addressed by relation index and
/// [`TupleId`]. Ids survive [`Instance::rename_nulls`], so support edges
/// stored by id never need renaming.
type FactId = (u32, TupleId);

/// The id of `key` in `solution` (it must be present).
fn fact_id(solution: &Instance, (rel, t): &FactKey) -> FactId {
    let id = solution
        .store()
        .tuple_id(*rel, t)
        .expect("support edges join facts of the solution");
    (*rel as u32, id)
}

/// One recorded derivation per derived target fact — the body facts of
/// the trigger that first inserted it — plus the reverse index from a
/// body fact to the facts recorded over it. This is the
/// (single-support) edge set DRed walks when base facts disappear; both
/// directions are kept in step on every record and forget, so a delta
/// never rebuilds the index. Facts are ids of the solution store the
/// log belongs to.
///
/// Bodies and dependent lists are shared, so a clone copies no list:
/// a body is replaced whole, and a dependent list is copied on its
/// first write.
#[derive(Clone, Debug, Default)]
pub struct SupportLog {
    /// derived fact → body facts of its recorded deriving trigger.
    derived: BTreeMap<FactId, Arc<[FactId]>>,
    /// body fact → derived facts whose recorded derivation uses it.
    dependents: BTreeMap<FactId, Arc<Vec<FactId>>>,
}

impl SupportLog {
    /// Number of derived facts with a recorded derivation.
    pub fn len(&self) -> usize {
        self.derived.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.derived.is_empty()
    }

    /// Record `body` as the derivation of `fact`, both facts of
    /// `solution`, replacing any earlier record.
    pub(crate) fn record(&mut self, solution: &Instance, fact: &FactKey, body: &[FactKey]) {
        let fact = fact_id(solution, fact);
        let body: Arc<[FactId]> = body.iter().map(|b| fact_id(solution, b)).collect();
        self.forget(fact);
        for &b in body.iter() {
            Arc::make_mut(self.dependents.entry(b).or_default()).push(fact);
        }
        self.derived.insert(fact, body);
    }

    /// Drop the record of `fact` (and its entries in the reverse index).
    fn forget(&mut self, fact: FactId) {
        let Some(body) = self.derived.remove(&fact) else {
            return;
        };
        for b in body.iter() {
            if let Some(ds) = self.dependents.get_mut(b) {
                let ds = Arc::make_mut(ds);
                ds.retain(|&d| d != fact);
                if ds.is_empty() {
                    self.dependents.remove(b);
                }
            }
        }
    }

    /// The derived facts whose recorded derivation uses `body_fact`.
    fn dependents(&self, body_fact: FactId) -> &[FactId] {
        self.dependents
            .get(&body_fact)
            .map_or(&[], |ds| ds.as_slice())
    }

    /// The log after its solution lost the facts `dropped`. Their
    /// records vanish with them. A kept fact whose recorded body lost a
    /// fact keeps the rest of its body and is returned as an
    /// over-deletion seed, in id order: its only recorded derivation is
    /// gone. The work is on the dropped facts and their neighbours only.
    fn without(&self, dropped: &[FactId]) -> (SupportLog, Vec<FactId>) {
        let mut log = self.clone();
        let mut seeds = Vec::new();
        for &f in dropped {
            log.forget(f);
            let Some(ds) = log.dependents.remove(&f) else {
                continue;
            };
            for &d in ds.iter() {
                if let Some(body) = log.derived.get_mut(&d) {
                    *body = body.iter().copied().filter(|&b| b != f).collect();
                    seeds.push(d);
                }
            }
        }
        seeds.sort_unstable();
        seeds.dedup();
        // A dependent dropped after it was trimmed is no seed.
        seeds.retain(|d| log.derived.contains_key(d));
        (log, seeds)
    }

    /// The log restricted to the facts `live` keeps, in one pass over
    /// both maps: the whole-log referee [`SupportLog::without`] is
    /// tested against.
    #[cfg(test)]
    fn restricted(&self, live: impl Fn(FactId) -> bool) -> (SupportLog, Vec<FactId>) {
        let mut seeds = Vec::new();
        let derived = self
            .derived
            .iter()
            .filter(|(&d, _)| live(d))
            .map(|(&d, body)| {
                let kept: Arc<[FactId]> = body.iter().copied().filter(|&b| live(b)).collect();
                if kept.len() < body.len() {
                    seeds.push(d);
                }
                (d, kept)
            })
            .collect();
        let dependents = self
            .dependents
            .iter()
            .filter(|(&b, _)| live(b))
            .filter_map(|(&b, ds)| {
                let ds: Vec<FactId> = ds.iter().copied().filter(|&d| live(d)).collect();
                (!ds.is_empty()).then(|| (b, Arc::new(ds)))
            })
            .collect();
        (
            SupportLog {
                derived,
                dependents,
            },
            seeds,
        )
    }
}

/// The null renaming ρ from a previous run's namespace into the new
/// one. A null of the previous source maps to itself while the new
/// source still holds it. A null minted by an s-t trigger that fires in
/// both runs maps to the null the same trigger mints in the new run.
/// Every other null is *dead*: the facts mentioning it are gone.
///
/// Surviving triggers keep their relative order in the merged trigger
/// stream and mint their nulls in that order, and source nulls stay
/// below every minted null, so ρ is strictly increasing on the nulls it
/// maps. That is what lets [`Instance::rename_nulls`] rename a store
/// without re-sorting it.
struct NullRenaming {
    /// Nulls below this id came from the previous source.
    old_floor: u64,
    /// The nulls of the new source (previous-source nulls survive iff
    /// they are here).
    source_nulls: Arc<BTreeSet<NullId>>,
    /// `minted[n - old_floor]`: the new id of the previously minted
    /// null `n`, once its trigger is known to fire again.
    minted: Vec<Option<u64>>,
}

impl NullRenaming {
    /// ρ with no minted null mapped yet: `span` nulls were minted from
    /// `old_floor` on.
    fn new(old_floor: u64, span: u64, source: &Instance) -> Self {
        NullRenaming {
            old_floor,
            source_nulls: source.nulls(),
            minted: vec![None; span as usize],
        }
    }

    /// Map the `count` nulls a trigger minted from `old` on to the ones
    /// it mints from `new` on.
    fn map_minted(&mut self, old: u64, new: u64, count: u64) {
        for i in 0..count {
            if let Some(slot) = self.minted.get_mut((old - self.old_floor + i) as usize) {
                *slot = Some(new + i);
            }
        }
    }

    fn null(&self, n: NullId) -> Option<NullId> {
        if n.0 < self.old_floor {
            return self.source_nulls.contains(&n).then_some(n);
        }
        self.minted
            .get((n.0 - self.old_floor) as usize)
            .copied()
            .flatten()
            .map(NullId)
    }
}

/// Options for [`chase_incremental`] / [`chase_delta`].
#[derive(Clone, Debug)]
pub struct DeltaChaseOptions {
    /// Per-request execution configuration: fan-out for trigger
    /// enumeration (commits stay sequential), planning mode for the
    /// match engines, and the cooperative resource budget — end-to-end
    /// across both stages.
    pub exec: ExecConfig,
    /// Record the memo (s-t trigger log and first producers + target
    /// support edges) that a later [`chase_delta`] needs. Off = plain chase; a subsequent
    /// `chase_delta` then falls back to a full re-chase.
    pub record: bool,
    /// Fingerprint-keyed homomorphism cache to invalidate: after a
    /// delta, entries whose canonical fingerprint mentions a changed
    /// relation are evicted (counted in `ExecStats::cache_evictions`).
    pub cache: Option<Arc<HomCache>>,
}

impl Default for DeltaChaseOptions {
    fn default() -> Self {
        DeltaChaseOptions {
            exec: ExecConfig::default(),
            record: true,
            cache: None,
        }
    }
}

impl DeltaChaseOptions {
    /// The target-stage options of an incremental run: this execution
    /// configuration, the default strategy, and the step budget the
    /// target tgds' termination `certificate` derives — the one a
    /// from-scratch run derives itself.
    fn target(&self, certificate: Option<TerminationCertificate>) -> TargetChaseOptions {
        TargetChaseOptions {
            exec: self.exec.clone(),
            certificate,
            ..Default::default()
        }
    }
}

/// The memo a producing run leaves behind for [`chase_delta`].
#[derive(Clone, Debug, Default)]
struct Memo {
    /// Per-tgd s-t trigger enumerations, in enumeration order, with each
    /// trigger's decision and the first null it minted (the input of
    /// the null renaming).
    st_log: TriggerLog,
    /// The first producer of every s-t output fact.
    producers: Producers,
    /// Target-stage support edges (Datalog-eligible settings only).
    supports: SupportLog,
    /// The target tgds' termination certificate. It depends on the
    /// setting only, so a delta reuses it. Without one (target tgds that
    /// are not weakly acyclic, hence existential, so a delta re-runs the
    /// whole target stage anyway) the budget is the fallback constant.
    certificate: Option<TerminationCertificate>,
}

/// A chase result that can be maintained incrementally: the inputs, the
/// intermediate s-t output, the target outcome, stats, and (when
/// recording was on) the memo a delta patches from.
#[derive(Clone, Debug)]
pub struct ChaseResult {
    /// The data-exchange setting that was chased.
    pub setting: ExchangeSetting,
    /// The source instance this result is the chase of.
    pub source: Instance,
    /// The s-t stage output (input of the target stage).
    pub base: Instance,
    /// The target-stage outcome: solution or egd conflict.
    pub outcome: TargetChaseResult,
    /// Budget accounting for the run that produced this result.
    pub stats: TargetChaseStats,
    memo: Option<Memo>,
}

impl ChaseResult {
    /// The universal solution, if the target stage reached one.
    pub fn solution(&self) -> Option<&Instance> {
        match &self.outcome {
            TargetChaseResult::Solution(u) => Some(u),
            TargetChaseResult::Failed { .. } => None,
        }
    }

    /// True when this result carries the memo [`chase_delta`] patches
    /// from (recording was on and the target stage succeeded).
    pub fn has_memo(&self) -> bool {
        self.memo.is_some()
    }
}

/// Full chase that records the incremental memo: s-t chase (logging the
/// trigger enumeration), then the target rounds (logging support edges
/// when the target stage is Datalog).
///
/// The produced artifacts are byte-identical to
/// [`crate::chase_with_target_deps_stats`] with default target options,
/// and so are `steps` and the round and trigger counters — both run the
/// same staged code, recording is observation-only.
pub fn chase_incremental(
    setting: &ExchangeSetting,
    source: &Instance,
    target_schema: &Schema,
    opts: &DeltaChaseOptions,
) -> Result<ChaseResult, ChaseError> {
    let mut st_log = TriggerLog::default();
    let st = run_st(
        &setting.st_tgds,
        source,
        target_schema,
        true,
        ChaseOptions::with_exec(opts.exec.clone()),
        opts.record.then_some(&mut st_log),
    )?;
    let mut supports = SupportLog::default();
    let tgds = &setting.target_tgds;
    let certificate = DependencyGraph::new(tgds).certificate(tgds);
    let target_opts = opts.target(certificate.clone());
    let staged = Rounds::new(setting, &target_opts, source, &st.instance, false).run(
        st.instance.clone(),
        true,
        st.stats,
        opts.record.then_some(&mut supports),
    )?;
    let producers = if opts.record {
        let compiled: Vec<CompiledTgd> = setting.st_tgds.iter().map(compile).collect();
        first_producers(&compiled, &st_log, &st.instance)
    } else {
        Producers::default()
    };
    let memo = Memo {
        st_log,
        producers,
        supports,
        certificate,
    };
    Ok(finish(
        setting,
        source.clone(),
        st.instance,
        staged,
        opts,
        memo,
    ))
}

/// Assemble a maintainable result. The memo is kept only when recording
/// and the target stage reached a solution.
fn finish(
    setting: &ExchangeSetting,
    source: Instance,
    base: Instance,
    (outcome, stats): (TargetChaseResult, TargetChaseStats),
    opts: &DeltaChaseOptions,
    memo: Memo,
) -> ChaseResult {
    let keep = opts.record && matches!(outcome, TargetChaseResult::Solution(_));
    ChaseResult {
        setting: setting.clone(),
        source,
        base,
        outcome,
        stats,
        memo: keep.then_some(memo),
    }
}

/// Rebuild a [`Fact`] from its store-style key.
fn key_fact(k: &FactKey) -> Fact {
    Fact::new(RelId(k.0 as u32), k.1.clone())
}

/// Maintain `prev` under `diff` (applied to the *source*): the returned
/// result renders byte-identically to `chase_incremental` on the
/// updated source, at a fraction of the work when `diff` is small. A
/// memo-less or failed `prev` falls back to a full re-chase.
pub fn chase_delta(
    prev: &ChaseResult,
    diff: &Diff,
    opts: &DeltaChaseOptions,
) -> Result<ChaseResult, ChaseError> {
    // New source, staged so the store's per-round delta is exactly the
    // effectively-added facts: removals never enter the delta, and
    // already-present additions are no-ops.
    let mut source = prev.source.clone();
    source.begin_round();
    let (eff_removed, eff_added) = diff
        .apply(&mut source)
        .map_err(|e| ChaseError::SchemaMismatch(e.to_string()))?;
    let setting = &prev.setting;
    let target_schema = prev.base.schema().clone();

    let (memo, prev_solution) = match (&prev.memo, prev.solution()) {
        (Some(m), Some(u)) => (m, u),
        // Nothing to patch: a memo-less or failed previous run gives
        // the delta no sound starting point.
        _ => {
            let mut next = chase_incremental(setting, &source, &target_schema, opts)?;
            next.stats.exec.delta_facts_in += (eff_removed + eff_added) as u64;
            evict_cache(opts, prev, &mut next);
            return Ok(next);
        }
    };

    let mut exec = ExecStats {
        delta_facts_in: (eff_removed + eff_added) as u64,
        ..ExecStats::default()
    };

    // ---- s-t stage: patch the previous base ----
    // Enumerate only the *new* triggers: the per-round delta of `source`
    // holds exactly the effectively added facts.
    let st = Kernel::new(&setting.st_tgds, &opts.exec);
    let fresh = st
        .enumerate(&source, Scan::Delta, &mut exec)
        .map_err(|e| tripped(e, &exec, None))?;
    let patch = StPatch::new(&st, prev, memo, &source).run(fresh, &diff.removed, &mut exec)?;
    let StDelta {
        base: base_new,
        log: st_log,
        producers,
        rho,
        removed,
        added,
    } = patch;

    // ---- target stage ----
    let target_opts = opts.target(memo.certificate.clone());
    let rounds = Rounds::new(setting, &target_opts, &source, &base_new, false);
    let (staged, supports) = if rounds.datalog() && opts.record {
        // From here on DRed sees only the real change.
        let (mut working, mut supports, mut seeds) =
            rename_solution(prev_solution, &memo.supports, &rho);
        exec.facts_deleted += (prev_solution.fact_count() - working.fact_count()) as u64;
        // Base facts that survive the renaming but not the update.
        for &(rel, id) in &removed {
            let fact = prev.base.store().tuple(rel as usize, id);
            let id = prev_solution
                .store()
                .tuple_id(rel as usize, fact)
                .expect("the s-t output is part of the solution");
            if working.store().live_tuple(rel as usize, id).is_some() {
                seeds.push((rel, id));
            }
        }
        let mut deleted = dred_over_delete(&mut working, &mut supports, seeds, &mut exec);
        // Re-derived facts and new base facts all join the store delta
        // that seeds the semi-naive continuation.
        working.begin_round();
        dred_rederive(
            &rounds.kernel,
            &mut working,
            &mut supports,
            &mut deleted,
            &base_new,
            &mut exec,
        )?;
        for fact in &added {
            if !working.contains_fact(fact) {
                working
                    .insert_fact(fact.clone())
                    .map_err(|e| ChaseError::SchemaMismatch(e.to_string()))?;
            }
        }
        let staged = rounds.run(working, false, exec, Some(&mut supports))?;
        (staged, supports)
    } else {
        // Existential target tgds or egds: re-run the target stage from
        // the patched base — byte-identical by construction.
        let staged = rounds.run(base_new.clone(), true, exec, None)?;
        (staged, SupportLog::default())
    };
    let memo = Memo {
        st_log,
        producers,
        supports,
        certificate: memo.certificate.clone(),
    };
    let mut next = finish(setting, source, base_new, staged, opts, memo);
    evict_cache(opts, prev, &mut next);
    Ok(next)
}

/// The previous solution renamed into the new run's null namespace
/// through `rho`, with its support log patched to match. Tuple ids
/// survive the rename, so the log changes only around the facts it
/// drops (those holding a dead null): their records go, and a fact
/// whose recorded body lost one comes back as an over-deletion seed.
fn rename_solution(
    solution: &Instance,
    supports: &SupportLog,
    rho: &NullRenaming,
) -> (Instance, SupportLog, Vec<FactId>) {
    let (working, dropped) = solution.rename_nulls(|n| rho.null(n));
    let dropped: Vec<FactId> = dropped
        .into_iter()
        .map(|(rel, id)| (rel as u32, id))
        .collect();
    let (supports, seeds) = supports.without(&dropped);
    (working, supports, seeds)
}

/// Position of an s-t trigger: its tgd and its index in that tgd's
/// trigger stream.
type Pos = (u32, u32);

/// The first producer of every s-t output fact, by relation and
/// [`TupleId`] of the output store: the position of the first trigger
/// whose firing inserted it.
type Producers = Vec<Vec<Option<Pos>>>;

/// Record `pos` as the producer of `fact` unless one is recorded.
fn set_producer(producers: &mut Producers, (rel, id): FactId, pos: Pos) {
    let slots = &mut producers[rel as usize];
    if slots.len() <= id as usize {
        slots.resize(id as usize + 1, None);
    }
    slots[id as usize].get_or_insert(pos);
}

/// The first producers of `base`, the s-t output committed from `log`.
fn first_producers(compiled: &[CompiledTgd], log: &TriggerLog, base: &Instance) -> Producers {
    let mut producers = vec![Vec::new(); base.store().num_rels()];
    for (ti, (c, triggers)) in compiled.iter().zip(log).enumerate() {
        for (i, t) in triggers.iter().enumerate().filter(|(_, t)| t.fired) {
            let mut next = t.minted.unwrap_or(0);
            for (rel, args) in instantiate(&c.head, &t.body_vals, &mut next) {
                let id = base
                    .store()
                    .tuple_id(rel.index(), &args)
                    .expect("a fired trigger's head is in the base");
                set_producer(
                    &mut producers,
                    (rel.index() as u32, id),
                    (ti as u32, i as u32),
                );
            }
        }
    }
    producers
}

/// Unify `atom` with the fact `args`. Variables below `n_bound` take a
/// trigger's body values, which never hold a null at or above
/// `minted_floor`; the other variables are free and need only agree
/// between their occurrences. Returns the values the bound variables
/// must take, or `None` when the two do not unify.
fn unify(
    atom: &PatFact,
    args: &[Value],
    n_bound: usize,
    minted_floor: u64,
) -> Option<Vec<(u32, Value)>> {
    let mut bound: Vec<(u32, Value)> = Vec::new();
    let mut free: Vec<(u32, Value)> = Vec::new();
    for (t, &v) in atom.args.iter().zip(args) {
        match *t {
            PatTerm::Value(pv) => {
                if pv != v {
                    return None;
                }
            }
            PatTerm::Var(i) => {
                let seen = if (i as usize) < n_bound {
                    if matches!(v, Value::Null(n) if n.0 >= minted_floor) {
                        return None;
                    }
                    &mut bound
                } else {
                    &mut free
                };
                match seen.iter().find(|(j, _)| *j == i) {
                    Some(&(_, w)) if w != v => return None,
                    Some(_) => {}
                    None => seen.push((i, v)),
                }
            }
        }
    }
    Some(bound)
}

/// Partial assignments of body variables, grouped by the variables they
/// fix. A trigger matches when its body values agree with one of them.
/// The s-t patch keeps two kinds per tgd: body atoms unified with a
/// removed source fact (the trigger is dead) and head atoms unified
/// with a changed base fact (its restricted check must be re-taken).
#[derive(Default)]
struct Patterns {
    groups: Vec<(Vec<u32>, HashSet<Vec<Value>>)>,
}

impl Patterns {
    fn add(&mut self, mut fixed: Vec<(u32, Value)>) {
        fixed.sort_unstable();
        let (vars, vals): (Vec<u32>, Vec<Value>) = fixed.into_iter().unzip();
        match self.groups.iter_mut().find(|(g, _)| *g == vars) {
            Some((_, set)) => {
                set.insert(vals);
            }
            None => self.groups.push((vars, HashSet::from([vals]))),
        }
    }

    /// Does `body_vals` agree with one of the patterns? `buf` is
    /// scratch space.
    fn matches(&self, body_vals: &[Value], buf: &mut Vec<Value>) -> bool {
        self.groups.iter().any(|(vars, set)| {
            buf.clear();
            buf.extend(vars.iter().map(|&v| body_vals[v as usize]));
            set.contains(buf.as_slice())
        })
    }
}

/// Where the patch walk stands: the position the current trigger takes
/// in the new stream, how many of its tgd's previous triggers lie before
/// it, and whether it is the previous trigger at that index (a survivor
/// or a dead trigger) rather than a fresh one.
#[derive(Clone, Copy)]
struct Here {
    new: Pos,
    old_cursor: u32,
    previous: bool,
}

/// Where a previous-base fact's first producer in the new run stands
/// relative to the walk: before it, at it, or later (or nowhere).
#[derive(PartialEq)]
enum Producer {
    Before,
    Current,
    Later,
}

/// What the s-t patch hands the target stage and the next memo.
struct StDelta {
    /// The s-t output of the updated source.
    base: Instance,
    /// The new trigger stream, each trigger with its new decision.
    log: TriggerLog,
    /// First producers of `base`, by its tuple ids.
    producers: Producers,
    /// The previous run's nulls renamed into the new run's.
    rho: NullRenaming,
    /// Previous-base facts (previous ids) that `base` lacks.
    removed: Vec<FactId>,
    /// Facts of `base` without a counterpart in the previous base.
    added: Vec<Fact>,
}

/// The s-t stage of [`chase_delta`]: patch the previous base instead of
/// re-committing every trigger.
///
/// The walk visits the from-scratch trigger stream of the updated
/// source — survivors and fresh triggers merged by enumeration key —
/// with each dead trigger (one that lost a body fact) at its old place.
/// A survivor keeps its previous fire/skip decision unless a *changed*
/// fact reaches it: a fact whose first producer moved earlier in the
/// stream, and that unifies with one of its head atoms under its body
/// values. Only fresh and reached triggers re-take the restricted head
/// check, against the base as it stands at their position. Facts a
/// changed decision adds or removes are changed facts in turn, so the
/// cascade follows the stream.
///
/// The walk runs in the new null namespace: nulls are numbered in one
/// counting pass as it goes, and ρ grows with it. A fact that stands
/// before the walk's position has all its nulls mapped already.
struct StPatch<'a> {
    kernel: &'a Kernel,
    /// The previous s-t output, its trigger stream and first producers.
    prev: &'a Instance,
    prev_log: &'a TriggerLog,
    producers: &'a Producers,
    /// The first null the new run mints.
    new_floor: u64,
    rho: NullRenaming,
    /// Previous-base facts whose first producer moved: `None` when no
    /// trigger produces them any more.
    moved: HashMap<FactId, Option<Pos>>,
    /// Facts without a previous counterpart (new null namespace), with
    /// their first producer.
    added: BTreeMap<FactKey, Pos>,
    /// Per tgd: the body assignments a changed fact reaches.
    reach: Vec<Patterns>,
    /// Scratch instance of the restricted checks, empty between them.
    view: Instance,
    next_null: u64,
    fired: u64,
}

impl<'a> StPatch<'a> {
    fn new(kernel: &'a Kernel, prev: &'a ChaseResult, memo: &'a Memo, source: &Instance) -> Self {
        let old_floor = prev.source.fresh_null_floor();
        let span = prev.base.fresh_null_floor().saturating_sub(old_floor);
        let new_floor = source.fresh_null_floor();
        StPatch {
            kernel,
            prev: &prev.base,
            prev_log: &memo.st_log,
            producers: &memo.producers,
            new_floor,
            rho: NullRenaming::new(old_floor, span, source),
            moved: HashMap::new(),
            added: BTreeMap::new(),
            reach: kernel
                .compiled
                .iter()
                .map(|_| Patterns::default())
                .collect(),
            view: Instance::new(prev.base.schema().clone()),
            next_null: new_floor,
            fired: 0,
        }
    }

    /// Walk every tgd's stream: `fresh` holds the triggers the delta
    /// scan found, `removed` the facts the update took from the source.
    fn run(
        mut self,
        fresh: TriggerLog,
        removed: &[Fact],
        exec: &mut ExecStats,
    ) -> Result<StDelta, ChaseError> {
        let kernel = self.kernel;
        let prev_log = self.prev_log;
        exec.rounds += 1;
        let mut log: TriggerLog = Vec::with_capacity(fresh.len());
        let mut new_index: Vec<Vec<Option<u32>>> = Vec::with_capacity(fresh.len());
        let mut buf = Vec::new();
        for (ti, fresh) in fresh.into_iter().enumerate() {
            let c = &kernel.compiled[ti];
            let old = &prev_log[ti];
            let mut dead = Patterns::default();
            for f in removed {
                for atom in c.body.facts.iter().filter(|a| a.rel == f.rel) {
                    if let Some(fixed) = unify(atom, &f.args, c.n_body_vars, u64::MAX) {
                        dead.add(fixed);
                    }
                }
            }
            // Key the fresh triggers (one with two new body facts is
            // found twice) and place each before the first previous
            // trigger with a larger key: keys are computed only there.
            let keyed: BTreeMap<Vec<FactKey>, Trigger> = fresh
                .into_iter()
                .map(|t| (body_fact_keys(c, &t.body_vals), t))
                .collect();
            let mut fresh = keyed
                .into_iter()
                .map(|(k, t)| {
                    (
                        old.partition_point(|o| body_fact_keys(c, &o.body_vals) < k),
                        t,
                    )
                })
                .peekable();
            let mut out: Vec<Trigger> = Vec::with_capacity(old.len() + fresh.len());
            let mut index = Vec::with_capacity(old.len());
            for i in 0..=old.len() {
                let here = |out: &Vec<Trigger>, previous| Here {
                    new: (ti as u32, out.len() as u32),
                    old_cursor: i as u32,
                    previous,
                };
                while let Some((_, n)) = fresh.next_if(|&(at, _)| at <= i) {
                    let next = self.fresh(c, n, here(&out, false), exec)?;
                    out.push(next);
                }
                let Some(t) = old.get(i) else { break };
                if dead.matches(&t.body_vals, &mut buf) {
                    if t.fired {
                        self.retract(c, t, here(&out, true));
                    }
                    index.push(None);
                    continue;
                }
                index.push(Some(out.len() as u32));
                let next = if self.reach[ti].matches(&t.body_vals, &mut buf) {
                    self.recheck(c, t, here(&out, true), exec)?
                } else {
                    self.keep(c, t)
                };
                out.push(next);
            }
            log.push(out);
            new_index.push(index);
        }
        exec.triggers_fired += self.fired;
        Ok(self.finish(log, &new_index))
    }

    /// Number the nulls of a trigger that `fires`: the first one, when
    /// its tgd has existential variables.
    fn mint(&mut self, c: &CompiledTgd, fires: bool) -> Option<u64> {
        let existentials = (c.head.nvars - c.n_body_vars) as u64;
        let first = (fires && existentials > 0).then_some(self.next_null);
        if fires {
            self.next_null += existentials;
        }
        first
    }

    /// A survivor that fires in both runs maps the nulls it minted
    /// before to the ones it mints now.
    fn renumber(&mut self, c: &CompiledTgd, t: &Trigger, minted: Option<u64>) {
        if let (Some(o), Some(n)) = (t.minted, minted) {
            self.rho
                .map_minted(o, n, (c.head.nvars - c.n_body_vars) as u64);
        }
    }

    /// A survivor no changed fact reaches: its decision stands, and so
    /// do the facts it produces. Only its nulls are renumbered.
    fn keep(&mut self, c: &CompiledTgd, t: &Trigger) -> Trigger {
        let minted = self.mint(c, t.fired);
        self.renumber(c, t, minted);
        Trigger {
            body_vals: t.body_vals.clone(),
            fired: t.fired,
            minted,
        }
    }

    /// A reached survivor: re-take its check, then retract what it no
    /// longer produces or produce its facts again (their first producer
    /// may have moved to it).
    fn recheck(
        &mut self,
        c: &CompiledTgd,
        t: &Trigger,
        here: Here,
        exec: &mut ExecStats,
    ) -> Result<Trigger, ChaseError> {
        self.kernel
            .exec
            .budget
            .check()
            .map_err(|e| tripped(e, exec, None))?;
        let fires = !self.satisfied(c, &t.body_vals, here, exec);
        let minted = self.mint(c, fires);
        self.renumber(c, t, minted);
        match (t.fired, fires) {
            (true, false) => self.retract(c, t, here),
            (_, true) => {
                let previous = t.fired.then(|| self.old_ids(c, t));
                self.fire(c, &t.body_vals, minted, previous, here);
            }
            (false, false) => {}
        }
        Ok(Trigger {
            body_vals: t.body_vals.clone(),
            fired: fires,
            minted,
        })
    }

    /// A fresh trigger: take its check and fire it if it fails.
    fn fresh(
        &mut self,
        c: &CompiledTgd,
        t: Trigger,
        here: Here,
        exec: &mut ExecStats,
    ) -> Result<Trigger, ChaseError> {
        self.kernel
            .exec
            .budget
            .check()
            .map_err(|e| tripped(e, exec, None))?;
        let fires = !self.satisfied(c, &t.body_vals, here, exec);
        let minted = self.mint(c, fires);
        if fires {
            self.fire(c, &t.body_vals, minted, None, here);
        }
        Ok(Trigger {
            body_vals: t.body_vals,
            fired: fires,
            minted,
        })
    }

    /// Fire at `here`: produce the head of `c` under `body_vals`, its
    /// nulls numbered from `minted` on. `previous` holds the facts the
    /// same trigger produced in the previous run, when it fired there;
    /// otherwise each fact is matched to its previous counterpart, if
    /// it has one.
    fn fire(
        &mut self,
        c: &CompiledTgd,
        body_vals: &[Value],
        minted: Option<u64>,
        previous: Option<Vec<(RelId, TupleId)>>,
        here: Here,
    ) {
        self.fired += 1;
        let mut next = minted.unwrap_or(0);
        let mut added = 0;
        for (k, (rel, args)) in instantiate(&c.head, body_vals, &mut next).enumerate() {
            let old = match &previous {
                Some(ids) => Some(ids[k].1),
                None => self.old_id(rel, &args),
            };
            added += usize::from(self.produce(rel, &args, old, here));
        }
        self.charge(added);
    }

    fn charge(&self, facts: usize) {
        self.kernel.exec.budget.charge_facts(facts as u64);
    }

    /// The trigger at `here` produces `args` (new namespace), whose
    /// previous counterpart is `old`. Returns whether the fact's first
    /// producer moved here — then it is a changed fact.
    fn produce(&mut self, rel: RelId, args: &[Value], old: Option<TupleId>, here: Here) -> bool {
        let moved = match old {
            Some(id) => {
                let fact = (rel.index() as u32, id);
                let later = self.producer(fact, here) == Producer::Later;
                if later {
                    self.moved.insert(fact, Some(here.new));
                }
                later
            }
            None => match self.added.entry((rel.index(), args.to_vec())) {
                Entry::Occupied(_) => false,
                Entry::Vacant(e) => {
                    e.insert(here.new);
                    true
                }
            },
        };
        if moved {
            self.changed(rel, args, self.new_floor, here.new.0);
        }
        moved
    }

    /// The trigger at `here` (which fired in the previous run) no longer
    /// fires: the facts it produced first have no producer now.
    fn retract(&mut self, c: &CompiledTgd, t: &Trigger, here: Here) {
        let prev = self.prev;
        for (rel, id) in self.old_ids(c, t) {
            let fact = (rel.index() as u32, id);
            if self.producer(fact, here) == Producer::Current {
                self.moved.insert(fact, None);
                let old_floor = self.rho.old_floor;
                self.changed(
                    rel,
                    prev.store().tuple(rel.index(), id),
                    old_floor,
                    here.new.0,
                );
            }
        }
    }

    /// Register a changed fact: every later trigger with a head atom
    /// that unifies with it re-takes its check. Bound variables never
    /// take a null at or above `minted_floor` (the namespace's minted
    /// nulls).
    fn changed(&mut self, rel: RelId, args: &[Value], minted_floor: u64, from: u32) {
        let kernel = self.kernel;
        for (ti, c) in kernel.compiled.iter().enumerate().skip(from as usize) {
            for atom in c.head.facts.iter().filter(|a| a.rel == rel) {
                if let Some(fixed) = unify(atom, args, c.n_body_vars, minted_floor) {
                    self.reach[ti].add(fixed);
                }
            }
        }
    }

    /// Where the first producer of the previous-base fact `fact` stands.
    fn producer(&self, fact: FactId, here: Here) -> Producer {
        match self.moved.get(&fact) {
            Some(Some(p)) if *p < here.new => Producer::Before,
            // A moved fact's producer is never past the walk.
            Some(Some(_)) => Producer::Current,
            Some(None) => Producer::Later,
            None => match self.producers[fact.0 as usize]
                .get(fact.1 as usize)
                .copied()
                .flatten()
            {
                Some(p) => match p.cmp(&(here.new.0, here.old_cursor)) {
                    std::cmp::Ordering::Less => Producer::Before,
                    std::cmp::Ordering::Equal if here.previous => Producer::Current,
                    _ => Producer::Later,
                },
                None => Producer::Later,
            },
        }
    }

    /// The previous-base ids of the facts `t` produced in the previous
    /// run (it fired there).
    fn old_ids(&self, c: &CompiledTgd, t: &Trigger) -> Vec<(RelId, TupleId)> {
        let mut next = t.minted.unwrap_or(0);
        instantiate(&c.head, &t.body_vals, &mut next)
            .map(|(rel, args)| {
                let id = self
                    .prev
                    .store()
                    .tuple_id(rel.index(), &args)
                    .expect("a fired trigger's head is in the previous base");
                (rel, id)
            })
            .collect()
    }

    /// The previous counterpart of a new-namespace fact that no previous
    /// firing names: the same tuple, when it holds no null minted by the
    /// new run and no source null the previous run did not have.
    fn old_id(&self, rel: RelId, args: &[Value]) -> Option<TupleId> {
        let floor = self.rho.old_floor.min(self.new_floor);
        if args
            .iter()
            .any(|v| matches!(v, Value::Null(n) if n.0 >= floor))
        {
            return None;
        }
        self.prev.store().tuple_id(rel.index(), args)
    }

    /// A previous-base tuple in the new namespace (its nulls must be
    /// mapped already).
    fn translate(&self, args: &[Value]) -> Vec<Value> {
        args.iter()
            .map(|&v| match v {
                Value::Null(n) if n.0 >= self.rho.old_floor => Value::Null(
                    self.rho
                        .null(n)
                        .expect("a fact standing before the walk has mapped nulls"),
                ),
                v => v,
            })
            .collect()
    }

    /// The restricted check at `here`: does the head of `c` under
    /// `body_vals` have an extension in the base as it stands before
    /// `here`? Only facts that unify with a head atom's pinned positions
    /// can take part, so the check runs on a view of just those; one
    /// view serves every check of the walk.
    fn satisfied(
        &mut self,
        c: &CompiledTgd,
        body_vals: &[Value],
        here: Here,
        exec: &mut ExecStats,
    ) -> bool {
        let prev = self.prev;
        let mut facts: Vec<Fact> = Vec::new();
        for atom in &c.head.facts {
            let rel = atom.rel.index();
            let pinned = atom.args.iter().enumerate().find_map(|(pos, t)| match *t {
                PatTerm::Value(v) => Some((pos, v)),
                PatTerm::Var(i) => body_vals.get(i as usize).map(|&v| (pos, v)),
            });
            let ids: Vec<TupleId> = match pinned {
                // A source null at or above the previous floor is new to
                // this run: no previous fact holds it.
                Some((_, Value::Null(n))) if n.0 >= self.rho.old_floor => Vec::new(),
                Some((pos, v)) => prev.store().posting(rel, pos, v).to_vec(),
                None => prev
                    .tuples(atom.rel)
                    .filter_map(|t| prev.store().tuple_id(rel, t))
                    .collect(),
            };
            for id in ids {
                if self.producer((rel as u32, id), here) == Producer::Before {
                    let args = self.translate(prev.store().tuple(rel, id));
                    facts.push(Fact::new(atom.rel, args));
                }
            }
            for ((_, args), _) in self
                .added
                .range((rel, Vec::new())..(rel + 1, Vec::new()))
                .filter(|(_, &p)| p < here.new)
            {
                facts.push(Fact::new(atom.rel, args.clone()));
            }
        }
        // The view is empty between checks: fill it, check, empty it.
        for f in &facts {
            self.view
                .insert(f.rel, f.args.clone())
                .expect("same schema");
        }
        let sat = head_satisfied(c, body_vals, &self.view, exec, self.kernel.planned);
        for f in &facts {
            self.view.remove_fact(f);
        }
        sat
    }

    /// Build the new base: the previous one renamed through ρ, minus the
    /// facts that lost their producer, plus the facts new to it; and its
    /// first producers, at their positions in the new stream.
    fn finish(self, log: TriggerLog, new_index: &[Vec<Option<u32>>]) -> StDelta {
        let StPatch {
            prev,
            producers: old_producers,
            rho,
            moved,
            added: new_facts,
            ..
        } = self;
        let (mut base, _) = prev.rename_nulls(|n| rho.null(n));
        let mut removed: Vec<FactId> = moved
            .iter()
            .filter(|(_, p)| p.is_none())
            .map(|(&f, _)| f)
            .collect();
        removed.sort_unstable();
        for &(rel, id) in &removed {
            if let Some(t) = base.store().live_tuple(rel as usize, id) {
                let fact = Fact::new(RelId(rel), t.to_vec());
                base.remove_fact(&fact);
            }
        }
        let mut producers: Producers = vec![Vec::new(); base.store().num_rels()];
        for (rel, slots) in old_producers.iter().enumerate() {
            for (id, slot) in slots.iter().enumerate() {
                let fact = (rel as u32, id as TupleId);
                if base.store().live_tuple(rel, fact.1).is_none() {
                    continue;
                }
                let pos = match moved.get(&fact) {
                    Some(p) => *p,
                    None => slot.map(|(ti, i)| {
                        let j = new_index[ti as usize][i as usize];
                        (ti, j.expect("a standing fact's first producer survives"))
                    }),
                };
                if let Some(pos) = pos {
                    set_producer(&mut producers, fact, pos);
                }
            }
        }
        let mut added = Vec::with_capacity(new_facts.len());
        for ((rel, args), pos) in new_facts {
            let fact = Fact::new(RelId(rel as u32), args);
            base.insert_fact(fact.clone()).expect("same schema");
            let id = base
                .store()
                .tuple_id(rel, &fact.args)
                .expect("just inserted");
            set_producer(&mut producers, (rel as u32, id), pos);
            added.push(fact);
        }
        StDelta {
            base,
            log,
            producers,
            rho,
            removed,
            added,
        }
    }
}

/// DRed phase 1: transitively delete every fact whose recorded
/// derivation touches a removed fact (starting from the `seeds`).
/// Returns the deleted facts; the support log forgets them (survivors
/// re-record on re-derivation).
fn dred_over_delete(
    working: &mut Instance,
    supports: &mut SupportLog,
    seeds: Vec<FactId>,
    exec: &mut ExecStats,
) -> BTreeSet<FactKey> {
    let mut done: BTreeSet<FactId> = BTreeSet::new();
    let mut deleted: BTreeSet<FactKey> = BTreeSet::new();
    let mut work: BTreeSet<FactId> = seeds.into_iter().collect();
    while let Some(f) = work.pop_first() {
        for &d in supports.dependents(f) {
            if !done.contains(&d) {
                work.insert(d);
            }
        }
        done.insert(f);
        let rel = f.0 as usize;
        if let Some(t) = working.store().live_tuple(rel, f.1) {
            let key = (rel, t.to_vec());
            working.remove_fact(&key_fact(&key));
            exec.facts_deleted += 1;
            deleted.insert(key);
        }
    }
    for f in done {
        supports.forget(f);
    }
    deleted
}

/// DRed phase 2: re-derive over-deleted facts that survive the update.
/// A deleted fact comes back if it is a base fact of the *new* s-t
/// output, or some target tgd can fire a trigger producing it from the
/// facts still standing. Restored facts enter the store delta (the
/// caller opened a round) and re-record their support; iterate to a
/// fixpoint since one restoration can enable the next.
fn dred_rederive(
    kernel: &Kernel,
    working: &mut Instance,
    supports: &mut SupportLog,
    deleted: &mut BTreeSet<FactKey>,
    base_new: &Instance,
    exec: &mut ExecStats,
) -> Result<(), ChaseError> {
    // head_index: relation → (tgd, head atom) pairs that can produce it.
    let mut head_index: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
    for (ti, c) in kernel.compiled.iter().enumerate() {
        for (ai, f) in c.head.facts.iter().enumerate() {
            head_index.entry(f.rel.index()).or_default().push((ti, ai));
        }
    }
    loop {
        let mut restored: Vec<FactKey> = Vec::new();
        for k in deleted.iter() {
            kernel
                .exec
                .budget
                .check()
                .map_err(|e| tripped(e, exec, Some(working)))?;
            if working.contains_fact(&key_fact(k)) {
                restored.push(k.clone());
                continue;
            }
            if base_new.contains(RelId(k.0 as u32), &k.1) {
                // Derived before, a base fact now: unconditionally in.
                working
                    .insert(RelId(k.0 as u32), k.1.clone())
                    .expect("key came from a same-schema instance");
                exec.facts_rederived += 1;
                restored.push(k.clone());
                continue;
            }
            let Some(producers) = head_index.get(&k.0) else {
                continue;
            };
            'producers: for &(ti, ai) in producers {
                let c = &kernel.compiled[ti];
                // Eligible settings are existential-free, so every head
                // variable is bound by the unification.
                let Some(fixed) = unify(&c.head.facts[ai], &k.1, c.head.nvars, u64::MAX) else {
                    continue;
                };
                let constraints = MatchConstraints {
                    fixed,
                    ..Default::default()
                };
                let engine =
                    MatchEngine::new(&c.body, working, &constraints).with_planning(kernel.planned);
                let witness = engine.first();
                absorb_match_counters(exec, &engine.counters());
                if let Some(a) = witness {
                    let body_vals = values_of(&a, c.n_body_vars);
                    let added = fire_tgd(c, &body_vals, working, &mut 0, Some(supports));
                    exec.facts_rederived += added as u64;
                    if working.contains_fact(&key_fact(k)) {
                        restored.push(k.clone());
                        break 'producers;
                    }
                }
            }
        }
        if restored.is_empty() {
            return Ok(());
        }
        for k in &restored {
            deleted.remove(k);
        }
    }
}

/// Evict [`HomCache`] entries whose fingerprint mentions a relation
/// changed anywhere in the pipeline (source, s-t output, or solution),
/// counting the evictions into the new result's stats.
fn evict_cache(opts: &DeltaChaseOptions, prev: &ChaseResult, next: &mut ChaseResult) {
    let Some(cache) = &opts.cache else { return };
    let mut rels: BTreeSet<usize> = BTreeSet::new();
    for d in [
        Diff::between(&prev.source, &next.source),
        Diff::between(&prev.base, &next.base),
    ] {
        rels.extend(d.touched_rels().iter().map(|r| r.index()));
    }
    if let (Some(a), Some(b)) = (prev.solution(), next.solution()) {
        rels.extend(Diff::between(a, b).touched_rels().iter().map(|r| r.index()));
    }
    let rels: Vec<usize> = rels.into_iter().collect();
    next.stats.exec.cache_evictions += cache.evict_rels(&rels);
}

#[cfg(test)]
mod tests {
    use super::*;
    use qi_lang::{parse_egd, parse_tgd};
    use qi_schema::Schema;

    fn render(r: &ChaseResult) -> String {
        let sol = match &r.outcome {
            TargetChaseResult::Solution(u) => format!("{u}"),
            TargetChaseResult::Failed { left, right } => format!("failed {left:?} {right:?}"),
        };
        format!("base={} sol={}", r.base, sol)
    }

    fn closure_setting() -> (Schema, Schema, ExchangeSetting) {
        let s = Schema::parse("E/2").unwrap();
        let t = Schema::parse("T/2").unwrap();
        let setting = ExchangeSetting {
            st_tgds: vec![parse_tgd(&s, &t, "E(x,y) -> T(x,y)").unwrap()],
            target_tgds: vec![parse_tgd(&t, &t, "T(x,y), T(y,z) -> T(x,z)").unwrap()],
            egds: vec![],
        };
        (s, t, setting)
    }

    #[test]
    fn datalog_delta_matches_from_scratch() {
        let (s, t, setting) = closure_setting();
        let source = Instance::parse(&s, "E(a,b) E(b,c) E(c,d)").unwrap();
        let opts = DeltaChaseOptions::default();
        let prev = chase_incremental(&setting, &source, &t, &opts).unwrap();
        assert!(prev.has_memo());
        for text in [
            "+ E(d,e)",
            "- E(a,b)",
            "- E(b,c)\n+ E(b,e) E(e,c)",
            "+ E(a,b)",               // no-op add
            "- E(z,z)",               // no-op remove
            "- E(a,b) E(b,c) E(c,d)", // delete everything
        ] {
            let diff = Diff::parse(&s, text).unwrap();
            let next = chase_delta(&prev, &diff, &opts).unwrap();
            let mut updated = source.clone();
            diff.apply(&mut updated).unwrap();
            let scratch = chase_incremental(&setting, &updated, &t, &opts).unwrap();
            assert_eq!(render(&next), render(&scratch), "diff `{text}`");
            let (rm, add) = diff.apply(&mut source.clone()).unwrap();
            assert_eq!(next.stats.exec.delta_facts_in, (rm + add) as u64);
        }
    }

    #[test]
    fn chained_deltas_stay_identical() {
        let (s, t, setting) = closure_setting();
        let source = Instance::parse(&s, "E(a,b) E(b,c)").unwrap();
        let opts = DeltaChaseOptions::default();
        let mut cur = chase_incremental(&setting, &source, &t, &opts).unwrap();
        let mut inst = source.clone();
        for text in ["+ E(c,d)", "- E(a,b)", "+ E(d,a) E(a,b)", "- E(b,c)"] {
            let diff = Diff::parse(&s, text).unwrap();
            cur = chase_delta(&cur, &diff, &opts).unwrap();
            diff.apply(&mut inst).unwrap();
            let scratch = chase_incremental(&setting, &inst, &t, &opts).unwrap();
            assert_eq!(render(&cur), render(&scratch), "after `{text}`");
            assert!(cur.has_memo());
        }
    }

    #[test]
    fn existential_st_replay_preserves_null_numbering() {
        let s = Schema::parse("E/2").unwrap();
        let t = Schema::parse("T/2 L/1").unwrap();
        let setting = ExchangeSetting {
            st_tgds: vec![
                parse_tgd(&s, &t, "E(x,y) -> exists z . T(x,z)").unwrap(),
                parse_tgd(&s, &t, "E(x,y) -> L(y)").unwrap(),
            ],
            target_tgds: vec![],
            egds: vec![],
        };
        let source = Instance::parse(&s, "E(a,b) E(b,c) E(c,d)").unwrap();
        let opts = DeltaChaseOptions::default();
        let prev = chase_incremental(&setting, &source, &t, &opts).unwrap();
        for text in ["+ E(a,a)", "- E(b,c)", "- E(a,b)\n+ E(d,e)"] {
            let diff = Diff::parse(&s, text).unwrap();
            let next = chase_delta(&prev, &diff, &opts).unwrap();
            let mut updated = source.clone();
            diff.apply(&mut updated).unwrap();
            let scratch = chase_incremental(&setting, &updated, &t, &opts).unwrap();
            assert_eq!(render(&next), render(&scratch), "diff `{text}`");
        }
    }

    /// The keyless exchange shape: every `Emp` trigger mints a null.
    /// With `staffed`, a projection `Staffed(d)` of `Dept(d,m)` joins
    /// the target: a derived fact without nulls whose recorded body fact
    /// holds an s-t null, so removing an `Emp` makes the rename drop a
    /// body fact and keep its dependent.
    fn keyless_exchange(staffed: bool) -> (Schema, Schema, ExchangeSetting) {
        let s = Schema::parse("Emp/3 Mgr/2").unwrap();
        let rels = "Works/2 Dept/2 Boss/2 Reach/2";
        let t = Schema::parse(&if staffed {
            format!("{rels} Staffed/1")
        } else {
            rels.to_owned()
        })
        .unwrap();
        let mut target_tgds = vec![
            parse_tgd(&t, &t, "Works(n,d) & Dept(d,m) -> Boss(n,m)").unwrap(),
            parse_tgd(&t, &t, "Boss(x,y) & Boss(y,z) -> Reach(x,z)").unwrap(),
        ];
        if staffed {
            target_tgds.push(parse_tgd(&t, &t, "Dept(d,m) -> Staffed(d)").unwrap());
        }
        let setting = ExchangeSetting {
            st_tgds: vec![
                parse_tgd(&s, &t, "Emp(n,d,c) -> exists m . Works(n,d) & Dept(d,m)").unwrap(),
                parse_tgd(&s, &t, "Mgr(a,b) -> Boss(a,b)").unwrap(),
            ],
            target_tgds,
            egds: vec![],
        };
        (s, t, setting)
    }

    /// Forty employees, one department each, in a manager chain.
    /// Constants are interned (and so ordered) in loop order.
    fn mid_stream_source(s: &Schema) -> Instance {
        let facts: Vec<String> = (0..40)
            .flat_map(|i| {
                [
                    format!("Emp(mx{i},md{i},mc)"),
                    format!("Mgr(mx{i},mx{})", i + 1),
                ]
            })
            .collect();
        Instance::parse(s, &facts.join(" ")).unwrap()
    }

    /// Diffs in the middle of the mid-stream source's trigger order.
    const MID_STREAM_DIFFS: [&str; 3] = [
        "- Emp(mx20,md20,mc)",
        "+ Emp(mx20,md20b,mc)",
        "- Emp(mx20,md20,mc)\n+ Emp(mx20,md20b,mc)",
    ];

    #[test]
    fn mid_stream_diff_deletes_on_the_order_of_the_diff() {
        // The keyless exchange shape: every Emp trigger mints a null, so
        // a diff in the middle of the trigger order shifts every later
        // null by one. The null renaming absorbs the shift: DRed sees
        // only the facts that really changed. The s-t patch fires only
        // the triggers the diff adds or re-decides, not the 80 survivors,
        // so the whole update fires on the order of the diff.
        let (s, t, setting) = keyless_exchange(false);
        let source = mid_stream_source(&s);
        let opts = DeltaChaseOptions::default();
        let prev = chase_incremental(&setting, &source, &t, &opts).unwrap();
        let size = prev.solution().unwrap().fact_count();
        assert!(size > 200, "solution of {size} facts");
        for (text, max_deleted) in MID_STREAM_DIFFS.into_iter().zip([4, 0, 4]) {
            let diff = Diff::parse(&s, text).unwrap();
            let next = chase_delta(&prev, &diff, &opts).unwrap();
            let mut updated = source.clone();
            diff.apply(&mut updated).unwrap();
            let scratch = chase_incremental(&setting, &updated, &t, &opts).unwrap();
            assert_eq!(render(&next), render(&scratch), "diff `{text}`");
            let exec = &next.stats.exec;
            assert!(
                exec.facts_deleted <= max_deleted,
                "diff `{text}`: {} of {size} facts deleted",
                exec.facts_deleted
            );
            assert_eq!(exec.facts_rederived, 0, "diff `{text}`");
            assert!(
                exec.triggers_fired <= 4,
                "diff `{text}`: {} triggers fired",
                exec.triggers_fired
            );
        }
    }

    #[test]
    fn egd_setting_falls_back_and_stays_identical() {
        // Weakly acyclic: Dept feeds Audit, nothing feeds back.
        let s = Schema::parse("Emp/2").unwrap();
        let t = Schema::parse("Dept/2 Audit/2").unwrap();
        let setting = ExchangeSetting {
            st_tgds: vec![parse_tgd(&s, &t, "Emp(e,d) -> Dept(d,e)").unwrap()],
            target_tgds: vec![parse_tgd(&t, &t, "Dept(d,m) -> exists q . Audit(m,q)").unwrap()],
            egds: vec![parse_egd(&t, "Dept(d,m), Dept(d,n) -> m = n").unwrap()],
        };
        let source = Instance::parse(&s, "Emp(a,d1)").unwrap();
        let opts = DeltaChaseOptions::default();
        let prev = chase_incremental(&setting, &source, &t, &opts).unwrap();
        let diff = Diff::parse(&s, "+ Emp(b,d2)").unwrap();
        let next = chase_delta(&prev, &diff, &opts).unwrap();
        let mut updated = source.clone();
        diff.apply(&mut updated).unwrap();
        let scratch = chase_incremental(&setting, &updated, &t, &opts).unwrap();
        assert_eq!(render(&next), render(&scratch));
        // Conflict after the delta: Dept(d1,a), Dept(d1,c) forces a = c.
        let diff2 = Diff::parse(&s, "+ Emp(c,d1)").unwrap();
        let next2 = chase_delta(&next, &diff2, &opts).unwrap();
        assert!(next2.solution().is_none());
        assert!(!next2.has_memo());
    }

    /// Twelve employees over five departments, in a manager chain: a
    /// department keeps `Staffed` while another employee staffs it.
    fn staffed_source(s: &Schema) -> Instance {
        let facts: Vec<String> = (0..12)
            .flat_map(|i| {
                [
                    format!("Emp(sx{i},sd{},sc)", i % 5),
                    format!("Mgr(sx{i},sx{})", i + 1),
                ]
            })
            .collect();
        Instance::parse(s, &facts.join(" ")).unwrap()
    }

    #[test]
    fn patched_support_log_equals_the_restricted_referee() {
        // Replay the s-t patch of each update in a chained stream, then
        // patch the support log around the facts the solution rename
        // drops; the whole-log filter must agree on the log and seeds.
        let (s, t, setting) = keyless_exchange(true);
        let source = staffed_source(&s);
        let (ms, mt, mid) = keyless_exchange(false);
        let mid_source = mid_stream_source(&ms);
        let streams: [(&Schema, &Schema, &ExchangeSetting, &Instance, &[&str]); 2] = [
            (
                &s,
                &t,
                &setting,
                &source,
                &[
                    "- Emp(sx3,sd3,sc)",
                    "- Emp(sx8,sd3,sc)",
                    "+ Emp(sx3,sd3,sc)",
                    "- Emp(sx0,sd0,sc) Emp(sx5,sd0,sc)\n+ Emp(sx0,sd9,sc)",
                    "- Mgr(sx4,sx5) Emp(sx4,sd4,sc)",
                ],
            ),
            (&ms, &mt, &mid, &mid_source, &MID_STREAM_DIFFS),
        ];
        let opts = DeltaChaseOptions::default();
        let mut trimmed = 0;
        for (s, t, setting, source, diffs) in streams {
            let mut cur = chase_incremental(setting, source, t, &opts).unwrap();
            for text in diffs {
                let diff = Diff::parse(s, text).unwrap();
                let memo = cur.memo.as_ref().unwrap();
                let mut updated = cur.source.clone();
                updated.begin_round();
                diff.apply(&mut updated).unwrap();
                let mut exec = ExecStats::default();
                let st = Kernel::new(&setting.st_tgds, &opts.exec);
                let fresh = st.enumerate(&updated, Scan::Delta, &mut exec).unwrap();
                let patch = StPatch::new(&st, &cur, memo, &updated)
                    .run(fresh, &diff.removed, &mut exec)
                    .unwrap();
                let solution = cur.solution().unwrap();
                let (working, patched, seeds) =
                    rename_solution(solution, &memo.supports, &patch.rho);
                let live =
                    |(rel, id): FactId| working.store().live_tuple(rel as usize, id).is_some();
                let (referee, referee_seeds) = memo.supports.restricted(live);
                assert_eq!(patched.derived, referee.derived, "after `{text}`");
                assert_eq!(patched.dependents, referee.dependents, "after `{text}`");
                assert_eq!(seeds, referee_seeds, "seeds after `{text}`");
                trimmed += seeds.len();
                cur = chase_delta(&cur, &diff, &opts).unwrap();
            }
        }
        // The streams exercise the trim: some kept fact lost a body fact.
        assert!(trimmed > 0);
    }

    #[test]
    fn delta_step_budget_matches_from_scratch() {
        let (cs, ct, closure) = closure_setting();
        let closure_source = Instance::parse(&cs, "E(a,b) E(b,c) E(c,d)").unwrap();
        let (ss, st, staffed) = keyless_exchange(true);
        let staffed_start = staffed_source(&ss);
        let es = Schema::parse("Emp/2").unwrap();
        let et = Schema::parse("Dept/2 Audit/2").unwrap();
        let egd = ExchangeSetting {
            st_tgds: vec![parse_tgd(&es, &et, "Emp(e,d) -> Dept(d,e)").unwrap()],
            target_tgds: vec![parse_tgd(&et, &et, "Dept(d,m) -> exists q . Audit(m,q)").unwrap()],
            egds: vec![parse_egd(&et, "Dept(d,m), Dept(d,n) -> m = n").unwrap()],
        };
        let egd_source = Instance::parse(&es, "Emp(a,d1) Emp(b,d2)").unwrap();
        let opts = DeltaChaseOptions::default();
        for (s, t, setting, source, diffs) in [
            (
                &cs,
                &ct,
                &closure,
                &closure_source,
                &["+ E(d,e) E(e,f)", "- E(a,b) E(b,c)"][..],
            ),
            (
                &ss,
                &st,
                &staffed,
                &staffed_start,
                &["- Emp(sx3,sd3,sc)", "+ Emp(sx20,sd20,sc)"],
            ),
            (&es, &et, &egd, &egd_source, &["+ Emp(c,d3)", "- Emp(a,d1)"]),
        ] {
            let mut cur = chase_incremental(setting, source, t, &opts).unwrap();
            let mut inst = source.clone();
            for text in diffs {
                let diff = Diff::parse(s, text).unwrap();
                cur = chase_delta(&cur, &diff, &opts).unwrap();
                diff.apply(&mut inst).unwrap();
                let scratch = chase_incremental(setting, &inst, t, &opts).unwrap();
                assert_eq!(render(&cur), render(&scratch), "after `{text}`");
                assert!(cur.stats.certified, "after `{text}`");
                assert_eq!(
                    (cur.stats.budget, cur.stats.certified),
                    (scratch.stats.budget, scratch.stats.certified),
                    "after `{text}`"
                );
            }
        }
    }

    #[test]
    fn record_off_yields_no_memo_and_delta_falls_back() {
        let (s, t, setting) = closure_setting();
        let source = Instance::parse(&s, "E(a,b) E(b,c)").unwrap();
        let opts = DeltaChaseOptions {
            record: false,
            ..Default::default()
        };
        let prev = chase_incremental(&setting, &source, &t, &opts).unwrap();
        assert!(!prev.has_memo());
        let diff = Diff::parse(&s, "+ E(c,d)").unwrap();
        let next = chase_delta(&prev, &diff, &opts).unwrap();
        let mut updated = source.clone();
        diff.apply(&mut updated).unwrap();
        let scratch = chase_incremental(&setting, &updated, &t, &opts).unwrap();
        assert_eq!(render(&next), render(&scratch));
    }

    #[test]
    fn cache_eviction_is_scoped_and_counted() {
        let (s, t, setting) = closure_setting();
        let source = Instance::parse(&s, "E(a,b) E(b,c)").unwrap();
        let cache = Arc::new(HomCache::new());
        let opts = DeltaChaseOptions {
            cache: Some(cache.clone()),
            ..Default::default()
        };
        let prev = chase_incremental(&setting, &source, &t, &opts).unwrap();
        // Seed the cache with an entry mentioning the solution relation
        // (null-only probe: the quick-refutation prefilter passes, so
        // the answer is computed and memoized under both fingerprints).
        let sol = prev.solution().unwrap();
        let other = Instance::parse(&t, "T(N90,N91)").unwrap();
        cache.has_hom(&other, sol);
        let diff = Diff::parse(&s, "+ E(c,d)").unwrap();
        let next = chase_delta(&prev, &diff, &opts).unwrap();
        assert!(next.stats.exec.cache_evictions > 0);
        assert_eq!(cache.evictions(), next.stats.exec.cache_evictions);
    }
}
