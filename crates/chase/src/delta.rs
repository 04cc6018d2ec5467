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
//! The s-t stage is **memoize enumeration, redo commits**: the producing
//! run records each tgd's full trigger enumeration (`body_vals` in the
//! engine's deterministic order). On a delta, old triggers whose body
//! facts survive are *replayed*, new triggers are enumerated with the
//! engine's delta-atom restriction (one body atom pinned to the newly
//! inserted facts), and the two streams are merged by the triggers'
//! enumeration key — the substituted body-atom fact sequence, which
//! `MatchEngine::all` visits in lexicographic order. The merged stream
//! is exactly the from-scratch stream on the updated source, so the
//! sequential commit loop (restricted-chase satisfaction checks, fresh
//! nulls in firing order) reproduces the from-scratch target bit for
//! bit.
//!
//! The replay renumbers fresh nulls: a change early in trigger order
//! shifts every null minted after it. The commit loop records the first
//! null each trigger minted, and a trigger that fires in both runs maps
//! its old nulls to its new ones. That null renaming ρ is strictly
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
//! or egds fall back to re-running the target stage from the replayed
//! s-t output — still byte-identical, still skipping nothing observable.
//!
//! Finally, fingerprint-keyed [`HomCache`] entries mentioning a changed
//! relation are evicted (a freshness/memory policy — cached entries are
//! keyed by instance content, so eviction is never needed for
//! correctness).

use crate::error::ChaseError;
use crate::kernel::{
    absorb_match_counters, body_fact_keys, fire_tgd, tripped, values_of, CompiledTgd, FactKey,
    Kernel, Scan, Trigger, TriggerLog,
};
use crate::standard::{run_st, ChaseOptions};
use crate::target::{
    ExchangeSetting, Rounds, TargetChaseOptions, TargetChaseResult, TargetChaseStats,
};
use qi_exec::{ExecConfig, ExecStats};
use qi_schema::{
    Diff, Fact, HomCache, Instance, MatchConstraints, MatchEngine, NullId, PatTerm, RelId, Schema,
    TupleId, Value,
};
use std::collections::{BTreeMap, BTreeSet, HashSet};
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
#[derive(Clone, Debug, Default)]
pub struct SupportLog {
    /// derived fact → body facts of its recorded deriving trigger.
    derived: BTreeMap<FactId, Vec<FactId>>,
    /// body fact → derived facts whose recorded derivation uses it.
    dependents: BTreeMap<FactId, Vec<FactId>>,
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
        let body: Vec<FactId> = body.iter().map(|b| fact_id(solution, b)).collect();
        self.forget(fact);
        for &b in &body {
            self.dependents.entry(b).or_default().push(fact);
        }
        self.derived.insert(fact, body);
    }

    /// Drop the record of `fact` (and its entries in the reverse index).
    fn forget(&mut self, fact: FactId) {
        let Some(body) = self.derived.remove(&fact) else {
            return;
        };
        for b in body {
            if let Some(ds) = self.dependents.get_mut(&b) {
                ds.retain(|&d| d != fact);
                if ds.is_empty() {
                    self.dependents.remove(&b);
                }
            }
        }
    }

    /// The derived facts whose recorded derivation uses `body_fact`.
    fn dependents(&self, body_fact: FactId) -> &[FactId] {
        self.dependents.get(&body_fact).map_or(&[], Vec::as_slice)
    }

    /// The log restricted to the facts `live` keeps, in one pass over
    /// both maps. Records of dropped facts vanish with them. A kept fact
    /// whose recorded body lost a fact keeps the rest of its body and is
    /// returned as an over-deletion seed: its only recorded derivation
    /// is gone.
    fn restricted(&self, live: impl Fn(FactId) -> bool) -> (SupportLog, Vec<FactId>) {
        let mut seeds = Vec::new();
        let derived = self
            .derived
            .iter()
            .filter(|(&d, _)| live(d))
            .map(|(&d, body)| {
                let kept: Vec<FactId> = body.iter().copied().filter(|&b| live(b)).collect();
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
                (!ds.is_empty()).then_some((b, ds))
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

/// The null renaming ρ from a previous run's namespace into a replayed
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
    /// null `n`, when its trigger fires again.
    minted: Vec<Option<u64>>,
}

impl NullRenaming {
    /// ρ after a replay: `merged` is the new run's committed trigger
    /// stream and `old_minted` the null each of its triggers minted in
    /// the previous run (`None` for fresh triggers and skipped ones).
    fn new(
        prev: &ChaseResult,
        source: &Instance,
        compiled: &[CompiledTgd],
        merged: &TriggerLog,
        old_minted: &[Vec<Option<u64>>],
    ) -> Self {
        let old_floor = prev.source.fresh_null_floor();
        let span = prev.base.fresh_null_floor().saturating_sub(old_floor);
        let mut minted = vec![None; span as usize];
        for ((c, triggers), olds) in compiled.iter().zip(merged).zip(old_minted) {
            let existentials = (c.head.nvars - c.n_body_vars) as u64;
            for (t, old) in triggers.iter().zip(olds) {
                if let (Some(o), Some(n)) = (*old, t.minted) {
                    for i in 0..existentials {
                        if let Some(slot) = minted.get_mut((o - old_floor + i) as usize) {
                            *slot = Some(n + i);
                        }
                    }
                }
            }
        }
        NullRenaming {
            old_floor,
            source_nulls: source.nulls(),
            minted,
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
    /// Record the memo (s-t trigger log + target support edges) that a
    /// later [`chase_delta`] needs. Off = plain chase; a subsequent
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
    /// configuration, the default step budget and strategy.
    fn target(&self) -> TargetChaseOptions {
        TargetChaseOptions {
            exec: self.exec.clone(),
            ..Default::default()
        }
    }
}

/// The memo a producing run leaves behind for [`chase_delta`].
#[derive(Clone, Debug, Default)]
struct Memo {
    /// Per-tgd s-t trigger enumerations, in enumeration order, with the
    /// first null each trigger minted (the input of the null renaming).
    st_log: TriggerLog,
    /// Target-stage support edges (Datalog-eligible settings only).
    supports: SupportLog,
}

/// A chase result that can be maintained incrementally: the inputs, the
/// intermediate s-t output, the target outcome, stats, and (when
/// recording was on) the replay memo.
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

    /// True when this result carries the memo [`chase_delta`] replays
    /// (recording was on and the target stage succeeded).
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
    let staged = Rounds::new(setting, &opts.target(), source, &st.instance, false).run(
        st.instance.clone(),
        true,
        st.stats,
        opts.record.then_some(&mut supports),
    )?;
    let memo = Memo { st_log, supports };
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

/// Store-style key of a fact.
fn fact_key(f: &Fact) -> FactKey {
    (f.rel.index(), f.args.clone())
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
        // Nothing to replay: a memo-less or failed previous run gives
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

    // ---- s-t stage: memoized replay + delta enumeration ----
    // Enumerate only the *new* triggers: the per-round delta of `source`
    // holds exactly the effectively added facts. Unordered is safe: the
    // merge below re-keys every new trigger by its enumeration key, which
    // also dedups a trigger with two new body facts (found twice).
    let st = Kernel::new(&setting.st_tgds, &opts.exec);
    let fresh = st
        .enumerate(&source, Scan::Delta, &mut exec)
        .map_err(|e| tripped(e, &exec, None))?;
    let removed_keys: HashSet<FactKey> = diff.removed.iter().map(fact_key).collect();

    // Merge memoized survivors with the fresh triggers by enumeration
    // key. Old triggers arrive in enumeration order (= key order), and
    // fresh triggers cannot collide with survivors (each uses at least
    // one genuinely new fact), so this merge *is* the from-scratch
    // enumeration of the updated source. Survivors carry the null they
    // minted in the previous run until the commit overwrites it.
    let mut merged_log: TriggerLog = Vec::with_capacity(st.compiled.len());
    for ((c, old), fresh) in st.compiled.iter().zip(&memo.st_log).zip(fresh) {
        let fresh: BTreeMap<Vec<FactKey>, Trigger> = fresh
            .into_iter()
            .map(|t| (body_fact_keys(c, &t.body_vals), t))
            .collect();
        let mut fresh = fresh.into_iter().peekable();
        let mut out: Vec<Trigger> = Vec::with_capacity(old.len() + fresh.len());
        for t in old {
            let key = body_fact_keys(c, &t.body_vals);
            if key.iter().any(|k| removed_keys.contains(k)) {
                continue; // trigger lost a body fact
            }
            while let Some((_, n)) = fresh.next_if(|(nk, _)| *nk < key) {
                out.push(n);
            }
            out.push(t.clone());
        }
        out.extend(fresh.map(|(_, t)| t));
        merged_log.push(out);
    }
    let old_minted: Vec<Vec<Option<u64>>> = merged_log
        .iter()
        .map(|ts| ts.iter().map(|t| t.minted).collect())
        .collect();

    // Redo the commits: the from-scratch s-t commit, over the merged
    // stream.
    let mut base_new = Instance::new(target_schema);
    let mut next_null = source.fresh_null_floor();
    st.commit(
        &mut merged_log,
        &mut base_new,
        &mut next_null,
        true,
        &mut exec,
        None,
    )?;

    // ---- target stage ----
    let rounds = Rounds::new(setting, &opts.target(), &source, &base_new, false);
    let (staged, supports) = if rounds.datalog() && opts.record {
        // Rename the previous solution into the new run's null
        // namespace; tuple ids survive, so the support log only drops
        // the dead ones. From here on DRed sees only the real change.
        let rho = NullRenaming::new(prev, &source, &st.compiled, &merged_log, &old_minted);
        let mut working = prev_solution.rename_nulls(|n| rho.null(n));
        exec.facts_deleted += (prev_solution.fact_count() - working.fact_count()) as u64;
        let live = |(rel, id): FactId| working.store().live_tuple(rel as usize, id).is_some();
        let (mut supports, mut seeds) = memo.supports.restricted(live);
        // Base facts that survive the renaming but not the update.
        for rel in prev.base.schema().rel_ids() {
            for t in prev.base.tuples(rel) {
                let id = prev_solution
                    .store()
                    .tuple_id(rel.index(), t)
                    .expect("the s-t output is part of the solution");
                if let Some(renamed) = working.store().live_tuple(rel.index(), id) {
                    if !base_new.contains(rel, renamed) {
                        seeds.push((rel.index() as u32, id));
                    }
                }
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
        for rel in base_new.schema().rel_ids() {
            for t in base_new.tuples(rel) {
                if !working.contains(rel, t) {
                    working
                        .insert(rel, t.clone())
                        .map_err(|e| ChaseError::SchemaMismatch(e.to_string()))?;
                }
            }
        }
        let staged = rounds.run(working, false, exec, Some(&mut supports))?;
        (staged, supports)
    } else {
        // Existential target tgds or egds: re-run the target stage from
        // the replayed base — byte-identical by construction.
        let staged = rounds.run(base_new.clone(), true, exec, None)?;
        (staged, SupportLog::default())
    };
    let memo = Memo {
        st_log: merged_log,
        supports,
    };
    let mut next = finish(setting, source, base_new, staged, opts, memo);
    evict_cache(opts, prev, &mut next);
    Ok(next)
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
            let key = (rel, t.clone());
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
                let atom = &c.head.facts[ai];
                // Unify the head atom with the deleted fact: constants
                // must match, repeated variables must agree. Eligible
                // settings are existential-free, so every head variable
                // is a body variable.
                let mut fixed: Vec<(u32, Value)> = Vec::new();
                for (t, &v) in atom.args.iter().zip(&k.1) {
                    match *t {
                        PatTerm::Value(pv) => {
                            if pv != v {
                                continue 'producers;
                            }
                        }
                        PatTerm::Var(i) => match fixed.iter().find(|(j, _)| *j == i) {
                            Some(&(_, w)) if w != v => continue 'producers,
                            Some(_) => {}
                            None => fixed.push((i, v)),
                        },
                    }
                }
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

    #[test]
    fn mid_stream_diff_deletes_on_the_order_of_the_diff() {
        // The keyless exchange shape: every Emp trigger mints a null, so
        // a diff in the middle of the trigger order shifts every later
        // null by one. The null renaming absorbs the shift: DRed sees
        // only the facts that really changed.
        let s = Schema::parse("Emp/3 Mgr/2").unwrap();
        let t = Schema::parse("Works/2 Dept/2 Boss/2 Reach/2").unwrap();
        let setting = ExchangeSetting {
            st_tgds: vec![
                parse_tgd(&s, &t, "Emp(n,d,c) -> exists m . Works(n,d) & Dept(d,m)").unwrap(),
                parse_tgd(&s, &t, "Mgr(a,b) -> Boss(a,b)").unwrap(),
            ],
            target_tgds: vec![
                parse_tgd(&t, &t, "Works(n,d) & Dept(d,m) -> Boss(n,m)").unwrap(),
                parse_tgd(&t, &t, "Boss(x,y) & Boss(y,z) -> Reach(x,z)").unwrap(),
            ],
            egds: vec![],
        };
        // Constants are interned (and so ordered) in loop order.
        let facts: Vec<String> = (0..40)
            .flat_map(|i| {
                [
                    format!("Emp(mx{i},md{i},mc)"),
                    format!("Mgr(mx{i},mx{})", i + 1),
                ]
            })
            .collect();
        let source = Instance::parse(&s, &facts.join(" ")).unwrap();
        let opts = DeltaChaseOptions::default();
        let prev = chase_incremental(&setting, &source, &t, &opts).unwrap();
        let size = prev.solution().unwrap().fact_count();
        assert!(size > 200, "solution of {size} facts");
        for (text, max_deleted) in [
            ("- Emp(mx20,md20,mc)", 4),
            ("+ Emp(mx20,md20b,mc)", 0),
            ("- Emp(mx20,md20,mc)\n+ Emp(mx20,md20b,mc)", 4),
        ] {
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
