//! The chase kernel: the one enumerate → commit → fire path under the
//! standard, target and incremental chases.
//!
//! * [`Kernel::enumerate`] finds triggers over an immutable snapshot,
//!   fanned out over the executor: one task per tgd, or one per (tgd,
//!   body atom) with that atom pinned to the snapshot's per-round delta.
//! * [`Kernel::commit`] fires an ordered trigger stream sequentially —
//!   budget checkpoint, optional restricted-chase head check, [`fire`],
//!   fact charge — and counts the round and its firings.
//! * [`fire`] inserts one head pattern [`instantiate`]d under a
//!   trigger's body values, minting fresh nulls for the remaining
//!   variables. The disjunctive chase fires its disjuncts through it as
//!   well.
//!
//! The callers decide the trigger order: the s-t chase commits in the
//! engine's enumeration order and target rounds in canonical (sorted,
//! deduplicated) order. The incremental s-t stage commits nothing: it
//! patches the previous base, instantiating and head-checking only the
//! triggers its diff adds or re-decides.

use crate::delta::SupportLog;
use crate::error::{ChaseError, ChasePartial};
use qi_exec::{par_map_budgeted_hinted, CostHint, Exceeded, ExecConfig, ExecStats};
use qi_lang::{compile_atoms, Tgd, Var};
use qi_schema::{
    plan_pattern, planning_enabled_for, Assignment, Instance, MatchConstraints, MatchCounters,
    MatchEngine, PatTerm, Pattern, RelId, Value,
};

/// Compiled form of one tgd: body and head patterns built once and
/// reused across triggers — and, for the target chase, across rounds
/// (the per-dependency persistent engine state).
pub(crate) struct CompiledTgd {
    /// Body pattern over variables `0..n_body_vars`.
    pub(crate) body: Pattern,
    /// Head pattern over all variables (body vars shared, existential
    /// head vars after them).
    pub(crate) head: Pattern,
    /// Number of body (universally quantified) variables.
    pub(crate) n_body_vars: usize,
}

pub(crate) fn compile(tgd: &Tgd) -> CompiledTgd {
    let mut vars: Vec<Var> = Vec::new();
    let body_facts = compile_atoms(&tgd.body, &mut vars);
    let n_body_vars = vars.len();
    let head_facts = compile_atoms(&tgd.head, &mut vars);
    CompiledTgd {
        body: Pattern {
            facts: body_facts,
            nvars: n_body_vars,
        },
        head: Pattern {
            facts: head_facts,
            nvars: vars.len(),
        },
        n_body_vars,
    }
}

/// Crude conversion from a join plan's relative cost units to estimated
/// nanoseconds (≈500ns per visited binding, calibrated on the 9-tgd join
/// sweep: est_cost 62 per tgd vs ~31µs measured per enumeration task).
/// Only used for morsel sizing — never for correctness.
const NS_PER_EST_UNIT: u64 = 500;

/// Per-task [`CostHint`] for a trigger-enumeration fan-out: the mean
/// planned cost estimate of the `(tgd, delta atom)` tasks against
/// `instance`, converted to nanoseconds. A task with a delta atom scans
/// that atom's per-round delta, not its relation, so it is priced at the
/// delta's share of its tgd's full enumeration: a scan over a handful of
/// new facts stays on one worker while a large delta still fans out.
/// No hint when planning is disabled (the *resolved* per-request mode,
/// not the process global), so the unplanned path keeps the historical
/// scheduling exactly.
fn enumeration_hint(
    compiled: &[CompiledTgd],
    tasks: &[(usize, Option<usize>)],
    instance: &Instance,
    planned: bool,
) -> CostHint {
    if tasks.is_empty() || !planned {
        return CostHint::none();
    }
    let store = instance.store();
    let full: Vec<u64> = compiled
        .iter()
        .map(|c| {
            let prebound = vec![false; c.body.nvars];
            plan_pattern(&c.body, store, None, None, &prebound)
                .est_cost
                .max(1)
        })
        .collect();
    let total: u64 = tasks
        .iter()
        .map(|&(ti, delta_atom)| {
            let Some(atom) = delta_atom else {
                return full[ti];
            };
            let rel = compiled[ti].body.facts[atom].rel.index();
            if rel >= store.num_rels() {
                return 0;
            }
            let delta = store.delta_ids(rel).len() as u64;
            full[ti].saturating_mul(delta) / (store.rel_len(rel) as u64).max(1)
        })
        .fold(0u64, u64::saturating_add);
    let mean = (total / tasks.len() as u64).max(1);
    CostHint::per_item_ns(mean.saturating_mul(NS_PER_EST_UNIT))
}

/// Fold one engine's match counters into the executor stats. Per-engine
/// counters are `Cell`s that die with the engine, so every throwaway
/// engine (head-satisfaction probes, egd scans, per-delta-atom round
/// engines) must be drained through here for `--stats` totals to stay
/// honest.
pub(crate) fn absorb_match_counters(exec: &mut ExecStats, c: &MatchCounters) {
    exec.postings_reused += c.postings_reused;
    exec.postings_rebuilt += c.postings_rebuilt;
    exec.plans_applied += c.plans_applied;
    exec.prefilter_hits += c.prefilter_hits;
    exec.bloom_hits += c.bloom_hits;
    exec.bloom_false_positives += c.bloom_false_positives;
}

/// The values of variables `0..n` in a complete match.
pub(crate) fn values_of(a: &Assignment, n: usize) -> Vec<Value> {
    (0..n as u32).map(|i| a.value(i)).collect()
}

/// Constraints pinning variables `0..body_vals.len()` to `body_vals`:
/// the search for a head (or disjunct) extension of a trigger.
pub(crate) fn pinned(body_vals: &[Value]) -> MatchConstraints {
    MatchConstraints {
        fixed: (0..).zip(body_vals.iter().copied()).collect(),
        ..Default::default()
    }
}

/// The [`ChaseError::Resource`] of a tripped budget, carrying the
/// instance as of the last committed step (if there is one).
pub(crate) fn tripped(e: Exceeded, stats: &ExecStats, partial: Option<&Instance>) -> ChaseError {
    let partial = partial.map_or(ChasePartial::None, |i| ChasePartial::Instance(i.clone()));
    ChaseError::resource(e, stats.clone(), partial)
}

/// Does the head of `c` have a satisfying extension in `target` when the
/// body variables take the values `body_vals` (indexed by variable)?
pub(crate) fn head_satisfied(
    c: &CompiledTgd,
    body_vals: &[Value],
    target: &Instance,
    exec: &mut ExecStats,
    planned: bool,
) -> bool {
    let constraints = pinned(body_vals);
    let engine = MatchEngine::new(&c.head, target, &constraints).with_planning(planned);
    let sat = engine.exists();
    absorb_match_counters(exec, &engine.counters());
    sat
}

/// A fact addressed store-style: `(relation index, tuple)`. The
/// identity facts carry in support logs and DRed worklists — cheap to
/// order (`BTreeMap`/`BTreeSet` keys) and schema-free.
pub(crate) type FactKey = (usize, Vec<Value>);

/// The body-atom facts of one trigger: `c.body` substituted under
/// `body_vals`. In enumeration-key terms this *is* the trigger's key —
/// `MatchEngine::all` visits assignments in lexicographic order of
/// exactly this sequence, which is what lets an incremental run merge
/// memoized and fresh triggers back into from-scratch order.
pub(crate) fn body_fact_keys(c: &CompiledTgd, body_vals: &[Value]) -> Vec<FactKey> {
    c.body
        .facts
        .iter()
        .map(|fact| {
            let args = fact
                .args
                .iter()
                .map(|t| match *t {
                    PatTerm::Value(v) => v,
                    PatTerm::Var(i) => body_vals[i as usize],
                })
                .collect();
            (fact.rel.index(), args)
        })
        .collect()
}

/// Instantiate `head` for one trigger: variables below `body_vals.len()`
/// take the trigger's values, every other variable one fresh null from
/// `next_null` on (in order of first occurrence), shared across the
/// head atoms.
pub(crate) fn instantiate<'a>(
    head: &'a Pattern,
    body_vals: &'a [Value],
    next_null: &'a mut u64,
) -> impl Iterator<Item = (RelId, Vec<Value>)> + 'a {
    let mut exist_vals: Vec<Option<Value>> = vec![None; head.nvars];
    head.facts.iter().map(move |fact| {
        let args = fact
            .args
            .iter()
            .map(|term| match *term {
                PatTerm::Value(v) => v,
                PatTerm::Var(i) => match body_vals.get(i as usize) {
                    Some(&v) => v,
                    None => *exist_vals[i as usize].get_or_insert_with(|| {
                        let v = Value::null(*next_null);
                        *next_null += 1;
                        v
                    }),
                },
            })
            .collect();
        (fact.rel, args)
    })
}

/// [`instantiate`] `head` for one trigger and insert its facts. Each
/// newly inserted fact is pushed to `new_facts` when given; returns how
/// many facts were new.
pub(crate) fn fire(
    head: &Pattern,
    body_vals: &[Value],
    target: &mut Instance,
    next_null: &mut u64,
    mut new_facts: Option<&mut Vec<FactKey>>,
) -> usize {
    let mut added = 0;
    for (rel, args) in instantiate(head, body_vals, next_null) {
        let key = new_facts.is_some().then(|| (rel.index(), args.clone()));
        if target
            .insert(rel, args)
            .expect("head arity validated at construction")
        {
            added += 1;
            if let (Some(out), Some(key)) = (new_facts.as_deref_mut(), key) {
                out.push(key);
            }
        }
    }
    added
}

/// [`fire`] one trigger of `c`, recording each new fact's derivation
/// (the trigger's body facts) in `supports` when given.
pub(crate) fn fire_tgd(
    c: &CompiledTgd,
    body_vals: &[Value],
    target: &mut Instance,
    next_null: &mut u64,
    supports: Option<&mut SupportLog>,
) -> usize {
    let Some(log) = supports else {
        return fire(&c.head, body_vals, target, next_null, None);
    };
    let mut new_facts = Vec::new();
    let added = fire(&c.head, body_vals, target, next_null, Some(&mut new_facts));
    let body = body_fact_keys(c, body_vals);
    for fact in &new_facts {
        log.record(target, fact, &body);
    }
    added
}

/// One trigger of a tgd: its body-variable values, whether it fired,
/// and the first fresh null its firing minted (`None` when the
/// restricted check skipped it or its tgd has no existential
/// variables). A firing mints its tgd's existential nulls
/// consecutively, so the first one names them all. Triggers of one tgd
/// order by their body values.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Trigger {
    pub(crate) body_vals: Vec<Value>,
    pub(crate) fired: bool,
    pub(crate) minted: Option<u64>,
}

/// Per-tgd trigger streams, each in firing order. The s-t chase keeps
/// its stream, decisions included, as the memo an incremental re-chase
/// patches instead of re-enumerating and re-committing old triggers.
pub(crate) type TriggerLog = Vec<Vec<Trigger>>;

/// How [`Kernel::enumerate`] scans the tgd bodies.
#[derive(Clone, Copy)]
pub(crate) enum Scan {
    /// One task per tgd; each tgd's triggers in the engine's
    /// enumeration order (the s-t chase commits in this order).
    Ordered,
    /// One task per tgd, triggers in any order.
    Full,
    /// One task per (tgd, body atom), the atom pinned to the snapshot's
    /// per-round delta, triggers in any order: exactly the triggers that
    /// use a delta fact, each found once per delta atom it uses.
    Delta,
}

/// A compiled tgd set under one execution configuration.
pub(crate) struct Kernel {
    pub(crate) compiled: Vec<CompiledTgd>,
    pub(crate) exec: ExecConfig,
    /// The per-request planning mode of `exec`, resolved once (explicit
    /// modes never consult the process-wide gate).
    pub(crate) planned: bool,
}

impl Kernel {
    pub(crate) fn new(tgds: &[Tgd], exec: &ExecConfig) -> Self {
        Kernel {
            compiled: tgds.iter().map(compile).collect(),
            exec: exec.clone(),
            planned: planning_enabled_for(exec.planning),
        }
    }

    /// Enumerate the triggers of every tgd over the snapshot `over`, per
    /// tgd, counting them (before any deduplication) as enumerated. The
    /// snapshot is immutable, so the tasks are independent pure
    /// computations; results come back in task order at every thread
    /// count.
    pub(crate) fn enumerate(
        &self,
        over: &Instance,
        scan: Scan,
        stats: &mut ExecStats,
    ) -> Result<TriggerLog, Exceeded> {
        let mut tasks: Vec<(usize, Option<usize>)> = Vec::new();
        for (ti, c) in self.compiled.iter().enumerate() {
            match scan {
                Scan::Delta => tasks.extend((0..c.body.facts.len()).map(|a| (ti, Some(a)))),
                Scan::Ordered | Scan::Full => tasks.push((ti, None)),
            }
        }
        let constraints = MatchConstraints::default();
        let hint = enumeration_hint(&self.compiled, &tasks, over, self.planned);
        let (results, par) = par_map_budgeted_hinted(
            self.exec.parallelism,
            &tasks,
            &self.exec.budget,
            hint,
            |&(ti, delta_atom)| {
                let c = &self.compiled[ti];
                let engine = MatchEngine::new(&c.body, over, &constraints)
                    .with_planning(self.planned)
                    .with_delta_atom(delta_atom);
                let found = match scan {
                    Scan::Ordered => engine.all(),
                    Scan::Full | Scan::Delta => engine.all_unordered(),
                };
                let triggers: Vec<Trigger> = found
                    .iter()
                    .map(|a| Trigger {
                        body_vals: values_of(a, c.n_body_vars),
                        fired: false,
                        minted: None,
                    })
                    .collect();
                (triggers, engine.counters())
            },
        )?;
        stats.absorb(&par);
        let mut log: TriggerLog = vec![Vec::new(); self.compiled.len()];
        for ((ti, _), (triggers, counters)) in tasks.into_iter().zip(results) {
            absorb_match_counters(stats, &counters);
            stats.triggers_enumerated += triggers.len() as u64;
            log[ti].extend(triggers);
        }
        Ok(log)
    }

    /// One round's ordered commit: fire `log` tgd by tgd, each stream in
    /// order, into `target`, minting fresh nulls from `next_null` on and
    /// setting each trigger's `minted`. Restricted, a trigger fires only
    /// when its head has no extension in `target` as it stands *now*
    /// (earlier firings count), so firing is sequential. The facts
    /// inserted form `target`'s next per-round delta; each firing
    /// charges them to the budget, and with `supports` set records their
    /// derivation. The budget is checked before every trigger; on
    /// exhaustion `target` so far — a sound prefix of the full run —
    /// rides out on the error. Returns the number of triggers fired.
    pub(crate) fn commit(
        &self,
        log: &mut TriggerLog,
        target: &mut Instance,
        next_null: &mut u64,
        restricted: bool,
        stats: &mut ExecStats,
        mut supports: Option<&mut SupportLog>,
    ) -> Result<usize, ChaseError> {
        let budget = &self.exec.budget;
        stats.rounds += 1;
        target.begin_round();
        let mut fired = 0usize;
        for (c, triggers) in self.compiled.iter().zip(log.iter_mut()) {
            let existential = c.head.nvars > c.n_body_vars;
            for t in triggers {
                if let Err(e) = budget.check() {
                    stats.triggers_fired += fired as u64;
                    return Err(tripped(e, stats, Some(target)));
                }
                t.minted = None;
                t.fired =
                    !restricted || !head_satisfied(c, &t.body_vals, target, stats, self.planned);
                if !t.fired {
                    continue;
                }
                if existential {
                    t.minted = Some(*next_null);
                }
                let added = fire_tgd(c, &t.body_vals, target, next_null, supports.as_deref_mut());
                budget.charge_facts(added as u64);
                fired += 1;
            }
        }
        stats.triggers_fired += fired as u64;
        Ok(fired)
    }
}
