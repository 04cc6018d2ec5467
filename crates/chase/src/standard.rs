//! The standard data-exchange chase with s-t tgds (§2).
//!
//! Given a finite set `Σ` of s-t tgds and a source instance `I`, the chase
//! produces a target instance `U = chase_Σ(I)` that is a *universal
//! solution* for `I`: a solution admitting a homomorphism into every
//! solution. Because the dependencies are source-to-target, the source
//! never grows and a single deterministic pass over all triggers
//! terminates.
//!
//! Two variants are provided:
//!
//! * [`chase`] — the *restricted* (standard) chase: a trigger fires only
//!   when its conclusion is not already satisfiable in the current target
//!   with the frontier fixed. This yields the canonical universal
//!   solution the paper's examples use.
//! * [`chase_oblivious`] — fires every trigger unconditionally (each
//!   once), producing a possibly larger but homomorphically equivalent
//!   universal solution. Useful as a differential-testing oracle.
//!
//! The source instance may itself contain nulls (this happens in §6 when
//! re-chasing the instances recovered by the reverse exchange); nulls in
//! the source are treated as ordinary values by trigger matching, and the
//! fresh nulls minted for existential variables are chosen above every
//! null already present.

use crate::error::{ChaseError, ChasePartial};
use qi_exec::{par_map_budgeted_hinted, Budget, CostHint, ExecConfig, ExecStats};
use qi_lang::{compile_atoms, Tgd, Var};
use qi_schema::{
    plan_pattern, planning_enabled_for, Instance, MatchConstraints, MatchCounters, MatchEngine,
    PatTerm, Pattern, Schema, Value,
};

/// Options for the standard chase.
#[derive(Clone, Debug, Default)]
pub struct ChaseOptions {
    /// Per-request execution configuration: degree of parallelism for
    /// the trigger-enumeration stage (the result is bit-identical at
    /// every setting, see `qi-exec`), the join-planning mode for the
    /// match engines (bit-identical planned or unplanned), and the
    /// cooperative resource budget — checked between executor tasks and
    /// between trigger firings; derived facts are charged as they are
    /// inserted. Budget exhaustion surfaces as [`ChaseError::Resource`]
    /// with the partial target instance. Fixed settings here never
    /// consult the process-wide `set_global_threads` /
    /// `set_planning_override` shims, so concurrent chases with
    /// different configurations are isolated from each other.
    pub exec: ExecConfig,
}

impl ChaseOptions {
    /// Options running under `exec` (the common construction).
    pub fn with_exec(exec: ExecConfig) -> Self {
        ChaseOptions { exec }
    }
}

/// Outcome of a chase run: the result instance plus step statistics.
#[derive(Clone, Debug)]
pub struct ChaseOutcome {
    /// The chased (target) instance.
    pub instance: Instance,
    /// Number of triggers that fired (facts may be fewer after dedup).
    pub fired: usize,
    /// Number of triggers examined.
    pub triggers: usize,
    /// Executor counters for the trigger-enumeration stage.
    pub stats: ExecStats,
}

fn check_schemas(tgds: &[Tgd], source: &Instance, target: &Schema) -> Result<(), ChaseError> {
    for t in tgds {
        if !t.source.same_as(source.schema()) {
            return Err(ChaseError::SchemaMismatch(
                "tgd source schema differs from the instance schema".into(),
            ));
        }
        if !t.target.same_as(target) {
            return Err(ChaseError::InconsistentDependencies(
                "tgds disagree on the target schema".into(),
            ));
        }
    }
    Ok(())
}

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
pub(crate) const NS_PER_EST_UNIT: u64 = 500;

/// Per-task [`CostHint`] for a trigger-enumeration fan-out over
/// `compiled` bodies: the mean planned cost estimate against `instance`,
/// converted to nanoseconds. No hint when planning is disabled (the
/// *resolved* per-request mode, not the process global), so the
/// unplanned path keeps the historical scheduling exactly.
pub(crate) fn enumeration_hint(
    compiled: &[CompiledTgd],
    instance: &Instance,
    planned: bool,
) -> CostHint {
    if compiled.is_empty() || !planned {
        return CostHint::none();
    }
    let total: u64 = compiled
        .iter()
        .map(|c| {
            let prebound = vec![false; c.body.nvars];
            plan_pattern(&c.body, instance.store(), None, None, &prebound)
                .est_cost
                .max(1)
        })
        .fold(0u64, u64::saturating_add);
    let mean = (total / compiled.len() as u64).max(1);
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

/// Does the head of `c` have a satisfying extension in `target` when the
/// body variables take the values `body_vals` (indexed by variable)?
pub(crate) fn head_satisfied(
    c: &CompiledTgd,
    body_vals: &[Value],
    target: &Instance,
    exec: &mut ExecStats,
    planned: bool,
) -> bool {
    let fixed: Vec<(u32, Value)> = body_vals
        .iter()
        .enumerate()
        .map(|(i, &v)| (i as u32, v))
        .collect();
    let constraints = MatchConstraints {
        fixed,
        ..Default::default()
    };
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

/// [`fire`] that additionally reports each *newly inserted* head fact
/// through `on_new` (support recording for DRed).
pub(crate) fn fire_collect(
    c: &CompiledTgd,
    body_vals: &[Value],
    target: &mut Instance,
    next_null: &mut u64,
    mut on_new: impl FnMut(FactKey),
) {
    let mut exist_vals: Vec<Option<Value>> = vec![None; c.head.nvars];
    for fact in &c.head.facts {
        let args: Vec<Value> = fact
            .args
            .iter()
            .map(|term| match *term {
                PatTerm::Value(v) => v,
                PatTerm::Var(i) => {
                    if (i as usize) < c.n_body_vars {
                        body_vals[i as usize]
                    } else {
                        *exist_vals[i as usize].get_or_insert_with(|| {
                            let v = Value::null(*next_null);
                            *next_null += 1;
                            v
                        })
                    }
                }
            })
            .collect();
        let added = target
            .insert(fact.rel, args.clone())
            .expect("head arity validated at construction");
        if added {
            on_new((fact.rel.index(), args));
        }
    }
}

/// Instantiate and insert the head facts for one trigger, minting fresh
/// nulls for existential variables.
pub(crate) fn fire(
    c: &CompiledTgd,
    body_vals: &[Value],
    target: &mut Instance,
    next_null: &mut u64,
) {
    // Existential variables get one fresh null each, shared across the
    // head atoms of this instantiation.
    let mut exist_vals: Vec<Option<Value>> = vec![None; c.head.nvars];
    for fact in &c.head.facts {
        let args: Vec<Value> = fact
            .args
            .iter()
            .map(|term| match *term {
                PatTerm::Value(v) => v,
                PatTerm::Var(i) => {
                    if (i as usize) < c.n_body_vars {
                        body_vals[i as usize]
                    } else {
                        *exist_vals[i as usize].get_or_insert_with(|| {
                            let v = Value::null(*next_null);
                            *next_null += 1;
                            v
                        })
                    }
                }
            })
            .collect();
        target
            .insert(fact.rel, args)
            .expect("head arity validated at construction");
    }
}

/// One logged s-t trigger: its body-variable values and the first
/// fresh null its firing minted (`None` when the restricted check
/// skipped it or its tgd has no existential variables). A firing mints
/// its tgd's existential nulls consecutively, so the first one names
/// them all.
#[derive(Clone, Debug)]
pub(crate) struct StTrigger {
    pub(crate) body_vals: Vec<Value>,
    pub(crate) minted: Option<u64>,
}

/// Per-tgd enumerated triggers in the engine's deterministic
/// enumeration order — the s-t memo an incremental re-chase replays
/// instead of re-enumerating old triggers.
pub(crate) type StTriggerLog = Vec<Vec<StTrigger>>;

fn run(
    tgds: &[Tgd],
    source: &Instance,
    target_schema: &Schema,
    restricted: bool,
    options: ChaseOptions,
) -> Result<ChaseOutcome, ChaseError> {
    run_st(tgds, source, target_schema, restricted, options, None)
}

/// [`run`] with an optional trigger-log sink: when `log` is set, the
/// full per-tgd enumeration (pre-satisfaction-check, in enumeration
/// order, with each trigger's minted null) is recorded into it, so a
/// later `chase_delta` can merge new delta-restricted triggers into the
/// same order without re-running the old joins.
pub(crate) fn run_st(
    tgds: &[Tgd],
    source: &Instance,
    target_schema: &Schema,
    restricted: bool,
    options: ChaseOptions,
    log: Option<&mut StTriggerLog>,
) -> Result<ChaseOutcome, ChaseError> {
    check_schemas(tgds, source, target_schema)?;
    let compiled: Vec<CompiledTgd> = tgds.iter().map(compile).collect();
    // Parallel enumerate: the source is an immutable snapshot, so the
    // per-tgd trigger sets are independent pure computations. Results
    // come back in tgd order, making the commit phase below identical to
    // the sequential chase.
    let constraints = MatchConstraints::default();
    // Resolve the per-request planning mode once at entry; explicit
    // On/Off never consult the process-wide gate.
    let planned = planning_enabled_for(options.exec.planning);
    let budget = &options.exec.budget;
    let hint = enumeration_hint(&compiled, source, planned);
    let (all_matches, mut stats) =
        par_map_budgeted_hinted(options.exec.parallelism, &compiled, budget, hint, |c| {
            let engine = MatchEngine::new(&c.body, source, &constraints).with_planning(planned);
            let matches: Vec<StTrigger> = engine
                .all()
                .iter()
                .map(|a| StTrigger {
                    body_vals: (0..c.n_body_vars as u32).map(|i| a.value(i)).collect(),
                    minted: None,
                })
                .collect();
            (matches, engine.counters())
        })
        .map_err(|e| ChaseError::resource(e, ExecStats::default(), ChasePartial::None))?;
    let mut triggers: StTriggerLog = Vec::with_capacity(all_matches.len());
    for (matches, counters) in all_matches {
        absorb_match_counters(&mut stats, &counters);
        triggers.push(matches);
    }
    let (target, fired) = commit_st(
        &compiled,
        &mut triggers,
        target_schema,
        source.fresh_null_floor(),
        restricted,
        planned,
        budget,
        &mut stats,
    )?;
    let n_triggers = triggers.iter().map(Vec::len).sum();
    if let Some(log) = log {
        *log = triggers;
    }
    Ok(ChaseOutcome {
        instance: target,
        fired,
        triggers: n_triggers,
        stats,
    })
}

/// The ordered commit of an s-t chase over a per-tgd trigger stream:
/// the restricted chase's satisfaction check depends on the evolving
/// target, so firing stays sequential, in (tgd, trigger) order, minting
/// fresh nulls from `next_null` on. Each trigger's `minted` is set to
/// the first null its firing minted. The budget is re-checked between
/// trigger firings; on exhaustion the target so far — a sound prefix
/// of the full run — rides out on the error. Returns the target and the
/// number of triggers that fired.
#[allow(clippy::too_many_arguments)]
pub(crate) fn commit_st(
    compiled: &[CompiledTgd],
    triggers: &mut StTriggerLog,
    target_schema: &Schema,
    mut next_null: u64,
    restricted: bool,
    planned: bool,
    budget: &Budget,
    stats: &mut ExecStats,
) -> Result<(Instance, usize), ChaseError> {
    let mut target = Instance::new(target_schema.clone());
    let limited = !budget.is_unlimited();
    let mut enumerated = 0u64;
    let mut fired = 0u64;
    for (c, matches) in compiled.iter().zip(triggers.iter_mut()) {
        let existential = c.head.nvars > c.n_body_vars;
        for t in matches {
            if limited {
                if let Err(e) = budget.check() {
                    stats.triggers_enumerated += enumerated;
                    stats.triggers_fired += fired;
                    return Err(ChaseError::resource(
                        e,
                        stats.clone(),
                        ChasePartial::Instance(target),
                    ));
                }
            }
            enumerated += 1;
            t.minted = None;
            if restricted && head_satisfied(c, &t.body_vals, &target, stats, planned) {
                continue;
            }
            let before = target.fact_count();
            if existential {
                t.minted = Some(next_null);
            }
            fire(c, &t.body_vals, &mut target, &mut next_null);
            budget.charge_facts((target.fact_count() - before) as u64);
            fired += 1;
        }
    }
    stats.rounds += 1;
    stats.triggers_enumerated += enumerated;
    stats.triggers_fired += fired;
    Ok((target, fired as usize))
}

/// The standard (restricted) chase: `chase_Σ(I)`.
///
/// Returns the canonical universal solution for `source` under the
/// mapping specified by `tgds`. Deterministic: tgds are processed in
/// order, triggers in the engine's deterministic match order.
///
/// ```
/// use qi_chase::chase;
/// use qi_lang::parse_tgd;
/// use qi_schema::{Instance, Schema};
///
/// let s = Schema::parse("P/2").unwrap();
/// let t = Schema::parse("Q/2").unwrap();
/// let tgds = vec![parse_tgd(&s, &t, "P(x,y) -> exists z . Q(x,z)").unwrap()];
/// let i = Instance::parse(&s, "P(a,b)").unwrap();
/// let u = chase(&tgds, &i, &t).unwrap().instance;
/// assert_eq!(u.to_string(), "Q(a,N0)"); // fresh labeled null for z
/// ```
pub fn chase(
    tgds: &[Tgd],
    source: &Instance,
    target_schema: &Schema,
) -> Result<ChaseOutcome, ChaseError> {
    run(tgds, source, target_schema, true, ChaseOptions::default())
}

/// [`chase`] with explicit [`ChaseOptions`] (degree of parallelism for
/// the trigger-enumeration stage). The result instance is bit-identical
/// at every thread count.
pub fn chase_with_options(
    tgds: &[Tgd],
    source: &Instance,
    target_schema: &Schema,
    options: ChaseOptions,
) -> Result<ChaseOutcome, ChaseError> {
    run(tgds, source, target_schema, true, options)
}

/// The oblivious chase: fires every trigger once, without the
/// satisfaction check. Homomorphically equivalent to [`chase`]'s result.
pub fn chase_oblivious(
    tgds: &[Tgd],
    source: &Instance,
    target_schema: &Schema,
) -> Result<ChaseOutcome, ChaseError> {
    run(tgds, source, target_schema, false, ChaseOptions::default())
}

/// [`chase_oblivious`] with explicit [`ChaseOptions`].
pub fn chase_oblivious_with_options(
    tgds: &[Tgd],
    source: &Instance,
    target_schema: &Schema,
    options: ChaseOptions,
) -> Result<ChaseOutcome, ChaseError> {
    run(tgds, source, target_schema, false, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qi_lang::parse_tgd;
    use qi_schema::hom_equivalent;

    fn setup(src: &str, tgt: &str, deps: &[&str]) -> (Schema, Schema, Vec<Tgd>) {
        let s = Schema::parse(src).unwrap();
        let t = Schema::parse(tgt).unwrap();
        let tgds = deps.iter().map(|d| parse_tgd(&s, &t, d).unwrap()).collect();
        (s, t, tgds)
    }

    #[test]
    fn projection_chase() {
        let (s, t, tgds) = setup("P/2", "Q/1", &["P(x,y) -> Q(x)"]);
        let i = Instance::parse(&s, "P(a,b) P(a,c) P(d,e)").unwrap();
        let u = chase(&tgds, &i, &t).unwrap().instance;
        assert_eq!(u, Instance::parse(&t, "Q(a) Q(d)").unwrap());
    }

    #[test]
    fn decomposition_chase_matches_paper() {
        // Example 3.10 / Figure 1: P(x,y,z) -> Q(x,y) & R(y,z)
        let (s, t, tgds) = setup("P/3", "Q/2 R/2", &["P(x,y,z) -> Q(x,y) & R(y,z)"]);
        let i = Instance::parse(&s, "P(a,b,c) P(a2,b,c2)").unwrap();
        let u = chase(&tgds, &i, &t).unwrap().instance;
        assert_eq!(
            u,
            Instance::parse(&t, "Q(a,b) Q(a2,b) R(b,c) R(b,c2)").unwrap()
        );
    }

    #[test]
    fn existentials_get_fresh_nulls() {
        let (s, t, tgds) = setup("P/2", "Q/2", &["P(x,y) -> exists z . Q(x,z) & Q(z,y)"]);
        let i = Instance::parse(&s, "P(a,b)").unwrap();
        let u = chase(&tgds, &i, &t).unwrap().instance;
        assert_eq!(u.fact_count(), 2);
        assert_eq!(u.nulls().len(), 1);
        let n = Value::Null(*u.nulls().iter().next().unwrap());
        assert!(u.contains(t.rel("Q").unwrap(), &[Value::constant("a"), n]));
        assert!(u.contains(t.rel("Q").unwrap(), &[n, Value::constant("b")]));
    }

    #[test]
    fn restricted_chase_reuses_satisfied_heads() {
        // Second tgd's head is already satisfied by the first one's output.
        let (s, t, tgds) = setup("P/1 R/1", "Q/1", &["P(x) -> Q(x)", "R(x) -> Q(x)"]);
        let i = Instance::parse(&s, "P(a) R(a)").unwrap();
        let out = chase(&tgds, &i, &t).unwrap();
        assert_eq!(out.instance.fact_count(), 1);
        assert_eq!(out.fired, 1);
        assert_eq!(out.triggers, 2);
    }

    #[test]
    fn oblivious_is_hom_equivalent_to_restricted() {
        let (s, t, tgds) = setup(
            "P/2",
            "Q/2",
            &["P(x,y) -> exists z . Q(x,z)", "P(x,y) -> Q(x,y)"],
        );
        let i = Instance::parse(&s, "P(a,b) P(b,c)").unwrap();
        let r = chase(&tgds, &i, &t).unwrap().instance;
        let o = chase_oblivious(&tgds, &i, &t).unwrap().instance;
        assert!(hom_equivalent(&r, &o));
        assert!(o.fact_count() >= r.fact_count());
    }

    #[test]
    fn chase_of_source_with_nulls() {
        // §6: re-chasing recovered instances that contain nulls.
        let (s, t, tgds) = setup("P/2", "Q/2", &["P(x,y) -> exists z . Q(x,z)"]);
        let i = Instance::parse(&s, "P(a,N5)").unwrap();
        let u = chase(&tgds, &i, &t).unwrap().instance;
        assert_eq!(u.fact_count(), 1);
        // the fresh null is distinct from N5
        let fresh: Vec<u64> = u.nulls().iter().map(|n| n.0).collect();
        assert_eq!(fresh.len(), 1);
        assert!(fresh[0] >= 6);
    }

    #[test]
    fn repeated_body_variables_join() {
        let (s, t, tgds) = setup("E/2", "M/1", &["E(x,x) -> M(x)"]);
        let i = Instance::parse(&s, "E(a,a) E(a,b)").unwrap();
        let u = chase(&tgds, &i, &t).unwrap().instance;
        assert_eq!(u, Instance::parse(&t, "M(a)").unwrap());
    }

    #[test]
    fn multi_atom_body_joins() {
        let (s, t, tgds) = setup("E/2", "F/2 M/1", &["E(x,z) & E(z,y) -> F(x,y) & M(z)"]);
        let i = Instance::parse(&s, "E(a,b) E(b,c)").unwrap();
        let u = chase(&tgds, &i, &t).unwrap().instance;
        assert_eq!(u, Instance::parse(&t, "F(a,c) M(b)").unwrap());
    }

    #[test]
    fn empty_source_chases_to_empty() {
        let (s, t, tgds) = setup("P/2", "Q/1", &["P(x,y) -> Q(x)"]);
        let i = Instance::new(s);
        let u = chase(&tgds, &i, &t).unwrap().instance;
        assert!(u.is_empty());
    }

    #[test]
    fn schema_mismatch_rejected() {
        let (_, t, tgds) = setup("P/2", "Q/1", &["P(x,y) -> Q(x)"]);
        let other = Schema::parse("Z/1").unwrap();
        let i = Instance::new(other);
        assert!(chase(&tgds, &i, &t).is_err());
    }
}
