//! The chase with **target dependencies**: target tgds and egds.
//!
//! The classical data-exchange setting (the paper's reference \[4\],
//! FKMP TCS'05) is `(S, T, Σ_st, Σ_t)` where `Σ_t` holds target tgds and
//! egds. The quasi-inverse results are about `Σ_t = ∅`, but a credible
//! data-exchange substrate must support the full setting:
//!
//! * **target tgds** re-trigger on their own output, so termination is
//!   not automatic; the classical sufficient condition is **weak
//!   acyclicity** of `Σ_t`'s dependency graph
//!   ([`qi_analyze::is_weakly_acyclic`]);
//! * **egds** `φ(x) → xᵢ = xⱼ` are repaired by *equating* values — a
//!   null is replaced by the other value; two distinct constants make
//!   the chase **fail** (no solution exists);
//! * [`chase_with_target_deps`] runs s-t chase, then iterates target
//!   tgd and egd steps to a fixpoint, bounded by a step budget
//!   (hit only by non-weakly-acyclic inputs).

use crate::delta::SupportLog;
use crate::error::{ChaseError, ChasePartial};
use crate::standard::{
    absorb_match_counters, body_fact_keys, chase_with_options, compile, enumeration_hint, fire,
    fire_collect, head_satisfied, ChaseOptions, ChaseOutcome, CompiledTgd,
};
use crate::strategy::ChaseStrategy;
use qi_analyze::DependencyGraph;
use qi_exec::{par_map_budgeted_hinted, Exceeded, ExecConfig, ExecStats};
use qi_lang::{compile_atoms, Egd, Tgd, Var};
use qi_schema::{
    planning_enabled_for, Instance, MatchConstraints, MatchEngine, Pattern, Schema, Value,
};
use std::collections::{BTreeSet, HashMap};

/// A data-exchange setting `(S, T, Σ_st, Σ_t)` with `Σ_t` split into
/// target tgds and egds.
#[derive(Clone, Debug)]
pub struct ExchangeSetting {
    /// Source-to-target tgds.
    pub st_tgds: Vec<Tgd>,
    /// Target tgds (source and target schemas both equal to `T`).
    pub target_tgds: Vec<Tgd>,
    /// Target egds.
    pub egds: Vec<Egd>,
}

/// Options for the target chase.
#[derive(Clone, Debug, Default)]
pub struct TargetChaseOptions {
    /// Maximum tgd firings + egd repairs before giving up
    /// ([`ChaseError::Budget`]).
    ///
    /// `None` (the default) derives the budget from the target tgds'
    /// [termination certificate](qi_analyze::TerminationCertificate):
    /// when they are weakly acyclic, the rank-induced step bound on the
    /// actual input size is used (the chase provably stays under it, so
    /// the budget only trips on an engine bug); otherwise the
    /// [`FALLBACK_MAX_STEPS`] safety net applies.
    pub max_steps: Option<usize>,
    /// Per-round trigger enumeration: delta-restricted semi-naive
    /// rounds (the default) or full naive re-enumeration. The chased
    /// instance is byte-identical either way.
    pub strategy: ChaseStrategy,
    /// Per-request execution configuration, shared by the s-t stage and
    /// every target round. Parallelism drives per-round trigger
    /// enumeration (the result is bit-identical at every setting, see
    /// `qi-exec`); the planning mode gates the match engines'
    /// cost-based join ordering (also bit-identical either way); the
    /// cooperative resource budget is checked between executor tasks,
    /// per round, and per trigger firing, with derived facts charged as
    /// they are inserted. Exhaustion surfaces as
    /// [`ChaseError::Resource`] carrying the chase instance as of the
    /// last committed step. Unlimited by default — unlike
    /// [`TargetChaseOptions::max_steps`], which bounds chase *steps*,
    /// the budget bounds wall-clock time, executor tasks, and facts.
    pub exec: ExecConfig,
    /// A pre-computed termination certificate to derive the step budget
    /// from, taking precedence over the self-derived one (but not over
    /// an explicit `max_steps`). Callers that ran the analyzer pass the
    /// *refined* certificate from `qi_analyze::refined_certificate`
    /// here — built over the live target tgds only, with per-relation
    /// fact caps — so the budget tightens on real inputs while remaining
    /// a sound upper bound on the chase's steps.
    pub certificate: Option<qi_analyze::TerminationCertificate>,
}

/// Step budget for target chases whose tgds are *not* weakly acyclic
/// (no certificate exists; termination is not guaranteed).
pub const FALLBACK_MAX_STEPS: usize = 100_000;

/// Outcome of a target chase: the instance, or `Failed` when an egd
/// demanded the equality of two distinct constants (then `I` has **no**
/// solution under the setting).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TargetChaseResult {
    /// The chase terminated with a canonical universal solution.
    Solution(Instance),
    /// An egd equated two distinct constants: no solution exists.
    Failed {
        /// The two constants that were required to be equal.
        left: Value,
        /// See `left`.
        right: Value,
    },
}

/// The **critical instance** of a schema: one fact per relation, every
/// position filled with the same fresh constant `*`. Any instance over
/// the schema maps homomorphically onto it (collapse all values to `*`),
/// so the chase of the critical instance over-approximates every
/// concrete chase — the foundation of `qi_analyze`'s abstract chase,
/// exposed here so oracles can run the *concrete* engines over it.
pub fn critical_instance(schema: &Schema) -> Instance {
    let mut i = Instance::new(schema.clone());
    for rel in schema.rel_ids() {
        let stars: Vec<&str> = vec!["*"; schema.arity(rel)];
        i.insert_consts(&schema.sym(rel).name, &stars)
            .expect("critical fact matches the schema by construction");
    }
    i
}

/// Enumerate one round's triggers over the round-start snapshot, as a
/// canonically ordered set of `(tgd index, body-variable values)`.
///
/// With `full` unset (semi-naive), each tgd spawns one delta-restricted
/// enumeration per body atom — a match is found iff some body atom is a
/// fact of the current delta — and the `BTreeSet` dedups triggers found
/// through several delta atoms. The set ordering also makes the firing
/// order independent of how the triggers were discovered, which is what
/// makes naive and semi-naive rounds byte-identical.
fn enumerate_round(
    compiled: &[CompiledTgd],
    current: &Instance,
    full: bool,
    cfg: &RoundsCfg<'_>,
    exec: &mut ExecStats,
) -> Result<BTreeSet<(usize, Vec<Value>)>, Exceeded> {
    let mut tasks: Vec<(usize, Option<usize>)> = Vec::new();
    for (ti, c) in compiled.iter().enumerate() {
        if full {
            tasks.push((ti, None));
        } else {
            for atom in 0..c.body.facts.len() {
                tasks.push((ti, Some(atom)));
            }
        }
    }
    let constraints = MatchConstraints::default();
    let planned = cfg.planned;
    let hint = enumeration_hint(compiled, current, planned);
    let (results, stats) = par_map_budgeted_hinted(
        cfg.exec.parallelism,
        &tasks,
        &cfg.exec.budget,
        hint,
        |&(ti, delta_atom)| {
            let c = &compiled[ti];
            let engine = MatchEngine::new(&c.body, current, &constraints)
                .with_planning(planned)
                .with_delta_atom(delta_atom);
            // Planned visit order is safe on this path: the `BTreeSet`
            // below is the canonical commit barrier that already makes
            // firing order independent of enumeration order.
            let matches: Vec<Vec<Value>> = engine
                .all_unordered()
                .iter()
                .map(|a| (0..c.n_body_vars as u32).map(|i| a.value(i)).collect())
                .collect();
            (matches, engine.counters())
        },
    )?;
    exec.absorb(&stats);
    let mut triggers = BTreeSet::new();
    for ((ti, _), (matches, counters)) in tasks.iter().zip(results) {
        absorb_match_counters(exec, &counters);
        exec.triggers_enumerated += matches.len() as u64;
        for m in matches {
            triggers.insert((*ti, m));
        }
    }
    Ok(triggers)
}

/// One egd compiled for matching: the body pattern and the variable
/// pairs its conclusion equates.
struct CompiledEgd {
    body: Pattern,
    equalities: Vec<(u32, u32)>,
}

fn compile_egd(egd: &Egd) -> CompiledEgd {
    let mut vars: Vec<Var> = Vec::new();
    let facts = compile_atoms(&egd.body, &mut vars);
    let idx = |v: &Var| vars.iter().position(|w| w == v).expect("validated") as u32;
    let equalities = egd
        .equalities
        .iter()
        .map(|(a, b)| (idx(a), idx(b)))
        .collect();
    CompiledEgd {
        body: Pattern {
            facts,
            nvars: vars.len(),
        },
        equalities,
    }
}

/// Which of two distinct values an egd repair keeps and which it
/// replaces, as `(keep, replace)`: a constant beats a null, the smaller
/// null id beats the larger; two constants are a conflict.
fn survivor(a: Value, b: Value) -> Result<(Value, Value), (Value, Value)> {
    match (a, b) {
        (Value::Const(_), Value::Const(_)) => Err((a, b)),
        (Value::Const(_), Value::Null(_)) => Ok((a, b)),
        (Value::Null(_), Value::Const(_)) => Ok((b, a)),
        (Value::Null(x), Value::Null(y)) => Ok(if x <= y { (a, b) } else { (b, a) }),
    }
}

/// The partition one batched repair pass builds: a union-find over
/// values whose root is always the class's [`survivor`] — its constant
/// if it has one, otherwise its smallest null.
#[derive(Default)]
struct Merges {
    /// Parent links of non-root values.
    parent: HashMap<Value, Value>,
    /// Successful unions: Σ(|class| − 1) over the partition.
    merged: usize,
}

impl Merges {
    fn find(&mut self, v: Value) -> Value {
        let mut root = v;
        while let Some(&p) = self.parent.get(&root) {
            root = p;
        }
        let mut at = v;
        while at != root {
            at = self.parent.insert(at, root).expect("non-root has a parent");
        }
        root
    }

    /// Merge the classes of `a` and `b`; `Err` when each holds a
    /// different constant.
    fn union(&mut self, a: Value, b: Value) -> Result<(), (Value, Value)> {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (keep, replace) = survivor(ra, rb)?;
            self.parent.insert(replace, keep);
            self.merged += 1;
        }
        Ok(())
    }
}

/// Repair `egd` one violation at a time: find the first violating match
/// in enumeration order, rewrite the whole instance to equate its two
/// values, restart the search. This is the textbook egd step. The
/// batched pass of [`repair_egds`] replays it on a constant–constant
/// conflict (it names the exact pair [`TargetChaseResult::Failed`]
/// reports), and [`chase_with_target_deps_one_at_a_time`] runs it as the
/// referee the batched pass is tested against.
fn repair_one_at_a_time(
    egd: &CompiledEgd,
    instance: &mut Instance,
    exec: &mut ExecStats,
    planned: bool,
) -> Result<usize, (Value, Value)> {
    let constraints = MatchConstraints::default();
    let mut repairs = 0usize;
    loop {
        let mut violation: Option<(Value, Value)> = None;
        let engine = MatchEngine::new(&egd.body, instance, &constraints).with_planning(planned);
        engine.for_each(|assignment| {
            violation = egd
                .equalities
                .iter()
                .map(|&(a, b)| (assignment.value(a), assignment.value(b)))
                .find(|(va, vb)| va != vb);
            violation.is_none()
        });
        absorb_match_counters(exec, &engine.counters());
        let Some((va, vb)) = violation else {
            return Ok(repairs);
        };
        let (keep, replace) = survivor(va, vb)?;
        *instance = instance.map_values(|v| if v == replace { keep } else { v });
        repairs += 1;
    }
}

/// Repair every egd, in order, to its fixpoint; returns the number of
/// repairs, or the two constants of the first conflict.
///
/// Each egd is a **per-egd least fixpoint**. One `for_each` pass
/// collects every violating pair into a union-find ([`Merges`]), one
/// `map_values` rewrites each class to its representative, and passes
/// repeat until one finds no violation. This is exact against
/// [`repair_one_at_a_time`]:
///
/// * every pair either loop equates is forced by a match in a quotient
///   of the egd's start state, so it lies in the least partition whose
///   quotient satisfies the egd; both stop only once the egd holds, so
///   both reach exactly that unique partition — the same fact set;
/// * the representative rule is the pairwise survivor rule, so each
///   class keeps its constant, or else its smallest null — the same
///   values;
/// * the one-at-a-time loop eliminates one distinct value per repair
///   and a batched pass Σ(|class| − 1), so both count the values
///   eliminated — the same repair count, hence the same `steps`,
///   `rounds` and step budget;
/// * a batched pass meets two constants in one class iff the least
///   partition has such a class iff the one-at-a-time loop fails; the
///   pair it fails on depends on its order, so the conflict replays
///   that loop from the egd's start state. Failure ends the chase, so
///   the replay is never on the solution path.
///
/// Stores iterate, index and enumerate facts in tuple order, so the
/// instance's evaluation state is a function of its fact set as well.
fn repair_egds(
    egds: &[Egd],
    instance: &mut Instance,
    exec: &mut ExecStats,
    planned: bool,
    one_at_a_time: bool,
) -> Result<usize, (Value, Value)> {
    let constraints = MatchConstraints::default();
    let mut repairs = 0usize;
    for egd in egds.iter().map(compile_egd) {
        if one_at_a_time {
            repairs += repair_one_at_a_time(&egd, instance, exec, planned)?;
            continue;
        }
        // The egd's start state, kept once a pass has rewritten it.
        let mut start: Option<Instance> = None;
        loop {
            let mut merges = Merges::default();
            let mut conflict = false;
            let engine = MatchEngine::new(&egd.body, instance, &constraints).with_planning(planned);
            engine.for_each(|assignment| {
                conflict = egd.equalities.iter().any(|&(a, b)| {
                    merges
                        .union(assignment.value(a), assignment.value(b))
                        .is_err()
                });
                !conflict
            });
            absorb_match_counters(exec, &engine.counters());
            if conflict {
                let replay = start.as_mut().unwrap_or(instance);
                let pair = repair_one_at_a_time(&egd, replay, exec, planned)
                    .expect_err("a conflicting partition fails the one-at-a-time loop too");
                return Err(pair);
            }
            if merges.merged == 0 {
                break;
            }
            repairs += merges.merged;
            let mapped = instance.map_values(|v| merges.find(v));
            let before = std::mem::replace(instance, mapped);
            start.get_or_insert(before);
        }
    }
    Ok(repairs)
}

/// How a target chase spent its step budget — returned by
/// [`chase_with_target_deps_stats`] so callers (and the bound tests)
/// can audit that certified runs stay under the certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TargetChaseStats {
    /// Tgd firings + egd repairs actually performed.
    pub steps: usize,
    /// The budget the run was held to.
    pub budget: usize,
    /// Whether the budget came from a termination certificate (as
    /// opposed to an explicit `max_steps` or the fallback constant).
    pub certified: bool,
    /// Executor and chase counters summed over the s-t stage and every
    /// target round: triggers enumerated vs. fired, posting-list usage,
    /// rounds, and delta sizes consulted by semi-naive rounds.
    pub exec: ExecStats,
}

/// Chase `source` through the full data-exchange setting: s-t tgds, then
/// target tgds and egds to a fixpoint.
///
/// Deterministic. Termination is guaranteed for weakly acyclic target
/// tgds (check with [`qi_analyze::is_weakly_acyclic`]); other settings
/// run until the step budget trips ([`ChaseError::Budget`]). See
/// [`TargetChaseOptions::max_steps`] for how the budget is chosen.
pub fn chase_with_target_deps(
    setting: &ExchangeSetting,
    source: &Instance,
    target_schema: &Schema,
    options: TargetChaseOptions,
) -> Result<TargetChaseResult, ChaseError> {
    chase_with_target_deps_stats(setting, source, target_schema, options).map(|(r, _)| r)
}

/// [`chase_with_target_deps`] plus budget accounting.
pub fn chase_with_target_deps_stats(
    setting: &ExchangeSetting,
    source: &Instance,
    target_schema: &Schema,
    options: TargetChaseOptions,
) -> Result<(TargetChaseResult, TargetChaseStats), ChaseError> {
    chase_target(setting, source, target_schema, options, false)
}

/// [`chase_with_target_deps_stats`] with every egd repaired one
/// violation at a time, paying a whole-instance rewrite per repair: the
/// referee the batched repair is tested against (same rendered result,
/// `steps`, rounds and `Failed` pair). Not for production use.
#[doc(hidden)]
pub fn chase_with_target_deps_one_at_a_time(
    setting: &ExchangeSetting,
    source: &Instance,
    target_schema: &Schema,
    options: TargetChaseOptions,
) -> Result<(TargetChaseResult, TargetChaseStats), ChaseError> {
    chase_target(setting, source, target_schema, options, true)
}

fn chase_target(
    setting: &ExchangeSetting,
    source: &Instance,
    target_schema: &Schema,
    options: TargetChaseOptions,
    one_at_a_time: bool,
) -> Result<(TargetChaseResult, TargetChaseStats), ChaseError> {
    // The s-t stage inherits the whole execution configuration, so the
    // deadline / caps / planning mode are end-to-end across the
    // exchange.
    let ChaseOutcome {
        instance,
        stats: st_stats,
        ..
    } = chase_with_options(
        &setting.st_tgds,
        source,
        target_schema,
        ChaseOptions {
            exec: options.exec.clone(),
        },
    )?;
    let current = instance;
    let (budget, certified) = derive_step_budget(
        options.max_steps,
        options.certificate.as_ref(),
        &setting.target_tgds,
        current.active_domain().len(),
    );
    let mut next_null = current.fresh_null_floor().max(source.fresh_null_floor());
    let mut steps = 0usize;
    let mut exec = st_stats;
    // Compile every target tgd once; the compiled body/head patterns are
    // the persistent per-dependency engine state reused by all rounds.
    let compiled: Vec<CompiledTgd> = setting.target_tgds.iter().map(compile).collect();
    let cfg = RoundsCfg {
        compiled: &compiled,
        egds: &setting.egds,
        planned: planning_enabled_for(options.exec.planning),
        exec: options.exec.clone(),
        naive: matches!(options.strategy, ChaseStrategy::Naive),
        step_budget: budget,
        one_at_a_time,
    };
    let end = run_rounds(
        &cfg,
        current,
        &mut next_null,
        &mut steps,
        true,
        &mut exec,
        None,
    )?;
    let result = match end {
        RoundsEnd::Fixpoint(u) => TargetChaseResult::Solution(u),
        RoundsEnd::EgdConflict { left, right } => TargetChaseResult::Failed { left, right },
    };
    Ok((
        result,
        TargetChaseStats {
            steps,
            budget,
            certified,
            exec,
        },
    ))
}

/// Resolve the step budget of a target chase: explicit `max_steps`
/// wins, then a caller-provided (possibly refined) certificate, then a
/// self-derived one, then [`FALLBACK_MAX_STEPS`]. The boolean reports
/// whether the budget is certificate-backed.
pub(crate) fn derive_step_budget(
    max_steps: Option<usize>,
    certificate: Option<&qi_analyze::TerminationCertificate>,
    target_tgds: &[qi_lang::Tgd],
    adom_len: usize,
) -> (usize, bool) {
    match (max_steps, certificate) {
        (Some(n), _) => (n, false),
        // A caller-provided (possibly refined) certificate wins over the
        // self-derived one; both bound value growth from the number of
        // distinct values the target chase starts with.
        (None, Some(cert)) => (cert.step_budget(adom_len), true),
        (None, None) => {
            let graph = DependencyGraph::new(target_tgds);
            match graph.certificate(target_tgds) {
                Some(cert) => (cert.step_budget(adom_len), true),
                None => (FALLBACK_MAX_STEPS, false),
            }
        }
    }
}

/// The fixed inputs of a target-chase round loop (everything except the
/// evolving instance and counters).
pub(crate) struct RoundsCfg<'a> {
    /// Compiled target tgds, in dependency order.
    pub(crate) compiled: &'a [CompiledTgd],
    /// Target egds.
    pub(crate) egds: &'a [Egd],
    /// The per-request planning mode of `exec`, resolved once at entry
    /// (explicit modes never consult the process-wide gate).
    pub(crate) planned: bool,
    /// Execution configuration: fan-out for per-round trigger
    /// enumeration and the cooperative resource budget (checked per
    /// round and per firing).
    pub(crate) exec: ExecConfig,
    /// Full re-enumeration every round instead of semi-naive deltas.
    pub(crate) naive: bool,
    /// Maximum tgd firings + egd repairs (`ChaseError::Budget` beyond).
    pub(crate) step_budget: usize,
    /// Repair egds with the one-at-a-time referee loop instead of the
    /// batched passes (see [`chase_with_target_deps_one_at_a_time`]).
    pub(crate) one_at_a_time: bool,
}

/// How a round loop ended (short of an error).
pub(crate) enum RoundsEnd {
    /// No trigger fired and no repair applied: `current` is the
    /// canonical universal solution.
    Fixpoint(Instance),
    /// An egd demanded equality of two distinct constants.
    EgdConflict {
        /// Left constant of the violated equality.
        left: Value,
        /// Right constant of the violated equality.
        right: Value,
    },
}

/// Run target-tgd + egd rounds to a fixpoint over `current`.
///
/// This is the loop both `chase_with_target_deps_stats` (from scratch,
/// `force_full_first = true`) and `qi_chase::chase_delta` (continuation
/// seeded by the instance's current delta, `force_full_first = false`)
/// execute, so the two are byte-identical by construction whenever they
/// enter with the same instance state.
///
/// With `supports` set, every *newly derived* fact records its deriving
/// trigger's body facts (one derivation per fact — the first), which is
/// the support graph DRed walks on deletions. Callers only record in
/// egd-free runs: egd repairs rewrite values wholesale and would
/// invalidate the recorded facts.
pub(crate) fn run_rounds(
    cfg: &RoundsCfg<'_>,
    mut current: Instance,
    next_null: &mut u64,
    steps: &mut usize,
    force_full_first: bool,
    exec: &mut ExecStats,
    mut supports: Option<&mut SupportLog>,
) -> Result<RoundsEnd, ChaseError> {
    let limited = !cfg.exec.budget.is_unlimited();
    let mut force_full = force_full_first;
    loop {
        // Per-round budget check: a non-terminating setting spends its
        // life in this loop, so this is the check that bounds it even if
        // individual rounds are tiny.
        if limited {
            if let Err(e) = cfg.exec.budget.check() {
                return Err(ChaseError::resource(
                    e,
                    exec.clone(),
                    ChasePartial::Instance(current),
                ));
            }
        }
        let full = cfg.naive || force_full;
        if !full {
            exec.delta_facts += current.delta_len() as u64;
        }
        let triggers = match enumerate_round(cfg.compiled, &current, full, cfg, exec) {
            Ok(t) => t,
            Err(e) => {
                return Err(ChaseError::resource(
                    e,
                    exec.clone(),
                    ChasePartial::Instance(current),
                ))
            }
        };
        exec.rounds += 1;
        // Facts inserted by this round's firings form the next delta.
        current.begin_round();
        let mut fired = 0usize;
        for (ti, body_vals) in &triggers {
            // Per-trigger budget check: one round of a wide instance can
            // fire thousands of triggers, so exhaustion must be able to
            // surface mid-round.
            if limited {
                if let Err(e) = cfg.exec.budget.check() {
                    exec.triggers_fired += fired as u64;
                    return Err(ChaseError::resource(
                        e,
                        exec.clone(),
                        ChasePartial::Instance(current),
                    ));
                }
            }
            let c = &cfg.compiled[*ti];
            // Restricted chase: fire only when the head has no satisfying
            // extension in the instance as it stands *now* (earlier
            // firings of this same round count).
            if head_satisfied(c, body_vals, &current, exec, cfg.planned) {
                continue;
            }
            let before = current.fact_count();
            match supports.as_deref_mut() {
                Some(log) => {
                    let mut new_facts = Vec::new();
                    fire_collect(c, body_vals, &mut current, next_null, |f| new_facts.push(f));
                    let body = body_fact_keys(c, body_vals);
                    for fact in &new_facts {
                        log.record(&current, fact, &body);
                    }
                }
                None => fire(c, body_vals, &mut current, next_null),
            }
            cfg.exec
                .budget
                .charge_facts((current.fact_count() - before) as u64);
            fired += 1;
        }
        exec.triggers_fired += fired as u64;
        let repaired =
            match repair_egds(cfg.egds, &mut current, exec, cfg.planned, cfg.one_at_a_time) {
                Ok(n) => n,
                Err((left, right)) => return Ok(RoundsEnd::EgdConflict { left, right }),
            };
        *steps += fired + repaired;
        // Later semi-naive rounds only re-enumerate in full after egd
        // repairs, which rewrite values wholesale and invalidate the
        // delta.
        force_full = repaired > 0;
        if fired == 0 && repaired == 0 {
            return Ok(RoundsEnd::Fixpoint(current));
        }
        if *steps > cfg.step_budget {
            return Err(ChaseError::Budget {
                max_nodes: cfg.step_budget,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qi_lang::{parse_egd, parse_tgd};

    fn setting(
        src: &str,
        tgt: &str,
        st: &[&str],
        tt: &[&str],
        eg: &[&str],
    ) -> (Schema, Schema, ExchangeSetting) {
        let s = Schema::parse(src).unwrap();
        let t = Schema::parse(tgt).unwrap();
        let st_tgds = st.iter().map(|d| parse_tgd(&s, &t, d).unwrap()).collect();
        let target_tgds = tt.iter().map(|d| parse_tgd(&t, &t, d).unwrap()).collect();
        let egds = eg.iter().map(|d| parse_egd(&t, d).unwrap()).collect();
        (
            s,
            t,
            ExchangeSetting {
                st_tgds,
                target_tgds,
                egds,
            },
        )
    }

    #[test]
    fn critical_instance_has_one_all_star_fact_per_relation() {
        let s = Schema::parse("P/2 Q/1 R/3").unwrap();
        let c = critical_instance(&s);
        assert_eq!(c.fact_count(), 3);
        assert_eq!(c.active_domain().len(), 1);
        assert!(c.is_ground());
        assert!(c.contains_fact(&qi_schema::Fact::new(
            s.rel("P").unwrap(),
            vec![Value::constant("*"), Value::constant("*")]
        )));
    }

    #[test]
    fn transitive_closure_is_weakly_acyclic_and_terminates() {
        let (s, t, setting) = setting(
            "E0/2",
            "E/2",
            &["E0(x,y) -> E(x,y)"],
            &["E(x,y) & E(y,z) -> E(x,z)"],
            &[],
        );
        assert!(qi_analyze::is_weakly_acyclic(&setting.target_tgds));
        let i = Instance::parse(&s, "E0(a,b) E0(b,c) E0(c,d)").unwrap();
        let (result, stats) =
            chase_with_target_deps_stats(&setting, &i, &t, TargetChaseOptions::default()).unwrap();
        // The default budget is certificate-derived and never exceeded.
        assert!(stats.certified);
        assert!(stats.steps <= stats.budget, "{stats:?}");
        let TargetChaseResult::Solution(u) = result else {
            panic!("expected a solution");
        };
        // Full transitive closure: ab, bc, cd, ac, bd, ad.
        assert_eq!(u.fact_count(), 6);
        assert!(u.contains_fact(&qi_schema::Fact::new(
            t.rel("E").unwrap(),
            vec![Value::constant("a"), Value::constant("d")]
        )));
    }

    #[test]
    fn caller_certificate_tightens_the_budget() {
        // The target tgd is dead (Q only ever holds (value, null) pairs,
        // never a diagonal), so the refined certificate excludes it; the
        // chase still runs it — it never fires — and finishes under the
        // strictly tighter budget.
        let (s, t, setting) = setting(
            "P/1",
            "Q/2 R/2",
            &["P(x) -> exists y . Q(x,y)"],
            &["Q(x,x) -> exists z . R(z,x)"],
            &[],
        );
        let i = Instance::parse(&s, "P(a) P(b)").unwrap();
        let (_, base) =
            chase_with_target_deps_stats(&setting, &i, &t, TargetChaseOptions::default()).unwrap();
        let abs = qi_analyze::run_abstract_chase(
            &s,
            &t,
            &setting.st_tgds,
            &setting.target_tgds,
            &setting.egds,
            &qi_analyze::AbstractChaseOptions::default(),
        );
        let cert = qi_analyze::refined_certificate(&t, &setting.target_tgds, &abs).unwrap();
        let (result, stats) = chase_with_target_deps_stats(
            &setting,
            &i,
            &t,
            TargetChaseOptions {
                certificate: Some(cert),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(matches!(result, TargetChaseResult::Solution(_)));
        assert!(stats.certified);
        assert!(stats.steps <= stats.budget, "{stats:?}");
        assert!(
            stats.budget < base.budget,
            "refined {} vs unrefined {}",
            stats.budget,
            base.budget
        );
    }

    #[test]
    fn non_terminating_setting_hits_the_budget() {
        let (s, t, setting) = setting(
            "S0/1",
            "E/2",
            &["S0(x) -> exists y . E(x,y)"],
            &["E(x,y) -> exists z . E(y,z)"],
            &[],
        );
        assert!(!qi_analyze::is_weakly_acyclic(&setting.target_tgds));
        let i = Instance::parse(&s, "S0(a)").unwrap();
        let result = chase_with_target_deps(
            &setting,
            &i,
            &t,
            TargetChaseOptions {
                max_steps: Some(500),
                ..Default::default()
            },
        );
        assert!(matches!(result, Err(ChaseError::Budget { .. })));
    }

    #[test]
    fn certified_budget_covers_existential_generation() {
        // D(x) → ∃y E(x,y) plus E(x,y) → D(x): weakly acyclic with a
        // rank-1 certificate; the chase must stay under the derived
        // budget.
        let (s, t, setting) = setting(
            "D0/1",
            "E/2 D/1",
            &["D0(x) -> D(x)"],
            &["D(x) -> exists y . E(x,y)", "E(x,y) -> D(x)"],
            &[],
        );
        let i = Instance::parse(&s, "D0(a) D0(b) D0(c)").unwrap();
        let (result, stats) =
            chase_with_target_deps_stats(&setting, &i, &t, TargetChaseOptions::default()).unwrap();
        assert!(matches!(result, TargetChaseResult::Solution(_)));
        assert!(stats.certified);
        assert!(stats.steps <= stats.budget, "{stats:?}");
    }

    #[test]
    fn uncertified_settings_fall_back_to_the_constant_budget() {
        // E(x,x) → ∃z E(x,z) is not weakly acyclic (special self-loop on
        // E.2), but never fires here: the instance has no diagonal fact.
        // The run terminates and reports the fallback budget.
        let (s, t, setting) = setting(
            "P/2",
            "E/2",
            &["P(x,y) -> E(x,y)"],
            &["E(x,x) -> exists z . E(x,z)"],
            &[],
        );
        assert!(!qi_analyze::is_weakly_acyclic(&setting.target_tgds));
        let i = Instance::parse(&s, "P(a,b)").unwrap();
        let (result, stats) =
            chase_with_target_deps_stats(&setting, &i, &t, TargetChaseOptions::default()).unwrap();
        assert!(matches!(result, TargetChaseResult::Solution(_)));
        assert!(!stats.certified);
        assert_eq!(stats.budget, FALLBACK_MAX_STEPS);
    }

    #[test]
    fn egd_merges_nulls_with_constants() {
        // Key constraint: E is functional in its first column.
        let (s, t, setting) = setting(
            "P/2 Q/1",
            "E/2",
            &["P(x,y) -> E(x,y)", "Q(x) -> exists y . E(x,y)"],
            &[],
            &["E(x,y) & E(x,z) -> y = z"],
        );
        let i = Instance::parse(&s, "P(a,b) Q(a)").unwrap();
        let result =
            chase_with_target_deps(&setting, &i, &t, TargetChaseOptions::default()).unwrap();
        let TargetChaseResult::Solution(u) = result else {
            panic!("expected a solution");
        };
        // The null from Q's existential is equated with b.
        assert_eq!(u, Instance::parse(&t, "E(a,b)").unwrap());
        assert!(u.is_ground());
    }

    #[test]
    fn egd_failure_on_distinct_constants() {
        let (s, t, setting) = setting(
            "P/2",
            "E/2",
            &["P(x,y) -> E(x,y)"],
            &[],
            &["E(x,y) & E(x,z) -> y = z"],
        );
        let i = Instance::parse(&s, "P(a,b) P(a,c)").unwrap();
        let result =
            chase_with_target_deps(&setting, &i, &t, TargetChaseOptions::default()).unwrap();
        assert!(matches!(result, TargetChaseResult::Failed { .. }));
    }

    #[test]
    fn egds_cascade_with_target_tgds() {
        // Copying into a keyed relation triggers merges that re-trigger
        // the tgd check.
        let (s, t, setting) = setting(
            "P/2",
            "E/2 F/2",
            &["P(x,y) -> E(x,y)"],
            &["E(x,y) -> exists z . F(x,z)"],
            &["F(x,y) & F(x,z) -> y = z", "E(x,y) & F(x,z) -> y = z"],
        );
        let i = Instance::parse(&s, "P(a,b)").unwrap();
        let result =
            chase_with_target_deps(&setting, &i, &t, TargetChaseOptions::default()).unwrap();
        let TargetChaseResult::Solution(u) = result else {
            panic!("expected a solution");
        };
        // F's null is forced equal to b by the second egd.
        assert_eq!(u, Instance::parse(&t, "E(a,b) F(a,b)").unwrap());
    }

    #[test]
    fn empty_target_deps_reduce_to_plain_chase() {
        let (s, t, setting) = setting("P/1", "Q/1", &["P(x) -> Q(x)"], &[], &[]);
        let i = Instance::parse(&s, "P(a)").unwrap();
        let result =
            chase_with_target_deps(&setting, &i, &t, TargetChaseOptions::default()).unwrap();
        assert_eq!(
            result,
            TargetChaseResult::Solution(Instance::parse(&t, "Q(a)").unwrap())
        );
    }

    #[test]
    fn null_null_merge_is_deterministic() {
        let (s, t, setting) = setting(
            "P/1",
            "E/2",
            &["P(x) -> exists y . E(x,y)", "P(x) -> exists z . E(x,z)"],
            &[],
            &["E(x,y) & E(x,z) -> y = z"],
        );
        let i = Instance::parse(&s, "P(a)").unwrap();
        // The restricted s-t chase already avoids the duplicate, but run
        // the oblivious shape via two distinct tgds anyway: result is a
        // single fact either way, twice over.
        let a = chase_with_target_deps(&setting, &i, &t, TargetChaseOptions::default()).unwrap();
        let b = chase_with_target_deps(&setting, &i, &t, TargetChaseOptions::default()).unwrap();
        assert_eq!(a, b);
        let TargetChaseResult::Solution(u) = a else {
            panic!()
        };
        assert_eq!(u.fact_count(), 1);
    }
}
