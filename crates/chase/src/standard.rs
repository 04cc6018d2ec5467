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

use crate::error::ChaseError;
use crate::kernel::{tripped, Kernel, Scan, TriggerLog};
use qi_exec::{ExecConfig, ExecStats};
use qi_lang::Tgd;
use qi_schema::{Instance, Schema};

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

/// The s-t chase as one kernel round: enumerate every tgd's triggers
/// over the source (an immutable snapshot, so in parallel), then commit
/// them in (tgd, enumeration) order into an empty target — the order
/// the sequential chase fires in. When `log` is set, the full per-tgd
/// enumeration (pre-satisfaction-check, with each trigger's decision
/// and minted null) is recorded into it, so a later `chase_delta` can
/// merge new delta-restricted triggers into the same order without
/// re-running the old joins or re-taking the old decisions.
pub(crate) fn run_st(
    tgds: &[Tgd],
    source: &Instance,
    target_schema: &Schema,
    restricted: bool,
    options: ChaseOptions,
    log: Option<&mut TriggerLog>,
) -> Result<ChaseOutcome, ChaseError> {
    check_schemas(tgds, source, target_schema)?;
    let kernel = Kernel::new(tgds, &options.exec);
    let mut stats = ExecStats::default();
    let mut triggers = kernel
        .enumerate(source, Scan::Ordered, &mut stats)
        .map_err(|e| tripped(e, &stats, None))?;
    let mut target = Instance::new(target_schema.clone());
    let mut next_null = source.fresh_null_floor();
    let fired = kernel.commit(
        &mut triggers,
        &mut target,
        &mut next_null,
        restricted,
        &mut stats,
        None,
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
    run_st(
        tgds,
        source,
        target_schema,
        true,
        ChaseOptions::default(),
        None,
    )
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
    run_st(tgds, source, target_schema, true, options, None)
}

/// The oblivious chase: fires every trigger once, without the
/// satisfaction check. Homomorphically equivalent to [`chase`]'s result.
pub fn chase_oblivious(
    tgds: &[Tgd],
    source: &Instance,
    target_schema: &Schema,
) -> Result<ChaseOutcome, ChaseError> {
    run_st(
        tgds,
        source,
        target_schema,
        false,
        ChaseOptions::default(),
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use qi_lang::parse_tgd;
    use qi_schema::{hom_equivalent, Value};

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
