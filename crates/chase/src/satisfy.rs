//! Satisfaction checking `(I, J) ⊨ σ`.
//!
//! For a plain s-t tgd the check is classical; for disjunctive tgds with
//! constants and inequalities (Definition 2.1) a premise match must
//! additionally respect the `Constant(x)` guards (the matched value lies
//! in `Const`) and the inequalities, and is discharged by *some* disjunct
//! having an extension (Definition 6.2's homomorphism semantics).

use crate::disjunctive;
use crate::kernel::{compile, pinned, values_of};
use qi_lang::{DisjTgd, Tgd};
use qi_schema::{Instance, MatchConstraints, MatchEngine};

/// Does the pair `(source, target)` satisfy the s-t tgd?
pub fn satisfies_tgd(source: &Instance, target: &Instance, tgd: &Tgd) -> bool {
    let c = compile(tgd);
    let mut ok = true;
    MatchEngine::new(&c.body, source, &MatchConstraints::default()).for_each(|assignment| {
        let constraints = pinned(&values_of(assignment, c.n_body_vars));
        ok = MatchEngine::new(&c.head, target, &constraints).exists();
        ok // stop enumeration at the first violation
    });
    ok
}

/// Does `(source, target)` satisfy every tgd of `tgds`?
pub fn satisfies_all_tgds(source: &Instance, target: &Instance, tgds: &[Tgd]) -> bool {
    tgds.iter().all(|t| satisfies_tgd(source, target, t))
}

/// Does the pair `(from, to)` satisfy the disjunctive tgd with constants
/// and inequalities? (`from` interprets the premise side, `to` the
/// disjunct side; in the paper's use `from` is a target instance and
/// `to` a source instance.)
pub fn satisfies_disj_tgd(from: &Instance, to: &Instance, dep: &DisjTgd) -> bool {
    let c = disjunctive::compile(dep);
    let mut ok = true;
    MatchEngine::new(&c.body, from, &c.body_constraints).for_each(|assignment| {
        // One constraint set per premise match, shared by every disjunct
        // probe.
        let constraints = pinned(&values_of(assignment, c.n_body));
        ok = c
            .disjuncts
            .iter()
            .any(|pattern| MatchEngine::new(pattern, to, &constraints).exists());
        ok
    });
    ok
}

/// Does `(from, to)` satisfy every dependency of `deps`?
pub fn satisfies_all_disj_tgds(from: &Instance, to: &Instance, deps: &[DisjTgd]) -> bool {
    deps.iter().all(|d| satisfies_disj_tgd(from, to, d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qi_lang::{parse_disj_tgd, parse_tgd};
    use qi_schema::Schema;

    #[test]
    fn tgd_satisfaction_basics() {
        let s = Schema::parse("P/2").unwrap();
        let t = Schema::parse("Q/1").unwrap();
        let tgd = parse_tgd(&s, &t, "P(x,y) -> Q(x)").unwrap();
        let i = Instance::parse(&s, "P(a,b)").unwrap();
        let good = Instance::parse(&t, "Q(a)").unwrap();
        let bad = Instance::parse(&t, "Q(b)").unwrap();
        assert!(satisfies_tgd(&i, &good, &tgd));
        assert!(!satisfies_tgd(&i, &bad, &tgd));
        // vacuous satisfaction
        let empty = Instance::new(s);
        assert!(satisfies_tgd(&empty, &bad, &tgd));
    }

    #[test]
    fn existential_head_satisfied_by_null_or_const() {
        let s = Schema::parse("P/1").unwrap();
        let t = Schema::parse("Q/2").unwrap();
        let tgd = parse_tgd(&s, &t, "P(x) -> exists y . Q(x,y)").unwrap();
        let i = Instance::parse(&s, "P(a)").unwrap();
        assert!(satisfies_tgd(
            &i,
            &Instance::parse(&t, "Q(a,N1)").unwrap(),
            &tgd
        ));
        assert!(satisfies_tgd(
            &i,
            &Instance::parse(&t, "Q(a,c)").unwrap(),
            &tgd
        ));
        assert!(!satisfies_tgd(
            &i,
            &Instance::parse(&t, "Q(b,c)").unwrap(),
            &tgd
        ));
    }

    #[test]
    fn disjunctive_satisfaction_requires_some_disjunct() {
        let t = Schema::parse("S/1").unwrap();
        let s = Schema::parse("P/1 Q/1").unwrap();
        let dep = parse_disj_tgd(&t, &s, "S(x) -> P(x) | Q(x)").unwrap();
        let u = Instance::parse(&t, "S(a)").unwrap();
        assert!(satisfies_disj_tgd(
            &u,
            &Instance::parse(&s, "P(a)").unwrap(),
            &dep
        ));
        assert!(satisfies_disj_tgd(
            &u,
            &Instance::parse(&s, "Q(a)").unwrap(),
            &dep
        ));
        assert!(!satisfies_disj_tgd(
            &u,
            &Instance::parse(&s, "P(b)").unwrap(),
            &dep
        ));
    }

    #[test]
    fn constant_guard_blocks_null_matches() {
        let t = Schema::parse("S/1").unwrap();
        let s = Schema::parse("P/1").unwrap();
        let dep = parse_disj_tgd(&t, &s, "S(x) & const(x) -> P(x)").unwrap();
        // S(N1): the guard suppresses the premise, so anything satisfies.
        let u_null = Instance::parse(&t, "S(N1)").unwrap();
        let empty = Instance::new(s.clone());
        assert!(satisfies_disj_tgd(&u_null, &empty, &dep));
        // S(a): the guard holds, P(a) is required.
        let u_const = Instance::parse(&t, "S(a)").unwrap();
        assert!(!satisfies_disj_tgd(&u_const, &empty, &dep));
        assert!(satisfies_disj_tgd(
            &u_const,
            &Instance::parse(&s, "P(a)").unwrap(),
            &dep
        ));
    }

    #[test]
    fn inequality_guard_blocks_equal_matches() {
        let t = Schema::parse("S/2").unwrap();
        let s = Schema::parse("P/2").unwrap();
        let dep = parse_disj_tgd(&t, &s, "S(x,y) & x != y -> P(x,y)").unwrap();
        let empty = Instance::new(s.clone());
        assert!(satisfies_disj_tgd(
            &Instance::parse(&t, "S(a,a)").unwrap(),
            &empty,
            &dep
        ));
        assert!(!satisfies_disj_tgd(
            &Instance::parse(&t, "S(a,b)").unwrap(),
            &empty,
            &dep
        ));
    }

    #[test]
    fn existential_disjunct_matches_with_witness() {
        let t = Schema::parse("S/1").unwrap();
        let s = Schema::parse("P/2").unwrap();
        let dep = parse_disj_tgd(&t, &s, "S(x) -> exists z . P(x,z)").unwrap();
        let u = Instance::parse(&t, "S(a)").unwrap();
        assert!(satisfies_disj_tgd(
            &u,
            &Instance::parse(&s, "P(a,q)").unwrap(),
            &dep
        ));
        assert!(!satisfies_disj_tgd(
            &u,
            &Instance::parse(&s, "P(b,q)").unwrap(),
            &dep
        ));
    }
}
