//! The full data-exchange setting (source-to-target tgds + target tgds +
//! egds) as a downstream user would run it: a master-data scenario with
//! key constraints and a derived closure table. The second half pins the
//! batched egd repair against the one-repair-at-a-time referee.

use quasi_inverse::analyze::is_weakly_acyclic;
use quasi_inverse::chase::target::chase_with_target_deps_one_at_a_time;
use quasi_inverse::chase::{
    chase_with_target_deps, ExchangeSetting, TargetChaseOptions, TargetChaseResult,
};
use quasi_inverse::lang::{parse_egd, parse_tgd};
use quasi_inverse::prelude::*;
use quasi_inverse::workloads::random::rng;

/// Source: employee rows and org edges. Target: keyed employee table and
/// a transitively closed reporting relation.
fn setting() -> (Schema, Schema, ExchangeSetting) {
    let s = Schema::parse("EmpSrc/2 Boss/2").unwrap();
    let t = Schema::parse("Emp/2 Reports/2").unwrap();
    let st = vec![
        parse_tgd(&s, &t, "EmpSrc(id,name) -> Emp(id,name)").unwrap(),
        parse_tgd(&s, &t, "Boss(e,b) -> Reports(e,b)").unwrap(),
        // Every boss is an employee with some name.
        parse_tgd(&s, &t, "Boss(e,b) -> exists n . Emp(b,n)").unwrap(),
    ];
    let tt = vec![parse_tgd(&t, &t, "Reports(e,b) & Reports(b,c) -> Reports(e,c)").unwrap()];
    let egds = vec![
        // Employee id is a key for the name.
        parse_egd(&t, "Emp(id,n1) & Emp(id,n2) -> n1 = n2").unwrap(),
    ];
    (
        s,
        t,
        ExchangeSetting {
            st_tgds: st,
            target_tgds: tt,
            egds,
        },
    )
}

#[test]
fn setting_is_weakly_acyclic() {
    let (_, _, setting) = setting();
    assert!(is_weakly_acyclic(&setting.target_tgds));
}

#[test]
fn exchange_with_keys_and_closure() {
    let (s, t, setting) = setting();
    let i = Instance::parse(
        &s,
        "EmpSrc(e1,ana) EmpSrc(e2,bo) EmpSrc(e3,cy) Boss(e1,e2) Boss(e2,e3)",
    )
    .unwrap();
    let result = chase_with_target_deps(&setting, &i, &t, TargetChaseOptions::default()).unwrap();
    let TargetChaseResult::Solution(u) = result else {
        panic!("expected a solution");
    };
    // Closure: e1 reports to e3 transitively.
    assert!(u.contains(
        t.rel("Reports").unwrap(),
        &[Value::constant("e1"), Value::constant("e3")]
    ));
    // The key egd merged the existential name of each boss with the
    // actual EmpSrc name: no nulls remain.
    assert!(u.is_ground(), "{u}");
    assert_eq!(u.rel_len(t.rel("Emp").unwrap()), 3);
}

#[test]
fn unknown_boss_keeps_a_null_name() {
    let (s, t, setting) = setting();
    // e9 never appears in EmpSrc: its name stays a labeled null.
    let i = Instance::parse(&s, "EmpSrc(e1,ana) Boss(e1,e9)").unwrap();
    let result = chase_with_target_deps(&setting, &i, &t, TargetChaseOptions::default()).unwrap();
    let TargetChaseResult::Solution(u) = result else {
        panic!("expected a solution");
    };
    let emp = t.rel("Emp").unwrap();
    assert!(u
        .tuples(emp)
        .any(|row| row[0] == Value::constant("e9") && row[1].is_null()));
}

#[test]
fn key_violation_fails_the_exchange() {
    let (s, t, setting) = setting();
    let i = Instance::parse(&s, "EmpSrc(e1,ana) EmpSrc(e1,bo)").unwrap();
    let result = chase_with_target_deps(&setting, &i, &t, TargetChaseOptions::default()).unwrap();
    match result {
        TargetChaseResult::Failed { left, right } => {
            let names = [left, right];
            assert!(names.contains(&Value::constant("ana")));
            assert!(names.contains(&Value::constant("bo")));
        }
        TargetChaseResult::Solution(u) => panic!("expected failure, got {u}"),
    }
}

#[test]
fn closure_result_is_a_solution_of_all_dependency_classes() {
    // Sanity across the satisfaction APIs: the final instance satisfies
    // the target tgds (as tgds from T to T) and — trivially restated —
    // the st tgds from the source.
    let (s, _t, setting) = setting();
    let i = Instance::parse(&s, "EmpSrc(e1,ana) Boss(e1,e2) EmpSrc(e2,bo)").unwrap();
    let (_, t, _) = self::setting();
    let result = chase_with_target_deps(&setting, &i, &t, TargetChaseOptions::default()).unwrap();
    let TargetChaseResult::Solution(u) = result else {
        panic!()
    };
    assert!(quasi_inverse::chase::satisfies_all_tgds(
        &i,
        &u,
        &setting.st_tgds
    ));
    assert!(quasi_inverse::chase::satisfies_all_tgds(
        &u,
        &u,
        &setting.target_tgds
    ));
}

// ---------------------------------------------------------------------
// Egd referee: the batched per-egd least-fixpoint repair against the
// one-repair-at-a-time loop it replaced.
// ---------------------------------------------------------------------

/// Everything the two repair loops must agree on: the rendered result
/// (instance or exact `Failed` pair), the step count and the rounds.
fn referee_view(
    setting: &ExchangeSetting,
    i: &Instance,
    t: &Schema,
    one_at_a_time: bool,
) -> (String, usize, u64) {
    let run = if one_at_a_time {
        chase_with_target_deps_one_at_a_time
    } else {
        chase_with_target_deps_stats
    };
    let (result, stats) = run(setting, i, t, TargetChaseOptions::default()).unwrap();
    let rendered = match result {
        TargetChaseResult::Solution(u) => format!("{u}"),
        TargetChaseResult::Failed { left, right } => format!("FAILED {left} = {right}"),
    };
    (rendered, stats.steps, stats.exec.rounds)
}

/// Assert batched == one-at-a-time and return the shared view.
fn agree(setting: &ExchangeSetting, i: &Instance, t: &Schema, ctx: &str) -> (String, usize, u64) {
    let batched = referee_view(setting, i, t, false);
    let referee = referee_view(setting, i, t, true);
    assert_eq!(
        batched, referee,
        "{ctx}: batched egd repair diverged on {i}"
    );
    batched
}

/// Source `A/2 B/2 C/3`, target `R/2 S/2 T/2`; the dependencies are
/// parsed from text.
fn keyed(st: &[&str], tt: &[&str], egds: &[&str]) -> (Schema, Schema, ExchangeSetting) {
    let s = Schema::parse("A/2 B/2 C/3").unwrap();
    let t = Schema::parse("R/2 S/2 T/2").unwrap();
    let setting = ExchangeSetting {
        st_tgds: st.iter().map(|d| parse_tgd(&s, &t, d).unwrap()).collect(),
        target_tgds: tt.iter().map(|d| parse_tgd(&t, &t, d).unwrap()).collect(),
        egds: egds.iter().map(|d| parse_egd(&t, d).unwrap()).collect(),
    };
    (s, t, setting)
}

const R_KEY: &str = "R(x,y) & R(x,z) -> y = z";

#[test]
fn egd_referee_chained_keys_need_several_passes() {
    // Each A-fact mints a three-step R chain from its key; merging the
    // first links makes the second links collide, and so on: one pass
    // per chain level.
    let (s, t, setting) = keyed(
        &["A(x,y) -> exists z w v . R(x,z) & R(z,w) & R(w,v) & S(v,y)"],
        &[],
        &[R_KEY],
    );
    let i = Instance::parse(&s, "A(k,a) A(k,b) A(k,c)").unwrap();
    let (rendered, steps, _) = agree(&setting, &i, &t, "chain");
    // Three chains of three nulls collapse into one: six repairs (s-t
    // firings are not target steps).
    assert_eq!(steps, 6, "{rendered}");
    assert_eq!(rendered.matches("R(").count(), 3, "{rendered}");
    // A constant at the chain's far end wins its class at the last pass.
    let (s, t, setting) = keyed(
        &[
            "A(x,y) -> exists z w . R(x,z) & R(z,w)",
            "B(x,y) -> exists z . R(x,z) & R(z,y)",
        ],
        &[],
        &[R_KEY],
    );
    let i = Instance::parse(&s, "A(k,a) A(k,b) B(k,c)").unwrap();
    let (rendered, _, _) = agree(&setting, &i, &t, "chain to a constant");
    assert_eq!(rendered, "R(k,N0) R(N0,c)");
}

#[test]
fn egd_referee_two_egds_in_either_order() {
    let st = [
        "A(x,y) -> exists z . R(x,z) & S(z,y)",
        "B(x,y) -> exists z . S(x,z)",
    ];
    let egds = ["S(x,y) & S(x,z) -> y = z", "R(x,y) & R(x,z) -> y = z"];
    let src = "A(k,a) A(k,b) A(j,a) B(a,c) B(b,d)";
    let mut seen = Vec::new();
    for order in [[0, 1], [1, 0]] {
        let ordered: Vec<&str> = order.iter().map(|&e| egds[e]).collect();
        let (s, t, setting) = keyed(&st, &[], &ordered);
        let i = Instance::parse(&s, src).unwrap();
        seen.push(agree(&setting, &i, &t, &format!("order {order:?}")));
    }
    // R's key merges the two nulls under k, which makes S's key demand
    // a = b: the setting fails either way, but S-first needs a second
    // round to see the conflict.
    assert!(
        seen.iter().all(|(r, _, _)| r.starts_with("FAILED")),
        "{seen:?}"
    );
    assert!(seen[0].2 > seen[1].2, "{seen:?}");
}

#[test]
fn egd_referee_constant_null_merges_and_conflicts() {
    let (s, t, setting) = keyed(
        &["A(x,y) -> R(x,y)", "B(x,y) -> exists z . R(x,z) & T(z,y)"],
        &[],
        &[R_KEY],
    );
    // Every null meets a constant: the result is ground.
    let i = Instance::parse(&s, "A(k,a) B(k,b) B(k,c) A(j,d) B(j,e)").unwrap();
    let (rendered, steps, _) = agree(&setting, &i, &t, "const-null");
    assert!(!rendered.contains('N'), "{rendered}");
    assert_eq!(steps, 3, "{rendered}");
    // Two constants under one key fail, naming the exact pair.
    let i = Instance::parse(&s, "B(k,b) A(k,a) B(k,c) A(k,d)").unwrap();
    let (rendered, _, _) = agree(&setting, &i, &t, "const-const");
    assert!(rendered.starts_with("FAILED"), "{rendered}");
    // A null shared by two keys meets both keys' constants. The
    // one-at-a-time loop first replaces it under one key and then fails
    // on the other key's two constants, in tuple order; the batched
    // pass meets the conflict as (constant, null's class) instead. Both
    // orders of the constants are run, so whichever interns first, one
    // of them needs the replay to report the referee's pair.
    let (s, t, setting) = keyed(
        &["A(x,y) -> R(x,y)", "B(x,y) -> exists z . R(x,z) & R(y,z)"],
        &[],
        &[R_KEY],
    );
    for src in ["A(j,p) A(k,q) B(j,k)", "A(j,q) A(k,p) B(j,k)"] {
        let i = Instance::parse(&s, src).unwrap();
        let (rendered, _, _) = agree(&setting, &i, &t, src);
        assert!(rendered.starts_with("FAILED"), "{rendered}");
    }
}

#[test]
fn egd_referee_on_random_keyed_settings() {
    const ST: [&str; 6] = [
        "A(x,y) -> R(x,y)",
        "A(x,y) -> exists z . R(x,z) & S(z,y)",
        "B(x,y) -> exists z . S(x,z)",
        "B(x,y) -> exists z w . R(x,z) & T(z,w)",
        "C(x,y,u) -> exists z . T(x,z) & S(z,u)",
        "C(x,y,u) -> R(y,u)",
    ];
    const TT: [&str; 2] = ["R(x,y) & S(y,z) -> T(x,z)", "T(x,y) -> exists z . S(y,z)"];
    const EGDS: [&str; 5] = [
        R_KEY,
        "S(x,y) & S(x,z) -> y = z",
        "T(x,y) & T(x,z) -> y = z",
        "R(x,y) & S(x,z) -> y = z",
        "S(x,y) & S(z,y) -> x = z",
    ];
    let (mut failed, mut solved, mut repaired) = (0, 0, 0);
    for seed in 0..100u64 {
        let mut r = rng(14_000 + seed);
        let mut pick = |pool: &[&'static str], lo: usize, hi: usize| -> Vec<&'static str> {
            let n = lo + r.random_range(0..hi - lo + 1);
            (0..n)
                .map(|_| pool[r.random_range(0..pool.len())])
                .collect()
        };
        let st = pick(&ST, 1, 3);
        let tt = pick(&TT, 0, 1);
        let egds = pick(&EGDS, 1, 3);
        let (s, t, setting) = keyed(&st, &tt, &egds);
        let consts = 2 + r.random_range(0..4);
        let mut i = Instance::new(s.clone());
        for _ in 0..3 + r.random_range(0..8) {
            let rel = s.rel_ids().nth(r.random_range(0..s.len())).unwrap();
            let args: Vec<Value> = (0..s.arity(rel))
                .map(|_| Value::constant(&format!("c{}", r.random_range(0..consts))))
                .collect();
            i.insert(rel, args).unwrap();
        }
        let (rendered, _, _) = agree(&setting, &i, &t, &format!("seed {seed}"));
        if rendered.starts_with("FAILED") {
            failed += 1;
        } else {
            solved += 1;
            let egd_free = ExchangeSetting {
                egds: Vec::new(),
                ..setting.clone()
            };
            if referee_view(&egd_free, &i, &t, false).0 != rendered {
                repaired += 1;
            }
        }
    }
    // The sweep must exercise both outcomes and real repairs.
    assert!(
        failed >= 5 && solved >= 5 && repaired >= 5,
        "{failed}/{solved}/{repaired}"
    );
}
