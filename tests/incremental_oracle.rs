//! Incremental-chase oracle: `chase_delta` may change only *how much
//! work* a re-chase does, never the artifact. Every sweep replays a
//! randomized update stream (insert-only, delete-only, mixed) through
//! `chase_delta` and compares the rendered s-t output, solution, and
//! core byte for byte against a from-scratch `chase_incremental` of the
//! evolved instance — over the full `{unplanned, planned} × {1, 4,
//! auto} threads` grid, so the differential path inherits the planning
//! oracle's guarantees too.
//!
//! Budget trips must stay *sound*: a tripped delta run returns a typed
//! resource error whose partial instance is a subinstance of the
//! uninterrupted result — never a wrong fixpoint presented as done.
//!
//! The randomized sweep count defaults to 12, overridden by
//! `PROPTEST_CASES` (the deep push-only CI tier runs 1024).

use quasi_inverse::chase::{
    chase_delta, chase_incremental, chase_with_target_deps_stats, is_universal_solution,
    ChaseError, ChasePartial, ChaseResult, DeltaChaseOptions, ExchangeSetting, TargetChaseOptions,
    TargetChaseResult, TargetChaseStats,
};
use quasi_inverse::exec::{
    set_hardware_parallelism_override, Budget, ExecConfig, Parallelism, Planning,
};
use quasi_inverse::lang::{parse_egd, parse_tgd};
use quasi_inverse::schema::{
    core_delta, core_of, set_planning_override, Diff, HomCache, Instance, Schema,
};
use quasi_inverse::workloads::random::{random_ground_instance, rng, InstanceParams};
use quasi_inverse::workloads::updates::{update_stream, UpdateMix, UpdateParams};
use std::sync::Mutex;

/// Serializes sweeps: the planning override is process-wide state.
static PLAN_GUARD: Mutex<()> = Mutex::new(());

/// Randomized cases per sweep: 12 by default, via `PROPTEST_CASES` in
/// the deep CI tier.
fn cases() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12)
}

/// The planning × threads grid; `None` is auto parallelism. The
/// unplanned sequential cell runs first and is the byte reference.
const GRID: [(bool, Option<usize>); 6] = [
    (false, Some(1)),
    (false, Some(4)),
    (false, None),
    (true, Some(1)),
    (true, Some(4)),
    (true, None),
];

fn parallelism(threads: Option<usize>) -> Parallelism {
    match threads {
        Some(n) => Parallelism::fixed(n),
        None => Parallelism::auto(),
    }
}

/// Run `render` over the whole grid and assert byte identity against
/// the first (unplanned, sequential) cell.
fn sweep_grid(ctx: &str, mut render: impl FnMut(Parallelism) -> String) {
    let _guard = PLAN_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    set_hardware_parallelism_override(Some(8));
    let mut reference: Option<String> = None;
    for (planned, threads) in GRID {
        set_planning_override(Some(planned));
        let rendered = render(parallelism(threads));
        match &reference {
            None => reference = Some(rendered),
            Some(r) => assert_eq!(
                &rendered, r,
                "{ctx}: planned={planned} × threads={threads:?} diverged"
            ),
        }
    }
    set_planning_override(None);
    set_hardware_parallelism_override(None);
}

/// Render every maintained artifact of one result.
fn render(r: &ChaseResult) -> String {
    let sol = match &r.outcome {
        TargetChaseResult::Solution(u) => format!("{u}"),
        TargetChaseResult::Failed { left, right } => format!("failed {left} {right}"),
    };
    format!("base={}\nsol={sol}", r.base)
}

fn opts(par: Parallelism) -> DeltaChaseOptions {
    DeltaChaseOptions {
        exec: ExecConfig::default().with_parallelism(par),
        ..Default::default()
    }
}

/// Copy + transitive closure: the Datalog-eligible DRed fast path.
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

/// Replay `stream` through `chase_delta`, asserting byte identity with
/// a from-scratch chase (and exact core maintenance) at every step.
/// Returns a transcript of every step's artifacts for the grid sweep.
fn replay_and_check(
    setting: &ExchangeSetting,
    target: &Schema,
    start: &Instance,
    stream: &[Diff],
    par: Parallelism,
    ctx: &str,
) -> String {
    let o = opts(par);
    let mut cur = chase_incremental(setting, start, target, &o).unwrap();
    let mut inst = start.clone();
    let mut core = cur.solution().map(core_of);
    let mut transcript = render(&cur);
    for (step, diff) in stream.iter().enumerate() {
        let prev = cur;
        cur = chase_delta(&prev, diff, &o).unwrap();
        diff.apply(&mut inst).unwrap();
        let scratch = chase_incremental(setting, &inst, target, &o).unwrap();
        assert_eq!(
            render(&cur),
            render(&scratch),
            "{ctx}: delta diverged from scratch at step {step}"
        );
        // Incremental core repair must equal the from-scratch core.
        if let (Some(prev_core), Some(prev_sol), Some(new_sol)) =
            (&core, prev.solution(), cur.solution())
        {
            let (repaired, _) = core_delta(prev_sol, prev_core, new_sol);
            assert_eq!(
                format!("{repaired}"),
                format!("{}", core_of(new_sol)),
                "{ctx}: core repair diverged at step {step}"
            );
            core = Some(repaired);
        } else {
            core = cur.solution().map(core_of);
        }
        transcript.push_str("\n---\n");
        transcript.push_str(&render(&cur));
    }
    transcript
}

#[test]
fn closure_streams_match_from_scratch() {
    let (s, t, setting) = closure_setting();
    for (mix, tag) in [
        (UpdateMix::InsertOnly, "insert"),
        (UpdateMix::DeleteOnly, "delete"),
        (UpdateMix::Mixed, "mixed"),
    ] {
        for seed in 0..cases() {
            let mut r = rng(47_000 + seed);
            let start = random_ground_instance(
                &s,
                &mut r,
                &InstanceParams {
                    n_consts: 6,
                    n_facts: 10,
                },
            );
            let stream = update_stream(
                &start,
                &mut r,
                &UpdateParams {
                    steps: 4,
                    step_size: 3,
                    n_consts: 6,
                    mix,
                },
            );
            sweep_grid(&format!("closure {tag} stream, seed {seed}"), |par| {
                replay_and_check(&setting, &t, &start, &stream, par, tag)
            });
        }
    }
}

#[test]
fn existential_st_streams_match_from_scratch() {
    // Exercises the memoized-enumeration s-t replay, where fresh-null
    // numbering is part of the render.
    let (s, t, setting) = existential_st_setting();
    for seed in 0..cases() {
        let mut r = rng(53_000 + seed);
        let start = random_ground_instance(
            &s,
            &mut r,
            &InstanceParams {
                n_consts: 5,
                n_facts: 8,
            },
        );
        let stream = update_stream(
            &start,
            &mut r,
            &UpdateParams {
                steps: 4,
                step_size: 2,
                n_consts: 5,
                mix: UpdateMix::Mixed,
            },
        );
        sweep_grid(&format!("existential stream, seed {seed}"), |par| {
            replay_and_check(&setting, &t, &start, &stream, par, "existential")
        });
        // Verification verdict: both chased instances are (the same)
        // universal solution for the evolved source.
        let mut inst = start.clone();
        let o = opts(Parallelism::sequential());
        let mut cur = chase_incremental(&setting, &start, &t, &o).unwrap();
        for diff in &stream {
            cur = chase_delta(&cur, diff, &o).unwrap();
            diff.apply(&mut inst).unwrap();
        }
        let delta_verdict =
            is_universal_solution(&setting.st_tgds, &inst, cur.solution().unwrap()).unwrap();
        let scratch = chase_incremental(&setting, &inst, &t, &o).unwrap();
        let scratch_verdict =
            is_universal_solution(&setting.st_tgds, &inst, scratch.solution().unwrap()).unwrap();
        assert!(delta_verdict && scratch_verdict, "seed {seed}");
    }
}

/// The keyless `exchange` shape: existential s-t tgds feeding a
/// Datalog target (a join and a closure step), so the DRed path runs on
/// a solution whose nulls the s-t replay renumbers.
fn keyless_exchange_setting() -> (Schema, Schema, ExchangeSetting) {
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
    (s, t, setting)
}

#[test]
fn existential_datalog_streams_match_from_scratch() {
    let (s, t, setting) = keyless_exchange_setting();
    for (mix, tag) in [
        (UpdateMix::InsertOnly, "insert"),
        (UpdateMix::DeleteOnly, "delete"),
        (UpdateMix::Mixed, "mixed"),
    ] {
        for seed in 0..cases() {
            let mut r = rng(59_000 + seed);
            let start = random_ground_instance(
                &s,
                &mut r,
                &InstanceParams {
                    n_consts: 4,
                    n_facts: 14,
                },
            );
            let stream = update_stream(
                &start,
                &mut r,
                &UpdateParams {
                    steps: 4,
                    step_size: 3,
                    n_consts: 4,
                    mix,
                },
            );
            sweep_grid(
                &format!("existential datalog {tag} stream, seed {seed}"),
                |par| replay_and_check(&setting, &t, &start, &stream, par, tag),
            );
        }
    }
}

#[test]
fn existential_datalog_renumbering_seeds_match_from_scratch() {
    let (s, t, setting) = keyless_exchange_setting();
    // Constants order by first interning: fix the order of this test's
    // own names before any instance mentions them.
    for name in ["xa0", "xa", "xb", "xc", "xd1", "xd2", "xk1", "xk2", "xk3"] {
        quasi_inverse::schema::Value::constant(name);
    }
    let seeds: [(&str, &str, &[&str]); 3] = [
        (
            // Emp(xa,xd1,xk2) is skipped behind Emp(xa,xd1,xk1); deleting
            // the first makes it fire in its place, minting the lowest
            // null again — for a different trigger.
            "first Emp deleted, a later trigger fires in its place",
            "Emp(xa,xd1,xk1) Emp(xa,xd1,xk2) Emp(xb,xd1,xk1) Emp(xc,xd2,xk1) \
             Mgr(xb,xa) Mgr(xc,xb)",
            &[
                "- Emp(xa,xd1,xk1)",
                "- Emp(xa,xd1,xk2)",
                "+ Emp(xa,xd1,xk1)",
            ],
        ),
        (
            // A trigger ahead of every other one: all later nulls shift.
            "insertion early in trigger order",
            "Emp(xa,xd1,xk1) Emp(xb,xd2,xk1) Emp(xc,xd1,xk3) Mgr(xa,xb) Mgr(xb,xc)",
            &[
                "+ Emp(xa0,xd2,xk1)",
                "+ Mgr(xa0,xa)\n- Emp(xb,xd2,xk1)",
                "- Emp(xa0,xd2,xk1)\n+ Emp(xa0,xd1,xk2)",
            ],
        ),
        (
            // Source nulls: they keep their ids while the source holds
            // them, and the fresh-null floor moves when the highest one
            // comes or goes.
            "source with labeled nulls",
            "Emp(xa,N3,xk1) Emp(xb,xd1,N5) Emp(N7,xd1,xk1) Mgr(xa,N7) Mgr(N7,xb)",
            &[
                "- Emp(N7,xd1,xk1)",
                "- Mgr(xa,N7) Mgr(N7,xb)",
                "+ Emp(xc,xd2,N9) Mgr(xc,N3)",
                "- Emp(xa,N3,xk1)\n+ Emp(N1,N3,xk2)",
            ],
        ),
    ];
    for (name, start, diffs) in seeds {
        let start = Instance::parse(&s, start).unwrap();
        let stream: Vec<Diff> = diffs.iter().map(|d| Diff::parse(&s, d).unwrap()).collect();
        sweep_grid(name, |par| {
            replay_and_check(&setting, &t, &start, &stream, par, name)
        });
    }
}

/// Two s-t tgds whose heads share `R`, so a trigger of the second can be
/// satisfied by the first's facts, over a Datalog target.
fn shared_head_setting() -> (Schema, Schema, ExchangeSetting) {
    let s = Schema::parse("A/2 B/1 C/1").unwrap();
    let t = Schema::parse("R/2 S/1 T/1").unwrap();
    let setting = ExchangeSetting {
        st_tgds: vec![
            parse_tgd(&s, &t, "A(x,y) -> R(x,y)").unwrap(),
            parse_tgd(&s, &t, "B(x) -> exists z . R(x,z) & S(z)").unwrap(),
            parse_tgd(&s, &t, "C(x) -> exists z . R(x,z)").unwrap(),
        ],
        target_tgds: vec![parse_tgd(&t, &t, "R(x,y) -> T(x)").unwrap()],
        egds: vec![],
    };
    (s, t, setting)
}

#[test]
fn st_decision_flips_match_from_scratch() {
    // Each stream changes the restricted check's answer for a trigger
    // the update does not touch: the s-t patch must re-decide exactly
    // those, against the base as it stands at their place in the stream.
    let (s, t, setting) = keyless_exchange_setting();
    // Constants order by first interning: fix the order of this test's
    // own names before any instance mentions them.
    for name in ["ya", "yb", "yc", "yd1", "yd2", "yk0", "yk1", "yk2", "yk3"] {
        quasi_inverse::schema::Value::constant(name);
    }
    let cases: [(&str, &str, &[&str]); 4] = [
        (
            // Emp(ya,yd1,yk0) sorts before the surviving Emp(ya,yd1,yk1):
            // the survivor flips from fire to skip, and back.
            "inserted trigger ahead of a survivor's duplicate",
            "Emp(ya,yd1,yk1) Emp(yb,yd1,yk1) Emp(yc,yd2,yk2) Mgr(yb,ya) Mgr(yc,yb)",
            &[
                "+ Emp(ya,yd1,yk0)",
                "- Emp(ya,yd1,yk0)",
                "+ Emp(ya,yd1,yk0)\n- Emp(yc,yd2,yk2)",
            ],
        ),
        (
            // The trigger that satisfied a later duplicate goes: the
            // duplicate flips from skip to fire.
            "deleted satisfier of a later duplicate",
            "Emp(ya,yd1,yk1) Emp(ya,yd1,yk2) Emp(yb,yd2,yk1) Mgr(ya,yb)",
            &[
                "- Emp(ya,yd1,yk1)",
                "+ Emp(ya,yd1,yk1)",
                "- Emp(ya,yd1,yk2)",
            ],
        ),
        (
            // Three duplicates: the second fires in the first's place and
            // the third must see the second's facts to stay skipped.
            "two-step cascade",
            "Emp(ya,yd1,yk1) Emp(ya,yd1,yk2) Emp(ya,yd1,yk3) Emp(yb,yd1,yk1) Mgr(yb,ya)",
            &[
                "- Emp(ya,yd1,yk1)",
                "- Emp(ya,yd1,yk2)",
                "+ Emp(ya,yd1,yk0) Emp(ya,yd1,yk1)",
                "- Emp(ya,yd1,yk0) Emp(ya,yd1,yk3)",
            ],
        ),
        (
            // Labeled nulls in the source: constants sort before nulls,
            // and N9 lies above the first run's fresh-null floor, so it
            // shares its id with a null that run minted.
            "source with labeled nulls",
            "Emp(ya,yd1,N4) Emp(yb,N2,yk1) Emp(yb,N2,yk2) Mgr(ya,N6)",
            &[
                "- Emp(yb,N2,yk1)",
                "+ Emp(ya,yd1,yk1)",
                "+ Emp(yc,yd1,N9) Emp(yc,yd1,yk3)",
                "- Emp(ya,yd1,yk1) Emp(yb,N2,yk2)",
            ],
        ),
    ];
    for (name, start, diffs) in cases {
        let start = Instance::parse(&s, start).unwrap();
        let stream: Vec<Diff> = diffs.iter().map(|d| Diff::parse(&s, d).unwrap()).collect();
        sweep_grid(name, |par| {
            replay_and_check(&setting, &t, &start, &stream, par, name)
        });
    }
    // A witness supplied across tgds: `B(x)` and `C(x)` are satisfied by
    // `R` facts of the first tgd, or of an earlier trigger of another.
    let (s, t, setting) = shared_head_setting();
    let start = Instance::parse(&s, "A(ya,yb) B(ya) C(ya) B(yc) C(yc) A(yd1,yd2)").unwrap();
    let stream: Vec<Diff> = [
        "- A(ya,yb)",
        "+ A(ya,yc)",
        "+ A(yc,yd1)\n- B(ya)",
        "- A(ya,yc) A(yc,yd1)\n+ C(yd1)",
        "+ B(ya)\n- A(yd1,yd2)",
    ]
    .iter()
    .map(|d| Diff::parse(&s, d).unwrap())
    .collect();
    sweep_grid("witness across tgds", |par| {
        replay_and_check(&setting, &t, &start, &stream, par, "witness across tgds")
    });
}

#[test]
fn delta_scans_fan_out_by_delta_size() {
    // A delta scan is priced by the facts it pins, not by its tgd's full
    // enumeration: a one-fact update stays on one worker, while a
    // several-hundred-fact update still fans out, rendering the same.
    let _guard = PLAN_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    set_hardware_parallelism_override(Some(8));
    let (s, t, setting) = keyless_exchange_setting();
    let start = random_ground_instance(
        &s,
        &mut rng(1),
        &InstanceParams {
            n_consts: 250,
            n_facts: 1000,
        },
    );
    let at = |threads: usize| DeltaChaseOptions {
        exec: ExecConfig::default()
            .with_parallelism(Parallelism::fixed(threads))
            .with_planning(Planning::On),
        ..Default::default()
    };
    let prev = chase_incremental(&setting, &start, &t, &at(2)).unwrap();
    let one = Diff::parse(&s, "+ Emp(zn0,zd0,zc0)").unwrap();
    let wide: Vec<String> = (0..300)
        .map(|i| format!("+ Emp(zn{i},zd{},zc0) Mgr(zn{i},zn{})", i % 40, i + 1))
        .collect();
    let wide = Diff::parse(&s, &wide.join("\n")).unwrap();
    for (diff, workers) in [(&one, 1), (&wide, 2)] {
        let next = chase_delta(&prev, diff, &at(2)).unwrap();
        let sequential = chase_delta(&prev, diff, &at(1)).unwrap();
        assert_eq!(next.stats.exec.workers, workers, "{} changes", diff.len());
        assert_eq!(render(&next), render(&sequential), "{} changes", diff.len());
        let mut updated = start.clone();
        diff.apply(&mut updated).unwrap();
        let scratch = chase_incremental(&setting, &updated, &t, &at(2)).unwrap();
        assert_eq!(render(&next), render(&scratch), "{} changes", diff.len());
    }
    set_hardware_parallelism_override(None);
}

/// Existentials + closure + key egd: the ineligible fallback path
/// (replayed s-t stage, from-scratch target rounds).
fn egd_fallback_setting() -> (Schema, Schema, ExchangeSetting) {
    let s = Schema::parse("EmpSrc/2 Boss/2").unwrap();
    let t = Schema::parse("Emp/2 Reports/2").unwrap();
    let setting = ExchangeSetting {
        st_tgds: vec![
            parse_tgd(&s, &t, "EmpSrc(id,name) -> Emp(id,name)").unwrap(),
            parse_tgd(&s, &t, "Boss(e,b) -> Reports(e,b)").unwrap(),
        ],
        target_tgds: vec![
            parse_tgd(&t, &t, "Reports(x,y) & Reports(y,z) -> Reports(x,z)").unwrap(),
        ],
        egds: vec![parse_egd(&t, "Emp(id,n1) & Emp(id,n2) -> n1 = n2").unwrap()],
    };
    (s, t, setting)
}

#[test]
fn egd_fallback_streams_match_from_scratch() {
    let (s, t, setting) = egd_fallback_setting();
    let start = Instance::parse(
        &s,
        "EmpSrc(e1,ann) EmpSrc(e2,bo) Boss(e1,e2) Boss(e2,e3) Boss(e3,e4)",
    )
    .unwrap();
    // Hand-picked diffs covering repair, conflict, and recovery.
    let diffs = [
        "+ Boss(e4,e5)",
        "- Boss(e2,e3)\n+ EmpSrc(e3,cy)",
        "+ EmpSrc(e1,anne)", // egd merges ann/anne? both constants: conflict
        "- EmpSrc(e1,anne)", // back to a solvable instance
    ];
    sweep_grid("egd fallback stream", |par| {
        let o = opts(par);
        let mut cur = chase_incremental(&setting, &start, &t, &o).unwrap();
        let mut inst = start.clone();
        let mut transcript = render(&cur);
        for (step, text) in diffs.iter().enumerate() {
            let diff = Diff::parse(&s, text).unwrap();
            cur = chase_delta(&cur, &diff, &o).unwrap();
            diff.apply(&mut inst).unwrap();
            let scratch = chase_incremental(&setting, &inst, &t, &o).unwrap();
            assert_eq!(
                render(&cur),
                render(&scratch),
                "egd fallback diverged at step {step} (`{text}`)"
            );
            transcript.push_str("\n---\n");
            transcript.push_str(&render(&cur));
        }
        // The conflict step really failed, and the stream recovered.
        assert!(transcript.contains("failed"), "{transcript}");
        assert!(cur.solution().is_some());
        transcript
    });
}

/// LAV-style existential s-t tgds and no target dependencies.
fn existential_st_setting() -> (Schema, Schema, ExchangeSetting) {
    let s = Schema::parse("R/2").unwrap();
    let t = Schema::parse("P/2 Q/2").unwrap();
    let setting = ExchangeSetting {
        st_tgds: vec![
            parse_tgd(&s, &t, "R(x,y) -> exists z . P(x,z), Q(z,y)").unwrap(),
            parse_tgd(&s, &t, "R(x,x) -> P(x,x)").unwrap(),
        ],
        target_tgds: vec![],
        egds: vec![],
    };
    (s, t, setting)
}

/// What the incremental and the plain target chase must agree on: the
/// solution (or the `Failed` pair), `steps`, and the round and trigger
/// counters.
fn staged(outcome: &TargetChaseResult, stats: &TargetChaseStats) -> String {
    let sol = match outcome {
        TargetChaseResult::Solution(u) => format!("{u}"),
        TargetChaseResult::Failed { left, right } => format!("failed {left} {right}"),
    };
    let exec = &stats.exec;
    format!(
        "sol={sol}\nsteps={} rounds={} enumerated={} fired={}",
        stats.steps, exec.rounds, exec.triggers_enumerated, exec.triggers_fired
    )
}

#[test]
fn incremental_and_target_chase_stage_identically() {
    // `chase_incremental` and `chase_with_target_deps_stats` run the
    // same s-t and target stages; recording the memo only observes.
    let settings = [
        ("closure", closure_setting()),
        ("existential s-t", existential_st_setting()),
        ("keyless exchange", keyless_exchange_setting()),
        ("egd fallback", egd_fallback_setting()),
    ];
    // Which (setting, failed?) outcomes the random sources reached.
    let mut reached = std::collections::BTreeSet::new();
    for (name, (s, t, setting)) in &settings {
        for seed in 0..cases() {
            let mut r = rng(61_000 + seed);
            let source = random_ground_instance(
                s,
                &mut r,
                &InstanceParams {
                    n_consts: 5,
                    n_facts: 12,
                },
            );
            let ctx = format!("{name}, seed {seed}");
            sweep_grid(&ctx, |par| {
                let recorded = chase_incremental(setting, &source, t, &opts(par)).unwrap();
                let unrecorded = DeltaChaseOptions {
                    record: false,
                    ..opts(par)
                };
                let unrecorded = chase_incremental(setting, &source, t, &unrecorded).unwrap();
                let options = TargetChaseOptions {
                    exec: ExecConfig::default().with_parallelism(par),
                    ..Default::default()
                };
                let (outcome, stats) =
                    chase_with_target_deps_stats(setting, &source, t, options).unwrap();
                let failed = matches!(outcome, TargetChaseResult::Failed { .. });
                reached.insert((*name, failed));
                let expected = staged(&outcome, &stats);
                for (label, run) in [("recorded", &recorded), ("unrecorded", &unrecorded)] {
                    assert_eq!(
                        staged(&run.outcome, &run.stats),
                        expected,
                        "{ctx}: {label} incremental run"
                    );
                }
                assert_eq!(render(&recorded), render(&unrecorded), "{ctx}: base");
                format!("{}\n{expected}", render(&recorded))
            });
        }
    }
    // The egd setting covers both the solution and the `Failed` pair.
    assert!(reached.contains(&("egd fallback", true)), "{reached:?}");
    assert!(reached.contains(&("egd fallback", false)), "{reached:?}");
}

#[test]
fn evicted_hom_cache_answers_like_a_fresh_one() {
    // A shared fingerprint-keyed cache survives the delta (scoped
    // eviction only) and must keep answering exactly like a fresh
    // cache-free computation.
    let (s, t, setting) = closure_setting();
    let cache = std::sync::Arc::new(HomCache::new());
    let o = DeltaChaseOptions {
        cache: Some(cache.clone()),
        ..Default::default()
    };
    let start = Instance::parse(&s, "E(a,b) E(b,c) E(c,d)").unwrap();
    let cur = chase_incremental(&setting, &start, &t, &o).unwrap();
    // Warm the cache with solution-touching entries.
    let probe = Instance::parse(&t, "T(N80,N81)").unwrap();
    let warm = cache.has_hom(&probe, cur.solution().unwrap());
    let diff = Diff::parse(&s, "- E(a,b)\n+ E(d,e)").unwrap();
    let next = chase_delta(&cur, &diff, &o).unwrap();
    assert!(next.stats.exec.cache_evictions > 0, "eviction must fire");
    // Post-eviction answers match a cache-free recompute.
    let new_sol = next.solution().unwrap();
    assert_eq!(
        cache.has_hom(&probe, new_sol),
        quasi_inverse::schema::has_hom(&probe, new_sol),
    );
    assert_eq!(
        warm,
        quasi_inverse::schema::has_hom(&probe, cur.solution().unwrap())
    );
}

#[test]
fn budget_trip_is_typed_and_sound() {
    let (s, t, setting) = closure_setting();
    // A chain long enough that its closure far exceeds the fact cap.
    let start = Instance::parse(
        &s,
        &(0..20)
            .map(|i| format!("E(v{i},v{})", i + 1))
            .collect::<Vec<_>>()
            .join(" "),
    )
    .unwrap();
    let full = chase_incremental(&setting, &start, &t, &opts(Parallelism::sequential())).unwrap();
    let prev = {
        // Memoized result produced under no budget; the *delta* runs
        // with a tight cap.
        let small = Instance::parse(&s, "E(v0,v1)").unwrap();
        let diff = Diff::between(&small, &start);
        let base = chase_incremental(&setting, &small, &t, &opts(Parallelism::sequential()));
        chase_delta(&base.unwrap(), &diff, &opts(Parallelism::sequential())).unwrap()
    };
    assert_eq!(render(&prev), render(&full), "unbudgeted delta must agree");

    // Now trip the budget mid-delta: extend the chain massively with a
    // cap that cannot fit the new closure facts.
    let ext = Diff::parse(
        &s,
        &(20..40)
            .map(|i| format!("+ E(v{i},v{})", i + 1))
            .collect::<Vec<_>>()
            .join("\n"),
    )
    .unwrap();
    let capped = DeltaChaseOptions {
        exec: ExecConfig::default()
            .with_parallelism(Parallelism::sequential())
            .with_budget(Budget::unlimited().with_max_facts(5)),
        ..Default::default()
    };
    let mut updated = start.clone();
    ext.apply(&mut updated).unwrap();
    let uninterrupted =
        chase_incremental(&setting, &updated, &t, &opts(Parallelism::sequential())).unwrap();
    match chase_delta(&prev, &ext, &capped) {
        Err(ChaseError::Resource(r)) => match &r.partial {
            ChasePartial::Instance(partial) => {
                let sol = uninterrupted.solution().unwrap();
                assert!(
                    partial.is_subinstance_of(sol).unwrap(),
                    "partial must be a sound subset of the true fixpoint"
                );
            }
            ChasePartial::None => {}
            other => panic!("unexpected partial shape: {other:?}"),
        },
        Err(other) => panic!("expected a typed resource error, got {other}"),
        Ok(_) => panic!("a 5-fact cap cannot fit the extended closure"),
    }
}
