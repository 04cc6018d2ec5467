//! E22 — incremental chase maintenance.
//!
//! Wall-clock of `chase_delta` against a from-scratch re-chase as the
//! update size |Δ| grows relative to the instance (1%, 5%, 25%, 100%),
//! on the closure-style workload (copy + transitive closure over a
//! chain — the canonical semi-naive stress): an insert series (chain
//! extensions, one semi-naive continuation) and a delete series (tail
//! truncations, the DRed delete/re-derive path). A third series runs the
//! keyless `exchange` setting of the end-to-end benchmark — existential
//! s-t tgds under a Datalog target — on ~1000 source facts with mixed
//! 4-change diffs: there every update shifts the s-t output's fresh
//! nulls, which the replay's null renaming absorbs. Every timed pair
//! also byte-compares the two artifacts, so the speedup numbers can
//! never come from a wrong answer.

use qi_bench::{measure, Record};
use qi_chase::{
    chase_delta, chase_incremental, ChaseResult, DeltaChaseOptions, ExchangeSetting,
    TargetChaseResult,
};
use qi_exec::ExecStats;
use qi_lang::parse_tgd;
use qi_schema::{Diff, Instance, Schema};
use qi_workloads::random::{random_ground_instance, rng, InstanceParams};
use qi_workloads::{update_stream, UpdateMix, UpdateParams};
use std::time::Duration;

const MIN_TIME: Duration = Duration::from_millis(200);
const MIN_ITERS: u32 = 5;

/// Chain length of the base instance (closure has ~n²/2 facts).
const N: usize = 128;

fn setting() -> (Schema, Schema, ExchangeSetting) {
    let s = Schema::parse("E/2").unwrap();
    let t = Schema::parse("T/2").unwrap();
    let setting = ExchangeSetting {
        st_tgds: vec![parse_tgd(&s, &t, "E(x,y) -> T(x,y)").unwrap()],
        target_tgds: vec![parse_tgd(&t, &t, "T(x,y), T(y,z) -> T(x,z)").unwrap()],
        egds: vec![],
    };
    (s, t, setting)
}

fn chain(lo: usize, hi: usize) -> String {
    (lo..hi)
        .map(|i| format!("E(v{i},v{})", i + 1))
        .collect::<Vec<_>>()
        .join(" ")
}

fn render(r: &ChaseResult) -> String {
    match &r.outcome {
        TargetChaseResult::Solution(u) => format!("{u}"),
        TargetChaseResult::Failed { left, right } => format!("failed {left} {right}"),
    }
}

fn run_series(series: &str, make_diff: impl Fn(usize) -> Diff) {
    let (s, t, setting) = setting();
    let start = Instance::parse(&s, &chain(0, N)).unwrap();
    let prev = chase_incremental(&setting, &start, &t, &DeltaChaseOptions::default()).unwrap();
    for pct in [1usize, 5, 25, 100] {
        let k = (N * pct / 100).max(1);
        time_point(series, pct, &setting, &t, &prev, &make_diff(k));
    }
}

/// Time one `chase_delta` of `diff` from the memo `prev` against a
/// from-scratch `chase_incremental` of the updated source, after
/// byte-comparing the two, and emit the record. Returns the delta's
/// counters.
fn time_point(
    series: &str,
    param: usize,
    setting: &ExchangeSetting,
    t: &Schema,
    prev: &ChaseResult,
    diff: &Diff,
) -> ExecStats {
    let opts = DeltaChaseOptions::default();
    let mut updated = prev.source.clone();
    diff.apply(&mut updated).unwrap();
    // Correctness gate before timing: byte-identical artifacts.
    let delta_once = chase_delta(prev, diff, &opts).unwrap();
    let scratch_once = chase_incremental(setting, &updated, t, &opts).unwrap();
    assert_eq!(
        render(&delta_once),
        render(&scratch_once),
        "{series} param={param}: delta diverged from scratch"
    );
    let scratch = measure(MIN_ITERS, MIN_TIME, || {
        chase_incremental(setting, &updated, t, &opts).unwrap()
    });
    let delta = measure(MIN_ITERS, MIN_TIME, || {
        chase_delta(prev, diff, &opts).unwrap()
    });
    let e = &delta_once.stats.exec;
    Record::new(&format!("incremental/{series}"))
        .int("param", param as u64)
        .int("delta_facts_in", e.delta_facts_in)
        .int("facts_deleted", e.facts_deleted)
        .int("facts_rederived", e.facts_rederived)
        .int("triggers_fired", e.triggers_fired)
        .int("workers", e.workers as u64)
        .num("scratch_ns", scratch.mean_ns())
        .num("delta_ns", delta.mean_ns())
        .num("speedup", scratch.mean_ns() / delta.mean_ns())
        .sample(delta)
        .emit();
    delta_once.stats.exec
}

/// The keyless `exchange` setting: existential s-t tgds, then a join
/// and a closure step in the target.
fn exchange_setting() -> (Schema, Schema, ExchangeSetting) {
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

/// Existential series: one mixed 4-change diff per point (`param` is
/// the diff's seed offset), each against the same ~1000-fact source.
fn run_existential_series() {
    const FACTS: usize = 1000;
    let (s, t, setting) = exchange_setting();
    let n_consts = FACTS / 4;
    let start = random_ground_instance(
        &s,
        &mut rng(1),
        &InstanceParams {
            n_consts,
            n_facts: FACTS,
        },
    );
    let prev = chase_incremental(&setting, &start, &t, &DeltaChaseOptions::default()).unwrap();
    for param in 0..4usize {
        let diff = update_stream(
            &start,
            &mut rng(100 + param as u64),
            &UpdateParams {
                steps: 1,
                step_size: 4,
                n_consts,
                mix: UpdateMix::Mixed,
            },
        )
        .remove(0);
        let e = time_point("existential", param, &setting, &t, &prev, &diff);
        // The s-t stage patches the previous base: an update fires the
        // triggers its diff adds or re-decides (and the continuation's),
        // never the ~1000 surviving s-t triggers again.
        assert!(
            e.triggers_fired * 10 < FACTS as u64,
            "existential param={param}: {} triggers fired for {} changes",
            e.triggers_fired,
            diff.len()
        );
    }
}

fn main() {
    let (s, _, _) = setting();
    // Insert series: extend the chain by k tail edges — each new edge
    // adds ~N closure facts, so the incremental work is genuinely
    // proportional to the update, not an already-known no-op.
    run_series("insert", |k| {
        Diff::parse(
            &s,
            &(N..N + k)
                .map(|i| format!("+ E(v{i},v{})", i + 1))
                .collect::<Vec<_>>()
                .join("\n"),
        )
        .unwrap()
    });
    // Delete series: truncate the chain's last k edges — DRed
    // over-deletes every closure fact reaching into the tail and
    // re-derives the survivors.
    run_series("delete", |k| {
        Diff::parse(
            &s,
            &(N - k..N)
                .map(|i| format!("- E(v{i},v{})", i + 1))
                .collect::<Vec<_>>()
                .join("\n"),
        )
        .unwrap()
    });
    run_existential_series();
}
