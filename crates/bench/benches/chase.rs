//! E10 — chase substrate scaling.
//!
//! Wall-clock of `chase_Σ(I)` as the source instance grows, for three
//! mapping shapes (LAV decomposition, n-way union, a 3-way join premise),
//! the restricted-vs-oblivious ablation, the sequential-vs-parallel
//! trigger-enumeration sweep (per-stage counters included in the JSON),
//! and the keyed exchange with egd repair (batched vs one at a time).

use qi_bench::{measure, Record, THREAD_SWEEP};
use qi_chase::target::chase_with_target_deps_one_at_a_time;
use qi_chase::{
    chase, chase_oblivious, chase_with_options, chase_with_target_deps_stats, ChaseOptions,
    ChaseStrategy, ExchangeSetting, TargetChaseOptions, TargetChaseResult,
};
use qi_exec::Parallelism;
use qi_lang::{parse_egd, parse_tgd};
use qi_schema::{Instance, Schema};
use qi_workloads::families::{
    chain_join_j, decomposition_instance, decomposition_k, graph_instance, union_instance, union_n,
};
use qi_workloads::random::{random_ground_instance, rng, InstanceParams};
use std::time::Duration;

const MIN_TIME: Duration = Duration::from_millis(200);
const MIN_ITERS: u32 = 5;

fn bench_decomposition() {
    let m = decomposition_k(3);
    for n in [10usize, 40, 160, 640] {
        let i = decomposition_instance(&m, n);
        let s = measure(MIN_ITERS, MIN_TIME, || {
            chase(&m.tgds, &i, &m.target).unwrap().instance
        });
        Record::new("chase/decomposition3")
            .int("param", n as u64)
            .sample(s)
            .emit();
    }
}

fn bench_union() {
    let m = union_n(4);
    for n in [16usize, 64, 256, 1024] {
        let i = union_instance(&m, n);
        let s = measure(MIN_ITERS, MIN_TIME, || {
            chase(&m.tgds, &i, &m.target).unwrap().instance
        });
        Record::new("chase/union4")
            .int("param", n as u64)
            .sample(s)
            .emit();
    }
}

fn join3_instance(m: &qi_core::SchemaMapping, n: usize) -> qi_schema::Instance {
    let mut i = qi_schema::Instance::new(m.source.clone());
    for rel in ["A1", "A2", "A3"] {
        let g = graph_instance(m, rel, n);
        i = i.union(&g).unwrap();
    }
    i
}

fn bench_join_premise() {
    // Three-way join premise over overlapping graph relations: trigger
    // enumeration is the dominant cost.
    let m = chain_join_j(3);
    for n in [10usize, 20, 40, 80] {
        let i = join3_instance(&m, n);
        let s = measure(MIN_ITERS, MIN_TIME, || {
            chase(&m.tgds, &i, &m.target).unwrap().instance
        });
        Record::new("chase/join3")
            .int("param", n as u64)
            .sample(s)
            .emit();
    }
}

fn bench_restricted_vs_oblivious() {
    let m = decomposition_k(3);
    let i = decomposition_instance(&m, 200);
    for (variant, oblivious) in [("restricted", false), ("oblivious", true)] {
        let s = measure(MIN_ITERS, MIN_TIME, || {
            if oblivious {
                chase_oblivious(&m.tgds, &i, &m.target).unwrap().instance
            } else {
                chase(&m.tgds, &i, &m.target).unwrap().instance
            }
        });
        Record::new("chase/ablation-restricted-vs-oblivious")
            .str("variant", variant)
            .sample(s)
            .emit();
    }
}

/// The 9-tgd sweep mapping: every ordered pair of the three graph
/// relations joined into its own target relation — nine genuine join
/// tasks for the per-tgd executor fan-out.
fn nine_tgd_mapping() -> qi_core::SchemaMapping {
    let rels = ["A1", "A2", "A3"];
    let tgds: Vec<String> = rels
        .iter()
        .enumerate()
        .flat_map(|(i, a)| {
            rels.iter()
                .enumerate()
                .map(move |(j, b)| format!("{a}(x,y) & {b}(y,z) -> T{i}{j}(x,z)"))
        })
        .collect();
    let tgd_refs: Vec<&str> = tgds.iter().map(String::as_str).collect();
    let targets: Vec<String> = (0..rels.len())
        .flat_map(|i| (0..rels.len()).map(move |j| format!("T{i}{j}/2")))
        .collect();
    qi_core::SchemaMapping::parse("A1/2 A2/2 A3/2", &targets.join(" "), &tgd_refs).unwrap()
}

fn bench_thread_sweep() {
    // Sequential vs parallel trigger enumeration with planning OFF — the
    // historical scheduling, kept as the ablation baseline for the
    // planned sweep below. The chased instance is bit-identical at every
    // point of the sweep (asserted here and locked down in
    // tests/determinism.rs).
    let m = nine_tgd_mapping();
    let i = join3_instance(&m, 60);
    qi_schema::set_planning_override(Some(false));
    let baseline = chase(&m.tgds, &i, &m.target).unwrap().instance;
    for threads in THREAD_SWEEP {
        let options = ChaseOptions {
            exec: qi_exec::ExecConfig::default().with_parallelism(Parallelism::fixed(threads)),
        };
        let out = chase_with_options(&m.tgds, &i, &m.target, options.clone()).unwrap();
        assert_eq!(out.instance, baseline, "parallel chase must be exact");
        let s = measure(MIN_ITERS, MIN_TIME, || {
            chase_with_options(&m.tgds, &i, &m.target, options.clone())
                .unwrap()
                .instance
        });
        Record::new("chase/threads-sweep-9tgd-join")
            .int("threads", threads as u64)
            .int("triggers", out.triggers as u64)
            .int("fired", out.fired as u64)
            .int("workers", out.stats.workers as u64)
            .int("tasks", out.stats.tasks)
            .num("utilization", out.stats.utilization())
            .sample(s)
            .emit();
    }
    qi_schema::set_planning_override(None);
}

fn bench_planned_sweep() {
    // The same 9-tgd sweep on the planned path: cost-based join orders,
    // prefilters, and morsel-driven scheduling (cost hints cap the
    // fan-out and the calling thread participates). The chased instance
    // stays byte-identical to the unplanned sequential chase; the sweep
    // asserts the parallel regression guard in-process so `cargo bench`
    // fails loudly on a scheduling regression.
    let m = nine_tgd_mapping();
    let i = join3_instance(&m, 60);
    qi_schema::set_planning_override(Some(false));
    let unplanned = chase(&m.tgds, &i, &m.target).unwrap().instance;
    qi_schema::set_planning_override(Some(true));
    let mut means = Vec::new();
    for threads in THREAD_SWEEP {
        let options = ChaseOptions {
            exec: qi_exec::ExecConfig::default().with_parallelism(Parallelism::fixed(threads)),
        };
        let out = chase_with_options(&m.tgds, &i, &m.target, options.clone()).unwrap();
        assert_eq!(out.instance, unplanned, "planned chase must be exact");
        let s = measure(MIN_ITERS, MIN_TIME, || {
            chase_with_options(&m.tgds, &i, &m.target, options.clone())
                .unwrap()
                .instance
        });
        means.push((threads, s.mean_ns()));
        Record::new("chase/planned9")
            .int("threads", threads as u64)
            .int("triggers", out.triggers as u64)
            .int("fired", out.fired as u64)
            .int("workers", out.stats.workers as u64)
            .int("tasks", out.stats.tasks)
            .int("morsels", out.stats.morsels)
            .int("plans_applied", out.stats.plans_applied)
            .int("prefilter_hits", out.stats.prefilter_hits)
            .num("utilization", out.stats.utilization())
            .sample(s)
            .emit();
    }
    qi_schema::set_planning_override(None);
    let at = |t: usize| {
        means
            .iter()
            .find(|&&(threads, _)| threads == t)
            .map(|&(_, m)| m)
            .expect("sweep point measured")
    };
    assert!(
        at(8) <= 1.5 * at(1),
        "planned path regression: threads=8 at {:.0}ns vs threads=1 at {:.0}ns (>1.5x)",
        at(8),
        at(1)
    );
}

fn bench_seminaive() {
    // E18 — naive vs semi-naive trigger enumeration on the iterated
    // target chase. Transitive closure over a chain is the canonical
    // iterating workload: path lengths double each round, so the naive
    // strategy re-enumerates an ever-growing join from scratch while the
    // semi-naive rounds touch only the previous round's delta. The
    // solution is byte-identical either way (asserted here and locked
    // down in tests/match_oracle.rs).
    let s = Schema::parse("E0/2").unwrap();
    let t = Schema::parse("E/2").unwrap();
    let setting = ExchangeSetting {
        st_tgds: vec![parse_tgd(&s, &t, "E0(x,y) -> E(x,y)").unwrap()],
        target_tgds: vec![parse_tgd(&t, &t, "E(x,y) & E(y,z) -> E(x,z)").unwrap()],
        egds: vec![],
    };
    for n in [16usize, 48] {
        let mut i = Instance::new(s.clone());
        let rel = s.rel("E0").unwrap();
        for k in 0..n {
            i.insert(
                rel,
                vec![
                    qi_schema::Value::constant(&format!("v{k:03}")),
                    qi_schema::Value::constant(&format!("v{:03}", k + 1)),
                ],
            )
            .unwrap();
        }
        let options = |strategy| TargetChaseOptions {
            max_steps: Some(5_000_000),
            strategy,
            exec: qi_exec::ExecConfig::auto(),
            ..Default::default()
        };
        let run =
            |strategy| chase_with_target_deps_stats(&setting, &i, &t, options(strategy)).unwrap();
        let (naive_result, _) = run(ChaseStrategy::Naive);
        let (semi_result, _) = run(ChaseStrategy::SemiNaive);
        assert_eq!(naive_result, semi_result, "strategies must be exact");
        for (variant, strategy) in [
            ("naive", ChaseStrategy::Naive),
            ("semi-naive", ChaseStrategy::SemiNaive),
        ] {
            let (_, stats) = run(strategy);
            let sample = measure(MIN_ITERS, MIN_TIME, || match run(strategy).0 {
                TargetChaseResult::Solution(u) => u,
                TargetChaseResult::Failed { .. } => unreachable!("no egds"),
            });
            Record::new("chase/strategy-closure-chain")
                .str("variant", variant)
                .int("param", n as u64)
                .int("steps", stats.steps as u64)
                .int("rounds", stats.exec.rounds)
                .int("triggers_enumerated", stats.exec.triggers_enumerated)
                .int("triggers_fired", stats.exec.triggers_fired)
                .int("postings_reused", stats.exec.postings_reused)
                .int("postings_rebuilt", stats.exec.postings_rebuilt)
                .int("delta_facts", stats.exec.delta_facts)
                .sample(sample)
                .emit();
        }
    }
}

fn bench_budget_overhead() {
    // Cooperative budget checks on the hot path: chase the decomposition
    // workload unlimited vs. under an ample (never-tripping) budget. The
    // result is bit-identical either way — the budget only adds atomic
    // counter traffic — and the charged counters land in the JSON so the
    // overhead and the workload's resource shape are both visible.
    let m = decomposition_k(3);
    let i = decomposition_instance(&m, 200);
    let baseline = chase(&m.tgds, &i, &m.target).unwrap().instance;
    for (variant, budget) in [
        ("unlimited", qi_exec::Budget::unlimited()),
        (
            "ample",
            qi_exec::Budget::unlimited()
                .with_max_tasks(u64::MAX / 2)
                .with_max_facts(u64::MAX / 2),
        ),
    ] {
        let options = || ChaseOptions {
            exec: qi_exec::ExecConfig::default().with_budget(budget.clone()),
        };
        let out = chase_with_options(&m.tgds, &i, &m.target, options()).unwrap();
        assert_eq!(out.instance, baseline, "budget must not change the chase");
        let s = measure(MIN_ITERS, MIN_TIME, || {
            chase_with_options(&m.tgds, &i, &m.target, options())
                .unwrap()
                .instance
        });
        Record::new("chase/budget-overhead")
            .str("variant", variant)
            .int("tasks_charged", budget.tasks_charged())
            .int("facts_charged", budget.facts_charged())
            .sample(s)
            .emit();
    }
}

fn bench_keyed_exchange() {
    // The keyed exchange of the end-to-end benchmark: an existential
    // manager per department, keyed by an egd, so every department with
    // k employees costs k − 1 repairs. The batched per-egd fixpoint is
    // checked against the one-repair-at-a-time referee (same solution,
    // same steps) and both are timed.
    let source = Schema::parse("Emp/3 Mgr/2").unwrap();
    let target = Schema::parse("Works/2 Dept/2 Boss/2 Reach/2").unwrap();
    let st = |t: &str| parse_tgd(&source, &target, t).unwrap();
    let tt = |t: &str| parse_tgd(&target, &target, t).unwrap();
    let setting = ExchangeSetting {
        st_tgds: vec![
            st("Emp(n,d,c) -> exists m . Works(n,d) & Dept(d,m)"),
            st("Mgr(a,b) -> Boss(a,b)"),
        ],
        target_tgds: vec![
            tt("Works(n,d) & Dept(d,m) -> Boss(n,m)"),
            tt("Boss(x,y) & Boss(y,z) -> Reach(x,z)"),
        ],
        egds: vec![parse_egd(&target, "Dept(d,m1) & Dept(d,m2) -> m1 = m2").unwrap()],
    };
    for n in [100usize, 400, 1600] {
        let params = InstanceParams {
            n_consts: n / 4,
            n_facts: n,
        };
        let i = random_ground_instance(&source, &mut rng(1), &params);
        let options = || TargetChaseOptions {
            exec: qi_exec::ExecConfig::auto().with_parallelism(Parallelism::fixed(1)),
            ..Default::default()
        };
        let (result, stats) =
            chase_with_target_deps_stats(&setting, &i, &target, options()).unwrap();
        let (referee, ref_stats) =
            chase_with_target_deps_one_at_a_time(&setting, &i, &target, options()).unwrap();
        assert_eq!(result, referee, "batched egd repair must be exact");
        assert_eq!(stats.steps, ref_stats.steps, "and count the same steps");
        let TargetChaseResult::Solution(u) = result else {
            unreachable!("Dept's key only ever equates a constant with nulls")
        };
        // Steps are target firings plus repairs; the s-t firings are
        // the first part of `triggers_fired`.
        let st_fired = chase_with_options(&setting.st_tgds, &i, &target, ChaseOptions::default())
            .unwrap()
            .fired;
        let repairs = stats.steps - (stats.exec.triggers_fired as usize - st_fired);
        let s = measure(MIN_ITERS, MIN_TIME, || {
            chase_with_target_deps_stats(&setting, &i, &target, options()).unwrap()
        });
        let s_ref = measure(1, MIN_TIME, || {
            chase_with_target_deps_one_at_a_time(&setting, &i, &target, options()).unwrap()
        });
        Record::new("chase/keyed-exchange")
            .int("param", n as u64)
            .int("facts", u.fact_count() as u64)
            .int("nulls", u.nulls().len() as u64)
            .int("steps", stats.steps as u64)
            .int("repairs", repairs as u64)
            .int("rounds", stats.exec.rounds)
            .num("one_at_a_time_mean_ns", s_ref.mean_ns())
            .num("speedup", s_ref.mean_ns() / s.mean_ns())
            .sample(s)
            .emit();
    }
}

fn main() {
    bench_decomposition();
    bench_union();
    bench_join_premise();
    bench_restricted_vs_oblivious();
    bench_thread_sweep();
    bench_planned_sweep();
    bench_seminaive();
    bench_budget_overhead();
    bench_keyed_exchange();
}
