//! `exchange`: an ETL session against a fixed exchange setting.
//!
//! Two operation types alternate:
//!
//! * **chase** (heavy): a seeded source instance goes through the keyed
//!   setting — `chase_with_target_deps_stats`, then `core_of_with_stats`
//!   on the universal solution. The output is checked against the core
//!   computed sequentially (`Parallelism::fixed(1)`) at set-up.
//! * **update** (light): `chase_delta` of the next diff of a seeded
//!   update stream against a running memo over a larger source, under
//!   the same setting without the egd. A pass is the whole stream; after
//!   each pass the maintained target must render byte-identically to a
//!   sequential `chase_incremental` of the evolved source, and the memo
//!   restarts from the initial one.

use crate::report::{self, Outcome};
use crate::trace::{self, Tracer};
use qi_chase::{
    chase_delta, chase_incremental, chase_with_options, chase_with_target_deps_stats, ChaseOptions,
    ChaseResult, DeltaChaseOptions, ExchangeSetting, TargetChaseOptions, TargetChaseResult,
};
use qi_exec::{ExecConfig, ExecStats, Parallelism};
use qi_lang::{parse_egd, parse_tgd};
use qi_schema::{core_of_with_stats, Diff, Instance, Schema};
use qi_workloads::random::{random_ground_instance, rng, InstanceParams};
use qi_workloads::{update_stream, UpdateMix, UpdateParams};
use std::time::{Duration, Instant};

/// Input sizes.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Source facts per chase input.
    pub chase_facts: usize,
    /// Distinct chase inputs, cycled through.
    pub chase_pool: usize,
    /// Source facts under the update memo.
    pub update_facts: usize,
    /// Diffs per update pass.
    pub pass_len: usize,
}

impl Sizes {
    /// The measured configuration.
    pub const FULL: Sizes = Sizes {
        chase_facts: 400,
        chase_pool: 16,
        update_facts: 1000,
        pass_len: 100,
    };
    /// The smoke configuration.
    pub const SMOKE: Sizes = Sizes {
        chase_facts: 40,
        chase_pool: 2,
        update_facts: 60,
        pass_len: 4,
    };
}

/// Fact changes per diff.
const STEP_SIZE: usize = 4;

/// Constants per source fact: the pool grows with the instance so that
/// join fan-out stays the same at every size.
const FACTS_PER_CONST: usize = 4;

/// The keyed and keyless settings over one pair of schemas.
struct Settings {
    target: Schema,
    source: Schema,
    keyed: ExchangeSetting,
    keyless: ExchangeSetting,
}

fn settings() -> Settings {
    let source = Schema::parse("Emp/3 Mgr/2").expect("source schema");
    let target = Schema::parse("Works/2 Dept/2 Boss/2 Reach/2").expect("target schema");
    let st = |t: &str| parse_tgd(&source, &target, t).expect("s-t tgd");
    let tt = |t: &str| parse_tgd(&target, &target, t).expect("target tgd");
    let st_tgds = vec![
        st("Emp(n,d,c) -> exists m . Works(n,d) & Dept(d,m)"),
        st("Mgr(a,b) -> Boss(a,b)"),
    ];
    let target_tgds = vec![
        tt("Works(n,d) & Dept(d,m) -> Boss(n,m)"),
        tt("Boss(x,y) & Boss(y,z) -> Reach(x,z)"),
    ];
    let egd = parse_egd(&target, "Dept(d,m1) & Dept(d,m2) -> m1 = m2").expect("egd");
    let keyless = ExchangeSetting {
        st_tgds,
        target_tgds,
        egds: vec![],
    };
    let keyed = ExchangeSetting {
        egds: vec![egd],
        ..keyless.clone()
    };
    Settings {
        target,
        source,
        keyed,
        keyless,
    }
}

/// Everything the timed loop needs.
struct State {
    settings: Settings,
    chase_inputs: Vec<Instance>,
    start: ChaseResult,
    diffs: Vec<Diff>,
}

fn exec(threads: usize) -> ExecConfig {
    ExecConfig::auto().with_parallelism(Parallelism::fixed(threads))
}

fn delta_opts(threads: usize) -> DeltaChaseOptions {
    DeltaChaseOptions {
        exec: exec(threads),
        ..Default::default()
    }
}

fn render(outcome: &TargetChaseResult) -> String {
    match outcome {
        TargetChaseResult::Solution(u) => format!("{u}"),
        TargetChaseResult::Failed { left, right } => format!("failed: {left} = {right}"),
    }
}

/// Generate the inputs and build the initial memo.
fn setup(seed: u64, sizes: &Sizes) -> State {
    let settings = settings();
    let mut rng = rng(seed);
    let params = |facts: usize| InstanceParams {
        n_consts: (facts / FACTS_PER_CONST).max(2),
        n_facts: facts,
    };
    let chase_inputs = (0..sizes.chase_pool)
        .map(|_| random_ground_instance(&settings.source, &mut rng, &params(sizes.chase_facts)))
        .collect();
    let update_source =
        random_ground_instance(&settings.source, &mut rng, &params(sizes.update_facts));
    let diffs = update_stream(
        &update_source,
        &mut rng,
        &UpdateParams {
            steps: sizes.pass_len,
            step_size: STEP_SIZE,
            n_consts: params(sizes.update_facts).n_consts,
            mix: UpdateMix::Mixed,
        },
    );
    let start = chase_incremental(
        &settings.keyless,
        &update_source,
        &settings.target,
        &delta_opts(2),
    )
    .expect("initial chase");
    State {
        settings,
        chase_inputs,
        start,
        diffs,
    }
}

/// One chase op: exchange, then the core of the universal solution.
/// The counters both calls return go on their spans.
fn chase_op(
    st: &State,
    input: &Instance,
    tracer: &Tracer,
    op: u64,
    parent: u64,
    totals: &mut ExecStats,
) -> Result<Instance, String> {
    let options = TargetChaseOptions {
        exec: exec(2),
        ..Default::default()
    };
    let (res, sid) = tracer.span("chase.exchange", op, parent, |_| {
        chase_with_target_deps_stats(&st.settings.keyed, input, &st.settings.target, options)
    });
    let (outcome, stats) = res.map_err(|e| e.to_string())?;
    totals.absorb(&stats.exec);
    tracer.annotate(sid, &trace::exec_counters(&stats.exec));
    tracer.annotate(sid, &[("steps", stats.steps as f64)]);
    let u = match outcome {
        TargetChaseResult::Solution(u) => u,
        failed => return Err(render(&failed)),
    };
    let ((core, cs), cid) = tracer.span("schema.core", op, parent, |_| core_of_with_stats(&u));
    tracer.annotate(
        cid,
        &[
            ("endos_tried", cs.endos_tried as f64),
            ("nulls_folded", cs.nulls_folded as f64),
        ],
    );
    Ok(core)
}

/// Run the workload for `seconds`.
pub fn run(seed: u64, seconds: f64, tracer: &Tracer, sizes: &Sizes, corrupt: bool) -> Outcome {
    let mut out = Outcome::default();
    let (st, setup_s) = crate::timed_setup(|| {
        let st = setup(seed, sizes);
        // Warm-up: one op of each type.
        let mut scratch = ExecStats::default();
        let off = Tracer::new(false);
        let _ = chase_op(&st, &st.chase_inputs[0], &off, 0, 0, &mut scratch);
        let _ = chase_delta(&st.start, &st.diffs[0], &delta_opts(2));
        st
    });
    out.e2e.insert("setup_s", setup_s);

    // Sequential references.
    let seq = TargetChaseOptions {
        exec: exec(1),
        ..Default::default()
    };
    let mut chase_refs: Vec<String> = st
        .chase_inputs
        .iter()
        .map(|i| {
            match chase_with_target_deps_stats(
                &st.settings.keyed,
                i,
                &st.settings.target,
                seq.clone(),
            )
            .expect("reference chase")
            .0
            {
                TargetChaseResult::Solution(u) => format!("{}", core_of_with_stats(&u).0),
                failed => render(&failed),
            }
        })
        .collect();
    let mut evolved = st.start.source.clone();
    for d in &st.diffs {
        d.apply(&mut evolved).expect("diff applies");
    }
    let mut pass_ref = render(
        &chase_incremental(
            &st.settings.keyless,
            &evolved,
            &st.settings.target,
            &delta_opts(1),
        )
        .expect("reference re-chase")
        .outcome,
    );
    if corrupt {
        chase_refs[0].push('!');
        pass_ref.push('!');
    }

    let mut heavy = Vec::new();
    let mut light = Vec::new();
    let mut totals = ExecStats::default();
    let mut cur = st.start.clone();
    let mut step = 0usize;
    let mut op = 0u64;
    let wall = Instant::now();
    let deadline = wall + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        op += 1;
        out.attempted += 1;
        if op % 2 == 1 {
            let k = (op as usize / 2) % st.chase_inputs.len();
            let input = &st.chase_inputs[k];
            let t = Instant::now();
            let (res, _) = tracer.span("op.chase", op, 0, |root| {
                chase_op(&st, input, tracer, op, root, &mut totals)
            });
            heavy.push(t.elapsed().as_secs_f64() * 1e3);
            match res {
                Ok(core) if format!("{core}") == chase_refs[k] => {}
                _ => out.failed += 1,
            }
            if tracer.on() {
                let _ = tracer.span("probe.chase_st", op, 0, |_| {
                    chase_with_options(
                        &st.settings.keyed.st_tgds,
                        input,
                        &st.settings.target,
                        ChaseOptions { exec: exec(2) },
                    )
                });
            }
        } else {
            let diff = &st.diffs[step];
            let t = Instant::now();
            let ((res, did), _) = tracer.span("op.update", op, 0, |root| {
                tracer.span("chase.delta", op, root, |_| {
                    chase_delta(&cur, diff, &delta_opts(2))
                })
            });
            light.push(t.elapsed().as_secs_f64() * 1e3);
            match res {
                Ok(next) => {
                    totals.absorb(&next.stats.exec);
                    if tracer.on() {
                        tracer.annotate(did, &trace::exec_counters(&next.stats.exec));
                        let _ = tracer.span("probe.delta_scratch", op, 0, |_| {
                            chase_incremental(
                                &st.settings.keyless,
                                &next.source,
                                &st.settings.target,
                                &delta_opts(2),
                            )
                        });
                    }
                    cur = next;
                    step += 1;
                }
                Err(_) => {
                    out.failed += 1;
                    cur = st.start.clone();
                    step = 0;
                }
            }
            if step == st.diffs.len() {
                if render(&cur.outcome) != pass_ref {
                    out.failed += 1;
                }
                cur = st.start.clone();
                step = 0;
            }
        }
    }
    out.timed(&heavy, &light, op, wall.elapsed().as_secs_f64());

    if tracer.on() {
        let spans = tracer.finish();
        layer_metrics(&mut out, &spans);
        crate::put_common(&mut out, &spans, &totals, op);
        crate::write_trace("exchange", seed, &spans);
    }
    out
}

fn layer_metrics(out: &mut Outcome, spans: &[trace::Span]) {
    use trace::{median_counter, median_ms, sum_counter};
    let ratio = report::ratio;
    out.put("chase.exchange_ms", median_ms(spans, "chase.exchange"));
    out.put("chase.st_ms", median_ms(spans, "probe.chase_st"));
    out.put(
        "chase.target_ms",
        trace::median_difference_ms(spans, "chase.exchange", "probe.chase_st"),
    );
    out.put(
        "chase.steps",
        median_counter(spans, "chase.exchange", "steps"),
    );
    out.put(
        "chase.rounds",
        median_counter(spans, "chase.exchange", "rounds"),
    );
    out.put(
        "chase.fire_ratio",
        ratio(
            sum_counter(spans, "chase.exchange", "triggers_fired"),
            sum_counter(spans, "chase.exchange", "triggers_enumerated"),
        ),
    );
    out.put("schema.core_ms", median_ms(spans, "schema.core"));
    out.put(
        "schema.core_endos_tried",
        median_counter(spans, "schema.core", "endos_tried"),
    );
    out.put(
        "schema.core_nulls_folded",
        median_counter(spans, "schema.core", "nulls_folded"),
    );
    let both = |key: &str| {
        sum_counter(spans, "chase.exchange", key) + sum_counter(spans, "chase.delta", key)
    };
    out.put(
        "schema.postings_reuse_ratio",
        ratio(
            both("postings_reused"),
            both("postings_reused") + both("postings_rebuilt"),
        ),
    );
    out.put(
        "schema.prefilter_hits",
        median_counter(spans, "chase.delta", "prefilter_hits"),
    );
    let fp = sum_counter(spans, "chase.delta", "bloom_false_positives");
    out.put(
        "schema.bloom_fp_ratio",
        ratio(fp, fp + sum_counter(spans, "chase.delta", "bloom_hits")),
    );
    let delta = median_ms(spans, "chase.delta");
    let scratch = median_ms(spans, "probe.delta_scratch");
    out.put("chase.delta_ms", delta);
    out.put("chase.delta_scratch_ms", scratch);
    out.put("chase.delta_speedup", ratio(scratch, delta));
    out.put(
        "chase.delta_facts_in",
        median_counter(spans, "chase.delta", "delta_facts_in"),
    );
    out.put(
        "chase.rederive_ratio",
        ratio(
            sum_counter(spans, "chase.delta", "facts_rederived"),
            sum_counter(spans, "chase.delta", "facts_deleted"),
        ),
    );
    out.put(
        "schema.cache_evictions",
        sum_counter(spans, "chase.delta", "cache_evictions"),
    );
}
