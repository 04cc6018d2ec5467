//! `invert`: compile reverse mappings, then use them.
//!
//! Passes over a batch of mappings alternate between two operation
//! types; a pass's figure is its mean latency per operation:
//!
//! * **quasi-inverse** (heavy): `analyze_text` of the mapping file
//!   text, then `quasi_inverse_with_stats`. The rendered reverse
//!   mapping is checked against the one computed with
//!   [`CHECK_THREADS`] workers at set-up, so every operation also
//!   checks that the worker count does not change the output.
//! * **round trip** (light): the §6 round trip (Figure 1) of a seeded
//!   ground instance through the mapping and its quasi-inverse. Every
//!   round trip must be sound and faithful (Theorems 6.7 and 6.8). The
//!   quasi-inverses used are the ones compiled at set-up.
//!
//! The batch is seeded random mappings plus fixed families and paper
//! examples; the fixed ones carry most of the MinGen work. Example 4.5
//! is left out (seconds per call). So are random mappings whose tgds
//! have both two-atom premises and two-atom conclusions (the
//! `MappingParams::default()` shape): one in ten to one in twenty takes
//! 1–13 s, so a batch's cost would follow the seed rather than the
//! program. The
//! random mappings therefore alternate single-atom conclusions and
//! single-atom premises.
//!
//! Every timed call runs with one worker; [`THREADS`] says why.

use crate::report::{self, Outcome};
use crate::trace::{self, Tracer};
use qi_analyze::analyze_text;
use qi_chase::{disjunctive_chase_with_stats, DisjChaseOptions};
use qi_core::{
    quasi_inverse_with_stats, round_trip, sigma_star, QuasiInverseOptions, ReverseMapping,
    SchemaMapping,
};
use qi_exec::{ExecConfig, ExecStats, Parallelism};
use qi_schema::{has_hom, hom_equivalent, Instance};
use qi_workloads::families::{chain_join_j, decomposition_instance, decomposition_k, union_n};
use qi_workloads::random::{
    random_ground_instance, random_mapping, rng, InstanceParams, MappingParams,
};
use qi_workloads::{mapping_file_text, paper};
use std::time::{Duration, Instant};

/// Input sizes.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Seeded random mappings in the batch.
    pub random_mappings: usize,
    /// Include the fixed families and paper examples.
    pub fixed: bool,
    /// Round-trip instances per batch mapping.
    pub rt_per_mapping: usize,
    /// Fact-insertion attempts per round-trip instance.
    pub rt_facts: usize,
}

impl Sizes {
    /// The measured configuration.
    pub const FULL: Sizes = Sizes {
        random_mappings: 96,
        fixed: true,
        rt_per_mapping: 3,
        rt_facts: 4,
    };
    /// The smoke configuration.
    pub const SMOKE: Sizes = Sizes {
        random_mappings: 2,
        fixed: false,
        rt_per_mapping: 1,
        rt_facts: 2,
    };
}

struct State {
    /// Mapping file texts of the batch.
    texts: Vec<String>,
    /// The batch, parsed.
    mappings: Vec<SchemaMapping>,
    /// Quasi-inverses of the batch, compiled at set-up.
    revs: Vec<ReverseMapping>,
    /// Round-trip inputs: batch index and ground source instance.
    round_trips: Vec<(usize, Instance)>,
}

/// Workers of every timed call and of set-up. MinGen's tasks join at
/// barriers, so with two workers on a 2-core host that other processes
/// share, a stall of either core stalls the whole operation: one
/// CPU-bound process on one core for 40% of the time raised the p90
/// pass figure by about 60% at two workers and left it unchanged at
/// one.
const THREADS: usize = 1;

/// Workers of the reference compilations the timed ones are checked
/// against (not timed).
const CHECK_THREADS: usize = 2;

fn exec(threads: usize) -> ExecConfig {
    ExecConfig::auto().with_parallelism(Parallelism::fixed(threads))
}

fn qi_options(threads: usize) -> QuasiInverseOptions {
    QuasiInverseOptions {
        exec: exec(threads),
        ..Default::default()
    }
}

/// The mapping a file text describes, via the analyzer (as `qimap`
/// loads mapping files).
fn parse(text: &str) -> Result<SchemaMapping, String> {
    let a = analyze_text(text);
    if a.diagnostics.has_errors() {
        return Err(format!("mapping file has errors: {text}"));
    }
    let p = a.parts;
    match (p.source, p.target) {
        (Some(s), Some(t)) => SchemaMapping::new(s, t, p.st_tgds).map_err(|e| e.to_string()),
        _ => Err("mapping file lacks a schema".to_owned()),
    }
}

fn setup(seed: u64, sizes: &Sizes) -> State {
    let mut rng = rng(seed);
    // Single-atom conclusions and single-atom premises, alternately
    // (see the module docs).
    let mut batch: Vec<SchemaMapping> = (0..sizes.random_mappings)
        .map(|k| {
            let (max_body_atoms, max_head_atoms) = if k % 2 == 0 { (2, 1) } else { (1, 2) };
            let params = MappingParams {
                n_tgds: 3,
                max_body_atoms,
                max_head_atoms,
                ..MappingParams::default()
            };
            random_mapping(&mut rng, &params)
        })
        .collect();
    if sizes.fixed {
        batch.extend([
            decomposition_k(3),
            chain_join_j(2),
            chain_join_j(3),
            union_n(4),
            paper::example_5_4(),
            paper::thm_4_9(),
            paper::thm_4_10(),
        ]);
    }
    let texts: Vec<String> = batch.iter().map(mapping_file_text).collect();
    let mappings: Vec<SchemaMapping> = texts
        .iter()
        .map(|t| {
            parse(t)
                .expect("generated mapping text parses")
                .with_parallelism(Parallelism::fixed(THREADS))
        })
        .collect();
    let params = InstanceParams {
        n_consts: 3,
        n_facts: sizes.rt_facts,
    };
    let mut round_trips: Vec<(usize, Instance)> = Vec::new();
    for (k, m) in mappings.iter().enumerate() {
        for _ in 0..sizes.rt_per_mapping {
            round_trips.push((k, random_ground_instance(&m.source, &mut rng, &params)));
        }
    }
    if sizes.fixed {
        // The first fixed mapping is decomposition_k(3); five facts give
        // a 512-leaf disjunctive chase.
        let k = sizes.random_mappings;
        round_trips.push((k, decomposition_instance(&mappings[k], 5)));
    }
    let revs = mappings
        .iter()
        .map(|m| {
            quasi_inverse_with_stats(m, &qi_options(THREADS))
                .expect("quasi-inverse of the batch")
                .0
        })
        .collect();
    State {
        texts,
        mappings,
        revs,
        round_trips,
    }
}

/// One quasi-inverse op: analyze the text, then run QuasiInverse.
fn qi_op(
    text: &str,
    tracer: &Tracer,
    op: u64,
    parent: u64,
    totals: &mut ExecStats,
) -> Result<ReverseMapping, String> {
    let (m, _) = tracer.span("analyze.text", op, parent, |_| parse(text));
    let m = m?;
    let (res, id) = tracer.span("core.qi", op, parent, |_| {
        quasi_inverse_with_stats(&m, &qi_options(THREADS))
    });
    let (rev, stats) = res.map_err(|e| e.to_string())?;
    totals.absorb(&stats);
    tracer.annotate(id, &trace::exec_counters(&stats));
    Ok(rev)
}

/// One round trip, in the call sequence `round_trip` uses, with a span
/// around each call. Returns (sound, faithful).
fn traced_round_trip(
    m: &SchemaMapping,
    rev: &ReverseMapping,
    instance: &Instance,
    tracer: &Tracer,
    op: u64,
    parent: u64,
    totals: &mut ExecStats,
) -> Result<(bool, bool), String> {
    let (u, _) = tracer.span("chase.rt_forward", op, parent, |_| m.chase(instance));
    let u = u.map_err(|e| e.to_string())?;
    let empty = Instance::new(rev.to.clone());
    let (res, did) = tracer.span("chase.disj", op, parent, |_| {
        disjunctive_chase_with_stats(&rev.deps, &u, &empty, disj_options())
    });
    let outcome = res.map_err(|e| e.to_string())?;
    totals.absorb(&outcome.stats);
    tracer.annotate(did, &trace::exec_counters(&outcome.stats));
    tracer.annotate(
        did,
        &[
            ("nodes", outcome.nodes_visited as f64),
            ("leaves", outcome.leaves.len() as f64),
        ],
    );
    let (rechased, _) = tracer.span("core.rt_rechase", op, parent, |_| {
        outcome
            .leaves
            .iter()
            .map(|v| m.chase(v))
            .collect::<Result<Vec<Instance>, _>>()
    });
    let rechased = rechased.map_err(|e| e.to_string())?;
    let (verdict, _) = tracer.span("schema.hom_check", op, parent, |_| {
        (
            rechased.iter().any(|up| has_hom(up, &u)),
            rechased.iter().any(|up| hom_equivalent(up, &u)),
        )
    });
    Ok(verdict)
}

fn disj_options() -> DisjChaseOptions {
    DisjChaseOptions {
        exec: exec(THREADS),
        ..Default::default()
    }
}

/// Run the workload for `seconds`.
pub fn run(seed: u64, seconds: f64, tracer: &Tracer, sizes: &Sizes, corrupt: bool) -> Outcome {
    let mut out = Outcome::default();
    let (st, setup_s) = crate::timed_setup(|| setup(seed, sizes));
    out.e2e.insert("setup_s", setup_s);

    // References at the other worker count, checked against the
    // set-up compilations too.
    let mut refs: Vec<String> = st
        .mappings
        .iter()
        .map(|m| {
            quasi_inverse_with_stats(m, &qi_options(CHECK_THREADS))
                .expect("reference quasi-inverse")
                .0
                .to_string()
        })
        .collect();
    if corrupt {
        refs[0].push('!');
    }
    out.attempted += refs.len() as u64;
    out.failed += st
        .revs
        .iter()
        .zip(&refs)
        .filter(|(rev, r)| rev.to_string() != **r)
        .count() as u64;

    // Passes alternate: every quasi-inverse of the batch, then every
    // round trip. A pass's figure is its mean latency per operation.
    let mut heavy = Vec::new();
    let mut light = Vec::new();
    let mut totals = ExecStats::default();
    let mut op = 0u64;
    let wall = Instant::now();
    let deadline = wall + Duration::from_secs_f64(seconds);
    let mut qi_pass = true;
    while Instant::now() < deadline {
        let mut pass_ms = 0.0;
        if qi_pass {
            for (k, text) in st.texts.iter().enumerate() {
                op += 1;
                let t = Instant::now();
                let (res, _) = tracer.span("op.qi", op, 0, |root| {
                    qi_op(text, tracer, op, root, &mut totals)
                });
                pass_ms += t.elapsed().as_secs_f64() * 1e3;
                if !matches!(res, Ok(rev) if rev.to_string() == refs[k]) {
                    out.failed += 1;
                }
                if tracer.on() {
                    let (star, sid) = tracer.span("probe.sigma_star", op, 0, |_| {
                        sigma_star(&st.mappings[k].tgds)
                    });
                    let deps = star.map_or(0, |s| s.len());
                    tracer.annotate(sid, &[("deps", deps as f64)]);
                }
            }
            heavy.push(pass_ms / st.texts.len() as f64);
        } else {
            for (k, instance) in &st.round_trips {
                op += 1;
                let (m, rev) = (&st.mappings[*k], &st.revs[*k]);
                let t = Instant::now();
                let verdict = if tracer.on() {
                    tracer
                        .span("op.roundtrip", op, 0, |root| {
                            traced_round_trip(m, rev, instance, tracer, op, root, &mut totals)
                        })
                        .0
                } else {
                    round_trip(m, rev, instance, disj_options())
                        .map(|rt| (rt.is_sound(), rt.is_faithful()))
                        .map_err(|e| e.to_string())
                };
                pass_ms += t.elapsed().as_secs_f64() * 1e3;
                if verdict != Ok((true, true)) {
                    out.failed += 1;
                }
            }
            light.push(pass_ms / st.round_trips.len() as f64);
        }
        qi_pass = !qi_pass;
    }
    out.attempted += op;
    let wall_s = wall.elapsed().as_secs_f64();
    out.timed(&heavy, &light, op, wall_s);

    if tracer.on() {
        let spans = tracer.finish();
        layer_metrics(&mut out, &spans);
        crate::put_common(&mut out, &spans, &totals, op);
        crate::write_trace("invert", seed, &spans);
    }
    out
}

fn layer_metrics(out: &mut Outcome, spans: &[trace::Span]) {
    use trace::{median_counter, median_ms, sum_counter};
    out.put("analyze.text_ms", median_ms(spans, "analyze.text"));
    out.put("core.sigma_star_ms", median_ms(spans, "probe.sigma_star"));
    out.put(
        "core.sigma_star_deps",
        median_counter(spans, "probe.sigma_star", "deps"),
    );
    out.put("core.qi_ms", median_ms(spans, "core.qi"));
    out.put(
        "core.mingen_ms",
        trace::median_difference_ms(spans, "core.qi", "probe.sigma_star"),
    );
    out.put(
        "core.mingen_tasks",
        median_counter(spans, "core.qi", "tasks"),
    );
    let hits = sum_counter(spans, "core.qi", "hom_cache_hits");
    out.put(
        "schema.homcache_hit_ratio",
        report::ratio(
            hits,
            hits + sum_counter(spans, "core.qi", "hom_cache_misses"),
        ),
    );
    out.put("chase.disj_ms", median_ms(spans, "chase.disj"));
    out.put(
        "chase.disj_nodes",
        median_counter(spans, "chase.disj", "nodes"),
    );
    out.put(
        "chase.disj_leaves",
        median_counter(spans, "chase.disj", "leaves"),
    );
    out.put("core.rt_rechase_ms", median_ms(spans, "core.rt_rechase"));
    out.put("schema.hom_check_ms", median_ms(spans, "schema.hom_check"));
}
