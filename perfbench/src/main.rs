//! End-to-end benchmark of the quasi-inverse stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <exchange|invert|serve> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! Each run generates its inputs from `--seed`, sets up (timed, three
//! times, median reported as `setup_s`), computes reference outputs,
//! then runs the workload's operations for `--seconds`, checking every
//! output. The last line of standard output is the result object:
//! end-to-end metrics with `--trace 0`, per-layer metrics (from spans
//! recorded around every call into the stack) with `--trace 1`. The
//! traced run also writes its spans to `.bench_out/`.
//!
//! See `perfbench/README.md` for the workloads and the metrics.

mod exchange;
mod heap;
mod invert;
mod report;
mod serve;
mod smoke;
mod trace;

use report::Outcome;
use std::time::Instant;
use trace::{Span, Tracer};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// How many times set-up runs; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// Where traced runs write their spans, relative to the working
/// directory.
const TRACE_DIR: &str = ".bench_out";

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <exchange|invert|serve> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      perfbench --smoke"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !args.smoke && !report::WORKLOADS.contains(&args.workload.as_str()) {
        usage();
    }
    args
}

/// Run one workload at the given sizes.
fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    smoke: bool,
    corrupt: bool,
) -> Outcome {
    let mut out = match workload {
        "exchange" => {
            let sizes = if smoke {
                exchange::Sizes::SMOKE
            } else {
                exchange::Sizes::FULL
            };
            exchange::run(seed, seconds, tracer, &sizes, corrupt)
        }
        "invert" => {
            let sizes = if smoke {
                invert::Sizes::SMOKE
            } else {
                invert::Sizes::FULL
            };
            invert::run(seed, seconds, tracer, &sizes, corrupt)
        }
        "serve" => {
            let sizes = if smoke {
                serve::Sizes::SMOKE
            } else {
                serve::Sizes::FULL
            };
            serve::run(seed, seconds, tracer, &sizes, corrupt)
        }
        other => panic!("unknown workload `{other}`"),
    };
    out.e2e.insert("peak_heap_mb", heap::peak_mb());
    if tracer.on() {
        out.put("process.peak_rss_mb", report::peak_rss_mb());
    }
    out
}

/// Run `setup` [`SETUP_REPEATS`] times; return the last state and the
/// median wall-clock in seconds. Earlier states are dropped between
/// repeats.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), report::median(&times))
}

/// Per-layer metrics every workload reports: executor counters summed
/// over the run, and self time per layer per operation.
pub fn put_common(out: &mut Outcome, spans: &[Span], totals: &qi_exec::ExecStats, ops: u64) {
    out.put("exec.workers", totals.workers as f64);
    out.put("exec.utilization", totals.utilization());
    out.put("exec.morsels", totals.morsels as f64);
    out.put("exec.plans_applied", totals.plans_applied as f64);
    // Probes are traced-only extra calls outside the operations.
    let on_path: Vec<Span> = spans
        .iter()
        .filter(|s| s.layer() != "probe")
        .cloned()
        .collect();
    let by_layer = trace::self_time_by_layer(&on_path);
    let per_op = |layer: &str| by_layer.get(layer).copied().unwrap_or(0.0) / ops.max(1) as f64;
    out.put("self.op_ms", per_op("op"));
    for (layer, name) in [
        ("chase", "self.chase_ms"),
        ("schema", "self.schema_ms"),
        ("core", "self.core_ms"),
    ] {
        if by_layer.contains_key(layer) {
            out.put(name, per_op(layer));
        }
    }
}

/// Write a traced run's spans to [`TRACE_DIR`]. Failure to write is
/// reported but does not fail the run.
pub fn write_trace(workload: &str, seed: u64, spans: &[Span]) {
    let path = format!("{TRACE_DIR}/trace-{workload}-seed{seed}.json");
    let written = std::fs::create_dir_all(TRACE_DIR)
        .and_then(|_| std::fs::write(&path, trace::to_json(spans)));
    match written {
        Ok(()) => eprintln!("perfbench: {} spans written to {path}", spans.len()),
        Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
    }
}

fn main() {
    let args = parse_args();
    if args.smoke {
        std::process::exit(smoke::run());
    }
    let tracer = Tracer::new(args.trace);
    let outcome = run_workload(
        &args.workload,
        args.seed,
        args.seconds,
        &tracer,
        false,
        false,
    );
    match outcome.metrics(&args.workload, args.trace) {
        Ok(metrics) => println!(
            "{}",
            report::result_line(outcome.attempted, outcome.failed, &metrics)
        ),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
