//! `--smoke`: every workload end to end at tiny sizes, with
//! self-checks.
//!
//! * Each workload runs untraced and traced; both runs must be clean
//!   (`failed` = 0, `attempted` ≥ 1) and must print every metric of
//!   their table — per-layer metrics on their home workloads must be
//!   measured, not filled in.
//! * Each workload runs once more with one expected output corrupted;
//!   that run must count at least one failed operation.
//! * The metric tables must agree with `BENCHMARK.json` in the working
//!   directory, names and units both.

use crate::report::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::trace::Tracer;
use qi_cli::serve::json::{parse, Json};

/// Seconds each smoke run measures.
const SECONDS: f64 = 0.3;

/// Seed of the smoke runs.
const SEED: u64 = 7;

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = doc.get(key) else {
        return Vec::new();
    };
    items
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn check_manifest(problems: &mut Vec<String>) {
    let text = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(t) => t,
        Err(e) => {
            problems.push(format!("cannot read BENCHMARK.json: {e}"));
            return;
        }
    };
    let doc = match parse(&text) {
        Ok(d) => d,
        Err(e) => {
            problems.push(format!("BENCHMARK.json is not JSON: {e}"));
            return;
        }
    };
    let own = |v: &[(&str, &str)]| -> Vec<(String, String)> {
        v.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    if declared(&doc, "end_to_end") != own(&END_TO_END) {
        problems.push("BENCHMARK.json end_to_end differs from the metric table".into());
    }
    let layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect();
    if declared(&doc, "per_layer") != own(&layer) {
        problems.push("BENCHMARK.json per_layer differs from the metric table".into());
    }
    let workloads: Vec<String> = declared(&doc, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    if workloads != WORKLOADS {
        problems.push(format!(
            "BENCHMARK.json workloads {workloads:?} differ from {WORKLOADS:?}"
        ));
    }
}

/// Run the smoke checks; the process exit code.
pub fn run() -> i32 {
    let mut problems = Vec::new();
    check_manifest(&mut problems);
    for workload in WORKLOADS {
        for traced in [false, true] {
            let tracer = Tracer::new(traced);
            let o = crate::run_workload(workload, SEED, SECONDS, &tracer, true, false);
            let label = format!("{workload} (trace {})", u8::from(traced));
            if o.attempted == 0 || o.failed != 0 {
                problems.push(format!(
                    "{label}: {} attempted, {} failed",
                    o.attempted, o.failed
                ));
            }
            match o.metrics(workload, traced) {
                Ok(m) => eprintln!("smoke: {label}: {} metrics, {} ops", m.len(), o.attempted),
                Err(e) => problems.push(format!("{label}: {e}")),
            }
        }
        let o = crate::run_workload(workload, SEED, SECONDS, &Tracer::new(false), true, true);
        if o.failed == 0 {
            problems.push(format!(
                "{workload}: a corrupted expected output went unnoticed"
            ));
        } else {
            eprintln!(
                "smoke: {workload} (corrupted reference): {} of {} ops failed, as expected",
                o.failed, o.attempted
            );
        }
    }
    if problems.is_empty() {
        println!("smoke: ok");
        0
    } else {
        for p in &problems {
            println!("smoke: FAILED: {p}");
        }
        1
    }
}
