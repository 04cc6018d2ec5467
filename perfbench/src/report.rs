//! Metric tables, summary statistics and the result line.
//!
//! The tables below are the benchmark's contract with `BENCHMARK.json`
//! (the smoke mode checks that the two agree): every end-to-end metric
//! is printed by every workload's untraced run, every per-layer metric
//! by every workload's traced run. A per-layer metric that a workload
//! does not exercise is printed as 0 there; on the workloads listed as
//! its homes it must be measured.

use std::collections::BTreeMap;

/// The workloads, in the order the smoke mode runs them.
pub const WORKLOADS: [&str; 3] = ["exchange", "invert", "serve"];

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("heavy_p50_ms", "ms"),
    ("heavy_p90_ms", "ms"),
    ("light_p50_ms", "ms"),
    ("light_p90_ms", "ms"),
];

const EX: &[&str] = &["exchange"];
const INV: &[&str] = &["invert"];
const SRV: &[&str] = &["serve"];
const ALL: &[&str] = &["exchange", "invert", "serve"];
const LIB: &[&str] = &["exchange", "invert"];

/// Per-layer metrics: `(name, unit, home workloads)`.
pub const PER_LAYER: [(&str, &str, &[&str]); 52] = [
    // qi-chase on the forward exchange (keyed setting).
    ("chase.exchange_ms", "ms", EX),
    ("chase.st_ms", "ms", EX),
    ("chase.target_ms", "ms", EX),
    ("chase.steps", "count", EX),
    ("chase.rounds", "count", EX),
    ("chase.fire_ratio", "ratio", EX),
    // qi-schema under the exchange: core, postings, prefilters.
    ("schema.core_ms", "ms", EX),
    ("schema.core_endos_tried", "count", EX),
    ("schema.core_nulls_folded", "count", EX),
    ("schema.postings_reuse_ratio", "ratio", EX),
    ("schema.prefilter_hits", "count", EX),
    ("schema.bloom_fp_ratio", "ratio", EX),
    // qi-chase incremental maintenance (keyless setting).
    ("chase.delta_ms", "ms", EX),
    ("chase.delta_scratch_ms", "ms", EX),
    ("chase.delta_speedup", "ratio", EX),
    ("chase.delta_facts_in", "count", EX),
    ("chase.rederive_ratio", "ratio", EX),
    ("schema.cache_evictions", "count", EX),
    // qi-lang + qi-analyze, qi-core, and the disjunctive chase.
    ("analyze.text_ms", "ms", INV),
    ("core.sigma_star_ms", "ms", INV),
    ("core.sigma_star_deps", "count", INV),
    ("core.qi_ms", "ms", INV),
    ("core.mingen_ms", "ms", INV),
    ("core.mingen_tasks", "count", INV),
    ("schema.homcache_hit_ratio", "ratio", INV),
    ("chase.disj_ms", "ms", INV),
    ("chase.disj_nodes", "count", INV),
    ("chase.disj_leaves", "count", INV),
    ("core.rt_rechase_ms", "ms", INV),
    ("schema.hom_check_ms", "ms", INV),
    // qi-exec, per workload.
    ("exec.workers", "count", ALL),
    ("exec.utilization", "ratio", ALL),
    ("exec.morsels", "count", ALL),
    ("exec.plans_applied", "count", ALL),
    // The serve module of qi-cli, seen from its clients.
    ("serve.handler_ms", "ms", SRV),
    ("serve.transport_ms", "ms", SRV),
    ("serve.op.chase_p50_ms", "ms", SRV),
    ("serve.op.rechase_p50_ms", "ms", SRV),
    ("serve.op.quasi-inverse_p50_ms", "ms", SRV),
    ("serve.op.recover_p50_ms", "ms", SRV),
    ("serve.op.contains_p50_ms", "ms", SRV),
    ("serve.op.lint_p50_ms", "ms", SRV),
    ("serve.op.analyze_p50_ms", "ms", SRV),
    ("serve.load_ms", "ms", SRV),
    ("serve.homcache_hit_ratio", "ratio", SRV),
    // Resident memory: unsteady between runs, so per-layer only.
    ("process.peak_rss_mb", "MB", ALL),
    // Self time per layer, per operation, from the spans.
    ("self.op_ms", "ms", ALL),
    ("self.chase_ms", "ms", LIB),
    ("self.schema_ms", "ms", LIB),
    ("self.core_ms", "ms", INV),
    // The traced run's own end-to-end figures; compared with the
    // untraced run they give the tracing overhead.
    ("traced.ops_per_s", "1/s", ALL),
    ("traced.heavy_p50_ms", "ms", ALL),
];

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations sent.
    pub attempted: u64,
    /// Operations whose output failed its check, errored unexpectedly,
    /// or were lost.
    pub failed: u64,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (traced runs only).
    pub layer: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record the timed phase: `heavy` and `light` are the latencies
    /// (ms) of the workload's two operation classes, `ops` the
    /// operations completed in `wall_s` seconds.
    pub fn timed(&mut self, heavy: &[f64], light: &[f64], ops: u64, wall_s: f64) {
        let mut h = heavy.to_vec();
        let mut l = light.to_vec();
        sort(&mut h);
        sort(&mut l);
        self.e2e.insert("ops_per_s", ops as f64 / wall_s.max(1e-9));
        self.e2e.insert("heavy_p50_ms", percentile(&h, 50.0));
        self.e2e.insert("heavy_p90_ms", percentile(&h, 90.0));
        self.e2e.insert("light_p50_ms", percentile(&l, 50.0));
        self.e2e.insert("light_p90_ms", percentile(&l, 90.0));
    }

    /// Set a per-layer metric.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.layer.insert(name, value);
    }

    /// The metric set the result line carries for this trace mode, with
    /// units, in table order. Per-layer metrics a workload does not
    /// exercise read 0. Errors name the metrics a workload should have
    /// measured but did not.
    pub fn metrics(
        &self,
        workload: &str,
        traced: bool,
    ) -> Result<Vec<(String, f64, String)>, String> {
        let mut out = Vec::new();
        let mut missing = Vec::new();
        if traced {
            for (name, unit, homes) in PER_LAYER.iter() {
                let value = match name.strip_prefix("traced.") {
                    Some(e2e) => self.e2e.get(e2e).copied(),
                    None => self.layer.get(name).copied(),
                };
                match value {
                    Some(v) => out.push((name.to_string(), v, unit.to_string())),
                    None if homes.contains(&workload) => missing.push(*name),
                    None => out.push((name.to_string(), 0.0, unit.to_string())),
                }
            }
        } else {
            for (name, unit) in END_TO_END.iter() {
                match self.e2e.get(name) {
                    Some(v) => out.push((name.to_string(), *v, unit.to_string())),
                    None => missing.push(*name),
                }
            }
        }
        if missing.is_empty() {
            Ok(out)
        } else {
            Err(format!(
                "workload `{workload}` did not measure: {}",
                missing.join(", ")
            ))
        }
    }
}

/// The result line: one JSON object.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(String, f64, String)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Sort ascending (total order; NaN never occurs in timings).
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.total_cmp(b));
}

/// Percentile `p` of an ascending slice by rounded rank; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Median of an unsorted sample; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 50.0)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_rounded_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 6.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        names.extend(PER_LAYER.iter().map(|(n, _, _)| *n));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn missing_home_metrics_are_reported() {
        let o = Outcome::default();
        assert!(o.metrics("exchange", false).is_err());
        let err = o.metrics("serve", true).unwrap_err();
        assert!(err.contains("serve.transport_ms"), "{err}");
        assert!(!err.contains("chase.exchange_ms"), "{err}");
    }
}
