//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps every call it makes into a layer of the stack in
//! a span: a name (`<layer>.<what>`), start and end, the span that
//! caused it, and the id of the operation it belongs to. Counters the
//! call returned are attached to its span. Nothing is written until the
//! run ends. With tracing off, [`Tracer::span`] only runs the closure.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (1-based; 0 means "no parent").
    pub id: u64,
    /// The enclosing span, or 0 for a root.
    pub parent: u64,
    /// The operation or request this span belongs to.
    pub op: u64,
    /// `<layer>.<what>`, e.g. `chase.exchange`.
    pub name: &'static str,
    /// Offsets from the tracer's creation, nanoseconds.
    pub start_ns: u64,
    /// End offset, nanoseconds.
    pub end_ns: u64,
    /// Counters returned by the wrapped call.
    pub counters: Vec<(&'static str, f64)>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    /// The layer: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// A counter by name (0 when absent).
    pub fn counter(&self, key: &str) -> f64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// The recorder. Shared by reference across client threads.
pub struct Tracer {
    on: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `on = false` makes every call a plain pass-through.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Is tracing on?
    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id
    /// so nested calls can name it as their parent. Returns `f`'s
    /// result and the span id (0 when tracing is off).
    pub fn span<T>(
        &self,
        name: &'static str,
        op: u64,
        parent: u64,
        f: impl FnOnce(u64) -> T,
    ) -> (T, u64) {
        if !self.on {
            return (f(0), 0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.t0.elapsed().as_nanos() as u64;
        let out = f(id);
        let end = self.t0.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span list").push(Span {
            id,
            parent,
            op,
            name,
            start_ns: start,
            end_ns: end,
            counters: Vec::new(),
        });
        (out, id)
    }

    /// Attach counters to a finished span (no-op when tracing is off).
    pub fn annotate(&self, id: u64, counters: &[(&'static str, f64)]) {
        if !self.on || id == 0 {
            return;
        }
        let mut spans = self.spans.lock().expect("span list");
        if let Some(s) = spans.iter_mut().rev().find(|s| s.id == id) {
            s.counters.extend_from_slice(counters);
        }
    }

    /// Take the recorded spans, ordered by id.
    pub fn finish(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span list"));
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time per layer, in milliseconds summed over all spans: each
/// span's duration minus the part of its interval its children cover.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        let self_ns = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.layer()).or_insert(0.0) += self_ns as f64 / 1e6;
    }
    out
}

/// The spans named `name`.
pub fn named<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
    spans.iter().filter(move |s| s.name == name)
}

/// Median duration (ms) of the spans named `name`; 0 when none.
pub fn median_ms(spans: &[Span], name: &str) -> f64 {
    let v: Vec<f64> = named(spans, name).map(Span::ms).collect();
    crate::report::median(&v)
}

/// Median of counter `key` over the spans named `name`; 0 when none.
pub fn median_counter(spans: &[Span], name: &str, key: &str) -> f64 {
    let v: Vec<f64> = named(spans, name).map(|s| s.counter(key)).collect();
    crate::report::median(&v)
}

/// Sum of counter `key` over the spans named `name`.
pub fn sum_counter(spans: &[Span], name: &str, key: &str) -> f64 {
    named(spans, name).map(|s| s.counter(key)).sum()
}

/// Median over operations of `a`'s duration minus `b`'s, pairing the
/// two spans of each operation by op id.
pub fn median_difference_ms(spans: &[Span], a: &str, b: &str) -> f64 {
    let of =
        |name: &str| -> BTreeMap<u64, f64> { named(spans, name).map(|s| (s.op, s.ms())).collect() };
    let (a, b) = (of(a), of(b));
    let v: Vec<f64> = a
        .iter()
        .filter_map(|(op, ms)| b.get(op).map(|other| ms - other))
        .collect();
    crate::report::median(&v)
}

/// The executor counters worth keeping on a span.
pub fn exec_counters(s: &qi_exec::ExecStats) -> [(&'static str, f64); 18] {
    [
        ("workers", s.workers as f64),
        ("tasks", s.tasks as f64),
        ("rounds", s.rounds as f64),
        ("triggers_enumerated", s.triggers_enumerated as f64),
        ("triggers_fired", s.triggers_fired as f64),
        ("postings_reused", s.postings_reused as f64),
        ("postings_rebuilt", s.postings_rebuilt as f64),
        ("hom_cache_hits", s.hom_cache_hits as f64),
        ("hom_cache_misses", s.hom_cache_misses as f64),
        ("morsels", s.morsels as f64),
        ("plans_applied", s.plans_applied as f64),
        ("prefilter_hits", s.prefilter_hits as f64),
        ("bloom_hits", s.bloom_hits as f64),
        ("bloom_false_positives", s.bloom_false_positives as f64),
        ("delta_facts_in", s.delta_facts_in as f64),
        ("facts_deleted", s.facts_deleted as f64),
        ("facts_rederived", s.facts_rederived as f64),
        ("cache_evictions", s.cache_evictions as f64),
    ]
}

/// Render the spans as one JSON document (an array of objects).
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let counters: Vec<String> = s
            .counters
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"counters\":{{{}}}}}",
            s.id,
            s.parent,
            s.op,
            s.name,
            s.start_ns,
            s.end_ns,
            counters.join(",")
        ));
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name,
            start_ns: start,
            end_ns: end,
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "op.x", 0, 10_000_000),
            span(2, 1, "chase.a", 1_000_000, 4_000_000),
            span(3, 1, "schema.b", 3_000_000, 6_000_000),
            span(4, 2, "schema.c", 1_000_000, 2_000_000),
        ];
        let t = self_time_by_layer(&spans);
        assert!((t["op"] - 5.0).abs() < 1e-9, "{t:?}");
        assert!((t["chase"] - 2.0).abs() < 1e-9, "{t:?}");
        assert!((t["schema"] - 4.0).abs() < 1e-9, "{t:?}");
    }

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::new(false);
        let (v, id) = t.span("chase.x", 1, 0, |_| 7);
        assert_eq!((v, id), (7, 0));
        assert!(t.finish().is_empty());
    }
}
