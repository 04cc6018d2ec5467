//! `serve`: the `qimap serve` wire protocol under a closed loop.
//!
//! Set-up starts the server on loopback, `load`s the three mappings of
//! the seeded request stream and warms it with a few requests. Two
//! client connections then drive the stream as a closed loop: each
//! sends its next request only after the previous reply. Requests fall
//! in two classes: **compile** (heavy: `quasi-inverse` and `recover`,
//! which run MinGen on the server) and the rest (light: `chase`,
//! `rechase`, `contains`, and `lint` / `analyze`, which are answered
//! from the registry's cached reports).
//!
//! Every response is compared with the expected one, computed
//! in-process at set-up through the same `qi_cli` handlers the server
//! dispatches to, budget-tripped errors included.

use crate::report::{self, Outcome};
use crate::trace::Tracer;
use qi_cli::serve::json::{parse, Json};
use qi_cli::serve::{start, Server};
use qi_cli::{
    chase_loaded, contains_texts, parse_mapping_file, quasi_inverse_loaded, rechase_loaded,
    recover_loaded,
};
use qi_exec::{Budget, ExecConfig, ExecStats, Parallelism, Planning};
use qi_workloads::requests::{load_line, request_stream, ExecSpec, ServeOp, StreamParams};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Input sizes.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Generated requests; the loop cycles through them.
    pub stream_len: usize,
    /// Requests sent at set-up to warm the server.
    pub warmup: usize,
}

impl Sizes {
    /// The measured configuration.
    pub const FULL: Sizes = Sizes {
        stream_len: 800,
        warmup: 16,
    };
    /// The smoke configuration.
    pub const SMOKE: Sizes = Sizes {
        stream_len: 24,
        warmup: 2,
    };
}

/// Client connections (= load threads).
const CLIENTS: usize = 2;

/// The wire ops that compile reverse mappings: the heavy class.
const COMPILE_OPS: [&str; 2] = ["quasi-inverse", "recover"];

/// A running server plus what set-up measured. Dropping it shuts the
/// server down.
struct State {
    server: Option<Server>,
    load_ms: Vec<f64>,
}

impl State {
    fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("server running").addr()
    }
}

impl Drop for State {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
    }
}

/// One open client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    /// Send one request line and read one response line.
    fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        self.writer.flush()?;
        let mut resp = String::new();
        if self.reader.read_line(&mut resp)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(resp.trim_end().to_owned())
    }
}

/// The per-request [`ExecConfig`] a spec describes — the construction
/// the server's protocol decoder performs.
fn exec_of(spec: &ExecSpec) -> ExecConfig {
    let mut exec = ExecConfig::auto();
    if let Some(t) = spec.threads {
        exec = exec.with_parallelism(Parallelism::fixed(t));
    }
    if let Some(p) = spec.plan {
        exec = exec.with_planning(match p {
            "on" => Planning::On,
            "off" => Planning::Off,
            _ => Planning::Auto,
        });
    }
    let mut budget = Budget::unlimited();
    if let Some(ms) = spec.timeout_ms {
        budget = budget.with_deadline(Duration::from_millis(ms));
    }
    if let Some(n) = spec.max_steps {
        budget = budget.with_max_tasks(n);
    }
    if let Some(n) = spec.max_facts {
        budget = budget.with_max_facts(n);
    }
    exec.with_budget(budget)
}

/// The expected output (or error message) of one request, through the
/// handlers the server dispatches to; adds their counters to `totals`.
fn expected_of(
    op: &ServeOp,
    exec: &ExecConfig,
    texts: &BTreeMap<String, String>,
    totals: &mut ExecStats,
) -> Result<String, String> {
    let file = |name: &str| parse_mapping_file(&texts[name]).expect("stream mapping parses");
    let res = match op {
        ServeOp::Chase { mapping, instance } => chase_loaded(&file(mapping), instance, false, exec),
        ServeOp::Rechase {
            mapping,
            instance,
            diff,
        } => rechase_loaded(&file(mapping), instance, diff, false, exec),
        ServeOp::QuasiInverse { mapping } => quasi_inverse_loaded(&file(mapping), false, exec),
        ServeOp::Recover { mapping, json } => recover_loaded(&file(mapping), *json, false, exec),
        ServeOp::Contains { outer, inner } => {
            contains_texts(&texts[outer], &texts[inner], false, false, exec)
        }
        ServeOp::Lint { mapping, json } => {
            qi_cli::cmd_lint(mapping, &texts[mapping], *json).map(|o| (o, ExecStats::default()))
        }
        ServeOp::Analyze { mapping, cost } => {
            qi_cli::cmd_analyze(mapping, &texts[mapping], *cost, false)
                .map(|o| (o, ExecStats::default()))
        }
    };
    match res {
        Ok((out, stats)) => {
            totals.absorb(&stats);
            Ok(out)
        }
        Err(e) => Err(e.to_string()),
    }
}

/// Check one response: does it carry exactly the expected payload for
/// request `id`, and what `stats.elapsed_us` (in ms) does it report?
fn check(resp: &str, id: &str, expected: &Result<String, String>) -> (bool, Option<f64>) {
    let Ok(doc) = parse(resp) else {
        return (false, None);
    };
    let handler_ms = doc
        .get("stats")
        .and_then(|s| s.get("elapsed_us"))
        .and_then(Json::as_u64)
        .map(|us| us as f64 / 1e3);
    let ok = doc.get("id").and_then(Json::as_str) == Some(id)
        && match expected {
            Ok(out) => {
                doc.get("ok") == Some(&Json::Bool(true))
                    && doc.get("output").and_then(Json::as_str) == Some(out.as_str())
            }
            Err(msg) => {
                let err = doc.get("error");
                doc.get("ok") == Some(&Json::Bool(false))
                    && err.and_then(|e| e.get("kind")).and_then(Json::as_str) == Some("exec")
                    && err.and_then(|e| e.get("message")).and_then(Json::as_str)
                        == Some(msg.as_str())
            }
        };
    (ok, handler_ms)
}

/// The root span name of a request with wire op `op`.
fn span_name(op: &str) -> &'static str {
    match op {
        "chase" => "op.chase",
        "rechase" => "op.rechase",
        "quasi-inverse" => "op.quasi-inverse",
        "recover" => "op.recover",
        "contains" => "op.contains",
        "lint" => "op.lint",
        "analyze" => "op.analyze",
        _ => "op.request",
    }
}

/// Start the server, load the mappings (timing each `load` on the
/// wire) and warm it with the first requests of the stream.
fn setup(mappings: &[(String, String)], warm: &[String]) -> State {
    let server = start("127.0.0.1:0", |_| {}).expect("server binds to loopback");
    let mut st = State {
        server: Some(server),
        load_ms: Vec::new(),
    };
    let mut conn = Conn::open(st.addr()).expect("set-up connection");
    for (name, text) in mappings {
        let t = Instant::now();
        let resp = conn.call(&load_line(name, text)).expect("load reply");
        st.load_ms.push(t.elapsed().as_secs_f64() * 1e3);
        assert!(resp.contains("\"ok\":true"), "load failed: {resp}");
    }
    for line in warm {
        conn.call(line).expect("warm-up reply");
    }
    st
}

/// One completed (or lost) request of the timed loop.
struct Sample {
    index: usize,
    wire_ms: f64,
    /// The response arrived and matched the expected one.
    ok: bool,
    /// The handler time the response reported, ms.
    handler_ms: Option<f64>,
}

/// Hom-cache hit ratio over every handler in `GET /metrics`.
fn scrape_hit_ratio(addr: SocketAddr) -> f64 {
    let body = (|| -> std::io::Result<String> {
        let mut s = TcpStream::connect(addr)?;
        s.write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n")?;
        let mut text = String::new();
        s.read_to_string(&mut text)?;
        Ok(text
            .split_once("\r\n\r\n")
            .map_or(String::new(), |(_, b)| b.to_owned()))
    })()
    .unwrap_or_default();
    let Ok(Json::Obj(handlers)) = parse(&body) else {
        return 0.0;
    };
    let sum = |key: &str| -> f64 {
        handlers
            .values()
            .filter_map(|h| h.get(key).and_then(Json::as_u64))
            .sum::<u64>() as f64
    };
    let hits = sum("hom_cache_hits");
    report::ratio(hits, hits + sum("hom_cache_misses"))
}

/// Run the workload for `seconds`.
pub fn run(seed: u64, seconds: f64, tracer: &Tracer, sizes: &Sizes, corrupt: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut stream = None;
    let (st, setup_s) = crate::timed_setup(|| {
        let s = request_stream(&StreamParams {
            seed,
            len: sizes.stream_len,
        });
        let warm: Vec<String> = s.requests[..sizes.warmup.min(s.requests.len())]
            .iter()
            .map(|r| r.to_json_line())
            .collect();
        let st = setup(&s.mappings, &warm);
        stream = Some(s);
        st
    });
    out.e2e.insert("setup_s", setup_s);
    let stream = stream.expect("stream generated");

    // Expected responses, memoized on (op, exec): the stream repeats
    // many requests verbatim.
    let texts: BTreeMap<String, String> = stream.mappings.iter().cloned().collect();
    let mut totals = ExecStats::default();
    let mut memo: HashMap<String, Result<String, String>> = HashMap::new();
    let mut expected: Vec<Result<String, String>> = stream
        .requests
        .iter()
        .map(|r| {
            let key = format!("{:?}|{:?}", r.op, r.exec);
            memo.entry(key)
                .or_insert_with(|| expected_of(&r.op, &exec_of(&r.exec), &texts, &mut totals))
                .clone()
        })
        .collect();
    if corrupt {
        let (Ok(s) | Err(s)) = &mut expected[0];
        s.push('!');
    }
    let lines: Vec<String> = stream.requests.iter().map(|r| r.to_json_line()).collect();
    let ids: Vec<&str> = stream.requests.iter().map(|r| r.id.as_str()).collect();
    let ops: Vec<&'static str> = stream.requests.iter().map(|r| r.op_name()).collect();
    let span_names: Vec<&'static str> = ops.iter().map(|op| span_name(op)).collect();

    // The closed loop.
    let addr = st.addr();
    let cursor = AtomicUsize::new(0);
    let samples: Mutex<Vec<Sample>> = Mutex::new(Vec::new());
    let wall = Instant::now();
    let deadline = wall + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut conn = Conn::open(addr).ok();
                let mut mine = Vec::new();
                while Instant::now() < deadline {
                    let n = cursor.fetch_add(1, Ordering::Relaxed);
                    let index = n % lines.len();
                    let t = Instant::now();
                    let (response, id) = tracer.span(span_names[index], n as u64 + 1, 0, |_| {
                        conn.as_mut().and_then(|c| c.call(&lines[index]).ok())
                    });
                    let wire_ms = t.elapsed().as_secs_f64() * 1e3;
                    // Checked here so that responses are not kept: the
                    // heap figure is the server's, not the samples'.
                    let (ok, handler_ms) = match &response {
                        Some(resp) => check(resp, ids[index], &expected[index]),
                        None => {
                            // A lost request; reconnect for the next one.
                            conn = Conn::open(addr).ok();
                            (false, None)
                        }
                    };
                    if let Some(ms) = handler_ms {
                        tracer.annotate(id, &[("handler_ms", ms)]);
                    }
                    mine.push(Sample {
                        index,
                        wire_ms,
                        ok,
                        handler_ms,
                    });
                }
                samples.lock().expect("samples").extend(mine);
            });
        }
    });
    let wall_s = wall.elapsed().as_secs_f64();
    let samples = samples.into_inner().expect("samples");

    let mut heavy = Vec::new();
    let mut light = Vec::new();
    let mut per_op: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut handler = Vec::new();
    let mut transport = Vec::new();
    for s in &samples {
        out.attempted += 1;
        if !s.ok {
            out.failed += 1;
            continue;
        }
        let op = ops[s.index];
        if COMPILE_OPS.contains(&op) {
            heavy.push(s.wire_ms);
        } else {
            light.push(s.wire_ms);
        }
        per_op.entry(op).or_default().push(s.wire_ms);
        if let Some(ms) = s.handler_ms {
            handler.push(ms);
            transport.push(s.wire_ms - ms);
        }
    }
    out.timed(&heavy, &light, samples.len() as u64, wall_s);

    if tracer.on() {
        out.put("serve.handler_ms", report::median(&handler));
        out.put("serve.transport_ms", report::median(&transport));
        for (op, name) in [
            ("chase", "serve.op.chase_p50_ms"),
            ("rechase", "serve.op.rechase_p50_ms"),
            ("quasi-inverse", "serve.op.quasi-inverse_p50_ms"),
            ("recover", "serve.op.recover_p50_ms"),
            ("contains", "serve.op.contains_p50_ms"),
            ("lint", "serve.op.lint_p50_ms"),
            ("analyze", "serve.op.analyze_p50_ms"),
        ] {
            out.put(
                name,
                report::median(per_op.get(op).map_or(&[][..], Vec::as_slice)),
            );
        }
        out.put("serve.load_ms", report::median(&st.load_ms));
        out.put("serve.homcache_hit_ratio", scrape_hit_ratio(addr));
        let spans = tracer.finish();
        crate::put_common(&mut out, &spans, &totals, samples.len() as u64);
        crate::write_trace("serve", seed, &spans);
    }
    drop(st);
    out
}
