//! The concurrent-session oracle for `qimap serve`.
//!
//! Locks the tentpole contract of the serving layer:
//!
//! * N concurrent clients firing interleaved requests — mixed mappings,
//!   thread counts, planner modes, some deliberately budget-tripped —
//!   each receive responses **byte-identical** to the one-shot CLI
//!   handlers run sequentially with the same per-request `ExecConfig`.
//!   That is only possible if no request's settings leak into another
//!   session (the bug this PR evicts: process-global execution state).
//! * Malformed input over the wire produces structured errors, never a
//!   panic, and never poisons the connection.
//! * Shutdown drains: in-flight requests complete, the listener closes.
//! * The REST front returns the same payloads as the NDJSON front.

use qi_cli::serve::json::{parse, Json};
use qi_cli::serve::start;
use qi_cli::{
    chase_loaded, contains_texts, parse_mapping_file, quasi_inverse_loaded, rechase_loaded,
    recover_loaded,
};
use qi_workloads::requests::{load_line, request_stream, ExecSpec, ServeOp, StreamParams};
use quasi_inverse::exec::{Budget, ExecConfig, Parallelism, Planning};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One NDJSON round trip on an open connection.
fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("request write");
    stream.flush().expect("request flush");
    let mut response = String::new();
    reader.read_line(&mut response).expect("response read");
    assert!(response.ends_with('\n'), "response must be one full line");
    response.trim_end().to_owned()
}

/// Open a client connection (writer + buffered reader halves).
fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

/// Rebuild the per-request [`ExecConfig`] a spec describes — the same
/// construction the server's protocol decoder performs.
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

/// The expected response payload for one generated request, computed by
/// the one-shot CLI handlers: `Ok(output)` or `Err(message)`.
fn expected_of(
    op: &ServeOp,
    exec: &ExecConfig,
    mappings: &BTreeMap<String, String>,
) -> Result<String, String> {
    let file_of = |name: &str| parse_mapping_file(&mappings[name]).expect("mapping parses");
    let res = match op {
        ServeOp::Chase { mapping, instance } => {
            chase_loaded(&file_of(mapping), instance, false, exec).map(|(out, _)| out)
        }
        ServeOp::Rechase {
            mapping,
            instance,
            diff,
        } => rechase_loaded(&file_of(mapping), instance, diff, false, exec).map(|(out, _)| out),
        ServeOp::QuasiInverse { mapping } => {
            quasi_inverse_loaded(&file_of(mapping), false, exec).map(|(out, _)| out)
        }
        ServeOp::Recover { mapping, json } => {
            recover_loaded(&file_of(mapping), *json, false, exec).map(|(out, _)| out)
        }
        ServeOp::Contains { outer, inner } => {
            contains_texts(&mappings[outer], &mappings[inner], false, false, exec)
                .map(|(out, _)| out)
        }
        ServeOp::Lint { mapping, json } => qi_cli::cmd_lint(mapping, &mappings[mapping], *json),
        ServeOp::Analyze { mapping, cost } => {
            qi_cli::cmd_analyze(mapping, &mappings[mapping], *cost, false)
        }
    };
    match res {
        Ok(out) => Ok(out),
        Err(e) => Err(format!("{e}")),
    }
}

#[test]
fn concurrent_sessions_are_byte_identical_to_one_shot_cli() {
    let server = start("127.0.0.1:0", |_| {}).expect("server binds");
    let addr = server.addr();
    let stream = request_stream(&StreamParams {
        seed: 2024,
        len: 48,
    });

    // Load the mappings once through a setup connection.
    let (mut setup, mut setup_reader) = connect(addr);
    for (name, text) in &stream.mappings {
        let resp = roundtrip(&mut setup, &mut setup_reader, &load_line(name, text));
        let doc = parse(&resp).expect("load response is JSON");
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{resp}");
    }

    // Four clients fire interleaved slices of the stream concurrently,
    // each over its own connection, with heterogeneous exec configs.
    const CLIENTS: usize = 4;
    let mut slices: Vec<Vec<_>> = (0..CLIENTS).map(|_| Vec::new()).collect();
    for (i, req) in stream.requests.iter().enumerate() {
        slices[i % CLIENTS].push(req.clone());
    }
    let responses: BTreeMap<String, String> = std::thread::scope(|scope| {
        let handles: Vec<_> = slices
            .iter()
            .map(|slice| {
                scope.spawn(move || {
                    let (mut stream, mut reader) = connect(addr);
                    slice
                        .iter()
                        .map(|req| {
                            (
                                req.id.clone(),
                                roundtrip(&mut stream, &mut reader, &req.to_json_line()),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });

    // Compare every response against the one-shot CLI handlers.
    let mapping_texts: BTreeMap<String, String> = stream.mappings.iter().cloned().collect();
    let mut tripped = 0usize;
    for req in &stream.requests {
        let resp = &responses[&req.id];
        let doc = parse(resp).expect("response is JSON");
        assert_eq!(
            doc.get("id").and_then(Json::as_str),
            Some(req.id.as_str()),
            "{resp}"
        );
        let exec = exec_of(&req.exec);
        match expected_of(&req.op, &exec, &mapping_texts) {
            Ok(expected) => {
                assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{resp}");
                assert_eq!(
                    doc.get("output").and_then(Json::as_str),
                    Some(expected.as_str()),
                    "response output must be byte-identical to the one-shot CLI\nrequest: {}",
                    req.to_json_line()
                );
            }
            Err(message) => {
                tripped += 1;
                assert_eq!(doc.get("ok"), Some(&Json::Bool(false)), "{resp}");
                let error = doc.get("error").expect("structured error");
                assert_eq!(error.get("kind").and_then(Json::as_str), Some("exec"));
                assert_eq!(
                    error.get("message").and_then(Json::as_str),
                    Some(message.as_str()),
                    "error message must match the one-shot CLI\nrequest: {}",
                    req.to_json_line()
                );
            }
        }
    }
    assert!(
        stream.requests.iter().any(|r| r.exec.is_tripping()),
        "the stream should include budget-tripping requests"
    );
    assert!(tripped > 0, "some budget-tripped requests should error");
    server.shutdown();
}

#[test]
fn malformed_wire_input_yields_structured_errors_never_panics() {
    let server = start("127.0.0.1:0", |_| {}).expect("server binds");
    let (mut stream, mut reader) = connect(server.addr());
    let garbage = [
        "not json at all",
        "{",
        "[1,2,3]",
        "\"just a string\"",
        "{}",
        r#"{"op":42}"#,
        r#"{"op":"explode"}"#,
        r#"{"op":"chase"}"#,
        r#"{"op":"chase","mapping":"nope","instance":"P(a)"}"#,
        r#"{"op":"chase","mapping":"nope","instance":"P(a)","exec":{"threads":0}}"#,
        r#"{"op":"chase","mapping":"nope","instance":"P(a)","exec":{"plan":"maybe"}}"#,
        r#"{"op":"chase","mapping":"nope","instance":"P(a)","exec":"fast"}"#,
        r#"{"op":"load","name":"x","text":"source P/1"}"#,
        r#"{"op":"load","name":"","text":"source: P/1\ntarget: Q/1\ntgd: P(x) -> Q(x)\n"}"#,
        r#"{"op":"contains","outer":"a"}"#,
        r#"{"op":"rechase","mapping":"m","instance":"P(a)","diff":"* P(b)"}"#,
        "\u{0}\u{1}\u{2}",
    ];
    for bad in garbage {
        let resp = roundtrip(&mut stream, &mut reader, bad);
        let doc = parse(&resp).unwrap_or_else(|e| panic!("non-JSON response to {bad:?}: {e}"));
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)), "{bad:?} → {resp}");
        let kind = doc
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("missing error.kind in {resp}"));
        assert!(
            matches!(kind, "bad-json" | "bad-request" | "exec"),
            "{bad:?} → {resp}"
        );
    }
    // The connection survives the whole sweep: a valid request after the
    // garbage still succeeds.
    let resp = roundtrip(&mut stream, &mut reader, r#"{"op":"list","id":"after"}"#);
    let doc = parse(&resp).expect("list response is JSON");
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{resp}");
    server.shutdown();
}

#[test]
fn oversized_line_without_newline_gets_a_too_large_error() {
    // The server caps a request line at 8 MiB; a client that streams
    // past the cap without ever sending a newline must get a structured
    // error instead of growing the server's buffer, and other sessions
    // must keep being served.
    const CAP: usize = 8 * 1024 * 1024;
    let server = start("127.0.0.1:0", |_| {}).expect("server binds");
    let (mut other, mut other_reader) = connect(server.addr());
    let (mut flood, mut flood_reader) = connect(server.addr());
    // Exactly one byte past the cap: the server stops reading there, so
    // nothing is left unread when it closes the session.
    let mut payload = vec![b'x'; CAP + 1];
    payload[0] = b'{';
    flood.write_all(&payload).expect("flood write");
    flood.flush().expect("flood flush");
    let mut response = String::new();
    flood_reader
        .read_line(&mut response)
        .expect("too-large response");
    let doc = parse(response.trim_end()).expect("too-large response is JSON");
    assert_eq!(doc.get("ok"), Some(&Json::Bool(false)), "{response}");
    assert_eq!(
        doc.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("too-large"),
        "{response}"
    );
    // The flooding session is closed after the answer.
    let mut rest = Vec::new();
    flood_reader.read_to_end(&mut rest).expect("clean close");
    assert!(rest.is_empty());
    let resp = roundtrip(
        &mut other,
        &mut other_reader,
        r#"{"op":"list","id":"still"}"#,
    );
    let doc = parse(&resp).expect("list response is JSON");
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{resp}");
    server.shutdown();
}

#[test]
fn sequential_requests_on_one_connection_are_not_delayed() {
    // Each NDJSON response must leave in one write. A response sent as
    // the line and then a separate 1-byte newline stalls every request
    // of a request–response loop behind Nagle's algorithm and the
    // client's delayed ACK (about 40 ms each, ~2 s for 50 requests).
    let server = start("127.0.0.1:0", |_| {}).expect("server binds");
    let (mut stream, mut reader) = connect(server.addr());
    let start = std::time::Instant::now();
    for i in 0..50 {
        let resp = roundtrip(
            &mut stream,
            &mut reader,
            &format!(r#"{{"op":"list","id":"r{i}"}}"#),
        );
        assert!(resp.contains("\"ok\":true"), "{resp}");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "50 sequential list requests took {elapsed:?}"
    );
    server.shutdown();
}

#[test]
fn shutdown_request_drains_and_closes_the_listener() {
    let server = start("127.0.0.1:0", |_| {}).expect("server binds");
    let addr = server.addr();
    // A second session with in-flight state stays valid through drain.
    let (mut busy, mut busy_reader) = connect(addr);
    let decomp = qi_workloads::families::decomposition_k(3);
    let text = qi_workloads::mapping_file_text(&decomp);
    let resp = roundtrip(&mut busy, &mut busy_reader, &load_line("m", &text));
    assert!(resp.contains("\"ok\":true"), "{resp}");

    let (mut ctl, mut ctl_reader) = connect(addr);
    let resp = roundtrip(&mut ctl, &mut ctl_reader, r#"{"op":"shutdown","id":"bye"}"#);
    let doc = parse(&resp).expect("shutdown response is JSON");
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{resp}");
    assert!(
        doc.get("output")
            .and_then(Json::as_str)
            .is_some_and(|o| o.contains("shutting down")),
        "{resp}"
    );
    // The accept loop joins every connection thread before returning.
    server.wait();
    // New connections are refused (or immediately closed) once drained.
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut s) => {
            let _ = s.write_all(b"{\"op\":\"list\"}\n");
            let mut buf = String::new();
            let n = BufReader::new(s).read_line(&mut buf).unwrap_or(0);
            assert_eq!(n, 0, "listener must be closed after shutdown: {buf}");
        }
    }
}

#[test]
fn rest_front_matches_ndjson_and_serves_metrics() {
    let server = start("127.0.0.1:0", |_| {}).expect("server binds");
    let addr = server.addr();
    let copy = qi_workloads::families::copy_arity(2);
    let text = qi_workloads::mapping_file_text(&copy);
    let (mut setup, mut setup_reader) = connect(addr);
    let resp = roundtrip(&mut setup, &mut setup_reader, &load_line("copy", &text));
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let request = r#"{"op":"chase","id":"h1","mapping":"copy","instance":"P(a,b)","exec":{"threads":2,"plan":"off"}}"#;
    let ndjson_resp = roundtrip(&mut setup, &mut setup_reader, request);

    // Same request over POST /rpc.
    let http_body = http_request(
        addr,
        &format!(
            "POST /rpc HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{request}",
            request.len()
        ),
    );
    // `stats.elapsed_us` is wall-clock and legitimately differs between
    // runs; everything else must agree exactly.
    let strip_elapsed = |text: &str| {
        let mut doc = parse(text).expect("payload is JSON");
        if let Json::Obj(map) = &mut doc {
            if let Some(Json::Obj(stats)) = map.get_mut("stats") {
                stats.remove("elapsed_us");
            }
        }
        doc
    };
    assert_eq!(
        strip_elapsed(&http_body),
        strip_elapsed(&ndjson_resp),
        "REST and NDJSON fronts must return the same payload"
    );

    // GET /metrics aggregates the handler counters.
    let metrics_body = http_request(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    let doc = parse(&metrics_body).expect("metrics is JSON");
    let chase = doc.get("chase").expect("chase handler metrics");
    assert_eq!(chase.get("requests").and_then(Json::as_u64), Some(2));
    assert!(chase.get("p50_us").and_then(Json::as_u64).is_some());
    assert!(chase.get("p99_us").and_then(Json::as_u64).is_some());

    // Unknown routes are structured errors too.
    let not_found = http_request(addr, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(not_found.contains("\"ok\":false"), "{not_found}");
    server.shutdown();
}

/// Fire one raw HTTP request and return the response body.
fn http_request(addr: SocketAddr, raw: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("http write");
    stream.flush().expect("http flush");
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .expect("read http response");
    let text = String::from_utf8(response).expect("utf-8 response");
    let (head, body) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body split in {text:?}"));
    assert!(head.starts_with("HTTP/1.1 "), "{head}");
    assert!(
        head.to_ascii_lowercase().contains("content-length:"),
        "{head}"
    );
    body.to_owned()
}
