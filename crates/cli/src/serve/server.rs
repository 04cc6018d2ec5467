//! The long-running mapping service: NDJSON over TCP plus a minimal
//! REST front on the same port.
//!
//! Every connection gets its own thread; every request carries its own
//! [`qi_exec::ExecConfig`], so concurrent sessions with different
//! thread counts, planner modes and budgets are fully isolated — no
//! handler writes the process-wide overrides. Responses are rendered
//! completely before a single write, so a client never observes a
//! partial line; handler panics are caught and surfaced as structured
//! `internal` errors.
//!
//! Protocol sniffing: a connection whose first bytes spell an HTTP verb
//! (`GET` / `POST` …) is served as HTTP/1.1 (`POST /rpc` with a JSON
//! request body, `GET /metrics`); anything else is treated as NDJSON —
//! one request object per line, one response object per line, in order.

use super::json::{obj, Json};
use super::metrics::Metrics;
use super::proto::{err_response, ok_response, Op, ProtoError, Request, ResponseStats};
use super::registry::Registry;
use crate::{
    chase_loaded, contains_texts, quasi_inverse_loaded, rechase_loaded, recover_loaded, CliError,
};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Largest accepted request line / HTTP body, bytes.
const MAX_REQUEST_BYTES: usize = 8 * 1024 * 1024;

/// How often idle readers and the accept loop re-check the shutdown
/// flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// A running server: bound address plus the handles needed for a
/// graceful stop.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// The actually-bound address (resolves `:0` port requests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the server to stop: the listener closes, idle connections
    /// are released, and in-flight requests drain before this returns.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Block until the server stops on its own (a client sent
    /// `{"op":"shutdown"}`).
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Bind `addr` and serve until shut down. The effective process-level
/// configuration (the once-per-process `QI_THREADS` / `QI_PLAN` parses
/// — later environment changes are ignored) is reported through `log`
/// at bind time, before the first connection is accepted.
pub fn start(addr: &str, log: impl FnMut(String) + Send + 'static) -> Result<Server, CliError> {
    let mut log = log;
    let listener =
        TcpListener::bind(addr).map_err(|e| CliError(format!("cannot bind `{addr}`: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| CliError(format!("cannot resolve bound address: {e}")))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| CliError(format!("cannot configure listener: {e}")))?;
    let threads = match qi_exec::effective_env_threads() {
        Some(n) => n.to_string(),
        None => "auto".to_owned(),
    };
    log(format!(
        "qimap serve: listening on {local}; default exec: threads={threads}, planning={}; \
         QI_THREADS/QI_PLAN were parsed once at startup — environment changes are ignored \
         until restart; per-request `exec` objects override both",
        if qi_schema::effective_env_planning() {
            "on"
        } else {
            "off"
        }
    ));
    let shutdown = Arc::new(AtomicBool::new(false));
    let registry = Registry::new();
    let metrics = Metrics::new();
    let accept_shutdown = Arc::clone(&shutdown);
    let accept_thread = std::thread::spawn(move || {
        let workers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        loop {
            if accept_shutdown.load(Ordering::SeqCst) {
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let reg = registry.clone();
                    let met = metrics.clone();
                    let stop = Arc::clone(&accept_shutdown);
                    let handle = std::thread::spawn(move || {
                        // Connection errors only tear down this session.
                        let _ = serve_connection(stream, &reg, &met, &stop);
                    });
                    workers.lock().expect("worker list lock").push(handle);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(_) => std::thread::sleep(POLL_INTERVAL),
            }
        }
        // Drain: in-flight requests run to completion; idle readers
        // notice the flag at their next poll tick and close.
        let handles = std::mem::take(&mut *workers.lock().expect("worker list lock"));
        for h in handles {
            let _ = h.join();
        }
    });
    Ok(Server {
        addr: local,
        shutdown,
        accept_thread: Some(accept_thread),
    })
}

/// Serve one accepted connection (NDJSON or sniffed HTTP).
fn serve_connection(
    stream: TcpStream,
    registry: &Registry,
    metrics: &Metrics,
    shutdown: &Arc<AtomicBool>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    // Sniff the protocol without consuming bytes.
    let mut first = [0u8; 5];
    let sniffed = loop {
        match stream.peek(&mut first) {
            Ok(0) => return Ok(()),
            Ok(n) => break &first[..n],
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
            Err(e) => return Err(e),
        }
    };
    if sniffed.starts_with(b"GET ")
        || sniffed.starts_with(b"POST ")
        || sniffed.starts_with(b"PUT ")
        || sniffed.starts_with(b"HEAD ")
        || sniffed.starts_with(b"DELET")
    {
        return serve_http(stream, registry, metrics, shutdown);
    }
    serve_ndjson(stream, registry, metrics, shutdown)
}

/// NDJSON session: requests in, responses out, strictly in order.
fn serve_ndjson(
    stream: TcpStream,
    registry: &Registry,
    metrics: &Metrics,
    shutdown: &Arc<AtomicBool>,
) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match read_line_polling(&mut reader, &mut line, shutdown)? {
            ReadOutcome::Closed | ReadOutcome::ShuttingDown => return Ok(()),
            ReadOutcome::TooLarge => {
                // The rest of the line is still unread, so the session
                // cannot resynchronise: answer, then close.
                metrics.record("decode", false, 0, 0, 0, 0);
                return write_line(&mut writer, too_large());
            }
            ReadOutcome::Line => {}
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let (response, is_shutdown) = dispatch_line(trimmed, registry, metrics, shutdown);
        write_line(&mut writer, response)?;
        if is_shutdown {
            return Ok(());
        }
    }
}

/// Send one NDJSON response: the rendered line and its newline in a
/// single write, so a client never sees a partial line. Writing the
/// newline separately sends a 1-byte segment that Nagle's algorithm
/// holds back until the client's delayed ACK — a ~40 ms stall per
/// request.
fn write_line(writer: &mut TcpStream, mut response: String) -> std::io::Result<()> {
    response.push('\n');
    writer.write_all(response.as_bytes())?;
    writer.flush()
}

enum ReadOutcome {
    Line,
    Closed,
    ShuttingDown,
    /// The line grew past [`MAX_REQUEST_BYTES`] without a newline.
    TooLarge,
}

/// The structured answer to an oversized request.
fn too_large() -> String {
    err_response(
        &Json::Null,
        "too-large",
        &format!("request exceeds {MAX_REQUEST_BYTES} bytes"),
    )
}

/// `read_line` under the poll-interval read timeout: keeps partial
/// lines across timeouts, re-checks the shutdown flag between polls,
/// and enforces the request size cap. Every read is bounded by what the
/// cap still allows, so a client that streams without a newline costs
/// at most `MAX_REQUEST_BYTES + 1` bytes before the read stops with
/// [`ReadOutcome::TooLarge`].
fn read_line_polling(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
    shutdown: &Arc<AtomicBool>,
) -> std::io::Result<ReadOutcome> {
    let mut buf = Vec::new();
    let outcome = loop {
        // One byte past the cap tells a line that fits (it ends in the
        // newline) from one that does not.
        let room = (MAX_REQUEST_BYTES + 1 - buf.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', &mut buf) {
            Ok(0) if buf.is_empty() => break ReadOutcome::Closed,
            Ok(0) => break ReadOutcome::Line,
            Ok(_) if buf.ends_with(b"\n") => break ReadOutcome::Line,
            // A timeout can split a line; keep accumulating.
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shutdown.load(Ordering::SeqCst) && buf.is_empty() {
                    break ReadOutcome::ShuttingDown;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        if buf.len() > MAX_REQUEST_BYTES {
            break ReadOutcome::TooLarge;
        }
    };
    if matches!(outcome, ReadOutcome::Line) {
        line.push_str(&String::from_utf8_lossy(&buf));
    }
    Ok(outcome)
}

/// Decode + dispatch one request line; returns the rendered response
/// and whether it was a shutdown request.
fn dispatch_line(
    line: &str,
    registry: &Registry,
    metrics: &Metrics,
    shutdown: &Arc<AtomicBool>,
) -> (String, bool) {
    let req = match Request::decode(line) {
        Ok(r) => r,
        Err(ProtoError { kind, message, id }) => {
            metrics.record("decode", false, 0, 0, 0, 0);
            return (err_response(&id, kind, &message), false);
        }
    };
    let is_shutdown = req.op == Op::Shutdown;
    let start = Instant::now();
    let label = req.op.label();
    // Handlers are pure library calls; a panic reaching here is a bug,
    // but it must come back as a structured error, never tear down the
    // server or truncate a response.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        handle(&req, registry, metrics, shutdown)
    }));
    let elapsed_us = start.elapsed().as_micros() as u64;
    match outcome {
        Ok(Ok(HandlerOk { body, stats })) => {
            let (tasks, hits, misses) = stats
                .as_ref()
                .map(|s| (s.tasks, s.hom_cache_hits, s.hom_cache_misses))
                .unwrap_or_default();
            metrics.record(label, true, elapsed_us, tasks, hits, misses);
            let rendered = match body {
                HandlerBody::Text(out) => {
                    let with_elapsed = stats.map(|mut s| {
                        s.elapsed_us = elapsed_us;
                        s
                    });
                    ok_response(&req.id, &out, with_elapsed.as_ref())
                }
                HandlerBody::Value(v) => obj(vec![
                    ("id", req.id.clone()),
                    ("ok", Json::Bool(true)),
                    ("metrics", v),
                ])
                .render(),
            };
            (rendered, is_shutdown)
        }
        Ok(Err(e)) => {
            metrics.record(label, false, elapsed_us, 0, 0, 0);
            (err_response(&req.id, "exec", &e.0), is_shutdown)
        }
        Err(panic) => {
            metrics.record(label, false, elapsed_us, 0, 0, 0);
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "handler panicked".to_owned());
            (
                err_response(&req.id, "internal", &format!("handler panicked: {msg}")),
                is_shutdown,
            )
        }
    }
}

/// A successful handler outcome.
struct HandlerOk {
    body: HandlerBody,
    stats: Option<ResponseStats>,
}

enum HandlerBody {
    /// Ordinary command output (byte-identical to the one-shot CLI).
    Text(String),
    /// Structured payload (the metrics document).
    Value(Json),
}

fn text(out: String) -> Result<HandlerOk, CliError> {
    Ok(HandlerOk {
        body: HandlerBody::Text(out),
        stats: None,
    })
}

fn text_with_stats(out: String, s: &qi_exec::ExecStats) -> Result<HandlerOk, CliError> {
    Ok(HandlerOk {
        body: HandlerBody::Text(out),
        stats: Some(ResponseStats::from_exec(0, s)),
    })
}

/// Execute one decoded request against the session registry.
fn handle(
    req: &Request,
    registry: &Registry,
    metrics: &Metrics,
    shutdown: &Arc<AtomicBool>,
) -> Result<HandlerOk, CliError> {
    let proto_err = |e: ProtoError| CliError(e.message);
    match req.op {
        Op::Load => {
            let name = req.str_field("name").map_err(proto_err)?;
            let mapping_text = req.str_field("text").map_err(proto_err)?;
            let loaded = registry.load(&name, &mapping_text)?;
            let mf = &loaded.file;
            text(format!(
                "loaded `{name}`: {} s-t tgd(s), {} target tgd(s), {} egd(s); certified: {}\n",
                mf.mapping.tgds.len(),
                mf.target_tgds.len(),
                mf.egds.len(),
                mf.certificate.is_some()
            ))
        }
        Op::Unload => {
            let name = req.str_field("name").map_err(proto_err)?;
            registry.unload(&name)?;
            text(format!("unloaded `{name}`\n"))
        }
        Op::List => {
            let names = registry.names();
            let mut out = String::new();
            for n in &names {
                out.push_str(n);
                out.push('\n');
            }
            text(out)
        }
        Op::Chase => {
            let loaded = registry.get(&req.str_field("mapping").map_err(proto_err)?)?;
            let instance = req.str_field("instance").map_err(proto_err)?;
            let (out, s) = chase_loaded(&loaded.file, &instance, req.flag("stats"), &req.exec)?;
            text_with_stats(out, &s)
        }
        Op::Rechase => {
            let loaded = registry.get(&req.str_field("mapping").map_err(proto_err)?)?;
            let instance = req.str_field("instance").map_err(proto_err)?;
            let diff = req.str_field("diff").map_err(proto_err)?;
            let (out, s) =
                rechase_loaded(&loaded.file, &instance, &diff, req.flag("stats"), &req.exec)?;
            text_with_stats(out, &s)
        }
        Op::QuasiInverse => {
            let loaded = registry.get(&req.str_field("mapping").map_err(proto_err)?)?;
            let (out, s) = quasi_inverse_loaded(&loaded.file, req.flag("stats"), &req.exec)?;
            text_with_stats(out, &s)
        }
        Op::Recover => {
            let loaded = registry.get(&req.str_field("mapping").map_err(proto_err)?)?;
            let (out, s) =
                recover_loaded(&loaded.file, req.flag("json"), req.flag("stats"), &req.exec)?;
            text_with_stats(out, &s)
        }
        Op::Contains => {
            let outer = registry.get(&req.str_field("outer").map_err(proto_err)?)?;
            let inner = registry.get(&req.str_field("inner").map_err(proto_err)?)?;
            let (out, s) = contains_texts(
                &outer.text,
                &inner.text,
                req.flag("json"),
                req.flag("stats"),
                &req.exec,
            )?;
            text_with_stats(out, &s)
        }
        Op::Lint => {
            let loaded = registry.get(&req.str_field("mapping").map_err(proto_err)?)?;
            text(if req.flag("json") {
                loaded.lint_json.clone()
            } else {
                loaded.lint_text.clone()
            })
        }
        Op::Analyze => {
            let loaded = registry.get(&req.str_field("mapping").map_err(proto_err)?)?;
            let cost = usize::from(req.flag("cost"));
            let json = usize::from(req.flag("json"));
            text(loaded.analyze[cost][json].clone())
        }
        Op::Metrics => Ok(HandlerOk {
            body: HandlerBody::Value(metrics.render()),
            stats: None,
        }),
        Op::Shutdown => {
            shutdown.store(true, Ordering::SeqCst);
            text("shutting down: draining in-flight requests\n".to_owned())
        }
    }
}

/// Minimal HTTP/1.1 front: `POST /rpc` (JSON request body) and
/// `GET /metrics`. One request per connection (`Connection: close`).
fn serve_http(
    stream: TcpStream,
    registry: &Registry,
    metrics: &Metrics,
    shutdown: &Arc<AtomicBool>,
) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    // Head: request line + headers, terminated by an empty line.
    let mut request_line = String::new();
    let mut head_too_large = false;
    match read_line_polling(&mut reader, &mut request_line, shutdown)? {
        ReadOutcome::Closed | ReadOutcome::ShuttingDown => return Ok(()),
        ReadOutcome::TooLarge => head_too_large = true,
        ReadOutcome::Line => {}
    }
    let mut content_length = 0usize;
    while !head_too_large {
        let mut header = String::new();
        match read_line_polling(&mut reader, &mut header, shutdown)? {
            ReadOutcome::Closed | ReadOutcome::ShuttingDown => return Ok(()),
            ReadOutcome::TooLarge => head_too_large = true,
            ReadOutcome::Line => {}
        }
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some(v) = header
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
            .and_then(|v| v.parse::<usize>().ok())
        {
            content_length = v;
        }
    }
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, body) = match (method, path) {
        _ if head_too_large => ("413 Payload Too Large", too_large()),
        ("GET", "/metrics") => ("200 OK", metrics.render().render()),
        ("POST", "/rpc") => {
            if content_length > MAX_REQUEST_BYTES {
                ("413 Payload Too Large", too_large())
            } else {
                let mut body = vec![0u8; content_length];
                read_exact_polling(&mut reader, &mut body, shutdown)?;
                let text = String::from_utf8_lossy(&body);
                let (response, _) = dispatch_line(text.trim(), registry, metrics, shutdown);
                ("200 OK", response)
            }
        }
        _ => (
            "404 Not Found",
            err_response(
                &Json::Null,
                "bad-request",
                &format!("no route for {method} {path}; use POST /rpc or GET /metrics"),
            ),
        ),
    };
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    // Head + body in one buffer, one write: no partial responses.
    let mut full = head.into_bytes();
    full.extend_from_slice(body.as_bytes());
    writer.write_all(&full)?;
    writer.flush()
}

/// `read_exact` under the poll-interval read timeout.
fn read_exact_polling(
    reader: &mut BufReader<TcpStream>,
    buf: &mut [u8],
    shutdown: &Arc<AtomicBool>,
) -> std::io::Result<()> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shutdown.load(Ordering::SeqCst) {
                    return Err(std::io::Error::new(ErrorKind::Interrupted, "shutting down"));
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}
