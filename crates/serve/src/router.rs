//! Request routing: the endpoint table, the measurement backend trait,
//! and the per-request error payload mapping.
//!
//! Endpoints (all answers are JSON; streams are JSONL over chunked
//! transfer encoding):
//!
//! | Method | Path                 | Purpose                                  |
//! |--------|----------------------|------------------------------------------|
//! | GET    | `/v1/health`         | liveness + uptime                        |
//! | GET    | `/v1/stats`          | serve/store counters, catalogue, flights |
//! | GET    | `/v1/topo`           | list registered topologies               |
//! | POST   | `/v1/topo`           | upload (`?format=edge-list\|mctb`)       |
//! | POST   | `/v1/measure`        | run / fetch a measurement query          |
//! | POST   | `/v1/admin/shutdown` | graceful drain                           |
//!
//! The measurement engine itself lives above this crate (the scheduler
//! and cache glue are in `mcast-experiments`, which *depends on* this
//! crate), so the router talks to it through the [`Backend`] trait:
//! the server owns protocol, admission, quotas and coalescing; the
//! backend owns keys, cache lookups and scheduler execution.

use crate::protocol::{chunk, chunked_head, error_body, unary_response, Request, CHUNK_END};
use crate::quota::{QuotaDecision, Quotas};
use crate::registry::{FlightRole, Flights, Outcome, TopologyEntry, TopologyRegistry};
use mcast_obs::json::{self, write_str, Value};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which curve a query asks for (mirrors the `mcs measure` contract).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// Normalised tree cost `N(m)/ū` ("ratio").
    Ratio,
    /// Chuang–Sirbu `L̂(m)` per-link form ("lhat").
    Lhat,
}

impl QueryKind {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Ratio => "ratio",
            QueryKind::Lhat => "lhat",
        }
    }

    /// Parse the wire name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "ratio" => Some(QueryKind::Ratio),
            "lhat" => Some(QueryKind::Lhat),
            _ => None,
        }
    }
}

/// A fully resolved measurement query.
pub struct MeasureSpec {
    /// The registered topology the query runs against.
    pub topology: Arc<TopologyEntry>,
    /// Which curve family.
    pub kind: QueryKind,
    /// Base RNG seed (same meaning as `mcs measure --seed`).
    pub seed: u64,
    /// Sources per group size.
    pub sources: usize,
    /// Receiver sets per source.
    pub receiver_sets: usize,
    /// Explicit group sizes; `None` → the `mcs measure` default grid.
    pub xs: Option<Vec<usize>>,
    /// Worker threads the backend may use (server-wide setting; not
    /// part of the cache key).
    pub threads: usize,
    /// Unique id of this request within the server process — the
    /// backend uses it to give every request its own run-meta sidecar.
    pub request_id: u64,
}

/// Successful measurement: canonical body bytes. The body depends only
/// on the query (never on cache state or timing), so identical queries
/// produce byte-identical bodies regardless of how they were served.
#[derive(Debug)]
pub struct MeasureOutput {
    /// Canonical JSON response body.
    pub body: Vec<u8>,
    /// Whether the MCSO cache already held the curve.
    pub cache_hit: bool,
}

/// One failed dedup group, surfaced from the scheduler's exit-2
/// partial-failure semantics.
#[derive(Debug)]
pub struct GroupFailureInfo {
    /// Index of the group in the measurement's source plan.
    pub group_index: usize,
    /// The distinct source node the failed group measures.
    pub source: usize,
    /// Panic/abort payload text.
    pub message: String,
}

/// A failed (possibly partially completed) measurement.
#[derive(Debug)]
pub struct BackendError {
    /// Human-readable summary.
    pub message: String,
    /// Machine-readable code (`partial_failure`, `invalid_query`, …).
    pub code: &'static str,
    /// HTTP status this maps to (400 for invalid queries, 500 for
    /// execution failures).
    pub status: u16,
    /// Dedup groups that *did* complete (and were checkpointed).
    pub completed: usize,
    /// Per-group failure detail.
    pub groups: Vec<GroupFailureInfo>,
}

/// The measurement engine behind the daemon.
pub trait Backend: Send + Sync {
    /// Stable cache key for a query. Identical queries (same topology
    /// bytes, kind, seed, sources, receiver sets, grid) must map to
    /// identical keys; the key must not depend on `threads` or
    /// `request_id`.
    fn query_key(&self, spec: &MeasureSpec) -> String;

    /// Execute (or fetch) the query. `progress` receives JSONL event
    /// lines to forward to streaming clients; implementations may call
    /// it from the measuring thread.
    fn measure(
        &self,
        spec: &MeasureSpec,
        progress: &mut dyn FnMut(String),
    ) -> Result<MeasureOutput, BackendError>;
}

/// Coordinates graceful shutdown: the flag is observed by the acceptor
/// and worker pool; `trigger` also pokes the listening socket so a
/// blocking `accept` wakes up.
pub struct ShutdownSignal {
    flag: AtomicBool,
    addr: Mutex<Option<std::net::SocketAddr>>,
}

impl ShutdownSignal {
    /// A fresh, un-triggered signal.
    pub fn new() -> Self {
        Self {
            flag: AtomicBool::new(false),
            addr: Mutex::new(None),
        }
    }

    /// Record the bound address (server calls this after `bind`).
    pub fn set_addr(&self, addr: std::net::SocketAddr) {
        *self.addr.lock().expect("shutdown mutex poisoned") = Some(addr);
    }

    /// Has shutdown been requested?
    pub fn is_triggered(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Request shutdown and wake the acceptor.
    pub fn trigger(&self) {
        if self.flag.swap(true, Ordering::AcqRel) {
            return;
        }
        let addr = *self.addr.lock().expect("shutdown mutex poisoned");
        if let Some(addr) = addr {
            // A throwaway connection unblocks `accept`; the acceptor
            // re-checks the flag before handling it.
            let _ = std::net::TcpStream::connect(addr);
        }
    }
}

impl Default for ShutdownSignal {
    fn default() -> Self {
        Self::new()
    }
}

/// Shared state every worker sees.
pub struct Ctx {
    /// Topology catalogue.
    pub registry: TopologyRegistry,
    /// Single-flight table.
    pub flights: Flights,
    /// Per-client quotas.
    pub quotas: Quotas,
    /// The measurement engine.
    pub backend: Arc<dyn Backend>,
    /// Shutdown coordination.
    pub shutdown: Arc<ShutdownSignal>,
    /// Worker threads handed to the backend.
    pub threads: usize,
    /// Process start, for uptime.
    pub started: Instant,
    /// Monotonic request id source.
    pub next_request_id: AtomicU64,
}

/// What the connection handler reports back for logging.
pub struct ResponseInfo {
    /// HTTP status sent.
    pub status: u16,
    /// Total bytes written to the socket.
    pub bytes_out: u64,
    /// Whether the response streamed (chunked).
    pub streamed: bool,
}

fn count_write(out: &mut dyn Write, bytes: &[u8], total: &mut u64) -> std::io::Result<()> {
    out.write_all(bytes)?;
    *total += bytes.len() as u64;
    Ok(())
}

fn send_unary(
    out: &mut dyn Write,
    status: u16,
    body: &[u8],
    extra: &[(&str, &str)],
) -> std::io::Result<ResponseInfo> {
    let mut bytes_out = 0u64;
    let frame = unary_response(status, "application/json", body, extra);
    count_write(out, &frame, &mut bytes_out)?;
    out.flush()?;
    Ok(finish(status, bytes_out, false))
}

/// Count a fully written response and describe it.
fn finish(status: u16, bytes_out: u64, streamed: bool) -> ResponseInfo {
    if status < 400 {
        mcast_obs::counter("serve.request.ok").add(1);
    } else {
        mcast_obs::counter("serve.request.error").add(1);
    }
    mcast_obs::counter("serve.bytes_out").add(bytes_out);
    ResponseInfo {
        status,
        bytes_out,
        streamed,
    }
}

fn send_error(
    out: &mut dyn Write,
    status: u16,
    code: &str,
    message: &str,
    extra: &[(&str, Value)],
    headers: &[(&str, &str)],
) -> std::io::Result<ResponseInfo> {
    let body = error_body(status, code, message, extra);
    send_unary(out, status, body.as_bytes(), headers)
}

/// The client id a request runs under.
pub fn client_id(req: &Request) -> &str {
    req.header("x-client-id")
        .filter(|s| !s.is_empty())
        .unwrap_or("anonymous")
}

/// Route one parsed request and write the full response.
pub fn handle(ctx: &Ctx, req: &Request, out: &mut dyn Write) -> std::io::Result<ResponseInfo> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/health") => handle_health(ctx, out),
        ("GET", "/v1/stats") => handle_stats(ctx, out),
        ("GET", "/v1/topo") => handle_topo_list(ctx, out),
        ("POST", "/v1/topo") => handle_topo_upload(ctx, req, out),
        ("POST", "/v1/measure") => handle_measure(ctx, req, out),
        ("POST", "/v1/admin/shutdown") => handle_shutdown(ctx, out),
        (_, "/v1/health" | "/v1/stats" | "/v1/topo" | "/v1/measure" | "/v1/admin/shutdown") => {
            send_error(
                out,
                405,
                "method_not_allowed",
                &format!("{} is not supported on {}", req.method, req.path),
                &[],
                &[],
            )
        }
        _ => send_error(
            out,
            404,
            "not_found",
            &format!("no route for {}", req.path),
            &[],
            &[],
        ),
    }
}

fn handle_health(ctx: &Ctx, out: &mut dyn Write) -> std::io::Result<ResponseInfo> {
    let mut body = String::from("{\"ok\":true,\"uptime_ms\":");
    body.push_str(&(ctx.started.elapsed().as_millis() as u64).to_string());
    body.push_str(",\"draining\":");
    body.push_str(if ctx.shutdown.is_triggered() {
        "true"
    } else {
        "false"
    });
    body.push('}');
    send_unary(out, 200, body.as_bytes(), &[])
}

fn handle_stats(ctx: &Ctx, out: &mut dyn Write) -> std::io::Result<ResponseInfo> {
    let mut counters: Vec<(String, u64)> = mcast_obs::metrics::counters_snapshot()
        .into_iter()
        .filter(|(name, _)| name.starts_with("serve.") || name.starts_with("store.cache."))
        .collect();
    counters.sort();
    let mut body = String::from("{\"counters\":{");
    for (i, (name, v)) in counters.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        write_str(&mut body, name);
        body.push(':');
        body.push_str(&v.to_string());
    }
    body.push_str("},\"queue_depth\":");
    body.push_str(&mcast_obs::gauge("serve.queue_depth").get().to_string());
    body.push_str(",\"inflight\":");
    body.push_str(&ctx.flights.inflight_len().to_string());
    body.push_str(",\"topologies\":");
    body.push_str(&ctx.registry.len().to_string());
    body.push_str(",\"clients\":");
    body.push_str(&ctx.quotas.client_count().to_string());
    body.push('}');
    send_unary(out, 200, body.as_bytes(), &[])
}

fn handle_topo_list(ctx: &Ctx, out: &mut dyn Write) -> std::io::Result<ResponseInfo> {
    let mut body = String::from("{\"topologies\":[");
    for (i, (id, nodes, edges)) in ctx.registry.list().iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str("{\"id\":");
        write_str(&mut body, id);
        body.push_str(&format!(",\"nodes\":{nodes},\"edges\":{edges}}}"));
    }
    body.push_str("]}");
    send_unary(out, 200, body.as_bytes(), &[])
}

fn check_quota(
    ctx: &Ctx,
    req: &Request,
    out: &mut dyn Write,
) -> std::io::Result<Option<ResponseInfo>> {
    let client = client_id(req);
    match ctx.quotas.admit(client) {
        QuotaDecision::Admit => Ok(None),
        QuotaDecision::Throttle { retry_after_ms } => {
            mcast_obs::counter("serve.request.throttled").add(1);
            let retry_secs = (retry_after_ms / 1000).max(1).to_string();
            send_error(
                out,
                429,
                "quota_exhausted",
                &format!("client `{client}` is out of tokens"),
                &[
                    ("client", Value::Str(client.to_string())),
                    ("retry_after_ms", Value::U64(retry_after_ms)),
                ],
                &[("Retry-After", retry_secs.as_str())],
            )
            .map(Some)
        }
    }
}

fn handle_topo_upload(
    ctx: &Ctx,
    req: &Request,
    out: &mut dyn Write,
) -> std::io::Result<ResponseInfo> {
    if let Some(resp) = check_quota(ctx, req, out)? {
        return Ok(resp);
    }
    let format = req.query_param("format").unwrap_or("edge-list");
    match ctx.registry.register(format, &req.body) {
        Ok((entry, created)) => {
            mcast_obs::counter("serve.topo.upload").add(1);
            let mut body = String::from("{\"id\":");
            write_str(&mut body, &entry.id);
            body.push_str(&format!(
                ",\"nodes\":{},\"edges\":{},\"created\":{created}}}",
                entry.graph.node_count(),
                entry.graph.edge_count()
            ));
            send_unary(out, if created { 201 } else { 200 }, body.as_bytes(), &[])
        }
        Err(err) => send_error(out, 400, "invalid_topology", &err.message, &[], &[]),
    }
}

fn handle_shutdown(ctx: &Ctx, out: &mut dyn Write) -> std::io::Result<ResponseInfo> {
    mcast_obs::info!("serve", "shutdown requested; draining");
    let resp = send_unary(out, 200, b"{\"ok\":true,\"draining\":true}", &[])?;
    ctx.shutdown.trigger();
    Ok(resp)
}

/// Parse the measurement request body into a spec (minus request id).
fn parse_measure_spec(
    ctx: &Ctx,
    body: &[u8],
) -> Result<(MeasureSpec, bool), (u16, &'static str, String)> {
    let text = std::str::from_utf8(body)
        .map_err(|_| (400u16, "bad_request", "body is not UTF-8".to_string()))?;
    let v =
        json::parse(text).map_err(|e| (400, "bad_request", format!("body is not JSON: {e}")))?;
    let topo_id = v.get("topology").and_then(Value::as_str).ok_or((
        400,
        "bad_request",
        "missing string field `topology`".to_string(),
    ))?;
    let topology = ctx.registry.get(topo_id).ok_or((
        404,
        "unknown_topology",
        format!("topology `{topo_id}` is not registered"),
    ))?;
    let kind = match v.get("kind") {
        None => QueryKind::Ratio,
        Some(k) => {
            let name =
                k.as_str()
                    .ok_or((400, "bad_request", "`kind` must be a string".to_string()))?;
            QueryKind::parse(name).ok_or((
                400,
                "bad_request",
                format!("unknown kind `{name}` (expected `ratio` or `lhat`)"),
            ))?
        }
    };
    let uint = |field: &str, default: u64| -> Result<u64, (u16, &'static str, String)> {
        match v.get(field) {
            None => Ok(default),
            Some(x) => x.as_u64().ok_or((
                400,
                "bad_request",
                format!("`{field}` must be a non-negative integer"),
            )),
        }
    };
    let seed = uint("seed", 1)?;
    let sources = uint("sources", 12)? as usize;
    let receiver_sets = uint("receiver_sets", 12)? as usize;
    if sources == 0 || receiver_sets == 0 {
        return Err((
            400,
            "bad_request",
            "`sources` and `receiver_sets` must be positive".to_string(),
        ));
    }
    let xs = match v.get("xs") {
        None => None,
        Some(arr) => {
            let items =
                arr.as_arr()
                    .ok_or((400, "bad_request", "`xs` must be an array".to_string()))?;
            let mut xs = Vec::with_capacity(items.len());
            for item in items {
                let m = item.as_u64().filter(|&m| m >= 1).ok_or((
                    400,
                    "bad_request",
                    "`xs` entries must be integers ≥ 1".to_string(),
                ))? as usize;
                xs.push(m);
            }
            if xs.is_empty() {
                return Err((400, "bad_request", "`xs` must not be empty".to_string()));
            }
            Some(xs)
        }
    };
    let stream = v.get("stream").and_then(Value::as_bool).unwrap_or(false);
    Ok((
        MeasureSpec {
            topology,
            kind,
            seed,
            sources,
            receiver_sets,
            xs,
            threads: ctx.threads,
            request_id: 0,
        },
        stream,
    ))
}

fn backend_error_payload(err: &BackendError) -> String {
    let mut groups = Vec::with_capacity(err.groups.len());
    for g in &err.groups {
        groups.push(Value::Obj(vec![
            ("group_index".to_string(), Value::U64(g.group_index as u64)),
            ("source".to_string(), Value::U64(g.source as u64)),
            ("message".to_string(), Value::Str(g.message.clone())),
        ]));
    }
    error_body(
        err.status,
        err.code,
        &err.message,
        &[
            ("completed", Value::U64(err.completed as u64)),
            ("groups", Value::Arr(groups)),
        ],
    )
}

/// The 500 a panicking backend answers with.
fn panic_error(payload: &(dyn std::any::Any + Send)) -> BackendError {
    let text = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload");
    BackendError {
        message: format!("measurement backend panicked: {text}"),
        code: "backend_panic",
        status: 500,
        completed: 0,
        groups: Vec::new(),
    }
}

/// Run the backend, turning a panic into the 500 of [`panic_error`]:
/// a panicking backend still yields an outcome, so its flight is
/// retired and no follower of the key is stranded.
fn run_backend(
    ctx: &Ctx,
    spec: &MeasureSpec,
    progress: &mut dyn FnMut(String),
) -> Result<MeasureOutput, BackendError> {
    catch_unwind(AssertUnwindSafe(|| ctx.backend.measure(spec, progress)))
        .unwrap_or_else(|payload| Err(panic_error(payload.as_ref())))
}

/// Run the backend on a scoped thread and hand each of its progress
/// lines to `emit` as it arrives, plus one `serve.progress` heartbeat
/// per elapsed second. An `emit` error is returned once the backend
/// has finished; its result is then dropped.
fn run_streamed(
    ctx: &Ctx,
    spec: &MeasureSpec,
    mut emit: impl FnMut(String) -> std::io::Result<()>,
) -> std::io::Result<Result<MeasureOutput, BackendError>> {
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let worker = scope.spawn(move || {
            run_backend(ctx, spec, &mut |line| {
                // The receiver outlives the scope, so this cannot fail.
                let _ = tx.send(line);
            })
        });
        let started = Instant::now();
        let mut next_beat = started + Duration::from_secs(1);
        loop {
            match rx.recv_timeout(next_beat.saturating_duration_since(Instant::now())) {
                Ok(line) => emit(line)?,
                Err(RecvTimeoutError::Timeout) => {}
                // The worker dropped its sender: the backend returned.
                Err(RecvTimeoutError::Disconnected) => break,
            }
            if Instant::now() >= next_beat {
                emit(heartbeat(started))?;
                next_beat = Instant::now() + Duration::from_secs(1);
            }
        }
        Ok(worker.join().expect("run_backend catches backend panics"))
    })
}

/// One `serve.progress` line: time since `started` and the serve
/// counters a client can watch while the leader measures.
fn heartbeat(started: Instant) -> String {
    let mut line = String::from("{\"ev\":\"serve.progress\",\"elapsed_ms\":");
    line.push_str(&(started.elapsed().as_millis() as u64).to_string());
    line.push_str(",\"queue_depth\":");
    line.push_str(&mcast_obs::gauge("serve.queue_depth").get().to_string());
    line.push_str(",\"cache_hit\":");
    line.push_str(&mcast_obs::counter("serve.cache.hit").get().to_string());
    line.push_str(",\"cache_miss\":");
    line.push_str(&mcast_obs::counter("serve.cache.miss").get().to_string());
    line.push('}');
    line
}

/// Write the chunked head and the `serve.join` line of a streamed
/// answer; only the leader's join line names the key.
fn stream_head(
    out: &mut dyn Write,
    status: u16,
    source: &str,
    key: Option<&str>,
    bytes_out: &mut u64,
) -> std::io::Result<()> {
    count_write(out, &chunked_head(status, "application/x-jsonl"), bytes_out)?;
    let mut line = String::from("{\"ev\":\"serve.join\",\"source\":");
    write_str(&mut line, source);
    if let Some(key) = key {
        line.push_str(",\"key\":");
        write_str(&mut line, key);
    }
    line.push_str("}\n");
    count_write(out, &chunk(line.as_bytes()), bytes_out)?;
    out.flush()
}

/// Execute the query as the flight's leader and retire the flight. A
/// unary leader calls the backend on the request thread; a streamed
/// one forwards its progress lines as chunks while it runs.
fn lead(
    ctx: &Ctx,
    spec: &MeasureSpec,
    key: &str,
    stream: bool,
    out: &mut dyn Write,
    bytes_out: &mut u64,
) -> std::io::Result<Arc<Outcome>> {
    let result = if stream {
        // The stream must start before the outcome is known, so a failed
        // measurement is reported in-band: a final `error` JSONL line
        // inside a 200 chunked response.
        stream_head(out, 200, "lead", Some(key), bytes_out)?;
        run_streamed(ctx, spec, |mut line| {
            line.push('\n');
            count_write(out, &chunk(line.as_bytes()), bytes_out)?;
            out.flush()
        })?
    } else {
        run_backend(ctx, spec, &mut |_line| {})
    };
    let cache_hit = result.as_ref().is_ok_and(|output| output.cache_hit);
    if cache_hit {
        mcast_obs::counter("serve.cache.hit").add(1);
    } else {
        mcast_obs::counter("serve.cache.miss").add(1);
        mcast_obs::counter("serve.exec").add(1);
    }
    let outcome = Arc::new(match result {
        Ok(output) => Outcome {
            body: Arc::new(output.body),
            is_error: false,
            cache_hit,
        },
        Err(err) => {
            mcast_obs::warn!(
                "serve",
                "measurement {key} failed for request {}: {}",
                spec.request_id,
                err.message
            );
            Outcome {
                body: Arc::new(backend_error_payload(&err).into_bytes()),
                is_error: true,
                cache_hit: false,
            }
        }
    });
    ctx.flights.complete(key, Arc::clone(&outcome));
    Ok(outcome)
}

fn handle_measure(ctx: &Ctx, req: &Request, out: &mut dyn Write) -> std::io::Result<ResponseInfo> {
    if let Some(resp) = check_quota(ctx, req, out)? {
        return Ok(resp);
    }
    let (mut spec, stream) = match parse_measure_spec(ctx, &req.body) {
        Ok(parsed) => parsed,
        Err((status, code, message)) => {
            return send_error(out, status, code, &message, &[], &[]);
        }
    };
    spec.request_id = ctx.next_request_id.fetch_add(1, Ordering::Relaxed);
    let key = ctx.backend.query_key(&spec);
    let _span = mcast_obs::span_at(format!("serve.measure.{}", spec.kind.name()));

    // Single-flight: at most one thread executes a given key at a time.
    let mut bytes_out = 0u64;
    let (outcome, source) = match ctx.flights.join(&key) {
        FlightRole::Memoized(outcome) => (outcome, "memo"),
        FlightRole::Follower(outcome) => (outcome, "flight"),
        FlightRole::Leader => {
            mcast_obs::gauge("serve.inflight").add(1);
            let result = lead(ctx, &spec, &key, stream, out, &mut bytes_out);
            mcast_obs::gauge("serve.inflight").add(-1);
            match result {
                Ok(outcome) => (outcome, "lead"),
                Err(io_err) => {
                    // The connection died mid-execution; retire the
                    // flight with an error outcome so followers are
                    // not stranded, then propagate the IO error.
                    let body = error_body(
                        500,
                        "io_error",
                        &format!("leader connection failed: {io_err}"),
                        &[],
                    );
                    ctx.flights.complete(
                        &key,
                        Arc::new(Outcome {
                            body: Arc::new(body.into_bytes()),
                            is_error: true,
                            cache_hit: false,
                        }),
                    );
                    return Err(io_err);
                }
            }
        }
    };

    if source != "lead" {
        mcast_obs::counter("serve.cache.hit").add(1);
    }
    let status = if outcome.is_error { 500 } else { 200 };
    if !stream {
        let cache_header = if outcome.is_error {
            "error"
        } else if source == "lead" && !outcome.cache_hit {
            "miss"
        } else {
            "hit"
        };
        return send_unary(out, status, &outcome.body, &[("X-Cache", cache_header)]);
    }
    if source != "lead" {
        stream_head(out, status, source, None, &mut bytes_out)?;
    }
    let mut final_line = Vec::with_capacity(outcome.body.len() + 1);
    final_line.extend_from_slice(&outcome.body);
    final_line.push(b'\n');
    count_write(out, &chunk(&final_line), &mut bytes_out)?;
    count_write(out, CHUNK_END, &mut bytes_out)?;
    out.flush()?;
    Ok(finish(status, bytes_out, true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_response;
    use crate::quota::QuotaConfig;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Condvar;
    use std::thread::ThreadId;

    /// Answers every query with a fixed body, after panicking on the
    /// first `panics` calls.
    struct PanicsFirst {
        panics: AtomicUsize,
    }

    impl Backend for PanicsFirst {
        fn query_key(&self, spec: &MeasureSpec) -> String {
            format!("{}/{}", spec.topology.id, spec.seed)
        }

        fn measure(
            &self,
            _spec: &MeasureSpec,
            _progress: &mut dyn FnMut(String),
        ) -> Result<MeasureOutput, BackendError> {
            let left = self.panics.load(Ordering::SeqCst);
            if left > 0 {
                self.panics.store(left - 1, Ordering::SeqCst);
                panic!("injected backend panic");
            }
            Ok(MeasureOutput {
                body: b"{\"ok\":true}".to_vec(),
                cache_hit: false,
            })
        }
    }

    fn test_ctx(backend: Arc<dyn Backend>) -> Ctx {
        Ctx {
            registry: TopologyRegistry::new(None).unwrap(),
            flights: Flights::new(8),
            quotas: Quotas::new(QuotaConfig::default()),
            backend,
            shutdown: Arc::new(ShutdownSignal::new()),
            threads: 1,
            started: Instant::now(),
            next_request_id: AtomicU64::new(1),
        }
    }

    fn measure_request(ctx: &Ctx, stream: bool) -> Request {
        let (topo, _) = ctx
            .registry
            .register("edge-list", b"0 1\n1 2\n2 0\n")
            .expect("a triangle registers");
        Request {
            method: "POST".into(),
            path: "/v1/measure".into(),
            query: Vec::new(),
            headers: Vec::new(),
            body: format!("{{\"topology\":\"{}\",\"stream\":{stream}}}", topo.id).into_bytes(),
        }
    }

    #[test]
    fn a_panicking_backend_answers_500_and_retires_its_flight() {
        for stream in [false, true] {
            let ctx = test_ctx(Arc::new(PanicsFirst {
                panics: AtomicUsize::new(1),
            }));
            let req = measure_request(&ctx, stream);

            let mut out = Vec::new();
            let info = handle(&ctx, &req, &mut out).expect("the response is written");
            assert_eq!(info.status, 500, "stream {stream}");
            let text = String::from_utf8_lossy(&out);
            assert!(text.contains("backend_panic"), "stream {stream}: {text}");
            assert_eq!(ctx.flights.inflight_len(), 0, "stream {stream}");

            // The failure is not memoized: the same query runs again.
            let mut out = Vec::new();
            let info = handle(&ctx, &req, &mut out).expect("the response is written");
            assert_eq!(info.status, 200, "stream {stream}");
            assert!(String::from_utf8_lossy(&out).contains("{\"ok\":true}"));
            assert_eq!(ctx.flights.inflight_len(), 0, "stream {stream}");
        }
    }

    /// Set once a streamed response has carried a `serve.progress`
    /// heartbeat.
    #[derive(Default)]
    struct HeartbeatSeen {
        seen: Mutex<bool>,
        cond: Condvar,
    }

    /// Records the thread it runs on, emits progress line `a`, then —
    /// when given a [`HeartbeatSeen`] — stays silent until the response
    /// has carried a heartbeat, emits `b` and answers a fixed body.
    #[derive(Default)]
    struct Scripted {
        ran_on: Mutex<Option<ThreadId>>,
        heartbeat: Option<Arc<HeartbeatSeen>>,
    }

    impl Backend for Scripted {
        fn query_key(&self, spec: &MeasureSpec) -> String {
            format!("{}/{}", spec.topology.id, spec.seed)
        }

        fn measure(
            &self,
            _spec: &MeasureSpec,
            progress: &mut dyn FnMut(String),
        ) -> Result<MeasureOutput, BackendError> {
            *self.ran_on.lock().unwrap() = Some(std::thread::current().id());
            progress("{\"ev\":\"a\"}".to_string());
            if let Some(hb) = &self.heartbeat {
                let seen = hb.seen.lock().unwrap();
                let (seen, _) = hb
                    .cond
                    .wait_timeout_while(seen, Duration::from_secs(30), |seen| !*seen)
                    .unwrap();
                assert!(*seen, "no heartbeat within 30 s of silence");
            }
            progress("{\"ev\":\"b\"}".to_string());
            Ok(MeasureOutput {
                body: b"{\"ok\":true}".to_vec(),
                cache_hit: false,
            })
        }
    }

    /// Keeps what is written and raises `heartbeat` on the first
    /// `serve.progress` line.
    struct Recorder {
        bytes: Vec<u8>,
        heartbeat: Arc<HeartbeatSeen>,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.bytes.extend_from_slice(buf);
            if String::from_utf8_lossy(buf).contains("serve.progress") {
                *self.heartbeat.seen.lock().unwrap() = true;
                self.heartbeat.cond.notify_all();
            }
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Accepts the first `ok_writes` writes, then fails every one.
    struct FailsAfter {
        ok_writes: usize,
    }

    impl Write for FailsAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.ok_writes == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "client went away",
                ));
            }
            self.ok_writes -= 1;
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_unary_leader_runs_the_backend_on_the_request_thread() {
        let backend = Arc::new(Scripted::default());
        let ctx = test_ctx(backend.clone());
        let mut out = Vec::new();
        let info = handle(&ctx, &measure_request(&ctx, false), &mut out).unwrap();
        assert_eq!(info.status, 200);
        assert_eq!(
            *backend.ran_on.lock().unwrap(),
            Some(std::thread::current().id())
        );
    }

    #[test]
    fn a_streamed_leader_forwards_progress_and_heartbeats_in_order() {
        let heartbeat = Arc::new(HeartbeatSeen::default());
        let ctx = test_ctx(Arc::new(Scripted {
            heartbeat: Some(heartbeat.clone()),
            ..Scripted::default()
        }));
        let mut out = Recorder {
            bytes: Vec::new(),
            heartbeat,
        };
        let info = handle(&ctx, &measure_request(&ctx, true), &mut out).unwrap();
        assert_eq!(info.status, 200);
        let resp = parse_response(&out.bytes).expect("a well-formed chunked answer");
        let lines = resp.jsonl_lines();
        let (join, rest) = lines.split_first().unwrap();
        let (body, events) = rest.split_last().unwrap();
        let join = json::parse(join).unwrap();
        assert_eq!(join.get("ev").and_then(Value::as_str), Some("serve.join"));
        assert_eq!(join.get("source").and_then(Value::as_str), Some("lead"));
        assert!(join.get("key").and_then(Value::as_str).is_some());
        let events: Vec<String> = events
            .iter()
            .map(|line| {
                let line = json::parse(line).unwrap();
                line.get("ev").and_then(Value::as_str).unwrap().to_string()
            })
            .collect();
        let (first, beats) = events.split_first().unwrap();
        let (last, beats) = beats.split_last().unwrap();
        assert_eq!((first.as_str(), last.as_str()), ("a", "b"), "{lines:?}");
        assert!(!beats.is_empty(), "{lines:?}");
        assert!(beats.iter().all(|ev| ev == "serve.progress"), "{lines:?}");
        assert_eq!(*body, "{\"ok\":true}");
    }

    #[test]
    fn a_streamed_leader_whose_client_fails_retires_its_flight() {
        // One write is the chunked head: the join line fails. Two let
        // the join line through: forwarding progress line `a` fails.
        for ok_writes in [1, 2] {
            let ctx = test_ctx(Arc::new(Scripted::default()));
            let req = measure_request(&ctx, true);
            let err = handle(&ctx, &req, &mut FailsAfter { ok_writes });
            assert!(err.is_err(), "ok_writes {ok_writes}");
            assert_eq!(ctx.flights.inflight_len(), 0, "ok_writes {ok_writes}");

            let mut out = Vec::new();
            let info = handle(&ctx, &req, &mut out).expect("the response is written");
            assert_eq!(info.status, 200, "ok_writes {ok_writes}");
            assert!(String::from_utf8_lossy(&out).contains("{\"ok\":true}"));
        }
    }
}
