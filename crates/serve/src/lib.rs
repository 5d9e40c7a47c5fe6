//! `vpir serve`: a dependency-free HTTP/1.1 simulation service.
//!
//! The service wraps the simulator behind a small JSON API with a
//! content-addressed result cache — the service-level analogue of the
//! paper's reuse buffer. A request names a program (a workloads
//! benchmark or inline assembly) and a configuration label; the FNV-1a
//! hash of the serialized program image plus the canonical parameters
//! addresses a cache of fully rendered response bodies, so a repeated
//! request is answered without re-simulating and the hit body is
//! byte-identical to the miss that populated it. Like the paper's reuse
//! buffer, the cache is *managed*: a bounded in-memory LRU tier in
//! front of an optional crash-safe disk tier (`--cache-dir`), so a
//! restart answers prior hits byte-identically with `X-Cache:
//! hit-disk` and a corrupted entry degrades to a quarantined miss.
//!
//! Work the cache cannot answer goes through a bounded job queue served
//! by a fixed worker pool, with graduated load shedding on queue-depth
//! watermarks: healthy → shedding (expensive `/v1/matrix` misses are
//! refused with `503 + Retry-After` while cached hits and `/healthz`
//! still answer) → saturated (every miss is refused). Connections are
//! keep-alive with an idle timeout, a per-connection request cap, and
//! per-read deadlines — a stalled client gets `408` and its worker
//! back; a simulation that outruns `--request-deadline-ms` degrades to
//! a structured `504` whose job still completes and populates the
//! cache. Shutdown (via `POST /v1/shutdown`; the workspace forbids
//! `unsafe`, so there is no signal handler) drains queued work before
//! the process exits.
//!
//! Endpoints:
//!
//! - `POST /v1/run` — simulate one program under one configuration.
//! - `POST /v1/matrix` — run the fault-isolated benchmark matrix for
//!   one benchmark (wedged or panicking cells degrade to failure rows).
//! - `POST /v1/analyze` — static analysis of inline assembly (CFG,
//!   loops, constant propagation, lints L1–L4), content-addressed by
//!   the source text.
//! - `GET /healthz` — liveness, draining state, shed state.
//! - `GET /metrics` — Prometheus text exposition with latency
//!   histograms per endpoint.
//! - `POST /v1/shutdown` — graceful drain-and-exit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod cache;
pub mod histo;
pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod pool;
pub mod store;

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vpir_bench::matrix::{
    build_programs, config_for_label, config_labels, run_matrix_outcome, InjectFault,
    MatrixConfig, MatrixOutcome, RunOptions,
};
use vpir_bench::state::stats_to_json;
use vpir_core::{RunLimits, SimError, Simulator, TraceOutcome};
use vpir_isa::{asm::assemble, image, Program};
use vpir_isa_analyze::analyze_program;
use vpir_jsonlite::{parse_json, JsonObj, JsonValue};
use vpir_workloads::{Bench, Scale};

pub use cache::{fnv1a64, HitTier, ResultCache};
pub use histo::Histogram;
pub use http::{ConnReader, HttpError, Request};
pub use metrics::{Metrics, ShedState};
pub use pool::{JobQueue, PushError};
pub use store::{DiskStore, StoreFault};

use http::write_response;
use pool::spawn_workers;

/// Concurrent connection cap; connections beyond it get an immediate
/// 503 without occupying a handler thread.
const MAX_CONNECTIONS: usize = 64;
/// Upper bound on the workload scale parameter.
const MAX_SCALE: u64 = 1024;
/// Upper bound on per-request cycle and instruction caps.
const MAX_CYCLES_CAP: u64 = 1_000_000_000;
/// Per-connection write timeout (a client that stops reading its
/// response is dropped, not waited on).
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

const JSON: &str = "application/json";
const METRICS_TEXT: &str = "text/plain; version=0.0.4";

// ----------------------------------------------------------------
// Configuration and server lifecycle.
// ----------------------------------------------------------------

/// Tunables for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` asks the OS for an ephemeral port.
    pub addr: String,
    /// Worker pool size. The CLI enforces at least one; the API accepts
    /// zero so tests can freeze the queue and exercise backpressure
    /// deterministically.
    pub workers: usize,
    /// Bounded job queue capacity; a full queue answers 503 and the
    /// shed watermarks are fractions of this value.
    pub queue_capacity: usize,
    /// In-memory cache tier bound, in entries.
    pub cache_capacity: usize,
    /// In-memory cache tier bound, in body bytes.
    pub cache_mem_bytes: u64,
    /// Directory for the durable disk cache tier; `None` disables it.
    pub cache_dir: Option<PathBuf>,
    /// Disk cache tier bound, in file bytes (headers included).
    pub cache_disk_bytes: u64,
    /// Largest accepted request body, in bytes.
    pub max_body_bytes: usize,
    /// Cycle cap applied when a request omits `max_cycles`.
    pub default_max_cycles: u64,
    /// Largest accepted `trace` record count.
    pub max_trace: u64,
    /// How long a handler waits for its simulation before degrading to
    /// a structured 504 (the job still completes and fills the cache).
    pub request_deadline: Duration,
    /// How long an idle keep-alive connection is held open.
    pub idle_timeout: Duration,
    /// Per-read deadline once a request has started arriving; a client
    /// that stalls longer mid-request gets 408.
    pub read_deadline: Duration,
    /// Requests served per connection before it is closed.
    pub max_requests_per_conn: usize,
    /// Deterministic disk-store fault injection for tests and the CI
    /// chaos step.
    pub inject_fault: Option<StoreFault>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_capacity: 32,
            cache_capacity: 1024,
            cache_mem_bytes: 64 << 20,
            cache_dir: None,
            cache_disk_bytes: 256 << 20,
            max_body_bytes: 1 << 20,
            default_max_cycles: 2_000_000,
            max_trace: 4096,
            request_deadline: Duration::from_secs(120),
            idle_timeout: Duration::from_secs(5),
            read_deadline: Duration::from_secs(2),
            max_requests_per_conn: 100,
            inject_fault: None,
        }
    }
}

/// A benchmark program prepared once and shared across requests: the
/// assembled [`Program`] plus its serialized image (the bytes the
/// cache key is computed over).
struct Prepared {
    program: Program,
    image: Vec<u8>,
}

/// Shared service state: configuration, metrics, the result cache, the
/// job queue, and the memoized benchmark programs.
struct State {
    cfg: ServeConfig,
    addr: SocketAddr,
    metrics: Arc<Metrics>,
    cache: Arc<ResultCache>,
    queue: Arc<JobQueue>,
    programs: Mutex<BTreeMap<(String, u32), Arc<Prepared>>>,
    stop: AtomicBool,
    active_connections: AtomicUsize,
}

impl State {
    fn new(cfg: ServeConfig, addr: SocketAddr) -> io::Result<State> {
        let store = match &cfg.cache_dir {
            None => None,
            Some(dir) => Some(DiskStore::open(dir, cfg.cache_disk_bytes, cfg.inject_fault)?),
        };
        let cache = Arc::new(ResultCache::new(cfg.cache_capacity, cfg.cache_mem_bytes, store));
        let queue = Arc::new(JobQueue::new(cfg.queue_capacity));
        Ok(State {
            cfg,
            addr,
            metrics: Arc::new(Metrics::new()),
            cache,
            queue,
            programs: Mutex::new(BTreeMap::new()),
            stop: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
        })
    }

    /// Returns the memoized (program, image) pair for a benchmark at a
    /// scale, building it on first use.
    fn prepared(&self, bench: Bench, scale: u32) -> Result<Arc<Prepared>, HttpError> {
        let key = (bench.name().to_string(), scale);
        let mut map = self.programs.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(p) = map.get(&key) {
            return Ok(Arc::clone(p));
        }
        let program = bench.program(Scale::of(scale));
        let image = image::write(&program)
            .map_err(|e| HttpError::new(500, format!("image encode failed: {e}")))?;
        let prepared = Arc::new(Prepared { program, image });
        map.insert(key, Arc::clone(&prepared));
        Ok(prepared)
    }

    /// Computes the current shed state from the queue depth and
    /// refreshes the exported gauge.
    fn shed(&self) -> ShedState {
        let shed = ShedState::for_depth(self.queue.depth(), self.cfg.queue_capacity.max(1));
        self.metrics.shed_state.store(shed as u64, Ordering::Relaxed);
        shed
    }

    /// Copies the cache tiers' internal counters into the exported
    /// metrics gauges.
    fn sync_cache_metrics(&self) {
        sync_cache_metrics(&self.metrics, &self.cache);
    }
}

fn sync_cache_metrics(metrics: &Metrics, cache: &ResultCache) {
    metrics.cache_entries.store(cache.len() as u64, Ordering::Relaxed);
    metrics.cache_mem_bytes.store(cache.mem_bytes(), Ordering::Relaxed);
    metrics.cache_entries_evicted.store(cache.mem_evicted(), Ordering::Relaxed);
    if let Some(stats) = cache.store_stats() {
        metrics.store_entries.store(stats.entries, Ordering::Relaxed);
        metrics.store_bytes.store(stats.bytes, Ordering::Relaxed);
        metrics.store_evictions.store(stats.evictions, Ordering::Relaxed);
        metrics.store_quarantined.store(stats.quarantined, Ordering::Relaxed);
    }
}

/// A running service instance.
pub struct Server {
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    state: Arc<State>,
}

impl Server {
    /// Binds, opens the disk cache tier (if configured), spawns the
    /// worker pool and the accept thread, and returns immediately. The
    /// service runs until `POST /v1/shutdown` (or [`Server::shutdown`])
    /// is observed.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(State::new(cfg, addr)?);
        state.sync_cache_metrics();
        let workers = spawn_workers(
            state.cfg.workers,
            Arc::clone(&state.queue),
            Arc::clone(&state.metrics),
        );
        let accept_state = Arc::clone(&state);
        let accept = std::thread::Builder::new()
            .name("vpir-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_state))?;
        Ok(Server { addr, accept: Some(accept), workers, state })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests graceful shutdown, exactly as `POST /v1/shutdown` does:
    /// the queue stops accepting work and the accept loop is woken.
    pub fn shutdown(&self) {
        begin_shutdown(&self.state);
    }

    /// Blocks until the service has fully shut down: accept thread
    /// exited, queued jobs drained, workers joined, and in-flight
    /// connections finished.
    pub fn join(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        self.state.queue.drain();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // With the workers gone, any job still queued (possible only
        // with a zero-worker pool) will never run; dropping it hangs up
        // its handler's result channel so the connection can finish.
        self.state.queue.clear();
        let mut waited = 0u32;
        while self.state.active_connections.load(Ordering::SeqCst) > 0 && waited < 500 {
            std::thread::sleep(Duration::from_millis(10));
            waited += 1;
        }
    }
}

fn begin_shutdown(state: &State) {
    state.queue.drain();
    if !state.stop.swap(true, Ordering::SeqCst) {
        // The accept loop is blocked in `accept`; a throwaway
        // connection wakes it so it can observe `stop`.
        let _ = TcpStream::connect(state.addr);
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<State>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if state.stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if state.stop.load(Ordering::SeqCst) {
            break;
        }
        state.metrics.connections_total.fetch_add(1, Ordering::Relaxed);
        if state.active_connections.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
            let mut stream = stream;
            state.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
            state.metrics.observe_status(503);
            let body = error_body(503, "connection limit reached");
            let _ = write_response(
                &mut stream,
                503,
                JSON,
                &[("Retry-After", "1".to_string())],
                body.as_bytes(),
                true,
            );
            continue;
        }
        state.active_connections.fetch_add(1, Ordering::SeqCst);
        let conn_state = Arc::clone(state);
        let spawned = std::thread::Builder::new()
            .name("vpir-serve-conn".to_string())
            .spawn(move || {
                handle_connection(&stream, &conn_state);
                conn_state.active_connections.fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            state.active_connections.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

// ----------------------------------------------------------------
// Connection handling and routing.
// ----------------------------------------------------------------

/// A fully rendered response, ready for the wire.
#[derive(Debug)]
struct Response {
    status: u16,
    content_type: &'static str,
    extra: Vec<(&'static str, String)>,
    body: Arc<String>,
    /// When set, the handler initiates graceful shutdown after the
    /// response has been written (so the client sees an answer).
    shutdown: bool,
}

impl Response {
    fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: JSON,
            extra: Vec::new(),
            body: Arc::new(body),
            shutdown: false,
        }
    }

    fn from_error(err: &HttpError) -> Response {
        let mut resp = Response::json(err.status, error_body(err.status, &err.message));
        if err.status == 503 {
            resp.extra.push(("Retry-After", "1".to_string()));
        }
        resp
    }
}

fn error_body(status: u16, message: &str) -> String {
    JsonObj::new().u("status", u64::from(status)).s("error", message).finish()
}

fn elapsed_micros(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Serves one keep-alive connection: requests are read and answered in
/// order until the client closes, stalls, errs, or exhausts the
/// per-connection request cap.
///
/// Two timers govern the read side. While the connection is *idle*
/// (nothing buffered, nothing mid-flight) the socket waits up to
/// `idle_timeout` for the first byte of the next request and a timeout
/// is a quiet close. Once bytes start flowing, every subsequent read
/// must land within `read_deadline`; a longer stall is a slowloris and
/// is answered `408` before closing — the handler thread is never
/// parked on a slow client beyond one deadline.
fn handle_connection(stream: &TcpStream, state: &Arc<State>) {
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut reader = ConnReader::new(stream);
    let mut out = stream;
    let mut served = 0usize;
    loop {
        if !reader.has_buffered() {
            // Idle phase: wait (bounded) for the next request to begin.
            let _ = stream.set_read_timeout(Some(state.cfg.idle_timeout));
            let mut probe = [0u8; 1];
            match stream.peek(&mut probe) {
                Ok(0) => return,  // clean EOF between requests
                Ok(_) => {}
                Err(_) => return, // idle timeout or socket error
            }
        }
        // Read phase: the request has started; every read is deadlined.
        let _ = stream.set_read_timeout(Some(state.cfg.read_deadline));
        let started = Instant::now();
        let request = match reader.next_request(state.cfg.max_body_bytes) {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(err) => {
                state.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
                if err.status == 408 {
                    state.metrics.slow_client_timeouts.fetch_add(1, Ordering::Relaxed);
                }
                state.metrics.observe_status(err.status);
                let resp = Response::from_error(&err);
                let _ = write_response(
                    &mut out,
                    resp.status,
                    resp.content_type,
                    &resp.extra,
                    resp.body.as_bytes(),
                    true,
                );
                state.metrics.latency_other.record(elapsed_micros(started));
                return; // a protocol error always closes
            }
        };
        state.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
        served += 1;
        let response = match route(state, &request) {
            Ok(response) => response,
            Err(err) => Response::from_error(&err),
        };
        let close = !request.keep_alive
            || served >= state.cfg.max_requests_per_conn
            || response.status >= 400
            || response.shutdown;
        state.metrics.observe_status(response.status);
        let wrote = write_response(
            &mut out,
            response.status,
            response.content_type,
            &response.extra,
            response.body.as_bytes(),
            close,
        );
        state.metrics.latency_for(&request.path).record(elapsed_micros(started));
        if response.shutdown {
            begin_shutdown(state);
        }
        if close || wrote.is_err() {
            return;
        }
    }
}

fn route(state: &Arc<State>, request: &Request) -> Result<Response, HttpError> {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Ok(Response::json(
            200,
            JsonObj::new()
                .b("ok", true)
                .b("draining", state.queue.is_draining())
                .s("state", state.shed().name())
                .finish(),
        )),
        ("GET", "/metrics") => {
            state.shed();
            state.sync_cache_metrics();
            Ok(Response {
                status: 200,
                content_type: METRICS_TEXT,
                extra: Vec::new(),
                body: Arc::new(state.metrics.render()),
                shutdown: false,
            })
        }
        ("POST", "/v1/run") => handle_run(state, &request.body),
        ("POST", "/v1/matrix") => handle_matrix(state, &request.body),
        ("POST", "/v1/analyze") => handle_analyze(state, &request.body),
        ("POST", "/v1/shutdown") => Ok(Response {
            status: 200,
            content_type: JSON,
            extra: Vec::new(),
            body: Arc::new(JsonObj::new().b("ok", true).b("draining", true).finish()),
            shutdown: true,
        }),
        (_, "/healthz" | "/metrics") => Ok(method_not_allowed("GET", &request.method)),
        (_, "/v1/run" | "/v1/matrix" | "/v1/analyze" | "/v1/shutdown") => {
            Ok(method_not_allowed("POST", &request.method))
        }
        _ => Err(HttpError::new(404, format!("no route for `{}`", request.path))),
    }
}

fn method_not_allowed(allow: &'static str, method: &str) -> Response {
    let mut resp = Response::json(
        405,
        error_body(405, &format!("method {method} not allowed (use {allow})")),
    );
    resp.extra.push(("Allow", allow.to_string()));
    resp
}

// ----------------------------------------------------------------
// Request body parsing helpers.
// ----------------------------------------------------------------

fn parse_body(body: &[u8]) -> Result<JsonValue, HttpError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| HttpError::new(400, "request body is not UTF-8"))?;
    parse_json(text).map_err(|e| HttpError::new(400, format!("bad JSON: {e}")))
}

fn check_keys(value: &JsonValue, allowed: &[&str]) -> Result<(), HttpError> {
    let JsonValue::Obj(pairs) = value else {
        return Err(HttpError::new(400, "request body must be a JSON object"));
    };
    for (key, _) in pairs {
        if !allowed.contains(&key.as_str()) {
            return Err(HttpError::new(
                400,
                format!("unknown key `{key}` (allowed: {})", allowed.join(", ")),
            ));
        }
    }
    Ok(())
}

fn get_u64(value: &JsonValue, key: &str, default: u64) -> Result<u64, HttpError> {
    match value.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| HttpError::new(400, format!("`{key}` must be an unsigned integer"))),
    }
}

fn get_str<'a>(value: &'a JsonValue, key: &str) -> Result<Option<&'a str>, HttpError> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| HttpError::new(400, format!("`{key}` must be a string"))),
    }
}

fn bounded(name: &str, value: u64, max: u64) -> Result<u64, HttpError> {
    if value == 0 || value > max {
        return Err(HttpError::new(400, format!("`{name}` must be in 1..={max}, got {value}")));
    }
    Ok(value)
}

/// The configuration labels `/v1/run` accepts: every matrix label that
/// maps to a single machine configuration (`limit` is a study over
/// instruction windows, not a machine, so it is excluded).
fn runnable_labels() -> Vec<String> {
    config_labels().into_iter().filter(|l| config_for_label(l).is_some()).collect()
}

fn parse_bench(name: &str) -> Result<Bench, HttpError> {
    Bench::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Bench::ALL.iter().map(|b| b.name()).collect();
        HttpError::new(400, format!("unknown bench `{name}` (valid: {})", names.join(", ")))
    })
}

// ----------------------------------------------------------------
// POST /v1/run
// ----------------------------------------------------------------

fn handle_run(state: &Arc<State>, body: &[u8]) -> Result<Response, HttpError> {
    let value = parse_body(body)?;
    check_keys(&value, &["bench", "asm", "config", "scale", "max_cycles", "trace"])?;

    let label = get_str(&value, "config")?.unwrap_or("base").to_string();
    let Some(base_config) = config_for_label(&label) else {
        return Err(HttpError::new(
            400,
            format!("unknown config `{label}` (valid: {})", runnable_labels().join(", ")),
        ));
    };
    let scale = bounded("scale", get_u64(&value, "scale", 2)?, MAX_SCALE)?;
    let max_cycles = bounded(
        "max_cycles",
        get_u64(&value, "max_cycles", state.cfg.default_max_cycles)?,
        MAX_CYCLES_CAP,
    )?;
    let trace = get_u64(&value, "trace", 0)?;
    if trace > state.cfg.max_trace {
        return Err(HttpError::new(
            400,
            format!("`trace` must be at most {}, got {trace}", state.cfg.max_trace),
        ));
    }

    let (program_name, prepared) = match (get_str(&value, "bench")?, get_str(&value, "asm")?) {
        (Some(_), Some(_)) | (None, None) => {
            return Err(HttpError::new(400, "specify exactly one of `bench` and `asm`"))
        }
        (Some(name), None) => {
            let bench = parse_bench(name)?;
            (bench.name().to_string(), state.prepared(bench, scale as u32)?)
        }
        (None, Some(source)) => {
            let program =
                assemble(source).map_err(|e| HttpError::new(400, format!("asm error: {e}")))?;
            let image = image::write(&program)
                .map_err(|e| HttpError::new(500, format!("image encode failed: {e}")))?;
            ("inline".to_string(), Arc::new(Prepared { program, image }))
        }
    };

    let key = fnv1a64(&[
        b"run-v1",
        &prepared.image,
        label.as_bytes(),
        scale.to_string().as_bytes(),
        max_cycles.to_string().as_bytes(),
        trace.to_string().as_bytes(),
    ]);

    let metrics = Arc::clone(&state.metrics);
    let job = Box::new(move || -> String {
        let rendered = catch_unwind(AssertUnwindSafe(|| {
            let mut sim = Simulator::new(&prepared.program, base_config.clone());
            if trace > 0 {
                sim.enable_trace(trace as usize);
            }
            let err = sim.run_checked(RunLimits::cycles(max_cycles)).map(|_| ()).err();
            metrics.sim_cycles_total.fetch_add(sim.stats().cycles, Ordering::Relaxed);
            match &err {
                None => metrics.runs_completed.fetch_add(1, Ordering::Relaxed),
                Some(_) => metrics.runs_sim_error.fetch_add(1, Ordering::Relaxed),
            };
            render_run_body(&program_name, &label, scale, max_cycles, &sim, err.as_ref())
        }));
        match rendered {
            Ok(body) => body,
            Err(panic) => {
                metrics.runs_panicked.fetch_add(1, Ordering::Relaxed);
                run_panic_body(&panic_message(panic.as_ref()))
            }
        }
    });
    respond_cached_or_enqueue(state, key, false, job)
}

fn render_run_body(
    program_name: &str,
    label: &str,
    scale: u64,
    max_cycles: u64,
    sim: &Simulator,
    err: Option<&SimError>,
) -> String {
    let stats_json = match err {
        None => stats_to_json(sim.stats()),
        Some(_) => "null".to_string(),
    };
    let error_json = match err {
        None => "null".to_string(),
        Some(e) => JsonObj::new().s("kind", e.kind()).s("message", &e.to_string()).finish(),
    };
    let trace_json = match sim.trace() {
        None => "[]".to_string(),
        Some(log) => {
            let parts: Vec<String> = log
                .records()
                .iter()
                .map(|r| {
                    JsonObj::new()
                        .u("seq", r.seq)
                        .u("pc", r.pc)
                        .s("outcome", outcome_name(r.outcome))
                        .u("dispatch", r.dispatch)
                        .raw("commit", &opt_u64(r.commit))
                        .raw("squash", &opt_u64(r.squash))
                        .finish()
                })
                .collect();
            format!("[{}]", parts.join(", "))
        }
    };
    JsonObj::new()
        .s("schema", "vpir-serve-run-v1")
        .s("program", program_name)
        .s("config", label)
        .u("scale", scale)
        .u("max_cycles", max_cycles)
        .b("halted", sim.halted())
        .raw("stats", &stats_json)
        .raw("error", &error_json)
        .raw("trace", &trace_json)
        .finish()
}

fn run_panic_body(message: &str) -> String {
    let error_json = JsonObj::new().s("kind", "panic").s("message", message).finish();
    JsonObj::new()
        .s("schema", "vpir-serve-run-v1")
        .b("halted", false)
        .raw("stats", "null")
        .raw("error", &error_json)
        .raw("trace", "[]")
        .finish()
}

fn outcome_name(outcome: TraceOutcome) -> &'static str {
    match outcome {
        TraceOutcome::Executed => "executed",
        TraceOutcome::Predicted => "predicted",
        TraceOutcome::Reused => "reused",
        TraceOutcome::TraceReused => "trace_reused",
        TraceOutcome::AddrReused => "addr_reused",
        TraceOutcome::Squashed => "squashed",
    }
}

fn opt_u64(value: Option<u64>) -> String {
    match value {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    }
}

// ----------------------------------------------------------------
// POST /v1/matrix
// ----------------------------------------------------------------

fn handle_matrix(state: &Arc<State>, body: &[u8]) -> Result<Response, HttpError> {
    let value = parse_body(body)?;
    check_keys(&value, &["bench", "scale", "max_cycles", "limit_insts", "inject_fault"])?;

    let name = get_str(&value, "bench")?
        .ok_or_else(|| HttpError::new(400, "missing required key `bench`"))?;
    let bench = parse_bench(name)?;
    let scale = bounded("scale", get_u64(&value, "scale", 2)?, MAX_SCALE)?;
    let max_cycles = bounded(
        "max_cycles",
        get_u64(&value, "max_cycles", state.cfg.default_max_cycles)?,
        MAX_CYCLES_CAP,
    )?;
    let limit_insts =
        bounded("limit_insts", get_u64(&value, "limit_insts", 200_000)?, MAX_CYCLES_CAP)?;
    let fault_spec = get_str(&value, "inject_fault")?.map(str::to_string);
    let inject_fault = match &fault_spec {
        None => None,
        // The parser checks the target against the bench and label
        // vocabulary: a typo is an error, not a silently ignored fault.
        Some(spec) => Some(InjectFault::parse(spec).map_err(|e| HttpError::new(400, e))?),
    };

    let prepared = state.prepared(bench, scale as u32)?;
    let key = fnv1a64(&[
        b"matrix-v1",
        &prepared.image,
        scale.to_string().as_bytes(),
        max_cycles.to_string().as_bytes(),
        limit_insts.to_string().as_bytes(),
        fault_spec.as_deref().unwrap_or("-").as_bytes(),
    ]);

    let metrics = Arc::clone(&state.metrics);
    let bench_name = bench.name().to_string();
    let job = Box::new(move || -> String {
        let rendered = catch_unwind(AssertUnwindSafe(|| {
            let matrix_cfg = MatrixConfig {
                scale: Scale::of(scale as u32),
                max_cycles,
                limit_insts,
            };
            let opts = RunOptions {
                dump_dir: None,
                resume: false,
                inject_fault: inject_fault.clone(),
            };
            let programs = build_programs(&[bench], matrix_cfg.scale);
            let outcome = run_matrix_outcome(&[bench], &programs, matrix_cfg, 1, &opts);
            render_matrix_body(&bench_name, scale, max_cycles, limit_insts, &outcome, &metrics)
        }));
        match rendered {
            Ok(body) => body,
            Err(panic) => {
                metrics.runs_panicked.fetch_add(1, Ordering::Relaxed);
                let error_json = JsonObj::new()
                    .s("kind", "panic")
                    .s("message", &panic_message(panic.as_ref()))
                    .finish();
                JsonObj::new()
                    .s("schema", "vpir-serve-matrix-v1")
                    .raw("error", &error_json)
                    .finish()
            }
        }
    });
    // The matrix is the expensive endpoint: it is the first work
    // refused when the queue crosses the shed watermark.
    respond_cached_or_enqueue(state, key, true, job)
}

fn render_matrix_body(
    bench_name: &str,
    scale: u64,
    max_cycles: u64,
    limit_insts: u64,
    outcome: &MatrixOutcome,
    metrics: &Metrics,
) -> String {
    metrics.matrix_cells_failed.fetch_add(outcome.failures.len() as u64, Ordering::Relaxed);
    metrics.runs_completed.fetch_add(outcome.completed_jobs as u64, Ordering::Relaxed);
    let total_cycles = outcome.matrix.as_ref().map(|m| m.total_sim_cycles()).unwrap_or(0);
    metrics.sim_cycles_total.fetch_add(total_cycles, Ordering::Relaxed);
    let failures: Vec<String> = outcome
        .failures
        .iter()
        .map(|f| {
            JsonObj::new()
                .u("job_index", f.job_index as u64)
                .s("bench", &f.bench)
                .s("config", &f.config)
                .s("kind", &f.kind)
                .s("error", &f.error)
                .finish()
        })
        .collect();
    JsonObj::new()
        .s("schema", "vpir-serve-matrix-v1")
        .s("bench", bench_name)
        .u("scale", scale)
        .u("max_cycles", max_cycles)
        .u("limit_insts", limit_insts)
        .u("total_jobs", outcome.total_jobs as u64)
        .u("completed_jobs", outcome.completed_jobs as u64)
        .raw("failures", &format!("[{}]", failures.join(", ")))
        .u("total_sim_cycles", total_cycles)
        .finish()
}

// ----------------------------------------------------------------
// POST /v1/analyze
// ----------------------------------------------------------------

/// Static analysis of inline assembly. The cache key is the FNV-1a
/// hash of the source text itself — the analysis is a pure function of
/// the program, so identical sources share one cached body.
fn handle_analyze(state: &Arc<State>, body: &[u8]) -> Result<Response, HttpError> {
    let value = parse_body(body)?;
    check_keys(&value, &["asm"])?;
    let source = get_str(&value, "asm")?
        .ok_or_else(|| HttpError::new(400, "missing required key `asm`"))?
        .to_string();
    let program = assemble(&source)
        .map_err(|e| HttpError::new(400, format!("asm error: {}", e.at_file("inline"))))?;

    let key = fnv1a64(&[b"analyze-v1", source.as_bytes()]);
    let metrics = Arc::clone(&state.metrics);
    let job = Box::new(move || -> String {
        let rendered = catch_unwind(AssertUnwindSafe(|| {
            let analysis = analyze_program(&program, "inline");
            metrics.runs_completed.fetch_add(1, Ordering::Relaxed);
            JsonObj::new()
                .s("schema", "vpir-serve-analyze-v1")
                .u("live", analysis.findings.len() as u64)
                .raw("analysis", &analysis.to_json())
                .finish()
        }));
        match rendered {
            Ok(body) => body,
            Err(panic) => {
                metrics.runs_panicked.fetch_add(1, Ordering::Relaxed);
                let error_json = JsonObj::new()
                    .s("kind", "panic")
                    .s("message", &panic_message(panic.as_ref()))
                    .finish();
                JsonObj::new()
                    .s("schema", "vpir-serve-analyze-v1")
                    .raw("analysis", "null")
                    .raw("error", &error_json)
                    .finish()
            }
        }
    });
    respond_cached_or_enqueue(state, key, false, job)
}

// ----------------------------------------------------------------
// The cache-or-enqueue core.
// ----------------------------------------------------------------

/// The structured 504 body a request degrades to when its simulation
/// outruns the deadline. Reuses the `SimError` row vocabulary
/// (`kind`/`message`) so clients parse it like any other failure; the
/// job itself keeps running and will populate the cache.
fn deadline_response(deadline: Duration) -> Response {
    let millis = u64::try_from(deadline.as_millis()).unwrap_or(u64::MAX);
    let error_json = JsonObj::new()
        .s("kind", "deadline")
        .s(
            "message",
            &format!(
                "simulation exceeded the {millis}ms request deadline; \
                 the job continues and its result will populate the cache"
            ),
        )
        .finish();
    let body = JsonObj::new()
        .s("schema", "vpir-serve-error-v1")
        .u("status", 504)
        .raw("error", &error_json)
        .finish();
    Response::json(504, body)
}

/// Answers from the cache when possible; otherwise enqueues `job_fn`
/// on the worker pool (propagating backpressure and load shedding as
/// 503) and waits for its rendered body. The cached body is the
/// complete response, so a hit is byte-identical to the miss that
/// populated it — whichever tier answers.
fn respond_cached_or_enqueue(
    state: &Arc<State>,
    key: u64,
    expensive: bool,
    job_fn: Box<dyn FnOnce() -> String + Send + 'static>,
) -> Result<Response, HttpError> {
    if let Some((body, tier)) = state.cache.get(key) {
        let tag = match tier {
            HitTier::Memory => {
                state.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                "hit"
            }
            HitTier::Disk => {
                state.metrics.cache_hits_disk.fetch_add(1, Ordering::Relaxed);
                "hit-disk"
            }
        };
        state.sync_cache_metrics();
        return Ok(Response {
            status: 200,
            content_type: JSON,
            extra: vec![("X-Cache", tag.to_string())],
            body,
            shutdown: false,
        });
    }
    state.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);

    if state.queue.is_draining() {
        return Err(HttpError::new(503, "server is draining for shutdown"));
    }
    // Graduated shedding: cached hits were already answered above, so
    // only misses are subject to the watermarks.
    match state.shed() {
        ShedState::Healthy => {}
        ShedState::Shedding if !expensive => {}
        ShedState::Shedding => {
            state.metrics.requests_shed.fetch_add(1, Ordering::Relaxed);
            return Err(HttpError::new(
                503,
                "server is shedding load (queue past watermark) — retry shortly",
            ));
        }
        ShedState::Saturated => {
            state.metrics.requests_shed.fetch_add(1, Ordering::Relaxed);
            return Err(HttpError::new(503, "server is saturated — retry shortly"));
        }
    }

    let (tx, rx) = mpsc::channel::<Arc<String>>();
    let cache = Arc::clone(&state.cache);
    let metrics = Arc::clone(&state.metrics);
    let job = Box::new(move || {
        let body = Arc::new(job_fn());
        cache.insert(key, Arc::clone(&body));
        sync_cache_metrics(&metrics, &cache);
        let _ = tx.send(body);
    });
    match state.queue.try_push(job) {
        Ok(depth) => {
            state.metrics.queue_depth.store(depth as u64, Ordering::Relaxed);
        }
        Err(PushError::Full) => {
            return Err(HttpError::new(503, "job queue is full — retry shortly"))
        }
        Err(PushError::Draining) => {
            return Err(HttpError::new(503, "server is draining for shutdown"))
        }
    }
    match rx.recv_timeout(state.cfg.request_deadline) {
        Ok(body) => Ok(Response {
            status: 200,
            content_type: JSON,
            extra: vec![("X-Cache", "miss".to_string())],
            body,
            shutdown: false,
        }),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            state.metrics.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            Ok(deadline_response(state.cfg.request_deadline))
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            Err(HttpError::new(500, "job was abandoned (shutdown)"))
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_state(workers: usize) -> (Arc<State>, Vec<JoinHandle<()>>) {
        let cfg = ServeConfig {
            workers,
            request_deadline: Duration::from_secs(30),
            ..ServeConfig::default()
        };
        test_state_with(cfg)
    }

    fn test_state_with(cfg: ServeConfig) -> (Arc<State>, Vec<JoinHandle<()>>) {
        let workers = cfg.workers;
        let addr: SocketAddr = "127.0.0.1:0".parse().expect("addr");
        let state = Arc::new(State::new(cfg, addr).expect("state"));
        let handles = spawn_workers(workers, Arc::clone(&state.queue), Arc::clone(&state.metrics));
        (state, handles)
    }

    fn finish(state: &Arc<State>, handles: Vec<JoinHandle<()>>) {
        state.queue.drain();
        for h in handles {
            h.join().expect("worker join");
        }
    }

    fn request(method: &str, path: &str, body: &[u8]) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: body.to_vec(),
            keep_alive: true,
        }
    }

    #[test]
    fn routing_covers_unknown_paths_and_methods() {
        let (state, handles) = test_state(0);
        let err = route(&state, &request("GET", "/nope", b"")).expect_err("404");
        assert_eq!(err.status, 404);
        let resp = route(&state, &request("DELETE", "/v1/run", b"")).expect("405 response");
        assert_eq!(resp.status, 405);
        assert!(resp.extra.iter().any(|(n, v)| *n == "Allow" && v == "POST"));
        let resp = route(&state, &request("POST", "/metrics", b"")).expect("405 response");
        assert_eq!(resp.status, 405);
        let health = route(&state, &request("GET", "/healthz", b"")).expect("healthz");
        assert_eq!(
            health.body.as_str(),
            "{\"ok\": true, \"draining\": false, \"state\": \"healthy\"}"
        );
        finish(&state, handles);
    }

    #[test]
    fn run_requests_are_validated_before_any_work_is_queued() {
        let (state, handles) = test_state(0);
        // (body, expected fragment, case)
        let table: &[(&str, &str, &str)] = &[
            ("[]", "must be a JSON object", "non-object body"),
            ("{\"zap\": 1}", "unknown key `zap`", "unknown key"),
            ("{\"bench\": \"go\", \"asm\": \"halt\"}", "exactly one", "both program forms"),
            ("{}", "exactly one", "no program"),
            ("{\"bench\": \"nope\"}", "unknown bench", "bad bench"),
            ("{\"bench\": \"go\", \"config\": \"warp\"}", "unknown config", "bad config"),
            ("{\"bench\": \"go\", \"scale\": 0}", "`scale` must be", "zero scale"),
            ("{\"bench\": \"go\", \"trace\": 999999}", "`trace` must be", "trace too big"),
            ("{\"asm\": \"not an opcode\"}", "asm error", "bad assembly"),
        ];
        for (body, fragment, case) in table {
            let err = handle_run(&state, body.as_bytes()).expect_err(case);
            assert_eq!(err.status, 400, "{case}");
            assert!(err.message.contains(fragment), "{case}: {}", err.message);
        }
        // Validation failures must not have queued anything.
        assert_eq!(state.queue.depth(), 0);
        finish(&state, handles);
    }

    #[test]
    fn a_run_miss_then_hit_returns_byte_identical_bodies() {
        let (state, handles) = test_state(1);
        let body = b"{\"bench\": \"go\", \"max_cycles\": 20000}";
        let miss = handle_run(&state, body).expect("miss");
        assert_eq!(miss.status, 200);
        assert!(miss.extra.iter().any(|(n, v)| *n == "X-Cache" && v == "miss"));
        let hit = handle_run(&state, body).expect("hit");
        assert!(hit.extra.iter().any(|(n, v)| *n == "X-Cache" && v == "hit"));
        assert_eq!(miss.body.as_str(), hit.body.as_str(), "hit must be byte-identical");
        assert!(miss.body.contains("\"schema\": \"vpir-serve-run-v1\""), "{}", miss.body);
        assert!(miss.body.contains("\"stats\": {"), "{}", miss.body);
        assert_eq!(state.metrics.cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(state.metrics.cache_misses.load(Ordering::Relaxed), 1);
        finish(&state, handles);
    }

    #[test]
    fn an_inline_asm_run_returns_trace_records() {
        let (state, handles) = test_state(1);
        let body = b"{\"asm\": \"li r1, 7\\naddi r1, r1, 1\\nhalt\", \"trace\": 8}";
        let resp = handle_run(&state, body).expect("inline run");
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"program\": \"inline\""), "{}", resp.body);
        assert!(resp.body.contains("\"halted\": true"), "{}", resp.body);
        assert!(resp.body.contains("\"outcome\": \"executed\""), "{}", resp.body);
        finish(&state, handles);
    }

    #[test]
    fn analyze_requests_are_validated_before_any_work_is_queued() {
        let (state, handles) = test_state(0);
        let table: &[(&str, &str, &str)] = &[
            ("[]", "must be a JSON object", "non-object body"),
            ("{\"zap\": 1}", "unknown key `zap`", "unknown key"),
            ("{}", "missing required key `asm`", "no program"),
            ("{\"asm\": \"not an opcode\"}", "asm error: inline:1:", "bad assembly"),
        ];
        for (body, fragment, case) in table {
            let err = handle_analyze(&state, body.as_bytes()).expect_err(case);
            assert_eq!(err.status, 400, "{case}");
            assert!(err.message.contains(fragment), "{case}: {}", err.message);
        }
        assert_eq!(state.queue.depth(), 0);
        finish(&state, handles);
    }

    #[test]
    fn an_analyze_miss_then_hit_returns_byte_identical_findings() {
        let (state, handles) = test_state(1);
        // `add r1, r2, r0` reads r2 before any write: one live L2.
        let body = b"{\"asm\": \"main: add r1, r2, r0\\nhalt\"}";
        let miss = handle_analyze(&state, body).expect("miss");
        assert_eq!(miss.status, 200);
        assert!(miss.extra.iter().any(|(n, v)| *n == "X-Cache" && v == "miss"));
        assert!(miss.body.contains("\"schema\": \"vpir-serve-analyze-v1\""), "{}", miss.body);
        assert!(miss.body.contains("\"live\": 1"), "{}", miss.body);
        assert!(miss.body.contains("\"rule\":\"L2\""), "{}", miss.body);
        let hit = handle_analyze(&state, body).expect("hit");
        assert!(hit.extra.iter().any(|(n, v)| *n == "X-Cache" && v == "hit"));
        assert_eq!(miss.body.as_str(), hit.body.as_str(), "hit must be byte-identical");

        // A clean program reports zero live findings and its loop.
        let clean = b"{\"asm\": \"li r1, 3\\nloop: addi r1, r1, -1\\nbne r1, r0, loop\\nhalt\"}";
        let resp = handle_analyze(&state, clean).expect("clean");
        assert!(resp.body.contains("\"live\": 0"), "{}", resp.body);
        assert!(resp.body.contains("\"loops\":1"), "{}", resp.body);
        finish(&state, handles);
    }

    #[test]
    fn a_full_queue_surfaces_backpressure_as_503() {
        // Zero workers: pushed jobs never drain, so the queue depth is
        // fully deterministic.
        let cfg = ServeConfig { workers: 0, queue_capacity: 1, ..ServeConfig::default() };
        let addr: SocketAddr = "127.0.0.1:0".parse().expect("addr");
        let state = Arc::new(State::new(cfg, addr).expect("state"));
        // Occupy the single queue slot directly; pushing via handle_run
        // would block the test on the job's result channel.
        assert!(state.queue.try_push(Box::new(|| {})).is_ok());
        let err = handle_run(&state, b"{\"bench\": \"go\"}").expect_err("503");
        assert_eq!(err.status, 503);
        let resp = Response::from_error(&err);
        assert!(resp.extra.iter().any(|(n, v)| *n == "Retry-After" && v == "1"));
        // Draining takes precedence once shutdown begins.
        state.queue.drain();
        let err = handle_run(&state, b"{\"bench\": \"perl\"}").expect_err("draining");
        assert_eq!(err.status, 503);
        assert!(err.message.contains("draining"), "{}", err.message);
    }

    #[test]
    fn shedding_refuses_matrix_misses_but_serves_cached_hits() {
        // Capacity 4 with 2 queued jobs: exactly at the shed watermark.
        let cfg = ServeConfig { workers: 0, queue_capacity: 4, ..ServeConfig::default() };
        let addr: SocketAddr = "127.0.0.1:0".parse().expect("addr");
        let state = Arc::new(State::new(cfg, addr).expect("state"));
        assert!(state.queue.try_push(Box::new(|| {})).is_ok());
        assert!(state.queue.try_push(Box::new(|| {})).is_ok());
        assert_eq!(state.shed(), ShedState::Shedding);

        // The expensive endpoint is refused while shedding...
        let err = handle_matrix(&state, b"{\"bench\": \"go\"}").expect_err("shed 503");
        assert_eq!(err.status, 503);
        assert!(err.message.contains("shedding"), "{}", err.message);
        assert_eq!(state.metrics.requests_shed.load(Ordering::Relaxed), 1);

        // ...but a cached hit on any endpoint is still answered, even
        // saturated. The analyze key is a pure function of the source,
        // so the test can seed the cache directly.
        let source = "halt";
        let key = fnv1a64(&[b"analyze-v1", source.as_bytes()]);
        state.cache.insert(key, Arc::new("{\"canned\": true}".to_string()));
        assert!(state.queue.try_push(Box::new(|| {})).is_ok());
        assert!(state.queue.try_push(Box::new(|| {})).is_ok());
        assert_eq!(state.shed(), ShedState::Saturated);
        let hit = handle_analyze(&state, b"{\"asm\": \"halt\"}").expect("hit during saturation");
        assert_eq!(hit.status, 200);
        assert!(hit.extra.iter().any(|(n, v)| *n == "X-Cache" && v == "hit"));

        // A saturated miss is refused on every endpoint.
        let err = handle_run(&state, b"{\"bench\": \"go\"}").expect_err("saturated 503");
        assert_eq!(err.status, 503);
        assert!(err.message.contains("saturated"), "{}", err.message);

        // /healthz reports the state by name.
        let health = route(&state, &request("GET", "/healthz", b"")).expect("healthz");
        assert!(health.body.contains("\"state\": \"saturated\""), "{}", health.body);
    }

    #[test]
    fn a_request_past_the_deadline_degrades_to_a_structured_504() {
        // Zero workers: the enqueued job never runs, so the handler's
        // wait deterministically outlives a short deadline.
        let cfg = ServeConfig {
            workers: 0,
            request_deadline: Duration::from_millis(25),
            ..ServeConfig::default()
        };
        let addr: SocketAddr = "127.0.0.1:0".parse().expect("addr");
        let state = Arc::new(State::new(cfg, addr).expect("state"));
        let resp = handle_run(&state, b"{\"bench\": \"go\"}").expect("504 response");
        assert_eq!(resp.status, 504);
        assert!(resp.body.contains("\"schema\": \"vpir-serve-error-v1\""), "{}", resp.body);
        assert!(resp.body.contains("\"kind\": \"deadline\""), "{}", resp.body);
        assert_eq!(state.metrics.deadline_exceeded.load(Ordering::Relaxed), 1);
        state.queue.clear();
    }

    #[test]
    fn a_matrix_request_with_an_injected_panic_degrades_to_failure_rows() {
        let (state, handles) = test_state(1);
        let body = b"{\"bench\": \"go\", \"scale\": 2, \"max_cycles\": 100000, \
                      \"limit_insts\": 20000, \"inject_fault\": \"go/base:panic\"}";
        let resp = handle_matrix(&state, body).expect("matrix");
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"schema\": \"vpir-serve-matrix-v1\""), "{}", resp.body);
        assert!(resp.body.contains("\"kind\": \"panic\""), "{}", resp.body);
        assert!(resp.body.contains("\"config\": \"base\""), "{}", resp.body);
        assert!(state.metrics.matrix_cells_failed.load(Ordering::Relaxed) >= 1);
        finish(&state, handles);
    }

    #[test]
    fn matrix_requests_validate_inject_fault_against_the_vocabulary() {
        let (state, handles) = test_state(0);
        let err = handle_matrix(&state, b"{\"bench\": \"go\", \"inject_fault\": \"go/warp\"}")
            .expect_err("bad fault config");
        assert_eq!(err.status, 400);
        assert!(err.message.contains("unknown inject_fault config"), "{}", err.message);
        let err = handle_matrix(&state, b"{\"bench\": \"go\", \"inject_fault\": \"nope/base\"}")
            .expect_err("bad fault bench");
        assert_eq!(err.status, 400);
        assert!(err.message.contains("unknown bench"), "{}", err.message);
        finish(&state, handles);
    }

    #[test]
    fn a_cache_dir_state_round_trips_bodies_across_instances() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/scratch/serve-lib/state-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServeConfig {
            workers: 1,
            cache_dir: Some(dir.clone()),
            request_deadline: Duration::from_secs(30),
            ..ServeConfig::default()
        };
        let (state, handles) = test_state_with(cfg.clone());
        let body = b"{\"asm\": \"halt\"}";
        let miss = handle_analyze(&state, body).expect("miss");
        assert_eq!(miss.status, 200);
        finish(&state, handles);
        drop(state);

        // A fresh State over the same directory answers from disk.
        let (state, handles) = test_state_with(cfg);
        let hit = handle_analyze(&state, body).expect("disk hit");
        assert_eq!(hit.status, 200);
        assert!(
            hit.extra.iter().any(|(n, v)| *n == "X-Cache" && v == "hit-disk"),
            "{:?}",
            hit.extra
        );
        assert_eq!(hit.body.as_str(), miss.body.as_str(), "byte-identical across restart");
        assert_eq!(state.metrics.cache_hits_disk.load(Ordering::Relaxed), 1);
        finish(&state, handles);
    }
}
