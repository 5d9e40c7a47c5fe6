//! `vpir loadgen`: a std-only load and chaos generator for `vpir
//! serve`.
//!
//! Each of `--conns` worker threads drives its own keep-alive
//! connection in a closed loop until the duration elapses, under one of
//! five traffic mixes:
//!
//! * `hit-heavy` — the same `/v1/run` request repeatedly; after the
//!   first miss every answer is a cache hit, and every hit body is
//!   compared byte-for-byte against the first body observed (an
//!   `identity_violations` count of zero is the load-time proof of the
//!   reuse-buffer contract).
//! * `miss-heavy` — a unique inline-assembly program per request, so
//!   every request simulates and exercises queueing and shedding.
//! * `matrix` — the expensive `/v1/matrix` endpoint, the first traffic
//!   the server sheds under load.
//! * `malformed` — protocol garbage that must come back as clean 4xx
//!   responses, never hangs or resets.
//! * `slowloris` — deliberately stalled request heads; the server must
//!   answer `408` (or close) within its read deadline, proving no
//!   handler thread can be held hostage.
//!
//! The report is a `vpir-bench-serve-v1` jsonlite object (u64-only:
//! counts, log-bucket percentiles, percent ratios) that self-validates
//! against [`REPORT_KEYS`] before it is returned, so the CI chaos step
//! gates on schema validity without external tooling.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vpir_bench::perf::Gated;
use vpir_jsonlite::{validate_json, JsonObj, JsonValue};

use crate::histo::Histogram;

/// Required top-level keys of the `vpir-bench-serve-v1` report.
pub const REPORT_KEYS: &[&str] = &[
    "schema",
    "mix",
    "conns",
    "duration_ms",
    "requests_total",
    "responses_2xx",
    "responses_4xx",
    "responses_5xx",
    "shed_503",
    "io_errors",
    "identity_violations",
    "cache_hits_memory",
    "cache_hits_disk",
    "cache_misses",
    "cache_hit_percent",
    "throughput_rps",
    "latency",
];

/// The traffic mix a loadgen run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Repeated identical `/v1/run` requests (cache hits + identity check).
    HitHeavy,
    /// Unique program per request (every request simulates).
    MissHeavy,
    /// `/v1/matrix` requests (the shed-first endpoint).
    Matrix,
    /// Protocol garbage expecting clean 4xx handling.
    Malformed,
    /// Stalled request heads expecting 408 within the read deadline.
    Slowloris,
}

impl Mix {
    /// Parses a `--mix` argument.
    pub fn parse(text: &str) -> Option<Mix> {
        match text {
            "hit-heavy" => Some(Mix::HitHeavy),
            "miss-heavy" => Some(Mix::MissHeavy),
            "matrix" => Some(Mix::Matrix),
            "malformed" => Some(Mix::Malformed),
            "slowloris" => Some(Mix::Slowloris),
            _ => None,
        }
    }

    /// The mix's canonical name.
    pub fn name(self) -> &'static str {
        match self {
            Mix::HitHeavy => "hit-heavy",
            Mix::MissHeavy => "miss-heavy",
            Mix::Matrix => "matrix",
            Mix::Malformed => "malformed",
            Mix::Slowloris => "slowloris",
        }
    }

    /// Every mix name, for usage messages.
    pub const ALL_NAMES: &'static str = "hit-heavy, miss-heavy, matrix, malformed, slowloris";
}

/// Tunables for one loadgen run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// The server to drive, as `host:port`.
    pub addr: String,
    /// Concurrent connections (one worker thread each).
    pub conns: usize,
    /// How long to keep driving load.
    pub duration: Duration,
    /// The traffic mix.
    pub mix: Mix,
}

/// Shared counters all worker threads report into (telemetry-`Relaxed`,
/// like every counter in this crate).
#[derive(Debug, Default)]
struct Totals {
    requests: AtomicU64,
    ok_2xx: AtomicU64,
    client_4xx: AtomicU64,
    server_5xx: AtomicU64,
    shed_503: AtomicU64,
    io_errors: AtomicU64,
    identity_violations: AtomicU64,
    hits_memory: AtomicU64,
    hits_disk: AtomicU64,
    misses: AtomicU64,
}

/// One parsed HTTP response from the server.
struct ClientResp {
    status: u16,
    x_cache: Option<String>,
    keep_alive: bool,
    body: Vec<u8>,
}

/// Reads one full response. Errors on EOF/timeout/overflow so the
/// caller can count an `io_error` and reconnect.
fn read_response(stream: &mut TcpStream) -> std::io::Result<ClientResp> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let mut buf: Vec<u8> = Vec::with_capacity(2048);
    let mut chunk = [0u8; 2048];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        if buf.len() > 64 * 1024 {
            return Err(bad("response head too large"));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        buf.extend_from_slice(chunk.get(..n).unwrap_or_default());
    };
    let head = std::str::from_utf8(buf.get(..head_end).unwrap_or_default())
        .map_err(|_| bad("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("missing status line"))?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("unparseable status line"))?;
    let mut content_length = 0usize;
    let mut x_cache = None;
    let mut keep_alive = true;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => content_length = value.parse().unwrap_or(0),
            "x-cache" => x_cache = Some(value.to_string()),
            "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    let body_start = head_end + 4;
    while buf.len() < body_start + content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        buf.extend_from_slice(chunk.get(..n).unwrap_or_default());
    }
    let body = buf.get(body_start..body_start + content_length).unwrap_or_default().to_vec();
    Ok(ClientResp { status, x_cache, keep_alive, body })
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: loadgen\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The request bytes for one iteration of a mix. `seq` makes
/// miss-heavy programs unique without any randomness, so two identical
/// loadgen runs drive identical request streams.
fn request_for(mix: Mix, worker: usize, seq: u64) -> Vec<u8> {
    match mix {
        Mix::HitHeavy => post("/v1/run", "{\"bench\": \"go\", \"max_cycles\": 20000}"),
        Mix::MissHeavy => post(
            "/v1/run",
            &format!(
                "{{\"asm\": \"li r1, {}\\nli r2, {}\\nli r3, {}\\nadd r4, r1, r2\\nhalt\"}}",
                (worker as u64) & 0x7fff,
                seq & 0x7fff,
                (seq >> 15) & 0x7fff
            ),
        ),
        Mix::Matrix => post(
            "/v1/matrix",
            "{\"bench\": \"go\", \"scale\": 2, \"max_cycles\": 100000, \"limit_insts\": 20000}",
        ),
        Mix::Malformed => match seq % 3 {
            0 => b"ZAP\r\n\r\n".to_vec(),
            1 => b"POST /v1/run HTTP/1.1\r\nContent-Length: zap\r\n\r\n".to_vec(),
            _ => b"POST /v1/run HTTP/1.1\r\nContent-Length: 7\r\n\r\n[[[[[[[".to_vec(),
        },
        // A head that never finishes: the stall the server must bound.
        Mix::Slowloris => b"POST /v1/run HTTP/1.1\r\nContent-Le".to_vec(),
    }
}

fn classify(totals: &Totals, resp: &ClientResp) {
    match resp.status {
        200..=299 => totals.ok_2xx.fetch_add(1, Ordering::Relaxed),
        503 => totals.shed_503.fetch_add(1, Ordering::Relaxed),
        400..=499 => totals.client_4xx.fetch_add(1, Ordering::Relaxed),
        _ => totals.server_5xx.fetch_add(1, Ordering::Relaxed),
    };
    match resp.x_cache.as_deref() {
        Some("hit") => totals.hits_memory.fetch_add(1, Ordering::Relaxed),
        Some("hit-disk") => totals.hits_disk.fetch_add(1, Ordering::Relaxed),
        Some("miss") => totals.misses.fetch_add(1, Ordering::Relaxed),
        _ => 0,
    };
}

fn worker_loop(
    cfg: &LoadgenConfig,
    worker: usize,
    deadline: Instant,
    totals: &Totals,
    latency: &Histogram,
    reference: &Mutex<Option<Vec<u8>>>,
) {
    let mut conn: Option<TcpStream> = None;
    let mut seq = 0u64;
    while Instant::now() < deadline {
        let mut stream = match conn.take() {
            Some(stream) => stream,
            None => match TcpStream::connect(&cfg.addr) {
                Ok(stream) => {
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
                    let _ = stream.set_nodelay(true);
                    stream
                }
                Err(_) => {
                    totals.io_errors.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            },
        };
        let request = request_for(cfg.mix, worker, seq);
        seq += 1;
        totals.requests.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        if stream.write_all(&request).is_err() {
            totals.io_errors.fetch_add(1, Ordering::Relaxed);
            continue; // dropped conn; reconnect next iteration
        }
        // A slowloris head is *supposed* to hang: the read below blocks
        // until the server's read deadline fires and it answers 408.
        match read_response(&mut stream) {
            Ok(resp) => {
                let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                latency.record(micros);
                classify(totals, &resp);
                if cfg.mix == Mix::HitHeavy && resp.status == 200 {
                    let mut slot = reference.lock().unwrap_or_else(|e| e.into_inner());
                    match slot.as_ref() {
                        None => *slot = Some(resp.body.clone()),
                        Some(first) if *first != resp.body => {
                            totals.identity_violations.fetch_add(1, Ordering::Relaxed);
                        }
                        Some(_) => {}
                    }
                }
                if resp.keep_alive {
                    conn = Some(stream);
                }
            }
            Err(_) => {
                // Slowloris connections may be closed without a response
                // if the server races the deadline; that is a contained
                // outcome, not a protocol failure — still counted.
                totals.io_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Drives the configured load and returns the `vpir-bench-serve-v1`
/// report, already validated against [`REPORT_KEYS`].
pub fn run(cfg: &LoadgenConfig) -> Result<String, String> {
    let totals = Arc::new(Totals::default());
    let latency = Arc::new(Histogram::new());
    let reference: Arc<Mutex<Option<Vec<u8>>>> = Arc::new(Mutex::new(None));
    let started = Instant::now();
    let deadline = started + cfg.duration;
    let workers: Vec<_> = (0..cfg.conns.max(1))
        .map(|i| {
            let cfg = cfg.clone();
            let totals = Arc::clone(&totals);
            let latency = Arc::clone(&latency);
            let reference = Arc::clone(&reference);
            std::thread::Builder::new()
                .name(format!("vpir-loadgen-{i}"))
                .spawn(move || worker_loop(&cfg, i, deadline, &totals, &latency, &reference))
        })
        .collect();
    let mut spawn_failures = 0u64;
    for handle in workers {
        match handle {
            Ok(h) => {
                let _ = h.join();
            }
            Err(_) => spawn_failures += 1,
        }
    }
    let elapsed_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX).max(1);
    let requests = totals.requests.load(Ordering::Relaxed);
    let hits = totals.hits_memory.load(Ordering::Relaxed) + totals.hits_disk.load(Ordering::Relaxed);
    let looked_up = hits + totals.misses.load(Ordering::Relaxed);
    let report = JsonObj::new()
        .s("schema", "vpir-bench-serve-v1")
        .s("mix", cfg.mix.name())
        .u("conns", cfg.conns as u64)
        .u("duration_ms", elapsed_ms)
        .u("requests_total", requests)
        .u("responses_2xx", totals.ok_2xx.load(Ordering::Relaxed))
        .u("responses_4xx", totals.client_4xx.load(Ordering::Relaxed))
        .u("responses_5xx", totals.server_5xx.load(Ordering::Relaxed))
        .u("shed_503", totals.shed_503.load(Ordering::Relaxed))
        .u("io_errors", totals.io_errors.load(Ordering::Relaxed) + spawn_failures)
        .u("identity_violations", totals.identity_violations.load(Ordering::Relaxed))
        .u("cache_hits_memory", totals.hits_memory.load(Ordering::Relaxed))
        .u("cache_hits_disk", totals.hits_disk.load(Ordering::Relaxed))
        .u("cache_misses", totals.misses.load(Ordering::Relaxed))
        .u("cache_hit_percent", (hits * 100).checked_div(looked_up).unwrap_or(0))
        .u("throughput_rps", requests.saturating_mul(1000) / elapsed_ms)
        .raw("latency", &latency.to_json())
        .finish();
    validate_json(&report, REPORT_KEYS)
        .map_err(|e| format!("loadgen report failed self-validation: {e}"))?;
    Ok(report)
}

/// The metric `vpir loadgen --baseline` gates on.
const THROUGHPUT_GATE: Gated = Gated {
    name: "throughput",
    schema: "vpir-bench-serve-v1",
    key: "throughput_rps",
    unit: "rps",
};

/// Gates a fresh loadgen report's `throughput_rps` against a committed
/// baseline document through [`Gated::gate`]. Both documents must be
/// reports over the same traffic mix — comparing a hit-heavy run
/// against a slowloris baseline would gate on noise.
pub fn gate(
    report_json: &str,
    baseline_json: &str,
    max_regression_pct: u64,
) -> Result<String, String> {
    let read = |json: &str, what: &str| -> Result<(String, u64), String> {
        let (doc, rps) = THROUGHPUT_GATE.read(json, what)?;
        let mix = doc.get("mix").and_then(JsonValue::as_str);
        Ok((mix.ok_or_else(|| format!("{what} has no mix"))?.to_string(), rps))
    };
    let (mix, current) = read(report_json, "report")?;
    let (base_mix, _) = read(baseline_json, "baseline")?;
    if mix != base_mix {
        return Err(format!("mix mismatch: report is `{mix}`, baseline is `{base_mix}`"));
    }
    THROUGHPUT_GATE.gate(current, baseline_json, max_regression_pct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_parsing_round_trips_every_name() {
        for name in ["hit-heavy", "miss-heavy", "matrix", "malformed", "slowloris"] {
            let mix = Mix::parse(name).expect(name);
            assert_eq!(mix.name(), name);
        }
        assert_eq!(Mix::parse("zap"), None);
        assert!(Mix::ALL_NAMES.contains("slowloris"));
    }

    #[test]
    fn miss_heavy_requests_are_unique_and_deterministic() {
        let a = request_for(Mix::MissHeavy, 0, 0);
        let b = request_for(Mix::MissHeavy, 0, 1);
        let c = request_for(Mix::MissHeavy, 1, 0);
        assert_ne!(a, b, "sequence varies the program");
        assert_ne!(a, c, "worker varies the program");
        assert_eq!(a, request_for(Mix::MissHeavy, 0, 0), "same inputs, same request");
        let text = String::from_utf8(a).expect("utf8");
        assert!(text.starts_with("POST /v1/run HTTP/1.1\r\n"), "{text}");
    }

    #[test]
    fn responses_parse_and_classify() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                     Content-Length: 2\r\nConnection: keep-alive\r\nX-Cache: hit\r\n\r\n{}";
        let mut listener_side = std::io::Cursor::new(wire.to_vec());
        // read_response takes a TcpStream; exercise the parse path via a
        // local loopback pair instead.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            read_response(&mut stream).expect("response")
        });
        let (mut server_side, _) = listener.accept().expect("accept");
        let mut bytes = Vec::new();
        listener_side.read_to_end(&mut bytes).expect("cursor");
        server_side.write_all(&bytes).expect("write");
        drop(server_side);
        let resp = client.join().expect("join");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.x_cache.as_deref(), Some("hit"));
        assert!(resp.keep_alive);
        assert_eq!(resp.body, b"{}");

        let totals = Totals::default();
        classify(&totals, &resp);
        assert_eq!(totals.ok_2xx.load(Ordering::Relaxed), 1);
        assert_eq!(totals.hits_memory.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn report_keys_match_the_rendered_schema() {
        // An empty run against a dead port still renders a valid report
        // (all zeros, io_errors counting the refused connects).
        let cfg = LoadgenConfig {
            addr: "127.0.0.1:1".to_string(),
            conns: 1,
            duration: Duration::from_millis(30),
            mix: Mix::HitHeavy,
        };
        let report = run(&cfg).expect("report");
        assert!(report.contains("\"schema\": \"vpir-bench-serve-v1\""), "{report}");
        assert!(validate_json(&report, REPORT_KEYS).is_ok(), "{report}");
    }

    fn serve_report(mix: &str, rps: u64) -> String {
        JsonObj::new()
            .s("schema", "vpir-bench-serve-v1")
            .s("mix", mix)
            .u("throughput_rps", rps)
            .finish()
    }

    #[test]
    fn throughput_gate_passes_and_fails_on_the_floor() {
        let baseline = serve_report("hit-heavy", 1000);
        // 10% allowed: 900 rps is exactly the floor, 899 regresses.
        let ok = gate(&serve_report("hit-heavy", 900), &baseline, 10).expect("at floor");
        assert!(ok.contains("within 10%"), "{ok}");
        let err = gate(&serve_report("hit-heavy", 899), &baseline, 10).expect_err("regression");
        assert!(err.contains("throughput regression"), "{err}");
        // Improvements always pass.
        assert!(gate(&serve_report("hit-heavy", 5000), &baseline, 0).is_ok());
    }

    #[test]
    fn throughput_gate_rejects_mismatched_documents() {
        let baseline = serve_report("hit-heavy", 1000);
        let err = gate(&serve_report("matrix", 1000), &baseline, 10).expect_err("mix");
        assert!(err.contains("mix mismatch"), "{err}");
        assert!(gate("{not json", &baseline, 10).is_err());
        assert!(gate(&serve_report("hit-heavy", 1), "{\"schema\": \"zap\"}", 10).is_err());
        let zero = serve_report("hit-heavy", 0);
        assert!(gate(&serve_report("hit-heavy", 1), &zero, 10).is_err());
    }
}
