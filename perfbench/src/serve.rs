//! The `serve-mixed` workload: a closed loop over keep-alive
//! connections to an in-process `vpir serve` with its default settings,
//! half cache hits on warmed built-in-bench keys and half misses that
//! each POST a unique seeded inline program.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use vpir_bench::config_for_label;
use vpir_core::{RunLimits, Simulator};
use vpir_isa::asm::assemble;
use vpir_isa::Program;
use vpir_jsonlite::{parse_json, JsonObj};
use vpir_serve::{ServeConfig, Server};
use vpir_testkit::Rng;
use vpir_workloads::synth::{random_source, SynthConfig};

use crate::report::Tally;
use crate::sim::{matrix_config, reference, Reference, FAMILIES};
use crate::trace::{span, Span, Tracer};

/// The warmed hit keys: one built-in bench per machine family.
const HIT_KEYS: [(&str, &str); 4] =
    [("go", "base"), ("m88ksim", "magic:ME-SB:vl1"), ("ijpeg", "ir_early"), ("compress", "rtb:t8")];

/// Requests per connection per pass, half of each kind.
pub const PER_CONN: usize = 16;

/// Shape of the generated miss programs.
const SYNTH: SynthConfig =
    SynthConfig { blocks: 10, outer_iters: 10, fp: true, muldiv: true, memory: true, calls: true };
/// Only generated programs whose functional length falls in this band
/// are used, so every miss carries a comparable amount of simulation.
const MISS_INSTS: std::ops::Range<u64> = 2_000..8_000;

const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A running service with its warmed hit keys.
pub struct Service {
    server: Server,
    pub addr: SocketAddr,
    /// Request bytes and the first body answered for each hit key.
    hits: Vec<(Vec<u8>, Vec<u8>)>,
}

impl Service {
    pub fn stop(self) {
        self.server.shutdown();
        self.server.join();
    }
}

/// Starts the service, waits until `/healthz` answers, and warms every
/// hit key: the workload's set-up, timed as a whole.
pub fn start(tracer: Option<&Tracer>, parent: u64) -> Result<(Service, f64), String> {
    let (service, setup_s) = span(tracer, "serve.setup", parent, |setup| {
        let (server, _) = span(tracer, "serve.start", setup, |_| Server::start(ServeConfig::default()));
        let server = server.map_err(|e| format!("server failed to start: {e}"))?;
        let addr = server.addr();
        let healthy = span(tracer, "serve.healthz", setup, |_| wait_healthy(addr)).0;
        if let Err(e) = healthy {
            server.shutdown();
            server.join();
            return Err(e);
        }
        let (warmed, _) = span(tracer, "serve.warm", setup, |_| warm(addr));
        match warmed {
            Ok(hits) => Ok(Service { server, addr, hits }),
            Err(e) => {
                server.shutdown();
                server.join();
                Err(e)
            }
        }
    });
    service.map(|s| (s, setup_s))
}

fn wait_healthy(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut conn = None;
        if let Ok(x) = exchange(&mut conn, addr, b"GET /healthz HTTP/1.1\r\nHost: perfbench\r\n\r\n") {
            if x.status == 200 {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err("/healthz did not answer 200 within 10 s".to_string());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn warm(addr: SocketAddr) -> Result<Vec<(Vec<u8>, Vec<u8>)>, String> {
    let mut conn = None;
    HIT_KEYS
        .iter()
        .map(|(bench, label)| {
            let request = post_run(&JsonObj::new().s("bench", bench).s("config", label).finish());
            let x = exchange(&mut conn, addr, &request)
                .map_err(|e| format!("warming {bench}/{label}: {e}"))?;
            if x.status != 200 {
                return Err(format!("warming {bench}/{label}: status {}", x.status));
            }
            Ok((request, x.body))
        })
        .collect()
}

fn post_run(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/run HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

// ----------------------------------------------------------------
// Miss programs.
// ----------------------------------------------------------------

/// One seeded inline program, its machine label, and the instruction
/// count the functional machine commits for it.
pub struct Miss {
    request: Vec<u8>,
    committed: u64,
}

/// Generates `count` unique miss programs from `seed` and computes
/// each one's reference commit count (not part of the timed set-up).
/// Also returns how many generated programs were left out because the
/// cycle-level simulator disagrees with the functional machine on them.
pub fn miss_pool(
    seed: u64,
    count: usize,
    tracer: Option<&Tracer>,
    parent: u64,
) -> Result<(Vec<Miss>, usize), String> {
    let mut seen = std::collections::BTreeSet::new();
    let mut pool = Vec::with_capacity(count);
    let rotation = (seed % FAMILIES.len() as u64) as usize;
    let mut rng = Rng::new(seed ^ 0x6d69_7373);
    let mut left_out = 0;
    for _ in 0..count * 50 {
        if pool.len() == count {
            return Ok((pool, left_out));
        }
        let (source, _) = span(tracer, "workloads.synth", parent, |_| random_source(rng.next_u64(), SYNTH));
        if !seen.insert(source.clone()) {
            continue;
        }
        let (program, _) = span(tracer, "isa.assemble", parent, |_| assemble(&source));
        let program = program.map_err(|e| format!("generated program does not assemble: {e}"))?;
        let (want, _) = span(tracer, "isa.machine", parent, |_| reference(&program));
        let want = want?;
        if !MISS_INSTS.contains(&want.committed) {
            continue;
        }
        let label = FAMILIES[(rotation + pool.len()) % FAMILIES.len()].1;
        if !simulator_agrees(&program, label, want) {
            left_out += 1;
            continue;
        }
        let body = JsonObj::new().s("asm", &source).s("config", label).finish();
        pool.push(Miss { request: post_run(&body), committed: want.committed });
    }
    Err(format!("only {} of {count} generated programs fell in the length band", pool.len()))
}

/// Whether the cycle-level simulator, with the miss's machine, halts
/// having committed what the functional machine commits. On the code
/// this benchmark was defined on, `magic:ME-SB:vl1` commits three
/// instructions too many on about one generated program in 700 (a
/// simulator defect, reproducible with `vpir run --machine vp` on
/// `random_source(0x97d4_4170_bea0_4e4d, …)`). Such programs are left
/// out, and counted, so that the workload measures the service rather
/// than failing on the defect; the `families` and `matrix` gates still
/// check every run they make.
fn simulator_agrees(program: &Program, label: &str, want: Reference) -> bool {
    let config = config_for_label(label).expect("family labels are registry labels");
    let mut sim = Simulator::new(program, config);
    let ran = sim.run_checked(RunLimits::cycles(matrix_config().max_cycles)).is_ok();
    ran && sim.halted() && sim.stats().committed == want.committed
}

// ----------------------------------------------------------------
// The client.
// ----------------------------------------------------------------

/// One request/response exchange, with its phases. The phases share
/// their boundary instants, so they add up to the total exactly.
struct Exchange {
    status: u16,
    body: Vec<u8>,
    start: Instant,
    connected: Instant,
    head: Instant,
    done: Instant,
    reconnected: bool,
}

/// Sends one request on the connection (opening one if there is none)
/// and reads the full response.
fn exchange(conn: &mut Option<TcpStream>, addr: SocketAddr, request: &[u8]) -> std::io::Result<Exchange> {
    let start = Instant::now();
    let reconnected = conn.is_none();
    let mut stream = match conn.take() {
        Some(s) => s,
        None => {
            let s = TcpStream::connect(addr)?;
            s.set_read_timeout(Some(IO_TIMEOUT))?;
            s.set_write_timeout(Some(IO_TIMEOUT))?;
            s.set_nodelay(true)?;
            s
        }
    };
    let connected = Instant::now();
    stream.write_all(request)?;
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let mut buf = Vec::with_capacity(4096);
    let mut chunk = [0u8; 8192];
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("connection closed before the response head"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head_at = Instant::now();
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = 0usize;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => length = value.trim().parse().map_err(|_| bad("bad Content-Length"))?,
            "connection" => close = value.trim().eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    let body_start = head_end + 4;
    while buf.len() < body_start + length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("connection closed mid-body"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let done = Instant::now();
    if !close {
        *conn = Some(stream);
    }
    Ok(Exchange {
        status,
        body: buf[body_start..body_start + length].to_vec(),
        start,
        connected,
        head: head_at,
        done,
        reconnected,
    })
}

/// Sends a GET on a fresh connection and returns the body as text.
pub fn get(addr: SocketAddr, path: &str) -> Result<String, String> {
    let request = format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n");
    let x = exchange(&mut None, addr, request.as_bytes()).map_err(|e| format!("GET {path}: {e}"))?;
    String::from_utf8(x.body).map_err(|_| format!("GET {path}: body is not UTF-8"))
}

// ----------------------------------------------------------------
// Passes.
// ----------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit(usize),
    Miss(usize),
}

/// One completed (or failed) request, its phases in seconds.
#[derive(Debug, Clone)]
pub struct Sample {
    pub hit: bool,
    /// The request opened its connection (its connect phase is real).
    pub reconnected: bool,
    pub connect_s: f64,
    pub head_s: f64,
    pub gap_s: f64,
    pub total_s: f64,
    /// Cycles the service simulated for a miss (0 for a hit).
    pub sim_cycles: u64,
}

/// The measurements of a run of passes.
#[derive(Debug, Default)]
pub struct Loop {
    pub pass_walls: Vec<f64>,
    pub samples: Vec<Sample>,
    /// Requests answered 503.
    pub shed: u64,
}

struct Outcome {
    kind: Kind,
    result: std::io::Result<Exchange>,
}

/// Drives passes over `conns` keep-alive connections until `seconds`
/// have passed or the miss pool cannot cover another pass. In a pass,
/// each connection sends its [`PER_CONN`] requests in a closed loop;
/// the pass ends when every connection has its last response.
pub fn run_passes(
    service: &Service,
    pool: &[Miss],
    next_miss: &mut usize,
    rng: &mut Rng,
    conns: usize,
    seconds: f64,
    tracer: Option<&Tracer>,
    parent: u64,
    tally: &mut Tally,
) -> Loop {
    let mut out = Loop::default();
    let mut connections: Vec<Option<TcpStream>> = (0..conns).map(|_| None).collect();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds && *next_miss + conns * PER_CONN / 2 <= pool.len() {
        let plans: Vec<Vec<Kind>> = (0..conns).map(|_| plan(rng, next_miss)).collect();
        let ((pass, outcomes), wall_s) = span(tracer, "serve.pass", parent, |pass| {
            let outcomes = std::thread::scope(|s| {
                let handles: Vec<_> = connections
                    .iter_mut()
                    .zip(&plans)
                    .map(|(conn, plan)| {
                        s.spawn(move || {
                            plan.iter()
                                .map(|&kind| {
                                    let request = match kind {
                                        Kind::Hit(k) => &service.hits[k].0,
                                        Kind::Miss(j) => &pool[j].request,
                                    };
                                    let result = exchange(conn, service.addr, request);
                                    if result.is_err() {
                                        *conn = None;
                                    }
                                    Outcome { kind, result }
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect::<Vec<_>>()
            });
            (pass, outcomes)
        });
        out.pass_walls.push(wall_s);
        for o in outcomes {
            if let Some(sample) = check(service, pool, o, tracer, pass, tally, &mut out.shed) {
                out.samples.push(sample);
            }
        }
    }
    out
}

/// One connection's share of a pass: half hits on seeded keys, half
/// misses taken in order from the pool, in seeded order.
fn plan(rng: &mut Rng, next_miss: &mut usize) -> Vec<Kind> {
    let mut kinds: Vec<Kind> = (0..PER_CONN / 2).map(|_| Kind::Hit(rng.gen_range(0..HIT_KEYS.len()))).collect();
    for _ in 0..PER_CONN / 2 {
        kinds.push(Kind::Miss(*next_miss));
        *next_miss += 1;
    }
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.gen_range(0..i + 1));
    }
    kinds
}

/// Checks one response after the pass and turns it into a sample:
/// a hit must be byte-identical to the first body for its key; a miss
/// must answer 200, halt, and commit what the functional machine
/// commits for its program.
fn check(
    service: &Service,
    pool: &[Miss],
    o: Outcome,
    tracer: Option<&Tracer>,
    parent: u64,
    tally: &mut Tally,
    shed: &mut u64,
) -> Option<Sample> {
    let x = match o.result {
        Ok(x) => x,
        Err(e) => {
            tally.check(Err(format!("{:?}: {e}", o.kind)));
            return None;
        }
    };
    if x.status == 503 {
        *shed += 1;
    }
    let mut sim_cycles = 0;
    let verdict = match o.kind {
        Kind::Hit(k) if x.status == 200 && x.body == service.hits[k].1 => Ok(()),
        Kind::Hit(k) => Err(format!("hit key {k}: status {} or body differs from the first", x.status)),
        Kind::Miss(j) => check_miss(&x, pool[j].committed).map(|c| sim_cycles = c),
    };
    tally.check(verdict.map_err(|e| format!("{:?}: {e}", o.kind)));
    if let Some(tr) = tracer {
        record_request(tr, parent, &x, o.kind);
    }
    let s = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    Some(Sample {
        hit: matches!(o.kind, Kind::Hit(_)),
        reconnected: x.reconnected,
        connect_s: s(x.start, x.connected),
        head_s: s(x.connected, x.head),
        gap_s: s(x.head, x.done),
        total_s: s(x.start, x.done),
        sim_cycles,
    })
}

fn check_miss(x: &Exchange, committed: u64) -> Result<u64, String> {
    if x.status != 200 {
        return Err(format!("status {}", x.status));
    }
    let text = std::str::from_utf8(&x.body).map_err(|_| "body is not UTF-8".to_string())?;
    let v = parse_json(text).map_err(|e| format!("body is not JSON: {e}"))?;
    if v.get("halted").and_then(|h| h.as_bool()) != Some(true) {
        return Err("did not halt".to_string());
    }
    let stat = |k: &str| v.get("stats").and_then(|s| s.get(k)).and_then(|c| c.as_u64());
    match (stat("committed"), stat("cycles")) {
        (Some(c), Some(cycles)) if c == committed => Ok(cycles),
        (got, _) => Err(format!("committed {got:?}, the functional machine gives {committed}")),
    }
}

/// Records one request as a root span with its client phases as
/// children, all sharing the request's id.
fn record_request(tr: &Tracer, parent: u64, x: &Exchange, kind: Kind) {
    let req = tr.id();
    let root = Span {
        id: req,
        parent,
        name: if matches!(kind, Kind::Hit(_)) { "serve.hit" } else { "serve.miss" },
        start_ns: tr.at(x.start),
        end_ns: tr.at(x.done),
        req,
    };
    let phases = [
        ("serve.connect", x.start, x.connected),
        ("serve.head", x.connected, x.head),
        ("serve.body", x.head, x.done),
    ];
    for (name, a, b) in phases {
        if name == "serve.connect" && !x.reconnected {
            continue;
        }
        tr.record(Span { id: tr.id(), parent: req, name, start_ns: tr.at(a), end_ns: tr.at(b), req });
    }
    tr.record(root);
}

/// The scraped server counters the traced run reports.
pub fn scrape(addr: SocketAddr) -> Result<std::collections::BTreeMap<String, f64>, String> {
    let text = get(addr, "/metrics")?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .filter_map(|(k, v)| v.trim().parse::<f64>().ok().map(|v| (k.to_string(), v)))
        .collect())
}
