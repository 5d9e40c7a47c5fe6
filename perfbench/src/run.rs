//! The untraced runs: one per workload, each measuring end-to-end
//! metrics for `--seconds` and checking every output.
//!
//! The host this runs on is shared: a neighbour's load can make the
//! same simulation take twice as long for a second at a time, and the
//! thread's CPU time stretches with its wall time, so it is not lost to
//! preemption that could be subtracted. Interference only ever adds
//! time. The CPU-bound workloads (`matrix`, `families`) therefore
//! report each unit of work at its fastest repetition in the run; the
//! service workload, whose passes are dominated by socket waits,
//! reports its median pass.

use std::time::Instant;

use vpir_isa::Program;
use vpir_testkit::Rng;

use crate::report::{max, median, peak_rss_mb, percentile, ratio, Metric, Tally};
use crate::serve::{self, Service};
use crate::sim::{self, Counts, FAMILIES};

/// Program builds before each pass of `matrix` and `families`, and
/// service set-ups per run of `serve-mixed`; `setup_s` is their median.
/// A build takes under a millisecond, so builds are spread over the run
/// rather than all timed in one burst that a moment of host contention
/// could cover.
const BUILDS_PER_PASS: usize = 5;
const SERVE_SETUP_REPEATS: usize = 7;

/// Miss programs generated per second of measurement: about two and a
/// half times today's miss rate. A run whose pool runs out ends its
/// measurement early.
const MISSES_PER_SECOND: f64 = 60.0;

/// What a run measured: the end-to-end metrics every workload reports
/// (the contract's result line) and the workload's own detail.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    pub detail: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    fn failed(mut tally: Tally, why: String) -> Outcome {
        tally.check(Err(why));
        Outcome { tally, metrics: Vec::new(), detail: Vec::new(), notes: Vec::new() }
    }
}

/// Builds the programs [`BUILDS_PER_PASS`] times, adding each build's
/// time to `times`.
fn timed_builds(times: &mut Vec<f64>) -> Vec<Program> {
    let mut progs = Vec::new();
    for _ in 0..BUILDS_PER_PASS {
        let t = Instant::now();
        progs = sim::build_programs();
        times.push(t.elapsed().as_secs_f64());
    }
    progs
}

/// The metrics every workload reports, in `BENCHMARK.json` order, from
/// the wall time of one pass and the work a pass does.
fn end_to_end(wall_s: f64, passes: usize, setup_s: f64, cycles_per_pass: f64, ops_per_pass: f64) -> Vec<Metric> {
    vec![
        Metric::new("wall_s", "s", wall_s, passes),
        Metric::new("setup_s", "s", setup_s, 0),
        Metric::new("sim_cycles_per_s", "cycles/s", ratio(cycles_per_pass, wall_s), passes),
        Metric::new("requests_per_s", "1/s", ratio(ops_per_pass, wall_s), passes),
        Metric::new("peak_rss_mb", "MiB", peak_rss_mb(), 0),
    ]
}

/// Fails the run when a pass's fingerprint differs from the first's.
fn check_fingerprint(first: &mut Option<u64>, fp: u64, tally: &mut Tally) {
    match *first {
        None => *first = Some(fp),
        Some(f) if f == fp => {}
        Some(f) => tally.fail(format!("simulated fingerprint changed between passes: {f:016x} -> {fp:016x}")),
    }
}

fn family_counts(cells: &[(vpir_workloads::Bench, String, sim::CellOut)]) -> [Counts; 4] {
    let mut per_family: [Counts; 4] = Default::default();
    for (_, label, out) in cells {
        if let (Some(f), sim::CellOut::Stats(s)) = (FAMILIES.iter().position(|(_, l)| l == label), out) {
            per_family[f].add(s);
        }
    }
    per_family
}

/// Repeats the matrix until `seconds` have passed. `wall_s` is the
/// fastest pass.
pub fn matrix(seconds: f64, workers: usize) -> Outcome {
    let golden = sim::golden_digests();
    let mut tally = Tally::default();
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let (mut cycles, mut ops) = (0u64, 0usize);
    let mut first_fp = None;
    let mut counts = Default::default();
    let started = Instant::now();
    while walls.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let progs = timed_builds(&mut setups);
        let pass = sim::matrix_pass(&progs, workers);
        walls.push(pass.wall_s);
        ops = pass.total_jobs;
        for _ in 0..pass.total_jobs - pass.failures.len() {
            tally.check(Ok(()));
        }
        for f in pass.failures {
            tally.check(Err(f));
        }
        if !pass.cells.is_empty() {
            let serialized = sim::serialize_cells(&pass.cells, None, 0);
            sim::check_golden(&serialized, &golden, &mut tally);
            check_fingerprint(&mut first_fp, sim::fingerprint(&serialized), &mut tally);
            cycles = sim::cell_cycles(&pass.cells);
            counts = family_counts(&pass.cells);
        }
    }
    let mut detail = vec![Metric::new("error_rate", "ratio", tally.error_rate(), tally.attempted as usize)];
    detail.extend(sim::simulated_metrics(&counts));
    let fastest = walls.iter().copied().fold(f64::INFINITY, f64::min);
    Outcome {
        metrics: end_to_end(fastest, walls.len(), median(&setups), cycles as f64, ops as f64),
        detail,
        notes: vec![
            format!("{workers} workers, {} passes of {ops} cells: {walls:.3?} s", walls.len()),
            format!("fingerprint {:016x} (every cell's stats JSON)", first_fp.unwrap_or(0)),
        ],
        tally,
    }
}

/// Repeats the families pass until `seconds` have passed.
/// Each of the 28 runs is taken at its fastest in the run; `wall_s` is
/// their sum.
pub fn families(seconds: f64) -> Outcome {
    let golden = sim::golden_digests();
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let progs = timed_builds(&mut setups);
    let refs: Vec<sim::Reference> = match progs.iter().map(sim::reference).collect() {
        Ok(r) => r,
        Err(e) => return Outcome::failed(tally, e),
    };
    let mut fastest = vec![f64::INFINITY; FAMILIES.len() * progs.len()];
    let mut cycles = vec![0u64; fastest.len()];
    let mut counts: [Counts; 4] = Default::default();
    let mut first_fp = None;
    let mut passes = 0;
    let started = Instant::now();
    while passes == 0 || started.elapsed().as_secs_f64() < seconds {
        if passes > 0 {
            timed_builds(&mut setups);
        }
        let pass = sim::family_pass(&progs, None, 0);
        passes += 1;
        let serialized = sim::check_family_pass(&pass, &refs, &golden, &mut tally, None, 0);
        check_fingerprint(&mut first_fp, sim::fingerprint(&serialized), &mut tally);
        counts = Default::default();
        for (i, c) in pass.cells.iter().enumerate() {
            fastest[i] = fastest[i].min(c.new_s + c.run_s);
            cycles[i] = c.stats.cycles;
            counts[c.family].add(&c.stats);
        }
    }
    let per_run = progs.len();
    let mut detail: Vec<Metric> = FAMILIES
        .iter()
        .enumerate()
        .map(|(f, (fam, _))| {
            let cells = f * per_run..(f + 1) * per_run;
            let c: u64 = cycles[cells.clone()].iter().sum();
            let s: f64 = fastest[cells].iter().sum();
            Metric::new(&format!("{fam}_cycles_per_s"), "cycles/s", ratio(c as f64, s), passes)
        })
        .collect();
    detail.push(Metric::new("error_rate", "ratio", tally.error_rate(), tally.attempted as usize));
    detail.extend(sim::simulated_metrics(&counts));
    let wall_s: f64 = fastest.iter().sum();
    let total_cycles: u64 = cycles.iter().sum();
    Outcome {
        metrics: end_to_end(wall_s, passes, median(&setups), total_cycles as f64, fastest.len() as f64),
        detail,
        notes: vec![
            format!("1 thread, {passes} passes of {} runs", fastest.len()),
            format!("fingerprint {:016x} (every run's stats JSON)", first_fp.unwrap_or(0)),
        ],
        tally,
    }
}

/// Starts the service `SERVE_SETUP_REPEATS` times, stopping all but the
/// last; returns it with the median set-up time.
pub fn serve_setups() -> Result<(Service, f64), String> {
    let mut times = Vec::new();
    let mut service: Option<Service> = None;
    for _ in 0..SERVE_SETUP_REPEATS {
        let (s, t) = serve::start(None, 0)?;
        times.push(t);
        if let Some(old) = service.replace(s) {
            old.stop();
        }
    }
    Ok((service.expect("at least one set-up"), median(&times)))
}

pub fn miss_pool_size(seconds: f64) -> usize {
    ((seconds * MISSES_PER_SECOND).ceil() as usize).max(serve::PER_CONN * 8)
}

/// Latency percentiles of one request kind, from raw samples.
pub fn latency_detail(kind: &str, lat_s: &[f64], tally: &mut Tally) -> Vec<Metric> {
    let ms: Vec<f64> = lat_s.iter().map(|s| s * 1e3).collect();
    let (p50, p90, top) = (percentile(&ms, 0.5), percentile(&ms, 0.9), max(&ms));
    if !(p50 <= p90 && p90 <= top) {
        tally.fail(format!("{kind} percentiles out of order: p50 {p50} p90 {p90} max {top}"));
    }
    vec![
        Metric::new(&format!("{kind}_p50_ms"), "ms", p50, ms.len()),
        Metric::new(&format!("{kind}_p90_ms"), "ms", p90, ms.len()),
        Metric::new(&format!("{kind}_max_ms"), "ms", top, ms.len()),
    ]
}

/// Drives service passes until `seconds` have passed. `wall_s` is the
/// median pass.
pub fn serve_mixed(seconds: f64, seed: u64, conns: usize) -> Outcome {
    let mut tally = Tally::default();
    let (service, setup_s) = match serve_setups() {
        Ok(s) => s,
        Err(e) => return Outcome::failed(tally, e),
    };
    let (pool, left_out) = match serve::miss_pool(seed, miss_pool_size(seconds), None, 0) {
        Ok(p) => p,
        Err(e) => {
            service.stop();
            return Outcome::failed(tally, e);
        }
    };
    let mut rng = Rng::new(seed);
    let mut next_miss = 0;
    let lp = serve::run_passes(&service, &pool, &mut next_miss, &mut rng, conns, seconds, None, 0, &mut tally);
    service.stop();
    let passes = lp.pass_walls.len();
    let cycles: u64 = lp.samples.iter().map(|s| s.sim_cycles).sum();
    let lat = |hit: bool| lp.samples.iter().filter(|s| s.hit == hit).map(|s| s.total_s).collect::<Vec<_>>();
    let per_pass = conns * serve::PER_CONN;
    let mut detail = latency_detail("hit", &lat(true), &mut tally);
    detail.extend(latency_detail("miss", &lat(false), &mut tally));
    detail.push(Metric::new("error_rate", "ratio", tally.error_rate(), tally.attempted as usize));
    detail.push(Metric::new("shed_503", "count", lp.shed as f64, 0));
    Outcome {
        metrics: end_to_end(
            median(&lp.pass_walls),
            passes,
            setup_s,
            cycles as f64 / passes.max(1) as f64,
            per_pass as f64,
        ),
        detail,
        notes: vec![format!(
            "closed loop, {conns} keep-alive connections, {passes} passes of {per_pass} requests, \
             {next_miss} of {} pooled misses used; {left_out} generated programs left out because the \
             simulator disagrees with the functional machine on them",
            pool.len()
        )],
        tally,
    }
}
