//! The traced run: one traced pass of every workload, so that every
//! layer's numbers come from one run, plus an untraced pass of the
//! named workload for the tracing overhead. Spans come from the
//! benchmark's own calls into each layer.

use std::path::Path;

use vpir_testkit::Rng;

use crate::report::{max, median, ratio, Metric, Tally};
use crate::run::{miss_pool_size, Outcome};
use crate::serve;
use crate::sim::{self, Counts, FAMILIES};
use crate::trace::{durations_s, self_time_by_layer, span, total_s, Span, Tracer, NONE};
use crate::Workload;

/// Layers whose self time the traced run reports.
const LAYERS: [&str; 6] = ["workloads", "isa", "core", "redundancy", "bench", "serve"];

/// Traced families passes. Each run's host cost is its fastest pass, as
/// in the untraced run; on `families`, as many untraced passes are
/// interleaved with them for the overhead ratio.
const FAMILY_PASSES: usize = 3;

/// Builds the programs several times under `workloads.build` spans.
fn traced_builds(tr: &Tracer, parent: u64) -> Vec<vpir_isa::Program> {
    let mut progs = Vec::new();
    for _ in 0..5 {
        progs = span(Some(tr), "workloads.build", parent, |_| sim::build_programs()).0;
    }
    progs
}

pub fn run(workload: Workload, seconds: f64, seed: u64, workers: usize, trace_path: &Path) -> Outcome {
    let tr = Tracer::new();
    let mut tally = Tally::default();
    let mut metrics = Vec::new();
    let mut notes = Vec::new();
    let golden = sim::golden_digests();
    let progs = traced_builds(&tr, NONE);

    // families: traced passes, checked like the untraced run.
    let (fam, fam_wall) = span(Some(&tr), "run.families", NONE, |root| {
        let refs: Result<Vec<_>, _> = progs
            .iter()
            .map(|p| span(Some(&tr), "isa.machine", root, |_| sim::reference(p)).0)
            .collect();
        let mut traced = Vec::new();
        let mut plain = Vec::new();
        for _ in 0..FAMILY_PASSES {
            traced.push(sim::family_pass(&progs, Some(&tr), root));
            if workload == Workload::Families {
                plain.push(sim::family_pass(&progs, None, NONE));
            }
        }
        (refs, traced, plain)
    });
    let (refs, traced, plain) = fam;
    match refs {
        Ok(refs) => {
            let root = span(Some(&tr), "run.families_check", NONE, |id| id).0;
            for pass in &traced {
                sim::check_family_pass(pass, &refs, &golden, &mut tally, Some(&tr), root);
            }
        }
        Err(e) => tally.check(Err(e)),
    }
    metrics.extend(core_metrics(&traced));

    // matrix: build plus the traced scheduler pass.
    let ((cells, sched_wall, failures), matrix_wall) = span(Some(&tr), "run.matrix", NONE, |root| {
        let progs = span(Some(&tr), "workloads.build", root, |_| sim::build_programs()).0;
        sim::traced_matrix_pass(&progs, workers, &tr, root)
    });
    for _ in 0..cells.len() {
        tally.check(Ok(()));
    }
    for f in failures {
        tally.check(Err(f));
    }
    let check_root = span(Some(&tr), "run.matrix_check", NONE, |id| id).0;
    let serialized = sim::serialize_cells(&cells, Some(&tr), check_root);
    sim::check_golden(&serialized, &golden, &mut tally);
    let traced_fp = sim::fingerprint(&serialized);
    notes.push(format!("traced matrix fingerprint {traced_fp:016x}"));

    // serve-mixed: a traced set-up and a few traced passes.
    let serve_seconds = (seconds / 4.0).max(2.0);
    let served = serve_part(&tr, seed, workers, serve_seconds, workload == Workload::ServeMixed, &mut tally);

    // The untraced pass of the named workload, for the overhead ratio.
    let overhead = match workload {
        Workload::Families => {
            let total = |passes: &[sim::FamilyPass]| sim::fastest_runs(passes).iter().map(|(_, s)| s).sum::<f64>();
            ratio(total(&traced), total(&plain))
        }
        Workload::Matrix => {
            let untraced = sim::matrix_pass(&progs, workers);
            let fp = sim::fingerprint(&sim::serialize_cells(&untraced.cells, None, NONE));
            if fp != traced_fp {
                tally.fail(format!("traced matrix fingerprint {traced_fp:016x} differs from untraced {fp:016x}"));
            }
            ratio(sched_wall, untraced.wall_s)
        }
        Workload::ServeMixed => served.as_ref().map_or(f64::NAN, |s| s.overhead),
    };

    let spans = tr.spans();
    metrics.extend(matrix_metrics(&spans, workers, matrix_wall, &mut tally));
    metrics.push(Metric::new(
        "bench.stats_to_json_us",
        "us",
        median(&durations_s(&spans, "bench.stats_to_json")) * 1e6,
        durations_s(&spans, "bench.stats_to_json").len(),
    ));
    let builds = durations_s(&spans, "workloads.build");
    metrics.push(Metric::new("workloads.build_s", "s", median(&builds), builds.len()));
    match served {
        Some(s) => metrics.extend(s.metrics),
        None => tally.fail("the traced service run did not complete".to_string()),
    }
    metrics.push(Metric::new("trace.overhead_ratio", "ratio", overhead, 0));
    let by_layer = self_time_by_layer(&spans);
    for layer in LAYERS {
        metrics.push(Metric::new(&format!("{layer}.self_s"), "s", by_layer.get(layer).copied().unwrap_or(0.0), 0));
    }
    notes.push(format!(
        "{FAMILY_PASSES} traced families passes {fam_wall:.3} s; matrix traced wall {matrix_wall:.3} s"
    ));
    match crate::trace::write_jsonl(trace_path, &spans) {
        Ok(()) => notes.push(format!("{} spans written to {}", spans.len(), trace_path.display())),
        Err(e) => notes.push(format!("spans not written to {}: {e}", trace_path.display())),
    }
    metrics.sort_by_key(|m| order(&m.name));
    Outcome { metrics, detail: Vec::new(), notes, tally }
}

/// Per-family host cost of the core (each run at its fastest pass), the
/// mechanisms' cost over the base machine, and the simulated counts,
/// from the traced families passes.
fn core_metrics(passes: &[sim::FamilyPass]) -> Vec<Metric> {
    let mut run_s = [0.0f64; 4];
    let mut counts: [Counts; 4] = Default::default();
    for (c, _) in sim::fastest_runs(passes) {
        run_s[c.family] += c.run_s;
        counts[c.family].add(&c.stats);
    }
    let mut out = Vec::new();
    let ns_per_cycle: Vec<f64> =
        (0..4).map(|f| ratio(run_s[f] * 1e9, counts[f].cycles as f64)).collect();
    let n = passes.len();
    for (f, (fam, _)) in FAMILIES.iter().enumerate() {
        out.push(Metric::new(&format!("core.{fam}.ns_per_cycle"), "ns", ns_per_cycle[f], n));
        out.push(Metric::new(
            &format!("core.{fam}.ns_per_commit"),
            "ns",
            ratio(run_s[f] * 1e9, counts[f].committed as f64),
            n,
        ));
        if f > 0 {
            out.push(Metric::new(
                &format!("mechanism.{fam}.overhead_ns_per_cycle"),
                "ns",
                ns_per_cycle[f] - ns_per_cycle[0],
                n,
            ));
        }
    }
    let news: Vec<f64> = passes.iter().flat_map(|p| &p.cells).map(|c| c.new_s * 1e6).collect();
    out.push(Metric::new("core.new_us", "us", median(&news), news.len()));
    out.extend(sim::simulated_metrics(&counts));
    out
}

/// The scheduler's account of the traced matrix pass. Worker-seconds
/// split into cells, limit studies and idle time (`workers × wall −
/// Σ cells`); with the build they must add up to the traced wall time.
fn matrix_metrics(spans: &[Span], workers: usize, matrix_wall: f64, tally: &mut Tally) -> Vec<Metric> {
    let sched = total_s(spans, "bench.matrix");
    let cells = durations_s(spans, "bench.cell");
    let cells_s: f64 = cells.iter().sum();
    let limit_s = total_s(spans, "redundancy.limit");
    let root = spans.iter().find(|s| s.name == "run.matrix").map_or(NONE, |s| s.id);
    let build_s: f64 = spans
        .iter()
        .filter(|s| s.parent == root && s.name == "workloads.build")
        .map(|s| s.dur_ns() as f64 * 1e-9)
        .sum();
    let idle_s = workers as f64 * sched - cells_s;
    let parts = build_s + (cells_s + idle_s) / workers as f64;
    let gap = (matrix_wall - parts).abs() / matrix_wall;
    if idle_s < 0.0 || gap > 0.01 {
        tally.fail(format!(
            "matrix spans do not add up: build {build_s:.4} + (cells {cells_s:.4} + idle {idle_s:.4}) / {workers} \
             = {parts:.4} s against a traced wall of {matrix_wall:.4} s"
        ));
    }
    vec![
        Metric::new("redundancy.limit_s", "s", limit_s, durations_s(spans, "redundancy.limit").len()),
        Metric::new("bench.matrix.busy_ratio", "ratio", cells_s / (workers as f64 * sched), cells.len()),
        Metric::new("bench.matrix.longest_cell_s", "s", max(&cells), cells.len()),
    ]
}

struct Served {
    metrics: Vec<Metric>,
    overhead: f64,
}

/// Traced service passes, with the server's own counters scraped
/// around them. With `compare`, as many untraced passes follow for the
/// overhead ratio.
fn serve_part(
    tr: &Tracer,
    seed: u64,
    conns: usize,
    seconds: f64,
    compare: bool,
    tally: &mut Tally,
) -> Option<Served> {
    let root = span(Some(tr), "run.serve", NONE, |id| id).0;
    let (service, _) = match serve::start(Some(tr), root) {
        Ok(s) => s,
        Err(e) => {
            tally.check(Err(e));
            return None;
        }
    };
    let size = miss_pool_size(seconds) * if compare { 2 } else { 1 };
    let pool = match serve::miss_pool(seed, size, Some(tr), root) {
        Ok((p, _)) => p,
        Err(e) => {
            tally.check(Err(e));
            service.stop();
            return None;
        }
    };
    let mut rng = Rng::new(seed);
    let mut next_miss = 0;
    let before = serve::scrape(service.addr);
    let lp = serve::run_passes(&service, &pool, &mut next_miss, &mut rng, conns, seconds, Some(tr), root, tally);
    let after = serve::scrape(service.addr);
    let overhead = if compare {
        let plain = serve::run_passes(&service, &pool, &mut next_miss, &mut rng, conns, seconds, None, NONE, tally);
        ratio(median(&lp.pass_walls), median(&plain.pass_walls))
    } else {
        f64::NAN
    };
    service.stop();
    let (before, after) = match (before, after) {
        (Ok(b), Ok(a)) => (b, a),
        (Err(e), _) | (_, Err(e)) => {
            tally.fail(e);
            return None;
        }
    };
    let delta = |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);

    for s in &lp.samples {
        let parts = s.connect_s + s.head_s + s.gap_s;
        if (parts - s.total_s).abs() > 1e-6 * s.total_s.max(1e-3) {
            tally.fail(format!("client phases {parts} s do not add up to the latency {} s", s.total_s));
        }
    }
    let phase = |hit: bool, f: fn(&serve::Sample) -> f64| -> (f64, usize) {
        let v: Vec<f64> = lp.samples.iter().filter(|s| s.hit == hit).map(|s| f(s) * 1e6).collect();
        (median(&v), v.len())
    };
    let connects: Vec<f64> = lp.samples.iter().filter(|s| s.reconnected).map(|s| s.connect_s * 1e6).collect();
    let mut metrics = vec![Metric::new("serve.connect_us", "us", median(&connects), connects.len())];
    for (kind, hit) in [("hit", true), ("miss", false)] {
        let (head, n) = phase(hit, |s| s.head_s);
        let (gap, _) = phase(hit, |s| s.gap_s);
        metrics.push(Metric::new(&format!("serve.{kind}.head_us"), "us", head, n));
        metrics.push(Metric::new(&format!("serve.{kind}.body_gap_us"), "us", gap, n));
    }
    let gauge = |k: &str| after.get(k).copied().unwrap_or(f64::NAN);
    metrics.push(Metric::new("serve.server.run_p50_us", "us", gauge("vpir_latency_run_p50_micros"), 0));
    metrics.push(Metric::new("serve.server.run_p99_us", "us", gauge("vpir_latency_run_p99_micros"), 0));
    let hits = delta("vpir_cache_hits_total");
    metrics.push(Metric::new(
        "serve.cache.hit_ratio",
        "ratio",
        ratio(hits, hits + delta("vpir_cache_misses_total")),
        0,
    ));
    metrics.push(Metric::new("serve.shed_503", "count", delta("vpir_responses_rejected_total"), 0));
    Some(Served { metrics, overhead })
}

/// Reporting order: the order of `BENCHMARK.json`'s `per_layer` list.
fn order(name: &str) -> usize {
    crate::PER_LAYER.iter().position(|n| *n == name).unwrap_or(usize::MAX)
}
