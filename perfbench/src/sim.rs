//! The simulator workloads: `families` (one thread, one machine family
//! at a time over every bench) and `matrix` (the full configuration ×
//! bench matrix on the work-queue scheduler), with the correctness
//! gates and simulated-statistics fingerprints both share.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use vpir_bench::golden::{fnv1a64, GOLDEN_LABELS};
use vpir_bench::matrix::{config_labels, parse_vp_label, run_matrix_outcome, Matrix, RunOptions};
use vpir_bench::state::{limit_to_json, stats_to_json};
use vpir_bench::{config_for_label, MatrixConfig};
use vpir_core::{RunLimits, SimStats, Simulator};
use vpir_isa::{Machine, Program, Reg};
use vpir_jsonlite::parse_json;
use vpir_mechanism::registry::rtb_configs;
use vpir_redundancy::{analyze, LimitConfig, LimitStudy};
use vpir_workloads::Bench;

use crate::report::{ratio, Metric, Tally};
use crate::trace::{span, Tracer};

/// The four machine families and the configuration label that stands
/// for each.
pub const FAMILIES: [(&str, &str); 4] =
    [("base", "base"), ("vp", "magic:ME-SB:vl1"), ("ir", "ir_early"), ("rtb", "rtb:t8")];

/// The recorded golden digests, keyed by (bench, config label).
const GOLDEN_FIXTURE: &str = include_str!("../../crates/bench/tests/fixtures/golden_digests.json");

/// Every cell runs at the quick matrix scale, the scale the golden
/// digests were recorded at.
pub fn matrix_config() -> MatrixConfig {
    MatrixConfig::quick()
}

/// Builds the seven Table 2 stand-ins (the `workloads` layer).
pub fn build_programs() -> Vec<Program> {
    vpir_bench::matrix::build_programs(&Bench::ALL, matrix_config().scale)
}

pub fn golden_digests() -> BTreeMap<(String, String), u64> {
    let doc = parse_json(GOLDEN_FIXTURE).expect("the golden fixture is valid JSON");
    let cells = doc.get("cells").and_then(|c| c.as_arr()).expect("the golden fixture has cells");
    cells
        .iter()
        .map(|c| {
            let field = |k: &str| c.get(k).and_then(|v| v.as_str()).expect("golden cell field");
            let digest = u64::from_str_radix(field("digest"), 16).expect("hex golden digest");
            ((field("bench").to_string(), field("config").to_string()), digest)
        })
        .collect()
}

/// What the functional `Machine` commits for a program: the reference
/// every cycle-level run must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    pub committed: u64,
    pub r20: u64,
}

/// Runs the program to `halt` on the functional `Machine`.
pub fn reference(prog: &Program) -> Result<Reference, String> {
    let mut m = Machine::new(prog);
    m.run(100_000_000).map_err(|e| format!("reference run failed: {e:?}"))?;
    if !m.halted {
        return Err("reference run did not halt".to_string());
    }
    Ok(Reference { committed: m.icount, r20: m.regs.read(Reg::int(20)) })
}

/// Sums of the simulated counters the per-layer ratios are built from.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub cycles: u64,
    pub committed: u64,
    squashes: u64,
    fu_requests: u64,
    fu_denials: u64,
    branches: u64,
    branch_mispredicts: u64,
    dcache_misses: u64,
    dcache_accesses: u64,
    icache_misses: u64,
    icache_accesses: u64,
    result_producers: u64,
    result_predicted: u64,
    result_pred_correct: u64,
    rb_hits: u64,
    rb_tests: u64,
    rb_invalidations: u64,
    rtb_reused: u64,
    rtb_replays: u64,
    rtb_aborted: u64,
}

impl Counts {
    pub fn add(&mut self, s: &SimStats) {
        self.cycles += s.cycles;
        self.committed += s.committed;
        self.squashes += s.squashes;
        self.fu_requests += s.fu_requests;
        self.fu_denials += s.fu_denials;
        self.branches += s.branches;
        self.branch_mispredicts += s.branch_mispredicts;
        self.dcache_misses += s.dcache.misses + s.dcache.mshr_merges;
        self.dcache_accesses += s.dcache.accesses();
        self.icache_misses += s.icache.misses + s.icache.mshr_merges;
        self.icache_accesses += s.icache.accesses();
        self.result_producers += s.result_producers;
        self.result_predicted += s.result_predicted;
        self.result_pred_correct += s.result_pred_correct;
        self.rb_hits += s.rb.full_reuses + s.rb.addr_reuses;
        self.rb_tests += s.rb.full_reuses + s.rb.addr_reuses + s.rb.misses;
        self.rb_invalidations += s.rb.reg_invalidations + s.rb.mem_invalidations;
        self.rtb_reused += s.rtb.committed_reused;
        self.rtb_replays += s.rtb.replays;
        self.rtb_aborted += s.rtb.aborted;
    }

    fn per_kinst(&self, n: u64) -> f64 {
        ratio(n as f64 * 1000.0, self.committed as f64)
    }
}

/// The simulated-count metrics, from per-family sums over every bench.
/// They are identity checks on a deterministic model, not measurements.
pub fn simulated_metrics(per_family: &[Counts; 4]) -> Vec<Metric> {
    let mut out = Vec::new();
    for ((fam, _), c) in FAMILIES.iter().zip(per_family) {
        let r = |a: u64, b: u64| ratio(a as f64, b as f64);
        out.push(Metric::new(&format!("core.{fam}.ipc"), "inst/cycle", r(c.committed, c.cycles), 0));
        out.push(Metric::new(&format!("core.{fam}.squashes_per_kinst"), "1/kinst", c.per_kinst(c.squashes), 0));
        out.push(Metric::new(&format!("core.{fam}.fu_denial_ratio"), "ratio", r(c.fu_denials, c.fu_requests), 0));
        out.push(Metric::new(
            &format!("branch.{fam}.dir_accuracy"),
            "ratio",
            1.0 - r(c.branch_mispredicts, c.branches),
            0,
        ));
        out.push(Metric::new(&format!("mem.{fam}.dcache_miss_ratio"), "ratio", r(c.dcache_misses, c.dcache_accesses), 0));
        out.push(Metric::new(&format!("mem.{fam}.icache_miss_ratio"), "ratio", r(c.icache_misses, c.icache_accesses), 0));
    }
    let [_, vp, ir, rtb] = per_family;
    let r = |a: u64, b: u64| ratio(a as f64, b as f64);
    out.push(Metric::new("predict.vp.correct_ratio", "ratio", r(vp.result_pred_correct, vp.result_predicted), 0));
    out.push(Metric::new("predict.vp.coverage_ratio", "ratio", r(vp.result_predicted, vp.result_producers), 0));
    out.push(Metric::new("reuse.ir.hit_ratio", "ratio", r(ir.rb_hits, ir.rb_tests), 0));
    out.push(Metric::new("reuse.ir.invalidations_per_kinst", "1/kinst", ir.per_kinst(ir.rb_invalidations), 0));
    out.push(Metric::new("mechanism.rtb.reused_ratio", "ratio", r(rtb.rtb_reused, rtb.committed), 0));
    out.push(Metric::new("mechanism.rtb.abort_ratio", "ratio", r(rtb.rtb_aborted, rtb.rtb_replays), 0));
    out
}

/// Digest over a list of serialized cells, in order.
pub fn fingerprint(cells: &[(Bench, String, String)]) -> u64 {
    let mut all = String::new();
    for (bench, label, json) in cells {
        all.push_str(bench.name());
        all.push('/');
        all.push_str(label);
        all.push('=');
        all.push_str(json);
        all.push('\n');
    }
    fnv1a64(all.as_bytes())
}

/// Compares every golden-labelled cell against its recorded digest.
pub fn check_golden(
    cells: &[(Bench, String, String)],
    golden: &BTreeMap<(String, String), u64>,
    tally: &mut Tally,
) {
    for (bench, label, json) in cells.iter().filter(|(_, l, _)| GOLDEN_LABELS.contains(&l.as_str())) {
        let key = (bench.name().to_string(), label.clone());
        let got = fnv1a64(json.as_bytes());
        match golden.get(&key) {
            Some(&want) if want == got => {}
            want => tally.fail(format!(
                "golden digest mismatch for {}/{label}: got {got:016x}, recorded {want:016x?}",
                bench.name()
            )),
        }
    }
}

// ----------------------------------------------------------------
// families
// ----------------------------------------------------------------

/// One family × bench simulation.
#[derive(Debug, Clone)]
pub struct FamilyCell {
    pub family: usize,
    pub bench: usize,
    pub stats: SimStats,
    pub halted: bool,
    pub r20: u64,
    pub error: Option<String>,
    pub new_s: f64,
    pub run_s: f64,
}

/// One pass: every family, in turn, over all seven benches.
#[derive(Debug, Clone)]
pub struct FamilyPass {
    pub cells: Vec<FamilyCell>,
}

/// Runs one families pass on the calling thread.
pub fn family_pass(progs: &[Program], tracer: Option<&Tracer>, parent: u64) -> FamilyPass {
    let limits = RunLimits::cycles(matrix_config().max_cycles);
    let (cells, _) = span(tracer, "run.families_pass", parent, |pass| {
        let mut cells = Vec::with_capacity(FAMILIES.len() * progs.len());
        for (family, (_, label)) in FAMILIES.iter().enumerate() {
            let config = config_for_label(label).expect("family labels are registry labels");
            for (bench, prog) in progs.iter().enumerate() {
                let (mut sim, new_s) =
                    span(tracer, "core.new", pass, |_| Simulator::new(prog, config.clone()));
                let (result, run_s) = span(tracer, "core.run", pass, |_| {
                    sim.run_checked(limits).map(|_| ()).map_err(|e| e.to_string())
                });
                cells.push(FamilyCell {
                    family,
                    bench,
                    stats: sim.stats().clone(),
                    halted: sim.halted(),
                    r20: sim.arch_regs().read(Reg::int(20)),
                    error: result.err(),
                    new_s,
                    run_s,
                });
            }
        }
        cells
    });
    FamilyPass { cells }
}

/// Each run of the passes at its fastest: the cell of the pass in which
/// construction plus run took least time, with that time.
pub fn fastest_runs(passes: &[FamilyPass]) -> Vec<(&FamilyCell, f64)> {
    let mut best: Vec<(&FamilyCell, f64)> = Vec::new();
    for pass in passes {
        for (i, c) in pass.cells.iter().enumerate() {
            let s = c.new_s + c.run_s;
            match best.get_mut(i) {
                Some(b) if b.1 <= s => {}
                Some(b) => *b = (c, s),
                None => best.push((c, s)),
            }
        }
    }
    best
}

/// Checks one pass after timing: every run halts and commits what the
/// functional machine commits, every cell matches its golden digest,
/// and the serialized cells are returned for the fingerprint.
pub fn check_family_pass(
    pass: &FamilyPass,
    refs: &[Reference],
    golden: &BTreeMap<(String, String), u64>,
    tally: &mut Tally,
    tracer: Option<&Tracer>,
    parent: u64,
) -> Vec<(Bench, String, String)> {
    let mut serialized = Vec::with_capacity(pass.cells.len());
    for c in &pass.cells {
        let bench = Bench::ALL[c.bench];
        let label = FAMILIES[c.family].1;
        let want = refs[c.bench];
        tally.check(if let Some(e) = &c.error {
            Err(format!("{}/{label}: simulator error: {e}", bench.name()))
        } else if !c.halted {
            Err(format!("{}/{label}: did not halt", bench.name()))
        } else if c.stats.committed != want.committed || c.r20 != want.r20 {
            Err(format!(
                "{}/{label}: committed {} r20 {:#x}, the functional machine gives {} r20 {:#x}",
                bench.name(),
                c.stats.committed,
                c.r20,
                want.committed,
                want.r20
            ))
        } else {
            Ok(())
        });
        let (json, _) = span(tracer, "bench.stats_to_json", parent, |_| stats_to_json(&c.stats));
        serialized.push((bench, label.to_string(), json));
    }
    check_golden(&serialized, golden, tally);
    serialized
}

// ----------------------------------------------------------------
// matrix
// ----------------------------------------------------------------

/// The result of one matrix cell.
#[derive(Debug, Clone)]
pub enum CellOut {
    Stats(SimStats),
    Limit(LimitStudy),
}

/// The serialized cells of an assembled matrix, in job order (bench,
/// then `config_labels()` order).
pub fn matrix_cells(m: &Matrix) -> Vec<(Bench, String, CellOut)> {
    let mut out = Vec::new();
    for runs in &m.runs {
        for label in config_labels() {
            let cell = match label.as_str() {
                "base" => CellOut::Stats(runs.base.clone()),
                "ir_early" => CellOut::Stats(runs.ir_early.clone()),
                "ir_late" => CellOut::Stats(runs.ir_late.clone()),
                "limit" => CellOut::Limit(runs.limit.clone()),
                l => match rtb_configs().into_iter().find(|c| c.label() == l) {
                    Some(c) => CellOut::Stats(runs.rtb[&c.max_len].clone()),
                    None => {
                        let key = parse_vp_label(l).expect("every other label is a VP label");
                        CellOut::Stats(runs.vp[&key].clone())
                    }
                },
            };
            out.push((runs.bench, label, cell));
        }
    }
    out
}

/// Serializes cells with the job-file JSON forms, timing each call.
pub fn serialize_cells(
    cells: &[(Bench, String, CellOut)],
    tracer: Option<&Tracer>,
    parent: u64,
) -> Vec<(Bench, String, String)> {
    cells
        .iter()
        .map(|(bench, label, out)| {
            let (json, _) = span(tracer, "bench.stats_to_json", parent, |_| match out {
                CellOut::Stats(s) => stats_to_json(s),
                CellOut::Limit(l) => limit_to_json(l),
            });
            (*bench, label.clone(), json)
        })
        .collect()
}

pub fn cell_cycles(cells: &[(Bench, String, CellOut)]) -> u64 {
    cells.iter().map(|(_, _, c)| if let CellOut::Stats(s) = c { s.cycles } else { 0 }).sum()
}

/// One untraced matrix pass through the repository's scheduler.
pub struct MatrixPass {
    pub wall_s: f64,
    pub total_jobs: usize,
    pub failures: Vec<String>,
    pub cells: Vec<(Bench, String, CellOut)>,
}

pub fn matrix_pass(progs: &[Program], workers: usize) -> MatrixPass {
    let (outcome, wall_s) = span(None, "bench.matrix", 0, |_| {
        run_matrix_outcome(&Bench::ALL, progs, matrix_config(), workers, &RunOptions::default())
    });
    let failures = outcome
        .failures
        .iter()
        .map(|f| format!("{}/{}: {} ({})", f.bench, f.config, f.error, f.kind))
        .collect();
    let cells = outcome.matrix.as_ref().map(matrix_cells).unwrap_or_default();
    MatrixPass { wall_s, total_jobs: outcome.total_jobs, failures, cells }
}

/// A traced matrix pass: the same flat job list and the same
/// atomic-cursor work queue as `run_matrix_outcome`, driven through the
/// public per-cell entry points so that every cell gets its own span
/// (`run_matrix_outcome` exposes no per-cell hook). Each worker's span
/// covers its whole claim loop, so its self time is its idle time.
pub fn traced_matrix_pass(
    progs: &[Program],
    workers: usize,
    tracer: &Tracer,
    parent: u64,
) -> (Vec<(Bench, String, CellOut)>, f64, Vec<String>) {
    let cfg = matrix_config();
    let labels = config_labels();
    let jobs: Vec<(usize, &str)> =
        (0..progs.len()).flat_map(|b| labels.iter().map(move |l| (b, l.as_str()))).collect();
    let slots: Vec<Mutex<Option<Result<CellOut, String>>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let ((), wall_s) = span(Some(tracer), "bench.matrix", parent, |matrix| {
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    span(Some(tracer), "bench.worker", matrix, |worker| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&(b, label)) = jobs.get(i) else { break };
                        let (out, _) = span(Some(tracer), "bench.cell", worker, |cell| {
                            run_cell(&progs[b], label, cfg, tracer, cell)
                        });
                        *slots[i].lock().expect("slot lock poisoned") = Some(out);
                    });
                });
            }
        });
    });
    let mut cells = Vec::with_capacity(jobs.len());
    let mut failures = Vec::new();
    for ((b, label), slot) in jobs.iter().zip(slots) {
        match slot.into_inner().expect("slot lock poisoned").expect("every job ran") {
            Ok(out) => cells.push((Bench::ALL[*b], label.to_string(), out)),
            Err(e) => failures.push(format!("{}/{label}: {e}", Bench::ALL[*b].name())),
        }
    }
    (cells, wall_s, failures)
}

fn run_cell(
    prog: &Program,
    label: &str,
    cfg: MatrixConfig,
    tracer: &Tracer,
    parent: u64,
) -> Result<CellOut, String> {
    if label == "limit" {
        let (study, _) = span(Some(tracer), "redundancy.limit", parent, |_| {
            analyze(prog, cfg.limit_insts, LimitConfig::default())
        });
        return Ok(CellOut::Limit(study));
    }
    let config = config_for_label(label).ok_or_else(|| format!("unknown label {label}"))?;
    let (mut sim, _) = span(Some(tracer), "core.new", parent, |_| Simulator::new(prog, config));
    let (result, _) = span(Some(tracer), "core.run", parent, |_| {
        sim.run_checked(RunLimits::cycles(cfg.max_cycles)).map(|_| ()).map_err(|e| e.to_string())
    });
    result.map(|()| CellOut::Stats(sim.stats().clone()))
}
