//! Runs the full configuration × benchmark matrix.
//!
//! Every (benchmark × configuration) cell — base, the sixteen VP
//! configurations, IR with early and late validation, the trace-reuse
//! configurations, and the functional limit study — is named by its
//! registry label and run by [`run_cell`]. Cells are independent and
//! deterministic, so the matrix is executed by a work-queue scheduler
//! that fans the flat (benchmark × label) job list out over worker
//! threads and reassembles the results by label. The assembled
//! [`Matrix`] is bit-identical for every worker count (including one);
//! `tests/parallel.rs` locks that equivalence in.
//!
//! Jobs are fault-isolated: a panic or a structured [`SimError`] in one
//! cell degrades that cell to a [`JobFailure`] while every other cell
//! still produces numbers ([`run_matrix_outcome`]). With a dump
//! directory, finished jobs are persisted incrementally and a resumed
//! run re-executes only the missing or failed cells, reassembling a
//! matrix bit-identical to an uninterrupted one.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use vpir_core::{CoreConfig, FaultInjection, RunLimits, SimError, SimStats, Simulator};
use vpir_isa::Program;
use vpir_jsonlite::JsonObj;
use vpir_mechanism::registry;
use vpir_redundancy::{analyze, LimitConfig, LimitStudy};
use vpir_workloads::{Bench, Scale};

use crate::state::{self, JobPayload, JobRecord};

// The label vocabulary lives in the mechanism registry (one source for
// the matrix, `--inject-fault`, `vpir serve`, and the CLI); these
// re-exports keep the crate's historical API intact.
pub use vpir_mechanism::registry::{parse_vp_label, vp_keys, vp_label, VpKey};

/// How large a matrix run to perform.
#[derive(Debug, Clone, Copy)]
pub struct MatrixConfig {
    /// Workload scale.
    pub scale: Scale,
    /// Per-run cycle cap (the paper runs 200M cycles; scaled down here).
    pub max_cycles: u64,
    /// Dynamic-instruction cap for the functional limit study.
    pub limit_insts: u64,
}

impl MatrixConfig {
    /// Experiment scale: minutes of wall-clock for the full matrix.
    pub fn experiment() -> MatrixConfig {
        MatrixConfig {
            scale: Scale::experiment(),
            max_cycles: 20_000_000,
            limit_insts: 3_000_000,
        }
    }

    /// Quick scale for tests and `--quick` runs.
    pub fn quick() -> MatrixConfig {
        MatrixConfig {
            scale: Scale::test(),
            max_cycles: 2_000_000,
            limit_insts: 200_000,
        }
    }
}

/// Every simulator run for one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRuns {
    /// Which benchmark.
    pub bench: Bench,
    /// The base Table 1 machine.
    pub base: SimStats,
    /// All sixteen VP configurations, in [`vp_keys`] order (BTreeMap so
    /// report iteration is deterministic).
    pub vp: BTreeMap<VpKey, SimStats>,
    /// IR with early validation (the real mechanism).
    pub ir_early: SimStats,
    /// IR with validation deferred to execute (Figure 3).
    pub ir_late: SimStats,
    /// The trace-reuse configurations, keyed by trace length
    /// (`rtb:t4`, `rtb:t8`), in registry order.
    pub rtb: BTreeMap<usize, SimStats>,
    /// The Section 4.3 functional limit study.
    pub limit: LimitStudy,
}

impl BenchRuns {
    /// Speedup of `stats` over this benchmark's base run (IPC ratio).
    pub fn speedup(&self, stats: &SimStats) -> f64 {
        if self.base.ipc() == 0.0 {
            0.0
        } else {
            stats.ipc() / self.base.ipc()
        }
    }
}

/// The full matrix: one [`BenchRuns`] per benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Per-benchmark results, in Table 2 order.
    pub runs: Vec<BenchRuns>,
}

impl Matrix {
    /// Total simulated cycles over every run in the matrix (the
    /// numerator of the perf harness's cycles/sec figure).
    pub fn total_sim_cycles(&self) -> u64 {
        self.runs
            .iter()
            .map(|r| {
                r.base.cycles
                    + r.vp.values().map(|s| s.cycles).sum::<u64>()
                    + r.ir_early.cycles
                    + r.ir_late.cycles
                    + r.rtb.values().map(|s| s.cycles).sum::<u64>()
            })
            .sum()
    }

    /// Number of cycle-level simulator runs (excludes the functional
    /// limit studies).
    pub fn sim_run_count(&self) -> usize {
        self.runs.iter().map(|r| 3 + r.vp.len() + r.rtb.len()).sum()
    }
}

/// Runs one simulator configuration over one benchmark.
///
/// # Panics
///
/// Panics, naming the benchmark, if the run ends in a [`SimError`];
/// callers that want graceful degradation use [`run_cell`].
pub fn run_one(bench: Bench, scale: Scale, config: CoreConfig, max_cycles: u64) -> SimStats {
    let prog = bench.program(scale);
    let mut sim = Simulator::new(&prog, config);
    sim.run_checked(RunLimits::cycles(max_cycles))
        .unwrap_or_else(|e| panic!("{} run failed: {e}", bench.name()))
        .clone()
}

/// Runs everything needed for one benchmark, sequentially on the
/// calling thread. This is the reference implementation the work-queue
/// scheduler must bit-match.
pub fn run_bench(bench: Bench, cfg: MatrixConfig) -> Result<BenchRuns, SimError> {
    let prog = bench.program(cfg.scale);
    let mut cells = BTreeMap::new();
    for label in config_labels() {
        let out = run_cell(&prog, cfg, &label, false)?;
        cells.insert(label, out);
    }
    Ok(assemble_bench(bench, cells))
}

/// Every configuration label a matrix job can carry, in job order: the
/// registry's machine labels (`base`, the sixteen VP labels,
/// `ir_early`, `ir_late`, the RTB labels), then the functional `limit`
/// study. This is the vocabulary of `--inject-fault <bench>/<config>`
/// targets and of job files.
pub fn config_labels() -> Vec<String> {
    let mut labels = registry::machine_labels();
    labels.push("limit".to_string());
    labels
}

/// The simulator configuration behind a matrix label. `limit` has no
/// machine configuration (it is the functional limit study), and an
/// unknown label returns `None`. Resolution is delegated to the
/// mechanism registry so every consumer shares one vocabulary.
pub fn config_for_label(label: &str) -> Option<CoreConfig> {
    registry::enhancement_for_label(label).map(CoreConfig::with_enhancement)
}

/// Runs one matrix cell over a shared, immutable program: the limit
/// study for `limit`, otherwise the machine `label` names under
/// [`Simulator::run_checked`]. With `wedge`, the commit stage stalls
/// after 100 instructions so the forward-progress watchdog trips
/// (fault injection). An unknown label is a structured error.
pub fn run_cell(
    prog: &Program,
    cfg: MatrixConfig,
    label: &str,
    wedge: bool,
) -> Result<JobPayload, SimError> {
    if label == "limit" {
        if wedge {
            // The limit study is functional (no pipeline to wedge); an
            // injected fault still degrades it structurally.
            return Err(SimError::Internal {
                cycle: 0,
                what: "injected fault: the limit study has no commit stage to wedge".to_string(),
            });
        }
        return Ok(JobPayload::Limit(analyze(prog, cfg.limit_insts, LimitConfig::default())));
    }
    let mut core = config_for_label(label).ok_or_else(|| SimError::Internal {
        cycle: 0,
        what: format!("unknown configuration label `{label}`"),
    })?;
    if wedge {
        // A watchdog window short enough to trip within any budget.
        core.fault = FaultInjection::CommitStall { after_commits: 100 };
        core.watchdog_cycles = 5_000;
    }
    let mut sim = Simulator::new(prog, core);
    let stats = sim.run_checked(RunLimits::cycles(cfg.max_cycles))?;
    Ok(JobPayload::Stats(Box::new(stats.clone())))
}

impl JobPayload {
    fn into_stats(self) -> SimStats {
        match self {
            JobPayload::Stats(s) => *s,
            JobPayload::Limit(_) => unreachable!("job kind mismatch: expected stats"),
        }
    }

    fn into_limit(self) -> LimitStudy {
        match self {
            JobPayload::Limit(l) => l,
            JobPayload::Stats(_) => unreachable!("job kind mismatch: expected limit study"),
        }
    }
}

/// Reassembles one benchmark's results from its cells, keyed by
/// configuration label.
fn assemble_bench(bench: Bench, mut cells: BTreeMap<String, JobPayload>) -> BenchRuns {
    let mut take = |label: &str| cells.remove(label).expect("one cell per configuration label");
    let limit = take("limit").into_limit();
    let mut stats = |label: &str| take(label).into_stats();
    BenchRuns {
        bench,
        base: stats("base"),
        vp: vp_keys().into_iter().map(|key| (key, stats(&vp_label(key)))).collect(),
        ir_early: stats("ir_early"),
        ir_late: stats("ir_late"),
        rtb: registry::rtb_configs().into_iter().map(|c| (c.max_len, stats(&c.label()))).collect(),
        limit,
    }
}

// ----------------------------------------------------------------
// The work-queue scheduler.
// ----------------------------------------------------------------

/// The default worker count: the host's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Builds every benchmark's program at `scale` (the scheduler's
/// build phase, timed separately by the perf harness).
pub fn build_programs(benches: &[Bench], scale: Scale) -> Vec<Program> {
    benches.iter().map(|b| b.program(scale)).collect()
}

// ----------------------------------------------------------------
// Fault isolation, injection, and resumable persistence.
// ----------------------------------------------------------------

/// How an injected fault manifests inside the targeted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Wedge the simulated commit stage so the forward-progress
    /// watchdog trips with a full diagnostic snapshot (the default).
    Wedge,
    /// Panic inside the worker, exercising the `catch_unwind` boundary.
    Panic,
}

/// A deterministic fault targeted at one matrix cell (`--inject-fault`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectFault {
    /// Benchmark name, e.g. `"go"`.
    pub bench: String,
    /// Configuration label, e.g. `"base"` or `"magic:ME-SB:vl1"`.
    pub config: String,
    /// How the fault manifests.
    pub mode: FaultMode,
}

impl InjectFault {
    /// Parses a `<bench>/<config>[:panic|:wedge]` target spec, where
    /// `<bench>` names a workload and `<config>` is one of
    /// [`config_labels`].
    ///
    /// Config labels themselves contain `:` (e.g. `magic:ME-SB:vl1`),
    /// so the mode suffix is recognised only at the very end.
    pub fn parse(spec: &str) -> Result<InjectFault, String> {
        let (target, mode) = if let Some(t) = spec.strip_suffix(":panic") {
            (t, FaultMode::Panic)
        } else if let Some(t) = spec.strip_suffix(":wedge") {
            (t, FaultMode::Wedge)
        } else {
            (spec, FaultMode::Wedge)
        };
        let (bench, config) = target
            .split_once('/')
            .ok_or_else(|| format!("bad fault target `{spec}`: want <bench>/<config>[:panic|:wedge]"))?;
        if bench.is_empty() || config.is_empty() {
            return Err(format!("bad fault target `{spec}`: empty bench or config"));
        }
        // A target naming an unknown benchmark or configuration would
        // silently match no cell (the matrix would run clean and the
        // injection would be a no-op), so reject it, listing the valid
        // vocabulary.
        if Bench::parse(bench).is_none() {
            let names: Vec<&str> = Bench::ALL.iter().map(|b| b.name()).collect();
            return Err(format!("unknown bench `{bench}` (valid: {})", names.join(", ")));
        }
        let labels = config_labels();
        if !labels.iter().any(|l| l == config) {
            return Err(format!(
                "unknown inject_fault config `{config}` (valid: {})",
                labels.join(", ")
            ));
        }
        Ok(InjectFault {
            bench: bench.to_string(),
            config: config.to_string(),
            mode,
        })
    }
}

/// Options controlling fault isolation and persistence of a matrix run.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Directory for incremental per-job result files and failure
    /// dumps. `None` disables persistence.
    pub dump_dir: Option<PathBuf>,
    /// Reload completed job files from `dump_dir` and re-execute only
    /// the missing or failed cells.
    pub resume: bool,
    /// Inject a deterministic fault into one cell (CI hook).
    pub inject_fault: Option<InjectFault>,
}

/// One matrix cell that failed instead of producing numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Flat index in the matrix's fixed job order.
    pub job_index: usize,
    /// Benchmark name.
    pub bench: String,
    /// Configuration label.
    pub config: String,
    /// Failure class: a [`SimError`] kind, or `"panic"`.
    pub kind: String,
    /// Human-readable description.
    pub error: String,
    /// Where the failure dump was written, when persistence is on.
    pub dump_path: Option<PathBuf>,
}

impl JobFailure {
    /// The failure as a line-layout row, open for more members.
    pub fn json_row(&self) -> JsonObj {
        JsonObj::new()
            .u("job_index", self.job_index as u64)
            .s("bench", &self.bench)
            .s("config", &self.config)
            .s("kind", &self.kind)
            .s("error", &self.error)
    }
}

/// The result of a fault-isolated matrix run.
#[derive(Debug, Clone)]
pub struct MatrixOutcome {
    /// Number of cells in the matrix.
    pub total_jobs: usize,
    /// Cells that produced a result (freshly run or resumed).
    pub completed_jobs: usize,
    /// Cells reloaded from the dump directory instead of re-run.
    pub resumed_jobs: usize,
    /// Cells that failed, in job order.
    pub failures: Vec<JobFailure>,
    /// The assembled matrix — present only when every cell completed.
    pub matrix: Option<Matrix>,
}

impl MatrixOutcome {
    /// True when every cell produced a result.
    pub fn fully_completed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The assembled matrix, or a one-line summary of the failed cells:
    /// `N of M cells failed (first: bench/config: error)`.
    pub fn into_matrix(self) -> Result<Matrix, String> {
        match self.failures.first() {
            Some(first) => Err(format!(
                "{} of {} cells failed (first: {}/{}: {})",
                self.failures.len(),
                self.total_jobs,
                first.bench,
                first.config,
                first.error
            )),
            None => self.matrix.ok_or_else(|| "the matrix was not assembled".to_string()),
        }
    }
}

/// A job's slot once a worker (or the resume preload) has filled it.
enum SlotOut {
    Done(JobPayload),
    Failed {
        kind: String,
        error: String,
        sim_json: Option<String>,
    },
}

/// Runs one job behind a `catch_unwind` boundary: a panic (including an
/// injected one) or a structured [`SimError`] becomes a failed slot,
/// never a dead worker. Panic messages still reach stderr through the
/// default hook, which is intentional — the dump records the message,
/// the console shows the backtrace.
fn execute_job(
    prog: &Program,
    cfg: MatrixConfig,
    label: &str,
    inject: Option<&InjectFault>,
) -> SlotOut {
    let wedge = matches!(inject.map(|f| f.mode), Some(FaultMode::Wedge));
    let result = catch_unwind(AssertUnwindSafe(|| {
        if matches!(inject.map(|f| f.mode), Some(FaultMode::Panic)) {
            panic!("injected fault: forced worker panic for isolation testing");
        }
        run_cell(prog, cfg, label, wedge)
    }));
    match result {
        Ok(Ok(out)) => SlotOut::Done(out),
        Ok(Err(e)) => SlotOut::Failed {
            kind: e.kind().to_string(),
            error: e.to_string(),
            sim_json: Some(e.to_json()),
        },
        Err(payload) => SlotOut::Failed {
            kind: "panic".to_string(),
            error: panic_message(payload.as_ref()),
            sim_json: None,
        },
    }
}

/// The message a caught panic carries: its `&str` or `String` payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with non-string payload".to_string())
}

/// True when a reloaded job record was produced by this exact cell
/// under this exact matrix configuration.
fn record_matches(rec: &JobRecord, bench: Bench, cfg: MatrixConfig, label: &str) -> bool {
    matches!(rec.payload, JobPayload::Limit(_)) == (label == "limit")
        && rec.bench == bench.name()
        && rec.config == label
        && rec.scale == cfg.scale.outer
        && rec.max_cycles == cfg.max_cycles
        && rec.limit_insts == cfg.limit_insts
}

/// Persists a finished slot into the dump directory. Best-effort: an
/// I/O error here loses the persisted copy (so `--resume` would re-run
/// the cell) but never the in-memory result.
fn persist_slot(
    dir: &Path,
    job_index: usize,
    bench: Bench,
    label: &str,
    cfg: MatrixConfig,
    slot: &SlotOut,
) {
    match slot {
        SlotOut::Done(payload) => {
            let rec = JobRecord {
                job_index,
                bench: bench.name().to_string(),
                config: label.to_string(),
                scale: cfg.scale.outer,
                max_cycles: cfg.max_cycles,
                limit_insts: cfg.limit_insts,
                payload: payload.clone(),
            };
            let _ = state::write_job(dir, &rec);
            let _ = std::fs::remove_file(state::failure_path(dir, job_index));
        }
        SlotOut::Failed {
            kind,
            error,
            sim_json,
        } => {
            let out = state::failure_to_json(
                job_index,
                bench.name(),
                label,
                kind,
                error,
                sim_json.as_deref(),
            );
            let _ = std::fs::write(state::failure_path(dir, job_index), out);
            // A stale success from an earlier run must not mask this
            // failure when the directory is later resumed.
            let _ = std::fs::remove_file(state::job_path(dir, job_index));
        }
    }
}

/// Runs the matrix over prebuilt programs with `jobs` workers
/// (`jobs == 0` means [`default_jobs`]), fault-isolated per job.
///
/// Scheduling: the flat (benchmark × configuration label) job list is
/// consumed through a single atomic cursor; each worker claims the
/// next unclaimed job and writes its result into that job's dedicated
/// slot. Reassembly looks each benchmark's cells up by label, so the
/// output is independent of which worker ran which job and bit-matches
/// [`run_bench`] applied sequentially — including across a resume,
/// because each slot's counters round-trip exactly through its job
/// file.
pub fn run_matrix_outcome(
    benches: &[Bench],
    progs: &[Program],
    cfg: MatrixConfig,
    jobs: usize,
    opts: &RunOptions,
) -> MatrixOutcome {
    assert_eq!(benches.len(), progs.len(), "one program per benchmark");
    let labels = config_labels();
    let job_list: Vec<(usize, &str)> = (0..benches.len())
        .flat_map(|bi| labels.iter().map(move |l| (bi, l.as_str())))
        .collect();

    if let Some(dir) = &opts.dump_dir {
        let _ = std::fs::create_dir_all(dir);
    }

    let results: Vec<Mutex<Option<SlotOut>>> =
        job_list.iter().map(|_| Mutex::new(None)).collect();

    // Resume preload, single-threaded before any worker starts: a
    // reloaded cell fills its slot and is skipped by the claim loop.
    let mut resumed_jobs = 0usize;
    if opts.resume {
        if let Some(dir) = &opts.dump_dir {
            for (i, &(bi, label)) in job_list.iter().enumerate() {
                let Some(rec) = state::load_job(dir, i) else { continue };
                if !record_matches(&rec, benches[bi], cfg, label) {
                    continue;
                }
                *results[i].lock().expect("no poisoned preload") = Some(SlotOut::Done(rec.payload));
                resumed_jobs += 1;
            }
        }
    }

    let workers = if jobs == 0 { default_jobs() } else { jobs }
        .min(job_list.len())
        .max(1);
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&(bi, label)) = job_list.get(i) else { break };
                let resumed = results[i].lock().expect("no poisoned worker").is_some();
                if resumed {
                    continue;
                }
                let bench = benches[bi];
                let inject = opts
                    .inject_fault
                    .as_ref()
                    .filter(|f| f.bench == bench.name() && f.config == label);
                let slot = execute_job(&progs[bi], cfg, label, inject);
                if let Some(dir) = &opts.dump_dir {
                    persist_slot(dir, i, bench, label, cfg, &slot);
                }
                *results[i].lock().expect("no poisoned worker") = Some(slot);
            });
        }
    });

    // Collect: failures become report rows, successes feed reassembly.
    let mut failures = Vec::new();
    let mut cells: Vec<BTreeMap<String, JobPayload>> =
        benches.iter().map(|_| BTreeMap::new()).collect();
    for (i, (m, &(bi, label))) in results.into_iter().zip(&job_list).enumerate() {
        match m.into_inner().expect("workers done").expect("job ran") {
            SlotOut::Done(out) => {
                cells[bi].insert(label.to_string(), out);
            }
            SlotOut::Failed { kind, error, .. } => failures.push(JobFailure {
                job_index: i,
                bench: benches[bi].name().to_string(),
                config: label.to_string(),
                kind,
                error,
                dump_path: opts.dump_dir.as_ref().map(|d| state::failure_path(d, i)),
            }),
        }
    }

    let total_jobs = job_list.len();
    let completed_jobs = total_jobs - failures.len();
    let matrix = failures.is_empty().then(|| Matrix {
        runs: benches.iter().zip(cells).map(|(&bench, c)| assemble_bench(bench, c)).collect(),
    });

    MatrixOutcome {
        total_jobs,
        completed_jobs,
        resumed_jobs,
        failures,
        matrix,
    }
}

/// Runs the matrix over `benches` with `jobs` workers (`0` = default),
/// with no persistence and no injection.
///
/// # Panics
///
/// Panics if any cell fails; callers that want graceful degradation
/// use [`run_matrix_outcome`].
pub fn run_benches_jobs(benches: &[Bench], cfg: MatrixConfig, jobs: usize) -> Matrix {
    let progs = build_programs(benches, cfg.scale);
    run_matrix_outcome(benches, &progs, cfg, jobs, &RunOptions::default())
        .into_matrix()
        .unwrap_or_else(|e| panic!("matrix run failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpir_core::{BranchResolution, IrConfig, Reexecution, RtbConfig, Validation, VpKind};
    use vpir_mechanism::registry::vp_config;

    #[test]
    fn every_config_label_round_trips_to_its_configuration() {
        for label in config_labels() {
            let cfg = config_for_label(&label);
            match label.as_str() {
                "limit" => assert!(
                    cfg.is_none(),
                    "`limit` is the functional study, not a machine config"
                ),
                "base" => assert_eq!(cfg, Some(CoreConfig::table1())),
                "ir_early" => assert_eq!(cfg, Some(CoreConfig::with_ir(IrConfig::table1()))),
                "ir_late" => assert_eq!(
                    cfg,
                    Some(CoreConfig::with_ir(IrConfig {
                        validation: Validation::Late,
                        ..IrConfig::table1()
                    }))
                ),
                "rtb:t4" => assert_eq!(cfg, Some(CoreConfig::with_rtb(RtbConfig::t4()))),
                "rtb:t8" => assert_eq!(cfg, Some(CoreConfig::with_rtb(RtbConfig::t8()))),
                vp => {
                    let key = parse_vp_label(vp).expect("every other label is a VP label");
                    assert_eq!(vp_label(key), vp);
                    assert_eq!(cfg, Some(CoreConfig::with_vp(vp_config(key))));
                }
            }
        }
        for bad in ["", "basex", "magic:ME-SB", "magic:XX-SB:vl1", "vl1", "rtb:t5", "rtb:"] {
            assert!(config_for_label(bad).is_none(), "accepted `{bad}`");
        }
    }

    #[test]
    fn config_labels_match_the_registry_vocabulary() {
        // Every machine label the registry exposes is a matrix cell, in
        // the same order, plus the functional `limit` study at the end.
        let labels = config_labels();
        let (limit, machines) = labels.split_last().expect("nonempty");
        assert_eq!(machines, registry::machine_labels().as_slice());
        assert_eq!(limit, "limit");
    }

    #[test]
    fn vp_label_includes_kind_and_verify_latency() {
        let a = vp_label((VpKind::Magic, Reexecution::Me, BranchResolution::Sb, 0));
        let b = vp_label((VpKind::Lvp, Reexecution::Me, BranchResolution::Sb, 1));
        assert_eq!(a, "magic:ME-SB:vl0");
        assert_eq!(b, "lvp:ME-SB:vl1");
        assert_ne!(a, b, "kind/vl must disambiguate identical policies");
    }

    #[test]
    fn job_list_covers_every_config_once() {
        let labels = config_labels();
        assert_eq!(labels.len(), 22, "base + 16 VP + 2 IR + 2 RTB + limit");
        let uniq: std::collections::BTreeSet<&String> = labels.iter().collect();
        assert_eq!(uniq.len(), labels.len());
        for label in ["base", "ir_early", "ir_late", "rtb:t4", "rtb:t8", "limit"] {
            assert!(uniq.contains(&label.to_string()), "missing `{label}`");
        }
    }

    #[test]
    fn fault_targets_parse_with_and_without_modes() {
        let f = InjectFault::parse("go/ir_late").expect("parse");
        assert_eq!(
            f,
            InjectFault {
                bench: "go".to_string(),
                config: "ir_late".to_string(),
                mode: FaultMode::Wedge,
            }
        );
        // Config labels contain `:`, so the mode suffix binds last.
        let f = InjectFault::parse("gcc/magic:ME-SB:vl1:panic").expect("parse");
        assert_eq!(f.config, "magic:ME-SB:vl1");
        assert_eq!(f.mode, FaultMode::Panic);
        let f = InjectFault::parse("gcc/lvp:NME-NSB:vl0:wedge").expect("parse");
        assert_eq!(f.config, "lvp:NME-NSB:vl0");
        assert_eq!(f.mode, FaultMode::Wedge);

        assert!(InjectFault::parse("no-slash").is_err());
        assert!(InjectFault::parse("/config").is_err());
        assert!(InjectFault::parse("bench/").is_err());
        // Targets outside the bench or label vocabulary, with the texts
        // `/v1/matrix` answers in its 400 bodies.
        let e = InjectFault::parse("nope/base").expect_err("unknown bench");
        assert!(e.starts_with("unknown bench `nope` (valid: go, "), "{e}");
        let e = InjectFault::parse("go/warp").expect_err("unknown config");
        assert!(e.starts_with("unknown inject_fault config `warp` (valid: base, "), "{e}");
        assert!(e.ends_with(", limit)"), "{e}");
    }

    #[test]
    fn run_cell_reports_an_unknown_label_as_an_error() {
        let prog = vpir_isa::asm::assemble("halt").expect("assembles");
        let e = run_cell(&prog, MatrixConfig::quick(), "warp", false).expect_err("unknown");
        assert_eq!(e.kind(), "internal");
        assert!(e.to_string().contains("`warp`"), "{e}");
    }

    #[test]
    fn single_bench_runs_cover_all_configs() {
        let cfg = MatrixConfig {
            scale: Scale::of(1),
            max_cycles: 200_000,
            limit_insts: 50_000,
        };
        let runs = run_bench(Bench::Ijpeg, cfg).expect("every cell runs");
        assert!(runs.base.committed > 0);
        assert_eq!(runs.vp.len(), 16);
        assert!(runs.ir_early.committed > 0);
        assert_eq!(runs.rtb.len(), 2, "one cell per RTB configuration");
        for stats in runs.rtb.values() {
            assert!(stats.committed > 0, "RTB cells must make progress");
        }
        assert!(runs.limit.total > 0);
        assert!(runs.speedup(&runs.ir_early) > 0.1);
    }
}
