//! Wall-clock measurement of the matrix runner.
//!
//! Runs the (benchmark × configuration) matrix under the work-queue
//! scheduler while timing each phase, and serialises the result as
//! `BENCH_matrix.json` so the repo carries a perf trajectory from PR to
//! PR. `vpir_jsonlite::JsonObj` writes it (the workspace carries no
//! serde); [`vpir_jsonlite::validate_json`] is used by the CLI and CI
//! to confirm the emitted file is well-formed.

use std::time::Instant;

use vpir_jsonlite::{json_str, line_array, parse_json, pretty_array, JsonObj, JsonValue};
use vpir_workloads::Bench;

use crate::matrix::{
    build_programs, default_jobs, run_bench, run_matrix_outcome, JobFailure, Matrix,
    MatrixConfig, MatrixOutcome, RunOptions,
};

/// Timings and rates for one measured matrix run.
#[derive(Debug, Clone)]
pub struct MatrixPerf {
    /// Workload scale (outer-loop multiplier).
    pub scale: u32,
    /// Per-run cycle cap.
    pub max_cycles: u64,
    /// Functional limit-study instruction cap.
    pub limit_insts: u64,
    /// Worker threads used.
    pub jobs: usize,
    /// The host's available parallelism at run time.
    pub available_parallelism: usize,
    /// Benchmarks run.
    pub benches: Vec<String>,
    /// Cycle-level simulator runs in the matrix.
    pub sim_runs: usize,
    /// Cells in the (benchmark × configuration) matrix.
    pub total_jobs: usize,
    /// Cells that produced a result (the rest degraded to failures).
    pub completed_jobs: usize,
    /// Cells that failed, in job order (empty on a clean run).
    pub failures: Vec<JobFailure>,
    /// Seconds spent building benchmark programs (single-threaded).
    pub build_seconds: f64,
    /// Seconds spent in the parallel simulate phase.
    pub simulate_seconds: f64,
    /// Total simulated cycles over every run.
    pub total_sim_cycles: u64,
    /// Simulated cycles per wall-clock second in the simulate phase.
    pub sim_cycles_per_sec: f64,
    /// Sequential comparison, when requested: `(seconds, speedup,
    /// bit_identical)`.
    pub sequential: Option<(f64, f64, bool)>,
}

/// Runs `benches` through the fault-isolated matrix runner with `jobs`
/// workers (`0` = default), timing each phase. With
/// `compare_sequential`, also runs the reference sequential runner and
/// records its time, the speedup, and whether the parallel result is
/// bit-identical to it.
///
/// Failed cells degrade to [`JobFailure`] rows in the perf record (and
/// `outcome.matrix` is `None`); every other cell still produces
/// numbers. On a failed run the cycle totals are reported as zero —
/// they are only meaningful for a complete matrix. The sequential
/// comparison is skipped when any cell failed.
pub fn run_matrix_timed_opts(
    benches: &[Bench],
    cfg: MatrixConfig,
    jobs: usize,
    compare_sequential: bool,
    opts: &RunOptions,
) -> (MatrixOutcome, MatrixPerf) {
    let jobs = if jobs == 0 { default_jobs() } else { jobs };

    let t0 = Instant::now();
    let progs = build_programs(benches, cfg.scale);
    let build_seconds = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let outcome = run_matrix_outcome(benches, &progs, cfg, jobs, opts);
    let simulate_seconds = t1.elapsed().as_secs_f64();

    let sequential = match &outcome.matrix {
        Some(matrix) if compare_sequential => {
            let t2 = Instant::now();
            let seq: Result<Vec<_>, _> = benches.iter().map(|&b| run_bench(b, cfg)).collect();
            let seq_seconds = t2.elapsed().as_secs_f64();
            let speedup = if simulate_seconds > 0.0 {
                seq_seconds / simulate_seconds
            } else {
                0.0
            };
            Some((seq_seconds, speedup, seq.is_ok_and(|runs| runs == matrix.runs)))
        }
        _ => None,
    };

    let total_sim_cycles = outcome.matrix.as_ref().map_or(0, Matrix::total_sim_cycles);
    let sim_runs = outcome.matrix.as_ref().map_or(0, Matrix::sim_run_count);
    let perf = MatrixPerf {
        scale: cfg.scale.outer,
        max_cycles: cfg.max_cycles,
        limit_insts: cfg.limit_insts,
        jobs,
        available_parallelism: default_jobs(),
        benches: benches.iter().map(|b| b.name().to_string()).collect(),
        sim_runs,
        total_jobs: outcome.total_jobs,
        completed_jobs: outcome.completed_jobs,
        failures: outcome.failures.clone(),
        build_seconds,
        simulate_seconds,
        total_sim_cycles,
        sim_cycles_per_sec: if simulate_seconds > 0.0 {
            total_sim_cycles as f64 / simulate_seconds
        } else {
            0.0
        },
        sequential,
    };
    (outcome, perf)
}

impl MatrixPerf {
    /// Serialises to the `BENCH_matrix.json` schema.
    pub fn to_json(&self) -> String {
        let failures = self.failures.iter().map(|f| {
            let dump_path = f.dump_path.as_ref().map(|p| json_str(&p.to_string_lossy()));
            let dump_path = dump_path.as_deref().unwrap_or("null");
            f.json_row().raw("dump_path", dump_path).finish()
        });
        let (build, simulate) = (self.build_seconds, self.simulate_seconds);
        let phases = JsonObj::pretty()
            .raw("build_programs_seconds", &format!("{build:.6}"))
            .raw("simulate_seconds", &format!("{simulate:.6}"))
            .finish();
        let benches = line_array(self.benches.iter().map(|b| json_str(b)));
        let mut doc = JsonObj::pretty()
            .s("schema", "vpir-bench-matrix-v2")
            .u("scale", self.scale.into())
            .u("max_cycles", self.max_cycles)
            .u("limit_insts", self.limit_insts)
            .u("jobs", self.jobs as u64)
            .u("available_parallelism", self.available_parallelism as u64)
            .raw("benches", &benches)
            .u("sim_runs", self.sim_runs as u64)
            .u("total_jobs", self.total_jobs as u64)
            .u("completed_jobs", self.completed_jobs as u64)
            .raw("failures", &pretty_array(failures))
            .raw("phases", &phases)
            .u("total_sim_cycles", self.total_sim_cycles)
            .raw(
                "sim_cycles_per_sec",
                &format!("{:.1}", self.sim_cycles_per_sec),
            );
        if let Some((secs, speedup, identical)) = self.sequential {
            let sequential = JsonObj::pretty()
                .raw("run_seconds", &format!("{secs:.6}"))
                .raw("speedup", &format!("{speedup:.2}"))
                .b("bit_identical", identical)
                .finish();
            doc = doc.raw("sequential", &sequential);
        }
        doc.finish() + "\n"
    }

    /// A one-line human summary for the CLI.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "matrix: {} sim runs, jobs={} ({} available), build {:.2}s, simulate {:.2}s, {:.2}M sim cycles/s",
            self.sim_runs,
            self.jobs,
            self.available_parallelism,
            self.build_seconds,
            self.simulate_seconds,
            self.sim_cycles_per_sec / 1e6,
        );
        if let Some((secs, speedup, identical)) = self.sequential {
            line.push_str(&format!(
                "; sequential {:.2}s, speedup {:.2}x, bit-identical: {}",
                secs, speedup, identical
            ));
        }
        if !self.failures.is_empty() {
            line.push_str(&format!(
                "; {} of {} cells FAILED",
                self.failures.len(),
                self.total_jobs
            ));
        }
        line
    }
}

// ----------------------------------------------------------------
// Cycle-rate tracking (`vpir bench --cycle-rate`).
// ----------------------------------------------------------------

/// A focused cycles/sec measurement, serialised as `BENCH_cycles.json`.
///
/// The matrix report mixes build, limit-study, and simulate phases; the
/// cycle-rate record isolates the raw cycle-level simulation rate so
/// the perf trajectory can be tracked — and gated — separately from
/// matrix wall-clock. `sim_cycles_per_sec` is stored as an integer
/// because the workspace JSON parser (`vpir-jsonlite`) is deliberately
/// u64-only; sub-cycle/sec precision is far below measurement noise.
#[derive(Debug, Clone)]
pub struct CycleRate {
    /// Workload scale (outer-loop multiplier).
    pub scale: u32,
    /// Per-run cycle cap.
    pub max_cycles: u64,
    /// Worker threads used.
    pub jobs: usize,
    /// Cycle-level simulator runs measured.
    pub sim_runs: usize,
    /// Total simulated cycles over every run.
    pub total_sim_cycles: u64,
    /// Seconds spent in the simulate phase.
    pub simulate_seconds: f64,
    /// Simulated cycles per wall-clock second, rounded to an integer.
    pub sim_cycles_per_sec: u64,
}

/// The top-level keys `BENCH_cycles.json` must carry.
pub const CYCLES_REQUIRED_KEYS: &[&str] = &[
    "schema",
    "scale",
    "max_cycles",
    "jobs",
    "sim_runs",
    "total_sim_cycles",
    "sim_cycles_per_sec",
];

/// Runs the matrix and distils the cycle-rate record from it.
///
/// Fails (instead of reporting a zero rate) when any cell fails — a
/// partial matrix measures a different workload mix, so gating on it
/// would compare incomparable numbers.
pub fn measure_cycle_rate(
    benches: &[Bench],
    cfg: MatrixConfig,
    jobs: usize,
) -> Result<CycleRate, String> {
    let (outcome, perf) = run_matrix_timed_opts(benches, cfg, jobs, false, &RunOptions::default());
    outcome.into_matrix().map_err(|e| format!("cycle-rate run failed: {e}"))?;
    Ok(CycleRate {
        scale: perf.scale,
        max_cycles: perf.max_cycles,
        jobs: perf.jobs,
        sim_runs: perf.sim_runs,
        total_sim_cycles: perf.total_sim_cycles,
        simulate_seconds: perf.simulate_seconds,
        sim_cycles_per_sec: perf.sim_cycles_per_sec.round() as u64,
    })
}

impl CycleRate {
    /// Serialises to the `BENCH_cycles.json` schema (v1).
    pub fn to_json(&self) -> String {
        JsonObj::pretty()
            .s("schema", "vpir-bench-cycles-v1")
            .u("scale", self.scale.into())
            .u("max_cycles", self.max_cycles)
            .u("jobs", self.jobs as u64)
            .u("sim_runs", self.sim_runs as u64)
            .u("total_sim_cycles", self.total_sim_cycles)
            .u(
                "simulate_milliseconds",
                (self.simulate_seconds * 1e3).round() as u64,
            )
            .u("sim_cycles_per_sec", self.sim_cycles_per_sec)
            .finish()
            + "\n"
    }

    /// A one-line human summary for the CLI.
    pub fn summary(&self) -> String {
        format!(
            "cycle-rate: {} sim runs, jobs={}, {} cycles in {:.2}s = {:.2}M sim cycles/s",
            self.sim_runs,
            self.jobs,
            self.total_sim_cycles,
            self.simulate_seconds,
            self.sim_cycles_per_sec as f64 / 1e6,
        )
    }

    /// Gates this measurement against a committed `BENCH_cycles.json`
    /// through [`Gated::gate`].
    pub fn gate(&self, baseline_json: &str, max_regression_pct: u64) -> Result<String, String> {
        CYCLE_RATE_GATE.gate(self.sim_cycles_per_sec, baseline_json, max_regression_pct)
    }
}

/// The metric `vpir bench --cycle-rate --baseline` gates on.
const CYCLE_RATE_GATE: Gated = Gated {
    name: "cycle-rate",
    schema: "vpir-bench-cycles-v1",
    key: "sim_cycles_per_sec",
    unit: "cycles/s",
};

/// An integer metric of a committed benchmark document that a fresh
/// run is gated on.
#[derive(Debug, Clone, Copy)]
pub struct Gated {
    /// The verdict's name for the metric.
    pub name: &'static str,
    /// The document's `schema` value.
    pub schema: &'static str,
    /// The gated key.
    pub key: &'static str,
    /// The metric's unit, as the verdict prints it.
    pub unit: &'static str,
}

impl Gated {
    /// Parses `json`, checks its schema and returns the document with
    /// its integer metric. `what` names the document in errors.
    pub fn read(&self, json: &str, what: &str) -> Result<(JsonValue, u64), String> {
        let doc = parse_json(json).map_err(|e| format!("{what} is not valid JSON: {e}"))?;
        match doc.get("schema").and_then(JsonValue::as_str) {
            Some(schema) if schema == self.schema => {}
            other => return Err(format!("{what} schema is {other:?}, expected {:?}", self.schema)),
        }
        let value = doc
            .get(self.key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("{what} has no integer {}", self.key))?;
        Ok((doc, value))
    }

    /// The regression gate: compares `current` with the metric of the
    /// committed `baseline_json`. Returns a human-readable comparison
    /// on success and an error when `current` has regressed more than
    /// `max_regression_pct` percent below the baseline (improvements
    /// and small regressions pass). The threshold assumes the baseline
    /// was recorded on comparable hardware; CI pins the canonical
    /// container for exactly that reason.
    pub fn gate(
        &self,
        current: u64,
        baseline_json: &str,
        max_regression_pct: u64,
    ) -> Result<String, String> {
        let (name, unit) = (self.name, self.unit);
        let (_, baseline) = self.read(baseline_json, "baseline")?;
        if baseline == 0 {
            return Err(format!("baseline {} is zero", self.key));
        }
        let floor = baseline.saturating_mul(100 - max_regression_pct.min(100)) / 100;
        let ratio = current as f64 / baseline as f64;
        if current < floor {
            return Err(format!(
                "{name} regression: {current} {unit} is {:.1}% of the {baseline} {unit} \
                 baseline (gate allows {max_regression_pct}% regression, floor {floor})",
                ratio * 100.0
            ));
        }
        Ok(format!(
            "{name} gate: {current} {unit} vs baseline {baseline} ({:+.1}%), within \
             {max_regression_pct}%",
            (ratio - 1.0) * 100.0
        ))
    }
}

/// The top-level keys `BENCH_matrix.json` must carry.
pub const REQUIRED_KEYS: &[&str] = &[
    "schema",
    "scale",
    "max_cycles",
    "limit_insts",
    "jobs",
    "available_parallelism",
    "benches",
    "sim_runs",
    "total_jobs",
    "completed_jobs",
    "failures",
    "phases",
    "total_sim_cycles",
    "sim_cycles_per_sec",
];

#[cfg(test)]
mod tests {
    use super::*;
    use vpir_jsonlite::{parse_json, validate_json};

    #[test]
    fn emitted_json_is_well_formed() {
        let perf = MatrixPerf {
            scale: 2,
            max_cycles: 1000,
            limit_insts: 100,
            jobs: 4,
            available_parallelism: 8,
            benches: vec!["go".to_string(), "gcc".to_string()],
            sim_runs: 40,
            total_jobs: 40,
            completed_jobs: 39,
            failures: vec![JobFailure {
                job_index: 12,
                bench: "go".to_string(),
                config: "ir_late".to_string(),
                kind: "livelock".to_string(),
                error: "no commit for 5000 cycles".to_string(),
                dump_path: Some(std::path::PathBuf::from("dump/job-012-failure.json")),
            }],
            build_seconds: 0.125,
            simulate_seconds: 1.5,
            total_sim_cycles: 123456,
            sim_cycles_per_sec: 82304.0,
            sequential: Some((3.0, 2.0, true)),
        };
        validate_json(&perf.to_json(), REQUIRED_KEYS).expect("valid");
        let no_seq = MatrixPerf {
            sequential: None,
            ..perf
        };
        validate_json(&no_seq.to_json(), REQUIRED_KEYS).expect("valid");
        // Grammar-level validator tests live with the checker in
        // crates/jsonlite; this test covers the emitter/schema pairing.
    }

    fn rate(cps: u64) -> CycleRate {
        CycleRate {
            scale: 1,
            max_cycles: 2_000_000,
            jobs: 1,
            sim_runs: 133,
            total_sim_cycles: 10_000_000,
            simulate_seconds: 8.0,
            sim_cycles_per_sec: cps,
        }
    }

    #[test]
    fn cycles_json_is_well_formed_and_round_trips() {
        let json = rate(1_250_000).to_json();
        validate_json(&json, CYCLES_REQUIRED_KEYS).expect("valid");
        let doc = parse_json(&json).expect("parseable");
        assert_eq!(
            doc.get("sim_cycles_per_sec").and_then(|v| v.as_u64()),
            Some(1_250_000)
        );
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("vpir-bench-cycles-v1")
        );
    }

    #[test]
    fn gate_passes_within_threshold_and_on_improvement() {
        let baseline = rate(1_000_000).to_json();
        // 5% down: inside a 10% gate.
        assert!(rate(950_000).gate(&baseline, 10).is_ok());
        // Exactly at the floor passes.
        assert!(rate(900_000).gate(&baseline, 10).is_ok());
        // Improvements always pass.
        let up = rate(2_500_000).gate(&baseline, 10).expect("passes");
        assert!(up.contains("+150.0%"), "{up}");
    }

    #[test]
    fn gate_fails_past_threshold() {
        let baseline = rate(1_000_000).to_json();
        let err = rate(899_999).gate(&baseline, 10).expect_err("regressed");
        assert!(err.contains("regression"), "{err}");
        assert!(err.contains("floor 900000"), "{err}");
    }

    #[test]
    fn gate_rejects_malformed_baselines() {
        assert!(rate(1).gate("not json", 10).is_err());
        // Wrong schema.
        let wrong = "{\"schema\": \"vpir-bench-matrix-v2\", \"sim_cycles_per_sec\": 5}";
        assert!(rate(1).gate(wrong, 10).unwrap_err().contains("schema"));
        // Missing or zero rate.
        let none = "{\"schema\": \"vpir-bench-cycles-v1\"}";
        assert!(rate(1).gate(none, 10).is_err());
        let zero = "{\"schema\": \"vpir-bench-cycles-v1\", \"sim_cycles_per_sec\": 0}";
        assert!(rate(1).gate(zero, 10).is_err());
    }
}
