//! Fault isolation and resume, end to end: an injected fault degrades
//! exactly one cell to a structured failure row while every other cell
//! produces numbers; the failure dump round-trips the JSON validator;
//! and a `--resume` over the dump directory completes the matrix
//! bit-identical to an uninterrupted single-worker run.

use std::path::{Path, PathBuf};

use vpir_bench::matrix::{
    run_benches_jobs, run_matrix_outcome, build_programs, InjectFault, MatrixConfig,
    RunOptions,
};
use vpir_bench::perf::REQUIRED_KEYS;
use vpir_bench::state;
use vpir_jsonlite::{parse_json, validate_json};
use vpir_workloads::{Bench, Scale};

/// Small enough for debug-mode CI, large enough that every configuration
/// commits work and the VP/IR structures see real traffic.
fn tiny() -> MatrixConfig {
    MatrixConfig {
        scale: Scale::of(1),
        max_cycles: 30_000,
        limit_insts: 6_000,
    }
}

/// A scratch directory inside the workspace `target/` tree, wiped at
/// the start of each test so reruns are clean.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/scratch")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn injected_wedge_degrades_one_cell_and_spares_the_rest() {
    let benches = [Bench::Go];
    let cfg = tiny();
    let progs = build_programs(&benches, cfg.scale);
    let dump = scratch("wedge-one-cell");
    let opts = RunOptions {
        dump_dir: Some(dump.clone()),
        resume: false,
        inject_fault: Some(InjectFault::parse("go/ir_late").expect("target")),
    };

    let outcome = run_matrix_outcome(&benches, &progs, cfg, 4, &opts);
    assert_eq!(outcome.total_jobs, 22);
    assert_eq!(outcome.completed_jobs, 21, "21 valid cells out of 22");
    assert_eq!(outcome.failures.len(), 1);
    assert!(outcome.matrix.is_none(), "a failed cell means no full matrix");

    let failure = &outcome.failures[0];
    assert_eq!(failure.bench, "go");
    assert_eq!(failure.config, "ir_late");
    assert_eq!(failure.kind, "livelock", "a wedged commit stage livelocks");

    // The failure dump exists, is well-formed JSON, and embeds the
    // simulator's diagnostic snapshot (ROB state, retired ring).
    let dump_path = failure.dump_path.as_ref().expect("dump enabled");
    let text = std::fs::read_to_string(dump_path).expect("failure dump written");
    validate_json(&text, &["schema", "job_index", "bench", "config", "kind", "error", "sim_error"])
        .expect("failure dump is valid JSON");
    assert!(text.contains(state::FAILURE_SCHEMA));
    assert!(text.contains("\"snapshot\""), "snapshot embedded: {text}");
    assert!(text.contains("\"last_retired\""), "retired ring embedded");

    // Every healthy cell left a reloadable job file; the failed cell
    // left none.
    for i in 0..22 {
        let loaded = state::load_job(&dump, i);
        if i == failure.job_index {
            assert!(loaded.is_none(), "failed cell must not persist a result");
        } else {
            assert!(loaded.is_some(), "cell {i} persisted");
        }
    }
}

#[test]
fn resume_completes_a_faulted_run_bit_identical_to_sequential() {
    let benches = [Bench::Go, Bench::Compress];
    let cfg = tiny();
    let progs = build_programs(&benches, cfg.scale);
    let dump = scratch("resume-bit-identical");

    // First pass: wedge one Compress cell; 43 of 44 cells persist.
    let faulted = RunOptions {
        dump_dir: Some(dump.clone()),
        resume: false,
        inject_fault: Some(InjectFault::parse("compress/magic:ME-SB:vl1").expect("target")),
    };
    let first = run_matrix_outcome(&benches, &progs, cfg, 4, &faulted);
    assert_eq!(first.failures.len(), 1);
    assert_eq!(first.completed_jobs, 43);

    // Second pass: resume without the fault. Only the one missing cell
    // re-executes; the 43 persisted cells reload exactly.
    let resume = RunOptions {
        dump_dir: Some(dump.clone()),
        resume: true,
        inject_fault: None,
    };
    let second = run_matrix_outcome(&benches, &progs, cfg, 4, &resume);
    assert!(second.fully_completed(), "resume fills the failed cell");
    assert_eq!(second.resumed_jobs, 43);
    assert_eq!(second.completed_jobs, 44);

    // The resumed matrix is bit-identical to an uninterrupted
    // single-worker run: persistence must be invisible in the results.
    let fresh = run_benches_jobs(&benches, cfg, 1);
    assert_eq!(
        second.matrix.expect("complete"),
        fresh,
        "resume must reproduce the uninterrupted jobs=1 matrix bit for bit"
    );
}

#[test]
fn an_injected_panic_is_contained_by_the_worker_boundary() {
    let benches = [Bench::Compress];
    let cfg = tiny();
    let progs = build_programs(&benches, cfg.scale);

    let opts = RunOptions {
        dump_dir: None,
        resume: false,
        inject_fault: Some(InjectFault::parse("compress/base:panic").expect("target")),
    };
    let outcome = run_matrix_outcome(&benches, &progs, cfg, 2, &opts);
    assert_eq!(outcome.failures.len(), 1, "exactly the targeted cell fails");
    let failure = &outcome.failures[0];
    assert_eq!(failure.kind, "panic");
    assert!(failure.error.contains("injected fault"), "{}", failure.error);
    assert!(failure.dump_path.is_none(), "no dump dir, no dump path");
    assert_eq!(outcome.completed_jobs, 21, "the other 21 cells still ran");
}

#[test]
fn sim_error_json_round_trips_the_validator() {
    // The core crate emits its diagnostic snapshots as std-only JSON;
    // jsonlite owns the JSON grammar. Tie them together:
    // a real watchdog error's serialized form must both pass the
    // grammar validator and parse into a value exposing the snapshot.
    use vpir_core::{CoreConfig, FaultInjection, RunLimits, Simulator};
    use vpir_isa::asm;

    let prog = asm::assemble(
        "       li   r1, 50000
         loop:  addi r2, r2, 1
                addi r1, r1, -1
                bne  r1, r0, loop
                halt",
    )
    .expect("assemble");
    let mut cfg = CoreConfig::table1();
    cfg.fault = FaultInjection::CommitStall { after_commits: 20 };
    cfg.watchdog_cycles = 500;
    let mut sim = Simulator::new(&prog, cfg);
    let err = sim
        .run_checked(RunLimits::unbounded())
        .expect_err("injected wedge");

    let json = err.to_json();
    validate_json(&json, &["kind", "cycle", "message", "snapshot"])
        .expect("SimError JSON is grammatical");
    let value = parse_json(&json).expect("parses as a value");
    let snapshot = value.get("snapshot").expect("snapshot present");
    assert!(snapshot.get("last_retired").is_some());
    assert_eq!(
        snapshot.get("committed").and_then(|v| v.as_u64()),
        Some(20)
    );
}

#[test]
fn v2_report_json_validates_and_carries_the_failure_row() {
    let cfg = tiny();
    let dump = scratch("v2-report");
    let opts = RunOptions {
        dump_dir: Some(dump),
        resume: false,
        inject_fault: Some(InjectFault::parse("go/limit").expect("target")),
    };
    let (outcome, perf) =
        vpir_bench::run_matrix_timed_opts(&[Bench::Go], cfg, 2, false, &opts);
    assert_eq!(outcome.failures.len(), 1);

    let json = perf.to_json();
    validate_json(&json, REQUIRED_KEYS).expect("v2 schema validates");
    assert!(json.contains("vpir-bench-matrix-v2"));
    assert!(json.contains("\"config\": \"limit\""));
    assert!(json.contains("\"completed_jobs\": 21"));
    assert!(perf.summary().contains("1 of 22 cells FAILED"));
}
