//! Byte pins for the bench crate's JSON documents: the failure dump,
//! `BENCH_matrix.json` and `BENCH_cycles.json`. Each rendering is
//! compared with a file under `tests/fixtures/emit/`, so a change to
//! quoting, separators, nesting or indentation fails here.

use std::path::PathBuf;

use vpir_bench::matrix::JobFailure;
use vpir_bench::perf::{CycleRate, MatrixPerf};
use vpir_bench::state::failure_to_json;
use vpir_core::{DiagSnapshot, RetiredInst, SimError};
use vpir_isa::Op;

fn pin(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/emit")
        .join(name);
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(actual, want, "{name}");
}

#[test]
fn failure_dump_bytes_are_pinned() {
    let err = SimError::Deadlock {
        cycle: 900,
        watchdog_cycles: 500,
        last_commit_cycle: 400,
        snapshot: Box::new(DiagSnapshot {
            cycle: 900,
            committed: 31,
            rob_capacity: 32,
            checkpoint_seqs: vec![33],
            fetch_pc: 8192,
            fetch_halted: true,
            last_retired: vec![RetiredInst {
                seq: 30,
                pc: 4100,
                op: Op::Halt,
                cycle: 400,
            }],
            ..DiagSnapshot::default()
        }),
    };
    let dump = failure_to_json(
        17,
        "go",
        "ir_late",
        err.kind(),
        &err.to_string(),
        Some(&err.to_json()),
    );
    pin("failure_sim_error.json", &dump);
    let dump = failure_to_json(
        3,
        "gcc",
        "magic:ME-SB:vl1",
        "panic",
        "injected fault: \"forced\" panic\nsecond line",
        None,
    );
    pin("failure_panic.json", &dump);
}

fn matrix_perf(failures: Vec<JobFailure>, sequential: Option<(f64, f64, bool)>) -> MatrixPerf {
    MatrixPerf {
        scale: 2,
        max_cycles: 1000,
        limit_insts: 100,
        jobs: 4,
        available_parallelism: 8,
        benches: vec!["go".to_string(), "gcc".to_string()],
        sim_runs: 40,
        total_jobs: 44,
        completed_jobs: 44 - failures.len(),
        failures,
        build_seconds: 0.125,
        simulate_seconds: 1.5,
        total_sim_cycles: 123456,
        sim_cycles_per_sec: 82304.0,
        sequential,
    }
}

#[test]
fn matrix_perf_bytes_are_pinned() {
    let failures = vec![
        JobFailure {
            job_index: 12,
            bench: "go".to_string(),
            config: "ir_late".to_string(),
            kind: "livelock".to_string(),
            error: "no commit for 5000 cycles".to_string(),
            dump_path: Some(PathBuf::from("dump/job-012-failure.json")),
        },
        JobFailure {
            job_index: 30,
            bench: "gcc".to_string(),
            config: "magic:ME-SB:vl1".to_string(),
            kind: "panic".to_string(),
            error: "worker \"3\" panicked\nat a\\b".to_string(),
            dump_path: None,
        },
    ];
    let seq = Some((3.0, 2.0, true));
    pin(
        "matrix_clean_seq.json",
        &matrix_perf(Vec::new(), seq).to_json(),
    );
    pin(
        "matrix_clean.json",
        &matrix_perf(Vec::new(), None).to_json(),
    );
    pin(
        "matrix_failed_seq.json",
        &matrix_perf(failures.clone(), seq).to_json(),
    );
    pin("matrix_failed.json", &matrix_perf(failures, None).to_json());
}

#[test]
fn cycle_rate_bytes_are_pinned() {
    let rate = CycleRate {
        scale: 1,
        max_cycles: 2_000_000,
        jobs: 1,
        sim_runs: 133,
        total_sim_cycles: 10_000_000,
        simulate_seconds: 8.0004,
        sim_cycles_per_sec: 1_249_937,
    };
    pin("cycles.json", &rate.to_json());
}
