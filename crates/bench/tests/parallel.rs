//! The work-queue scheduler must be invisible in the results: a matrix
//! run with any `--jobs` value is bit-identical to the sequential runner,
//! because every job is an independent simulation and reassembly follows
//! the fixed job order, not completion order.

use vpir_bench::matrix::{run_bench, run_benches_jobs, MatrixConfig};
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

#[test]
fn parallel_matrix_is_bit_identical_to_sequential() {
    let benches = [Bench::Go, Bench::Compress];
    let cfg = tiny();
    let seq = run_benches_jobs(&benches, cfg, 1);
    let par = run_benches_jobs(&benches, cfg, 4);
    assert_eq!(seq, par, "jobs=4 must reproduce jobs=1 bit for bit");
}

#[test]
fn scheduler_matches_the_plain_sequential_runner() {
    let cfg = tiny();
    let direct = run_bench(Bench::Go, cfg).expect("every cell runs");
    // More workers than the 22 jobs one benchmark yields: idle threads
    // must exit cleanly without disturbing the result order.
    let scheduled = run_benches_jobs(&[Bench::Go], cfg, 64);
    assert_eq!(scheduled.runs.len(), 1);
    assert_eq!(direct, scheduled.runs[0]);
}
