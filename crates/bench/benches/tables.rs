//! One group per paper table: each benchmark target runs the
//! simulations that regenerate the table's rows (at a reduced scale so
//! a `cargo bench` pass stays tractable) and reports the wall-clock
//! cost of reproducing it. Run `experiments <table>` for the
//! full-scale rows.
//!
//! Run with `cargo bench -p vpir-bench --features bench`.

use vpir_bench::matrix::{run_bench, run_one, MatrixConfig};
use vpir_bench::microbench::{black_box, group};
use vpir_bench::report;
use vpir_bench::Matrix;
use vpir_core::{BranchResolution, CoreConfig, IrConfig, Reexecution, VpConfig, VpKind};
use vpir_workloads::{Bench, Scale};

fn tiny() -> MatrixConfig {
    MatrixConfig {
        scale: Scale::of(1),
        max_cycles: 60_000,
        limit_insts: 30_000,
    }
}

/// Table 2 needs only the base machine per benchmark.
fn table2_base_characterization() {
    group("table2").bench("base_runs", || {
        for bench in [Bench::Go, Bench::Compress] {
            let s = run_one(bench, Scale::of(1), CoreConfig::table1(), 60_000);
            black_box((s.branch_pred_rate(), s.return_pred_rate()));
        }
    });
}

/// Table 3: IR + the two SB predictors.
fn table3_rates() {
    group("table3").bench("rate_runs", || {
        let bench = Bench::Compress;
        let ir = run_one(bench, Scale::of(1), CoreConfig::with_ir(IrConfig::table1()), 60_000);
        let vp = run_one(bench, Scale::of(1), CoreConfig::with_vp(VpConfig::magic()), 60_000);
        black_box((ir.reuse_addr_rate(), vp.vp_result_rate()))
    });
}

/// Table 4: squash counts under the SB configurations.
fn table4_spurious_squashes() {
    group("table4").bench("sb_squash_runs", || {
        let bench = Bench::Perl;
        let base = run_one(bench, Scale::of(1), CoreConfig::table1(), 60_000);
        let vp = VpConfig {
            kind: VpKind::Lvp,
            reexecution: Reexecution::Me,
            branch_resolution: BranchResolution::Sb,
            ..VpConfig::magic()
        };
        let sb = run_one(bench, Scale::of(1), CoreConfig::with_vp(vp), 60_000);
        black_box((base.squashes, sb.squashes))
    });
}

/// Table 5: squashed-work recovery under IR.
fn table5_squash_recovery() {
    group("table5").bench("recovery_runs", || {
        let s = run_one(Bench::Go, Scale::of(1), CoreConfig::with_ir(IrConfig::table1()), 60_000);
        black_box((s.squashed_exec_rate(), s.squash_recovery_rate()))
    });
}

/// Table 6: execution-count histogram under Magic ME-SB, 1-cycle verify.
fn table6_reexecution() {
    group("table6").bench("histogram_runs", || {
        let vp = VpConfig::magic().with_verify_latency(1);
        let s = run_one(Bench::Gcc, Scale::of(1), CoreConfig::with_vp(vp), 60_000);
        black_box([s.exec_times_rate(1), s.exec_times_rate(2), s.exec_times_rate(3)])
    });
}

/// End-to-end: one full per-benchmark matrix column + all table renders.
fn tables_full_rendering() {
    group("tables_render").bench("one_bench_matrix_and_reports", || {
        let m = Matrix {
            runs: vec![run_bench(Bench::Ijpeg, tiny()).expect("every cell runs")],
        };
        black_box((
            report::table2(&m),
            report::table3(&m),
            report::table4(&m),
            report::table5(&m),
            report::table6(&m),
        ))
    });
}

fn main() {
    table2_base_characterization();
    table3_rates();
    table4_spurious_squashes();
    table5_squash_recovery();
    table6_reexecution();
    tables_full_rendering();
}
