//! Characterisation tests: each synthetic stand-in must keep the
//! signature of its SPECint95 namesake (the properties DESIGN.md §2
//! promises). These tests pin the workloads against accidental drift —
//! if a kernel change moves a signature out of band, this fails before
//! the experiment shapes silently degrade.

use vpir_core::{CoreConfig, IrConfig, RunLimits, Simulator};
use vpir_redundancy::{analyze, LimitConfig};
use vpir_workloads::{Bench, Scale};

/// A 600k-cycle run: the cap is the measurement window, not a failure.
fn capped_stats(bench: Bench, config: CoreConfig) -> vpir_core::SimStats {
    Simulator::new(&bench.program(Scale::of(2)), config)
        .run_checked(RunLimits::cycles(600_000))
        .unwrap_or_else(|e| panic!("[{}] {e}", bench.name()))
        .clone()
}

fn base_stats(bench: Bench) -> vpir_core::SimStats {
    capped_stats(bench, CoreConfig::table1())
}

fn ir_stats(bench: Bench) -> vpir_core::SimStats {
    capped_stats(bench, CoreConfig::with_ir(IrConfig::table1()))
}

#[test]
fn go_has_hard_branches() {
    let s = base_stats(Bench::Go);
    let rate = s.branch_pred_rate();
    assert!(
        (70.0..90.0).contains(&rate),
        "go-like branches must stay hard: {rate:.1}%"
    );
}

#[test]
fn m88ksim_is_the_reuse_leader() {
    let m88 = ir_stats(Bench::M88ksim).reuse_result_rate();
    assert!(m88 > 45.0, "interpreter redundancy: {m88:.1}%");
    for other in [Bench::Go, Bench::Ijpeg, Bench::Perl, Bench::Gcc, Bench::Compress] {
        let r = ir_stats(other).reuse_result_rate();
        assert!(
            m88 > r,
            "m88ksim ({m88:.1}%) must lead {} ({r:.1}%)",
            other.name()
        );
    }
}

#[test]
fn ijpeg_has_predictable_branches_and_low_reuse() {
    let s = base_stats(Bench::Ijpeg);
    assert!(s.branch_pred_rate() > 95.0, "{:.1}", s.branch_pred_rate());
    let r = ir_stats(Bench::Ijpeg).reuse_result_rate();
    assert!(r < 30.0, "ijpeg reuse must stay low: {r:.1}%");
}

#[test]
fn vortex_is_call_heavy_with_easy_branches() {
    let s = base_stats(Bench::Vortex);
    assert!(s.branch_pred_rate() > 93.0, "{:.1}", s.branch_pred_rate());
    assert!(s.return_pred_rate() > 99.0, "{:.1}", s.return_pred_rate());
    assert!(
        s.returns * 12 > s.branches,
        "vortex must be call-heavy: {} returns vs {} branches",
        s.returns,
        s.branches
    );
}

#[test]
fn compress_reuses_addresses_comparably_to_results() {
    // The compress signature: address reuse keeps pace with (low) result
    // reuse because the hash table is rewritten while probe addresses
    // recur.
    let s = ir_stats(Bench::Compress);
    let res = s.reuse_result_rate();
    let addr = s.reuse_addr_rate();
    assert!(res < 30.0, "compress result reuse stays low: {res:.1}%");
    assert!(
        addr > 0.6 * res,
        "compress address reuse must keep pace: addr {addr:.1}% vs res {res:.1}%"
    );
}

#[test]
fn compress_has_derivable_results() {
    // The LZW next-code counter is a textbook stride.
    let prog = Bench::Compress.program(Scale::of(2));
    let study = analyze(&prog, 400_000, LimitConfig::default());
    let (_, _, derivable, _) = study.classification_pct();
    assert!(derivable > 2.0, "LZW code counter must be derivable: {derivable:.1}%");
}

#[test]
fn gcc_redundancy_is_mostly_reusable() {
    // Figure 10's band (84–97%): the linearised-walk kernel must stay in
    // reach of it.
    let prog = Bench::Gcc.program(Scale::of(2));
    let study = analyze(&prog, 400_000, LimitConfig::default());
    assert!(
        study.reusable_pct() > 70.0,
        "gcc reusable fraction: {:.1}%",
        study.reusable_pct()
    );
}

#[test]
fn every_benchmark_mixes_memory_and_branches() {
    for bench in Bench::ALL {
        let s = base_stats(bench);
        let mem_frac = s.mem_ops as f64 / s.committed as f64;
        let br_frac = s.branches as f64 / s.committed as f64;
        assert!(
            (0.03..0.6).contains(&mem_frac),
            "{}: memory mix {mem_frac:.2}",
            bench.name()
        );
        assert!(
            (0.02..0.4).contains(&br_frac),
            "{}: branch mix {br_frac:.2}",
            bench.name()
        );
    }
}

#[test]
fn redundancy_taxonomy_is_in_the_papers_band() {
    // Figure 8: few unique results, the bulk repeated. At the full
    // experiment scale `go` reaches ~4% unique; at this reduced test
    // scale its board mutations are still warming up, so the band is
    // slightly wider here.
    for bench in Bench::ALL {
        let prog = bench.program(Scale::of(4));
        let study = analyze(&prog, 800_000, LimitConfig::default());
        let (unique, repeated, _, _) = study.classification_pct();
        assert!(unique < 12.0, "{}: unique {unique:.1}%", bench.name());
        assert!(repeated > 70.0, "{}: repeated {repeated:.1}%", bench.name());
    }
}

#[test]
fn base_ipc_is_plausible_for_a_4_wide_machine() {
    for bench in Bench::ALL {
        let s = base_stats(bench);
        let ipc = s.ipc();
        assert!(
            (0.5..4.0).contains(&ipc),
            "{}: IPC {ipc:.2} outside plausible band",
            bench.name()
        );
    }
}
