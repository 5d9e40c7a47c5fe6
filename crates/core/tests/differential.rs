//! Differential testing: the timing pipeline must be architecturally
//! indistinguishable from the functional interpreter under *every*
//! machine configuration — base, all VP variants, and all IR variants.
//! Value prediction and instruction reuse are performance mechanisms;
//! any divergence in committed state is a simulator bug.

use vpir_core::{
    BranchResolution, CoreConfig, IrConfig, Reexecution, RunLimits, Simulator, Validation,
    VpConfig, VpKind,
};
use vpir_isa::{Machine, Program, Reg};
use vpir_reuse::{RbConfig, ReuseScheme};
use vpir_workloads::synth::{random_program, random_source, SynthConfig};
use vpir_workloads::{Bench, Scale};

/// Every enhancement configuration exercised by the paper (plus the
/// reuse-scheme ablations).
fn all_configs() -> Vec<(String, CoreConfig)> {
    let mut configs = vec![("base".to_string(), CoreConfig::table1())];
    for kind in [VpKind::Magic, VpKind::Lvp, VpKind::Stride] {
        for br in [BranchResolution::Sb, BranchResolution::Nsb] {
            for re in [Reexecution::Me, Reexecution::Nme] {
                for vl in [0u32, 1] {
                    let vp = VpConfig {
                        kind,
                        branch_resolution: br,
                        reexecution: re,
                        verify_latency: vl,
                        ..VpConfig::magic()
                    };
                    configs.push((
                        format!("vp-{kind:?}-{}-vl{vl}", vp.label()),
                        CoreConfig::with_vp(vp),
                    ));
                }
            }
        }
    }
    for scheme in [ReuseScheme::SnDValues, ReuseScheme::Sn, ReuseScheme::SnD] {
        for validation in [Validation::Early, Validation::Late] {
            let ir = IrConfig {
                rb: RbConfig {
                    scheme,
                    ..RbConfig::table1()
                },
                validation,
            };
            configs.push((
                format!("ir-{scheme:?}-{validation:?}"),
                CoreConfig::with_ir(ir),
            ));
        }
    }
    // Weaker front ends (branch-quality sensitivity must not affect
    // architectural correctness).
    for fe in [vpir_core::FrontEnd::Bimodal, vpir_core::FrontEnd::StaticTaken] {
        let mut cfg = CoreConfig::table1();
        cfg.front_end = fe;
        configs.push((format!("base-{fe:?}"), cfg));
        let mut cfg = CoreConfig::with_ir(IrConfig::table1());
        cfg.front_end = fe;
        configs.push((format!("ir-{fe:?}"), cfg));
    }
    // The ROB sizes `experiments ablations` sweeps besides Table 1's 32.
    for rob_size in [16, 64] {
        for (name, cfg) in [
            ("base", CoreConfig::table1()),
            ("vp", CoreConfig::with_vp(VpConfig::magic())),
            ("ir", CoreConfig::with_ir(IrConfig::table1())),
        ] {
            configs.push((
                format!("{name}-rob{rob_size}"),
                CoreConfig { rob_size, ..cfg },
            ));
        }
    }
    // Trace reuse: replayed members bypass issue/execute entirely, so
    // any guard bug shows up as an architectural divergence here.
    for rtb in [vpir_core::RtbConfig::t4(), vpir_core::RtbConfig::t8()] {
        configs.push((rtb.label(), CoreConfig::with_rtb(rtb)));
    }
    // The VP+IR hybrid, in its most speculative and least speculative forms.
    for (kind, vl) in [(VpKind::Magic, 0u32), (VpKind::Lvp, 1), (VpKind::Stride, 1)] {
        let vp = VpConfig {
            kind,
            verify_latency: vl,
            ..VpConfig::magic()
        };
        configs.push((
            format!("hybrid-{kind:?}-vl{vl}"),
            CoreConfig::with_hybrid(vp, IrConfig::table1()),
        ));
    }
    configs
}

/// Runs `prog` on the golden model and on the pipeline with `config`;
/// asserts identical architectural outcomes.
fn check(label: &str, prog: &Program, config: CoreConfig, ctx: &str) {
    let mut gold = Machine::new(prog);
    gold.run(80_000_000).expect("golden run");
    assert!(gold.halted, "golden model did not halt ({ctx})");

    let mut sim = Simulator::new(prog, config);
    sim.run_to_halt(RunLimits::cycles(400_000_000))
        .unwrap_or_else(|e| panic!("[{label}] {e} ({ctx})"));
    assert_eq!(
        sim.stats().committed,
        gold.icount,
        "[{label}] committed-instruction count diverged ({ctx})"
    );
    for i in 0..vpir_isa::NUM_REGS {
        let r = Reg::from_index(i);
        assert_eq!(
            sim.arch_regs().read(r),
            gold.regs.read(r),
            "[{label}] register {r} diverged ({ctx})"
        );
    }
}

#[test]
fn random_programs_match_golden_model_under_every_config() {
    let configs = all_configs();
    for seed in 0..12u64 {
        let synth = SynthConfig::default();
        let prog = random_program(seed, synth);
        for (label, config) in &configs {
            check(label, &prog, config.clone(), &format!("synth seed {seed}"));
        }
        // Keep the source reproducible in failure messages.
        let _ = random_source(seed, synth);
    }
}

/// A re-execution with correct inputs whose result matches the value
/// prediction must still republish that value when an earlier
/// execution on mispredicted inputs replaced the visible one: seq 1641
/// of this program (`or r15, r10, r10`) first publishes a wrong `r15`,
/// and `blez r15` must not resolve on it once the re-execution makes
/// `r15` final.
#[test]
fn a_correct_prediction_republishes_a_value_replaced_by_a_speculative_execution() {
    let synth = SynthConfig {
        blocks: 10,
        outer_iters: 10,
        ..SynthConfig::default()
    };
    let prog = random_program(0x97d4_4170_bea0_4e4d, synth);
    for (label, config) in all_configs() {
        check(&label, &prog, config, "stale-visible-value program");
    }
}

#[test]
fn integer_only_random_programs_match() {
    // Stress the int pipeline (divides hold their unit for 19 cycles).
    let synth = SynthConfig {
        fp: false,
        ..SynthConfig::default()
    };
    let configs = all_configs();
    for seed in 100..106u64 {
        let prog = random_program(seed, synth);
        for (label, config) in &configs {
            check(label, &prog, config.clone(), &format!("int seed {seed}"));
        }
    }
}

#[test]
fn memory_heavy_random_programs_match() {
    let synth = SynthConfig {
        blocks: 8,
        fp: false,
        muldiv: false,
        calls: false,
        ..SynthConfig::default()
    };
    let configs = all_configs();
    for seed in 200..206u64 {
        let prog = random_program(seed, synth);
        for (label, config) in &configs {
            check(label, &prog, config.clone(), &format!("mem seed {seed}"));
        }
    }
}

#[test]
fn benchmarks_match_golden_model_under_key_configs() {
    // The seven benchmark stand-ins are larger; check the headline
    // configurations on each.
    let key: Vec<(String, CoreConfig)> = vec![
        ("base".into(), CoreConfig::table1()),
        ("vp-magic".into(), CoreConfig::with_vp(VpConfig::magic())),
        (
            "magic:NME-SB:vl0".into(),
            CoreConfig::with_vp(VpConfig::magic().with_reexecution(Reexecution::Nme)),
        ),
        (
            "vp-lvp-nsb-vl1".into(),
            CoreConfig::with_vp(
                VpConfig::lvp()
                    .with_branches(BranchResolution::Nsb)
                    .with_verify_latency(1),
            ),
        ),
        ("ir".into(), CoreConfig::with_ir(IrConfig::table1())),
        ("rtb-t8".into(), CoreConfig::with_rtb(vpir_core::RtbConfig::t8())),
    ];
    for bench in Bench::ALL {
        let prog = bench.program(Scale::test());
        for (label, config) in &key {
            check(label, &prog, config.clone(), bench.name());
        }
    }
}

#[test]
fn enhancements_never_commit_fewer_instructions_per_cycle_catastrophically() {
    // Sanity guard: VP/IR may help or mildly hurt, but a >2x slowdown on
    // a benchmark would indicate broken recovery machinery.
    for bench in [Bench::M88ksim, Bench::Compress] {
        let prog = bench.program(Scale::test());
        let base = Simulator::new(&prog, CoreConfig::table1())
            .run_to_halt(RunLimits::unbounded())
            .unwrap_or_else(|e| panic!("[base] {e} on {}", bench.name()))
            .ipc();
        for (label, cfg) in [
            ("vp", CoreConfig::with_vp(VpConfig::magic())),
            ("ir", CoreConfig::with_ir(IrConfig::table1())),
        ] {
            let ipc = Simulator::new(&prog, cfg)
                .run_to_halt(RunLimits::unbounded())
                .unwrap_or_else(|e| panic!("[{label}] {e} on {}", bench.name()))
                .ipc();
            assert!(
                ipc > base * 0.5,
                "{label} IPC {ipc:.3} vs base {base:.3} on {}",
                bench.name()
            );
        }
    }
}

#[test]
fn reuse_and_prediction_fire_on_redundant_workloads() {
    let prog = Bench::M88ksim.program(Scale::test());
    let mut ir = Simulator::new(&prog, CoreConfig::with_ir(IrConfig::table1()));
    let s = ir
        .run_to_halt(RunLimits::unbounded())
        .unwrap_or_else(|e| panic!("[ir] {e}"));
    assert!(
        s.reuse_result_rate() > 5.0,
        "m88ksim-like should reuse heavily, got {:.2}%",
        s.reuse_result_rate()
    );

    let mut vp = Simulator::new(&prog, CoreConfig::with_vp(VpConfig::magic()));
    let s = vp
        .run_to_halt(RunLimits::unbounded())
        .unwrap_or_else(|e| panic!("[vp] {e}"));
    assert!(
        s.vp_result_rate() > 5.0,
        "m88ksim-like should predict heavily, got {:.2}%",
        s.vp_result_rate()
    );
}
