//! Cross-crate integration through the `vpir` facade: assemble → run on
//! the functional machine → run on the pipeline in every personality →
//! analyse redundancy → render reports.

use vpir::core::{CoreConfig, IrConfig, RunLimits, Simulator, VpConfig};
use vpir::isa::{asm, Machine, Reg};
use vpir::redundancy::{analyze, LimitConfig};
use vpir::stats::{harmonic_mean, Table};
use vpir::workloads::{Bench, Scale};

const PROGRAM: &str = "
        .data 0x200000
 tbl:   .word 5, 9, 5, 9
        .text
        li   r6, 500
 loop:  la   r7, tbl
        lw   r3, 0(r7)
        mul  r4, r3, r3
        lw   r5, 4(r7)
        add  r8, r4, r5
        add  r20, r20, r8
        addi r6, r6, -1
        bne  r6, r0, loop
        halt";

#[test]
fn facade_full_flow() {
    let program = asm::assemble(PROGRAM).expect("assembles");

    let mut gold = Machine::new(&program);
    gold.run(100_000).expect("functional run");
    assert!(gold.halted);
    let expect = gold.regs.read(Reg::int(20));
    assert_ne!(expect, 0);

    let mut speedups = Vec::new();
    let ipc = |config: CoreConfig| {
        let mut sim = Simulator::new(&program, config);
        let ipc = sim
            .run_to_halt(RunLimits::unbounded())
            .unwrap_or_else(|e| panic!("{e}"))
            .ipc();
        assert_eq!(sim.arch_regs().read(Reg::int(20)), expect);
        ipc
    };
    let base_ipc = ipc(CoreConfig::table1());
    for config in [
        CoreConfig::with_vp(VpConfig::magic()),
        CoreConfig::with_ir(IrConfig::table1()),
    ] {
        speedups.push(ipc(config) / base_ipc);
    }
    let hm = harmonic_mean(speedups.iter().copied()).expect("positive");
    assert!(hm > 0.9, "mechanisms must not cripple the machine: {hm:.3}");

    let study = analyze(&program, 100_000, LimitConfig::default());
    assert!(study.redundant_pct() > 30.0, "{study:?}");

    let mut table = Table::new(&["metric", "value"]);
    table.row_owned(vec!["hm speedup".into(), format!("{hm:.3}")]);
    table.row_owned(vec![
        "redundant %".into(),
        format!("{:.1}", study.redundant_pct()),
    ]);
    let rendered = table.render();
    assert!(rendered.contains("hm speedup"));
}

#[test]
fn all_benchmarks_run_through_facade() {
    for bench in Bench::ALL {
        let program = bench.program(Scale::of(1));
        let committed = Simulator::new(&program, CoreConfig::table1())
            .run_checked(RunLimits::cycles(500_000))
            .unwrap_or_else(|e| panic!("[{}] {e}", bench.name()))
            .committed;
        assert!(committed > 1_000, "{} made no progress", bench.name());
    }
}

#[test]
fn workspace_types_compose() {
    // The facade re-exports must interoperate (same underlying crates).
    let rb_cfg = vpir::reuse::RbConfig::table1();
    let ir = IrConfig {
        rb: rb_cfg,
        ..IrConfig::table1()
    };
    let config = CoreConfig::with_ir(ir);
    config.validate();
    let program = asm::assemble("li r1, 1\nhalt").expect("assembles");
    Simulator::new(&program, config)
        .run_to_halt(RunLimits::unbounded())
        .unwrap_or_else(|e| panic!("{e}"));
}
