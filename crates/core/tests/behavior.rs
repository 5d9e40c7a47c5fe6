//! Timing-level behaviour tests: the microarchitectural phenomena the
//! paper builds its arguments on must be observable in the simulator.

use vpir_core::{
    BranchResolution, CoreConfig, IrConfig, RunLimits, Simulator, Validation, VpConfig,
};
use vpir_isa::asm;
use vpir_workloads::{Bench, Scale};

fn run(src: &str, config: CoreConfig) -> (Simulator, vpir_core::SimStats) {
    let prog = asm::assemble(src).expect("test program assembles");
    let mut sim = Simulator::new(&prog, config);
    let stats = sim
        .run_to_halt(RunLimits::cycles(10_000_000))
        .unwrap_or_else(|e| panic!("test program must halt: {e}"))
        .clone();
    (sim, stats)
}

/// A loop whose body re-executes with identical operand values each
/// iteration — the redundancy substrate for VP and IR.
const REDUNDANT_LOOP: &str = "
        .data 0x200000
 vals:  .word 6, 2, 8, 2
        .text
        li   r6, 400
 outer: la   r7, vals
        lw   r3, 0(r7)
        mul  r4, r3, r3
        add  r5, r4, r3
        lw   r8, 4(r7)
        mul  r9, r8, r5
        add  r20, r20, r9
        addi r6, r6, -1
        bne  r6, r0, outer
        halt";

#[test]
fn ir_speeds_up_redundant_loop() {
    let (_, base) = run(REDUNDANT_LOOP, CoreConfig::table1());
    let (_, ir) = run(REDUNDANT_LOOP, CoreConfig::with_ir(IrConfig::table1()));
    assert!(ir.reused_full > 500, "reuses: {}", ir.reused_full);
    assert!(
        ir.cycles < base.cycles,
        "IR {} cycles vs base {}",
        ir.cycles,
        base.cycles
    );
}

#[test]
fn vp_speeds_up_redundant_loop() {
    let (_, base) = run(REDUNDANT_LOOP, CoreConfig::table1());
    let (_, vp) = run(REDUNDANT_LOOP, CoreConfig::with_vp(VpConfig::magic()));
    assert!(vp.result_pred_correct > 500, "preds: {}", vp.result_pred_correct);
    assert!(
        vp.cycles < base.cycles,
        "VP {} cycles vs base {}",
        vp.cycles,
        base.cycles
    );
}

#[test]
fn early_validation_beats_late_validation() {
    // Figure 3: deferring validation to execute forfeits most of IR's
    // benefit on a redundancy-heavy loop.
    let (_, early) = run(REDUNDANT_LOOP, CoreConfig::with_ir(IrConfig::table1()));
    let late_cfg = IrConfig {
        validation: Validation::Late,
        ..IrConfig::table1()
    };
    let (_, late) = run(REDUNDANT_LOOP, CoreConfig::with_ir(late_cfg));
    let (_, base) = run(REDUNDANT_LOOP, CoreConfig::table1());
    assert!(early.cycles <= late.cycles, "early {} late {}", early.cycles, late.cycles);
    // Late validation behaves like always-correct prediction: roughly
    // base-or-better, allowing a whisker of scheduling noise.
    assert!(
        late.cycles <= base.cycles + base.cycles / 100 + 2,
        "late {} base {}",
        late.cycles,
        base.cycles
    );
}

#[test]
fn divider_serialisation_limits_throughput() {
    // 1 int divider with a 19-cycle issue interval: 40 divides take at
    // least ~40*19 cycles on the Table 1 machine.
    let src = "
        li   r1, 40
        li   r2, 1000
        li   r3, 7
 loop:  div  r4, r2, r3
        addi r1, r1, -1
        bne  r1, r0, loop
        halt";
    let (_, s) = run(src, CoreConfig::table1());
    assert!(s.cycles >= 40 * 19, "cycles: {}", s.cycles);
    assert!(s.fu_denials > 0, "divider contention must be visible");
}

#[test]
fn port_requests_count_granted_and_denied_requests() {
    // ijpeg's base run is port-bound: many D$ port requests are denied.
    // Every granted request makes exactly one data-cache access.
    let prog = Bench::Ijpeg.program(Scale::test());
    let mut sim = Simulator::new(&prog, CoreConfig::table1());
    let s = sim
        .run_to_halt(RunLimits::cycles(10_000_000))
        .unwrap_or_else(|e| panic!("ijpeg must halt: {e}"));
    let accesses = s.dcache.hits + s.dcache.misses + s.dcache.mshr_merges;
    assert!(s.port_denials > 0, "the run must be port-bound");
    assert_eq!(s.port_requests, s.port_denials + accesses);
}

#[test]
fn dependent_chain_is_serialised_in_base() {
    // A chain of N dependent adds takes at least N cycles to execute.
    let mut src = String::from("        li r1, 1\n");
    for _ in 0..24 {
        src.push_str("        add r1, r1, r1\n");
    }
    src.push_str("        halt\n");
    let (_, s) = run(&src, CoreConfig::table1());
    assert!(s.cycles >= 24, "chain must serialise, got {} cycles", s.cycles);
}

#[test]
fn store_load_forwarding_is_faster_than_cache_miss() {
    // A load that hits a just-stored address forwards in 1 cycle rather
    // than paying the cold-miss latency.
    let fwd = "
        li   r1, 42
        sw   r1, 0x600000(r0)
        lw   r2, 0x600000(r0)
        add  r3, r2, r2
        halt";
    let cold = "
        lw   r2, 0x600000(r0)
        add  r3, r2, r2
        halt";
    let (_, f) = run(fwd, CoreConfig::table1());
    let (_, c) = run(cold, CoreConfig::table1());
    // The forwarding program has two extra instructions yet should not
    // cost a full miss more.
    assert!(
        f.cycles <= c.cycles + 3,
        "forwarding {} vs cold {}",
        f.cycles,
        c.cycles
    );
}

#[test]
fn icache_miss_stalls_fetch() {
    // Straight-line code across many lines: each new 32-byte line costs
    // a 6-cycle miss on a cold cache.
    let mut src = String::new();
    for i in 0..64 {
        src.push_str(&format!("        addi r1, r1, {i}\n"));
    }
    src.push_str("        halt\n");
    let (_, s) = run(&src, CoreConfig::table1());
    // 65 instructions over ~9 lines, each cold line costs 6 extra cycles.
    assert!(s.cycles >= 50, "icache misses must slow fetch: {}", s.cycles);
    assert!(s.icache.misses >= 8, "expected cold line misses: {:?}", s.icache);
}

#[test]
fn branch_mispredictions_squash() {
    // A branch alternating with a data-dependent unpredictable pattern.
    let src = "
        .data 0x200000
 seq:   .byte 1,0,0,1,1,0,1,0,0,1,0,1,1,0,0,1,1,1,0,1,0,0,1,0,1,1,0,1,0,0,1,1
        .text
        li   r6, 300
        li   r20, 0
 loop:  andi r7, r6, 31
        la   r8, seq
        add  r8, r8, r7
        lbu  r9, 0(r8)
        beq  r9, r0, skip
        addi r20, r20, 1
 skip:  addi r6, r6, -1
        bne  r6, r0, loop
        halt";
    let (_, s) = run(src, CoreConfig::table1());
    assert!(s.branch_mispredicts > 10, "mispredicts: {}", s.branch_mispredicts);
    assert!(s.squashes >= s.branch_mispredicts / 2, "squashes: {}", s.squashes);
    assert!(s.squashed_executed > 0, "wrong-path work must execute");
}

#[test]
fn reused_branches_resolve_at_decode() {
    // A loop whose backward branch sees identical operands every few
    // iterations (r1 cycles through a small set): the reused branch
    // resolution latency pulls the mean below the base machine's.
    let src = "
        .data 0x200000
 tbl:   .word 1, 0, 1, 1, 0, 0, 1, 0
        .text
        li   r6, 500
 loop:  andi r7, r6, 7
        sll  r7, r7, 2
        la   r8, tbl
        add  r8, r8, r7
        lw   r9, 0(r8)
        beq  r9, r0, skip
        addi r20, r20, 3
 skip:  addi r6, r6, -1
        bne  r6, r0, loop
        halt";
    let (_, base) = run(src, CoreConfig::table1());
    let (_, ir) = run(src, CoreConfig::with_ir(IrConfig::table1()));
    assert!(
        ir.branch_resolution_latency() < base.branch_resolution_latency(),
        "IR {} vs base {}",
        ir.branch_resolution_latency(),
        base.branch_resolution_latency()
    );
}

#[test]
fn nsb_delays_branch_resolution_relative_to_sb() {
    // Under value prediction with a 1-cycle verification latency, NSB
    // resolution waits for operand verification.
    let sb = CoreConfig::with_vp(VpConfig::magic().with_verify_latency(1));
    let nsb = CoreConfig::with_vp(
        VpConfig::magic()
            .with_branches(BranchResolution::Nsb)
            .with_verify_latency(1),
    );
    let (_, s_sb) = run(REDUNDANT_LOOP, sb);
    let (_, s_nsb) = run(REDUNDANT_LOOP, nsb);
    assert!(
        s_nsb.branch_resolution_latency() >= s_sb.branch_resolution_latency(),
        "NSB {} vs SB {}",
        s_nsb.branch_resolution_latency(),
        s_sb.branch_resolution_latency()
    );
}

#[test]
fn ir_reduces_fu_demand() {
    let (_, base) = run(REDUNDANT_LOOP, CoreConfig::table1());
    let (_, ir) = run(REDUNDANT_LOOP, CoreConfig::with_ir(IrConfig::table1()));
    assert!(
        ir.executions < base.executions,
        "reused instructions must not execute: {} vs {}",
        ir.executions,
        base.executions
    );
}

#[test]
fn exec_histogram_counts_reexecutions_under_vp() {
    // A producer whose value holds steady for a few iterations and then
    // changes: LVP builds confidence, predicts, and then mispredicts at
    // each change, forcing dependents to re-execute.
    let src = "
        .data 0x200000
 v:     .word 5
        .text
        li   r6, 200
 loop:  lw   r3, v(r0)
        add  r4, r3, r3
        add  r5, r4, r3
        add  r20, r20, r5
        andi r7, r6, 7
        bne  r7, r0, keep    # change v every 8th iteration
        addi r3, r3, 13
        sw   r3, v(r0)
 keep:  addi r6, r6, -1
        bne  r6, r0, loop
        halt";
    let (_, s) = run(src, CoreConfig::with_vp(VpConfig::lvp()));
    let multi = s.exec_histogram[2] + s.exec_histogram[3];
    // The load's value changes every iteration; LVP will mispredict and
    // dependents re-execute.
    assert!(multi > 0, "expected re-executions, histogram {:?}", s.exec_histogram);
}

#[test]
fn reused_instructions_commit_without_executing() {
    let (_, ir) = run(REDUNDANT_LOOP, CoreConfig::with_ir(IrConfig::table1()));
    assert!(ir.exec_histogram[0] > 0, "reused insts execute zero times");
}

#[test]
fn stats_are_internally_consistent() {
    for cfg in [
        CoreConfig::table1(),
        CoreConfig::with_vp(VpConfig::magic()),
        CoreConfig::with_ir(IrConfig::table1()),
    ] {
        let (_, s) = run(REDUNDANT_LOOP, cfg);
        assert_eq!(
            s.exec_histogram.iter().sum::<u64>(),
            s.committed,
            "histogram covers all committed instructions"
        );
        assert!(s.result_pred_correct <= s.result_predicted);
        assert!(s.addr_pred_correct <= s.addr_predicted);
        assert!(s.reused_full <= s.committed);
        assert!(s.dispatched >= s.committed);
        assert!(s.fu_denials <= s.fu_requests);
        assert!(s.port_denials <= s.port_requests);
    }
}

#[test]
fn pc_profile_tracks_commits_and_mechanism_hits() {
    let mut ir_cfg = CoreConfig::with_ir(IrConfig::table1());
    ir_cfg.pc_profile = true;
    let (sim, s) = run(REDUNDANT_LOOP, ir_cfg);
    let profile = sim.pc_profile();
    assert!(!profile.is_empty());
    assert_eq!(profile.values().map(|p| p.executions).sum::<u64>(), s.committed);
    assert_eq!(profile.values().map(|p| p.rb_hits).sum::<u64>(), s.reused_full);
    assert!(s.reused_addr > 0, "the loop reuses load addresses");
    assert_eq!(profile.values().map(|p| p.addr_reuses).sum::<u64>(), s.reused_addr);
    assert!(profile.values().all(|p| p.rb_hits <= p.executions));

    let mut vp_cfg = CoreConfig::with_vp(VpConfig::magic());
    vp_cfg.pc_profile = true;
    let (sim, s) = run(REDUNDANT_LOOP, vp_cfg);
    let profile = sim.pc_profile();
    assert_eq!(
        profile.values().map(|p| p.vpt_correct).sum::<u64>(),
        s.result_pred_correct
    );

    // Off by default: no per-PC collection.
    let (sim, _) = run(REDUNDANT_LOOP, CoreConfig::table1());
    assert!(sim.pc_profile().is_empty());
}
