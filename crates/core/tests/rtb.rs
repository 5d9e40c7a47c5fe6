//! Trace reuse (RTB) characterization and soundness.
//!
//! The characterization half runs every benchmark stand-in under
//! `rtb:t8`, checks the run against the golden functional model, and
//! asserts the shape of the trace statistics: captures flow through the
//! pending queue, replays grant real work, and every committed trace
//! member is attributed exactly once by instruction class and exactly
//! once by loop nesting depth. The squash half drives a
//! misprediction-heavy program and requires wrong-path trace captures
//! to be invalidated rather than installed.

use vpir_core::{CoreConfig, RtbConfig, RunLimits, SimStats, Simulator};
use vpir_isa::{asm, Machine, Program, Reg};
use vpir_workloads::{Bench, Scale};

/// Runs `prog` under `config` to completion, asserting architectural
/// equivalence with the golden interpreter, and returns the stats.
fn run_checked(prog: &Program, config: CoreConfig, ctx: &str) -> SimStats {
    let mut gold = Machine::new(prog);
    gold.run(80_000_000).expect("golden run");
    assert!(gold.halted, "golden model did not halt ({ctx})");

    let mut sim = Simulator::new(prog, config);
    sim.run_to_halt(RunLimits::cycles(400_000_000))
        .unwrap_or_else(|e| panic!("{e} ({ctx})"));
    assert_eq!(sim.stats().committed, gold.icount, "committed count diverged ({ctx})");
    for i in 0..vpir_isa::NUM_REGS {
        let r = Reg::from_index(i);
        assert_eq!(sim.arch_regs().read(r), gold.regs.read(r), "register {r} diverged ({ctx})");
    }
    sim.stats().clone()
}

/// The bookkeeping identities every RTB run must satisfy, whatever the
/// workload: attribution is total (class and depth partitions both sum
/// to the committed-reuse count) and no counter exceeds its source.
fn check_rtb_invariants(s: &SimStats, ctx: &str) {
    let r = &s.rtb;
    assert!(
        r.installed + r.dropped + r.pending_squashed <= r.captured,
        "pending outcomes exceed captures ({ctx}): {r:?}"
    );
    assert!(r.aborted <= r.replays, "more aborts than replays ({ctx})");
    assert!(
        r.committed_reused <= r.replayed_insts,
        "committed more trace members than were replayed ({ctx})"
    );
    let by_class: u64 = r.per_class.iter().sum();
    let by_depth: u64 = r.per_depth.iter().sum();
    assert_eq!(by_class, r.committed_reused, "class attribution not total ({ctx})");
    assert_eq!(by_depth, r.committed_reused, "depth attribution not total ({ctx})");
    let pct = r.committed_reuse_pct(s.committed);
    assert!((0.0..=100.0).contains(&pct), "reuse rate out of range ({ctx}): {pct}");
}

#[test]
fn rtb_characterization_across_all_workloads() {
    let mut total_replays = 0u64;
    let mut total_reused = 0u64;
    let mut class_union = [0u64; 9];
    let mut depth_union = [0u64; 5];
    for bench in Bench::ALL {
        let prog = bench.program(Scale::test());
        let s = run_checked(&prog, CoreConfig::with_rtb(RtbConfig::t8()), bench.name());
        check_rtb_invariants(&s, bench.name());
        assert!(s.rtb.captured > 0, "{}: no traces captured", bench.name());
        assert!(s.rtb.installed > 0, "{}: no traces installed", bench.name());
        total_replays += s.rtb.replays;
        total_reused += s.rtb.committed_reused;
        for (u, v) in class_union.iter_mut().zip(s.rtb.per_class) {
            *u += v;
        }
        for (u, v) in depth_union.iter_mut().zip(s.rtb.per_depth) {
            *u += v;
        }
    }
    assert!(total_replays > 0, "no workload granted a single replay");
    assert!(total_reused > 0, "no committed instruction arrived via trace replay");
    // The attribution must be informative, not a single catch-all
    // bucket: across seven workloads, reuse spans several instruction
    // classes and reaches inside loops.
    let classes_hit = class_union.iter().filter(|&&c| c > 0).count();
    assert!(classes_hit >= 2, "per-class attribution degenerate: {class_union:?}");
    let in_loops: u64 = depth_union.iter().skip(1).sum();
    assert!(in_loops > 0, "no trace reuse attributed inside a loop: {depth_union:?}");
}

#[test]
fn rtb_longer_traces_amortize_more_work() {
    // t8 admits every trace t4 admits (same min length, same table), so
    // over the benchmark suite its mean replay length must not shrink.
    let mut len4 = 0.0f64;
    let mut len8 = 0.0f64;
    for bench in [Bench::Ijpeg, Bench::Compress] {
        let prog = bench.program(Scale::test());
        let s4 = run_checked(&prog, CoreConfig::with_rtb(RtbConfig::t4()), bench.name());
        let s8 = run_checked(&prog, CoreConfig::with_rtb(RtbConfig::t8()), bench.name());
        check_rtb_invariants(&s4, bench.name());
        check_rtb_invariants(&s8, bench.name());
        len4 += s4.rtb.mean_trace_len();
        len8 += s8.rtb.mean_trace_len();
    }
    assert!(
        len8 >= len4,
        "t8 mean trace length fell below t4: {len8:.2} vs {len4:.2}"
    );
}

#[test]
fn wrong_path_trace_captures_are_invalidated_by_squashes() {
    // A data-dependent branch the gshare predictor cannot learn: half
    // the iterations mispredict, so capture windows regularly straddle
    // squashed wrong-path work. Those pending captures must be
    // discarded — installing one would let a later replay architect
    // wrong-path results into committed state (caught by the golden
    // comparison below if the invalidation ever regresses).
    let src = "
        .data 0x200000
 seed:  .word 0x1234567
        .text
        li   r1, 400
        la   r2, seed
        lw   r3, 0(r2)
 loop:  andi r4, r3, 1
        srl  r3, r3, 1
        beq  r4, r0, even       # direction follows the LFSR bit
        addi r5, r5, 3
        mul  r6, r5, r5
        b    next
 even:  addi r5, r5, 1
        add  r6, r6, r5
 next:  xori r7, r3, 0x55
        add  r8, r8, r7
        addi r1, r1, -1
        bne  r1, r0, loop
        halt";
    let prog = asm::assemble(src).expect("assembles");
    let s = run_checked(&prog, CoreConfig::with_rtb(RtbConfig::t8()), "squash program");
    check_rtb_invariants(&s, "squash program");
    assert!(s.squashes > 50, "program must squash heavily: {}", s.squashes);
    assert!(s.rtb.captured > 0, "captures still happen between squashes");
    assert!(
        s.rtb.pending_squashed > 0,
        "squashes crossed capture windows but nothing was invalidated: {:?}",
        s.rtb
    );
}
