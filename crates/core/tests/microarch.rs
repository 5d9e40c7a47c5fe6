//! Microarchitectural edge cases: structural limits, alignment rules,
//! and recovery corner cases of the Table 1 machine.

use vpir_core::{CoreConfig, IrConfig, RtbConfig, RunLimits, Simulator, TraceOutcome, VpConfig};
use vpir_isa::{asm, Machine, Reg};

fn run_with(src: &str, config: CoreConfig) -> (Simulator, vpir_core::SimStats) {
    let prog = asm::assemble(src).expect("test program assembles");
    let mut sim = Simulator::new(&prog, config);
    let stats = sim
        .run_to_halt(RunLimits::cycles(10_000_000))
        .unwrap_or_else(|e| panic!("program must halt: {e}"))
        .clone();
    (sim, stats)
}

fn run(src: &str) -> (Simulator, vpir_core::SimStats) {
    run_with(src, CoreConfig::table1())
}

fn check_against_golden(src: &str, config: CoreConfig) {
    let prog = asm::assemble(src).expect("assembles");
    let mut gold = Machine::new(&prog);
    gold.run(10_000_000).expect("golden");
    let mut sim = Simulator::new(&prog, config);
    sim.run_to_halt(RunLimits::cycles(50_000_000))
        .unwrap_or_else(|e| panic!("{e}"));
    for i in 0..vpir_isa::NUM_REGS {
        let r = Reg::from_index(i);
        assert_eq!(sim.arch_regs().read(r), gold.regs.read(r), "{r}");
    }
}

#[test]
fn max_unresolved_branches_limits_but_does_not_deadlock() {
    // A dense run of branches: more than 8 simultaneously unresolved
    // would be needed for maximum ILP; the machine must stall gracefully.
    let mut src = String::from("        li   r1, 30\n loop:\n");
    for i in 0..12 {
        src.push_str(&format!(
            "        andi r2, r1, {}\n        beq  r2, r0, skip{i}\n        addi r20, r20, 1\n skip{i}:\n",
            1 << (i % 4)
        ));
    }
    src.push_str("        addi r1, r1, -1\n        bne r1, r0, loop\n        halt\n");
    let (_, s) = run(&src);
    assert!(s.committed > 300);
}

#[test]
fn rob_full_backpressure() {
    // A long-latency head (fp sqrt, 24 cycles, non-pipelined) behind a
    // stream of cheap instructions: the ROB (32 entries) must fill and
    // dispatch stall without losing anything.
    let src = "
        li   r1, 16
        cvt.f.i f1, r1
 loop:  sqrt.f f2, f1
        addi r2, r2, 1
        addi r3, r3, 1
        addi r4, r4, 1
        addi r5, r5, 1
        addi r1, r1, -1
        bne  r1, r0, loop
        halt";
    let (_, s) = run(src);
    // 16 sqrts on a single unit with a 24-cycle issue interval.
    assert!(s.cycles >= 16 * 24, "sqrt serialisation: {} cycles", s.cycles);
    assert_eq!(s.committed, 2 + 16 * 7 + 1);
}

#[test]
fn fetch_does_not_cross_cache_line() {
    // 8 independent adds aligned so that a 32-byte line holds 8 insts:
    // even with all operands ready, at most one line (8 insts) per cycle
    // can feed a 4-wide fetch — measured IPC stays <= 4 trivially, but
    // the line rule shows up as >= n/4 fetch cycles from a cold cache.
    let mut src = String::new();
    for _ in 0..32 {
        src.push_str("        addi r1, r1, 1\n");
    }
    src.push_str("        halt\n");
    let (_, s) = run(&src);
    // 33 instructions: at least ceil(33/4) dispatch cycles plus icache
    // misses (4 lines, 6 cycles each, serialised on a cold cache).
    assert!(s.cycles >= 9 + 6, "{} cycles", s.cycles);
    assert_eq!(s.committed, 33);
}

#[test]
fn load_waits_for_unknown_store_address() {
    // The store's address depends on a long divide; the younger load to
    // a *different* address must still wait until the store address is
    // known (Table 1's conservative disambiguation).
    let blocked = "
        li   r1, 640
        li   r2, 10
        div  r3, r1, r2          # 20-cycle divide
        sw   r2, 0x200000(r3)    # store address unknown for ~20 cycles
        lw   r4, 0x300000(r0)    # independent load, but must wait
        add  r5, r4, r4
        halt";
    let free = "
        li   r1, 640
        li   r2, 10
        div  r3, r1, r2
        sw   r2, 0x200000(r0)    # address known immediately
        lw   r4, 0x300000(r0)
        add  r5, r4, r4
        halt";
    let (_, b) = run(blocked);
    let (_, f) = run(free);
    // In `free` the load overlaps the divide; in `blocked` it cannot.
    // (Commit is in-order so total cycles are similar, but the load's
    // data must arrive later — observable through the d-cache timing.)
    assert!(b.cycles >= f.cycles, "blocked {} vs free {}", b.cycles, f.cycles);
    check_against_golden(blocked, CoreConfig::table1());
}

#[test]
fn store_to_load_forwarding_requires_covering_store() {
    // A byte store into the middle of a loaded word is a partial overlap:
    // the load must wait for the store to commit rather than forward.
    let src = "
        li   r1, 0x11223344
        sw   r1, 0x200000(r0)
        li   r2, 0x99
        sb   r2, 0x200001(r0)
        lw   r3, 0x200000(r0)
        halt";
    check_against_golden(src, CoreConfig::table1());
    let (sim, _) = run(src);
    assert_eq!(sim.arch_regs().read(Reg::int(3)), 0x1122_9944);
}

#[test]
fn deep_call_chain_exercises_ras() {
    // Nested calls to the RAS depth and beyond: returns stay predicted
    // until the stack overflows, and the program still runs correctly.
    let mut src = String::from("        jal f0\n        halt\n");
    for i in 0..20 {
        src.push_str(&format!(
            " f{i}:    addi sp, sp, -8\n        sd   ra, 0(sp)\n        {}\n        ld   ra, 0(sp)\n        addi sp, sp, 8\n        jr   ra\n",
            if i < 19 {
                format!("jal  f{}", i + 1)
            } else {
                "addi r20, r20, 1".to_string()
            }
        ));
    }
    check_against_golden(&src, CoreConfig::table1());
    let (sim, s) = run(&src);
    assert_eq!(sim.arch_regs().read(Reg::int(20)), 1);
    assert_eq!(s.returns, 20);
    // A 16-deep RAS over a 20-deep chain: a few returns mispredict, the
    // rest are exact.
    assert!(s.return_mispredicts <= 6, "{}", s.return_mispredicts);
}

#[test]
fn indirect_jump_via_table_trains_target_predictor() {
    // A jalr that alternates between two targets: the last-target table
    // mispredicts at every switch but the machine stays correct.
    let src = "
        li   r1, 40
 loop:  andi r2, r1, 1
        beq  r2, r0, even
        la   r3, odd_fn
        b    call
 even:  la   r3, even_fn
 call:  jalr r3
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
 odd_fn:  addi r20, r20, 1
          jr   ra
 even_fn: addi r21, r21, 1
          jr   ra";
    check_against_golden(src, CoreConfig::table1());
    let (sim, _) = run(src);
    assert_eq!(sim.arch_regs().read(Reg::int(20)), 20);
    assert_eq!(sim.arch_regs().read(Reg::int(21)), 20);
}

#[test]
fn vp_on_long_latency_producers_pays_off_most() {
    // Value prediction's benefit is largest when the producer is slow:
    // a predicted divide lets the chain behind it run 20 cycles early.
    let src = "
        li   r1, 300
        li   r2, 84
        li   r3, 2
 loop:  div  r4, r2, r3          # always 42: perfectly predictable
        add  r5, r4, r4
        add  r6, r5, r4
        add  r20, r20, r6
        addi r1, r1, -1
        bne  r1, r0, loop
        halt";
    let (_, base) = run(src);
    let (_, vp) = run_with(src, CoreConfig::with_vp(VpConfig::magic()));
    assert!(
        vp.cycles < base.cycles,
        "VP must collapse the divide chain: {} vs {}",
        vp.cycles,
        base.cycles
    );
    check_against_golden(src, CoreConfig::with_vp(VpConfig::magic()));
}

#[test]
fn ir_reuses_across_a_squash() {
    // Work done on one loop path is reusable on the next visit even with
    // intervening mispredictions.
    let src = "
        .data 0x200000
 tbl:   .word 7, 3
        .text
        li   r1, 200
 loop:  andi r2, r1, 3
        beq  r2, r0, rare       # usually not taken, occasionally taken
        la   r3, tbl
        lw   r4, 0(r3)
        mul  r5, r4, r4
        add  r20, r20, r5
        b    next
 rare:  la   r3, tbl
        lw   r4, 4(r3)
        mul  r5, r4, r4
        add  r20, r20, r5
 next:  addi r1, r1, -1
        bne  r1, r0, loop
        halt";
    check_against_golden(src, CoreConfig::with_ir(IrConfig::table1()));
    let (_, s) = run_with(src, CoreConfig::with_ir(IrConfig::table1()));
    assert!(s.reused_full > 200, "{}", s.reused_full);
}

#[test]
fn hybrid_is_sound_and_counts_both_mechanisms() {
    let src = "
        .data 0x200000
 tbl:   .word 6, 2
        .text
        li   r1, 400
 loop:  la   r2, tbl
        lw   r3, 0(r2)
        mul  r4, r3, r3
        andi r5, r1, 1           # result repeats, inputs never do:
                                 # unreusable but (magic-)predictable
        add  r20, r20, r4
        add  r20, r20, r5
        addi r1, r1, -1
        bne  r1, r0, loop
        halt";
    let cfg = CoreConfig::with_hybrid(VpConfig::magic(), IrConfig::table1());
    check_against_golden(src, cfg.clone());
    let (_, s) = run_with(src, cfg);
    assert!(s.reused_full > 100, "hybrid must reuse: {}", s.reused_full);
    assert!(
        s.result_predicted > 0,
        "hybrid must also predict what it cannot reuse"
    );
}

#[test]
fn trace_captures_a_reused_instruction() {
    let prog = asm::assemble(
        "       li   r1, 50
 loop:  li   r2, 9
        add  r3, r2, r2
        beq  r0, r0, next        # ends an RTB trace with no live-ins
 next:  addi r1, r1, -1
        bne  r1, r0, loop
        halt",
    )
    .expect("assembles");
    let traced = |config: CoreConfig| {
        let mut sim = Simulator::new(&prog, config);
        sim.run_checked(RunLimits::insts(100))
            .unwrap_or_else(|e| panic!("{e}"));
        sim.enable_trace(16);
        sim.run_checked(RunLimits::insts(sim.stats().committed + 40))
            .unwrap_or_else(|e| panic!("{e}"));
        sim
    };
    let outcomes = |sim: &Simulator| -> Vec<TraceOutcome> {
        sim.trace().expect("enabled").records().iter().map(|r| r.outcome).collect()
    };

    let sim = traced(CoreConfig::with_ir(IrConfig::table1()));
    let trace = sim.trace().expect("enabled");
    assert!(!trace.records().is_empty());
    let rendered = trace.render();
    assert!(rendered.contains("Reused"), "{rendered}");
    assert!(
        trace
            .records()
            .iter()
            .any(|r| r.commit.is_some() && r.issues.is_empty()),
        "a reused instruction commits without ever issuing"
    );
    assert!(!outcomes(&sim).contains(&TraceOutcome::TraceReused), "{rendered}");

    // Members replayed from the reuse trace buffer are told apart from
    // IR reuse.
    let sim = traced(CoreConfig::with_rtb(RtbConfig::t8()));
    let rendered = sim.trace().expect("enabled").render();
    assert!(sim.stats().rtb.replays > 0, "the trace must replay");
    assert!(outcomes(&sim).contains(&TraceOutcome::TraceReused), "{rendered}");
    assert!(!outcomes(&sim).contains(&TraceOutcome::Reused), "{rendered}");
}

#[test]
fn trace_enabled_before_the_first_cycle_records_from_cycle_zero() {
    let prog = asm::assemble(
        "       li   r1, 3
        addi r1, r1, 4
        halt",
    )
    .expect("assembles");
    let run = |sim: &mut Simulator| {
        sim.run_to_halt(RunLimits::cycles(10_000))
            .unwrap_or_else(|e| panic!("{e}"));
    };
    let mut sim = Simulator::new(&prog, CoreConfig::table1());
    sim.enable_trace(8);
    run(&mut sim);
    let trace = sim.trace().expect("enabled trace");
    let records = trace.records();
    assert_eq!(records.len(), 3, "every instruction fits in the capacity");
    assert_eq!(records[0].seq, 1, "tracing starts with the first dispatch");
    assert!(records.iter().all(|r| r.commit.is_some()));

    // The same run with capacity 1 keeps only the first record, and a
    // simulator that never enables tracing records nothing at all.
    let mut sim = Simulator::new(&prog, CoreConfig::table1());
    sim.enable_trace(1);
    run(&mut sim);
    assert_eq!(sim.trace().expect("enabled").records().len(), 1);
    let mut sim = Simulator::new(&prog, CoreConfig::table1());
    run(&mut sim);
    assert!(sim.trace().is_none());
}
