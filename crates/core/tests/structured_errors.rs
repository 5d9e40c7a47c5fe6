//! The failure model end to end: the forward-progress watchdog trips at
//! exactly `watchdog_cycles`, wedges classify as livelock vs deadlock,
//! budget exhaustion is a structured error, paranoia mode passes on
//! healthy machines, and randomized differential runs either agree on
//! architectural state or fail with a `SimError` — never a panic.

use vpir_core::{
    CoreConfig, DiagSnapshot, FaultInjection, IrConfig, RetiredInst, RunLimits, SimError,
    Simulator, VpConfig,
};
use vpir_isa::{asm, Op, Reg};
use vpir_workloads::synth::{random_program, SynthConfig};
use vpir_workloads::{Bench, Scale};

fn loop_program() -> vpir_isa::Program {
    asm::assemble(
        "       li   r1, 100000
         loop:  addi r2, r2, 1
                addi r1, r1, -1
                bne  r1, r0, loop
                halt",
    )
    .expect("assemble")
}

#[test]
fn injected_commit_stall_trips_livelock_at_exactly_watchdog_cycles() {
    let mut cfg = CoreConfig::table1();
    cfg.fault = FaultInjection::CommitStall { after_commits: 5 };
    cfg.watchdog_cycles = 400;
    let prog = loop_program();
    let mut sim = Simulator::new(&prog, cfg);
    let err = sim
        .run_checked(RunLimits::unbounded())
        .expect_err("a wedged commit stage must trip the watchdog");

    let SimError::Livelock {
        cycle,
        watchdog_cycles,
        last_commit_cycle,
        ref snapshot,
    } = err
    else {
        panic!("expected Livelock, got {err:?}");
    };
    assert_eq!(watchdog_cycles, 400);
    assert_eq!(
        cycle - last_commit_cycle,
        400,
        "watchdog must fire exactly watchdog_cycles after the last commit"
    );
    assert_eq!(snapshot.committed, 5, "the stall was injected after 5 commits");
    assert!(
        snapshot.rob_len > 0,
        "a livelocked machine still holds in-flight work"
    );
    assert_eq!(
        snapshot.last_retired.len(),
        5,
        "the diagnostic ring records every retirement before the wedge"
    );
    let last = snapshot.last_retired.last().expect("non-empty ring");
    assert_eq!(last.cycle, last_commit_cycle);
    // The ring is ordered oldest-first by sequence number.
    let seqs: Vec<u64> = snapshot.last_retired.iter().map(|r| r.seq).collect();
    let mut sorted = seqs.clone();
    sorted.sort_unstable();
    assert_eq!(seqs, sorted);

    // The failure is sticky: re-running a failed machine re-reports the
    // same error rather than resuming.
    assert_eq!(sim.run_checked(RunLimits::unbounded()), Err(err));
}

#[test]
fn diagnostic_ring_keeps_only_the_most_recent_retirements() {
    let mut cfg = CoreConfig::table1();
    cfg.fault = FaultInjection::CommitStall {
        after_commits: 3 * vpir_core::RETIRED_RING as u64,
    };
    cfg.watchdog_cycles = 200;
    let mut sim = Simulator::new(&loop_program(), cfg);
    let err = sim
        .run_checked(RunLimits::unbounded())
        .expect_err("injected wedge");
    let snapshot = err.snapshot().expect("livelock carries a snapshot");
    assert_eq!(snapshot.last_retired.len(), vpir_core::RETIRED_RING);
    // Oldest-first ordering holds across the ring wrap.
    let seqs: Vec<u64> = snapshot.last_retired.iter().map(|r| r.seq).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "unordered ring: {seqs:?}");
    // Seq numbers count dispatches (wrong-path work included), so the
    // newest entry's seq is at least the commit count.
    let last = snapshot.last_retired.last().expect("non-empty ring");
    assert!(last.seq >= snapshot.committed);
}

#[test]
fn falling_off_the_text_segment_on_the_true_path_is_a_deadlock() {
    // No halt and no control transfer: fetch falls off the text segment
    // on the architecturally correct path, the ROB drains, and the
    // machine idles forever. Before the watchdog this spun to the cycle
    // limit; now it is a structured deadlock.
    let prog = asm::assemble("li r1, 7\naddi r2, r1, 1\n").expect("assemble");
    let mut cfg = CoreConfig::table1();
    cfg.watchdog_cycles = 300;
    let mut sim = Simulator::new(&prog, cfg);
    let err = sim
        .run_checked(RunLimits::unbounded())
        .expect_err("a drained, fetch-halted machine must trip the watchdog");
    let SimError::Deadlock { ref snapshot, .. } = err else {
        panic!("expected Deadlock, got {err:?}");
    };
    assert_eq!(snapshot.rob_len, 0, "the ROB drained before the wedge");
    assert_eq!(snapshot.fetch_queue_len, 0);
    assert!(snapshot.fetch_halted);
    assert_eq!(snapshot.committed, 2);
}

#[test]
fn budget_exhaustion_is_ok_for_capped_runs_and_an_error_for_required_halts() {
    let prog = loop_program();
    // A capped run stopping at its limit is a normal outcome.
    let mut sim = Simulator::new(&prog, CoreConfig::table1());
    let stats = sim
        .run_checked(RunLimits::cycles(50))
        .expect("reaching a cycle cap is not a failure");
    assert!(stats.committed > 0);

    // The same cap under run_to_halt is a structured budget error.
    let mut sim = Simulator::new(&prog, CoreConfig::table1());
    let err = sim
        .run_to_halt(RunLimits::cycles(50))
        .expect_err("the loop cannot finish in 50 cycles");
    let SimError::CycleBudgetExceeded {
        cycle,
        max_cycles,
        committed,
    } = err
    else {
        panic!("expected CycleBudgetExceeded, got {err:?}");
    };
    assert_eq!(cycle, 50);
    assert_eq!(max_cycles, 50);
    assert!(committed > 0);

    // A generous budget succeeds.
    let mut sim = Simulator::new(&prog, CoreConfig::table1());
    assert!(sim.run_to_halt(RunLimits::unbounded()).is_ok());
    assert!(sim.halted());
}

#[test]
fn paranoia_mode_passes_on_healthy_machines() {
    // Per-cycle invariant sweeps across base, VP, and IR on a real
    // workload: a healthy simulator must never trip them.
    let prog = Bench::Compress.program(Scale::test());
    for (label, mut cfg) in [
        ("base", CoreConfig::table1()),
        ("vp", CoreConfig::with_vp(VpConfig::magic())),
        ("ir", CoreConfig::with_ir(IrConfig::table1())),
        (
            "hybrid",
            CoreConfig::with_hybrid(VpConfig::magic(), IrConfig::table1()),
        ),
    ] {
        cfg.paranoia = true;
        let mut sim = Simulator::new(&prog, cfg);
        let result = sim.run_to_halt(RunLimits::unbounded());
        assert!(result.is_ok(), "[{label}] paranoia tripped: {result:?}");
    }
}

/// A minimal multiplicative LCG (Lehmer, M31) — the test's only source
/// of randomness, so the whole differential sweep is reproducible with
/// no `rand` dependency.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(48271) % 0x7fff_ffff;
        self.0
    }
}

#[test]
fn lcg_random_programs_agree_across_base_vp_ir_or_fail_structured() {
    // Satellite: random programs under base vs VP vs IR must reach
    // identical architectural state or fail with a structured SimError —
    // never a panic, never a silent wedge. Paranoia and the watchdog are
    // both armed so any divergence surfaces as a typed error.
    let mut lcg = Lcg(0x5eed);
    for _ in 0..6 {
        let seed = lcg.next();
        let prog = random_program(seed, SynthConfig::default());

        let mut outcomes = Vec::new();
        for (label, mut cfg) in [
            ("base", CoreConfig::table1()),
            ("vp", CoreConfig::with_vp(VpConfig::magic())),
            ("ir", CoreConfig::with_ir(IrConfig::table1())),
        ] {
            cfg.paranoia = true;
            cfg.watchdog_cycles = 1_000_000;
            let mut sim = Simulator::new(&prog, cfg);
            let outcome = match sim.run_to_halt(RunLimits::cycles(400_000_000)) {
                Ok(stats) => {
                    let committed = stats.committed;
                    let regs: Vec<u64> = (0..vpir_isa::NUM_REGS)
                        .map(|i| sim.arch_regs().read(Reg::from_index(i)))
                        .collect();
                    Ok((committed, regs))
                }
                Err(e) => Err(e),
            };
            outcomes.push((label, outcome));
        }

        // The base machine has no speculation to go wrong: it must halt.
        let (_, base) = &outcomes[0];
        let base = base
            .as_ref()
            .unwrap_or_else(|e| panic!("seed {seed}: base failed: {e}"));
        for (label, outcome) in &outcomes[1..] {
            match outcome {
                Ok(state) => assert_eq!(
                    state, base,
                    "seed {seed}: {label} architectural state diverged from base"
                ),
                // A structured failure is an acceptable outcome for the
                // property under test (it is the panic that is not);
                // surface it loudly so regressions are investigated.
                Err(e) => panic!(
                    "seed {seed}: {label} failed structurally (kind {}): {e}",
                    e.kind()
                ),
            }
        }
    }
}

/// A snapshot whose checkpoint stack and retired ring hold `n` (0 or 2)
/// entries each.
fn snapshot(n: usize) -> DiagSnapshot {
    let retired = [
        RetiredInst {
            seq: 6,
            pc: 4092,
            op: Op::Addi,
            cycle: 39,
        },
        RetiredInst {
            seq: 7,
            pc: 4096,
            op: Op::Bne,
            cycle: 40,
        },
    ];
    DiagSnapshot {
        cycle: 42,
        committed: 7,
        dispatched: 12,
        executions: 11,
        squashes: 1,
        rob_len: 3,
        rob_capacity: 32,
        rob_head_seq: Some(8),
        rob_head_pc: None,
        checkpoint_seqs: [9, 11][..n].to_vec(),
        fetch_pc: 4128,
        fetch_halted: false,
        fetch_queue_len: 2,
        last_retired: retired[..n].to_vec(),
    }
}

#[test]
fn snapshot_json_bytes_are_pinned() {
    assert_eq!(
        snapshot(0).to_json(),
        r#"{
  "cycle": 42,
  "committed": 7,
  "dispatched": 12,
  "executions": 11,
  "squashes": 1,
  "rob_len": 3,
  "rob_capacity": 32,
  "rob_head_seq": 8,
  "rob_head_pc": null,
  "checkpoint_seqs": [],
  "fetch_pc": 4128,
  "fetch_halted": false,
  "fetch_queue_len": 2,
  "last_retired": []
}"#
    );
    assert_eq!(
        snapshot(2).to_json(),
        r#"{
  "cycle": 42,
  "committed": 7,
  "dispatched": 12,
  "executions": 11,
  "squashes": 1,
  "rob_len": 3,
  "rob_capacity": 32,
  "rob_head_seq": 8,
  "rob_head_pc": null,
  "checkpoint_seqs": [9, 11],
  "fetch_pc": 4128,
  "fetch_halted": false,
  "fetch_queue_len": 2,
  "last_retired": [
    {"seq": 6, "pc": 4092, "op": "Addi", "cycle": 39},
    {"seq": 7, "pc": 4096, "op": "Bne", "cycle": 40}
  ]
}"#
    );
}

#[test]
fn sim_error_json_bytes_are_pinned() {
    let with_snapshot = SimError::InvariantViolation {
        cycle: 42,
        what: "rob \"order\"\nbroken".to_string(),
        snapshot: Box::new(snapshot(2)),
    };
    assert_eq!(
        with_snapshot.to_json(),
        r#"{
  "kind": "invariant_violation",
  "cycle": 42,
  "message": "invariant violation at cycle 42: rob \"order\"\nbroken",
  "snapshot": {
    "cycle": 42,
    "committed": 7,
    "dispatched": 12,
    "executions": 11,
    "squashes": 1,
    "rob_len": 3,
    "rob_capacity": 32,
    "rob_head_seq": 8,
    "rob_head_pc": null,
    "checkpoint_seqs": [9, 11],
    "fetch_pc": 4128,
    "fetch_halted": false,
    "fetch_queue_len": 2,
    "last_retired": [
      {"seq": 6, "pc": 4092, "op": "Addi", "cycle": 39},
      {"seq": 7, "pc": 4096, "op": "Bne", "cycle": 40}
    ]
  }
}"#
    );
    let without = SimError::Internal {
        cycle: 7,
        what: "slot \"3\" freed twice\nat commit".to_string(),
    };
    assert_eq!(
        without.to_json(),
        r#"{
  "kind": "internal",
  "cycle": 7,
  "message": "internal error at cycle 7: slot \"3\" freed twice\nat commit",
  "snapshot": null
}"#
    );
}
