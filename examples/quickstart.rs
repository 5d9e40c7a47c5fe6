//! Quickstart: assemble a program, run it on the base machine, then with
//! value prediction and with instruction reuse, and compare.
//!
//! The workload is deliberately multiplier-bound: four serial multiplies
//! per iteration on the Table 1 machine's single multiply unit. Value
//! prediction breaks the dependences but every multiply still *executes*
//! to verify its prediction, so the multiplier stays saturated and VP
//! gains nothing — while instruction reuse skips the executions entirely
//! (the paper's Section 3.2 resource-demand argument, in one loop).
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use vpir::core::{CoreConfig, IrConfig, RunLimits, Simulator, VpConfig};
use vpir::isa::{asm, Machine, Reg};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A loop that recomputes the same values every iteration — the
    // redundancy both mechanisms exploit.
    let program = asm::assemble(
        "        .data 0x200000
         vals:   .word 6, 2, 8, 2
                 .text
                 li   r6, 2000
         outer:  la   r7, vals
                 lw   r3, 0(r7)
                 mul  r4, r3, r3      # serial multiply chain:
                 mul  r5, r4, r3      # 3 cycles each on the base machine,
                 mul  r9, r5, r4      # collapsed by VP and IR
                 mul  r10, r9, r5
                 add  r20, r20, r10
                 addi r6, r6, -1
                 bne  r6, r0, outer
                 halt",
    )?;

    // Golden model: the functional interpreter.
    let mut machine = Machine::new(&program);
    machine.run(1_000_000)?;
    println!(
        "functional: {} instructions, r20 = {}",
        machine.icount,
        machine.regs.read(Reg::int(20))
    );

    // The paper's Table 1 machine, in its three personalities.
    for (name, config) in [
        ("base      ", CoreConfig::table1()),
        ("VP (magic)", CoreConfig::with_vp(VpConfig::magic())),
        ("IR (Sn+d) ", CoreConfig::with_ir(IrConfig::table1())),
    ] {
        let mut sim = Simulator::new(&program, config);
        let stats = sim.run_to_halt(RunLimits::unbounded())?.clone();
        assert_eq!(
            sim.arch_regs().read(Reg::int(20)),
            machine.regs.read(Reg::int(20)),
            "timing simulation must match the golden model"
        );
        println!(
            "{name}: {:>6} cycles  IPC {:.2}  reused {:>5}  predicted {:>5}",
            stats.cycles,
            stats.ipc(),
            stats.reused_full,
            stats.result_pred_correct,
        );
    }
    Ok(())
}
