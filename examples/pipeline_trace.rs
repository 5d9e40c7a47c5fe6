//! Visualising Figure 2: the flow of a dependent chain through the base
//! pipeline, the VP pipeline, and the IR pipeline.
//!
//! Prints a per-instruction timeline (`D` dispatch, `i` issue,
//! `x` complete, `C` commit) for the same dependent chain under each
//! mechanism — the collapse of the chain under VP and IR is visible in
//! the commit column.
//!
//! ```text
//! cargo run --release --example pipeline_trace
//! ```

use vpir::core::{CoreConfig, IrConfig, RunLimits, Simulator, VpConfig};
use vpir::isa::asm;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Warm the structures with one pass, then trace the second pass of
    // the dependent chain I -> J -> K (as in the paper's Figure 2).
    let program = asm::assemble(
        "        li   r6, 30
         outer:  li   r1, 5
                 add  r2, r1, r1      # I
                 add  r3, r2, r2      # J  (depends on I)
                 add  r4, r3, r3      # K  (depends on J)
                 add  r20, r20, r4
                 addi r6, r6, -1
                 bne  r6, r0, outer
                 halt",
    )?;

    for (name, config) in [
        ("base superscalar", CoreConfig::table1()),
        ("with VP (magic)", CoreConfig::with_vp(VpConfig::magic())),
        ("with IR (Sn+d)", CoreConfig::with_ir(IrConfig::table1())),
    ] {
        let mut sim = Simulator::new(&program, config);
        // Warm up: run most of the loop, then trace a steady-state slice.
        sim.run_checked(RunLimits::insts(150))?;
        sim.enable_trace(8);
        sim.run_checked(RunLimits::insts(sim.stats().committed + 24))?;
        println!("=== {name}\n{}", sim.trace().expect("tracing enabled").render());
    }
    Ok(())
}
