//! Beyond the paper: the hybrid its conclusion calls for.
//!
//! > "We feel, that will help in designing other techniques (possibly
//! > hybrid of VP and IR) that exploit the redundancy in programs more
//! > profitably."
//!
//! The hybrid runs the non-speculative reuse test first; instructions
//! that miss in the reuse buffer fall back to value prediction. Reused
//! results are validated early (no verification, no execution); only the
//! predicted remainder is value-speculative.
//!
//! ```text
//! cargo run --release --example hybrid_mechanism
//! ```

use vpir::core::{
    CoreConfig, IrConfig, RunLimits, SimError, SimStats, Simulator, VpConfig, VpKind,
};
use vpir::workloads::{Bench, Scale};

fn run(program: &vpir::isa::Program, config: CoreConfig) -> Result<SimStats, SimError> {
    Simulator::new(program, config)
        .run_to_halt(RunLimits::cycles(4_000_000))
        .cloned()
}

fn main() -> Result<(), SimError> {
    println!("bench     base-IPC  VP     IR     hybrid  (speedups; hybrid reuse%+pred%)");
    for bench in Bench::ALL {
        let program = bench.program(Scale::of(4));
        let base = run(&program, CoreConfig::table1())?;
        let vp = run(&program, CoreConfig::with_vp(VpConfig::magic()))?;
        let ir = run(&program, CoreConfig::with_ir(IrConfig::table1()))?;
        let hybrid = run(
            &program,
            CoreConfig::with_hybrid(VpConfig::magic(), IrConfig::table1()),
        )?;
        println!(
            "{:<9} {:>7.3}  {:>5.3}  {:>5.3}  {:>6.3}  ({:.1}% reused + {:.1}% predicted)",
            bench.name(),
            base.ipc(),
            vp.ipc() / base.ipc(),
            ir.ipc() / base.ipc(),
            hybrid.ipc() / base.ipc(),
            hybrid.reuse_result_rate(),
            hybrid.vp_result_rate(),
        );
    }

    // A stride predictor captures the "derivable" slice the paper's
    // Figure 8 identifies — useful inside the hybrid for induction chains.
    println!("\nwith a stride predictor in the hybrid:");
    for bench in [Bench::Ijpeg, Bench::Compress] {
        let program = bench.program(Scale::of(4));
        let base = run(&program, CoreConfig::table1())?;
        let stride_vp = VpConfig {
            kind: VpKind::Stride,
            ..VpConfig::magic()
        };
        let hybrid = run(
            &program,
            CoreConfig::with_hybrid(stride_vp, IrConfig::table1()),
        )?;
        println!(
            "{:<9} hybrid(stride) speedup {:.3}  ({:.1}% reused + {:.1}% predicted)",
            bench.name(),
            hybrid.ipc() / base.ipc(),
            hybrid.reuse_result_rate(),
            hybrid.vp_result_rate(),
        );
    }
    Ok(())
}
