//! Ablation: the three reuse-test schemes.
//!
//! * `Sn` — operand names + valid bits (ISCA'97 baseline)
//! * `SnD` — names + dependence chains (ISCA'97 `S_{n+d}`)
//! * `SnDValues` — the MICRO'98 augmentation with stored operand values
//!   and entry re-validation (the scheme the paper evaluates)
//!
//! ```text
//! cargo run --release --example reuse_schemes
//! ```

use vpir::core::{CoreConfig, IrConfig, RunLimits, SimError, Simulator};
use vpir::reuse::{RbConfig, ReuseScheme};
use vpir::workloads::{Bench, Scale};

fn main() -> Result<(), SimError> {
    println!("bench     scheme      reuse%  addr%  speedup");
    for bench in [Bench::M88ksim, Bench::Compress, Bench::Go] {
        let program = bench.program(Scale::of(4));
        let mut base = Simulator::new(&program, CoreConfig::table1());
        let base_ipc = base.run_to_halt(RunLimits::cycles(4_000_000))?.ipc();
        for scheme in [ReuseScheme::Sn, ReuseScheme::SnD, ReuseScheme::SnDValues] {
            let ir = IrConfig {
                rb: RbConfig {
                    scheme,
                    ..RbConfig::table1()
                },
                ..IrConfig::table1()
            };
            let mut sim = Simulator::new(&program, CoreConfig::with_ir(ir));
            let s = sim.run_to_halt(RunLimits::cycles(4_000_000))?;
            println!(
                "{:<9} {:<10}  {:>5.1}  {:>5.1}  {:>7.3}",
                bench.name(),
                format!("{scheme:?}"),
                s.reuse_result_rate(),
                s.reuse_addr_rate(),
                s.ipc() / base_ipc,
            );
        }
    }
    println!(
        "\nStored operand values (SnDValues) both catch more reuse and avoid\n\
         the name-based schemes' invalidation on same-value overwrites."
    );
    Ok(())
}
