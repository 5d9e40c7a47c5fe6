//! Per-PC reuse profiling: which static instructions actually hit the
//! reuse buffer on a benchmark?
//!
//! ```text
//! cargo run --release -p vpir-core --example reuse_profile -- <bench>
//! ```

use vpir_core::{CoreConfig, IrConfig, RunLimits, Simulator};
use vpir_workloads::{Bench, Scale};

fn main() {
    let bench = std::env::args().nth(1).unwrap_or_else(|| "perl".into());
    let b = Bench::parse(&bench).unwrap();
    let prog = b.program(Scale::test());
    let mut config = CoreConfig::with_ir(IrConfig::table1());
    config.pc_profile = true;
    let mut sim = Simulator::new(&prog, config);
    let s = sim.run(RunLimits::cycles(5_000_000)).clone();
    println!("committed={} mem_ops={} full={} addr={}", s.committed, s.mem_ops, s.reused_full, s.reused_addr);
    let mut prof: Vec<_> = sim.pc_profile().iter().collect();
    prof.sort_by_key(|(_, p)| std::cmp::Reverse(p.rb_hits + p.addr_reuses));
    for (pc, p) in prof.iter().take(14) {
        let inst = prog.inst_at(**pc).unwrap();
        println!("{pc:#x}: full={:6} addr={:6}  {inst}", p.rb_hits, p.addr_reuses);
    }
}
