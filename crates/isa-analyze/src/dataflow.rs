//! Classic bit-vector dataflow over the CFG: reaching definitions
//! (forward, union) and must-initialized registers (forward,
//! intersection — lint L2).

use vpir_isa::{Program, Reg, NUM_REGS};

use crate::cfg::{Cfg, EdgeRole};

/// One definition site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefSite {
    /// Instruction index of the definition.
    pub inst: usize,
    /// Defined register; `None` for a call's wildcard clobber (the
    /// callee may write any register).
    pub reg: Option<Reg>,
}

/// A dense bitset sized to the definition-site universe.
type BitVec = Vec<u64>;

fn bit_set(v: &mut BitVec, i: usize) {
    v[i / 64] |= 1 << (i % 64);
}

fn bit_get(v: &[u64], i: usize) -> bool {
    v[i / 64] & (1 << (i % 64)) != 0
}

/// Reaching definitions: which definition sites may reach each block
/// entry.
pub struct ReachingDefs {
    /// The definition-site universe, in instruction order.
    pub sites: Vec<DefSite>,
    in_by_block: Vec<BitVec>,
}

impl ReachingDefs {
    /// Definite definition sites of `reg` that may reach `inst_idx`
    /// (instruction indexes), plus whether a call's wildcard clobber
    /// also reaches it.
    pub fn defs_reaching(
        &self,
        prog: &Program,
        cfg: &Cfg,
        inst_idx: usize,
        reg: Reg,
    ) -> (Vec<usize>, bool) {
        let b = cfg.block_of[inst_idx];
        let mut live = self.in_by_block[b].clone();
        for i in cfg.blocks[b].start..inst_idx {
            self.apply_inst(prog, i, &mut live);
        }
        let mut defs = Vec::new();
        let mut wildcard = false;
        for (s, site) in self.sites.iter().enumerate() {
            if !bit_get(&live, s) {
                continue;
            }
            match site.reg {
                Some(r) if r == reg => defs.push(site.inst),
                None => wildcard = true,
                _ => {}
            }
        }
        (defs, wildcard)
    }

    /// Applies instruction `i`'s gen/kill to `live`.
    fn apply_inst(&self, prog: &Program, i: usize, live: &mut BitVec) {
        let inst = &prog.insts[i];
        if let Some(dst) = inst.dst.filter(|d| !d.is_zero()) {
            // A definite def kills every other definite def of the same
            // register (wildcards are may-defs and survive).
            for (s, site) in self.sites.iter().enumerate() {
                if site.reg == Some(dst) && site.inst != i && bit_get(live, s) {
                    live[s / 64] &= !(1 << (s % 64));
                }
            }
        }
        for (s, site) in self.sites.iter().enumerate() {
            if site.inst == i {
                bit_set(live, s);
            }
        }
    }
}

/// Computes reaching definitions over the reachable CFG.
pub fn reaching_defs(prog: &Program, cfg: &Cfg) -> ReachingDefs {
    let mut sites = Vec::new();
    for (i, inst) in prog.insts.iter().enumerate() {
        if let Some(dst) = inst.dst.filter(|d| !d.is_zero()) {
            sites.push(DefSite {
                inst: i,
                reg: Some(dst),
            });
        }
        if inst.is_call() {
            sites.push(DefSite { inst: i, reg: None });
        }
    }
    let words = sites.len().div_ceil(64).max(1);
    let n = cfg.blocks.len();
    let mut rd = ReachingDefs {
        sites,
        in_by_block: vec![vec![0; words]; n],
    };

    // Iterate to fixpoint: union join, so sets only grow.
    let mut changed = true;
    while changed {
        changed = false;
        for b in 0..n {
            if !cfg.reachable[b] {
                continue;
            }
            let mut out = rd.in_by_block[b].clone();
            for i in cfg.blocks[b].insts() {
                rd.apply_inst(prog, i, &mut out);
            }
            for &(s, _) in &cfg.blocks[b].out_edges {
                let mut grew = false;
                for (word, &o) in rd.in_by_block[s].iter_mut().zip(&out) {
                    let nv = *word | o;
                    if nv != *word {
                        *word = nv;
                        grew = true;
                    }
                }
                changed |= grew;
            }
        }
    }
    rd
}

/// A register read whose register has no write on some path from the
/// program entry (lint L2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UninitRead {
    /// Instruction index of the read.
    pub inst: usize,
    /// The register read before being written.
    pub reg: Reg,
}

const ALL_REGS: u128 = (1u128 << NUM_REGS) - 1;

fn reg_bit(r: Reg) -> u128 {
    1u128 << r.index()
}

/// Must-initialized register analysis: finds reads of registers that
/// some entry path never writes. The machine zeroes every register at
/// startup, so these are well-defined executions — but depending on an
/// implicit zero is almost always an authoring mistake, which is why it
/// is a lint rather than an error.
///
/// Conservative choices to stay quiet: the entry state initializes `r0`
/// and `sp` (hardware reality), and a call-return edge initializes
/// everything (the callee may have written any register).
pub fn uninit_reads(prog: &Program, cfg: &Cfg) -> Vec<UninitRead> {
    let n = cfg.blocks.len();
    if n == 0 {
        return Vec::new();
    }
    let init = reg_bit(Reg::ZERO) | reg_bit(Reg::SP);
    let mut in_set = vec![ALL_REGS; n];
    in_set[cfg.entry] = init;

    let block_out = |in_val: u128, b: usize| -> u128 {
        let mut out = in_val;
        for i in cfg.blocks[b].insts() {
            if let Some(dst) = prog.insts[i].dst {
                out |= reg_bit(dst);
            }
        }
        out
    };

    // Intersection join: sets only shrink, so iterate to fixpoint.
    let mut changed = true;
    while changed {
        changed = false;
        for b in 0..n {
            if !cfg.reachable[b] {
                continue;
            }
            let out = block_out(in_set[b], b);
            for &(s, role) in &cfg.blocks[b].out_edges {
                let v = if role == EdgeRole::CallReturn {
                    ALL_REGS
                } else {
                    out
                };
                let nv = in_set[s] & v;
                if nv != in_set[s] {
                    in_set[s] = nv;
                    changed = true;
                }
            }
        }
    }

    let mut reads = Vec::new();
    for (b, &block_in) in in_set.iter().enumerate() {
        if !cfg.reachable[b] {
            continue;
        }
        let mut live = block_in;
        for i in cfg.blocks[b].insts() {
            let inst = &prog.insts[i];
            for src in inst.sources() {
                if live & reg_bit(src) == 0 {
                    reads.push(UninitRead { inst: i, reg: src });
                }
            }
            if let Some(dst) = inst.dst {
                live |= reg_bit(dst);
            }
        }
    }
    reads.sort_by_key(|r| (r.inst, r.reg.index()));
    reads.dedup();
    reads
}
