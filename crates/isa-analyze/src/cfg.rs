//! Control-flow graph construction over a [`Program`]'s text segment.
//!
//! Basic blocks are partitioned at labels, control-transfer
//! instructions, and their targets. Edges follow the interprocedural
//! approximation documented on [`Cfg`]: a `jal` gets both a call edge to
//! its target and a fallthrough edge to its return point (callees are
//! assumed to return), a `jr ra` ends a block with no successors (the
//! matching fallthrough edge at the call site represents the return),
//! and computed transfers (`jalr`, `jr` through a non-`ra` register)
//! conservatively target every address-taken text label.

use std::collections::BTreeSet;

use vpir_isa::{Op, OpClass, Program, INST_BYTES};

/// How control reaches a successor, which the dataflow passes need to
/// distinguish: a `CallReturn` edge models "the callee has run and
/// returned", so register state must be treated as clobbered along it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeRole {
    /// Sequential execution into the next block (includes the not-taken
    /// path of a conditional branch).
    Fallthrough,
    /// The taken path of a direct branch or jump.
    Target,
    /// A computed transfer (`jalr` / non-return `jr`) to an
    /// address-taken label.
    Computed,
    /// The return point after a call (`jal` / `jalr`): state flows from
    /// before the call, through an unknown callee, to here.
    CallReturn,
}

/// One basic block: the half-open instruction-index range
/// `[start, end)` plus sorted, deduplicated edge lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// First instruction index.
    pub start: usize,
    /// One past the last instruction index.
    pub end: usize,
    /// Successor block ids, sorted and deduplicated (a conditional
    /// branch whose target is its own fallthrough yields one edge).
    pub succs: Vec<usize>,
    /// Predecessor block ids, sorted and deduplicated.
    pub preds: Vec<usize>,
    /// Out edges with their roles, sorted; unlike `succs` a successor
    /// may appear twice under different roles (e.g. a branch whose
    /// target is its own fallthrough).
    pub out_edges: Vec<(usize, EdgeRole)>,
}

impl Block {
    /// Instruction indexes of this block.
    pub fn insts(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

/// A control transfer whose target is not a decodable instruction
/// address (outside the text segment or misaligned): lint L3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadTarget {
    /// Instruction index of the transfer.
    pub inst: usize,
    /// The byte address it targets.
    pub target: u64,
}

/// The control-flow graph of a program's text segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    /// Basic blocks in address order (block id = index here).
    pub blocks: Vec<Block>,
    /// Block id containing the entry point.
    pub entry: usize,
    /// Instruction index → owning block id.
    pub block_of: Vec<usize>,
    /// Per block: reachable from the entry block along CFG edges.
    pub reachable: Vec<bool>,
    /// Control transfers with undecodable targets (lint L3).
    pub bad_targets: Vec<BadTarget>,
    /// Whether `Program::entry` itself decodes to an instruction.
    pub entry_valid: bool,
}

impl Cfg {
    /// Block ids in address order that are unreachable from the entry.
    pub fn unreachable_blocks(&self) -> Vec<usize> {
        (0..self.blocks.len())
            .filter(|&b| !self.reachable[b])
            .collect()
    }

    /// The byte address of instruction index `i` (delegates to the
    /// program geometry used at construction).
    pub fn addr_of(&self, text_base: u64, i: usize) -> u64 {
        text_base + (i as u64) * INST_BYTES
    }
}

/// Maps a byte address to an instruction index if it is a decodable
/// position in the text segment.
fn inst_index(prog: &Program, addr: u64) -> Option<usize> {
    let off = addr.checked_sub(prog.text_base)?;
    if off % INST_BYTES != 0 {
        return None;
    }
    let idx = (off / INST_BYTES) as usize;
    (idx < prog.len()).then_some(idx)
}

/// Text-label addresses whose value appears as an immediate of some
/// non-control instruction — the conservative "address taken" set that
/// computed transfers (`jalr`, non-return `jr`) may target.
fn address_taken(prog: &Program) -> BTreeSet<usize> {
    let text_labels: BTreeSet<u64> = prog
        .labels
        .values()
        .copied()
        .filter(|&a| inst_index(prog, a).is_some())
        .collect();
    let mut taken = BTreeSet::new();
    for inst in &prog.insts {
        let class = inst.op.class();
        if matches!(class, OpClass::Branch | OpClass::Jump | OpClass::JumpReg) {
            continue;
        }
        let imm = inst.imm as u64;
        if text_labels.contains(&imm) {
            if let Some(idx) = inst_index(prog, imm) {
                taken.insert(idx);
            }
        }
    }
    taken
}

/// Whether execution can continue at the next instruction after `i`.
fn falls_through(op: Op) -> bool {
    match op.class() {
        OpClass::Branch => true,      // not-taken path
        OpClass::Jump => op == Op::Jal, // call returns to the next inst
        OpClass::JumpReg => op == Op::Jalr, // ditto
        _ => op != Op::Halt,
    }
}

/// Whether `op` ends a basic block.
fn ends_block(op: Op) -> bool {
    matches!(
        op.class(),
        OpClass::Branch | OpClass::Jump | OpClass::JumpReg
    ) || op == Op::Halt
}

/// Builds the CFG of `prog`'s text segment.
pub fn build(prog: &Program) -> Cfg {
    let n = prog.len();
    if n == 0 {
        return Cfg {
            blocks: Vec::new(),
            entry: 0,
            block_of: Vec::new(),
            reachable: Vec::new(),
            bad_targets: Vec::new(),
            entry_valid: false,
        };
    }

    let mut bad_targets = Vec::new();
    let mut leaders: BTreeSet<usize> = BTreeSet::new();
    leaders.insert(0);
    let entry_idx = inst_index(prog, prog.entry);
    if let Some(e) = entry_idx {
        leaders.insert(e);
    }
    // Labels pointing into text start blocks (sorted for determinism —
    // the label map itself is hash-ordered).
    let mut label_targets: BTreeSet<usize> = BTreeSet::new();
    for &addr in prog.labels.values() {
        if let Some(idx) = inst_index(prog, addr) {
            label_targets.insert(idx);
        }
    }
    leaders.extend(label_targets.iter().copied());

    let taken = address_taken(prog);
    leaders.extend(taken.iter().copied());

    for (i, inst) in prog.insts.iter().enumerate() {
        let class = inst.op.class();
        if matches!(class, OpClass::Branch | OpClass::Jump) {
            match inst_index(prog, inst.target()) {
                Some(t) => {
                    leaders.insert(t);
                }
                None => bad_targets.push(BadTarget {
                    inst: i,
                    target: inst.target(),
                }),
            }
        }
        if ends_block(inst.op) && i + 1 < n {
            leaders.insert(i + 1);
        }
    }

    // Blocks from sorted leaders.
    let starts: Vec<usize> = leaders.into_iter().collect();
    let mut blocks: Vec<Block> = starts
        .iter()
        .enumerate()
        .map(|(b, &start)| Block {
            start,
            end: starts.get(b + 1).copied().unwrap_or(n),
            succs: Vec::new(),
            preds: Vec::new(),
            out_edges: Vec::new(),
        })
        .collect();
    let mut block_of = vec![0usize; n];
    for (b, blk) in blocks.iter().enumerate() {
        for i in blk.insts() {
            block_of[i] = b;
        }
    }

    // Edges, carrying their roles.
    let mut edges: Vec<(usize, usize, EdgeRole)> = Vec::new();
    for (b, blk) in blocks.iter().enumerate() {
        let last = blk.end - 1;
        let inst = &prog.insts[last];
        let class = inst.op.class();
        if matches!(class, OpClass::Branch | OpClass::Jump) {
            if let Some(t) = inst_index(prog, inst.target()) {
                edges.push((b, block_of[t], EdgeRole::Target));
            }
        }
        if class == OpClass::JumpReg && !inst.is_return() {
            // Computed transfer: may reach any address-taken label.
            for &t in &taken {
                edges.push((b, block_of[t], EdgeRole::Computed));
            }
        }
        if falls_through(inst.op) && blk.end < n {
            let role = if inst.is_call() {
                EdgeRole::CallReturn
            } else {
                EdgeRole::Fallthrough
            };
            edges.push((b, block_of[blk.end], role));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    for &(from, to, role) in &edges {
        blocks[from].succs.push(to);
        blocks[from].out_edges.push((to, role));
        blocks[to].preds.push(from);
    }
    for blk in &mut blocks {
        blk.succs.sort_unstable();
        blk.succs.dedup();
        blk.preds.sort_unstable();
        blk.preds.dedup();
        blk.out_edges.sort_unstable();
        blk.out_edges.dedup();
    }

    // Reachability from the entry block.
    let entry = entry_idx.map(|e| block_of[e]).unwrap_or(0);
    let mut reachable = vec![false; blocks.len()];
    let mut stack = vec![entry];
    while let Some(b) = stack.pop() {
        if reachable[b] {
            continue;
        }
        reachable[b] = true;
        for &s in &blocks[b].succs {
            if !reachable[s] {
                stack.push(s);
            }
        }
    }

    Cfg {
        blocks,
        entry,
        block_of,
        reachable,
        bad_targets,
        entry_valid: entry_idx.is_some(),
    }
}
