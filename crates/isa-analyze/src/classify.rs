//! Static redundancy classification and the structural lints L1–L4.
//!
//! Every result-producing static instruction is placed in one of three
//! classes, mirroring the dynamic Figure 8 taxonomy of the limit study:
//!
//! * **invariant** — constant propagation proved the result is the same
//!   value on every execution (the static analogue of *repeated*);
//! * **stride-derivable** — a self-increment that advances by a fixed
//!   stride once per loop iteration (the static analogue of
//!   *derivable*);
//! * **input-dependent** — everything else.

use vpir_isa::{OpClass, Program};
use vpir_analyze::{Finding, Rule};

use crate::cfg::Cfg;
use crate::dataflow::{self, ReachingDefs};
use crate::dom::LoopInfo;
use crate::sccp::{AddrFact, Sccp};

/// The static redundancy class of a result-producing instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticClass {
    /// Proven to produce one constant value on every execution.
    Invariant,
    /// Advances by a fixed non-zero stride once per loop iteration.
    StrideDerivable,
    /// No static redundancy claim.
    InputDependent,
}

impl StaticClass {
    /// Short name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            StaticClass::Invariant => "invariant",
            StaticClass::StrideDerivable => "stride-derivable",
            StaticClass::InputDependent => "input-dependent",
        }
    }
}

/// Whether instruction `i` participates in the dynamic limit study's
/// "result-producing" universe (same predicate as
/// `vpir_redundancy::analyze_per_pc`).
pub fn is_producer(prog: &Program, i: usize) -> bool {
    let inst = &prog.insts[i];
    inst.dst.is_some()
        && !matches!(
            inst.op.class(),
            OpClass::Jump | OpClass::JumpReg | OpClass::Misc
        )
}

/// Classifies every instruction; `None` for non-producers.
pub fn classify(
    prog: &Program,
    cfg: &Cfg,
    loops: &LoopInfo,
    sccp: &Sccp,
    rd: &ReachingDefs,
) -> Vec<Option<StaticClass>> {
    (0..prog.len())
        .map(|i| {
            if !is_producer(prog, i) {
                return None;
            }
            if !sccp.facts[i].executable {
                // Never executes; make no redundancy claim.
                return Some(StaticClass::InputDependent);
            }
            if sccp.facts[i].const_result.is_some() {
                return Some(StaticClass::Invariant);
            }
            if is_stride(prog, cfg, loops, rd, i) {
                return Some(StaticClass::StrideDerivable);
            }
            Some(StaticClass::InputDependent)
        })
        .collect()
}

/// A stride-derivable instruction: `addi rX, rX, imm` (imm ≠ 0) inside
/// a loop, executing once per iteration (its block dominates every back
/// edge), where the only in-loop definition of `rX` reaching it is
/// itself and the loop body contains no calls (which could clobber
/// `rX`).
fn is_stride(prog: &Program, cfg: &Cfg, loops: &LoopInfo, rd: &ReachingDefs, i: usize) -> bool {
    let inst = &prog.insts[i];
    if inst.op != vpir_isa::Op::Addi || inst.imm == 0 {
        return false;
    }
    let (Some(dst), Some(src)) = (inst.dst, inst.src1) else {
        return false;
    };
    if dst != src {
        return false;
    }
    let b = cfg.block_of[i];
    let Some(header) = loops.innermost[b] else {
        return false;
    };
    let Some(lp) = loops.loops.get(&header) else {
        return false;
    };
    // Must run exactly once per iteration.
    if !lp.tails.iter().all(|&t| loops.dominates(b, t)) {
        return false;
    }
    // No calls in the loop (a callee could redefine the register).
    for &blk in &lp.body {
        for j in cfg.blocks[blk].insts() {
            if prog.insts[j].is_call() {
                return false;
            }
        }
    }
    // The only in-loop definition reaching the increment is itself.
    let (defs, wildcard) = rd.defs_reaching(prog, cfg, i, dst);
    if wildcard {
        return false;
    }
    defs.iter()
        .all(|&j| j == i || !lp.body.contains(&cfg.block_of[j]))
}

/// Builds a lint [`Finding`] anchored at instruction `i`.
fn finding(prog: &Program, file: &str, rule: Rule, i: usize, message: String) -> Finding {
    let loc = prog.src_loc(i).unwrap_or_default();
    Finding {
        rule,
        file: file.to_string(),
        line: loc.line as usize,
        col: loc.col as usize,
        message,
    }
}

/// Runs the structural lints L1–L4.
pub fn lints(prog: &Program, cfg: &Cfg, sccp: &Sccp, file: &str) -> Vec<Finding> {
    let mut out = Vec::new();

    // L3 — undecodable entry or control-transfer targets.
    if !prog.is_empty() && !cfg.entry_valid {
        out.push(Finding {
            rule: Rule::BadTarget,
            file: file.to_string(),
            line: 0,
            col: 0,
            message: format!(
                "entry point {:#x} is not a decodable instruction address",
                prog.entry
            ),
        });
    }
    for bt in &cfg.bad_targets {
        out.push(finding(
            prog,
            file,
            Rule::BadTarget,
            bt.inst,
            format!(
                "`{}` targets {:#x}, which is not a decodable instruction address",
                prog.insts[bt.inst], bt.target
            ),
        ));
    }

    // L1 — blocks unreachable from the entry.
    for b in cfg.unreachable_blocks() {
        let first = cfg.blocks[b].start;
        out.push(finding(
            prog,
            file,
            Rule::Unreachable,
            first,
            format!(
                "basic block at {:#x} (`{}`) is unreachable from the entry point",
                prog.addr_of(first),
                prog.insts[first]
            ),
        ));
    }

    // L2 — reads with no reaching write on some path.
    for r in dataflow::uninit_reads(prog, cfg) {
        out.push(finding(
            prog,
            file,
            Rule::UninitRead,
            r.inst,
            format!(
                "`{}` reads {} before any write reaches it (relies on the implicit startup zero)",
                prog.insts[r.inst], r.reg
            ),
        ));
    }

    // L4 — memory stored to but never loaded. Only claimed when every
    // feasible load and store has a proven-constant address, so a single
    // pointer-chasing access silences the lint rather than misfiring.
    let mut all_const = true;
    let mut loaded: Vec<(u64, u64)> = Vec::new(); // (addr, width)
    let mut stores: Vec<(usize, u64, u64)> = Vec::new();
    for (i, inst) in prog.insts.iter().enumerate() {
        if !sccp.facts[i].executable {
            continue;
        }
        let class = inst.op.class();
        if !matches!(class, OpClass::Load | OpClass::Store) {
            continue;
        }
        let width = inst.op.mem_width().map(|w| w.bytes()).unwrap_or(0);
        match sccp.facts[i].addr {
            AddrFact::Const(a) if class == OpClass::Load => loaded.push((a, width)),
            AddrFact::Const(a) => stores.push((i, a, width)),
            _ => all_const = false,
        }
    }
    if all_const {
        let overlaps = |a: u64, wa: u64, b: u64, wb: u64| a < b.wrapping_add(wb) && b < a.wrapping_add(wa);
        for (i, a, w) in stores {
            if !loaded.iter().any(|&(la, lw)| overlaps(a, w, la, lw)) {
                out.push(finding(
                    prog,
                    file,
                    Rule::DeadStore,
                    i,
                    format!(
                        "`{}` stores to {:#x}, which no load ever reads",
                        prog.insts[i], a
                    ),
                ));
            }
        }
    }

    out
}
