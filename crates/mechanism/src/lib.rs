//! The speculation mechanisms the cycle loop drives.
//!
//! The source paper compares two redundancy mechanisms — value
//! prediction ([`VpMech`]) and instruction reuse ([`IrMech`]) — and
//! closes by calling for a hybrid of the two; trace reuse ([`RtbMech`],
//! after Coppieters et al.) is the one mechanism added beyond the
//! paper. The set is closed: [`Mechanisms`] holds what one machine runs
//! — nothing (base), VP, IR, IR and VP (the hybrid), or RTB alone — and
//! the cycle loop in `vpir-core` calls each mechanism's hooks directly,
//! in the paper's order: IR's reuse test first, then VP on the RB
//! misses.
//!
//! The [`registry`] module is the single source of truth for
//! configuration labels (`base`, `magic:ME-SB:vl1`, `ir_early`,
//! `rtb:t8`, `hybrid`, ...): the bench matrix, `vpir serve`'s request
//! validators, and the CLI's `--machine` parser all resolve labels
//! through it.
//!
//! Mechanism state is deliberately split from pipeline state: a
//! mechanism owns its tables (VPT, RB, RTB) and never touches the ROB
//! or the speculative register file directly. The core describes one
//! instruction per hook call through plain-data *query* structs and
//! receives *action* structs back, so the timing model stays in one
//! place and no mechanism can corrupt pipeline invariants.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod config;
mod ir;
pub mod registry;
mod rtb;
mod vp;

pub use config::{
    BranchResolution, Enhancement, IrConfig, Reexecution, RtbConfig, Validation, VpConfig,
    VpKind,
};
pub use ir::IrMech;
pub use rtb::RtbMech;
pub use vp::VpMech;

use vpir_isa::{ExecOut, Inst, MemImage, MemWidth, OpClass, Program, Reg, RegFile};
use vpir_reuse::{EntryRef, OperandView};

/// The mechanisms one machine runs. Only the hybrid holds two (IR and
/// VP); RTB always runs alone.
#[derive(Debug)]
pub struct Mechanisms {
    /// Instruction reuse (IR and hybrid machines).
    pub ir: Option<IrMech>,
    /// Value prediction (VP and hybrid machines).
    pub vp: Option<VpMech>,
    /// Trace reuse (RTB machines).
    pub rtb: Option<RtbMech>,
}

impl Mechanisms {
    /// Builds the mechanisms `enhancement` names. RTB joins the static
    /// loop forest of `program` for its per-loop-depth attribution.
    pub fn new(enhancement: &Enhancement, program: &Program) -> Mechanisms {
        Mechanisms {
            ir: match enhancement {
                Enhancement::Ir(ir) | Enhancement::Hybrid(_, ir) => Some(IrMech::new(ir)),
                _ => None,
            },
            vp: match enhancement {
                Enhancement::Vp(vp) | Enhancement::Hybrid(vp, _) => Some(VpMech::new(vp)),
                _ => None,
            },
            rtb: match enhancement {
                Enhancement::Rtb(rtb) => Some(RtbMech::new(*rtb, program)),
                _ => None,
            },
        }
    }

    /// True for the base machine, which runs no mechanism.
    pub fn is_empty(&self) -> bool {
        self.ir.is_none() && self.vp.is_none() && self.rtb.is_none()
    }
}

/// Everything a mechanism may inspect about one dispatching
/// instruction. All fields are plain copies taken from the ROB *after*
/// any earlier mechanism's action was applied, so in the hybrid VP
/// observes IR's grant.
#[derive(Debug, Clone, Copy)]
pub struct DispatchQuery {
    /// Program counter.
    pub pc: u64,
    /// Dispatch sequence number.
    pub seq: u64,
    /// The decoded instruction.
    pub inst: Inst,
    /// The functional (oracle-along-the-speculative-path) execution
    /// outcome computed at dispatch.
    pub out: ExecOut,
    /// Source-operand values read at dispatch, in operand order.
    pub src_values: [Option<u64>; 2],
    /// True for loads (ROB `loads` mask).
    pub is_load: bool,
    /// Result value prediction already standing on this slot.
    pub predicted: Option<u64>,
    /// True when an earlier mechanism already granted full reuse.
    pub reused: bool,
    /// True when an earlier mechanism already granted address reuse.
    pub addr_reused: bool,
    /// Per-operand reuse-buffer views (register, view), populated only
    /// in IR's query (the reuse test needs operand provenance).
    pub views: [(Option<Reg>, OperandView); 2],
    /// Reuse-buffer entries of in-flight producers feeding this
    /// instruction (the `S_{n+d}` dependence-chain input), populated
    /// with `views`.
    pub chain: [Option<EntryRef>; 2],
    /// For loads: true when an in-flight earlier store may overlap this
    /// load's address, which makes a full-result reuse claim unsafe.
    /// Populated with `views`.
    pub store_conflict: bool,
}

/// What a reuse grant means for the pipeline, under early or late
/// validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReuseGrant {
    /// Tag-only hit: remember the source entry, reuse nothing.
    Tag,
    /// Early validation, full result: skip execute, resolve control at
    /// decode.
    EarlyFull,
    /// Early validation, address-only: the load's effective address is
    /// known at decode.
    EarlyAddr(u64),
    /// Late validation, full result: behaves as an always-correct value
    /// prediction.
    LateFull,
    /// Late validation, address-only prediction.
    LateAddr(u64),
}

/// A reuse claim: which RB entry produced it and what it grants.
#[derive(Debug, Clone, Copy)]
pub struct ReuseAction {
    /// The reuse-buffer entry backing the claim (flagged on squash for
    /// the squash-recovery statistic).
    pub entry: EntryRef,
    /// What the pipeline should do with the claim.
    pub grant: ReuseGrant,
}

/// The dispatch-time outcome of one mechanism for one instruction.
/// Everything defaults to "pass"; each mechanism sets only its own
/// fields (VP the predictions, IR the reuse claim, RTB the member
/// flag).
#[derive(Debug, Clone, Copy, Default)]
pub struct DispatchAction {
    /// `Some(p)` overwrites the slot's result prediction with `p`
    /// (which may itself be `None` — a predictor that declines still
    /// clears any stale prediction).
    pub predicted: Option<Option<u64>>,
    /// `Some(p)` overwrites the slot's address prediction.
    pub addr_predicted: Option<Option<u64>>,
    /// A reuse claim for this instruction.
    pub reuse: Option<ReuseAction>,
    /// This instruction is a member of an in-progress trace replay: the
    /// pipeline marks it trace-reused (skips execute, publishes the
    /// functional result, resolves a terminal branch at decode).
    pub trace_member: bool,
}

/// One committing instruction, described to every mechanism the
/// machine runs.
#[derive(Debug, Clone, Copy)]
pub struct CommitEvent {
    /// Commit sequence number.
    pub seq: u64,
    /// Program counter.
    pub pc: u64,
    /// The instruction.
    pub inst: Inst,
    /// Architected result value (the destination write), if any.
    pub result: Option<u64>,
    /// Architected effective address for memory operations.
    pub addr: Option<u64>,
    /// Memory-operation shape, for loads/stores.
    pub mem: Option<CommitMem>,
    /// The instruction committed under a full-reuse grant.
    pub reused: bool,
    /// The instruction committed under an address-reuse grant.
    pub addr_reused: bool,
    /// The instruction committed as a replayed trace member.
    pub trace_reused: bool,
    /// The RB entry that backed a reuse grant, if any.
    pub reuse_source: Option<EntryRef>,
}

/// Memory shape of a committing load or store.
#[derive(Debug, Clone, Copy)]
pub struct CommitMem {
    /// True for loads, false for stores.
    pub is_load: bool,
    /// Access width.
    pub width: MemWidth,
}

/// The machine state RTB validates a trace against at dispatch time.
pub struct ReplayQuery<'a> {
    /// The PC at the head of the fetch queue.
    pub pc: u64,
    /// The speculative (dispatch-path) register file.
    pub regs: &'a RegFile,
    /// The speculative memory image (includes in-flight stores).
    pub mem: &'a MemImage,
    /// Free ROB slots this cycle.
    pub rob_free: usize,
    /// Free load/store-queue slots this cycle.
    pub lsq_free: usize,
    /// Free branch checkpoints this cycle.
    pub cp_free: usize,
}

/// One member of a granted trace replay, in program order.
#[derive(Debug, Clone, Copy)]
pub struct MemberPlan {
    /// Member PC.
    pub pc: u64,
    /// True when this member is the trace's terminal conditional
    /// branch.
    pub is_ctrl: bool,
    /// Recorded branch direction (terminal member only).
    pub taken: bool,
    /// Recorded branch target (terminal member only).
    pub target: u64,
}

/// Dense per-class index for attribution arrays: the nine [`OpClass`]
/// variants in declaration order.
pub fn class_index(class: OpClass) -> usize {
    match class {
        OpClass::IntAlu => 0,
        OpClass::IntMul => 1,
        OpClass::Load => 2,
        OpClass::Store => 3,
        OpClass::Branch => 4,
        OpClass::Jump => 5,
        OpClass::JumpReg => 6,
        OpClass::Fp => 7,
        OpClass::Misc => 8,
    }
}

/// The class names matching [`class_index`] positions, for reports.
pub const CLASS_NAMES: [&str; 9] = [
    "int-alu", "int-mul", "load", "store", "branch", "jump", "jump-reg", "fp", "misc",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_enhancement_builds_exactly_its_mechanisms() {
        let prog = vpir_isa::asm::assemble("halt").expect("assembles");
        let (vp, ir, rtb) = (VpConfig::magic(), IrConfig::table1(), RtbConfig::t8());
        for (enhancement, want) in [
            (Enhancement::None, [false, false, false]),
            (Enhancement::Vp(vp), [false, true, false]),
            (Enhancement::Ir(ir), [true, false, false]),
            (Enhancement::Hybrid(vp, ir), [true, true, false]),
            (Enhancement::Rtb(rtb), [false, false, true]),
        ] {
            let m = Mechanisms::new(&enhancement, &prog);
            let got = [m.ir.is_some(), m.vp.is_some(), m.rtb.is_some()];
            assert_eq!(got, want, "{enhancement:?}");
            assert_eq!(m.is_empty(), enhancement == Enhancement::None);
        }
    }
}
