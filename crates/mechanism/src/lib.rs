//! Pluggable speculation mechanisms.
//!
//! The source paper compares exactly two redundancy mechanisms — value
//! prediction and instruction reuse — and both used to be hard-wired
//! into the cycle loop. This crate extracts the interface the two
//! already shared into [`SpeculationMechanism`]: a dispatch-time query
//! (produce a value/result or pass), a writeback/commit-time
//! update/verify hook, and squash notification. The cycle loop in
//! `vpir-core` drives every mechanism only through this trait; VP and
//! IR are the first two tenants (bit-identical to the hard-wired
//! implementations, pinned by the golden-digest suite), and trace reuse
//! ([`RtbMech`], after Coppieters et al.) is the first new one.
//!
//! The [`registry`] module is the single source of truth for
//! configuration labels (`base`, `magic:ME-SB:vl1`, `ir_early`,
//! `rtb:t8`, ...): the bench matrix, `vpir serve`'s request
//! validators, and the CLI's `--machine` parser all resolve labels
//! through it.
//!
//! Mechanism state is deliberately split from pipeline state: a
//! mechanism owns its tables (VPT, RB, RTB) and never touches the ROB
//! or the speculative register file directly. The core describes one
//! instruction per hook call through plain-data *query* structs and
//! receives *action* structs back, so the timing model stays in one
//! place and a new mechanism cannot corrupt pipeline invariants.

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
pub use registry::build_mechanisms;
pub use rtb::RtbMech;
pub use vp::VpMech;

use vpir_isa::{ExecOut, Inst, MemImage, MemWidth, OpClass, Reg, RegFile};
use vpir_predict::VptStats;
use vpir_reuse::{EntryRef, OperandView, RbInsert, ReuseStats};
use vpir_stats::RtbStats;

/// Everything a mechanism may inspect about one dispatching
/// instruction. All fields are plain copies taken from the ROB *after*
/// any earlier mechanism's action was applied, so in a multi-mechanism
/// configuration (the paper's hybrid) a later mechanism observes the
/// effect of an earlier one — exactly as the hard-wired hybrid did.
#[derive(Debug, Clone, Copy)]
pub struct DispatchQuery {
    /// Program counter.
    pub pc: u64,
    /// Dispatch sequence number.
    pub seq: u64,
    /// Current cycle.
    pub now: u64,
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
    /// for mechanisms that return true from
    /// [`SpeculationMechanism::wants_operand_views`].
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

/// What a full-reuse grant means for the pipeline (mirrors the early /
/// late validation arms of the hard-wired IR implementation).
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
/// Everything defaults to "pass".
#[derive(Debug, Clone, Copy, Default)]
pub struct DispatchAction {
    /// `Some(p)` overwrites the slot's result prediction with `p`
    /// (which may itself be `None` — a predictor that declines still
    /// clears any stale prediction, as the hard-wired VP did).
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

/// One committing instruction, described to every mechanism.
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

/// Effects a mechanism reports back from a commit.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommitEffects {
    /// The committing reuse was backed by an entry inserted on a since
    /// -squashed path (counts toward `squash_recovered`).
    pub squash_recovered: bool,
}

/// One squashed in-flight instruction, described to every mechanism
/// during misprediction recovery.
#[derive(Debug, Clone, Copy)]
pub struct SquashVictim {
    /// The victim's sequence number.
    pub seq: u64,
    /// The RB entry this instruction inserted at writeback, if any —
    /// a wrong-path capture the mechanism must treat as suspect.
    pub rb_entry: Option<EntryRef>,
    /// `(address, width)` when the victim was a store with a computed
    /// address: speculative memory under that range is rolled back.
    pub squashed_store: Option<(u64, MemWidth)>,
}

/// The machine state a replay-capable mechanism validates a trace
/// against at dispatch time.
pub struct ReplayQuery<'a> {
    /// The PC at the head of the fetch queue.
    pub pc: u64,
    /// Current cycle.
    pub now: u64,
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

/// Per-mechanism statistics surfaced into `SimStats` at the end of a
/// run.
#[derive(Debug, Clone, Default)]
pub struct MechExport {
    /// Result-VPT statistics (VP tenant).
    pub vpt_result: Option<VptStats>,
    /// Address-VPT statistics (VP tenant).
    pub vpt_addr: Option<VptStats>,
    /// Reuse-buffer statistics (IR tenant).
    pub rb: Option<ReuseStats>,
    /// Trace-reuse statistics (RTB tenant).
    pub rtb: Option<RtbStats>,
}

/// A speculation mechanism the cycle loop can drive.
///
/// The contract has three mandatory hook groups — dispatch-time query
/// ([`on_dispatch`](SpeculationMechanism::on_dispatch)), commit-time
/// update/verify ([`on_commit`](SpeculationMechanism::on_commit)), and
/// squash notification ([`on_squash`](SpeculationMechanism::on_squash)
/// and friends) — plus optional capabilities (writeback capture, atomic
/// trace replay) that default to "not supported". A mechanism never
/// mutates pipeline state; it answers queries and the core applies the
/// actions.
pub trait SpeculationMechanism {
    /// Short stable name (`"vp"`, `"ir"`, `"rtb"`), used in reports and
    /// diagnostics.
    fn name(&self) -> &'static str;

    /// True when [`DispatchQuery::views`], [`DispatchQuery::chain`] and
    /// [`DispatchQuery::store_conflict`] must be populated (the reuse
    /// test needs operand provenance; plain predictors do not).
    fn wants_operand_views(&self) -> bool {
        false
    }

    /// True when the mechanism captures executed instructions at
    /// writeback ([`on_executed`](SpeculationMechanism::on_executed)).
    fn wants_exec_records(&self) -> bool {
        false
    }

    /// True when the mechanism can replay multi-instruction traces
    /// ([`replay_begin`](SpeculationMechanism::replay_begin)).
    fn has_replay(&self) -> bool {
        false
    }

    /// Dispatch-time query: inspect one dispatching instruction and
    /// fill in `act` (or leave it defaulted to pass).
    fn on_dispatch(&mut self, q: &DispatchQuery, act: &mut DispatchAction);

    /// Writeback-time capture: one instruction finished executing with
    /// correct inputs. Returns the mechanism's handle for the capture
    /// (stored in the ROB and handed back in [`SquashVictim::rb_entry`]
    /// / [`CommitEvent::reuse_source`]).
    fn on_executed(&mut self, _rec: &RbInsert) -> Option<EntryRef> {
        None
    }

    /// Commit-time update/verify: train predictors, promote captures,
    /// attribute reuse.
    fn on_commit(&mut self, _ev: &CommitEvent, _fx: &mut CommitEffects) {}

    /// One in-flight instruction is being squashed.
    fn on_squash_victim(&mut self, _v: &SquashVictim) {}

    /// A squash rolled the machine back to `keep_seq` (everything
    /// younger is gone) at cycle `now`.
    fn on_squash(&mut self, _keep_seq: u64, _now: u64) {}

    /// Post-squash architectural-view repair: `reg` now reads `value`
    /// on the restored path.
    fn on_squash_restore(&mut self, _reg: Reg, _value: u64) {}

    /// Offer an atomic trace replay starting at `q.pc`. On a validated
    /// hit the mechanism fills `plans` (program order) and returns
    /// true; the core then dispatches every member this cycle.
    fn replay_begin(&mut self, _q: &ReplayQuery<'_>, _plans: &mut Vec<MemberPlan>) -> bool {
        false
    }

    /// Abort an in-progress replay (core-side validation failed).
    fn replay_abort(&mut self) {}

    /// Surface end-of-run statistics.
    fn export(&self, _out: &mut MechExport) {}
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
