//! Trace reuse: the RTB (reuse trace buffer) mechanism.
//!
//! After Coppieters et al. ("Decanting the Contribution of Instruction
//! Types and Loop Structures in the Reuse of Traces"): instead of
//! reusing one instruction at a time, capture contiguous *traces* of
//! dynamic instructions and replay a whole trace atomically on a
//! dispatch-time hit.
//!
//! **Capture** rides the dispatch stream (speculative path included —
//! squashes discard affected captures). A trace is a straight-line run
//! of arithmetic / memory instructions, optionally terminated by one
//! conditional branch; direct/indirect jumps and `Misc` ops break the
//! run. A finalized capture waits in a pending queue until its last
//! member *commits* — a capture with a squashed member is discarded
//! (the wrong-path-invalidation guarantee, proven at trace granularity
//! by the squash characterization test). At install time the trace's
//! interface is computed: *live-in* registers (sources not produced by
//! an earlier member) with their captured values, and *external loads*
//! (member loads not fully covered by an earlier in-trace store) with
//! their captured `(address, width, value)`. A member load partially
//! overlapped by an in-trace store is unclassifiable; the whole capture
//! is dropped.
//!
//! **Replay** runs at the top of the dispatch stage: on an RTB hit for
//! the next fetch PC whose live-ins match the speculative register
//! file, whose external loads match speculative memory, and whose
//! members fit the free ROB/LSQ/checkpoint capacity, the core
//! dispatches every member this cycle — bypassing the decode-width
//! limit, which is the point of trace-level reuse. Each member is still
//! executed functionally at dispatch; a guard compares the recorded
//! outcome against the recomputation and aborts the replay on any
//! disagreement (the member then proceeds as a normal dispatch), so
//! correctness never rests on the recording. A replayed terminal
//! branch resolves at decode with its recorded outcome — which the
//! guard has just proven equal to the functional outcome, so a trace
//! replay can never inject a misprediction.
//!
//! **Attribution** happens at commit: every committed trace member is
//! attributed to its instruction class and to the natural-loop nesting
//! depth of its PC (joined from `vpir-isa-analyze`'s loop forest),
//! feeding the per-type / per-loop-structure decanting tables in
//! `SimStats::report()`.

use std::collections::VecDeque;

use vpir_isa::{LoadSource, MemWidth, OpClass, Program, Reg, INST_BYTES, TEXT_BASE};

use crate::config::RtbConfig;
use crate::{class_index, CommitEvent, DispatchAction, DispatchQuery, MemberPlan, ReplayQuery};
use vpir_stats::RtbStats;

/// One member of a pending (not yet installed) capture, with the
/// provenance needed to compute the trace interface at install time.
#[derive(Debug, Clone, Copy, Default)]
struct PendingMember {
    pc: u64,
    class: Option<OpClass>,
    dst: Option<Reg>,
    srcs: [Option<(Reg, u64)>; 2],
    result: Option<u64>,
    mem: Option<(u64, MemWidth)>,
    taken: bool,
    target: u64,
}

/// A finalized capture waiting for its last member to commit.
#[derive(Debug, Clone, Default)]
struct Pending {
    first_seq: u64,
    last_seq: u64,
    members: Vec<PendingMember>,
}

/// One member of an installed trace (the replay-time view).
#[derive(Debug, Clone, Copy)]
struct MemberRec {
    pc: u64,
    class: Option<OpClass>,
    result: Option<u64>,
    addr: Option<u64>,
    taken: bool,
    target: u64,
}

/// One RTB way. Invalid entries keep their member/interface vectors so
/// eviction reuses the capacity (rule R7: no `Vec<Option<..>>`).
#[derive(Debug, Clone, Default)]
struct TraceEntry {
    valid: bool,
    head_pc: u64,
    last_used: u64,
    members: Vec<MemberRec>,
    live_ins: Vec<(Reg, u64)>,
    ext_loads: Vec<(u64, MemWidth, u64)>,
}

/// The in-progress capture window.
#[derive(Debug, Clone, Default)]
struct TraceBuilder {
    members: Vec<PendingMember>,
    first_seq: u64,
    next_pc: u64,
}

/// Cursor of a granted replay, consumed by the member dispatches that
/// follow within the same dispatch stage.
#[derive(Debug, Clone, Copy)]
struct ReplayState {
    entry_idx: usize,
    cursor: usize,
}

/// Trace reuse: the RTB, its capture window and pending installs, and
/// the cursor of a granted replay.
#[derive(Debug, Clone)]
pub struct RtbMech {
    config: RtbConfig,
    /// Natural-loop nesting depth per static instruction, indexed by
    /// `(pc - TEXT_BASE) / INST_BYTES` (dense — no hashing).
    depths: Vec<u32>,
    /// `sets * ways` entries, set-major.
    table: Vec<TraceEntry>,
    /// Deterministic LRU clock (bumped per install and per replay).
    stamp: u64,
    builder: TraceBuilder,
    pending: VecDeque<Pending>,
    pending_pool: Vec<Pending>,
    replay: Option<ReplayState>,
    stats: RtbStats,
}

impl RtbMech {
    /// Builds an RTB for `program`, joining the static loop forest for
    /// per-depth attribution.
    pub fn new(config: RtbConfig, program: &Program) -> RtbMech {
        let analysis = vpir_isa_analyze::analyze_program(program, "rtb");
        let mut depths = Vec::new();
        for summary in &analysis.insts {
            let idx = (summary.addr.wrapping_sub(TEXT_BASE) / INST_BYTES) as usize;
            if idx >= depths.len() {
                depths.resize(idx + 1, 0);
            }
            if let Some(d) = depths.get_mut(idx) {
                *d = summary.loop_depth;
            }
        }
        let entries = config.sets.max(1) * config.ways.max(1);
        RtbMech {
            config,
            depths,
            table: vec![TraceEntry::default(); entries],
            stamp: 0,
            builder: TraceBuilder::default(),
            pending: VecDeque::new(),
            pending_pool: Vec::new(),
            replay: None,
            stats: RtbStats::default(),
        }
    }

    fn depth_of(&self, pc: u64) -> u32 {
        let idx = (pc.wrapping_sub(TEXT_BASE) / INST_BYTES) as usize;
        self.depths.get(idx).copied().unwrap_or(0)
    }

    fn set_base(&self, head_pc: u64) -> usize {
        let sets = self.config.sets.max(1);
        ((head_pc / INST_BYTES) as usize % sets) * self.config.ways.max(1)
    }

    fn builder_reset(&mut self) {
        self.builder.members.clear();
        self.builder.first_seq = 0;
        self.builder.next_pc = 0;
    }

    fn push_member(&mut self, q: &DispatchQuery, taken: bool, target: u64) {
        if self.builder.members.is_empty() {
            self.builder.first_seq = q.seq;
        }
        let class = q.inst.op.class();
        let is_mem = matches!(class, OpClass::Load | OpClass::Store);
        let [sv0, sv1] = q.src_values;
        let srcs = [q.inst.src1.zip(sv0), q.inst.src2.zip(sv1)];
        self.builder.members.push(PendingMember {
            pc: q.pc,
            class: Some(class),
            dst: q.inst.dst,
            srcs,
            result: q.out.result,
            mem: if is_mem {
                q.out.addr.zip(q.inst.op.mem_width())
            } else {
                None
            },
            taken,
            target,
        });
    }

    fn finalize_pending(&mut self, last_seq: u64) {
        let mut p = self.pending_pool.pop().unwrap_or_default();
        p.members.clear();
        std::mem::swap(&mut p.members, &mut self.builder.members);
        p.first_seq = self.builder.first_seq;
        p.last_seq = last_seq;
        self.pending.push_back(p);
        self.stats.captured += 1;
        self.builder_reset();
    }

    /// Feeds one normally-dispatching instruction into the capture
    /// window.
    fn capture(&mut self, q: &DispatchQuery) {
        let class = q.inst.op.class();
        match class {
            OpClass::Jump | OpClass::JumpReg | OpClass::Misc => {
                self.builder_reset();
                return;
            }
            _ => {}
        }
        if !self.builder.members.is_empty() && q.pc != self.builder.next_pc {
            // The stream was redirected under us; start over.
            self.builder_reset();
        }
        if class == OpClass::Branch {
            // A branch may only terminate a trace, never head one.
            let long_enough = self.builder.members.len() + 1 >= self.config.min_len;
            let (taken, target) = match q.out.control {
                Some(c) => (c.taken, c.target),
                None => {
                    self.builder_reset();
                    return;
                }
            };
            if long_enough && self.builder.members.len() < self.config.max_len {
                self.push_member(q, taken, target);
                self.finalize_pending(q.seq);
            } else {
                self.builder_reset();
            }
            return;
        }
        // A memory member without a functional address cannot be
        // classified at install time; give up on this window.
        if matches!(class, OpClass::Load | OpClass::Store) && q.out.addr.is_none() {
            self.builder_reset();
            return;
        }
        self.push_member(q, false, 0);
        self.builder.next_pc = q.pc.wrapping_add(INST_BYTES);
        if self.builder.members.len() >= self.config.max_len {
            self.finalize_pending(q.seq);
        }
    }

    fn recycle(&mut self, mut p: Pending) {
        p.members.clear();
        self.pending_pool.push(p);
    }

    /// Promotes a fully-committed pending capture into the RTB.
    fn install(&mut self, p: Pending) {
        let Some(head) = p.members.first().copied() else {
            self.recycle(p);
            return;
        };
        // Compute the trace interface: live-in registers and external
        // loads. `written` / `seen` are bitsets over register indices
        // (NUM_REGS = 65 ≤ 128).
        let mut live_ins: Vec<(Reg, u64)> = Vec::new();
        let mut ext_loads: Vec<(u64, MemWidth, u64)> = Vec::new();
        let mut written = 0u128;
        let mut seen = 0u128;
        let mut drop_trace = false;
        for (i, m) in p.members.iter().enumerate() {
            for src in m.srcs.iter().flatten() {
                let (reg, val) = *src;
                if reg.is_zero() {
                    continue;
                }
                let bit = 1u128 << reg.index();
                if written & bit == 0 && seen & bit == 0 {
                    seen |= bit;
                    live_ins.push((reg, val));
                }
            }
            if let Some(dst) = m.dst {
                if !dst.is_zero() {
                    written |= 1u128 << dst.index();
                }
            }
            if m.class == Some(OpClass::Load) {
                let Some((laddr, lwidth)) = m.mem else {
                    drop_trace = true;
                    break;
                };
                let lend = laddr + lwidth.bytes();
                // The youngest earlier in-trace store overlapping this
                // load decides: full cover → internal (the functional
                // replay recomputes it), partial → unclassifiable.
                let mut covered: Option<bool> = None;
                for earlier in p.members.iter().take(i) {
                    if earlier.class != Some(OpClass::Store) {
                        continue;
                    }
                    let Some((saddr, swidth)) = earlier.mem else { continue };
                    let send = saddr + swidth.bytes();
                    if saddr < lend && laddr < send {
                        covered = Some(saddr <= laddr && send >= lend);
                    }
                }
                match covered {
                    None => {
                        let Some(v) = m.result else {
                            drop_trace = true;
                            break;
                        };
                        ext_loads.push((laddr, lwidth, v));
                    }
                    Some(true) => {}
                    Some(false) => {
                        drop_trace = true;
                        break;
                    }
                }
            }
        }
        if drop_trace {
            self.stats.dropped += 1;
            self.recycle(p);
            return;
        }

        // Way choice: an existing entry for this head PC is refreshed;
        // otherwise an invalid way, otherwise deterministic LRU.
        let base = self.set_base(head.pc);
        let ways = self.config.ways.max(1);
        let mut victim = base;
        let mut victim_used = u64::MAX;
        let mut refresh = false;
        for w in 0..ways {
            let Some(e) = self.table.get(base + w) else { continue };
            if e.valid && e.head_pc == head.pc {
                victim = base + w;
                refresh = true;
                break;
            }
            let used = if e.valid { e.last_used } else { 0 };
            if used < victim_used {
                victim_used = used;
                victim = base + w;
            }
        }
        let _ = refresh;
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some(e) = self.table.get_mut(victim) {
            e.valid = true;
            e.head_pc = head.pc;
            e.last_used = stamp;
            e.members.clear();
            e.members.extend(p.members.iter().map(|m| MemberRec {
                pc: m.pc,
                class: m.class,
                result: m.result,
                addr: m.mem.map(|(a, _)| a),
                taken: m.taken,
                target: m.target,
            }));
            e.live_ins.clear();
            e.live_ins.extend_from_slice(&live_ins);
            e.ext_loads.clear();
            e.ext_loads.extend_from_slice(&ext_loads);
            self.stats.installed += 1;
        }
        self.recycle(p);
    }

    /// Consumes one replay-cursor member if `q` matches it. Returns
    /// true when `q` was handled (either granted or just aborted) so
    /// capture does not observe replayed members.
    fn replay_match(&mut self, q: &DispatchQuery, act: &mut DispatchAction) -> bool {
        let Some(rs) = self.replay else { return false };
        let member = self.table.get(rs.entry_idx).and_then(|e| {
            if e.valid {
                e.members.get(rs.cursor).copied().map(|m| (m, e.members.len()))
            } else {
                None
            }
        });
        let Some((m, len)) = member else {
            self.replay = None;
            return false;
        };
        if m.pc != q.pc {
            // The stream was redirected between the grant and this
            // dispatch; the plan no longer applies.
            self.replay = None;
            self.stats.aborted += 1;
            return false;
        }
        let ok = if m.class == Some(OpClass::Branch) {
            q.out.control.map(|c| (c.taken, c.target)) == Some((m.taken, m.target))
        } else {
            m.result == q.out.result && m.addr == q.out.addr
        };
        if !ok {
            // Recorded outcome disagrees with the functional
            // recomputation: abort; this member (and the rest of the
            // plan) dispatches normally.
            self.replay = None;
            self.stats.aborted += 1;
            return true;
        }
        act.trace_member = true;
        self.replay = if rs.cursor + 1 < len {
            Some(ReplayState {
                entry_idx: rs.entry_idx,
                cursor: rs.cursor + 1,
            })
        } else {
            None
        };
        true
    }

    /// One dispatching instruction: either the next member of a granted
    /// replay (checked against its recording) or input to the capture
    /// window.
    pub fn on_dispatch(&mut self, q: &DispatchQuery) -> DispatchAction {
        let mut act = DispatchAction::default();
        if !self.replay_match(q, &mut act) {
            self.capture(q);
        }
        act
    }

    /// Installs the captures whose last member has now committed, and
    /// attributes a committed trace member by class and loop depth.
    pub fn on_commit(&mut self, ev: &CommitEvent) {
        // Pendings are queued in capture order; every member of a
        // pending whose last member has committed must itself have
        // committed (a squashed member would have discarded it).
        while self
            .pending
            .front()
            .is_some_and(|p| p.last_seq <= ev.seq)
        {
            if let Some(p) = self.pending.pop_front() {
                self.install(p);
            }
        }
        if ev.trace_reused {
            self.stats.committed_reused += 1;
            let ci = class_index(ev.inst.op.class());
            if let Some(c) = self.stats.per_class.get_mut(ci) {
                *c += 1;
            }
            let di = (self.depth_of(ev.pc) as usize).min(4);
            if let Some(c) = self.stats.per_depth.get_mut(di) {
                *c += 1;
            }
        }
    }

    /// A squash rolled the machine back to `keep_seq` (everything
    /// younger is gone).
    pub fn on_squash(&mut self, keep_seq: u64) {
        // Wrong-path invalidation: any capture with a squashed member
        // (its last_seq is younger than the squash point) is discarded,
        // the capture window restarts, and an in-flight replay plan is
        // dropped.
        self.builder_reset();
        self.replay = None;
        while self
            .pending
            .back()
            .is_some_and(|p| p.last_seq > keep_seq)
        {
            if let Some(p) = self.pending.pop_back() {
                self.stats.pending_squashed += 1;
                self.recycle(p);
            }
        }
    }

    /// Offers an atomic trace replay starting at `q.pc`. On a validated
    /// hit, fills `plans` (program order) and returns true; the core
    /// then dispatches every member this cycle.
    pub fn replay_begin(&mut self, q: &ReplayQuery<'_>, plans: &mut Vec<MemberPlan>) -> bool {
        if self.replay.is_some() {
            return false;
        }
        let base = self.set_base(q.pc);
        let ways = self.config.ways.max(1);
        let mut found = None;
        for w in 0..ways {
            if let Some(e) = self.table.get(base + w) {
                if e.valid && e.head_pc == q.pc {
                    found = Some(base + w);
                    break;
                }
            }
        }
        let Some(idx) = found else { return false };
        let Some(entry) = self.table.get(idx) else { return false };
        let n = entry.members.len();
        if n == 0 || n > q.rob_free {
            return false;
        }
        let mem_n = entry
            .members
            .iter()
            .filter(|m| matches!(m.class, Some(OpClass::Load) | Some(OpClass::Store)))
            .count();
        if mem_n > q.lsq_free {
            return false;
        }
        let ctrl_n = entry
            .members
            .iter()
            .filter(|m| m.class == Some(OpClass::Branch))
            .count();
        if ctrl_n > q.cp_free {
            return false;
        }
        // Validate the trace interface against current speculative
        // state: every live-in register and every external load value
        // must match what the members saw at capture.
        for &(reg, val) in &entry.live_ins {
            if q.regs.read(reg) != val {
                return false;
            }
        }
        for &(addr, width, val) in &entry.ext_loads {
            if q.mem.load(addr, width) != val {
                return false;
            }
        }
        plans.clear();
        plans.extend(entry.members.iter().map(|m| MemberPlan {
            pc: m.pc,
            is_ctrl: m.class == Some(OpClass::Branch),
            taken: m.taken,
            target: m.target,
        }));
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some(e) = self.table.get_mut(idx) {
            e.last_used = stamp;
        }
        self.stats.replays += 1;
        self.stats.replayed_insts += n as u64;
        self.replay = Some(ReplayState {
            entry_idx: idx,
            cursor: 0,
        });
        true
    }

    /// Aborts a granted replay the core could not start.
    pub fn replay_abort(&mut self) {
        if self.replay.take().is_some() {
            self.stats.aborted += 1;
        }
    }

    /// Trace-reuse statistics.
    pub fn stats(&self) -> RtbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RtbConfig;

    fn program() -> Program {
        vpir_isa::asm::assemble(
            "       li   r1, 8
             loop:  addi r2, r2, 3
                    addi r3, r3, 5
                    addi r1, r1, -1
                    bne  r1, r0, loop
                    halt",
        )
        .expect("assembles")
    }

    #[test]
    fn loop_depths_join_the_static_analysis() {
        let rtb = RtbMech::new(RtbConfig::t4(), &program());
        // The loop body sits at depth 1; the prologue at depth 0.
        assert_eq!(rtb.depth_of(TEXT_BASE), 0);
        assert_eq!(rtb.depth_of(TEXT_BASE + INST_BYTES), 1);
    }

    #[test]
    fn set_indexing_stays_in_bounds() {
        let rtb = RtbMech::new(RtbConfig::t8(), &program());
        for pc in (0..4096u64).map(|i| TEXT_BASE + i * INST_BYTES) {
            let base = rtb.set_base(pc);
            assert!(base + rtb.config.ways <= rtb.table.len());
        }
    }
}
