//! The out-of-order pipeline.
//!
//! A cycle-level model of the Table 1 machine. Like SimpleScalar's
//! `sim-outorder`, every instruction executes *functionally at dispatch*
//! against a speculative architectural state (following the predicted —
//! possibly wrong — path), while the timing model separately determines
//! *when* values become visible, when branches resolve, and when
//! instructions commit. This makes value-speculative execution concrete:
//! a consumer that issues with a mispredicted input computes a real wrong
//! value (via the same ISA semantics), wrong values propagate through
//! dependence chains, and branches executed on wrong values squash down
//! genuinely spurious paths.

// BTreeMap (not HashMap) for keyed pipeline state: iteration order is
// part of the simulated machine's behaviour, so it must not depend on
// hash seeding. The crate's `clippy.toml` bans the hash collections.
use std::collections::{BTreeMap, VecDeque};

use vpir_branch::{Bimodal, Gshare, ReturnStack, TargetTable};
use vpir_isa::{
    execute, Inst, LoadSource, Op, OpClass, Program, Reg, RegFile, INST_BYTES, STACK_TOP,
};
use vpir_mechanism::{
    CommitEvent, CommitMem, DispatchAction, DispatchQuery, Mechanisms, MemberPlan, ReplayQuery,
};
use vpir_mem::{Cache, CacheConfig, PortArbiter};
use vpir_reuse::{OperandView, RbInsert, RbMem, Reused};

use crate::config::{
    BranchResolution, CoreConfig, Enhancement, FaultInjection, FrontEnd, Reexecution, Validation,
    COMMIT_WIDTH, DCACHE_PORTS, DECODE_WIDTH, FETCH_LINE_BYTES, FETCH_WIDTH, ISSUE_WIDTH, LSQ_SIZE,
    MAX_BRANCHES, RAS_DEPTH,
};
use crate::error::{DiagSnapshot, RetiredInst, SimError, RETIRED_RING};
use crate::fu::FuPool;
use crate::rob::{flag, CtrlState, MemState, Rob, NO_CYCLE};
use crate::spec_state::SpecState;
use crate::stats::SimStats;
use vpir_stats::PcStats;
use crate::trace::{TraceLog, TraceOutcome};

/// Run-length limits for [`Simulator::run_checked`] and
/// [`Simulator::run_to_halt`].
#[derive(Debug, Clone, Copy)]
pub struct RunLimits {
    /// Stop after this many cycles.
    pub max_cycles: u64,
    /// Stop after committing this many instructions.
    pub max_insts: u64,
}

impl RunLimits {
    /// Limits that stop only at program completion (within reason).
    pub fn unbounded() -> RunLimits {
        RunLimits {
            max_cycles: u64::MAX / 4,
            max_insts: u64::MAX / 4,
        }
    }

    /// Stop after `cycles` cycles (the paper simulates 200M cycles).
    pub fn cycles(cycles: u64) -> RunLimits {
        RunLimits {
            max_cycles: cycles,
            max_insts: u64::MAX / 4,
        }
    }

    /// Stop after `insts` committed instructions.
    pub fn insts(insts: u64) -> RunLimits {
        RunLimits {
            max_cycles: u64::MAX / 4,
            max_insts: insts,
        }
    }
}

/// The configured front-end direction predictor. Only gshare keeps a
/// history, so only its predictions carry a nonzero token.
#[derive(Debug, Clone)]
enum FrontEndBp {
    Gshare(Gshare),
    Bimodal(Bimodal),
    /// Predicts taken and learns nothing.
    StaticTaken,
}

impl FrontEndBp {
    fn new(kind: FrontEnd) -> FrontEndBp {
        match kind {
            FrontEnd::Gshare => FrontEndBp::Gshare(Gshare::table1()),
            FrontEnd::Bimodal => FrontEndBp::Bimodal(Bimodal::new(14)),
            FrontEnd::StaticTaken => FrontEndBp::StaticTaken,
        }
    }

    fn predict(&mut self, pc: u64) -> (bool, u64) {
        match self {
            FrontEndBp::Gshare(p) => p.predict(pc),
            FrontEndBp::Bimodal(p) => (p.predict(pc), 0),
            FrontEndBp::StaticTaken => (true, 0),
        }
    }

    fn update(&mut self, pc: u64, taken: bool, token: u64) {
        match self {
            FrontEndBp::Gshare(p) => p.update(pc, taken, token),
            FrontEndBp::Bimodal(p) => p.update(pc, taken),
            FrontEndBp::StaticTaken => {}
        }
    }

    /// Repairs the speculative global history; only gshare keeps one.
    fn recover(&mut self, token: u64, actual_taken: bool) {
        if let FrontEndBp::Gshare(p) = self {
            p.recover(token, actual_taken);
        }
    }
}

#[derive(Debug, Clone)]
struct FetchedInst {
    pc: u64,
    inst: Inst,
    /// Fetch-time control prediction: `(taken, target, bp token, RAS
    /// snapshot after this instruction's own push/pop)`.
    pred: Option<FetchPred>,
}

#[derive(Debug, Clone)]
struct FetchPred {
    taken: bool,
    target: u64,
    token: u64,
    ras_snapshot: Vec<u64>,
}

/// The rename map: architectural register number -> `(ROB slot, seq)` of
/// the youngest in-flight writer.
///
/// Each entry packs into one word (`(seq << 16) | slot`, `u64::MAX` for
/// none), so the per-branch checkpoint copy moves `NUM_REGS` words
/// instead of three per register. Sequence numbers stay below 2^48 for
/// any reachable run length, and a ROB slot fits 16 bits.
#[derive(Debug, Clone, Default)]
struct RenameMap {
    packed: Vec<u64>,
}

const RENAME_NONE: u64 = u64::MAX;

impl RenameMap {
    fn new() -> RenameMap {
        RenameMap {
            packed: vec![RENAME_NONE; vpir_isa::NUM_REGS],
        }
    }

    #[inline]
    fn get(&self, reg: usize) -> Option<(usize, u64)> {
        let v = self.packed[reg];
        (v != RENAME_NONE).then_some(((v & 0xffff) as usize, v >> 16))
    }

    #[inline]
    fn set(&mut self, reg: usize, slot: usize, seq: u64) {
        debug_assert!(slot < (1 << 16) && seq < (1 << 48));
        self.packed[reg] = (seq << 16) | slot as u64;
    }

    #[inline]
    fn clear(&mut self, reg: usize) {
        self.packed[reg] = RENAME_NONE;
    }

    /// Overwrites `self` with `other`, reusing this map's storage
    /// (`Vec::clone_from` on the packed words — one `memcpy`).
    fn copy_from(&mut self, other: &RenameMap) {
        self.packed.clone_from(&other.packed);
    }

    /// `(register, (slot, seq))` for every mapped register, ascending.
    fn entries(&self) -> impl Iterator<Item = (usize, (usize, u64))> + '_ {
        self.packed.iter().enumerate().filter_map(|(reg, &v)| {
            (v != RENAME_NONE).then_some((reg, ((v & 0xffff) as usize, v >> 16)))
        })
    }
}

#[derive(Debug, Clone, Default)]
struct Checkpoint {
    map: RenameMap,
    ras: Vec<u64>,
}

/// The live branch checkpoints, ordered by sequence number.
///
/// At most `MAX_BRANCHES` (8 in Table 1) are ever live, and sequence
/// numbers only grow, so a sorted `Vec` beats a `BTreeMap`: insertion is
/// a push, lookup is a binary search over one tiny contiguous slice, and
/// no tree nodes are ever allocated in the cycle loop.
#[derive(Debug, Default)]
struct CheckpointStack {
    entries: Vec<(u64, Checkpoint)>,
}

impl CheckpointStack {
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn seqs(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().map(|(seq, _)| *seq)
    }

    /// Inserts a checkpoint; `seq` must exceed every stored key (dispatch
    /// order guarantees it).
    fn insert(&mut self, seq: u64, cp: Checkpoint) {
        debug_assert!(self.entries.last().is_none_or(|(s, _)| *s < seq));
        self.entries.push((seq, cp));
    }

    fn get(&self, seq: u64) -> Option<&Checkpoint> {
        self.entries
            .binary_search_by_key(&seq, |(s, _)| *s)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    fn remove(&mut self, seq: u64) -> Option<Checkpoint> {
        self.entries
            .binary_search_by_key(&seq, |(s, _)| *s)
            .ok()
            .map(|i| self.entries.remove(i).1)
    }
}

/// The cycle-level out-of-order simulator.
///
/// # Examples
///
/// ```
/// use vpir_core::{CoreConfig, RunLimits, Simulator};
/// use vpir_isa::asm;
///
/// let prog = asm::assemble(
///     "       li   r1, 100
///      loop:  addi r2, r2, 1
///             addi r1, r1, -1
///             bne  r1, r0, loop
///             halt",
/// )?;
/// let mut sim = Simulator::new(&prog, CoreConfig::table1());
/// sim.run_to_halt(RunLimits::unbounded())?;
/// assert_eq!(sim.arch_regs().read(vpir_isa::Reg::int(2)), 100);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Simulator {
    config: CoreConfig,
    program: Program,
    now: u64,
    next_seq: u64,

    // Front end.
    fetch_pc: u64,
    fetch_stalled_until: u64,
    fetch_halted: bool,
    fetch_queue: VecDeque<FetchedInst>,
    bp: FrontEndBp,
    ras: ReturnStack,
    targets: TargetTable,
    icache: Cache,

    // State.
    spec: SpecState,
    arch_regs: RegFile,
    rob: Rob,
    map: RenameMap,
    checkpoints: CheckpointStack,

    // Scratch buffers and pools, reused across cycles so the
    // steady-state cycle loop performs no heap allocation (see
    // DESIGN.md §8 for the ownership rules).
    reg_scratch: Vec<Reg>,
    cp_pool: Vec<Checkpoint>,
    ras_pool: Vec<Vec<u64>>,

    // Back end.
    dcache: Cache,
    dports: PortArbiter,
    fus: FuPool,

    // Speculation mechanisms, called directly: IR's reuse test first,
    // then VP on the RB misses (the hybrid); RTB always runs alone.
    mechs: Mechanisms,
    replay_plans: Vec<MemberPlan>,
    pc_profile: BTreeMap<u64, PcStats>,
    trace: Option<TraceLog>,

    // Failure model (DESIGN.md §9): forward-progress watchdog state, a
    // fixed-capacity ring of the last retired instructions for
    // diagnostic snapshots, and the error that stopped the last run.
    last_commit_cycle: u64,
    retired_ring: Vec<RetiredInst>,
    retired_next: usize,
    last_error: Option<SimError>,

    halted: bool,
    stats: SimStats,
}

impl Simulator {
    /// Creates a simulator over `program` with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`CoreConfig::validate`]).
    pub fn new(program: &Program, config: CoreConfig) -> Simulator {
        config.validate();
        let mut mem = vpir_isa::MemImage::new();
        program.load_data(&mut mem);
        let mut regs = RegFile::new();
        regs.write(Reg::SP, STACK_TOP);
        let arch_regs = regs.clone();
        let spec = SpecState::from_parts(regs, mem);

        Simulator {
            fetch_pc: program.entry,
            fetch_stalled_until: 0,
            fetch_halted: false,
            fetch_queue: VecDeque::new(),
            bp: FrontEndBp::new(config.front_end),
            ras: ReturnStack::new(RAS_DEPTH),
            targets: TargetTable::new(512),
            icache: Cache::new(CacheConfig::table1_inst()),
            spec,
            arch_regs,
            rob: Rob::new(config.rob_size),
            map: RenameMap::new(),
            checkpoints: CheckpointStack::default(),
            reg_scratch: Vec::new(),
            cp_pool: Vec::new(),
            ras_pool: Vec::new(),
            dcache: Cache::new(CacheConfig::table1_data()),
            dports: PortArbiter::new(DCACHE_PORTS),
            fus: FuPool::table1(),
            mechs: Mechanisms::new(&config.enhancement, program),
            replay_plans: Vec::new(),
            pc_profile: BTreeMap::new(),
            trace: None,
            last_commit_cycle: 0,
            retired_ring: Vec::with_capacity(RETIRED_RING),
            retired_next: 0,
            last_error: None,
            halted: false,
            stats: SimStats::default(),
            now: 0,
            next_seq: 1,
            program: program.clone(),
            config,
        }
    }

    /// The committed (architected) register file.
    pub fn arch_regs(&self) -> &RegFile {
        &self.arch_regs
    }

    /// The speculative memory image (equals architected memory whenever
    /// the pipeline is drained, e.g. after `halt` commits).
    pub fn mem(&self) -> &vpir_isa::MemImage {
        self.spec.mem()
    }

    /// Whether a `halt` has committed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The machine configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.now
    }

    /// Per-PC committed-execution / reuse / VPT-correct counters,
    /// ordered by PC (empty unless [`CoreConfig::pc_profile`] is set).
    pub fn pc_profile(&self) -> &BTreeMap<u64, PcStats> {
        &self.pc_profile
    }

    /// Starts tracing the next `capacity` dispatched instructions (see
    /// [`TraceLog`]). Replaces any previous trace.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(TraceLog::new(capacity));
    }

    /// The trace collected so far, if tracing was enabled.
    pub fn trace(&self) -> Option<&TraceLog> {
        self.trace.as_ref()
    }

    /// Runs until `halt` commits or a limit is reached; returns the stats.
    ///
    /// Reaching a limit without halting is `Ok`: use this for runs
    /// capped on purpose. A simulator failure (livelock, deadlock,
    /// invariant violation) is the `Err`, and it is sticky: running a
    /// failed machine again re-reports it.
    pub fn run_checked(&mut self, limits: RunLimits) -> Result<&SimStats, SimError> {
        if let Some(e) = &self.last_error {
            // A failed machine does not recover; re-report the failure.
            return Err(e.clone());
        }
        while !self.halted
            && self.now < limits.max_cycles
            && self.stats.committed < limits.max_insts
        {
            if let Err(e) = self.step_cycle() {
                self.last_error = Some(e.clone());
                self.finalize_stats();
                return Err(e);
            }
        }
        self.finalize_stats();
        Ok(&self.stats)
    }

    /// Like [`Simulator::run_checked`], but the program is required to
    /// halt within `limits`: exhausting the budget before `halt` commits
    /// is a [`SimError::CycleBudgetExceeded`] instead of a silent
    /// partial run. This is the entry point for programs that must halt,
    /// such as the differential tests against the functional `Machine`.
    pub fn run_to_halt(&mut self, limits: RunLimits) -> Result<&SimStats, SimError> {
        self.run_checked(limits)?;
        if self.halted {
            Ok(&self.stats)
        } else {
            let e = SimError::CycleBudgetExceeded {
                cycle: self.now,
                max_cycles: limits.max_cycles,
                committed: self.stats.committed,
            };
            self.last_error = Some(e.clone());
            Err(e)
        }
    }

    fn finalize_stats(&mut self) {
        self.stats.cycles = self.now;
        self.stats.icache = self.icache.stats();
        self.stats.dcache = self.dcache.stats();
        let (pr, pd) = self.dports.totals();
        self.stats.port_requests = pr;
        self.stats.port_denials = pd;
        let (fr, fd) = self.fus.totals();
        self.stats.fu_requests = fr;
        self.stats.fu_denials = fd;
        if let Some(vp) = &self.mechs.vp {
            (self.stats.vpt_result, self.stats.vpt_addr) = vp.stats();
        }
        if let Some(ir) = &self.mechs.ir {
            self.stats.rb = ir.stats();
        }
        if let Some(rtb) = &self.mechs.rtb {
            self.stats.rtb = rtb.stats();
        }
    }

    /// Advances the machine by one cycle.
    ///
    /// Fails with a structured [`SimError`] when the forward-progress
    /// watchdog trips, a paranoia invariant check fails, or an internal
    /// bookkeeping contract is broken.
    pub fn step_cycle(&mut self) -> Result<(), SimError> {
        self.now += 1;
        self.commit()?;
        if self.halted {
            return Ok(());
        }
        self.writeback();
        self.promote();
        self.resolve_branches()?;
        self.memory_access();
        self.issue();
        self.dispatch()?;
        self.fetch();
        if self.config.paranoia {
            self.check_invariants()?;
        }
        self.check_watchdog()
    }

    /// Captures the deterministic diagnostic snapshot embedded in
    /// failure dumps: the last retired instructions, ROB occupancy, the
    /// checkpoint stack, fetch state, and per-stage counters.
    pub fn diag_snapshot(&self) -> DiagSnapshot {
        let n = self.retired_ring.len();
        let start = if n < RETIRED_RING { 0 } else { self.retired_next };
        let mut last_retired = Vec::with_capacity(n);
        for i in 0..n {
            if let Some(r) = self.retired_ring.get((start + i) % n.max(1)) {
                last_retired.push(*r);
            }
        }
        DiagSnapshot {
            cycle: self.now,
            committed: self.stats.committed,
            dispatched: self.stats.dispatched,
            executions: self.stats.executions,
            squashes: self.stats.squashes,
            rob_len: self.rob.len(),
            rob_capacity: self.rob.capacity(),
            rob_head_seq: self.rob.head_seq(),
            rob_head_pc: self.rob.head_pc(),
            checkpoint_seqs: self.checkpoints.seqs().collect(),
            fetch_pc: self.fetch_pc,
            fetch_halted: self.fetch_halted,
            fetch_queue_len: self.fetch_queue.len(),
            last_retired,
        }
    }

    fn internal_error(&self, what: &str) -> SimError {
        SimError::Internal {
            cycle: self.now,
            what: what.to_string(),
        }
    }

    /// Forward progress: if no instruction has retired for
    /// `watchdog_cycles`, the machine is wedged — classify the wedge and
    /// fail instead of spinning to the cycle limit.
    fn check_watchdog(&mut self) -> Result<(), SimError> {
        let idle = self.now.saturating_sub(self.last_commit_cycle);
        if idle < self.config.watchdog_cycles {
            return Ok(());
        }
        let snapshot = Box::new(self.diag_snapshot());
        // Work still in flight (or still arriving) means instructions
        // flow without retiring: a livelock. A fully idle machine — ROB
        // and fetch queue empty with fetch halted — is a deadlock.
        let in_flight =
            !self.rob.is_empty() || !self.fetch_queue.is_empty() || !self.fetch_halted;
        Err(if in_flight {
            SimError::Livelock {
                cycle: self.now,
                watchdog_cycles: self.config.watchdog_cycles,
                last_commit_cycle: self.last_commit_cycle,
                snapshot,
            }
        } else {
            SimError::Deadlock {
                cycle: self.now,
                watchdog_cycles: self.config.watchdog_cycles,
                last_commit_cycle: self.last_commit_cycle,
                snapshot,
            }
        })
    }

    fn check_invariants(&mut self) -> Result<(), SimError> {
        if let Err(what) = self.invariant_status() {
            let snapshot = Box::new(self.diag_snapshot());
            return Err(SimError::InvariantViolation {
                cycle: self.now,
                what,
                snapshot,
            });
        }
        Ok(())
    }

    /// The paranoia-mode invariant sweep (see DESIGN.md §9): ROB
    /// structure, checkpoint-stack consistency, rename-map targets, and
    /// RB/VPT speculation-field sanity.
    fn invariant_status(&self) -> Result<(), String> {
        self.rob.check_consistency()?;
        if self.checkpoints.len() > MAX_BRANCHES {
            return Err(format!(
                "checkpoint stack depth {} exceeds max_branches {MAX_BRANCHES}",
                self.checkpoints.len()
            ));
        }
        for seq in self.checkpoints.seqs() {
            let owned = self.rob.slots_in_order().any(|s| {
                self.rob.seq[s] == seq && self.rob.has_flag(s, flag::HAS_CTRL)
            });
            if !owned {
                return Err(format!(
                    "checkpoint for seq {seq} has no live control instruction"
                ));
            }
        }
        for slot in self.rob.slots_in_order() {
            if !self.rob.reused.test(slot) {
                continue;
            }
            let seq = self.rob.seq[slot];
            if self.rob.reuse_source[slot].is_none() {
                return Err(format!("seq {seq} marked reused without an RB source entry"));
            }
            if self.rob.has_flag(slot, flag::HAS_CTRL) && !self.rob.ctrl_out.test(slot) {
                return Err(format!("reused control seq {seq} has no computed outcome"));
            }
            if self.rob.predicted[slot].is_some() {
                return Err(format!("seq {seq} is both reused and value-predicted"));
            }
        }
        for slot in self.rob.slots_in_order() {
            if !self.rob.trace_reused.test(slot) {
                continue;
            }
            let seq = self.rob.seq[slot];
            if self.rob.reused.test(slot) || self.rob.predicted[slot].is_some() {
                return Err(format!(
                    "seq {seq} is both a trace member and RB-reused/value-predicted"
                ));
            }
            if self.rob.has_flag(slot, flag::HAS_CTRL) && !self.rob.ctrl_out.test(slot) {
                return Err(format!(
                    "trace-reused control seq {seq} has no computed outcome"
                ));
            }
        }
        for (reg, (slot, seq)) in self.map.entries() {
            if self.rob.is_live(slot)
                && self.rob.seq[slot] == seq
                && self.rob.inst[slot].dst.map(|d| d.index()) != Some(reg)
            {
                return Err(format!(
                    "rename map for r{reg} points at seq {seq} which writes a \
                     different register"
                ));
            }
        }
        Ok(())
    }

    // ----------------------------------------------------------------
    // Commit
    // ----------------------------------------------------------------

    fn commit(&mut self) -> Result<(), SimError> {
        // Injected commit stall: a deterministic wedge for watchdog and
        // degradation tests. The machine keeps cycling but retires
        // nothing, so the watchdog reports the (injected) livelock.
        if let FaultInjection::CommitStall { after_commits } = self.config.fault {
            if self.stats.committed >= after_commits {
                return Ok(());
            }
        }
        for _ in 0..COMMIT_WIDTH {
            let Some(head) = self.rob.head_slot() else { break };
            if !self.can_commit(head) {
                break;
            }
            // Stores need a data-cache write port at commit.
            if self.rob.stores.test(head) {
                if !self.dports.request(self.now) {
                    break;
                }
                let Some(addr) = self.rob.out[head].addr else {
                    return Err(self.internal_error(
                        "store at commit has no architectural address",
                    ));
                };
                self.dcache.access(self.now, addr);
            }
            self.retire(head)?;
            if self.halted {
                return Ok(());
            }
        }
        Ok(())
    }

    fn can_commit(&self, slot: usize) -> bool {
        if self.rob.exec.test(slot) {
            return false;
        }
        if self.now <= self.rob.dispatch_cycle[slot] {
            return false;
        }
        if self.rob.has_flag(slot, flag::HAS_CTRL) && !self.rob.ctrl[slot].resolved {
            return false;
        }
        if self.rob.has_flag(slot, flag::HAS_MEM) {
            let mem = &self.rob.mem[slot];
            if mem.is_load
                && !self.rob.reused.test(slot)
                && !self.rob.trace_reused.test(slot)
            {
                // The load's access must have completed at the true address.
                let done = mem
                    .access_finish
                    .is_some_and(|f| f <= self.now)
                    && mem.accessed_addr == self.rob.out[slot].addr;
                if !done {
                    return false;
                }
            }
            if !mem.is_load && mem.addr_known.is_none() {
                return false;
            }
        }
        match self.rob.inst[slot].op.class() {
            OpClass::Misc => true,
            _ => self.rob.nonspec_at(slot, self.now),
        }
    }

    fn retire(&mut self, slot: usize) -> Result<(), SimError> {
        // Copy the head's columns into locals (every column type is
        // `Copy`), then release the slot before the bookkeeping below.
        let seq = self.rob.seq[slot];
        let pc = self.rob.pc[slot];
        let inst = self.rob.inst[slot];
        let out = self.rob.out[slot];
        let dispatch_cycle = self.rob.dispatch_cycle[slot];
        let exec_count = self.rob.exec_count[slot];
        let reused = self.rob.reused.test(slot);
        let addr_reused = self.rob.addr_reused.test(slot);
        let trace_reused = self.rob.trace_reused.test(slot);
        let reuse_source = self.rob.reuse_source[slot];
        let predicted = self.rob.predicted[slot];
        let addr_predicted = self.rob.addr_predicted[slot];
        let mem = self
            .rob
            .has_flag(slot, flag::HAS_MEM)
            .then(|| self.rob.mem[slot]);
        let ctrl = self
            .rob
            .has_flag(slot, flag::HAS_CTRL)
            .then(|| self.rob.ctrl[slot]);
        self.rob.free_head();

        self.stats.committed += 1;
        self.last_commit_cycle = self.now;
        if self.config.pc_profile {
            self.pc_profile.entry(pc).or_default().executions += 1;
        }
        // Record the retirement in the diagnostic ring (fixed capacity:
        // push until warm, then overwrite the oldest — no allocation in
        // the steady-state cycle loop).
        let rec = RetiredInst {
            seq,
            pc,
            op: inst.op,
            cycle: self.now,
        };
        if self.retired_ring.len() < RETIRED_RING {
            self.retired_ring.push(rec);
        } else if let Some(ring) = self.retired_ring.get_mut(self.retired_next) {
            *ring = rec;
        }
        self.retired_next = (self.retired_next + 1) % RETIRED_RING;
        if let Some(t) = self.trace.as_mut() {
            t.on_commit(seq, self.now);
        }

        // Architected register state.
        if let (Some(dst), Some(v)) = (inst.dst, out.result) {
            self.arch_regs.write(dst, v);
        }
        // Free the rename-map entry if it still points at this
        // instruction. Only our own destination register can — map slots
        // are written solely at dispatch with that instruction's dst.
        if let Some(dst) = inst.dst {
            if self.map.get(dst.index()).is_some_and(|(_, mseq)| mseq == seq) {
                self.map.clear(dst.index());
            }
        }
        self.spec.retire_upto(seq);

        // Memory-side bookkeeping.
        if let Some(mem) = &mem {
            self.stats.mem_ops += 1;
            if !mem.is_load && out.addr.is_none() {
                return Err(
                    self.internal_error("committed store has no architectural address")
                );
            }
        }

        // Control-side bookkeeping.
        if let Some(ctrl) = &ctrl {
            let lat = ctrl.resolve_cycle.saturating_sub(dispatch_cycle);
            match inst.op.class() {
                OpClass::Branch => {
                    self.stats.branches += 1;
                    let Some(c) = out.control else {
                        return Err(
                            self.internal_error("committed branch has no computed outcome")
                        );
                    };
                    let actual = c.taken;
                    self.bp.update(pc, actual, ctrl.bp_token);
                    if ctrl.original_taken != actual {
                        self.stats.branch_mispredicts += 1;
                    }
                    self.stats.branch_resolution_latency_sum += lat;
                    self.stats.branch_resolution_count += 1;
                }
                OpClass::JumpReg => {
                    let Some(c) = out.control else {
                        return Err(self.internal_error(
                            "committed indirect jump has no computed target",
                        ));
                    };
                    let target = c.target;
                    if inst.is_return() {
                        self.stats.returns += 1;
                        if ctrl.original_target != target {
                            self.stats.return_mispredicts += 1;
                        }
                    } else {
                        self.targets.update(pc, target);
                    }
                    self.stats.branch_resolution_latency_sum += lat;
                    self.stats.branch_resolution_count += 1;
                }
                _ => {}
            }
        }

        // Value-prediction accounting (training happens in the
        // mechanisms' commit hooks below).
        if inst.dst.is_some() && inst.op.class() != OpClass::Jump {
            if let Some(actual) = out.result {
                self.stats.result_producers += 1;
                if let Some(p) = predicted {
                    self.stats.result_predicted += 1;
                    if p == actual {
                        self.stats.result_pred_correct += 1;
                        if self.config.pc_profile {
                            self.pc_profile.entry(pc).or_default().vpt_correct += 1;
                        }
                    }
                }
            }
        }
        if let Some(mem) = &mem {
            if mem.is_load {
                let Some(actual) = out.addr else {
                    return Err(
                        self.internal_error("committed load has no architectural address")
                    );
                };
                if let Some(p) = addr_predicted {
                    self.stats.addr_predicted += 1;
                    if p == actual {
                        self.stats.addr_pred_correct += 1;
                    }
                }
            }
        }

        // Mechanism commit hooks: table training (VPT, RB liveness,
        // RTB installs) happens here, after the architected state and
        // accounting above are settled.
        if !self.mechs.is_empty() {
            let ev = CommitEvent {
                seq,
                pc,
                inst,
                result: out.result,
                addr: out.addr,
                mem: mem.as_ref().map(|m| CommitMem {
                    is_load: m.is_load,
                    width: m.width,
                }),
                reused,
                addr_reused,
                trace_reused,
                reuse_source,
            };
            if let Some(ir) = self.mechs.ir.as_mut() {
                if ir.on_commit(&ev) {
                    self.stats.squash_recovered += 1;
                }
            }
            if let Some(vp) = self.mechs.vp.as_mut() {
                vp.on_commit(&ev);
            }
            if let Some(rtb) = self.mechs.rtb.as_mut() {
                rtb.on_commit(&ev);
            }
        }

        // Reuse accounting. A fully reused memory operation also reused
        // its address, so it counts in both columns (Table 3's address
        // percentages are over memory operations whose effective address
        // came from the RB).
        if reused {
            self.stats.reused_full += 1;
            if self.config.pc_profile {
                self.pc_profile.entry(pc).or_default().rb_hits += 1;
            }
        }
        if addr_reused || (reused && mem.is_some()) {
            self.stats.reused_addr += 1;
            if self.config.pc_profile {
                self.pc_profile.entry(pc).or_default().addr_reuses += 1;
            }
        }

        // Execution-count histogram (Table 6).
        let bucket = (exec_count as usize).min(3);
        self.stats.exec_histogram[bucket] += 1;

        if inst.op == Op::Halt {
            self.halted = true;
        }
        Ok(())
    }

    // ----------------------------------------------------------------
    // Writeback: executions finishing by `now`.
    // ----------------------------------------------------------------

    fn writeback(&mut self) {
        for slot in self.rob.writeback_candidates() {
            if !self.rob.exec.test(slot) || self.rob.exec_finish[slot] > self.now {
                continue;
            }
            self.complete_exec(slot);
        }
    }

    fn complete_exec(&mut self, slot: usize) {
        let verify_latency = self.verify_latency();
        let finish = self.rob.exec_finish[slot];
        let inputs = self.rob.exec_inputs[slot];
        let inputs_correct = self.rob.has_flag(slot, flag::EXEC_IN_CORRECT);
        let inputs_final = self.rob.has_flag(slot, flag::EXEC_IN_FINAL);
        // The value produced with the inputs that were used. With
        // correct inputs the execution saw exactly the dispatch-time
        // operand values, and every consumed field (result, control
        // outcome, effective address) is a pure function of them — the
        // recorded dispatch-time outcome IS the recomputation. (A load's
        // `result` also involves memory, but the memory-op path below
        // consumes only the address.) Only a speculative-input execution
        // needs the functional unit re-run.
        let inst = self.rob.inst[slot];
        let pc = self.rob.pc[slot];
        let (rv, computed_ctrl, computed_addr) = if inputs_correct {
            let out = self.rob.out[slot];
            (
                out.result,
                out.control.map(|c| (c.taken, c.target)),
                out.addr,
            )
        } else {
            let [in1, in2] = inputs;
            let read = |r: Reg| {
                if Some(r) == inst.src1 {
                    in1.unwrap_or(0)
                } else if Some(r) == inst.src2 {
                    in2.unwrap_or(0)
                } else {
                    0
                }
            };
            let out = execute(&inst, pc, read, self.spec.mem());
            (
                out.result,
                out.control.map(|c| (c.taken, c.target)),
                out.addr,
            )
        };

        self.rob.exec_finish[slot] = NO_CYCLE;
        self.rob.exec.clear(slot);
        self.rob.exec_count[slot] += 1;
        self.stats.executions += 1;
        let seq = self.rob.seq[slot];
        if let Some(t) = self.trace.as_mut() {
            t.on_complete(seq, finish);
        }
        self.rob.last_inputs[slot] = inputs;
        self.rob.assign_flag(slot, flag::LAST_CORRECT, inputs_correct);
        self.rob.assign_flag(slot, flag::LAST_FINAL, inputs_final);
        // settled ≡ exec_count > 0 (true now) && last inputs correct.
        self.rob.settled.assign(slot, inputs_correct);
        match computed_ctrl {
            Some(c) => {
                self.rob.computed_ctrl[slot] = c;
                self.rob.ctrl_out.set(slot);
            }
            None => self.rob.ctrl_out.clear(slot),
        }

        if self.rob.has_flag(slot, flag::HAS_MEM) {
            // Memory op: this execution was address generation.
            let mem = &mut self.rob.mem[slot];
            mem.computed_addr = computed_addr;
            if inputs_correct {
                mem.addr_known = Some(finish);
            }
            // A completed access at a stale address must be redone.
            let stale = mem.is_load
                && mem.access_finish.is_some()
                && mem.accessed_addr != computed_addr;
            if stale {
                mem.access_finish = None;
                mem.accessed_addr = None;
                self.rob.accessed.clear(slot);
                self.rob.clear_visible(slot);
            }
            // Loads produce their value at access completion, not here.
            // Stores have no result; finality comes from promotion or
            // directly when inputs were final.
            if !self.rob.mem[slot].is_load && inputs_final {
                self.rob.set_nonspec(slot, finish);
            }
            return;
        }

        let was_predicted = self.rob.predicted[slot].is_some();
        let matches_prediction = was_predicted && self.rob.predicted[slot] == rv;
        if inputs_final {
            if was_predicted && !matches_prediction {
                // Value misprediction: corrected value visible after the
                // verification latency (charged once per chain).
                match rv {
                    Some(v) => self.rob.set_visible(slot, v, finish + verify_latency),
                    None => self.rob.clear_visible(slot),
                }
                self.rob.set_nonspec(slot, finish + verify_latency);
            } else if was_predicted {
                // Correct prediction: consumers already have the value,
                // unless an earlier execution on value-speculative inputs
                // replaced it with a wrong one. Then the value is
                // republished like a misprediction's correction.
                // Verification completes after the latency.
                if let Some(v) = rv {
                    if self.rob.vis_since[slot] == NO_CYCLE || self.rob.vis_value[slot] != v {
                        self.rob.set_visible(slot, v, finish + verify_latency);
                    }
                }
                self.rob.set_nonspec(slot, finish + verify_latency);
            } else {
                match rv {
                    Some(v) => self.rob.set_visible(slot, v, finish),
                    None => self.rob.clear_visible(slot),
                }
                self.rob.set_nonspec(slot, finish);
            }
        } else {
            // Executed with value-speculative inputs: result is visible
            // but remains speculative until promotion.
            if let Some(nv) = rv {
                let same = self.rob.vis_since[slot] != NO_CYCLE
                    && self.rob.vis_value[slot] == nv;
                if !same {
                    self.rob.set_visible(slot, nv, finish);
                }
            }
        }

        // Offer completed work to IR's reuse buffer (including wrong-path
        // work — that is how IR recovers squashed effort).
        if inputs_correct {
            self.record_exec(slot);
        }
    }

    fn verify_latency(&self) -> u64 {
        match &self.config.enhancement {
            Enhancement::Vp(vp) | Enhancement::Hybrid(vp, _) => vp.verify_latency as u64,
            _ => 0,
        }
    }

    /// Builds an execution record for `slot` and offers it to IR's
    /// reuse buffer.
    fn record_exec(&mut self, slot: usize) {
        let Some(ir) = self.mechs.ir.as_mut() else {
            return;
        };
        if self.rob.reused.test(slot) {
            return;
        }
        let inst = self.rob.inst[slot];
        match inst.op.class() {
            OpClass::Misc | OpClass::Jump => return,
            _ => {}
        }
        let out = self.rob.out[slot];
        let src_values = self.rob.src_values[slot];
        let producers = self.rob.producers[slot];
        let mut srcs = [None, None];
        let mut src_entries = [None, None];
        let mut src_pcs = [None, None];
        for (i, src) in [inst.src1, inst.src2].into_iter().enumerate() {
            let Some(reg) = src else { continue };
            srcs[i] = Some((reg, src_values[i].unwrap_or(0)));
            if let Some((pslot, pseq)) = producers[i] {
                if self.rob.is_live(pslot) && self.rob.seq[pslot] == pseq {
                    src_entries[i] = self.rob.rb_entry[pslot];
                    src_pcs[i] = Some(self.rob.pc[pslot]);
                }
            }
        }
        let is_branch = inst.op.class() == OpClass::Branch;
        let result = if is_branch {
            out.control.map(|c| c.taken as u64)
        } else if inst.op.class() == OpClass::JumpReg {
            out.control.map(|c| c.target)
        } else {
            out.result
        };
        let mem_state = self
            .rob
            .has_flag(slot, flag::HAS_MEM)
            .then(|| self.rob.mem[slot]);
        // Functional execution computes an address for every memory op;
        // an address-less memory op has nothing recordable.
        let mem = match (&mem_state, out.addr) {
            (Some(m), Some(addr)) => Some(RbMem {
                addr,
                width: m.width,
            }),
            (Some(_), None) => return,
            (None, _) => None,
        };
        // For loads, only record the full entry once the access finished
        // at the right address; before that, record nothing (the entry
        // will be written when the access completes).
        if let Some(m) = &mem_state {
            if m.is_load {
                let ok = m.access_finish.is_some() && m.accessed_addr == out.addr;
                if !ok {
                    return;
                }
            }
        }
        let rec = RbInsert {
            pc: self.rob.pc[slot],
            op: inst.op,
            srcs,
            src_entries,
            src_pcs,
            result,
            mem,
        };
        self.rob.rb_entry[slot] = Some(ir.on_executed(&rec));
    }

    // ----------------------------------------------------------------
    // Promotion: transitive verification of value-speculative results.
    // ----------------------------------------------------------------

    fn inputs_final_now(&self, slot: usize) -> bool {
        for p in self.rob.producers[slot].iter().flatten() {
            let (pslot, pseq) = *p;
            if self.rob.is_live(pslot)
                && self.rob.seq[pslot] == pseq
                && !self.rob.nonspec_at(pslot, self.now)
            {
                return false;
            }
            // Otherwise the producer committed: final.
        }
        true
    }

    fn promote(&mut self) {
        for slot in self.rob.promote_candidates() {
            if self.rob.has_flag(slot, flag::HAS_MEM) {
                let m = &self.rob.mem[slot];
                if m.is_load
                    && !(m.access_finish.is_some_and(|f| f <= self.now)
                        && m.accessed_addr == self.rob.out[slot].addr)
                {
                    continue;
                }
            }
            if self.inputs_final_now(slot) {
                self.rob.set_nonspec(slot, self.now);
            }
        }
    }

    // ----------------------------------------------------------------
    // Branch resolution.
    // ----------------------------------------------------------------

    fn resolve_branches(&mut self) -> Result<(), SimError> {
        let resolution = self.branch_resolution();
        for slot in self.rob.resolve_candidates() {
            let (taken, target) = self.rob.computed_ctrl[slot];
            let inputs_final = self.rob.has_flag(slot, flag::LAST_FINAL)
                || (self.rob.has_flag(slot, flag::LAST_CORRECT)
                    && self.inputs_final_now(slot));
            let new_outcome = self.rob.exec_count[slot] > self.rob.ctrl[slot].acted_count;
            let act_now = match resolution {
                BranchResolution::Sb => new_outcome || inputs_final,
                BranchResolution::Nsb => inputs_final,
            };
            if !act_now {
                continue;
            }
            // A squash changed the ROB under us; re-run next cycle.
            if self.act_on_branch(slot, taken, target, inputs_final)? {
                break;
            }
        }
        Ok(())
    }

    fn branch_resolution(&self) -> BranchResolution {
        match &self.config.enhancement {
            Enhancement::Vp(vp) | Enhancement::Hybrid(vp, _) => vp.branch_resolution,
            _ => BranchResolution::Sb, // no value speculation: equivalent
        }
    }

    /// Acts on a computed branch outcome; returns whether it squashed.
    ///
    /// Fails with [`SimError::Internal`] if the slot carries no
    /// functionally-computed control outcome — a broken bookkeeping
    /// contract, surfaced instead of panicking.
    fn act_on_branch(
        &mut self,
        slot: usize,
        taken: bool,
        target: u64,
        is_final: bool,
    ) -> Result<bool, SimError> {
        let seq = self.rob.seq[slot];
        let ctrl = self.rob.ctrl[slot];
        let followed_taken = ctrl.followed_taken;
        let followed_target = ctrl.followed_target;
        let token = ctrl.bp_token;
        let fallthrough = self.rob.pc[slot].wrapping_add(INST_BYTES);
        let true_outcome = self.rob.out[slot]
            .control
            .ok_or_else(|| self.internal_error("control instruction has no computed outcome"))?;
        let is_cond = self.rob.inst[slot].op.class() == OpClass::Branch;
        self.rob.ctrl[slot].acted_count = self.rob.exec_count[slot];

        let followed_next = if followed_taken {
            followed_target
        } else {
            fallthrough
        };
        let computed_next = if taken { target } else { fallthrough };
        let mispredicted = computed_next != followed_next;

        if mispredicted {
            let true_next = if true_outcome.taken {
                true_outcome.target
            } else {
                fallthrough
            };
            let spurious = computed_next != true_next;
            let bp_fix = if is_cond { Some((token, taken)) } else { None };
            self.squash_to(seq, computed_next, spurious, bp_fix);
            let ctrl = &mut self.rob.ctrl[slot];
            ctrl.followed_taken = taken;
            ctrl.followed_target = if taken { target } else { followed_target };
        }

        if is_final {
            let ctrl = &mut self.rob.ctrl[slot];
            ctrl.resolved = true;
            ctrl.resolve_cycle = self.now;
            self.rob.ctrl_unres.clear(slot);
            if let Some(cp) = self.checkpoints.remove(seq) {
                self.cp_pool.push(cp);
            }
        }
        Ok(mispredicted)
    }

    /// Squashes everything younger than `seq` and redirects fetch.
    fn squash_to(
        &mut self,
        seq: u64,
        next_pc: u64,
        spurious: bool,
        bp_fix: Option<(u64, bool)>,
    ) {
        self.stats.squashes += 1;
        if spurious {
            self.stats.spurious_squashes += 1;
        }

        // Per-victim bookkeeping straight off the columns (oldest victim
        // first, matching the old drain order), then drop them all at
        // once — no entries are moved anywhere.
        //
        // Register writes on the squashed path never become architectural,
        // so no commit-time invalidation will ever fire for them — but RB
        // entries recorded at writeback may have captured the speculative
        // values. Collect the overwritten registers now and re-notify the
        // RB with their restored values once the rollback below completes.
        let mut squashed_dsts = std::mem::take(&mut self.reg_scratch);
        squashed_dsts.clear();
        let k = self.rob.count_younger(seq);
        for i in self.rob.len() - k..self.rob.len() {
            let slot = self.rob.slot_of_age(i);
            let vseq = self.rob.seq[slot];
            if let Some(t) = self.trace.as_mut() {
                t.on_squash(vseq, self.now);
            }
            if self.rob.exec_count[slot] > 0 {
                self.stats.squashed_executed += 1;
            }
            if let Some(ir) = self.mechs.ir.as_mut() {
                // A squashed store never becomes architectural, but loads
                // on its path may have captured its (forwarded) value into
                // the reuse buffer — IR invalidates those entries.
                let store = if self.rob.stores.test(slot) {
                    self.rob.out[slot]
                        .addr
                        .map(|a| (a, self.rob.mem[slot].width))
                } else {
                    None
                };
                ir.on_squash_victim(self.rob.rb_entry[slot], store);
            }
            if self.rob.has_flag(slot, flag::HAS_CTRL) {
                if let Some(cp) = self.checkpoints.remove(vseq) {
                    self.cp_pool.push(cp);
                }
            }
            if self.rob.out[slot].result.is_some() {
                if let Some(dst) = self.rob.inst[slot].dst {
                    squashed_dsts.push(dst);
                }
            }
        }
        self.rob.truncate_tail(k);
        squashed_dsts.sort_unstable_by_key(|r| r.index());
        squashed_dsts.dedup();

        // Restore rename map and RAS from the squashing branch's
        // checkpoint (direct jumps never squash, so one always exists).
        // `clone_from` / `restore_from` reuse the existing capacity.
        if let Some(cp) = self.checkpoints.get(seq) {
            self.map.copy_from(&cp.map);
            self.ras.restore_from(&cp.ras);
        }

        // Repair the speculative gshare history.
        if let Some((token, taken)) = bp_fix {
            self.bp.recover(token, taken);
        }

        // Roll back speculative architectural state and restart fetch.
        self.spec.rollback_to(seq);
        if let Some(rtb) = self.mechs.rtb.as_mut() {
            rtb.on_squash(seq);
        }
        if let Some(ir) = self.mechs.ir.as_mut() {
            for &reg in &squashed_dsts {
                ir.on_squash_restore(reg, self.spec.regs().read(reg));
            }
        }
        // Drain (rather than clear) the fetch queue so the RAS snapshots
        // inside pending predictions return to the pool.
        while let Some(f) = self.fetch_queue.pop_front() {
            if let Some(p) = f.pred {
                self.ras_pool.push(p.ras_snapshot);
            }
        }
        self.fetch_pc = next_pc;
        self.fetch_halted = false;
        self.fetch_stalled_until = self.now + 1;
        self.reg_scratch = squashed_dsts;
    }

    // ----------------------------------------------------------------
    // Memory access (loads).
    // ----------------------------------------------------------------

    fn memory_access(&mut self) {
        // Candidates: loads, not reused, no access in flight (from the
        // loads/reused/accessed masks).
        for slot in self.rob.mem_access_candidates() {
            let mem = self.rob.mem[slot];
            // Which address can we access with?
            let desired = match (mem.computed_addr, self.rob.addr_predicted[slot]) {
                (Some(a), _) => Some(a),
                (None, Some(p)) => Some(p),
                (None, None) => None,
            };
            let Some(addr) = desired else { continue };
            let width = mem.width;
            let seq = self.rob.seq[slot];

            // All older store addresses must be known; matching older
            // stores forward their data. The store mask walks exactly the
            // in-flight stores, oldest first.
            let mut blocked = false;
            let mut forward = false;
            for s2 in self.rob.age_order(self.rob.stores.0) {
                if self.rob.seq[s2] >= seq {
                    break; // reached the load itself
                }
                let om = &self.rob.mem[s2];
                let Some(oaddr) = om.computed_addr else {
                    blocked = true;
                    break;
                };
                if om.addr_known.is_none() {
                    blocked = true;
                    break;
                }
                let o_end = oaddr + om.width.bytes();
                let l_end = addr + width.bytes();
                let overlap = oaddr < l_end && addr < o_end;
                if overlap {
                    let covers = oaddr <= addr && o_end >= l_end;
                    if covers {
                        forward = true; // youngest-older wins; keep scanning
                    } else {
                        blocked = true;
                        break;
                    }
                }
            }
            if blocked {
                continue;
            }

            let finish = if forward {
                self.now + 1
            } else {
                if !self.dports.request(self.now) {
                    continue;
                }
                self.dcache.access(self.now, addr).ready_cycle
            };

            let out = self.rob.out[slot];
            let value = if Some(addr) == out.addr {
                out.result.unwrap_or(0)
            } else {
                // Wrong (predicted or value-speculative) address:
                // the load observes whatever is there.
                self.spec.mem().load(addr, width)
            };
            let vl = self.verify_latency();
            {
                let m = &mut self.rob.mem[slot];
                m.access_finish = Some(finish);
                m.accessed_addr = Some(addr);
            }
            self.rob.accessed.set(slot);
            let same =
                self.rob.vis_since[slot] != NO_CYCLE && self.rob.vis_value[slot] == value;
            if !same {
                self.rob.set_visible(slot, value, finish);
            }
            // Finality: correct address from final inputs and no pending
            // result prediction conflict.
            let addr_final = (self.rob.addr_reused.test(slot)
                || (self.rob.mem[slot].addr_known.is_some()
                    && self.rob.has_flag(slot, flag::LAST_FINAL)))
                && Some(addr) == out.addr;
            if addr_final {
                let predicted = self.rob.predicted[slot];
                let was_predicted = predicted.is_some();
                let correct = predicted == out.result;
                if was_predicted && !correct {
                    self.rob.set_visible(slot, value, finish + vl);
                    self.rob.set_nonspec(slot, finish + vl);
                } else if was_predicted {
                    self.rob.set_nonspec(slot, finish + vl);
                } else {
                    self.rob.set_nonspec(slot, finish);
                }
            }
            // Record the completed load in the reuse structures.
            if Some(addr) == out.addr && self.rob.has_flag(slot, flag::LAST_CORRECT) {
                self.record_exec(slot);
            }
        }
    }

    // ----------------------------------------------------------------
    // Issue.
    // ----------------------------------------------------------------

    fn input_view(&self, slot: usize, i: usize) -> Option<u64> {
        match self.rob.producers[slot][i] {
            None => self.rob.src_values[slot][i],
            Some((pslot, pseq)) => {
                if self.rob.is_live(pslot) && self.rob.seq[pslot] == pseq {
                    self.rob.value_visible(pslot, self.now)
                } else {
                    self.rob.src_values[slot][i] // producer committed
                }
            }
        }
    }

    /// The dynamic half of the needs-exec test. The static half (not
    /// in-exec, not reused, not addr-reused, executable class) is the
    /// `issue_candidates` mask expression.
    fn needs_exec(&self, slot: usize) -> bool {
        if self.rob.exec_count[slot] == 0 {
            return true;
        }
        if self.rob.has_flag(slot, flag::LAST_CORRECT) {
            return false;
        }
        match self.reexecution() {
            Reexecution::Me => {
                // Re-execute when any input value changed.
                let inst = &self.rob.inst[slot];
                (0..2).any(|i| {
                    let cur = self.input_view(slot, i);
                    inst_src(inst, i).is_some()
                        && cur.is_some()
                        && cur != self.rob.last_inputs[slot][i]
                })
            }
            Reexecution::Nme => self.inputs_final_now(slot),
        }
    }

    fn reexecution(&self) -> Reexecution {
        match &self.config.enhancement {
            Enhancement::Vp(vp) | Enhancement::Hybrid(vp, _) => vp.reexecution,
            _ => Reexecution::Me, // irrelevant without value speculation
        }
    }

    fn validation(&self) -> Validation {
        match &self.config.enhancement {
            Enhancement::Ir(ir) | Enhancement::Hybrid(_, ir) => ir.validation,
            _ => Validation::Early, // irrelevant without a reuse buffer
        }
    }

    /// Puts a candidate whose `needs_exec` is currently false to sleep
    /// when every transition back to true is producer-event-driven.
    ///
    /// `needs_exec` is false here with `exec_count > 0` and the result
    /// not yet known-correct, so it can flip back only through a live
    /// producer: under [`Reexecution::Me`] when a producer's visible
    /// value changes (`set_visible`) or the producer commits and the
    /// operand falls back to its dispatch-time value (`free_head`);
    /// under [`Reexecution::Nme`] when the last non-final producer
    /// becomes non-speculative (`set_nonspec`) or commits. A producer
    /// whose visibility / finality is already scheduled for a known
    /// future cycle fires no further event, so the candidate keeps
    /// polling instead. With no live producers nothing can flip the
    /// test, and sleeping with no waiters (until squash or commit
    /// recycles the slot) is equally sound.
    fn sleep_until_reexec_possible(&mut self, slot: usize) {
        let mut blockers = [None, None];
        let mut pollable = false;
        match self.reexecution() {
            Reexecution::Me => {
                for (i, p) in self.rob.producers[slot].iter().enumerate() {
                    let Some((pslot, pseq)) = *p else { continue };
                    if !(self.rob.is_live(pslot) && self.rob.seq[pslot] == pseq) {
                        continue; // committed: operand value is fixed
                    }
                    let vs = self.rob.vis_since[pslot];
                    if vs != NO_CYCLE && vs > self.now {
                        pollable = true; // becomes visible at a known cycle
                    } else {
                        blockers[i] = Some(pslot);
                    }
                }
            }
            Reexecution::Nme => {
                for (i, p) in self.rob.producers[slot].iter().enumerate() {
                    let Some((pslot, pseq)) = *p else { continue };
                    if !(self.rob.is_live(pslot) && self.rob.seq[pslot] == pseq)
                        || self.rob.nonspec_at(pslot, self.now)
                    {
                        continue; // already final
                    }
                    if self.rob.nonspec_cycle[pslot] != NO_CYCLE {
                        pollable = true; // becomes final at a known cycle
                    } else {
                        blockers[i] = Some(pslot);
                    }
                }
            }
        }
        if !pollable {
            self.rob.sleep_issue(slot, blockers);
        }
    }

    fn issue(&mut self) {
        let mut issued = 0;
        for slot in self.rob.issue_candidates() {
            if issued >= ISSUE_WIDTH {
                break;
            }
            if self.now <= self.rob.dispatch_cycle[slot] {
                continue;
            }
            if !self.needs_exec(slot) {
                self.sleep_until_reexec_possible(slot);
                continue;
            }
            // Gather input operands (stores need only the base register
            // for address generation). A blocked operand means a live
            // producer whose value is not visible yet; when every
            // blocking producer's unblocking is event-driven (visibility
            // cycle unknown, rather than already scheduled), the
            // candidate sleeps until one of them fires.
            let inst = self.rob.inst[slot];
            let is_store = self.rob.stores.test(slot);
            let mut inputs = [None, None];
            let mut ready = true;
            let mut blockers = [None, None];
            let mut pollable = false;
            #[allow(clippy::needless_range_loop)] // i also names the operand
            for i in 0..2 {
                if inst_src(&inst, i).is_none() {
                    continue;
                }
                if is_store && i == 1 {
                    continue; // store data not needed for address gen
                }
                match self.input_view(slot, i) {
                    Some(v) => inputs[i] = Some(v),
                    None => {
                        ready = false;
                        // `input_view` returns None only for a live,
                        // seq-matching producer with an invisible
                        // value; a missing producer (unreachable here)
                        // defensively keeps the candidate polling.
                        match self.rob.producers[slot][i] {
                            Some((pslot, _)) if self.rob.vis_since[pslot] == NO_CYCLE => {
                                blockers[i] = Some(pslot);
                            }
                            // Visibility already scheduled for a known
                            // future cycle: no event will fire, so
                            // keep polling.
                            _ => pollable = true,
                        }
                    }
                }
            }
            if !ready {
                if !pollable {
                    self.rob.sleep_issue(slot, blockers);
                }
                continue;
            }
            let op = inst.op;
            if !self.fus.try_issue(self.now, op) {
                continue; // contention: counted by the pool
            }
            let latency = op.latency().0 as u64;
            let src_values = self.rob.src_values[slot];
            let inputs_correct = (0..2).all(|i| {
                if is_store && i == 1 {
                    true
                } else {
                    inst_src(&inst, i).is_none() || inputs[i] == src_values[i]
                }
            });
            let inputs_final = {
                let mut fin = true;
                for i in 0..2 {
                    if inst_src(&inst, i).is_none() || (is_store && i == 1) {
                        continue;
                    }
                    if let Some((pslot, pseq)) = self.rob.producers[slot][i] {
                        if self.rob.is_live(pslot)
                            && self.rob.seq[pslot] == pseq
                            && !self.rob.nonspec_at(pslot, self.now)
                        {
                            fin = false;
                        }
                    }
                }
                fin
            };
            self.rob.exec_finish[slot] = self.now + latency;
            self.rob.exec_inputs[slot] = inputs;
            self.rob
                .assign_flag(slot, flag::EXEC_IN_CORRECT, inputs_correct);
            self.rob.assign_flag(slot, flag::EXEC_IN_FINAL, inputs_final);
            self.rob.exec.set(slot);
            if let Some(t) = self.trace.as_mut() {
                t.on_issue(self.rob.seq[slot], self.now);
            }
            issued += 1;
        }
    }

    // ----------------------------------------------------------------
    // Dispatch (decode + rename + functional execution).
    // ----------------------------------------------------------------

    fn dispatch(&mut self) -> Result<(), SimError> {
        // A granted trace replay consumes the whole dispatch stage this
        // cycle: every member dispatches atomically, bypassing the
        // decode-width limit (the headline benefit of trace reuse).
        if self.mechs.rtb.is_some() && self.try_replay()? {
            return Ok(());
        }
        let mut lsq_used = self.rob.mem_ops_in_flight();
        for _ in 0..DECODE_WIDTH {
            if self.rob.is_full() {
                break;
            }
            let Some(f) = self.fetch_queue.front() else { break };
            let needs_checkpoint = matches!(
                f.inst.op.class(),
                OpClass::Branch | OpClass::JumpReg
            );
            if needs_checkpoint && self.checkpoints.len() >= MAX_BRANCHES {
                break;
            }
            let is_mem = matches!(f.inst.op.class(), OpClass::Load | OpClass::Store);
            if is_mem && lsq_used >= LSQ_SIZE {
                break; // LSQ full: decode stalls at the memory op
            }
            if is_mem {
                lsq_used += 1;
            }
            let Some(f) = self.fetch_queue.pop_front() else { break };
            let redirected = self.dispatch_one(f)?;
            if self.halted || redirected {
                break;
            }
        }
        Ok(())
    }

    /// Offers the PC at the head of the fetch queue to RTB. On a granted
    /// replay the fetched stream is replaced by the trace: the queue
    /// drains, every member dispatches this cycle through the ordinary
    /// `dispatch_one` path (so renaming, checkpointing, and the
    /// per-member replay guard all run), and fetch restarts after the
    /// trace's last member.
    ///
    /// Returns `Ok(true)` when a replay consumed the dispatch stage.
    fn try_replay(&mut self) -> Result<bool, SimError> {
        if self.rob.is_full() {
            return Ok(false);
        }
        let Some(front) = self.fetch_queue.front() else {
            return Ok(false);
        };
        let pc = front.pc;
        let rob_free = self.config.rob_size - self.rob.len();
        let lsq_free = LSQ_SIZE.saturating_sub(self.rob.mem_ops_in_flight());
        let cp_free = MAX_BRANCHES.saturating_sub(self.checkpoints.len());

        let mut plans = std::mem::take(&mut self.replay_plans);
        plans.clear();
        let q = ReplayQuery {
            pc,
            regs: self.spec.regs(),
            mem: self.spec.mem(),
            rob_free,
            lsq_free,
            cp_free,
        };
        let granted = self
            .mechs
            .rtb
            .as_mut()
            .is_some_and(|rtb| rtb.replay_begin(&q, &mut plans));
        if !granted {
            self.replay_plans = plans;
            return Ok(false);
        }
        // Pre-validate the plan against the static program: every member
        // PC must decode to a real instruction. (Traces are captured
        // from dispatched instructions, so this only fails if the table
        // is corrupt — abort the replay rather than wedge dispatch.)
        let plan_ok = !plans.is_empty()
            && plans.iter().all(|p| self.program.inst_at(p.pc).is_some());
        if !plan_ok {
            if let Some(rtb) = self.mechs.rtb.as_mut() {
                rtb.replay_abort();
            }
            self.replay_plans = plans;
            return Ok(false);
        }

        // The replay replaces the fetched stream: drain the queue so the
        // RAS snapshots inside pending predictions return to the pool.
        while let Some(f) = self.fetch_queue.pop_front() {
            if let Some(p) = f.pred {
                self.ras_pool.push(p.ras_snapshot);
            }
        }

        let mut next_pc = pc;
        let mut redirected = false;
        for plan in &plans {
            let plan = *plan;
            let Some(&inst) = self.program.inst_at(plan.pc) else {
                break; // unreachable: validated above
            };
            let pred = if plan.is_ctrl {
                // The trace's recorded outcome stands in for the branch
                // predictor's direction; a real token is still claimed
                // so commit-time training stays well-formed.
                let (_, token) = self.bp.predict(plan.pc);
                Some(FetchPred {
                    taken: plan.taken,
                    target: plan.target,
                    token,
                    ras_snapshot: self.take_ras_snapshot(),
                })
            } else {
                None
            };
            let f = FetchedInst {
                pc: plan.pc,
                inst,
                pred,
            };
            redirected = self.dispatch_one(f)?;
            next_pc = if plan.is_ctrl && plan.taken {
                plan.target
            } else {
                plan.pc.wrapping_add(INST_BYTES)
            };
            if self.halted || redirected {
                break;
            }
        }
        if !self.halted && !redirected {
            self.fetch_pc = next_pc;
            self.fetch_halted = false;
            self.fetch_stalled_until = self.now + 1;
        }
        self.replay_plans = plans;
        Ok(true)
    }

    /// Dispatches one instruction; returns `true` if a reused branch
    /// resolved against the followed path and redirected fetch.
    ///
    /// Fails with [`SimError::Internal`] when decode-time bookkeeping
    /// contracts are broken (a memory op without a width, a control
    /// instruction without a prediction or outcome).
    fn dispatch_one(&mut self, mut f: FetchedInst) -> Result<bool, SimError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.dispatched += 1;
        let inst = f.inst;
        let pc = f.pc;

        // Record operand sources before applying our own write.
        let mut src_values = [None, None];
        let mut producers = [None, None];
        for (i, src) in [inst.src1, inst.src2].into_iter().enumerate() {
            let Some(reg) = src else { continue };
            src_values[i] = Some(self.spec.regs().read(reg));
            if let Some((slot, pseq)) = self.map.get(reg.index()) {
                if self.rob.is_live(slot) && self.rob.seq[slot] == pseq {
                    producers[i] = Some((slot, pseq));
                }
            }
        }

        // Functional execution on the speculative (fetched-path) state.
        let out = execute(&inst, pc, |r| self.spec.regs().read(r), self.spec.mem());
        if let (Some(dst), Some(v)) = (inst.dst, out.result) {
            self.spec.write_reg(seq, dst, v);
        }
        if let Some(acc) = out.store_access(&inst) {
            self.spec.write_mem(seq, acc.addr, acc.width, acc.value);
        }

        // Claim and reset the tail slot. The slot stays invisible to all
        // stage scans until `commit_push` below, matching the old
        // build-entry-outside-the-ROB dispatch.
        let slot = self
            .rob
            .begin_push(seq, pc, inst, self.now, out, src_values, producers);

        // Class-specific initialisation.
        match inst.op.class() {
            OpClass::Misc => {
                self.rob.set_nonspec(slot, self.now + 1);
            }
            OpClass::Jump => {
                // Direct jumps never mispredict; `jal`'s link value is
                // known at decode.
                self.rob.set_nonspec(slot, self.now + 1);
                if let Some(link) = out.result {
                    self.rob.set_visible(slot, link, self.now + 1);
                }
            }
            OpClass::Load | OpClass::Store => {
                let width = inst
                    .op
                    .mem_width()
                    .ok_or_else(|| self.internal_error("memory op lacks an access width"))?;
                self.rob.mem[slot] = MemState {
                    is_load: inst.op.class() == OpClass::Load,
                    width,
                    addr_known: None,
                    computed_addr: None,
                    access_finish: None,
                    accessed_addr: None,
                };
                self.rob.assign_flag(slot, flag::HAS_MEM, true);
            }
            _ => {}
        }

        // Control state + checkpoint. The checkpoint comes from the pool
        // (capacity reused via `clone_from`), and the fetch-time RAS
        // snapshot is *moved* in rather than cloned; the checkpoint's old
        // snapshot Vec returns to the pool for the next fetch.
        if matches!(inst.op.class(), OpClass::Branch | OpClass::JumpReg) {
            let pred = f
                .pred
                .take()
                .ok_or_else(|| self.internal_error("control instruction fetched without a prediction"))?;
            let mut cp = self.cp_pool.pop().unwrap_or_default();
            cp.map.copy_from(&self.map);
            let old_ras = std::mem::replace(&mut cp.ras, pred.ras_snapshot);
            self.ras_pool.push(old_ras);
            self.checkpoints.insert(seq, cp);
            self.rob.ctrl[slot] = CtrlState {
                followed_taken: pred.taken,
                followed_target: pred.target,
                original_taken: pred.taken,
                original_target: pred.target,
                bp_token: pred.token,
                resolved: false,
                resolve_cycle: 0,
                acted_count: 0,
            };
            self.rob.assign_flag(slot, flag::HAS_CTRL, true);
            self.rob.ctrl_unres.set(slot);
        } else if inst.op.class() == OpClass::Jump {
            let target = out
                .control
                .ok_or_else(|| self.internal_error("direct jump has no computed control outcome"))?
                .target;
            self.rob.ctrl[slot] = CtrlState {
                followed_taken: true,
                followed_target: target,
                original_taken: true,
                original_target: target,
                bp_token: 0,
                resolved: true,
                resolve_cycle: self.now,
                acted_count: 0,
            };
            self.rob.assign_flag(slot, flag::HAS_CTRL, true);
        }

        // Mechanism dispatch hooks (none on the base machine).
        if !self.mechs.is_empty() {
            self.drive_dispatch_mechs(slot)?;
        }

        let reused = self.rob.reused.test(slot);
        let trace_reused = self.rob.trace_reused.test(slot);
        if let Some(t) = self.trace.as_mut() {
            t.on_dispatch(seq, pc, inst, self.now);
            if reused {
                t.on_outcome(seq, TraceOutcome::Reused);
            } else if trace_reused {
                t.on_outcome(seq, TraceOutcome::TraceReused);
            } else if self.rob.predicted[slot].is_some()
                || self.rob.addr_predicted[slot].is_some()
            {
                t.on_outcome(seq, TraceOutcome::Predicted);
            } else if self.rob.addr_reused.test(slot) {
                t.on_outcome(seq, TraceOutcome::AddrReused);
            }
        }
        let reused_branch =
            (reused || trace_reused) && self.rob.has_flag(slot, flag::HAS_CTRL);
        self.rob.commit_push(slot);
        if let Some(dst) = inst.dst {
            if !dst.is_zero() {
                self.map.set(dst.index(), slot, seq);
            }
        }
        if inst.op == Op::Halt {
            self.fetch_halted = true;
        }
        // Early validation: a reused branch resolves *at decode*, with
        // zero resolution latency (Figure 4's reuse bars). Trace-reused
        // branches behave the same way — their outcome was validated by
        // the replay guard.
        if reused_branch {
            debug_assert!(
                self.rob.ctrl_out.test(slot),
                "mechanisms record computed_ctrl before marking a branch reused"
            );
            let (taken, target) = self.rob.computed_ctrl[slot];
            return self.act_on_branch(slot, taken, target, true);
        }
        Ok(false)
    }

    /// Runs the mechanisms' dispatch hooks against `slot` in the
    /// paper's order: IR's reuse test first, then VP, which covers only
    /// the RB misses; RTB always runs alone. Each outcome is applied to
    /// the ROB before the next mechanism's query is built, so in the
    /// hybrid VP observes IR's reuse.
    fn drive_dispatch_mechs(&mut self, slot: usize) -> Result<(), SimError> {
        if self.mechs.ir.is_some() {
            let q = self.reuse_query(slot)?;
            if let Some(hit) = self.mechs.ir.as_mut().and_then(|ir| ir.on_dispatch(&q)) {
                self.apply_reuse(slot, &hit);
            }
        }
        if let Some(vp) = self.mechs.vp.as_mut() {
            let act = vp.on_dispatch(&dispatch_query(&self.rob, slot));
            self.apply_dispatch_action(slot, &act);
        }
        if let Some(rtb) = self.mechs.rtb.as_mut() {
            let act = rtb.on_dispatch(&dispatch_query(&self.rob, slot));
            self.apply_dispatch_action(slot, &act);
        }
        Ok(())
    }

    /// IR's dispatch query: [`dispatch_query`] plus the operand views,
    /// reuse-chain pointers, and store-conflict scan the reuse test
    /// needs (they walk ROB state, so only IR pays for them).
    fn reuse_query(&self, slot: usize) -> Result<DispatchQuery, SimError> {
        let mut q = dispatch_query(&self.rob, slot);
        let inst = q.inst;
        let out = q.out;
        if matches!(inst.op.class(), OpClass::Misc | OpClass::Jump) {
            return Ok(q);
        }

        // Build the operand view against current pipeline state.
        let src_values = q.src_values;
        let producers = self.rob.producers[slot];
        for (i, src) in [inst.src1, inst.src2].into_iter().enumerate() {
            let Some(reg) = src else { continue };
            let view = match producers[i] {
                None => OperandView::settled(
                    src_values[i]
                        .ok_or_else(|| self.internal_error("operand was not read at dispatch"))?,
                ),
                Some((pslot, pseq)) => {
                    if self.rob.is_live(pslot) && self.rob.seq[pslot] == pseq {
                        let known = self.rob.reused.test(pslot)
                            || self.rob.nonspec_at(pslot, self.now);
                        if known {
                            OperandView::in_flight_known(
                                self.rob.pc[pslot],
                                self.rob.out[pslot].result.unwrap_or(0),
                            )
                        } else {
                            OperandView::in_flight(self.rob.pc[pslot])
                        }
                    } else {
                        OperandView::settled(
                            src_values[i].ok_or_else(|| {
                                self.internal_error("operand was not read at dispatch")
                            })?,
                        )
                    }
                }
            };
            q.views[i] = (Some(reg), view);
        }

        // Dependence pointers of producers reused in this decode group
        // (their entries enable same-cycle chain reuse under SnD).
        for (i, p) in producers.iter().enumerate() {
            let Some((pslot, pseq)) = p else { continue };
            if self.rob.is_live(*pslot)
                && self.rob.seq[*pslot] == *pseq
                && self.rob.reused.test(*pslot)
            {
                q.chain[i] = self.rob.reuse_source[*pslot];
            }
        }

        // A reused load must still snoop older in-flight stores: if one
        // overlaps its address, the buffered value may be stale relative
        // to this path — only the address computation is reusable. (The
        // slot being dispatched is not yet visible to the store mask.)
        if inst.op.class() == OpClass::Load {
            if let Some(laddr) = out.addr {
                let lend = laddr + self.rob.mem[slot].width.bytes();
                let rob = &self.rob;
                q.store_conflict = rob.age_order(rob.stores.0).any(|s2| {
                    rob.out[s2]
                        .addr
                        .is_some_and(|a| a < lend && laddr < a + rob.mem[s2].width.bytes())
                });
            }
        }
        Ok(q)
    }

    /// Applies IR's reuse hit to the ROB slot under the machine's
    /// validation model (the paper's Figure 3): early validation settles
    /// the slot at decode; late validation converts the reuse into an
    /// always-correct value prediction. A hit with neither the full
    /// result nor the address only remembers its source entry.
    fn apply_reuse(&mut self, slot: usize, hit: &Reused) {
        self.rob.reuse_source[slot] = Some(hit.entry);
        let out = self.rob.out[slot];
        match (self.validation(), hit.full, hit.addr) {
            (Validation::Early, true, _) => {
                self.rob.reused.set(slot);
                self.rob.set_nonspec(slot, self.now + 1);
                if let Some(v) = out.result {
                    self.rob.set_visible(slot, v, self.now + 1);
                }
                // A reused branch resolves immediately at decode
                // (early validation); `dispatch_one` acts on it.
                if self.rob.has_flag(slot, flag::HAS_CTRL) {
                    if let Some(c) = out.control {
                        self.rob.computed_ctrl[slot] = (c.taken, c.target);
                        self.rob.ctrl_out.set(slot);
                    }
                    self.rob.assign_flag(slot, flag::LAST_CORRECT, true);
                    self.rob.assign_flag(slot, flag::LAST_FINAL, true);
                }
            }
            (Validation::Early, false, Some(addr)) => {
                self.rob.addr_reused.set(slot);
                if self.rob.has_flag(slot, flag::HAS_MEM) {
                    let mem = &mut self.rob.mem[slot];
                    mem.computed_addr = Some(addr);
                    mem.addr_known = Some(self.now + 1);
                }
                if self.rob.stores.test(slot) {
                    // Stores: the address half is done.
                    self.rob.set_nonspec(slot, self.now + 1);
                }
                self.rob.assign_flag(slot, flag::LAST_CORRECT, true);
                self.rob.assign_flag(slot, flag::LAST_FINAL, true);
            }
            (Validation::Late, true, _) => {
                if let Some(v) = out.result {
                    self.rob.predicted[slot] = Some(v);
                    self.rob.set_visible(slot, v, self.now + 1);
                }
                self.rob.assign_flag(slot, flag::LATE_REUSED, true);
            }
            (Validation::Late, false, Some(addr)) => {
                self.rob.addr_predicted[slot] = Some(addr);
                self.rob.assign_flag(slot, flag::LATE_REUSED, true);
            }
            (_, false, None) => {}
        }
    }

    /// Applies VP's or RTB's dispatch action to the ROB slot.
    fn apply_dispatch_action(&mut self, slot: usize, act: &DispatchAction) {
        if let Some(p) = act.predicted {
            self.rob.predicted[slot] = p;
            if let Some(v) = p {
                self.rob.set_visible(slot, v, self.now + 1);
            }
        }
        if let Some(p) = act.addr_predicted {
            self.rob.addr_predicted[slot] = p;
        }
        let out = self.rob.out[slot];
        if act.trace_member {
            // Replay-validated trace member: settled at decode like an
            // early-validated reuse, but attributed to the RTB.
            self.rob.trace_reused.set(slot);
            self.rob.set_nonspec(slot, self.now + 1);
            if let Some(v) = out.result {
                self.rob.set_visible(slot, v, self.now + 1);
            }
            if self.rob.has_flag(slot, flag::HAS_MEM) {
                let mem = &mut self.rob.mem[slot];
                mem.computed_addr = out.addr;
                mem.addr_known = Some(self.now + 1);
            }
            if self.rob.has_flag(slot, flag::HAS_CTRL) {
                if let Some(c) = out.control {
                    self.rob.computed_ctrl[slot] = (c.taken, c.target);
                    self.rob.ctrl_out.set(slot);
                }
                self.rob.assign_flag(slot, flag::LAST_CORRECT, true);
                self.rob.assign_flag(slot, flag::LAST_FINAL, true);
            }
        }
    }

    // ----------------------------------------------------------------
    // Fetch.
    // ----------------------------------------------------------------

    /// A RAS snapshot in a pooled Vec (allocation-free once the pool has
    /// warmed up; snapshots return to the pool at dispatch or squash).
    fn take_ras_snapshot(&mut self) -> Vec<u64> {
        let mut snap = self.ras_pool.pop().unwrap_or_default();
        self.ras.checkpoint_into(&mut snap);
        snap
    }

    fn fetch(&mut self) {
        if self.fetch_halted || self.now < self.fetch_stalled_until {
            return;
        }
        if self.fetch_queue.len() >= 2 * FETCH_WIDTH {
            return;
        }
        let mut pc = self.fetch_pc;
        let line = pc / FETCH_LINE_BYTES;

        // One instruction-cache access per fetch cycle.
        let outcome = self.icache.access(self.now, pc);
        if !outcome.hit {
            self.fetch_stalled_until = outcome.ready_cycle;
            return;
        }

        for _ in 0..FETCH_WIDTH {
            if pc / FETCH_LINE_BYTES != line {
                break; // cannot fetch across a cache-line boundary
            }
            let Some(&inst) = self.program.inst_at(pc) else {
                // Fell off the text segment (wrong path): wait for squash.
                self.fetch_halted = true;
                break;
            };
            let mut pred = None;
            let mut taken = false;
            let mut target = 0;
            match inst.op.class() {
                OpClass::Branch => {
                    let (t, token) = self.bp.predict(pc);
                    taken = t;
                    target = inst.target();
                    pred = Some(FetchPred {
                        taken,
                        target,
                        token,
                        ras_snapshot: self.take_ras_snapshot(),
                    });
                }
                OpClass::Jump => {
                    taken = true;
                    target = inst.target();
                    if inst.op == Op::Jal {
                        self.ras.push(pc + INST_BYTES);
                    }
                }
                OpClass::JumpReg => {
                    taken = true;
                    target = if inst.is_return() {
                        self.ras.pop().unwrap_or(pc + INST_BYTES)
                    } else {
                        self.targets.predict(pc).unwrap_or(pc + INST_BYTES)
                    };
                    if inst.op == Op::Jalr {
                        self.ras.push(pc + INST_BYTES);
                    }
                    pred = Some(FetchPred {
                        taken,
                        target,
                        token: 0,
                        ras_snapshot: self.take_ras_snapshot(),
                    });
                }
                _ => {}
            }

            self.fetch_queue.push_back(FetchedInst { pc, inst, pred });
            if inst.op == Op::Halt {
                self.fetch_halted = true;
                break;
            }
            if inst.op.is_control() && taken {
                pc = target;
                self.fetch_pc = pc;
                return; // only one taken branch per cycle
            }
            pc += INST_BYTES;
        }
        self.fetch_pc = pc;
    }
}

/// Source register `i` (0 or 1) of an instruction.
fn inst_src(inst: &Inst, i: usize) -> Option<Reg> {
    match i {
        0 => inst.src1,
        _ => inst.src2,
    }
}

/// The dispatch-time state of `slot` every mechanism may consult: plain
/// copies of its ROB columns, taken after any earlier mechanism's
/// action was applied. IR's [`Simulator::reuse_query`] adds the operand
/// views.
fn dispatch_query(rob: &Rob, slot: usize) -> DispatchQuery {
    DispatchQuery {
        pc: rob.pc[slot],
        seq: rob.seq[slot],
        inst: rob.inst[slot],
        out: rob.out[slot],
        src_values: rob.src_values[slot],
        is_load: rob.loads.test(slot),
        predicted: rob.predicted[slot],
        reused: rob.reused.test(slot),
        addr_reused: rob.addr_reused.test(slot),
        views: [(None, OperandView::default()); 2],
        chain: [None, None],
        store_conflict: false,
    }
}
