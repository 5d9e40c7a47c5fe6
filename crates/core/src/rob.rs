//! The reorder buffer, stored as structure-of-arrays columns.
//!
//! Entries hold both the *architectural truth* for their dynamic instance
//! (computed functionally at dispatch) and the *timing state* of the
//! value as consumers see it — including a possibly wrong,
//! value-speculative visible value. The Table 1 machine's 32-entry LSQ is
//! as large as the ROB, so load/store ordering is resolved by walking
//! older ROB entries rather than by a separate capacity-limited queue
//! (the LSQ can never be the binding constraint; see DESIGN.md).
//!
//! # Columnar layout
//!
//! Per-entry state lives in parallel column vectors indexed by ROB slot
//! (the `radix`-style typed-column organization), not in an
//! array-of-structs `Vec<Option<RobEntry>>`. Each pipeline stage touches
//! only the columns it reads, and *which* slots a stage visits is driven
//! by per-stage bitmaps ([`SlotMask`]) combined with bitwise ops — a
//! stage visits `popcount` slots, not `rob.len()` slots. Dense masked
//! iteration walks the circular live window in age order (oldest first),
//! so iteration order — which is part of the simulated machine's
//! deterministic behaviour — is identical to the old full-window scan.
//!
//! Option-typed timing fields are collapsed into plain columns with the
//! [`NO_CYCLE`] sentinel (cycle numbers never reach `u64::MAX / 4`) or a
//! validity bitmap; occupancy itself is the `valid` bitmap, so there is
//! no double-`Option` and no panicking `entry()` accessor.

use vpir_isa::{ExecOut, Inst, MemWidth, OpClass};
use vpir_reuse::EntryRef;

/// Sentinel for "no cycle recorded" in cycle-number columns
/// (`Rob::vis_since`, `Rob::nonspec_cycle`, `Rob::exec_finish`).
/// Run limits cap cycles far below this.
pub const NO_CYCLE: u64 = u64::MAX;

/// Control-transfer state for branches and jumps.
#[derive(Debug, Clone, Copy, Default)]
pub struct CtrlState {
    /// Direction the front end currently follows (rewritten on squash).
    pub followed_taken: bool,
    /// Target the front end currently follows when taken.
    pub followed_target: u64,
    /// The original fetch-time direction (for prediction-rate stats).
    pub original_taken: bool,
    /// The original fetch-time target (for return-prediction stats).
    pub original_target: u64,
    /// Direction-predictor token (gshare history snapshot).
    pub bp_token: u64,
    /// Whether the fetch-time prediction came from the RAS.
    pub used_ras: bool,
    /// Whether the branch has been finally resolved.
    pub resolved: bool,
    /// Cycle of final resolution (valid when `resolved`).
    pub resolve_cycle: u64,
    /// `exec_count` at the last resolution action (SB re-acts on each
    /// new execution).
    pub acted_count: u32,
}

/// Memory state for loads and stores.
#[derive(Debug, Clone, Copy)]
pub struct MemState {
    /// Load (true) or store (false).
    pub is_load: bool,
    /// Access width.
    pub width: MemWidth,
    /// Cycle the *correct* effective address became known; `None` until
    /// address generation completes with correct inputs (or the address
    /// was reused).
    pub addr_known: Option<u64>,
    /// The address produced by the most recent address generation (may
    /// be wrong under value speculation).
    pub computed_addr: Option<u64>,
    /// For loads: in-flight memory access completing at this cycle.
    pub access_finish: Option<u64>,
    /// For loads: the address the in-flight/completed access used
    /// (detects wrong-address-prediction accesses).
    pub accessed_addr: Option<u64>,
}

impl Default for MemState {
    fn default() -> MemState {
        MemState {
            is_load: false,
            width: MemWidth::B8,
            addr_known: None,
            computed_addr: None,
            access_finish: None,
            accessed_addr: None,
        }
    }
}

/// Per-entry boolean flags packed into one `u32` column.
pub mod flag {
    /// IR (late validation): reuse treated as a correct prediction.
    pub const LATE_REUSED: u32 = 1 << 0;
    /// The most recent completed execution used correct inputs.
    pub const LAST_CORRECT: u32 = 1 << 1;
    /// The most recent completed execution used final inputs.
    pub const LAST_FINAL: u32 = 1 << 2;
    /// The in-flight execution's inputs equal the architectural ones.
    pub const EXEC_IN_CORRECT: u32 = 1 << 3;
    /// The in-flight execution's inputs were all non-speculative.
    pub const EXEC_IN_FINAL: u32 = 1 << 4;
    /// The [`CtrlState`](super::CtrlState) column is valid for this slot.
    pub const HAS_CTRL: u32 = 1 << 5;
    /// The [`MemState`](super::MemState) column is valid for this slot.
    pub const HAS_MEM: u32 = 1 << 6;
}

/// A bitmap over ROB slots: one bit per slot, packed into `u64` words.
///
/// Per-stage masks are the index vectors of the columnar layout: a
/// stage's candidate set is a bitwise expression over a few masks, and
/// iteration visits only set bits (in age order, via
/// [`Rob::for_each_masked`]).
#[derive(Debug, Clone, Default)]
pub struct SlotMask {
    pub(crate) words: Vec<u64>,
}

impl SlotMask {
    fn new(capacity: usize) -> SlotMask {
        SlotMask {
            words: vec![0; capacity.div_ceil(64)],
        }
    }

    #[inline]
    pub(crate) fn set(&mut self, slot: usize) {
        self.words[slot / 64] |= 1 << (slot % 64);
    }

    #[inline]
    pub(crate) fn clear(&mut self, slot: usize) {
        self.words[slot / 64] &= !(1 << (slot % 64));
    }

    #[inline]
    pub(crate) fn assign(&mut self, slot: usize, on: bool) {
        if on {
            self.set(slot);
        } else {
            self.clear(slot);
        }
    }

    #[inline]
    pub(crate) fn test(&self, slot: usize) -> bool {
        self.words[slot / 64] & (1 << (slot % 64)) != 0
    }
}

/// A fixed-capacity circular reorder buffer over columnar state.
///
/// Columns are `pub(crate)`: the pipeline reads and writes fields
/// directly by slot index (`rob.seq[slot]`), while the structural state
/// (head, length, occupancy bitmap) is managed through methods so the
/// live window and the masks can never disagree with each other.
#[derive(Debug)]
pub struct Rob {
    cap: usize,
    head: usize,
    len: usize,

    // ---- columns, all of length `cap` ----
    /// Global dynamic sequence number (age).
    pub(crate) seq: Vec<u64>,
    /// Instruction address.
    pub(crate) pc: Vec<u64>,
    /// The instruction.
    pub(crate) inst: Vec<Inst>,
    /// Dispatch cycle.
    pub(crate) dispatch_cycle: Vec<u64>,
    /// Architectural outputs for this dynamic instance (dispatch-time
    /// functional execution on the *current path*).
    pub(crate) out: Vec<ExecOut>,
    /// Architecturally correct source-operand values.
    pub(crate) src_values: Vec<[Option<u64>; 2]>,
    /// In-flight producers at dispatch: `(rob slot, seq)` per operand;
    /// `None` means the operand came from the architected register file.
    pub(crate) producers: Vec<[Option<(usize, u64)>; 2]>,
    /// The value consumers currently see (valid iff `vis_since[slot]
    /// != NO_CYCLE`; visible from that cycle on).
    pub(crate) vis_value: Vec<u64>,
    /// First cycle consumers may issue using `vis_value`.
    pub(crate) vis_since: Vec<u64>,
    /// Cycle from which the value is final *and* verified (`NO_CYCLE`
    /// until then; the `nonspec` mask mirrors "recorded at all").
    pub(crate) nonspec_cycle: Vec<u64>,
    /// In-flight execution: result-visible cycle (`NO_CYCLE` when no
    /// execution is in flight; the `exec` mask mirrors this).
    pub(crate) exec_finish: Vec<u64>,
    /// In-flight execution: visible input values consumed at issue.
    pub(crate) exec_inputs: Vec<[Option<u64>; 2]>,
    /// Completed execution events.
    pub(crate) exec_count: Vec<u32>,
    /// Inputs consumed by the most recent completed execution.
    pub(crate) last_inputs: Vec<[Option<u64>; 2]>,
    /// Control outcome computed by the most recent execution (or by the
    /// reuse test), from possibly wrong inputs: `(taken, target)`.
    /// Valid iff the `ctrl_out` mask bit is set.
    pub(crate) computed_ctrl: Vec<(bool, u64)>,
    /// VP: predicted result value, if a prediction was made.
    pub(crate) predicted: Vec<Option<u64>>,
    /// VP: predicted effective address (loads).
    pub(crate) addr_predicted: Vec<Option<u64>>,
    /// IR: the RB entry the reuse test hit.
    pub(crate) reuse_source: Vec<Option<EntryRef>>,
    /// IR: RB entry this instruction wrote or refreshed (dependence ptr).
    pub(crate) rb_entry: Vec<Option<EntryRef>>,
    /// Control state for branches/jumps (valid iff `flag::HAS_CTRL`).
    pub(crate) ctrl: Vec<CtrlState>,
    /// Memory state for loads/stores (valid iff `flag::HAS_MEM`).
    pub(crate) mem: Vec<MemState>,
    /// Packed boolean flags (see [`flag`]).
    pub(crate) flags: Vec<u32>,

    // ---- per-stage masks ----
    /// Occupancy: exactly the slots inside the live window.
    pub(crate) valid: SlotMask,
    /// Execution in flight (writeback candidates).
    pub(crate) exec: SlotMask,
    /// `nonspec_cycle` recorded (present, not necessarily reached).
    pub(crate) nonspec: SlotMask,
    /// Executed at least once with correct inputs (promotion candidates).
    pub(crate) settled: SlotMask,
    /// Unresolved branch/indirect-jump (resolution candidates).
    pub(crate) ctrl_unres: SlotMask,
    /// `computed_ctrl` valid.
    pub(crate) ctrl_out: SlotMask,
    /// Loads.
    pub(crate) loads: SlotMask,
    /// Stores.
    pub(crate) stores: SlotMask,
    /// IR: full result reused at decode.
    pub(crate) reused: SlotMask,
    /// IR: address (only) reused at decode (address generation done).
    pub(crate) addr_reused: SlotMask,
    /// RTB: dispatched as a validated trace-replay member (settled at
    /// decode like `reused`, but attributed to trace reuse).
    pub(crate) trace_reused: SlotMask,
    /// Loads with a memory access in flight or completed.
    pub(crate) accessed: SlotMask,
    /// Ever needs a functional unit (class is not Misc/Jump).
    pub(crate) execable: SlotMask,
    /// Issue-stage sleepers: candidates that were examined and found
    /// blocked on a producer whose unblocking is guaranteed to arrive as
    /// an event ([`Rob::set_visible`], [`Rob::set_nonspec`], or the
    /// producer leaving the window). Excluded from issue collection
    /// until [`Rob::wake_dependents`] clears them; skipping them is
    /// observationally identical to the poll that would have found them
    /// still blocked (a blocked candidate touches no machine state).
    pub(crate) asleep: SlotMask,
    /// `issue_waiters[p * words + w]`: bitmask (same layout as a
    /// [`SlotMask`] word) of sleepers waiting on producer slot `p`.
    /// Bits may go stale (a sleeper woken through one producer stays
    /// recorded under another); a stale wake is a harmless extra poll.
    issue_waiters: Vec<u64>,
}

impl Rob {
    /// Creates an empty ROB with `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Rob {
        assert!(capacity > 0, "ROB capacity must be positive");
        Rob {
            cap: capacity,
            head: 0,
            len: 0,
            seq: vec![0; capacity],
            pc: vec![0; capacity],
            inst: vec![Inst::NOP; capacity],
            dispatch_cycle: vec![0; capacity],
            out: vec![ExecOut::default(); capacity],
            src_values: vec![[None, None]; capacity],
            producers: vec![[None, None]; capacity],
            vis_value: vec![0; capacity],
            vis_since: vec![NO_CYCLE; capacity],
            nonspec_cycle: vec![NO_CYCLE; capacity],
            exec_finish: vec![NO_CYCLE; capacity],
            exec_inputs: vec![[None, None]; capacity],
            exec_count: vec![0; capacity],
            last_inputs: vec![[None, None]; capacity],
            computed_ctrl: vec![(false, 0); capacity],
            predicted: vec![None; capacity],
            addr_predicted: vec![None; capacity],
            reuse_source: vec![None; capacity],
            rb_entry: vec![None; capacity],
            ctrl: vec![CtrlState::default(); capacity],
            mem: vec![MemState::default(); capacity],
            flags: vec![0; capacity],
            valid: SlotMask::new(capacity),
            exec: SlotMask::new(capacity),
            nonspec: SlotMask::new(capacity),
            settled: SlotMask::new(capacity),
            ctrl_unres: SlotMask::new(capacity),
            ctrl_out: SlotMask::new(capacity),
            loads: SlotMask::new(capacity),
            stores: SlotMask::new(capacity),
            reused: SlotMask::new(capacity),
            addr_reused: SlotMask::new(capacity),
            trace_reused: SlotMask::new(capacity),
            accessed: SlotMask::new(capacity),
            execable: SlotMask::new(capacity),
            asleep: SlotMask::new(capacity),
            issue_waiters: vec![0; capacity * capacity.div_ceil(64)],
        }
    }

    /// Occupied entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ROB is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the ROB is full.
    pub fn is_full(&self) -> bool {
        self.len == self.cap
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Whether `slot` holds a live entry.
    #[inline]
    pub fn is_live(&self, slot: usize) -> bool {
        self.valid.test(slot)
    }

    /// The slot of the oldest entry, if any.
    #[inline]
    pub fn head_slot(&self) -> Option<usize> {
        (self.len > 0).then_some(self.head)
    }

    /// Begins allocating the tail slot: resets every column for the new
    /// entry and records the dispatch-time facts. The entry is *not* yet
    /// part of the live window — scans during the rest of dispatch (the
    /// reuse test's store snoop) must not see it — until
    /// [`Rob::commit_push`].
    ///
    /// # Panics
    ///
    /// Panics if the ROB is full.
    #[allow(clippy::too_many_arguments)] // the dispatch-time facts of one instruction
    pub(crate) fn begin_push(
        &mut self,
        seq: u64,
        pc: u64,
        inst: Inst,
        dispatch_cycle: u64,
        out: ExecOut,
        src_values: [Option<u64>; 2],
        producers: [Option<(usize, u64)>; 2],
    ) -> usize {
        assert!(!self.is_full(), "ROB overflow");
        let slot = (self.head + self.len) % self.cap;
        self.clear_slot_masks(slot);
        self.seq[slot] = seq;
        self.pc[slot] = pc;
        self.inst[slot] = inst;
        self.dispatch_cycle[slot] = dispatch_cycle;
        self.out[slot] = out;
        self.src_values[slot] = src_values;
        self.producers[slot] = producers;
        self.vis_since[slot] = NO_CYCLE;
        self.nonspec_cycle[slot] = NO_CYCLE;
        self.exec_finish[slot] = NO_CYCLE;
        self.exec_inputs[slot] = [None, None];
        self.exec_count[slot] = 0;
        self.last_inputs[slot] = [None, None];
        self.predicted[slot] = None;
        self.addr_predicted[slot] = None;
        self.reuse_source[slot] = None;
        self.rb_entry[slot] = None;
        self.flags[slot] = 0;
        match inst.op.class() {
            OpClass::Misc | OpClass::Jump => {}
            OpClass::Load => {
                self.loads.set(slot);
                self.execable.set(slot);
            }
            OpClass::Store => {
                self.stores.set(slot);
                self.execable.set(slot);
            }
            _ => self.execable.set(slot),
        }
        slot
    }

    /// Completes the allocation started by [`Rob::begin_push`]: the
    /// entry joins the live window.
    pub(crate) fn commit_push(&mut self, slot: usize) {
        debug_assert_eq!(slot, (self.head + self.len) % self.cap);
        self.valid.set(slot);
        self.len += 1;
    }

    /// Frees the oldest entry (after commit has read its columns).
    ///
    /// # Panics
    ///
    /// Panics if the ROB is empty.
    pub(crate) fn free_head(&mut self) {
        assert!(self.len > 0, "free_head on empty ROB");
        // Consumers blocked on this producer fall back to their
        // dispatch-time operand values once it leaves the window.
        self.wake_dependents(self.head);
        self.clear_slot_masks(self.head);
        self.head = (self.head + 1) % self.cap;
        self.len -= 1;
    }

    /// Clears every mask bit for `slot` (column data may stay stale; the
    /// next [`Rob::begin_push`] for the slot resets it).
    fn clear_slot_masks(&mut self, slot: usize) {
        self.valid.clear(slot);
        self.exec.clear(slot);
        self.nonspec.clear(slot);
        self.settled.clear(slot);
        self.ctrl_unres.clear(slot);
        self.ctrl_out.clear(slot);
        self.loads.clear(slot);
        self.stores.clear(slot);
        self.reused.clear(slot);
        self.addr_reused.clear(slot);
        self.trace_reused.clear(slot);
        self.accessed.clear(slot);
        self.execable.clear(slot);
        self.asleep.clear(slot);
        // Drop this slot's waiter row (its role as a producer); its own
        // bits in other rows go stale and are cleaned up lazily (a stale
        // wake is just an extra poll).
        let stride = self.asleep.words.len();
        self.issue_waiters[slot * stride..(slot + 1) * stride].fill(0);
        self.flags[slot] = 0;
    }

    /// Puts an issue candidate to sleep until one of `blockers` (live
    /// producer slots) produces a wake event. Callers must only pass
    /// blockers whose unblocking is event-guaranteed — never a producer
    /// whose state changes at an already-known future cycle.
    pub(crate) fn sleep_issue(&mut self, slot: usize, blockers: [Option<usize>; 2]) {
        let stride = self.asleep.words.len();
        let (w, bit) = (slot / 64, 1u64 << (slot % 64));
        for p in blockers.into_iter().flatten() {
            self.issue_waiters[p * stride + w] |= bit;
        }
        self.asleep.set(slot);
    }

    /// Wakes every issue sleeper recorded under `producer`: called on
    /// the producer's visibility, finality, and window-exit events (the
    /// complete set of transitions that can unblock a sleeper).
    #[inline]
    pub(crate) fn wake_dependents(&mut self, producer: usize) {
        let stride = self.asleep.words.len();
        let row = producer * stride;
        for w in 0..stride {
            let m = self.issue_waiters[row + w];
            if m != 0 {
                self.asleep.words[w] &= !m;
                self.issue_waiters[row + w] = 0;
            }
        }
    }

    /// The slot holding the `i`-th oldest live entry.
    #[inline]
    pub(crate) fn slot_of_age(&self, i: usize) -> usize {
        debug_assert!(i < self.len);
        (self.head + i) % self.cap
    }

    /// How many live entries are younger than `seq` (they occupy the
    /// youngest slots of the live window).
    pub(crate) fn count_younger(&self, seq: u64) -> usize {
        let mut k = 0;
        for i in (0..self.len).rev() {
            if self.seq[self.slot_of_age(i)] > seq {
                k += 1;
            } else {
                break;
            }
        }
        k
    }

    /// Discards the youngest `k` entries (the caller has already done
    /// per-victim bookkeeping by reading their columns).
    pub(crate) fn truncate_tail(&mut self, k: usize) {
        assert!(k <= self.len, "truncating more than the ROB holds");
        for i in (self.len - k..self.len).rev() {
            let slot = self.slot_of_age(i);
            self.clear_slot_masks(slot);
        }
        self.len -= k;
    }

    /// Slot indices in age order (oldest first). The full-window scan —
    /// paranoia checks and tests only; stages use masked iteration.
    pub fn slots_in_order(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).map(move |i| (self.head + i) % self.cap)
    }

    /// Visits every live slot whose bit is set in the mask expression
    /// `word` (a bitwise combination of this ROB's masks, evaluated one
    /// `u64` word at a time), in age order. Stops early when `f` returns
    /// `false`.
    ///
    /// The circular live window is walked as up to two linear ranges, so
    /// age order holds across wrap-around and cost is proportional to
    /// mask words plus set bits, not to window length.
    #[inline]
    pub(crate) fn for_each_masked(
        &self,
        word: impl Fn(&Rob, usize) -> u64,
        mut f: impl FnMut(usize) -> bool,
    ) {
        let end = self.head + self.len;
        let (r1, r2) = if end <= self.cap {
            ((self.head, end), (0, 0))
        } else {
            ((self.head, self.cap), (0, end - self.cap))
        };
        for (lo, hi) in [r1, r2] {
            if lo >= hi {
                continue;
            }
            let w0 = lo / 64;
            let w1 = hi.div_ceil(64);
            for w in w0..w1 {
                let mut bits = word(self, w) & self.valid.words[w];
                if w == w0 {
                    bits &= !0u64 << (lo % 64);
                }
                let word_end = (w + 1) * 64;
                if word_end > hi {
                    let keep = hi - w * 64;
                    bits &= (1u64 << keep) - 1;
                }
                while bits != 0 {
                    let slot = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if !f(slot) {
                        return;
                    }
                }
            }
        }
    }

    /// Collects the masked slots in age order into `out` (cleared
    /// first), reusing its capacity.
    #[inline]
    pub(crate) fn collect_masked(
        &self,
        word: impl Fn(&Rob, usize) -> u64,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        self.for_each_masked(word, |slot| {
            out.push(slot);
            true
        });
    }

    /// Writeback candidates: executions in flight.
    pub(crate) fn collect_writeback(&self, out: &mut Vec<usize>) {
        self.collect_masked(|r, w| r.exec.words[w], out);
    }

    /// Promotion candidates: executed with correct inputs, not yet
    /// final, no execution in flight.
    pub(crate) fn collect_promote(&self, out: &mut Vec<usize>) {
        self.collect_masked(
            |r, w| r.settled.words[w] & !r.nonspec.words[w] & !r.exec.words[w],
            out,
        );
    }

    /// Branch-resolution candidates: unresolved control with a computed
    /// outcome and no execution in flight.
    pub(crate) fn collect_resolve(&self, out: &mut Vec<usize>) {
        self.collect_masked(
            |r, w| r.ctrl_unres.words[w] & r.ctrl_out.words[w] & !r.exec.words[w],
            out,
        );
    }

    /// Memory-access candidates: loads that have not been fully reused
    /// and have no access in flight or completed.
    pub(crate) fn collect_mem_access(&self, out: &mut Vec<usize>) {
        self.collect_masked(
            |r, w| {
                r.loads.words[w]
                    & !r.reused.words[w]
                    & !r.trace_reused.words[w]
                    & !r.accessed.words[w]
            },
            out,
        );
    }

    /// Issue candidates: the statically-known part of the needs-exec
    /// predicate (never-executing classes, reuse, in-flight execution,
    /// finished address generation); the per-slot dynamic part
    /// (re-execution policy) stays in the issue stage.
    ///
    /// `settled` (executed, last inputs correct) is excluded up front:
    /// for a non-reused candidate it is exactly the needs-exec
    /// early-out, and settled instructions dominate a full window.
    pub(crate) fn collect_issue(&self, out: &mut Vec<usize>) {
        self.collect_masked(
            |r, w| {
                r.execable.words[w]
                    & !r.exec.words[w]
                    & !r.reused.words[w]
                    & !r.trace_reused.words[w]
                    & !r.addr_reused.words[w]
                    & !r.settled.words[w]
                    & !r.asleep.words[w]
            },
            out,
        );
    }

    /// Memory operations currently occupying load/store-queue entries.
    pub(crate) fn mem_ops_in_flight(&self) -> usize {
        self.loads
            .words
            .iter()
            .zip(&self.stores.words)
            .zip(&self.valid.words)
            .map(|((l, s), v)| ((l | s) & v).count_ones() as usize)
            .sum()
    }

    // ---- per-slot field helpers ----

    /// The sequence number of the oldest entry, if any.
    pub fn head_seq(&self) -> Option<u64> {
        self.head_slot().map(|s| self.seq[s])
    }

    /// The PC of the oldest entry, if any.
    pub fn head_pc(&self) -> Option<u64> {
        self.head_slot().map(|s| self.pc[s])
    }

    /// The entry's correct-or-speculative value as visible to consumers
    /// at `cycle`.
    #[inline]
    pub(crate) fn value_visible(&self, slot: usize, cycle: u64) -> Option<u64> {
        (self.vis_since[slot] <= cycle).then(|| self.vis_value[slot])
    }

    /// Whether the entry is non-value-speculative at `cycle`.
    #[inline]
    pub(crate) fn nonspec_at(&self, slot: usize, cycle: u64) -> bool {
        self.nonspec_cycle[slot] <= cycle
    }

    /// Makes `value` visible to consumers from `since`.
    #[inline]
    pub(crate) fn set_visible(&mut self, slot: usize, value: u64, since: u64) {
        self.vis_value[slot] = value;
        self.vis_since[slot] = since;
        self.wake_dependents(slot);
    }

    /// Removes the visible value (a stale speculative access).
    #[inline]
    pub(crate) fn clear_visible(&mut self, slot: usize) {
        self.vis_since[slot] = NO_CYCLE;
    }

    /// Records the cycle from which the entry is final and verified.
    #[inline]
    pub(crate) fn set_nonspec(&mut self, slot: usize, cycle: u64) {
        self.nonspec_cycle[slot] = cycle;
        self.nonspec.set(slot);
        self.wake_dependents(slot);
    }

    /// Tests a packed per-entry flag (see [`flag`]).
    #[inline]
    pub(crate) fn has_flag(&self, slot: usize, bit: u32) -> bool {
        self.flags[slot] & bit != 0
    }

    /// Sets or clears a packed per-entry flag.
    #[inline]
    pub(crate) fn assign_flag(&mut self, slot: usize, bit: u32, on: bool) {
        if on {
            self.flags[slot] |= bit;
        } else {
            self.flags[slot] &= !bit;
        }
    }

    /// Checks the buffer's structural invariants — the live window holds
    /// only valid slots in strictly increasing age order, every slot
    /// outside it is vacant — and that each derived mask agrees with the
    /// column it mirrors. Returns a description of the first violation.
    /// Used by the simulator's opt-in paranoia mode and by tests.
    pub fn check_consistency(&self) -> Result<(), String> {
        if self.len > self.cap {
            return Err(format!("ROB len {} exceeds capacity {}", self.len, self.cap));
        }
        let mut prev: Option<u64> = None;
        for slot in self.slots_in_order() {
            if !self.valid.test(slot) {
                return Err(format!("ROB slot {slot} inside the live window is empty"));
            }
            let seq = self.seq[slot];
            if let Some(p) = prev {
                if seq <= p {
                    return Err(format!("ROB out of age order: seq {seq} follows seq {p}"));
                }
            }
            prev = Some(seq);
        }
        for slot in 0..self.cap {
            let offset = (slot + self.cap - self.head) % self.cap;
            if offset >= self.len && self.valid.test(slot) {
                return Err(format!("ROB slot {slot} outside the live window is occupied"));
            }
        }
        // Mask/column cross-validation: each incrementally-maintained
        // mask must equal the predicate it mirrors.
        for slot in self.slots_in_order() {
            let class = self.inst[slot].op.class();
            let checks: [(&str, bool, bool); 7] = [
                ("exec", self.exec.test(slot), self.exec_finish[slot] != NO_CYCLE),
                ("nonspec", self.nonspec.test(slot), self.nonspec_cycle[slot] != NO_CYCLE),
                (
                    "settled",
                    self.settled.test(slot),
                    self.exec_count[slot] > 0 && self.has_flag(slot, flag::LAST_CORRECT),
                ),
                (
                    "ctrl_unres",
                    self.ctrl_unres.test(slot),
                    self.has_flag(slot, flag::HAS_CTRL) && !self.ctrl[slot].resolved,
                ),
                ("loads", self.loads.test(slot), class == OpClass::Load),
                ("stores", self.stores.test(slot), class == OpClass::Store),
                (
                    "execable",
                    self.execable.test(slot),
                    !matches!(class, OpClass::Misc | OpClass::Jump),
                ),
            ];
            for (name, mask, col) in checks {
                if mask != col {
                    return Err(format!(
                        "mask `{name}` disagrees with its column at slot {slot} \
                         (seq {}): mask {mask}, column {col}",
                        self.seq[slot]
                    ));
                }
            }
            if self.accessed.test(slot)
                != (self.has_flag(slot, flag::HAS_MEM) && self.mem[slot].access_finish.is_some())
            {
                return Err(format!(
                    "mask `accessed` disagrees with mem state at slot {slot} (seq {})",
                    self.seq[slot]
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpir_isa::Inst;

    fn push(rob: &mut Rob, seq: u64) -> usize {
        let slot = rob.begin_push(
            seq,
            0x1000 + seq * 4,
            Inst::NOP,
            0,
            ExecOut::default(),
            [None, None],
            [None, None],
        );
        rob.commit_push(slot);
        slot
    }

    #[test]
    fn fifo_order() {
        let mut rob = Rob::new(4);
        let a = push(&mut rob, 1);
        let b = push(&mut rob, 2);
        assert_ne!(a, b);
        assert_eq!(rob.head_seq(), Some(1));
        rob.free_head();
        assert_eq!(rob.head_seq(), Some(2));
        rob.free_head();
        assert_eq!(rob.head_seq(), None);
    }

    #[test]
    fn wraps_around() {
        let mut rob = Rob::new(3);
        for seq in 1..=3 {
            push(&mut rob, seq);
        }
        assert!(rob.is_full());
        rob.free_head();
        let idx = push(&mut rob, 4);
        assert_eq!(idx, 0, "reuses the freed slot");
        let seqs: Vec<u64> = rob.slots_in_order().map(|s| rob.seq[s]).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert!(rob.check_consistency().is_ok());
    }

    #[test]
    fn squash_drops_younger_only() {
        let mut rob = Rob::new(8);
        for seq in 1..=6 {
            push(&mut rob, seq);
        }
        let k = rob.count_younger(3);
        assert_eq!(k, 3);
        let victims: Vec<u64> = (rob.len() - k..rob.len())
            .map(|i| rob.seq[rob.slot_of_age(i)])
            .collect();
        assert_eq!(victims, vec![4, 5, 6]);
        rob.truncate_tail(k);
        assert_eq!(rob.len(), 3);
        // New entries can be pushed after the squash.
        push(&mut rob, 7);
        let seqs: Vec<u64> = rob.slots_in_order().map(|s| rob.seq[s]).collect();
        assert_eq!(seqs, vec![1, 2, 3, 7]);
        assert!(rob.check_consistency().is_ok());
    }

    #[test]
    fn squash_everything() {
        let mut rob = Rob::new(4);
        push(&mut rob, 5);
        push(&mut rob, 6);
        let k = rob.count_younger(0);
        assert_eq!(k, 2);
        rob.truncate_tail(k);
        assert!(rob.is_empty());
    }

    #[test]
    fn visible_value_timing() {
        let mut rob = Rob::new(2);
        let s = push(&mut rob, 1);
        rob.set_visible(s, 42, 10);
        assert_eq!(rob.value_visible(s, 9), None);
        assert_eq!(rob.value_visible(s, 10), Some(42));
        assert!(!rob.nonspec_at(s, 100));
        rob.set_nonspec(s, 12);
        assert!(!rob.nonspec_at(s, 11));
        assert!(rob.nonspec_at(s, 12));
    }

    #[test]
    fn consistency_flags_mask_column_disagreement() {
        let mut rob = Rob::new(3);
        for seq in 1..=3 {
            push(&mut rob, seq);
        }
        rob.free_head();
        push(&mut rob, 4); // wrapped
        assert!(rob.check_consistency().is_ok());

        // Corrupt the age order.
        let tail = rob.slots_in_order().last().unwrap();
        rob.seq[tail] = 1;
        let err = rob.check_consistency().unwrap_err();
        assert!(err.contains("out of age order"), "{err}");
        rob.seq[tail] = 4;

        // Desynchronize a mask from its column.
        rob.nonspec_cycle[tail] = 17;
        let err = rob.check_consistency().unwrap_err();
        assert!(err.contains("nonspec"), "{err}");
        rob.nonspec.set(tail);
        assert!(rob.check_consistency().is_ok());
    }

    #[test]
    fn masked_iteration_is_age_ordered_across_wrap() {
        let mut rob = Rob::new(4);
        for seq in 1..=4 {
            push(&mut rob, seq);
        }
        rob.free_head();
        rob.free_head();
        push(&mut rob, 5);
        push(&mut rob, 6); // window wraps: slots 2,3,0,1 hold 3,4,5,6
        let mut seen = Vec::new();
        rob.for_each_masked(
            |r, w| r.valid.words[w],
            |slot| {
                seen.push(rob.seq[slot]);
                true
            },
        );
        assert_eq!(seen, vec![3, 4, 5, 6]);
        // Early exit stops mid-iteration.
        let mut first = None;
        rob.for_each_masked(
            |r, w| r.valid.words[w],
            |slot| {
                first = Some(rob.seq[slot]);
                false
            },
        );
        assert_eq!(first, Some(3));
    }

    #[test]
    fn mem_ops_counted_by_masks() {
        let mut rob = Rob::new(4);
        let s = push(&mut rob, 1);
        assert_eq!(rob.mem_ops_in_flight(), 0);
        rob.loads.set(s);
        assert_eq!(rob.mem_ops_in_flight(), 1);
        rob.free_head();
        assert_eq!(rob.mem_ops_in_flight(), 0, "freed slots leave the count");
    }

    #[test]
    #[should_panic(expected = "ROB overflow")]
    fn overflow_panics() {
        let mut rob = Rob::new(1);
        push(&mut rob, 1);
        push(&mut rob, 2);
    }
}
