//! The reuse buffer proper.

use vpir_isa::{MemWidth, Op, OpClass, Reg, NUM_REGS};
use vpir_mem::SetAssoc;

use crate::slotset::SlotSet;

/// Which reuse-test scheme the buffer applies (see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReuseScheme {
    /// Operand names + valid bit (`S_n`).
    Sn,
    /// Names + dependence chains (`S_{n+d}`).
    SnD,
    /// `S_{n+d}` augmented with stored operand values and re-validation —
    /// the scheme evaluated in the paper.
    #[default]
    SnDValues,
}

/// Geometry and scheme of a [`ReuseBuffer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RbConfig {
    /// Total entries (ways × sets).
    pub entries: usize,
    /// Ways per set — also the maximum instances buffered per instruction.
    pub assoc: usize,
    /// The reuse-test scheme.
    pub scheme: ReuseScheme,
}

impl RbConfig {
    /// The paper's configuration: 4K entries, 4-way, augmented `S_{n+d}`.
    pub fn table1() -> RbConfig {
        RbConfig {
            entries: 4 * 1024,
            assoc: 4,
            scheme: ReuseScheme::SnDValues,
        }
    }
}

/// A generation-tagged reference to an RB entry.
///
/// Dependence pointers may outlive the entry they point to (the entry can
/// be evicted and its slot reallocated); the generation detects this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EntryRef {
    slot: u32,
    gen: u32,
}

/// What the pipeline knows about one source operand at reuse-test time.
///
/// * `committed` — the operand's architected value, present only when no
///   in-flight instruction will still write the register (required by the
///   name-based schemes, whose valid bits only track architected writes).
/// * `known` — the operand's value if it is known *now*, whether
///   architected or produced by a completed, non-value-speculative (or
///   reused) in-flight instruction. Used by the value-based scheme.
/// * `producer_pc` — the PC of the in-flight producer, if any (used to
///   verify dependence-chain reuse).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OperandView {
    /// Architected value when no in-flight writer exists.
    pub committed: Option<u64>,
    /// Value if known right now (superset of `committed`).
    pub known: Option<u64>,
    /// PC of the current in-flight producer.
    pub producer_pc: Option<u64>,
}

impl OperandView {
    /// An operand whose architected value is `v` and has no in-flight
    /// producer.
    pub fn settled(v: u64) -> OperandView {
        OperandView {
            committed: Some(v),
            known: Some(v),
            producer_pc: None,
        }
    }

    /// An operand produced by an in-flight instruction at `pc` whose
    /// value is not known yet.
    pub fn in_flight(pc: u64) -> OperandView {
        OperandView {
            committed: None,
            known: None,
            producer_pc: Some(pc),
        }
    }

    /// An operand produced by an in-flight instruction at `pc` whose
    /// value `v` is already known (completed or reused, non-speculative).
    pub fn in_flight_known(pc: u64, v: u64) -> OperandView {
        OperandView {
            committed: None,
            known: Some(v),
            producer_pc: Some(pc),
        }
    }
}

/// Memory half of an [`RbInsert`] for loads and stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RbMem {
    /// Effective address.
    pub addr: u64,
    /// Access width.
    pub width: MemWidth,
}

/// Everything recorded about one completed execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct RbInsert {
    /// Instruction address (the RB index).
    pub pc: u64,
    /// Operation (stored to guard against PC aliasing across runs).
    pub op: Op,
    /// Source operands: register name and the value used.
    pub srcs: [Option<(Reg, u64)>; 2],
    /// RB entries of the instructions that produced the operands.
    pub src_entries: [Option<EntryRef>; 2],
    /// PCs of the producing instructions (for chain verification).
    pub src_pcs: [Option<u64>; 2],
    /// The produced result (register value, branch outcome as 0/1, or
    /// jump target).
    pub result: Option<u64>,
    /// Memory access, for loads and stores.
    pub mem: Option<RbMem>,
}

/// A successful reuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reused {
    /// The entry that passed the reuse test.
    pub entry: EntryRef,
    /// The reused result (register value / branch outcome / target).
    pub result: Option<u64>,
    /// The reused effective address, for memory operations.
    pub addr: Option<u64>,
    /// `true` if the full result was reused; `false` if only the address
    /// computation was (a load whose memory-valid bit was cleared, or a
    /// store).
    pub full: bool,
}

/// Event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// New entries written.
    pub inserts: u64,
    /// Existing entries refreshed in place.
    pub updates: u64,
    /// Entries evicted for capacity.
    pub evictions: u64,
    /// Entries invalidated by a register overwrite.
    pub reg_invalidations: u64,
    /// Entries whose operand value became current again.
    pub revalidations: u64,
    /// Load entries whose memory-valid bit a store cleared.
    pub mem_invalidations: u64,
    /// Successful full reuses.
    pub full_reuses: u64,
    /// Successful address-only reuses.
    pub addr_reuses: u64,
    /// Reuse tests that failed.
    pub misses: u64,
}

#[derive(Debug, Clone, Default)]
struct RbEntry {
    /// Bumped each time the way takes a new instance, so an [`EntryRef`]
    /// to an evicted one no longer matches.
    gen: u32,
    pc: u64,
    op: Op,
    srcs: [Option<(Reg, u64)>; 2],
    src_entries: [Option<EntryRef>; 2],
    src_pcs: [Option<u64>; 2],
    result: Option<u64>,
    mem: Option<RbMem>,
    /// Per-operand name-validity (the operand register has not been
    /// overwritten with a different value since capture).
    valid: [bool; 2],
    /// For loads: no store has written the loaded bytes since capture.
    mem_valid: bool,
    /// User flag: set for entries written by squashed (wrong-path)
    /// instructions, consumed when a later reuse recovers that work.
    flagged: bool,
}

/// Memory-invalidation index granularity (bytes per block).
const BLOCK_SHIFT: u64 = 3;

/// Buckets in the store-invalidation index. Distinct blocks may share a
/// bucket; that is sound because [`ReuseBuffer::on_store`] re-checks the
/// exact byte-range overlap for every candidate entry, and any entry
/// genuinely overlapping a store shares at least one block (and hence
/// one visited bucket) with it. 256 buckets cover 2 KiB of address
/// space before aliasing, far beyond any single access.
const MEM_BUCKETS: usize = 256;

fn blocks(addr: u64, width: MemWidth) -> impl Iterator<Item = u64> {
    let first = addr >> BLOCK_SHIFT;
    let last = (addr + width.bytes() - 1) >> BLOCK_SHIFT;
    first..=last
}

fn mem_bucket(block: u64) -> usize {
    (block as usize) & (MEM_BUCKETS - 1)
}

/// The reuse buffer: a set-associative, LRU table of previous executions
/// with indexed invalidation on register writes and stores.
///
/// The entries live in one [`SetAssoc`] indexed by `pc >> 2`, whose slot
/// numbers the invalidation indexes hold. Both inverted indexes are
/// fixed-size `SlotSet` bitmaps, sized at construction: maintaining and
/// walking them allocates nothing, and iteration is in ascending slot
/// order, preserving the deterministic behaviour of the `BTreeSet`
/// indexes they replaced.
#[derive(Debug, Clone)]
pub struct ReuseBuffer {
    config: RbConfig,
    entries: SetAssoc<RbEntry>,
    /// Register → slots whose entries name that register as an operand.
    reg_index: Vec<SlotSet>,
    /// Block bucket → slots of load entries covering a block in that
    /// bucket (see [`MEM_BUCKETS`] for the aliasing argument).
    mem_index: Vec<SlotSet>,
    stats: ReuseStats,
}

impl ReuseBuffer {
    /// Creates an empty buffer.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power-of-two multiple of a positive
    /// `assoc`.
    pub fn new(config: RbConfig) -> ReuseBuffer {
        ReuseBuffer {
            config,
            entries: SetAssoc::new(config.entries, config.assoc),
            reg_index: vec![SlotSet::new(config.entries); NUM_REGS],
            mem_index: vec![SlotSet::new(config.entries); MEM_BUCKETS],
            stats: ReuseStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> ReuseStats {
        self.stats
    }

    /// Runs the reuse test for the instruction at `pc`.
    ///
    /// `operands` resolves each source register to what the pipeline
    /// knows about it right now; `reused_now` lists entries already
    /// reused for *older* instructions in the same decode group, enabling
    /// same-cycle dependence-chain reuse. All buffered instances are
    /// tested (in parallel, in hardware); full reuse is preferred over
    /// address-only reuse.
    pub fn lookup<F>(&mut self, pc: u64, op: Op, operands: &F, reused_now: &[EntryRef]) -> Option<Reused>
    where
        F: Fn(Reg) -> OperandView,
    {
        self.entries.tick();
        let mut best: Option<(usize, Reused)> = None;
        for (idx, entry) in self.entries.occupied(pc >> 2) {
            if entry.pc != pc || entry.op != op {
                continue;
            }
            let eref = EntryRef {
                slot: idx as u32,
                gen: entry.gen,
            };
            if !self.operands_pass(entry, operands, reused_now) {
                continue;
            }
            let is_load = op.class() == OpClass::Load;
            let is_store = op.class() == OpClass::Store;
            let full = !is_store && (!is_load || entry.mem_valid);
            let candidate = Reused {
                entry: eref,
                result: if full { entry.result } else { None },
                addr: entry.mem.map(|m| m.addr),
                full,
            };
            // A memory op with a dead memory-valid bit still offers its
            // address; prefer any full-reuse instance over address-only.
            match &best {
                Some((_, b)) if b.full || !candidate.full => {}
                _ => best = Some((idx, candidate)),
            }
            if candidate.full {
                best = Some((idx, candidate));
                break;
            }
        }
        match best {
            Some((idx, reused)) => {
                self.entries.touch(idx);
                if reused.full {
                    self.stats.full_reuses += 1;
                } else {
                    self.stats.addr_reuses += 1;
                }
                Some(reused)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn operands_pass<F>(&self, entry: &RbEntry, operands: &F, reused_now: &[EntryRef]) -> bool
    where
        F: Fn(Reg) -> OperandView,
    {
        for i in 0..2 {
            let Some((reg, stored)) = entry.srcs[i] else {
                continue;
            };
            let view = operands(reg);
            let ok = match self.config.scheme {
                // Value-augmented test: the operand's current value must
                // be known and equal to the stored one. Same-cycle chains
                // work because the pipeline exposes just-reused producer
                // results through `known`.
                ReuseScheme::SnDValues => view.known == Some(stored),
                // Name-based test: the register must be architecturally
                // settled and never overwritten since capture.
                ReuseScheme::Sn => view.committed.is_some() && entry.valid[i],
                // Names + chains: like Sn for start operands; a linked
                // operand passes if its producer entry was just reused
                // and is still the instruction feeding this register.
                ReuseScheme::SnD => {
                    let start_ok = view.committed.is_some() && entry.valid[i];
                    let chain_ok = match (entry.src_entries[i], entry.src_pcs[i]) {
                        (Some(ptr), Some(src_pc)) => {
                            reused_now.contains(&ptr) && view.producer_pc == Some(src_pc)
                        }
                        _ => false,
                    };
                    start_ok || chain_ok
                }
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Records a completed execution, updating an existing instance with
    /// the same operand values in place or allocating a new way (LRU).
    ///
    /// Returns a reference the pipeline can hand to dependents as their
    /// dependence pointer.
    pub fn insert(&mut self, rec: RbInsert) -> EntryRef {
        self.entries.tick();

        // Same pc + same operand values: refresh in place.
        let existing = self.entries.find(rec.pc >> 2, |e| {
            e.pc == rec.pc && e.op == rec.op && e.srcs == rec.srcs
        });
        let idx = match existing {
            Some(idx) => {
                self.stats.updates += 1;
                idx
            }
            None => {
                let idx = self.entries.victim(rec.pc >> 2);
                if self.entries.get(idx).is_some() {
                    self.stats.evictions += 1;
                }
                self.stats.inserts += 1;
                idx
            }
        };
        self.unindex(idx);

        let is_load = rec.op.class() == OpClass::Load;
        let entry = self.entries.touch(idx);
        let gen = match existing {
            Some(_) => entry.gen,
            None => entry.gen.wrapping_add(1),
        };
        *entry = RbEntry {
            gen,
            pc: rec.pc,
            op: rec.op,
            srcs: rec.srcs,
            src_entries: rec.src_entries,
            src_pcs: rec.src_pcs,
            result: rec.result,
            mem: rec.mem,
            valid: [true; 2],
            mem_valid: is_load,
            flagged: false,
        };

        // Maintain the inverted indices.
        for (reg, _) in rec.srcs.iter().flatten() {
            self.reg_index[reg.index()].insert(idx as u32);
        }
        if is_load {
            if let Some(m) = rec.mem {
                for b in blocks(m.addr, m.width) {
                    self.mem_index[mem_bucket(b)].insert(idx as u32);
                }
            }
        }
        EntryRef {
            slot: idx as u32,
            gen,
        }
    }

    /// Drops slot `idx`'s entry, if any, from the inverted indices.
    fn unindex(&mut self, idx: usize) {
        let ReuseBuffer {
            entries,
            reg_index,
            mem_index,
            ..
        } = self;
        let Some(e) = entries.get(idx) else {
            return;
        };
        for (reg, _) in e.srcs.iter().flatten() {
            reg_index[reg.index()].remove(idx as u32);
        }
        if let Some(m) = e.mem {
            if e.op.class() == OpClass::Load {
                for b in blocks(m.addr, m.width) {
                    mem_index[mem_bucket(b)].remove(idx as u32);
                }
            }
        }
    }

    /// Notifies the buffer that architected register `reg` now holds
    /// `new_value` (called at commit; the paper's RB supports four such
    /// invalidation ports per cycle).
    ///
    /// Under [`ReuseScheme::SnDValues`] an entry naming `reg` is
    /// invalidated only if its stored operand value differs, and is
    /// *re-validated* if the value matches again; under the name-based
    /// schemes any overwrite invalidates.
    pub fn on_reg_write(&mut self, reg: Reg, new_value: u64) {
        if reg.is_zero() {
            return;
        }
        // Split borrows: the index is read while entries and stats are
        // mutated, so no intermediate Vec of slot numbers is needed. The
        // invalidation below never changes index membership (only the
        // per-operand valid bits), so iterating the live index is safe.
        let ReuseBuffer {
            config,
            entries,
            reg_index,
            stats,
            ..
        } = self;
        for s in reg_index[reg.index()].iter() {
            let Some(entry) = entries.get_mut(s as usize) else {
                continue;
            };
            for i in 0..2 {
                let Some((r, stored)) = entry.srcs[i] else {
                    continue;
                };
                if r != reg {
                    continue;
                }
                match config.scheme {
                    ReuseScheme::SnDValues => {
                        if stored == new_value {
                            if !entry.valid[i] {
                                stats.revalidations += 1;
                            }
                            entry.valid[i] = true;
                        } else {
                            if entry.valid[i] {
                                stats.reg_invalidations += 1;
                            }
                            entry.valid[i] = false;
                        }
                    }
                    ReuseScheme::Sn | ReuseScheme::SnD => {
                        if entry.valid[i] {
                            stats.reg_invalidations += 1;
                        }
                        entry.valid[i] = false;
                    }
                }
            }
        }
    }

    /// Notifies the buffer that a store wrote `width` bytes at `addr`
    /// (called at commit): overlapping load entries lose their
    /// memory-valid bit and can thereafter offer only address reuse.
    pub fn on_store(&mut self, addr: u64, width: MemWidth) {
        let start = addr;
        let end = addr + width.bytes();
        // Split borrows, as in `on_reg_write`. Bucket aliasing may offer
        // non-overlapping candidate entries; the exact byte-range check
        // rejects them, and the `mem_valid` guard keeps the invalidation
        // (and its count) idempotent when a multi-block store visits the
        // same entry through two buckets.
        let ReuseBuffer {
            entries,
            mem_index,
            stats,
            ..
        } = self;
        for b in blocks(addr, width) {
            for s in mem_index[mem_bucket(b)].iter() {
                let Some(entry) = entries.get_mut(s as usize) else {
                    continue;
                };
                let Some(m) = entry.mem else { continue };
                let (es, ee) = (m.addr, m.addr + m.width.bytes());
                if es < end && start < ee && entry.mem_valid {
                    entry.mem_valid = false;
                    stats.mem_invalidations += 1;
                }
            }
        }
    }

    /// The entry `entry` refers to, unless it was evicted since.
    fn live_mut(&mut self, entry: EntryRef) -> Option<&mut RbEntry> {
        self.entries
            .get_mut(entry.slot as usize)
            .filter(|e| e.gen == entry.gen)
    }

    /// Flags a live entry as wrong-path work (Table 5 bookkeeping).
    pub fn flag(&mut self, entry: EntryRef) {
        if let Some(e) = self.live_mut(entry) {
            e.flagged = true;
        }
    }

    /// Returns and clears the wrong-path flag of a live entry.
    pub fn take_flag(&mut self, entry: EntryRef) -> bool {
        self.live_mut(entry)
            .is_some_and(|e| std::mem::take(&mut e.flagged))
    }

    /// Whether `entry` still refers to a live (non-reallocated) entry.
    pub fn is_live(&self, entry: EntryRef) -> bool {
        self.entries
            .get(entry.slot as usize)
            .is_some_and(|e| e.gen == entry.gen)
    }

    /// Number of live instances buffered for `pc`.
    pub fn instances(&self, pc: u64) -> usize {
        self.entries
            .occupied(pc >> 2)
            .filter(|(_, e)| e.pc == pc)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rb(scheme: ReuseScheme) -> ReuseBuffer {
        ReuseBuffer::new(RbConfig {
            entries: 32,
            assoc: 4,
            scheme,
        })
    }

    fn add_insert(pc: u64, a: u64, b: u64) -> RbInsert {
        RbInsert {
            pc,
            op: Op::Add,
            srcs: [Some((Reg::int(2), a)), Some((Reg::int(3), b))],
            result: Some(a.wrapping_add(b)),
            ..RbInsert::default()
        }
    }

    fn settled(vals: [(Reg, u64); 2]) -> impl Fn(Reg) -> OperandView {
        move |r| {
            vals.iter()
                .find(|(vr, _)| *vr == r)
                .map(|(_, v)| OperandView::settled(*v))
                .unwrap_or_default()
        }
    }

    #[test]
    fn value_scheme_reuses_on_matching_operands() {
        let mut b = rb(ReuseScheme::SnDValues);
        b.insert(add_insert(0x100, 4, 5));
        let hit = b.lookup(
            0x100,
            Op::Add,
            &settled([(Reg::int(2), 4), (Reg::int(3), 5)]),
            &[],
        );
        assert_eq!(hit.unwrap().result, Some(9));
        let miss = b.lookup(
            0x100,
            Op::Add,
            &settled([(Reg::int(2), 4), (Reg::int(3), 6)]),
            &[],
        );
        assert!(miss.is_none());
    }

    #[test]
    fn value_scheme_requires_known_operands() {
        let mut b = rb(ReuseScheme::SnDValues);
        b.insert(add_insert(0x100, 4, 5));
        // r3's producer is in flight with unknown value: not reusable.
        let view = |r: Reg| {
            if r == Reg::int(2) {
                OperandView::settled(4)
            } else {
                OperandView::in_flight(0x50)
            }
        };
        assert!(b.lookup(0x100, Op::Add, &view, &[]).is_none());
        // Once the in-flight value is known and matches, it is reusable.
        let view = |r: Reg| {
            if r == Reg::int(2) {
                OperandView::settled(4)
            } else {
                OperandView::in_flight_known(0x50, 5)
            }
        };
        assert!(b.lookup(0x100, Op::Add, &view, &[]).is_some());
    }

    #[test]
    fn multiple_instances_select_matching_one() {
        let mut b = rb(ReuseScheme::SnDValues);
        b.insert(add_insert(0x100, 1, 1));
        b.insert(add_insert(0x100, 2, 2));
        b.insert(add_insert(0x100, 3, 3));
        assert_eq!(b.instances(0x100), 3);
        let hit = b.lookup(
            0x100,
            Op::Add,
            &settled([(Reg::int(2), 2), (Reg::int(3), 2)]),
            &[],
        );
        assert_eq!(hit.unwrap().result, Some(4));
    }

    #[test]
    fn same_operands_update_in_place() {
        let mut b = rb(ReuseScheme::SnDValues);
        b.insert(add_insert(0x100, 1, 1));
        b.insert(add_insert(0x100, 1, 1));
        assert_eq!(b.instances(0x100), 1);
        assert_eq!(b.stats().updates, 1);
        assert_eq!(b.stats().inserts, 1);
    }

    #[test]
    fn name_scheme_invalidated_by_any_overwrite() {
        let mut b = rb(ReuseScheme::Sn);
        b.insert(add_insert(0x100, 4, 5));
        let view = settled([(Reg::int(2), 4), (Reg::int(3), 5)]);
        assert!(b.lookup(0x100, Op::Add, &view, &[]).is_some());
        b.on_reg_write(Reg::int(2), 4); // same value — Sn still invalidates
        assert!(b.lookup(0x100, Op::Add, &view, &[]).is_none());
    }

    #[test]
    fn value_scheme_revalidates_on_matching_write() {
        let mut b = rb(ReuseScheme::SnDValues);
        b.insert(add_insert(0x100, 4, 5));
        b.on_reg_write(Reg::int(2), 9); // differs: invalid
        assert_eq!(b.stats().reg_invalidations, 1);
        b.on_reg_write(Reg::int(2), 4); // matches again: revalidated
        assert_eq!(b.stats().revalidations, 1);
        // (The value scheme's lookup compares live values anyway.)
        let view = settled([(Reg::int(2), 4), (Reg::int(3), 5)]);
        assert!(b.lookup(0x100, Op::Add, &view, &[]).is_some());
    }

    #[test]
    fn chain_reuse_in_snd() {
        let mut b = rb(ReuseScheme::SnD);
        // Producer at 0x100 writes r4; consumer at 0x104 reads r4.
        let prod = b.insert(RbInsert {
            pc: 0x100,
            op: Op::Add,
            srcs: [Some((Reg::int(2), 1)), Some((Reg::int(3), 2))],
            result: Some(3),
            ..RbInsert::default()
        });
        b.insert(RbInsert {
            pc: 0x104,
            op: Op::Add,
            srcs: [Some((Reg::int(4), 3)), None],
            src_entries: [Some(prod), None],
            src_pcs: [Some(0x100), None],
            result: Some(6),
            ..RbInsert::default()
        });
        // r4 is being produced (in flight) by 0x100, which was just reused.
        let view = |r: Reg| {
            if r == Reg::int(4) {
                OperandView::in_flight(0x100)
            } else {
                OperandView::settled(0)
            }
        };
        let hit = b.lookup(0x104, Op::Add, &view, &[prod]);
        assert_eq!(hit.unwrap().result, Some(6));
        // Without the producer in `reused_now`, the chain fails.
        assert!(b.lookup(0x104, Op::Add, &view, &[]).is_none());
        // A different in-flight producer PC also fails.
        let other = |r: Reg| {
            if r == Reg::int(4) {
                OperandView::in_flight(0x999)
            } else {
                OperandView::settled(0)
            }
        };
        assert!(b.lookup(0x104, Op::Add, &other, &[prod]).is_none());
    }

    #[test]
    fn load_entry_mem_invalidation_downgrades_to_address_reuse() {
        let mut b = rb(ReuseScheme::SnDValues);
        b.insert(RbInsert {
            pc: 0x200,
            op: Op::Lw,
            srcs: [Some((Reg::int(5), 0x1000)), None],
            result: Some(77),
            mem: Some(RbMem {
                addr: 0x1010,
                width: MemWidth::B4,
            }),
            ..RbInsert::default()
        });
        let view = settled([(Reg::int(5), 0x1000), (Reg::int(5), 0x1000)]);
        let hit = b.lookup(0x200, Op::Lw, &view, &[]).unwrap();
        assert!(hit.full);
        assert_eq!(hit.result, Some(77));

        b.on_store(0x1012, MemWidth::B1); // overlaps the loaded word
        let hit = b.lookup(0x200, Op::Lw, &view, &[]).unwrap();
        assert!(!hit.full, "only the address survives");
        assert_eq!(hit.result, None);
        assert_eq!(hit.addr, Some(0x1010));
        assert_eq!(b.stats().mem_invalidations, 1);
    }

    #[test]
    fn disjoint_store_leaves_load_valid() {
        let mut b = rb(ReuseScheme::SnDValues);
        b.insert(RbInsert {
            pc: 0x200,
            op: Op::Lw,
            srcs: [Some((Reg::int(5), 0x1000)), None],
            result: Some(77),
            mem: Some(RbMem {
                addr: 0x1010,
                width: MemWidth::B4,
            }),
            ..RbInsert::default()
        });
        b.on_store(0x1014, MemWidth::B4); // adjacent, same 8B block, no overlap
        b.on_store(0x2000, MemWidth::B8); // far away
        let view = settled([(Reg::int(5), 0x1000), (Reg::int(5), 0x1000)]);
        assert!(b.lookup(0x200, Op::Lw, &view, &[]).unwrap().full);
    }

    #[test]
    fn store_entries_offer_address_only() {
        let mut b = rb(ReuseScheme::SnDValues);
        b.insert(RbInsert {
            pc: 0x300,
            op: Op::Sw,
            srcs: [Some((Reg::int(6), 0x2000)), Some((Reg::int(7), 42))],
            mem: Some(RbMem {
                addr: 0x2008,
                width: MemWidth::B4,
            }),
            ..RbInsert::default()
        });
        let view = settled([(Reg::int(6), 0x2000), (Reg::int(7), 42)]);
        let hit = b.lookup(0x300, Op::Sw, &view, &[]).unwrap();
        assert!(!hit.full);
        assert_eq!(hit.addr, Some(0x2008));
    }

    #[test]
    fn eviction_invalidates_entry_refs() {
        let mut b = ReuseBuffer::new(RbConfig {
            entries: 4,
            assoc: 2,
            scheme: ReuseScheme::SnDValues,
        });
        let first = b.insert(add_insert(0x100, 1, 1));
        assert!(b.is_live(first));
        // Two more instances in the same set evict the first (2 ways).
        b.insert(add_insert(0x100, 2, 2));
        b.insert(add_insert(0x100, 3, 3));
        assert!(!b.is_live(first));
        assert_eq!(b.stats().evictions, 1);
    }

    #[test]
    fn op_mismatch_never_reuses() {
        let mut b = rb(ReuseScheme::SnDValues);
        b.insert(add_insert(0x100, 4, 5));
        let view = settled([(Reg::int(2), 4), (Reg::int(3), 5)]);
        assert!(b.lookup(0x100, Op::Sub, &view, &[]).is_none());
    }

    #[test]
    fn wrong_path_flagging() {
        let mut b = rb(ReuseScheme::SnDValues);
        let e = b.insert(add_insert(0x100, 1, 2));
        assert!(!b.take_flag(e));
        b.flag(e);
        assert!(b.take_flag(e), "flag is taken once");
        assert!(!b.take_flag(e), "and then cleared");
        // Refreshing the entry clears any stale flag state.
        b.flag(e);
        b.insert(add_insert(0x100, 1, 2));
        assert!(!b.take_flag(e));
    }

    #[test]
    fn zero_register_writes_ignored() {
        let mut b = rb(ReuseScheme::Sn);
        b.insert(RbInsert {
            pc: 0x100,
            op: Op::Addi,
            srcs: [Some((Reg::ZERO, 0)), None],
            result: Some(7),
            ..RbInsert::default()
        });
        b.on_reg_write(Reg::ZERO, 99);
        let view = |_: Reg| OperandView::settled(0);
        assert!(b.lookup(0x100, Op::Addi, &view, &[]).is_some());
    }
}
