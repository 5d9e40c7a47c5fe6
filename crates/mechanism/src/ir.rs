//! The instruction-reuse mechanism.
//!
//! The reuse buffer: the reuse test at dispatch (over operand views
//! and the dependence-chain `S_{n+d}` input, downgraded to address
//! reuse on a store conflict, behind a non-speculative soundness
//! guard), capture at writeback, and RB maintenance at commit and on
//! squashes. The pipeline applies early or late validation to the
//! hit. The golden-digest suite pins this behaviour.

use vpir_isa::{MemWidth, OpClass, Reg};
use vpir_reuse::{EntryRef, OperandView, RbInsert, ReuseBuffer, ReuseStats, Reused};

use crate::config::IrConfig;
use crate::{CommitEvent, DispatchQuery};

/// Instruction reuse: the reuse buffer. The pipeline applies the
/// validation policy to what the reuse test finds.
#[derive(Debug, Clone)]
pub struct IrMech {
    rb: ReuseBuffer,
}

impl IrMech {
    /// Builds the reuse buffer described by `ir`.
    pub fn new(ir: &IrConfig) -> IrMech {
        IrMech { rb: ReuseBuffer::new(ir.rb) }
    }

    /// The reuse test for one dispatching instruction. `q` must carry
    /// the operand views, dependence chain and store-conflict scan.
    /// Returns the buffer's hit: the backing entry, and whether the
    /// full result (`full`) or only the address (`addr`) is reusable;
    /// neither is a tag-only hit.
    pub fn on_dispatch(&mut self, q: &DispatchQuery) -> Option<Reused> {
        let op = q.inst.op;
        if matches!(op.class(), OpClass::Misc | OpClass::Jump) {
            return None;
        }
        let views = q.views;
        let lookup_view = move |r: Reg| {
            for (reg, v) in views.iter() {
                if *reg == Some(r) {
                    return *v;
                }
            }
            OperandView::default()
        };
        let [c0, c1] = q.chain;
        let backing;
        let reused_now: &[EntryRef] = match (c0, c1) {
            (Some(a), Some(b)) => {
                backing = [a, b];
                &backing
            }
            (Some(a), None) | (None, Some(a)) => {
                backing = [a, a];
                &backing[..1]
            }
            (None, None) => &[],
        };

        let mut hit = self.rb.lookup(q.pc, op, &lookup_view, reused_now)?;

        // A reused load must still snoop older in-flight stores: if one
        // overlaps its address, the buffered value may be stale relative
        // to this path — only the address computation is reusable. The
        // core performed the scan ([`DispatchQuery::store_conflict`]).
        if hit.full && op.class() == OpClass::Load && q.store_conflict {
            hit.full = false;
            hit.result = None;
        }

        // Guard: the reuse test is non-speculative, so a hit must agree
        // with the architectural truth for this dynamic instance.
        let sound = match op.class() {
            OpClass::Branch => hit.result == q.out.control.map(|c| c.taken as u64),
            OpClass::JumpReg => hit.result == q.out.control.map(|c| c.target),
            OpClass::Load | OpClass::Store => {
                (!hit.full || hit.result == q.out.result)
                    && (hit.addr.is_none() || hit.addr == q.out.addr)
            }
            _ => !hit.full || hit.result == q.out.result,
        };
        debug_assert!(sound, "reuse test returned a wrong result for {:?}", q.inst);
        sound.then_some(hit)
    }

    /// Captures one instruction that finished executing with correct
    /// inputs. Returns its RB entry, which the core keeps in the ROB and
    /// hands back in [`on_squash_victim`](IrMech::on_squash_victim) and
    /// [`CommitEvent::reuse_source`].
    pub fn on_executed(&mut self, rec: &RbInsert) -> EntryRef {
        self.rb.insert(*rec)
    }

    /// RB maintenance for one committing instruction. Returns true when
    /// its reuse was backed by an entry inserted on a since-squashed
    /// path, i.e. the reuse recovered squashed work.
    pub fn on_commit(&mut self, ev: &CommitEvent) -> bool {
        // Architected register writes invalidate dependent entries.
        if let (Some(dst), Some(v)) = (ev.inst.dst, ev.result) {
            self.rb.on_reg_write(dst, v);
        }
        // Committed stores invalidate overlapping load entries.
        if let Some(mem) = &ev.mem {
            if !mem.is_load {
                if let Some(addr) = ev.addr {
                    self.rb.on_store(addr, mem.width);
                }
            }
        }
        // Squash-recovery accounting: a committing reuse backed by an
        // entry inserted on a squashed path recovered wrong-path work.
        (ev.reused || ev.addr_reused) && ev.reuse_source.is_some_and(|e| self.rb.take_flag(e))
    }

    /// One in-flight instruction is being squashed. `rb_entry` is the
    /// entry it inserted at writeback, if any — a wrong-path capture
    /// flagged for squash-recovery accounting. `store` is `(address,
    /// width)` when the victim was a store with a computed address.
    pub fn on_squash_victim(&mut self, rb_entry: Option<EntryRef>, store: Option<(u64, MemWidth)>) {
        if let Some(entry) = rb_entry {
            self.rb.flag(entry);
        }
        // A squashed store never becomes architectural, but loads on
        // its path may have captured its (forwarded) value into the
        // reuse buffer — invalidate those entries.
        if let Some((addr, width)) = store {
            self.rb.on_store(addr, width);
        }
    }

    /// Post-squash repair: `reg` reads `value` again on the restored
    /// path.
    pub fn on_squash_restore(&mut self, reg: Reg, value: u64) {
        self.rb.on_reg_write(reg, value);
    }

    /// Reuse-buffer statistics.
    pub fn stats(&self) -> ReuseStats {
        self.rb.stats()
    }
}
