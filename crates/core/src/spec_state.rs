//! Speculative architectural state with checkpoint-free rollback.
//!
//! The pipeline executes every instruction *functionally at dispatch*
//! (like SimpleScalar's `sim-outorder`), so it needs a register file and
//! memory image that follow the fetch path — including the wrong path —
//! and can be rolled back to any older point when a branch squashes.
//! Rollback is implemented with undo logs keyed by dynamic sequence
//! number rather than full checkpoints.

use std::collections::VecDeque;

use vpir_isa::{MemImage, MemWidth, Reg, RegFile};

/// One undo record for a register write.
#[derive(Debug, Clone, Copy)]
struct RegUndo {
    seq: u64,
    reg: Reg,
    old: u64,
}

/// One undo record for a store.
#[derive(Debug, Clone, Copy)]
struct MemUndo {
    seq: u64,
    addr: u64,
    width: MemWidth,
    old: u64,
}

/// Speculative registers + memory with sequence-numbered undo logs.
#[derive(Debug, Clone, Default)]
pub struct SpecState {
    regs: RegFile,
    mem: MemImage,
    // Undo records are pushed in dispatch order, so each log is sorted
    // by `seq`: rollback pops from the back, retirement drains from the
    // front — both O(1) per record on a deque (`retain` on a Vec was
    // O(len) per commit).
    reg_log: VecDeque<RegUndo>,
    mem_log: VecDeque<MemUndo>,
}

impl SpecState {
    /// Creates speculative state from initial registers and memory.
    pub fn from_parts(regs: RegFile, mem: MemImage) -> SpecState {
        SpecState {
            regs,
            mem,
            reg_log: VecDeque::new(),
            mem_log: VecDeque::new(),
        }
    }

    /// The current speculative register file.
    pub fn regs(&self) -> &RegFile {
        &self.regs
    }

    /// The current speculative memory.
    pub fn mem(&self) -> &MemImage {
        &self.mem
    }

    /// Writes a register on behalf of the instruction with sequence `seq`.
    pub fn write_reg(&mut self, seq: u64, reg: Reg, value: u64) {
        if reg.is_zero() {
            return;
        }
        self.reg_log.push_back(RegUndo {
            seq,
            reg,
            old: self.regs.read(reg),
        });
        self.regs.write(reg, value);
    }

    /// Performs a store on behalf of the instruction with sequence `seq`.
    pub fn write_mem(&mut self, seq: u64, addr: u64, width: MemWidth, value: u64) {
        self.mem_log.push_back(MemUndo {
            seq,
            addr,
            width,
            old: self.mem.read(addr, width),
        });
        self.mem.write(addr, width, value);
    }

    /// Undoes every write performed by instructions with `seq > keep_seq`.
    pub fn rollback_to(&mut self, keep_seq: u64) {
        while let Some(u) = self.reg_log.back().filter(|u| u.seq > keep_seq) {
            let u = *u;
            self.reg_log.pop_back();
            self.regs.write(u.reg, u.old);
        }
        while let Some(u) = self.mem_log.back().filter(|u| u.seq > keep_seq) {
            let u = *u;
            self.mem_log.pop_back();
            self.mem.write(u.addr, u.width, u.old);
        }
    }

    /// Drops undo records for instructions with `seq <= upto` (they have
    /// committed and can no longer be rolled back). Keeps the logs from
    /// growing without bound.
    pub fn retire_upto(&mut self, upto: u64) {
        while self.reg_log.front().is_some_and(|u| u.seq <= upto) {
            self.reg_log.pop_front();
        }
        while self.mem_log.front().is_some_and(|u| u.seq <= upto) {
            self.mem_log.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_rollback_is_lifo() {
        let mut s = SpecState::default();
        s.write_reg(1, Reg::int(1), 11);
        s.write_reg(2, Reg::int(2), 22);
        s.write_reg(3, Reg::int(1), 33);
        s.rollback_to(2);
        assert_eq!(s.regs().read(Reg::int(1)), 11);
        assert_eq!(s.regs().read(Reg::int(2)), 22);
        s.rollback_to(0);
        assert_eq!(s.regs().read(Reg::int(1)), 0);
        assert_eq!(s.regs().read(Reg::int(2)), 0);
    }

    #[test]
    fn memory_rollback_restores_bytes() {
        let mut s = SpecState::default();
        s.write_mem(1, 0x100, MemWidth::B4, 0xaaaa_aaaa);
        s.write_mem(2, 0x102, MemWidth::B4, 0xbbbb_bbbb); // overlapping
        s.rollback_to(1);
        assert_eq!(s.mem().read_u32(0x100), 0xaaaa_aaaa);
        s.rollback_to(0);
        assert_eq!(s.mem().read_u32(0x100), 0);
    }

    #[test]
    fn zero_register_writes_are_ignored() {
        let mut s = SpecState::default();
        s.write_reg(1, Reg::ZERO, 9);
        assert!(s.reg_log.is_empty());
        assert_eq!(s.regs().read(Reg::ZERO), 0);
    }

    #[test]
    fn retire_trims_log_but_keeps_state() {
        let mut s = SpecState::default();
        s.write_reg(1, Reg::int(1), 5);
        s.write_reg(2, Reg::int(2), 6);
        s.retire_upto(1);
        assert_eq!(s.reg_log.len(), 1);
        assert_eq!(s.regs().read(Reg::int(1)), 5);
        // Rolling back past a retired record no longer undoes it.
        s.rollback_to(0);
        assert_eq!(s.regs().read(Reg::int(1)), 5);
        assert_eq!(s.regs().read(Reg::int(2)), 0);
    }

    #[test]
    fn interleaved_rollbacks() {
        let mut s = SpecState::default();
        for seq in 1..=10u64 {
            s.write_reg(seq, Reg::int(3), seq * 100);
            s.write_mem(seq, 0x200, MemWidth::B8, seq);
        }
        s.rollback_to(7);
        assert_eq!(s.regs().read(Reg::int(3)), 700);
        assert_eq!(s.mem().read_u64(0x200), 7);
        s.rollback_to(3);
        assert_eq!(s.regs().read(Reg::int(3)), 300);
        assert_eq!(s.mem().read_u64(0x200), 3);
    }
}
