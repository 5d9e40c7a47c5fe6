//! Architectural semantics of every operation.
//!
//! [`execute`] is the single source of truth for what an instruction
//! *means*: the functional interpreter, the pipeline's
//! execute-at-dispatch stage, and the redundancy limit study all call it.
//! Every operation is total — division by zero, wild addresses, and NaNs
//! all have defined outcomes — because the pipeline executes wrong-path
//! instructions functionally and must never fault.

use crate::inst::Inst;
use crate::mem_image::LoadSource;
use crate::op::{MemWidth, Op};
use crate::program::INST_BYTES;
use crate::reg::Reg;

/// Outcome of a control-transfer instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlOut {
    /// Whether the transfer is taken (always true for jumps).
    pub taken: bool,
    /// The target address (meaningful when `taken`).
    pub target: u64,
}

/// Everything an instruction's execution produces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecOut {
    /// Value written to the destination register, if any.
    pub result: Option<u64>,
    /// Effective address of a load or store.
    pub addr: Option<u64>,
    /// Value written to memory by a store.
    pub store_val: Option<u64>,
    /// Branch/jump outcome.
    pub control: Option<ControlOut>,
    /// Whether this instruction halts the machine.
    pub halt: bool,
}

impl ExecOut {
    /// The next program counter after executing at `pc`.
    pub fn next_pc(&self, pc: u64) -> u64 {
        match self.control {
            Some(c) if c.taken => c.target,
            _ => pc.wrapping_add(INST_BYTES),
        }
    }
}

/// Width of memory written by a store, with the address, for store logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreAccess {
    /// Effective address.
    pub addr: u64,
    /// Access width.
    pub width: MemWidth,
    /// Value to write (low `width` bytes significant).
    pub value: u64,
}

impl ExecOut {
    /// The store access performed by `inst`, if it is a store.
    pub fn store_access(&self, inst: &Inst) -> Option<StoreAccess> {
        let width = inst.op.mem_width()?;
        match (self.addr, self.store_val) {
            (Some(addr), Some(value)) => Some(StoreAccess { addr, width, value }),
            _ => None,
        }
    }
}

fn sign_extend(v: u64, width: MemWidth) -> u64 {
    match width {
        MemWidth::B1 => v as u8 as i8 as i64 as u64,
        MemWidth::B2 => v as u16 as i16 as i64 as u64,
        MemWidth::B4 => v as u32 as i32 as i64 as u64,
        MemWidth::B8 => v,
    }
}

/// Executes one instruction architecturally.
///
/// `read` supplies current source-register values (the caller decides
/// whether those are architected, speculative, or predicted values —
/// that is exactly how the pipeline models value-speculative execution);
/// `mem` supplies load data. The caller applies the returned register
/// and memory effects.
///
/// # Examples
///
/// ```
/// use vpir_isa::{execute, Inst, MemImage, Op, Reg};
/// let inst = Inst::rri(Op::Addi, Reg::int(1), Reg::ZERO, 41);
/// let out = execute(&inst, 0x1000, |_| 0, &MemImage::new());
/// assert_eq!(out.result, Some(41));
/// assert_eq!(out.next_pc(0x1000), 0x1004);
/// ```
pub fn execute<F, M>(inst: &Inst, pc: u64, read: F, mem: &M) -> ExecOut
where
    F: Fn(Reg) -> u64,
    M: LoadSource + ?Sized,
{
    let s1 = || inst.src1.map(&read).unwrap_or(0);
    let s2 = || inst.src2.map(&read).unwrap_or(0);
    let f1 = || f64::from_bits(s1());
    let f2 = || f64::from_bits(s2());
    let imm = inst.imm;
    let mut out = ExecOut::default();

    match inst.op {
        Op::Add => out.result = Some(s1().wrapping_add(s2())),
        Op::Sub => out.result = Some(s1().wrapping_sub(s2())),
        Op::Mul => out.result = Some(s1().wrapping_mul(s2())),
        Op::Mulh => {
            let prod = (s1() as i64 as i128).wrapping_mul(s2() as i64 as i128);
            out.result = Some((prod >> 64) as u64);
        }
        Op::Div => {
            let (a, b) = (s1() as i64, s2() as i64);
            out.result = Some(if b == 0 {
                u64::MAX
            } else {
                a.wrapping_div(b) as u64
            });
        }
        Op::Rem => {
            let (a, b) = (s1() as i64, s2() as i64);
            out.result = Some(if b == 0 { a as u64 } else { a.wrapping_rem(b) as u64 });
        }
        Op::And => out.result = Some(s1() & s2()),
        Op::Or => out.result = Some(s1() | s2()),
        Op::Xor => out.result = Some(s1() ^ s2()),
        Op::Nor => out.result = Some(!(s1() | s2())),
        Op::Sllv => out.result = Some(s1() << (s2() & 63)),
        Op::Srlv => out.result = Some(s1() >> (s2() & 63)),
        Op::Srav => out.result = Some(((s1() as i64) >> (s2() & 63)) as u64),
        Op::Slt => out.result = Some(((s1() as i64) < (s2() as i64)) as u64),
        Op::Sltu => out.result = Some((s1() < s2()) as u64),
        Op::Addi => out.result = Some(s1().wrapping_add(imm as u64)),
        Op::Andi => out.result = Some(s1() & (imm as u64)),
        Op::Ori => out.result = Some(s1() | (imm as u64)),
        Op::Xori => out.result = Some(s1() ^ (imm as u64)),
        Op::Slti => out.result = Some(((s1() as i64) < imm) as u64),
        Op::Sltiu => out.result = Some((s1() < imm as u64) as u64),
        Op::Sll => out.result = Some(s1() << (imm as u64 & 63)),
        Op::Srl => out.result = Some(s1() >> (imm as u64 & 63)),
        Op::Sra => out.result = Some(((s1() as i64) >> (imm as u64 & 63)) as u64),
        Op::Lui => out.result = Some(((imm as u64) & 0xffff) << 16),

        Op::Lb | Op::Lbu | Op::Lh | Op::Lhu | Op::Lw | Op::Lwu | Op::Ld | Op::LdF => {
            // Every load opcode defines a width; the fallback keeps
            // this arm total without a panic path in the decode tree.
            let width = inst.op.mem_width().unwrap_or(MemWidth::B8);
            let addr = s1().wrapping_add(imm as u64);
            let raw = mem.load(addr, width);
            out.addr = Some(addr);
            out.result = Some(if inst.op.load_signed() {
                sign_extend(raw, width)
            } else {
                raw
            });
        }
        Op::Sb | Op::Sh | Op::Sw | Op::Sd | Op::SdF => {
            out.addr = Some(s1().wrapping_add(imm as u64));
            out.store_val = Some(s2());
        }

        Op::Beq => out.control = Some(ControlOut { taken: s1() == s2(), target: imm as u64 }),
        Op::Bne => out.control = Some(ControlOut { taken: s1() != s2(), target: imm as u64 }),
        Op::Blez => out.control = Some(ControlOut { taken: (s1() as i64) <= 0, target: imm as u64 }),
        Op::Bgtz => out.control = Some(ControlOut { taken: (s1() as i64) > 0, target: imm as u64 }),
        Op::Bltz => out.control = Some(ControlOut { taken: (s1() as i64) < 0, target: imm as u64 }),
        Op::Bgez => out.control = Some(ControlOut { taken: (s1() as i64) >= 0, target: imm as u64 }),
        Op::Bc1t => out.control = Some(ControlOut { taken: s1() != 0, target: imm as u64 }),
        Op::Bc1f => out.control = Some(ControlOut { taken: s1() == 0, target: imm as u64 }),

        Op::J => out.control = Some(ControlOut { taken: true, target: imm as u64 }),
        Op::Jal => {
            out.control = Some(ControlOut { taken: true, target: imm as u64 });
            out.result = Some(pc.wrapping_add(INST_BYTES));
        }
        Op::Jr => out.control = Some(ControlOut { taken: true, target: s1() }),
        Op::Jalr => {
            out.control = Some(ControlOut { taken: true, target: s1() });
            out.result = Some(pc.wrapping_add(INST_BYTES));
        }

        Op::AddF => out.result = Some((f1() + f2()).to_bits()),
        Op::SubF => out.result = Some((f1() - f2()).to_bits()),
        Op::MulF => out.result = Some((f1() * f2()).to_bits()),
        Op::DivF => out.result = Some((f1() / f2()).to_bits()),
        Op::SqrtF => out.result = Some(f1().sqrt().to_bits()),
        Op::AbsF => out.result = Some(f1().abs().to_bits()),
        Op::NegF => out.result = Some((-f1()).to_bits()),
        Op::MovF => out.result = Some(s1()),
        Op::CvtFI => out.result = Some(((s1() as i64) as f64).to_bits()),
        Op::CvtIF => out.result = Some(f1() as i64 as u64),
        Op::CeqF => out.result = Some((f1() == f2()) as u64),
        Op::CltF => out.result = Some((f1() < f2()) as u64),
        Op::CleF => out.result = Some((f1() <= f2()) as u64),

        Op::Nop => {}
        Op::Halt => out.halt = true,
    }

    // The zero register never changes.
    if inst.dst == Some(Reg::ZERO) {
        out.result = Some(0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem_image::MemImage;

    fn regs<const N: usize>(pairs: [(Reg, u64); N]) -> impl Fn(Reg) -> u64 {
        move |r| {
            pairs
                .iter()
                .find(|(pr, _)| *pr == r)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        }
    }

    #[test]
    fn integer_arithmetic() {
        let mem = MemImage::new();
        let i = Inst::rrr(Op::Add, Reg::int(1), Reg::int(2), Reg::int(3));
        let rd = regs([(Reg::int(2), 5), (Reg::int(3), u64::MAX)]);
        assert_eq!(execute(&i, 0, rd, &mem).result, Some(4)); // wraps

        let i = Inst::rrr(Op::Slt, Reg::int(1), Reg::int(2), Reg::int(3));
        let rd = regs([(Reg::int(2), (-1i64) as u64), (Reg::int(3), 1)]);
        assert_eq!(execute(&i, 0, rd, &mem).result, Some(1));

        let i = Inst::rrr(Op::Sltu, Reg::int(1), Reg::int(2), Reg::int(3));
        let rd = regs([(Reg::int(2), (-1i64) as u64), (Reg::int(3), 1)]);
        assert_eq!(execute(&i, 0, rd, &mem).result, Some(0));
    }

    #[test]
    fn division_is_total() {
        let mem = MemImage::new();
        let i = Inst::rrr(Op::Div, Reg::int(1), Reg::int(2), Reg::int(3));
        let rd = regs([(Reg::int(2), 10)]);
        assert_eq!(execute(&i, 0, rd, &mem).result, Some(u64::MAX));
        let i = Inst::rrr(Op::Rem, Reg::int(1), Reg::int(2), Reg::int(3));
        let rd = regs([(Reg::int(2), 10)]);
        assert_eq!(execute(&i, 0, rd, &mem).result, Some(10));
        // i64::MIN / -1 must not trap.
        let i = Inst::rrr(Op::Div, Reg::int(1), Reg::int(2), Reg::int(3));
        let rd = regs([(Reg::int(2), i64::MIN as u64), (Reg::int(3), (-1i64) as u64)]);
        assert_eq!(execute(&i, 0, rd, &mem).result, Some(i64::MIN as u64));
    }

    #[test]
    fn mulh_high_bits() {
        let mem = MemImage::new();
        let i = Inst::rrr(Op::Mulh, Reg::int(1), Reg::int(2), Reg::int(3));
        let rd = regs([(Reg::int(2), 1 << 62), (Reg::int(3), 4)]);
        assert_eq!(execute(&i, 0, rd, &mem).result, Some(1));
    }

    #[test]
    fn loads_sign_and_zero_extend() {
        let mut mem = MemImage::new();
        mem.write_u8(0x100, 0xff);
        let lb = Inst::mem(Op::Lb, Reg::int(1), Reg::ZERO, 0x100);
        assert_eq!(execute(&lb, 0, |_| 0, &mem).result, Some(u64::MAX));
        let lbu = Inst::mem(Op::Lbu, Reg::int(1), Reg::ZERO, 0x100);
        assert_eq!(execute(&lbu, 0, |_| 0, &mem).result, Some(0xff));
    }

    #[test]
    fn load_effective_address() {
        let mem = MemImage::new();
        let lw = Inst::mem(Op::Lw, Reg::int(1), Reg::int(2), -8);
        let rd = regs([(Reg::int(2), 0x108)]);
        assert_eq!(execute(&lw, 0, rd, &mem).addr, Some(0x100));
    }

    #[test]
    fn store_access_extraction() {
        let mem = MemImage::new();
        let sw = Inst::store(Op::Sw, Reg::int(3), Reg::int(2), 4);
        let rd = regs([(Reg::int(2), 0x200), (Reg::int(3), 99)]);
        let out = execute(&sw, 0, rd, &mem);
        let acc = out.store_access(&sw).expect("store access");
        assert_eq!(acc.addr, 0x204);
        assert_eq!(acc.value, 99);
        assert_eq!(acc.width, MemWidth::B4);
        assert_eq!(out.result, None);
    }

    #[test]
    fn branch_outcomes() {
        let mem = MemImage::new();
        let beq = Inst::branch2(Op::Beq, Reg::int(1), Reg::int(2), 0x400);
        let out = execute(&beq, 0x100, |_| 7, &mem);
        assert_eq!(out.control, Some(ControlOut { taken: true, target: 0x400 }));
        assert_eq!(out.next_pc(0x100), 0x400);

        let bgtz = Inst::branch1(Op::Bgtz, Reg::int(1), 0x400);
        let rd = regs([(Reg::int(1), (-5i64) as u64)]);
        let out = execute(&bgtz, 0x100, rd, &mem);
        assert!(!out.control.unwrap().taken);
        assert_eq!(out.next_pc(0x100), 0x104);
    }

    #[test]
    fn jumps_and_links() {
        let mem = MemImage::new();
        let jal = Inst::jump(Op::Jal, 0x800);
        let out = execute(&jal, 0x100, |_| 0, &mem);
        assert_eq!(out.result, Some(0x104));
        assert_eq!(out.next_pc(0x100), 0x800);

        let jr = Inst::jump_reg(Op::Jr, None, Reg::RA);
        let rd = regs([(Reg::RA, 0x104)]);
        assert_eq!(execute(&jr, 0x200, rd, &mem).next_pc(0x200), 0x104);
    }

    #[test]
    fn fp_operations() {
        let mem = MemImage::new();
        let rd = regs([(Reg::fp(1), 2.0f64.to_bits()), (Reg::fp(2), 8.0f64.to_bits())]);
        let mul = Inst::rrr(Op::MulF, Reg::fp(0), Reg::fp(1), Reg::fp(2));
        assert_eq!(execute(&mul, 0, &rd, &mem).result, Some(16.0f64.to_bits()));
        let sqrt = Inst::rr(Op::SqrtF, Reg::fp(0), Reg::fp(2));
        assert_eq!(
            execute(&sqrt, 0, &rd, &mem).result,
            Some(8.0f64.sqrt().to_bits())
        );
        let clt = Inst::rrr(Op::CltF, Reg::FCC, Reg::fp(1), Reg::fp(2));
        assert_eq!(execute(&clt, 0, &rd, &mem).result, Some(1));
    }

    #[test]
    fn fp_division_by_zero_is_defined() {
        let mem = MemImage::new();
        let rd = regs([(Reg::fp(1), 1.0f64.to_bits())]);
        let div = Inst::rrr(Op::DivF, Reg::fp(0), Reg::fp(1), Reg::fp(2));
        let out = execute(&div, 0, &rd, &mem);
        assert_eq!(f64::from_bits(out.result.unwrap()), f64::INFINITY);
    }

    #[test]
    fn conversions() {
        let mem = MemImage::new();
        let rd = regs([(Reg::int(1), (-3i64) as u64), (Reg::fp(1), 2.9f64.to_bits())]);
        let to_f = Inst::rr(Op::CvtFI, Reg::fp(0), Reg::int(1));
        assert_eq!(execute(&to_f, 0, &rd, &mem).result, Some((-3.0f64).to_bits()));
        let to_i = Inst::rr(Op::CvtIF, Reg::int(2), Reg::fp(1));
        assert_eq!(execute(&to_i, 0, &rd, &mem).result, Some(2));
    }

    #[test]
    fn writes_to_zero_register_produce_zero() {
        let mem = MemImage::new();
        let i = Inst::rri(Op::Addi, Reg::ZERO, Reg::ZERO, 55);
        assert_eq!(execute(&i, 0, |_| 0, &mem).result, Some(0));
    }

    #[test]
    fn halt_and_nop() {
        let mem = MemImage::new();
        assert!(execute(&Inst::HALT, 0, |_| 0, &mem).halt);
        let out = execute(&Inst::NOP, 0, |_| 0, &mem);
        assert_eq!(out, ExecOut::default());
    }

    #[test]
    fn lui_shifts() {
        let mem = MemImage::new();
        let i = Inst::rri(Op::Lui, Reg::int(1), Reg::ZERO, 0x1234);
        assert_eq!(execute(&i, 0, |_| 0, &mem).result, Some(0x1234_0000));
    }
}
