//! Decoded instructions.

use std::fmt;

use crate::op::{Op, OpClass};
use crate::reg::Reg;

/// A decoded instruction.
///
/// Instructions carry their operands in decoded form — there is no binary
/// encoding layer, the simulator operates on `Inst` values directly (like
/// SimpleScalar's pre-decoded text segment). `imm` holds the immediate
/// operand, the absolute branch/jump target byte address for control
/// transfers, or the address displacement for memory operations.
///
/// # Examples
///
/// ```
/// use vpir_isa::{Inst, Op, Reg};
/// let add = Inst::rrr(Op::Add, Reg::int(1), Reg::int(2), Reg::int(3));
/// assert_eq!(add.to_string(), "add r1, r2, r3");
/// let lw = Inst::mem(Op::Lw, Reg::int(4), Reg::int(29), 16);
/// assert_eq!(lw.to_string(), "lw r4, 16(r29)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Inst {
    /// The operation.
    pub op: Op,
    /// Destination register, if the instruction produces a register result.
    pub dst: Option<Reg>,
    /// First source register (base register for memory operations).
    pub src1: Option<Reg>,
    /// Second source register (stored value for stores).
    pub src2: Option<Reg>,
    /// Immediate / displacement / absolute control-transfer target.
    pub imm: i64,
}

impl Inst {
    /// A `nop`.
    pub const NOP: Inst = Inst {
        op: Op::Nop,
        dst: None,
        src1: None,
        src2: None,
        imm: 0,
    };

    /// A `halt`.
    pub const HALT: Inst = Inst {
        op: Op::Halt,
        dst: None,
        src1: None,
        src2: None,
        imm: 0,
    };

    /// Three-register form: `op dst, src1, src2`.
    pub fn rrr(op: Op, dst: Reg, src1: Reg, src2: Reg) -> Inst {
        Inst {
            op,
            dst: Some(dst),
            src1: Some(src1),
            src2: Some(src2),
            imm: 0,
        }
    }

    /// Register-immediate form: `op dst, src1, imm`.
    pub fn rri(op: Op, dst: Reg, src1: Reg, imm: i64) -> Inst {
        Inst {
            op,
            dst: Some(dst),
            src1: Some(src1),
            src2: None,
            imm,
        }
    }

    /// Two-register form (FP unary, moves): `op dst, src1`.
    pub fn rr(op: Op, dst: Reg, src1: Reg) -> Inst {
        Inst {
            op,
            dst: Some(dst),
            src1: Some(src1),
            src2: None,
            imm: 0,
        }
    }

    /// Load form: `op dst, disp(base)`.
    pub fn mem(op: Op, dst: Reg, base: Reg, disp: i64) -> Inst {
        debug_assert_eq!(op.class(), OpClass::Load);
        Inst {
            op,
            dst: Some(dst),
            src1: Some(base),
            src2: None,
            imm: disp,
        }
    }

    /// Store form: `op value, disp(base)`.
    pub fn store(op: Op, value: Reg, base: Reg, disp: i64) -> Inst {
        debug_assert_eq!(op.class(), OpClass::Store);
        Inst {
            op,
            dst: None,
            src1: Some(base),
            src2: Some(value),
            imm: disp,
        }
    }

    /// Two-source conditional branch: `op src1, src2, target`.
    pub fn branch2(op: Op, src1: Reg, src2: Reg, target: u64) -> Inst {
        Inst {
            op,
            dst: None,
            src1: Some(src1),
            src2: Some(src2),
            imm: target as i64,
        }
    }

    /// One-source conditional branch: `op src1, target`.
    pub fn branch1(op: Op, src1: Reg, target: u64) -> Inst {
        Inst {
            op,
            dst: None,
            src1: Some(src1),
            src2: None,
            imm: target as i64,
        }
    }

    /// Direct jump `j target` / `jal target` (`jal` links into `ra`).
    pub fn jump(op: Op, target: u64) -> Inst {
        let dst = if op == Op::Jal { Some(Reg::RA) } else { None };
        Inst {
            op,
            dst,
            src1: None,
            src2: None,
            imm: target as i64,
        }
    }

    /// Indirect jump `jr src` / `jalr dst, src`.
    pub fn jump_reg(op: Op, dst: Option<Reg>, src: Reg) -> Inst {
        Inst {
            op,
            dst,
            src1: Some(src),
            src2: None,
            imm: 0,
        }
    }

    /// The absolute target byte address of a direct control transfer.
    pub fn target(&self) -> u64 {
        self.imm as u64
    }

    /// Whether this instruction is a function return (`jr r31`).
    pub fn is_return(&self) -> bool {
        self.op == Op::Jr && self.src1 == Some(Reg::RA)
    }

    /// Whether this instruction is a call (`jal` or `jalr`).
    pub fn is_call(&self) -> bool {
        self.op == Op::Jal || self.op == Op::Jalr
    }

    /// Source registers actually read by this instruction, in order.
    pub fn sources(&self) -> impl Iterator<Item = Reg> + '_ {
        self.src1.into_iter().chain(self.src2)
    }

    /// Whether `r` is read by this instruction.
    pub fn reads(&self, r: Reg) -> bool {
        self.src1 == Some(r) || self.src2 == Some(r)
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.op.mnemonic();
        match self.op.class() {
            OpClass::Load => write!(
                f,
                "{m} {}, {}({})",
                self.dst.expect("load has dst"),
                self.imm,
                self.src1.expect("load has base"),
            ),
            OpClass::Store => write!(
                f,
                "{m} {}, {}({})",
                self.src2.expect("store has value"),
                self.imm,
                self.src1.expect("store has base"),
            ),
            OpClass::Branch => match self.src2 {
                Some(s2) => write!(f, "{m} {}, {s2}, {:#x}", self.src1.unwrap(), self.imm),
                None => match self.src1 {
                    Some(s1) => write!(f, "{m} {s1}, {:#x}", self.imm),
                    None => write!(f, "{m} {:#x}", self.imm),
                },
            },
            OpClass::Jump => write!(f, "{m} {:#x}", self.imm),
            OpClass::JumpReg => match self.dst {
                Some(d) => write!(f, "{m} {d}, {}", self.src1.unwrap()),
                None => write!(f, "{m} {}", self.src1.unwrap()),
            },
            OpClass::Misc => write!(f, "{m}"),
            _ => {
                write!(f, "{m}")?;
                let mut sep = " ";
                if let Some(d) = self.dst {
                    write!(f, "{sep}{d}")?;
                    sep = ", ";
                }
                // `lui`'s zero source is implicit in its written form.
                if let Some(s) = self.src1.filter(|_| self.op != Op::Lui) {
                    write!(f, "{sep}{s}")?;
                    sep = ", ";
                }
                if let Some(s) = self.src2 {
                    write!(f, "{sep}{s}")?;
                } else if self.uses_imm() {
                    write!(f, "{sep}{}", self.imm)?;
                }
                Ok(())
            }
        }
    }
}

impl Inst {
    fn uses_imm(&self) -> bool {
        matches!(
            self.op,
            Op::Addi | Op::Andi | Op::Ori | Op::Xori | Op::Slti | Op::Sltiu | Op::Sll | Op::Srl
            | Op::Sra | Op::Lui
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lui_displays_without_its_implicit_source() {
        let lui = Inst::rri(Op::Lui, Reg::int(7), Reg::ZERO, 32);
        assert_eq!(lui.to_string(), "lui r7, 32");
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            Inst::rri(Op::Addi, Reg::int(1), Reg::ZERO, -5).to_string(),
            "addi r1, r0, -5"
        );
        assert_eq!(
            Inst::store(Op::Sw, Reg::int(2), Reg::SP, 8).to_string(),
            "sw r2, 8(r29)"
        );
        assert_eq!(
            Inst::branch2(Op::Beq, Reg::int(1), Reg::int(2), 0x1000).to_string(),
            "beq r1, r2, 0x1000"
        );
        assert_eq!(Inst::jump(Op::J, 0x2000).to_string(), "j 0x2000");
        assert_eq!(
            Inst::rr(Op::SqrtF, Reg::fp(1), Reg::fp(2)).to_string(),
            "sqrt.f f1, f2"
        );
        assert_eq!(Inst::NOP.to_string(), "nop");
    }

    #[test]
    fn jal_links_ra() {
        let jal = Inst::jump(Op::Jal, 0x400);
        assert_eq!(jal.dst, Some(Reg::RA));
        assert!(jal.is_call());
        let j = Inst::jump(Op::J, 0x400);
        assert_eq!(j.dst, None);
        assert!(!j.is_call());
    }

    #[test]
    fn return_detection() {
        assert!(Inst::jump_reg(Op::Jr, None, Reg::RA).is_return());
        assert!(!Inst::jump_reg(Op::Jr, None, Reg::int(5)).is_return());
        assert!(!Inst::jump_reg(Op::Jalr, Some(Reg::RA), Reg::int(5)).is_return());
    }

    #[test]
    fn sources_iterator() {
        let i = Inst::rrr(Op::Add, Reg::int(1), Reg::int(2), Reg::int(3));
        let srcs: Vec<_> = i.sources().collect();
        assert_eq!(srcs, vec![Reg::int(2), Reg::int(3)]);
        assert!(i.reads(Reg::int(2)));
        assert!(!i.reads(Reg::int(1)));
    }
}
