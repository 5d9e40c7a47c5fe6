//! Binary instruction encoding.
//!
//! A fixed 32-bit encoding for every operation, in the spirit of the
//! MIPS-I words the paper's SimpleScalar infrastructure decodes. The
//! simulator itself runs on pre-decoded [`Inst`]s; this module exists so
//! programs can be stored, hashed, and shipped as byte images
//! ([`encode_program`] / [`decode_program`]), and so the assembler's
//! `lui`/`ori` immediate expansion has a hard 16-bit contract to honour.
//!
//! ## Word layout
//!
//! ```text
//! [31:26] opcode        (Op::opcode(), declaration order)
//! R-type: [25:21] rd  [20:16] rs  [15:11] rt        (arithmetic, FP)
//! I-type: [25:21] rd  [20:16] rs  [15:0]  imm16     (imm ops, loads)
//! Stores: [25:21] val [20:16] base [15:0] disp16
//! Branch: [25:21] rs  [20:16] rt  [15:0]  off16     (words from pc+4)
//! Jump:   [25:0] target26                           (words, MIPS-style
//!                                                    256 MB region)
//! ```
//!
//! Register fields are 5 bits; whether a field names an integer or a
//! floating-point register is implied by the opcode (`add.f`'s fields
//! are `f` indices), and `fcc` is implicit in the compare/branch-on-FCC
//! opcodes — exactly how real ISAs keep their encodings narrow.

use std::fmt;

use crate::inst::Inst;
use crate::op::{Op, OpClass};
use crate::program::INST_BYTES;
use crate::reg::{Reg, FP_BASE};

/// Why an instruction cannot be encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// The immediate does not fit its 16-bit field.
    ImmOutOfRange {
        /// The offending immediate.
        imm: i64,
    },
    /// A branch offset does not fit 16 bits of words.
    BranchOutOfRange {
        /// The absolute target.
        target: u64,
    },
    /// A jump target lies outside the 256 MB region of its `pc`.
    JumpOutOfRegion {
        /// The absolute target.
        target: u64,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::ImmOutOfRange { imm } => {
                write!(f, "immediate {imm} does not fit 16 bits")
            }
            EncodeError::BranchOutOfRange { target } => {
                write!(f, "branch target {target:#x} out of 16-bit range")
            }
            EncodeError::JumpOutOfRegion { target } => {
                write!(f, "jump target {target:#x} outside the pc's 256 MB region")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

fn field_of(reg: Reg) -> u32 {
    let i = reg.index() as u32;
    if i >= FP_BASE as u32 {
        i - FP_BASE as u32
    } else {
        i
    }
}

fn int_reg(field: u32) -> Reg {
    Reg::int((field & 31) as u8)
}

fn fp_reg(field: u32) -> Reg {
    Reg::fp((field & 31) as u8)
}

fn imm16(op: Op, imm: i64) -> Result<u32, EncodeError> {
    // Logical immediates (and `lui`/shifts) decode zero-extended, so they
    // must be non-negative; arithmetic immediates are signed 16-bit.
    let ok = if imm_is_unsigned(op) {
        (0..(1 << 16)).contains(&imm)
    } else {
        (-(1 << 15)..(1 << 15)).contains(&imm)
    };
    if ok {
        Ok((imm as u64 & 0xffff) as u32)
    } else {
        Err(EncodeError::ImmOutOfRange { imm })
    }
}

fn sign16(raw: u32) -> i64 {
    raw as u16 as i16 as i64
}

fn zero16(raw: u32) -> i64 {
    (raw & 0xffff) as i64
}

/// Whether the op's 16-bit immediate decodes zero-extended.
fn imm_is_unsigned(op: Op) -> bool {
    matches!(op, Op::Andi | Op::Ori | Op::Xori | Op::Lui | Op::Sll | Op::Srl | Op::Sra | Op::Sltiu)
}

/// Encodes `inst` (located at `pc`) into a 32-bit word.
///
/// # Errors
///
/// Returns an [`EncodeError`] when an immediate, branch offset, or jump
/// target does not fit its field. The assembler's `li`/`la` expansion
/// guarantees assembled programs never hit the immediate case.
///
/// # Examples
///
/// ```
/// use vpir_isa::{encoding, Inst, Op, Reg};
/// let inst = Inst::rri(Op::Addi, Reg::int(1), Reg::int(2), -5);
/// let word = encoding::encode(&inst, 0x1000)?;
/// assert_eq!(encoding::decode(word, 0x1000), Some(inst));
/// # Ok::<(), vpir_isa::encoding::EncodeError>(())
/// ```
pub fn encode(inst: &Inst, pc: u64) -> Result<u32, EncodeError> {
    // `nop` has no opcode of its own: it is the canonical
    // `sll r0, r0, 0`, exactly as in MIPS (an all-zero shift word).
    if inst.op == Op::Nop {
        return encode(&Inst::rri(Op::Sll, Reg::ZERO, Reg::ZERO, 0), pc);
    }
    debug_assert!(inst.op.opcode() < 64, "aliased op reached encode");
    let op = (inst.op.opcode() as u32) << 26;
    let rd = |r: Option<Reg>| field_of(r.unwrap_or(Reg::ZERO)) << 21;
    let rs = |r: Option<Reg>| field_of(r.unwrap_or(Reg::ZERO)) << 16;
    let rt = |r: Option<Reg>| field_of(r.unwrap_or(Reg::ZERO)) << 11;

    Ok(match inst.op.class() {
        OpClass::IntAlu | OpClass::IntMul | OpClass::Fp => {
            if matches!(inst.op, Op::CeqF | Op::CltF | Op::CleF) {
                // FCC destination is implicit; sources sit in rd/rs.
                op | rd(inst.src1) | rs(inst.src2)
            } else if inst.src2.is_some() {
                op | rd(inst.dst) | rs(inst.src1) | rt(inst.src2)
            } else if uses_imm(inst.op) {
                op | rd(inst.dst) | rs(inst.src1) | imm16(inst.op, inst.imm)?
            } else {
                op | rd(inst.dst) | rs(inst.src1)
            }
        }
        OpClass::Load => op | rd(inst.dst) | rs(inst.src1) | imm16(inst.op, inst.imm)?,
        OpClass::Store => op | rd(inst.src2) | rs(inst.src1) | imm16(inst.op, inst.imm)?,
        OpClass::Branch => {
            let delta = inst.imm
                .wrapping_sub(pc as i64 + INST_BYTES as i64)
                / INST_BYTES as i64;
            if !(-(1 << 15)..(1 << 15)).contains(&delta) {
                return Err(EncodeError::BranchOutOfRange {
                    target: inst.imm as u64,
                });
            }
            let (a, b) = if matches!(inst.op, Op::Bc1t | Op::Bc1f) {
                (0, 0) // FCC source is implicit
            } else {
                (rd(inst.src1), rs(inst.src2))
            };
            op | a | b | ((delta as u64 & 0xffff) as u32)
        }
        OpClass::Jump => {
            let target = inst.imm as u64;
            if (target & 0xF000_0000) != (pc & 0xF000_0000) || !target.is_multiple_of(INST_BYTES) {
                return Err(EncodeError::JumpOutOfRegion { target });
            }
            op | (((target >> 2) & 0x03FF_FFFF) as u32)
        }
        OpClass::JumpReg => op | rd(inst.dst) | rs(inst.src1),
        OpClass::Misc => op,
    })
}

fn uses_imm(op: Op) -> bool {
    matches!(
        op,
        Op::Addi | Op::Andi | Op::Ori | Op::Xori | Op::Slti | Op::Sltiu | Op::Sll | Op::Srl
        | Op::Sra | Op::Lui
    )
}

/// Decodes the 32-bit `word` fetched from `pc`.
///
/// Returns `None` for an invalid opcode. `decode(encode(i, pc), pc)`
/// reproduces `i` exactly for every encodable instruction.
pub fn decode(word: u32, pc: u64) -> Option<Inst> {
    let op = Op::from_opcode((word >> 26) as u8)?;
    let fd = (word >> 21) & 31;
    let fs = (word >> 16) & 31;
    let ft = (word >> 11) & 31;
    let raw16 = word & 0xffff;

    Some(match op {
        Op::Add | Op::Sub | Op::Mul | Op::Mulh | Op::Div | Op::Rem | Op::And | Op::Or | Op::Xor
        | Op::Nor | Op::Sllv | Op::Srlv | Op::Srav | Op::Slt | Op::Sltu => {
            Inst::rrr(op, int_reg(fd), int_reg(fs), int_reg(ft))
        }
        Op::AddF | Op::SubF | Op::MulF | Op::DivF => {
            Inst::rrr(op, fp_reg(fd), fp_reg(fs), fp_reg(ft))
        }
        Op::SqrtF | Op::AbsF | Op::NegF | Op::MovF => Inst::rr(op, fp_reg(fd), fp_reg(fs)),
        Op::CvtFI => Inst::rr(op, fp_reg(fd), int_reg(fs)),
        Op::CvtIF => Inst::rr(op, int_reg(fd), fp_reg(fs)),
        Op::CeqF | Op::CltF | Op::CleF => Inst::rrr(op, Reg::FCC, fp_reg(fd), fp_reg(fs)),
        Op::Addi | Op::Andi | Op::Ori | Op::Xori | Op::Slti | Op::Sltiu | Op::Sll | Op::Srl
        | Op::Sra | Op::Lui => {
            let imm = if imm_is_unsigned(op) {
                zero16(raw16)
            } else {
                sign16(raw16)
            };
            Inst::rri(op, int_reg(fd), int_reg(fs), imm)
        }
        Op::Lb | Op::Lbu | Op::Lh | Op::Lhu | Op::Lw | Op::Lwu | Op::Ld => {
            Inst::mem(op, int_reg(fd), int_reg(fs), sign16(raw16))
        }
        Op::LdF => Inst::mem(op, fp_reg(fd), int_reg(fs), sign16(raw16)),
        Op::Sb | Op::Sh | Op::Sw | Op::Sd => {
            Inst::store(op, int_reg(fd), int_reg(fs), sign16(raw16))
        }
        Op::SdF => Inst::store(op, fp_reg(fd), int_reg(fs), sign16(raw16)),
        Op::Beq | Op::Bne => {
            let target = branch_target(pc, raw16);
            Inst::branch2(op, int_reg(fd), int_reg(fs), target)
        }
        Op::Blez | Op::Bgtz | Op::Bltz | Op::Bgez => {
            let target = branch_target(pc, raw16);
            Inst::branch1(op, int_reg(fd), target)
        }
        Op::Bc1t | Op::Bc1f => {
            let target = branch_target(pc, raw16);
            Inst::branch1(op, Reg::FCC, target)
        }
        Op::J | Op::Jal => {
            let target = (pc & 0xF000_0000) | (((word & 0x03FF_FFFF) as u64) << 2);
            Inst::jump(op, target)
        }
        Op::Jr => Inst::jump_reg(op, None, int_reg(fs)),
        Op::Jalr => Inst::jump_reg(op, Some(int_reg(fd)), int_reg(fs)),
        Op::Nop => Inst::NOP,
        Op::Halt => Inst::HALT,
    })
}

fn branch_target(pc: u64, raw16: u32) -> u64 {
    (pc as i64 + INST_BYTES as i64 + sign16(raw16) * INST_BYTES as i64) as u64
}

/// Encodes a whole text segment into little-endian words.
///
/// # Errors
///
/// Returns the first [`EncodeError`] with its instruction index.
pub fn encode_program(
    insts: &[Inst],
    text_base: u64,
) -> Result<Vec<u32>, (usize, EncodeError)> {
    insts
        .iter()
        .enumerate()
        .map(|(i, inst)| {
            encode(inst, text_base + i as u64 * INST_BYTES).map_err(|e| (i, e))
        })
        .collect()
}

/// Decodes a text segment back into instructions.
///
/// Returns `None` if any word has an invalid opcode.
pub fn decode_program(words: &[u32], text_base: u64) -> Option<Vec<Inst>> {
    words
        .iter()
        .enumerate()
        .map(|(i, &w)| decode(w, text_base + i as u64 * INST_BYTES))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(inst: Inst, pc: u64) {
        let word = encode(&inst, pc).unwrap_or_else(|e| panic!("{inst}: {e}"));
        let back = decode(word, pc).expect("valid opcode");
        assert_eq!(back, inst, "word {word:#010x}");
    }

    #[test]
    fn alu_roundtrips() {
        roundtrip(Inst::rrr(Op::Add, Reg::int(1), Reg::int(2), Reg::int(3)), 0x1000);
        roundtrip(Inst::rrr(Op::Nor, Reg::int(31), Reg::ZERO, Reg::int(15)), 0x1000);
        roundtrip(Inst::rri(Op::Addi, Reg::int(4), Reg::int(5), -32768), 0x1000);
        roundtrip(Inst::rri(Op::Ori, Reg::int(4), Reg::int(5), 0xffff), 0x1000);
        roundtrip(Inst::rri(Op::Lui, Reg::int(4), Reg::ZERO, 0xabcd), 0x1000);
        roundtrip(Inst::rri(Op::Sll, Reg::int(4), Reg::int(4), 63), 0x1000);
    }

    #[test]
    fn fp_roundtrips() {
        roundtrip(Inst::rrr(Op::MulF, Reg::fp(0), Reg::fp(30), Reg::fp(7)), 0x2000);
        roundtrip(Inst::rr(Op::SqrtF, Reg::fp(3), Reg::fp(4)), 0x2000);
        roundtrip(Inst::rr(Op::CvtFI, Reg::fp(2), Reg::int(9)), 0x2000);
        roundtrip(Inst::rr(Op::CvtIF, Reg::int(9), Reg::fp(2)), 0x2000);
        roundtrip(Inst::rrr(Op::CltF, Reg::FCC, Reg::fp(1), Reg::fp(2)), 0x2000);
    }

    #[test]
    fn memory_roundtrips() {
        roundtrip(Inst::mem(Op::Lw, Reg::int(8), Reg::SP, -4), 0x1000);
        roundtrip(Inst::mem(Op::LdF, Reg::fp(8), Reg::int(7), 1024), 0x1000);
        roundtrip(Inst::store(Op::Sw, Reg::int(9), Reg::SP, 32), 0x1000);
        roundtrip(Inst::store(Op::SdF, Reg::fp(9), Reg::int(7), -8), 0x1000);
    }

    #[test]
    fn control_roundtrips() {
        let pc = 0x1000;
        roundtrip(Inst::branch2(Op::Beq, Reg::int(1), Reg::int(2), pc + 4), pc);
        roundtrip(Inst::branch2(Op::Bne, Reg::int(1), Reg::int(2), pc - 400), pc);
        roundtrip(Inst::branch1(Op::Blez, Reg::int(1), pc + 0x4000), pc);
        roundtrip(Inst::branch1(Op::Bc1t, Reg::FCC, pc + 8), pc);
        roundtrip(Inst::jump(Op::J, 0x0040_0000), pc);
        roundtrip(Inst::jump(Op::Jal, 0x0000_1004), pc);
        roundtrip(Inst::jump_reg(Op::Jr, None, Reg::RA), pc);
        roundtrip(Inst::jump_reg(Op::Jalr, Some(Reg::RA), Reg::int(9)), pc);
    }

    #[test]
    fn misc_roundtrips() {
        roundtrip(Inst::HALT, 0);
        // `nop` maps onto the canonical zero shift.
        let word = encode(&Inst::NOP, 0).expect("nop encodes");
        assert_eq!(
            decode(word, 0),
            Some(Inst::rri(Op::Sll, Reg::ZERO, Reg::ZERO, 0)),
            "nop is sll r0, r0, 0"
        );
    }

    #[test]
    fn out_of_range_immediates_are_rejected() {
        let too_big = Inst::rri(Op::Addi, Reg::int(1), Reg::ZERO, 0x12345);
        assert!(matches!(
            encode(&too_big, 0),
            Err(EncodeError::ImmOutOfRange { .. })
        ));
        let far = Inst::branch2(Op::Beq, Reg::ZERO, Reg::ZERO, 0x100_0000);
        assert!(matches!(
            encode(&far, 0x1000),
            Err(EncodeError::BranchOutOfRange { .. })
        ));
        let out = Inst::jump(Op::J, 0x7000_0000);
        assert!(matches!(
            encode(&out, 0x1000),
            Err(EncodeError::JumpOutOfRegion { .. })
        ));
    }

    #[test]
    fn every_opcode_value_decodes() {
        // All 64 direct opcodes are assigned, so decoding is total.
        for opc in 0u32..64 {
            assert!(decode(opc << 26, 0x1000).is_some(), "opcode {opc}");
        }
    }

    #[test]
    fn program_level_roundtrip() {
        let insts = vec![
            Inst::rri(Op::Addi, Reg::int(1), Reg::ZERO, 3),
            Inst::rrr(Op::Add, Reg::int(2), Reg::int(2), Reg::int(1)),
            Inst::branch2(Op::Bne, Reg::int(1), Reg::ZERO, 0x1004),
            Inst::HALT,
        ];
        let words = encode_program(&insts, 0x1000).expect("encodable");
        assert_eq!(decode_program(&words, 0x1000), Some(insts));
    }

    #[test]
    fn program_level_error_carries_index() {
        let insts = vec![
            Inst::NOP,
            Inst::rri(Op::Addi, Reg::int(1), Reg::ZERO, 1 << 20),
        ];
        let err = encode_program(&insts, 0x1000).unwrap_err();
        assert_eq!(err.0, 1);
    }
}
