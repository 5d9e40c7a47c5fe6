//! Operation codes, instruction classes, and functional-unit mapping.
//!
//! The latency/occupancy numbers implement Table 1 of the paper:
//!
//! | unit | total / issue |
//! |---|---|
//! | int alu | 1 / 1 |
//! | load/store (address generation) | 1 / 1 |
//! | int mult | 3 / 1 |
//! | int div | 20 / 19 |
//! | fp adder | 2 / 1 |
//! | fp mult | 4 / 1 |
//! | fp div | 12 / 12 |
//! | fp sqrt | 24 / 24 |

use std::fmt;

/// The broad class of an operation, used by the pipeline to route an
/// instruction through fetch/decode/issue and by the reuse buffer to
/// decide which fields of an entry are meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Integer/logical/shift/compare computation.
    IntAlu,
    /// Integer multiply or divide.
    IntMul,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch (direct target).
    Branch,
    /// Unconditional direct jump (`j`, `jal`).
    Jump,
    /// Indirect jump through a register (`jr`, `jalr`).
    JumpReg,
    /// Floating-point computation.
    Fp,
    /// No-op or machine control (`nop`, `halt`).
    Misc,
}

/// Functional-unit pools of the Table 1 machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuClass {
    /// 8 integer ALUs (also execute branches and jumps).
    IntAlu,
    /// 2 load/store address-generation units.
    LoadStore,
    /// 1 integer multiply/divide unit.
    IntMulDiv,
    /// 4 floating-point adders (also compares, converts, moves).
    FpAdd,
    /// 1 floating-point multiply/divide/sqrt unit.
    FpMulDiv,
}

impl FuClass {
    /// All functional-unit classes, in a stable order.
    pub const ALL: [FuClass; 5] = [
        FuClass::IntAlu,
        FuClass::LoadStore,
        FuClass::IntMulDiv,
        FuClass::FpAdd,
        FuClass::FpMulDiv,
    ];

    /// Number of units in this pool on the Table 1 machine.
    pub fn default_count(self) -> usize {
        match self {
            FuClass::IntAlu => 8,
            FuClass::LoadStore => 2,
            FuClass::IntMulDiv => 1,
            FuClass::FpAdd => 4,
            FuClass::FpMulDiv => 1,
        }
    }

    /// A stable dense index for per-pool arrays.
    pub fn index(self) -> usize {
        match self {
            FuClass::IntAlu => 0,
            FuClass::LoadStore => 1,
            FuClass::IntMulDiv => 2,
            FuClass::FpAdd => 3,
            FuClass::FpMulDiv => 4,
        }
    }
}

/// Memory access width for loads and stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 1 byte.
    B1,
    /// 2 bytes.
    B2,
    /// 4 bytes.
    B4,
    /// 8 bytes.
    B8,
}

impl MemWidth {
    /// The width in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::B1 => 1,
            MemWidth::B2 => 2,
            MemWidth::B4 => 4,
            MemWidth::B8 => 8,
        }
    }
}

macro_rules! ops {
    ($($variant:ident => $mnemonic:literal),+ $(,)?) => {
        /// An operation code.
        ///
        /// Mnemonics follow MIPS conventions where they exist; the
        /// floating-point operations use a single 64-bit type (suffix
        /// `.f`), and `mul`/`mulh`/`div`/`rem` replace the MIPS `hi`/`lo`
        /// pair with single-destination forms (see DESIGN.md).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Op {
            $(
                #[doc = concat!("`", $mnemonic, "`")]
                $variant,
            )+
        }

        impl Op {
            /// The assembler mnemonic for this operation.
            pub fn mnemonic(self) -> &'static str {
                match self {
                    $(Op::$variant => $mnemonic,)+
                }
            }

            /// Parses an assembler mnemonic.
            pub fn parse(s: &str) -> Option<Op> {
                match s {
                    $($mnemonic => Some(Op::$variant),)+
                    _ => None,
                }
            }

            /// All operations, in declaration order.
            pub const ALL: &'static [Op] = &[$(Op::$variant),+];

            /// The operation's stable opcode number (declaration order),
            /// used by the binary encoding.
            pub fn opcode(self) -> u8 {
                self as u8
            }

            /// The operation with the given opcode number.
            pub fn from_opcode(opcode: u8) -> Option<Op> {
                Op::ALL.get(opcode as usize).copied()
            }
        }
    };
}

ops! {
    // Integer register-register.
    Add => "add",
    Sub => "sub",
    Mul => "mul",
    Mulh => "mulh",
    Div => "div",
    Rem => "rem",
    And => "and",
    Or => "or",
    Xor => "xor",
    Nor => "nor",
    Sllv => "sllv",
    Srlv => "srlv",
    Srav => "srav",
    Slt => "slt",
    Sltu => "sltu",
    // Integer register-immediate.
    Addi => "addi",
    Andi => "andi",
    Ori => "ori",
    Xori => "xori",
    Slti => "slti",
    Sltiu => "sltiu",
    Sll => "sll",
    Srl => "srl",
    Sra => "sra",
    Lui => "lui",
    // Loads.
    Lb => "lb",
    Lbu => "lbu",
    Lh => "lh",
    Lhu => "lhu",
    Lw => "lw",
    Lwu => "lwu",
    Ld => "ld",
    LdF => "l.f",
    // Stores.
    Sb => "sb",
    Sh => "sh",
    Sw => "sw",
    Sd => "sd",
    SdF => "s.f",
    // Conditional branches.
    Beq => "beq",
    Bne => "bne",
    Blez => "blez",
    Bgtz => "bgtz",
    Bltz => "bltz",
    Bgez => "bgez",
    Bc1t => "bc1t",
    Bc1f => "bc1f",
    // Jumps.
    J => "j",
    Jal => "jal",
    Jr => "jr",
    Jalr => "jalr",
    // Floating point.
    AddF => "add.f",
    SubF => "sub.f",
    MulF => "mul.f",
    DivF => "div.f",
    SqrtF => "sqrt.f",
    AbsF => "abs.f",
    NegF => "neg.f",
    MovF => "mov.f",
    CvtFI => "cvt.f.i",
    CvtIF => "cvt.i.f",
    CeqF => "c.eq.f",
    CltF => "c.lt.f",
    CleF => "c.le.f",
    // Misc. `halt` gets the last direct opcode; `nop` is encoded as the
    // canonical `sll r0, r0, 0` (the MIPS idiom), so it needs none.
    Halt => "halt",
    Nop => "nop",
}

impl Op {
    /// The broad instruction class.
    pub fn class(self) -> OpClass {
        match self {
            Op::Add | Op::Sub | Op::And | Op::Or | Op::Xor | Op::Nor | Op::Sllv | Op::Srlv
            | Op::Srav | Op::Slt | Op::Sltu | Op::Addi | Op::Andi | Op::Ori | Op::Xori | Op::Slti
            | Op::Sltiu | Op::Sll | Op::Srl | Op::Sra | Op::Lui => OpClass::IntAlu,
            Op::Mul | Op::Mulh | Op::Div | Op::Rem => OpClass::IntMul,
            Op::Lb | Op::Lbu | Op::Lh | Op::Lhu | Op::Lw | Op::Lwu | Op::Ld | Op::LdF => {
                OpClass::Load
            }
            Op::Sb | Op::Sh | Op::Sw | Op::Sd | Op::SdF => OpClass::Store,
            Op::Beq | Op::Bne | Op::Blez | Op::Bgtz | Op::Bltz | Op::Bgez | Op::Bc1t | Op::Bc1f => {
                OpClass::Branch
            }
            Op::J | Op::Jal => OpClass::Jump,
            Op::Jr | Op::Jalr => OpClass::JumpReg,
            Op::AddF | Op::SubF | Op::MulF | Op::DivF | Op::SqrtF | Op::AbsF | Op::NegF | Op::MovF
            | Op::CvtFI | Op::CvtIF | Op::CeqF | Op::CltF | Op::CleF => OpClass::Fp,
            Op::Nop | Op::Halt => OpClass::Misc,
        }
    }

    /// The functional-unit pool this operation executes on.
    pub fn fu_class(self) -> FuClass {
        match self.class() {
            OpClass::IntAlu | OpClass::Branch | OpClass::Jump | OpClass::JumpReg
            | OpClass::Misc => FuClass::IntAlu,
            OpClass::IntMul => FuClass::IntMulDiv,
            OpClass::Load | OpClass::Store => FuClass::LoadStore,
            OpClass::Fp => match self {
                Op::MulF | Op::DivF | Op::SqrtF => FuClass::FpMulDiv,
                _ => FuClass::FpAdd,
            },
        }
    }

    /// `(total latency, issue interval)` in cycles, per Table 1.
    ///
    /// The total latency is the number of cycles from issue to result
    /// availability; the issue interval is how long the functional unit
    /// stays busy (non-pipelined units have interval ≈ latency).
    pub fn latency(self) -> (u32, u32) {
        match self {
            Op::Mul | Op::Mulh => (3, 1),
            Op::Div | Op::Rem => (20, 19),
            Op::AddF | Op::SubF | Op::AbsF | Op::NegF | Op::MovF | Op::CvtFI | Op::CvtIF | Op::CeqF
            | Op::CltF | Op::CleF => (2, 1),
            Op::MulF => (4, 1),
            Op::DivF => (12, 12),
            Op::SqrtF => (24, 24),
            _ => (1, 1),
        }
    }

    /// Memory access width for loads and stores; `None` otherwise.
    pub fn mem_width(self) -> Option<MemWidth> {
        match self {
            Op::Lb | Op::Lbu | Op::Sb => Some(MemWidth::B1),
            Op::Lh | Op::Lhu | Op::Sh => Some(MemWidth::B2),
            Op::Lw | Op::Lwu | Op::Sw => Some(MemWidth::B4),
            Op::Ld | Op::LdF | Op::Sd | Op::SdF => Some(MemWidth::B8),
            _ => None,
        }
    }

    /// Whether a load of this op sign-extends its result.
    pub fn load_signed(self) -> bool {
        matches!(self, Op::Lb | Op::Lh | Op::Lw)
    }

    /// Whether an ALU op without a second source register takes an
    /// immediate operand (written in its listing and encoded in its
    /// 16-bit field).
    pub fn uses_imm(self) -> bool {
        matches!(
            self,
            Op::Addi | Op::Andi | Op::Ori | Op::Xori | Op::Slti | Op::Sltiu | Op::Sll | Op::Srl
            | Op::Sra | Op::Lui
        )
    }

    /// Whether this operation is any control transfer (branch or jump).
    pub fn is_control(self) -> bool {
        matches!(
            self.class(),
            OpClass::Branch | OpClass::Jump | OpClass::JumpReg
        )
    }

}

impl Default for Op {
    /// The default operation is `nop`.
    fn default() -> Op {
        Op::Nop
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics_roundtrip() {
        for &op in Op::ALL {
            assert_eq!(Op::parse(op.mnemonic()), Some(op), "{op:?}");
        }
        assert_eq!(Op::parse("bogus"), None);
    }

    #[test]
    fn table1_latencies() {
        assert_eq!(Op::Add.latency(), (1, 1));
        assert_eq!(Op::Lw.latency(), (1, 1));
        assert_eq!(Op::Mul.latency(), (3, 1));
        assert_eq!(Op::Div.latency(), (20, 19));
        assert_eq!(Op::AddF.latency(), (2, 1));
        assert_eq!(Op::MulF.latency(), (4, 1));
        assert_eq!(Op::DivF.latency(), (12, 12));
        assert_eq!(Op::SqrtF.latency(), (24, 24));
    }

    #[test]
    fn fu_routing() {
        assert_eq!(Op::Add.fu_class(), FuClass::IntAlu);
        assert_eq!(Op::Beq.fu_class(), FuClass::IntAlu);
        assert_eq!(Op::Lw.fu_class(), FuClass::LoadStore);
        assert_eq!(Op::Sw.fu_class(), FuClass::LoadStore);
        assert_eq!(Op::Div.fu_class(), FuClass::IntMulDiv);
        assert_eq!(Op::AddF.fu_class(), FuClass::FpAdd);
        assert_eq!(Op::CeqF.fu_class(), FuClass::FpAdd);
        assert_eq!(Op::SqrtF.fu_class(), FuClass::FpMulDiv);
    }

    #[test]
    fn table1_unit_counts() {
        assert_eq!(FuClass::IntAlu.default_count(), 8);
        assert_eq!(FuClass::LoadStore.default_count(), 2);
        assert_eq!(FuClass::IntMulDiv.default_count(), 1);
        assert_eq!(FuClass::FpAdd.default_count(), 4);
        assert_eq!(FuClass::FpMulDiv.default_count(), 1);
    }

    #[test]
    fn mem_widths() {
        assert_eq!(Op::Lb.mem_width(), Some(MemWidth::B1));
        assert_eq!(Op::Sd.mem_width(), Some(MemWidth::B8));
        assert_eq!(Op::Add.mem_width(), None);
        assert!(Op::Lw.load_signed());
        assert!(!Op::Lwu.load_signed());
    }

    #[test]
    fn control_classification() {
        assert!(Op::J.is_control());
        assert!(Op::Jr.is_control());
        assert!(!Op::Add.is_control());
    }

    #[test]
    fn opcodes_roundtrip_and_fit_six_bits() {
        // Every op except the aliased `nop` must fit the 6-bit field.
        for &op in Op::ALL {
            if op != Op::Nop {
                assert!(op.opcode() < 64, "{op:?} overflows the opcode field");
            }
            assert_eq!(Op::from_opcode(op.opcode()), Some(op));
        }
        assert_eq!(Op::from_opcode(Op::ALL.len() as u8), None);
    }

    #[test]
    fn fu_indices_are_dense_and_distinct() {
        let mut seen = [false; 5];
        for fu in FuClass::ALL {
            assert!(!seen[fu.index()]);
            seen[fu.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
