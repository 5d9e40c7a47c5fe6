//! Program images: decoded text segment plus initialised data segments.

use std::collections::HashMap;

use crate::inst::Inst;
use crate::mem_image::MemImage;

/// Default base address of the text segment.
pub const TEXT_BASE: u64 = 0x1000;
/// Default base address of the data segment.
pub const DATA_BASE: u64 = 0x0010_0000;
/// Initial stack pointer.
pub const STACK_TOP: u64 = 0x7fff_f000;
/// Size in bytes of one (pre-decoded) instruction slot.
pub const INST_BYTES: u64 = 4;

/// A 1-based source position (line and column) in assembly text.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SrcLoc {
    /// 1-based line number.
    pub line: u32,
    /// 1-based byte column of the mnemonic.
    pub col: u32,
}

/// A complete program: instructions, initialised data, entry point, and
/// the symbol table produced by the assembler.
///
/// Instructions live at `text_base + 4*i`; the 4-byte spacing is what the
/// instruction cache and fetch-alignment rules of the pipeline see.
///
/// # Examples
///
/// ```
/// use vpir_isa::{Inst, Program};
/// let prog = Program::from_insts(vec![Inst::NOP, Inst::HALT]);
/// assert_eq!(prog.len(), 2);
/// assert_eq!(prog.inst_at(prog.entry), Some(&Inst::NOP));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Base byte address of the text segment.
    pub text_base: u64,
    /// Decoded instructions, in address order.
    pub insts: Vec<Inst>,
    /// Initialised data segments as `(base address, bytes)`.
    pub data: Vec<(u64, Vec<u8>)>,
    /// Entry-point byte address.
    pub entry: u64,
    /// Label → byte address map (text and data labels).
    pub labels: HashMap<String, u64>,
    /// Source location of each instruction, parallel to `insts`.
    ///
    /// Populated by the assembler; empty for programs built from bare
    /// instruction lists or loaded from binary images (locations are not
    /// part of the image format).
    pub src_locs: Vec<SrcLoc>,
}

impl Program {
    /// Creates a program from a bare instruction list at [`TEXT_BASE`].
    pub fn from_insts(insts: Vec<Inst>) -> Program {
        Program {
            text_base: TEXT_BASE,
            insts,
            data: Vec::new(),
            entry: TEXT_BASE,
            labels: HashMap::new(),
            src_locs: Vec::new(),
        }
    }

    /// The source location of instruction index `i`, when known.
    pub fn src_loc(&self, i: usize) -> Option<SrcLoc> {
        self.src_locs.get(i).copied()
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The instruction at byte address `pc`, if `pc` lies in the text
    /// segment on a 4-byte boundary.
    pub fn inst_at(&self, pc: u64) -> Option<&Inst> {
        let off = pc.checked_sub(self.text_base)?;
        if off % INST_BYTES != 0 {
            return None;
        }
        self.insts.get((off / INST_BYTES) as usize)
    }

    /// The byte address of instruction index `i`.
    pub fn addr_of(&self, i: usize) -> u64 {
        self.text_base + (i as u64) * INST_BYTES
    }

    /// The address of a label.
    pub fn label(&self, name: &str) -> Option<u64> {
        self.labels.get(name).copied()
    }

    /// Loads the initialised data segments into `mem`.
    pub fn load_data(&self, mem: &mut MemImage) {
        for (base, bytes) in &self.data {
            mem.write_bytes(*base, bytes);
        }
    }

    /// Renders a disassembly listing of the text segment, with label
    /// names resolved back to addresses where known.
    ///
    /// # Examples
    ///
    /// ```
    /// use vpir_isa::asm;
    /// let prog = asm::assemble("start: addi r1, r0, 5\nhalt")?;
    /// let listing = prog.disassemble();
    /// assert!(listing.contains("start:"));
    /// assert!(listing.contains("addi r1, r0, 5"));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        // Invert the label map for annotation.
        let mut by_addr: HashMap<u64, Vec<&str>> = HashMap::new();
        for (name, addr) in &self.labels {
            by_addr.entry(*addr).or_default().push(name);
        }
        let mut out = String::new();
        for (i, inst) in self.insts.iter().enumerate() {
            let addr = self.addr_of(i);
            if let Some(names) = by_addr.get(&addr) {
                for name in names {
                    let _ = writeln!(out, "{name}:");
                }
            }
            let _ = writeln!(out, "  {addr:#8x}:  {inst}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;
    use crate::reg::Reg;

    fn sample() -> Program {
        Program::from_insts(vec![
            Inst::rri(Op::Addi, Reg::int(1), Reg::ZERO, 7),
            Inst::NOP,
            Inst::HALT,
        ])
    }

    #[test]
    fn addressing() {
        let p = sample();
        assert_eq!(p.addr_of(0), TEXT_BASE);
        assert_eq!(p.addr_of(2), TEXT_BASE + 8);
        assert_eq!(p.inst_at(TEXT_BASE + 8), Some(&Inst::HALT));
        assert_eq!(p.inst_at(TEXT_BASE + 9), None);
        assert_eq!(p.inst_at(TEXT_BASE - 4), None);
    }

    #[test]
    fn disassembly_lists_every_instruction() {
        let mut p = sample();
        p.labels.insert("entry".into(), TEXT_BASE);
        let d = p.disassemble();
        assert_eq!(d.lines().count(), 4); // 1 label + 3 instructions
        assert!(d.contains("entry:"));
        assert!(d.contains("halt"));
    }

    #[test]
    fn data_loading() {
        let mut p = sample();
        p.data.push((DATA_BASE, vec![1, 2, 3, 4]));
        let mut mem = MemImage::new();
        p.load_data(&mut mem);
        assert_eq!(mem.read_u32(DATA_BASE), 0x0403_0201);
    }
}
