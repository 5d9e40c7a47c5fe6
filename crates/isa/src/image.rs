//! A binary container format for programs.
//!
//! `VPIR` images hold a program's encoded text segment, its data
//! segments, and its entry point in one deterministic byte string, so
//! programs can be assembled once and shipped, hashed, or loaded by the
//! `vpir` command-line simulator.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! magic   "VPIR"            4 bytes
//! version u32               currently 1
//! text_base u64, entry u64
//! ninsts  u32               then ninsts encoded 32-bit words
//! nsegs   u32               then per segment: base u64, len u32, bytes
//! ```
//!
//! Labels are not stored: an image is a *load* format, not a link
//! format.

use std::fmt;

use crate::encoding::{self, EncodeError};
use crate::program::{Program, TEXT_BASE};

const MAGIC: &[u8; 4] = b"VPIR";
const VERSION: u32 = 1;

/// Why an image failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// The magic bytes or version did not match.
    BadHeader,
    /// The byte string ended before the declared contents.
    Truncated,
    /// An instruction word had an invalid opcode.
    BadInstruction {
        /// Index of the bad word in the text segment.
        index: usize,
    },
    /// The program could not be encoded (image writing only).
    Encode {
        /// Index of the unencodable instruction.
        index: usize,
        /// The underlying encoding error.
        error: EncodeError,
    },
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::BadHeader => write!(f, "not a VPIR image (bad magic or version)"),
            ImageError::Truncated => write!(f, "image truncated"),
            ImageError::BadInstruction { index } => {
                write!(f, "invalid instruction word at index {index}")
            }
            ImageError::Encode { index, error } => {
                write!(f, "instruction {index} cannot be encoded: {error}")
            }
        }
    }
}

impl std::error::Error for ImageError {}

/// Serialises `program` into a `VPIR` image.
///
/// # Errors
///
/// Returns [`ImageError::Encode`] if an instruction does not fit the
/// binary encoding (assembled programs always do; see
/// [`crate::encoding`]).
///
/// # Examples
///
/// ```
/// use vpir_isa::{asm, image};
/// let prog = asm::assemble("li r1, 7\nhalt")?;
/// let bytes = image::write(&prog)?;
/// let back = image::read(&bytes)?;
/// assert_eq!(back.insts, prog.insts);
/// assert_eq!(back.entry, prog.entry);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn write(program: &Program) -> Result<Vec<u8>, ImageError> {
    let words = encoding::encode_program(&program.insts, program.text_base)
        .map_err(|(index, error)| ImageError::Encode { index, error })?;
    let mut out = Vec::with_capacity(32 + words.len() * 4);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&program.text_base.to_le_bytes());
    out.extend_from_slice(&program.entry.to_le_bytes());
    out.extend_from_slice(&(words.len() as u32).to_le_bytes());
    for w in &words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.extend_from_slice(&(program.data.len() as u32).to_le_bytes());
    for (base, bytes) in &program.data {
        out.extend_from_slice(&base.to_le_bytes());
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(bytes);
    }
    Ok(out)
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ImageError> {
        let end = self.pos.checked_add(n).ok_or(ImageError::Truncated)?;
        if end > self.bytes.len() {
            return Err(ImageError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, ImageError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, ImageError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

/// Parses a `VPIR` image back into a [`Program`].
///
/// # Errors
///
/// Returns an [`ImageError`] for malformed input.
pub fn read(bytes: &[u8]) -> Result<Program, ImageError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(4)? != MAGIC || r.u32()? != VERSION {
        return Err(ImageError::BadHeader);
    }
    let text_base = r.u64()?;
    let entry = r.u64()?;
    let ninsts = r.u32()? as usize;
    let mut words = Vec::with_capacity(ninsts.min(1 << 20));
    for _ in 0..ninsts {
        words.push(r.u32()?);
    }
    let insts = words
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            encoding::decode(w, text_base + i as u64 * 4)
                .ok_or(ImageError::BadInstruction { index: i })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let nsegs = r.u32()? as usize;
    let mut data = Vec::with_capacity(nsegs.min(1 << 16));
    for _ in 0..nsegs {
        let base = r.u64()?;
        let len = r.u32()? as usize;
        data.push((base, r.take(len)?.to_vec()));
    }
    Ok(Program {
        text_base,
        insts,
        data,
        entry,
        labels: Default::default(),
        src_locs: Vec::new(),
    })
}

/// Convenience: [`write()`] with the default text base asserted (images
/// produced by the assembler).
pub fn write_default(program: &Program) -> Result<Vec<u8>, ImageError> {
    debug_assert_eq!(program.text_base, TEXT_BASE);
    write(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm;
    use crate::Machine;

    fn sample() -> Program {
        asm::assemble(
            "        .data 0x200000
             v:      .word 10, 20
                     .text
                     la   r2, v
                     lw   r1, 0(r2)
                     lw   r3, 4(r2)
                     add  r4, r1, r3
                     halt",
        )
        .expect("assembles")
    }

    #[test]
    fn roundtrip_preserves_everything_but_labels() {
        let p = sample();
        let bytes = write(&p).expect("encodable");
        let q = read(&bytes).expect("parses");
        assert_eq!(q.insts, p.insts);
        assert_eq!(q.entry, p.entry);
        assert_eq!(q.text_base, p.text_base);
        assert_eq!(q.data, p.data);
        assert!(q.labels.is_empty());
    }

    #[test]
    fn loaded_image_runs_identically() {
        let p = sample();
        let q = read(&write(&p).expect("write")).expect("read");
        let mut a = Machine::new(&p);
        let mut b = Machine::new(&q);
        a.run(1000).expect("runs");
        b.run(1000).expect("runs");
        assert_eq!(a.icount, b.icount);
        assert_eq!(a.regs, b.regs);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = write(&sample()).expect("write");
        bytes[0] = b'X';
        assert!(matches!(read(&bytes), Err(ImageError::BadHeader)));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = write(&sample()).expect("write");
        for cut in [3, 7, 11, 19, 27, bytes.len() - 1] {
            assert!(
                matches!(
                    read(&bytes[..cut]),
                    Err(ImageError::Truncated | ImageError::BadHeader)
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn corrupting_a_word_changes_the_decoded_program() {
        // Every 6-bit opcode is assigned, so corruption cannot be
        // *detected* at decode — but it must never be silently ignored.
        let p = sample();
        let mut bytes = write(&p).expect("write");
        // First instruction word starts after the 28-byte header.
        bytes[28..32].copy_from_slice(&0xFFFF_FFFFu32.to_le_bytes());
        let q = read(&bytes).expect("still structurally valid");
        assert_ne!(q.insts[0], p.insts[0]);
        assert_eq!(q.insts[1..], p.insts[1..]);
    }
}
