//! A two-pass assembler for the simulator's ISA.
//!
//! The workloads in `vpir-workloads` and many tests are written in this
//! assembly dialect. Syntax summary:
//!
//! ```text
//! # comment                     ; also a comment
//!         .data 0x100000        # switch to data emission (optional address)
//! table:  .word 1, 2, 3         # 4-byte values
//! big:    .quad 0xdeadbeef      # 8-byte values
//! pi:     .double 3.14159       # f64 bit pattern
//! buf:    .space 256            # zero-filled bytes
//! msg:    .asciiz "hi"          # NUL-terminated string
//!         .align 8              # pad to an 8-byte boundary
//!         .text                 # switch back to code (default mode)
//!         .entry main           # set the entry point
//! main:   li   r1, 10           # pseudo: addi r1, r0, 10
//!         la   r2, table        # pseudo: addi r2, r0, <addr of table>
//! loop:   lw   r3, 0(r2)
//!         add  r4, r4, r3
//!         addi r1, r1, -1
//!         bne  r1, r0, loop
//!         halt
//! ```
//!
//! Register names accept `rN`, `fN`, `fcc` and the MIPS ABI aliases.
//! Immediates are decimal or `0x` hexadecimal, optionally negative, or a
//! label name (which resolves to the label's byte address).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented))]

use std::collections::HashMap;
use std::fmt;

use crate::inst::Inst;
use crate::op::Op;
use crate::program::{Program, SrcLoc, DATA_BASE, INST_BYTES, TEXT_BASE};
use crate::reg::Reg;

/// An assembly error with its 1-based source line and column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number in the source text.
    pub line: usize,
    /// 1-based byte column of the offending token (sources are ASCII).
    pub col: usize,
    /// Human-readable description.
    pub msg: String,
}

impl AsmError {
    /// Renders the error anchored to a file name, `file:line:col: msg`.
    pub fn at_file(&self, file: &str) -> String {
        format!("{file}:{}:{}: {}", self.line, self.col, self.msg)
    }
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for AsmError {}

fn err<T>(line: usize, col: usize, msg: impl Into<String>) -> Result<T, AsmError> {
    Err(AsmError {
        line,
        col,
        msg: msg.into(),
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Text,
    Data,
}

/// Assembles `source` into a [`Program`].
///
/// # Errors
///
/// Returns an [`AsmError`] describing the first syntax error, unknown
/// mnemonic, bad operand, duplicate label, or undefined label reference.
///
/// # Examples
///
/// ```
/// use vpir_isa::{asm, Machine, Reg};
/// let prog = asm::assemble(
///     "        li   r1, 5\n\
///      loop:   addi r2, r2, 3\n\
///              addi r1, r1, -1\n\
///              bne  r1, r0, loop\n\
///              halt\n",
/// )?;
/// let mut m = Machine::new(&prog);
/// m.run(100)?;
/// assert_eq!(m.regs.read(Reg::int(2)), 15);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    let lines = preprocess(source);

    // Pass 1: compute label addresses.
    let mut labels: HashMap<String, u64> = HashMap::new();
    let mut text_cursor = TEXT_BASE;
    let mut data_cursor = DATA_BASE;
    let mut mode = Mode::Text;
    for line in &lines {
        for (label, lcol) in &line.labels {
            let addr = match mode {
                Mode::Text => text_cursor,
                Mode::Data => data_cursor,
            };
            if labels.insert(label.clone(), addr).is_some() {
                return err(line.no, *lcol, format!("duplicate label `{label}`"));
            }
        }
        match &line.body {
            Body::Empty => {}
            Body::Directive(name, dcol, args) => match name.as_str() {
                ".text" => mode = Mode::Text,
                ".data" => {
                    mode = Mode::Data;
                    if let Some(arg) = args.first() {
                        data_cursor = parse_u64(arg.as_str(), line.no, arg.col)?;
                    }
                }
                ".entry" => {}
                _ => {
                    if mode != Mode::Data {
                        return err(line.no, *dcol, format!("`{name}` outside .data"));
                    }
                    data_cursor += directive_size(name, *dcol, args, data_cursor, line.no)?;
                }
            },
            Body::Inst(mnemonic, mcol, args) => {
                if mode != Mode::Text {
                    return err(line.no, *mcol, "instruction inside .data");
                }
                text_cursor += INST_BYTES * inst_count(mnemonic, args, line.no)?;
            }
        }
    }

    // Pass 2: emit.
    let mut insts = Vec::new();
    let mut src_locs = Vec::new();
    let mut segments: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut seg: Option<(u64, Vec<u8>)> = None;
    let mut data_cursor = DATA_BASE;
    let mut entry: Option<u64> = None;
    let mut pc = TEXT_BASE;

    let flush = |seg: &mut Option<(u64, Vec<u8>)>, segments: &mut Vec<(u64, Vec<u8>)>| {
        if let Some(s) = seg.take() {
            if !s.1.is_empty() {
                segments.push(s);
            }
        }
    };

    for line in &lines {
        match &line.body {
            Body::Empty => {}
            Body::Directive(name, dcol, args) => match name.as_str() {
                ".text" => {
                    flush(&mut seg, &mut segments);
                }
                ".data" => {
                    flush(&mut seg, &mut segments);
                    if let Some(arg) = args.first() {
                        data_cursor = parse_u64(arg.as_str(), line.no, arg.col)?;
                    }
                    seg = Some((data_cursor, Vec::new()));
                }
                ".entry" => {
                    let target = args
                        .first()
                        .ok_or_else(|| AsmError {
                            line: line.no,
                            col: *dcol,
                            msg: ".entry needs a label".into(),
                        })?;
                    entry = Some(*labels.get(target.as_str()).ok_or_else(|| AsmError {
                        line: line.no,
                        col: target.col,
                        msg: format!("undefined label `{}`", target.as_str()),
                    })?);
                }
                _ => {
                    let s = seg.get_or_insert((data_cursor, Vec::new()));
                    emit_data(name, *dcol, args, s, &labels, line.no)?;
                    data_cursor = s.0 + s.1.len() as u64;
                }
            },
            Body::Inst(mnemonic, mcol, operands) => {
                for inst in encode(mnemonic, *mcol, operands, pc, &labels, line.no)? {
                    insts.push(inst);
                    src_locs.push(SrcLoc {
                        line: line.no as u32,
                        col: *mcol as u32,
                    });
                    pc += INST_BYTES;
                }
            }
        }
    }
    flush(&mut seg, &mut segments);

    Ok(Program {
        text_base: TEXT_BASE,
        insts,
        data: segments,
        entry: entry.unwrap_or(TEXT_BASE),
        labels,
        src_locs,
    })
}

/// One operand with the 1-based column of its first character.
#[derive(Debug, Clone)]
struct Arg {
    text: String,
    col: usize,
}

impl Arg {
    fn as_str(&self) -> &str {
        &self.text
    }
}

#[derive(Debug)]
enum Body {
    /// Directive or mnemonic bodies carry the head token's column.
    Empty,
    Directive(String, usize, Vec<Arg>),
    Inst(String, usize, Vec<Arg>),
}

#[derive(Debug)]
struct Line {
    no: usize,
    labels: Vec<(String, usize)>,
    body: Body,
}

/// Trims `s`, returning the trimmed slice and the 0-based offset (relative
/// to the start of the line) where it begins.
fn trim_indexed(s: &str, base: usize) -> (&str, usize) {
    let start = s.len() - s.trim_start().len();
    (s.trim(), base + start)
}

fn preprocess(source: &str) -> Vec<Line> {
    let mut out = Vec::new();
    for (i, raw) in source.lines().enumerate() {
        let no = i + 1;
        let code = strip_comment(raw);
        let (mut rest, mut base) = trim_indexed(code, 0);
        let mut labels = Vec::new();
        while let Some(colon) = find_label(rest) {
            let (name, name_off) = trim_indexed(&rest[..colon], base);
            labels.push((name.to_string(), name_off + 1));
            let (r, b) = trim_indexed(&rest[colon + 1..], base + colon + 1);
            rest = r;
            base = b;
        }
        let body = if rest.is_empty() {
            Body::Empty
        } else {
            let (name, args, args_off) = split_head(rest, base);
            let args = split_args(args, args_off);
            if name.starts_with('.') {
                Body::Directive(name.to_string(), base + 1, args)
            } else {
                Body::Inst(name.to_string(), base + 1, args)
            }
        };
        out.push(Line { no, labels, body });
    }
    out
}

/// Strips `#` and `;` comments, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' | ';' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Finds a leading `label:` prefix (identifier followed by a colon).
fn find_label(s: &str) -> Option<usize> {
    let colon = s.find(':')?;
    let candidate = s[..colon].trim();
    if !candidate.is_empty()
        && candidate
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
    {
        Some(colon)
    } else {
        None
    }
}

/// Splits the head token from the operand tail, returning the tail's
/// 0-based offset relative to the start of the line.
fn split_head(s: &str, base: usize) -> (&str, &str, usize) {
    match s.find(char::is_whitespace) {
        Some(i) => {
            let (rest, off) = trim_indexed(&s[i..], base + i);
            (&s[..i], rest, off)
        }
        None => (s, "", base + s.len()),
    }
}

/// Splits a comma-separated operand list, respecting quoted strings.
/// Each operand carries the 1-based column of its first character.
fn split_args(s: &str, base: usize) -> Vec<Arg> {
    let push = |args: &mut Vec<Arg>, piece: &str, off: usize| {
        let (text, start) = trim_indexed(piece, off);
        args.push(Arg {
            text: text.to_string(),
            col: start + 1,
        });
    };
    let mut args = Vec::new();
    let mut in_str = false;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                push(&mut args, &s[start..i], base + start);
                start = i + 1;
            }
            _ => {}
        }
    }
    if !s[start..].trim().is_empty() {
        push(&mut args, &s[start..], base + start);
    }
    args
}

fn parse_u64(s: &str, line: usize, col: usize) -> Result<u64, AsmError> {
    parse_i64_raw(s)
        .map(|v| v as u64)
        .ok_or_else(|| AsmError {
            line,
            col,
            msg: format!("bad number `{s}`"),
        })
}

fn parse_i64_raw(s: &str) -> Option<i64> {
    let s = s.trim();
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let body = body.trim();
    let mag = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        u64::from_str_radix(&hex.replace('_', ""), 16).ok()?
    } else {
        body.replace('_', "").parse::<u64>().ok()?
    };
    Some(if neg {
        (mag as i64).wrapping_neg()
    } else {
        mag as i64
    })
}

/// Parses an immediate: a number or a label.
fn parse_imm(
    s: &str,
    labels: &HashMap<String, u64>,
    line: usize,
    col: usize,
) -> Result<i64, AsmError> {
    if let Some(v) = parse_i64_raw(s) {
        return Ok(v);
    }
    if let Some(&addr) = labels.get(s.trim()) {
        return Ok(addr as i64);
    }
    err(line, col, format!("bad immediate or undefined label `{s}`"))
}

fn parse_reg(s: &str, line: usize, col: usize) -> Result<Reg, AsmError> {
    Reg::parse(s).ok_or_else(|| AsmError {
        line,
        col,
        msg: format!("bad register `{s}`"),
    })
}

/// Parses a `disp(base)` memory operand; a bare label means `label(r0)`.
fn parse_mem_operand(
    s: &str,
    labels: &HashMap<String, u64>,
    line: usize,
    col: usize,
) -> Result<(i64, Reg), AsmError> {
    let s = s.trim();
    if let Some(open) = s.find('(') {
        let close = s.rfind(')').ok_or_else(|| AsmError {
            line,
            col,
            msg: format!("unclosed memory operand `{s}`"),
        })?;
        let disp_str = s[..open].trim();
        let disp = if disp_str.is_empty() {
            0
        } else {
            parse_imm(disp_str, labels, line, col)?
        };
        let base = parse_reg(&s[open + 1..close], line, col + open + 1)?;
        Ok((disp, base))
    } else {
        Ok((parse_imm(s, labels, line, col)?, Reg::ZERO))
    }
}

fn directive_size(
    name: &str,
    dcol: usize,
    args: &[Arg],
    cursor: u64,
    line: usize,
) -> Result<u64, AsmError> {
    match name {
        ".byte" => Ok(args.len() as u64),
        ".half" => Ok(2 * args.len() as u64),
        ".word" => Ok(4 * args.len() as u64),
        ".quad" | ".double" => Ok(8 * args.len() as u64),
        ".space" => {
            let n = args.first().ok_or_else(|| AsmError {
                line,
                col: dcol,
                msg: ".space needs a size".into(),
            })?;
            parse_u64(n.as_str(), line, n.col)
        }
        ".asciiz" => {
            let s = args.first().ok_or_else(|| AsmError {
                line,
                col: dcol,
                msg: ".asciiz needs a string".into(),
            })?;
            Ok(unquote(s.as_str(), line, s.col)?.len() as u64 + 1)
        }
        ".align" => {
            let a = args.first().ok_or_else(|| AsmError {
                line,
                col: dcol,
                msg: ".align needs a value".into(),
            })?;
            let n = parse_u64(a.as_str(), line, a.col)?;
            if n == 0 || !n.is_power_of_two() {
                return err(line, a.col, ".align requires a power of two");
            }
            Ok((n - cursor % n) % n)
        }
        _ => err(line, dcol, format!("unknown directive `{name}`")),
    }
}

fn unquote(s: &str, line: usize, col: usize) -> Result<Vec<u8>, AsmError> {
    let s = s.trim();
    let inner = s
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| AsmError {
            line,
            col,
            msg: format!("expected quoted string, got `{s}`"),
        })?;
    let mut out = Vec::new();
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push(b'\n'),
                Some('t') => out.push(b'\t'),
                Some('0') => out.push(0),
                Some('\\') => out.push(b'\\'),
                Some('"') => out.push(b'"'),
                other => return err(line, col, format!("bad escape `\\{other:?}`")),
            }
        } else {
            out.push(c as u8);
        }
    }
    Ok(out)
}

fn emit_data(
    name: &str,
    dcol: usize,
    args: &[Arg],
    seg: &mut (u64, Vec<u8>),
    labels: &HashMap<String, u64>,
    line: usize,
) -> Result<(), AsmError> {
    let bytes = &mut seg.1;
    match name {
        ".byte" => {
            for a in args {
                bytes.push(parse_imm(a.as_str(), labels, line, a.col)? as u8);
            }
        }
        ".half" => {
            for a in args {
                bytes.extend_from_slice(
                    &(parse_imm(a.as_str(), labels, line, a.col)? as u16).to_le_bytes(),
                );
            }
        }
        ".word" => {
            for a in args {
                bytes.extend_from_slice(
                    &(parse_imm(a.as_str(), labels, line, a.col)? as u32).to_le_bytes(),
                );
            }
        }
        ".quad" => {
            for a in args {
                bytes.extend_from_slice(
                    &(parse_imm(a.as_str(), labels, line, a.col)? as u64).to_le_bytes(),
                );
            }
        }
        ".double" => {
            for a in args {
                let v: f64 = a.as_str().trim().parse().map_err(|_| AsmError {
                    line,
                    col: a.col,
                    msg: format!("bad float `{}`", a.as_str()),
                })?;
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        ".space" => {
            let arg = args.first().ok_or_else(|| AsmError {
                line,
                col: dcol,
                msg: ".space needs a size".into(),
            })?;
            let n = parse_u64(arg.as_str(), line, arg.col)?;
            bytes.resize(bytes.len() + n as usize, 0);
        }
        ".asciiz" => {
            let arg = args.first().ok_or_else(|| AsmError {
                line,
                col: dcol,
                msg: ".asciiz needs a string".into(),
            })?;
            bytes.extend_from_slice(&unquote(arg.as_str(), line, arg.col)?);
            bytes.push(0);
        }
        ".align" => {
            let cursor = seg.0 + bytes.len() as u64;
            let pad = directive_size(name, dcol, args, cursor, line)?;
            bytes.resize(bytes.len() + pad as usize, 0);
        }
        _ => return err(line, dcol, format!("unknown directive `{name}`")),
    }
    Ok(())
}

/// Number of machine instructions a statement expands to (pass 1).
fn inst_count(mnemonic: &str, args: &[Arg], _line: usize) -> Result<u64, AsmError> {
    match mnemonic {
        "li" => {
            // Sized by the immediate's magnitude; a label operand sizes
            // like `la` (labels always expand to lui+ori).
            match args.get(1).and_then(|a| parse_i64_raw(a.as_str())) {
                Some(v) => Ok(li_expansion_len(v)),
                None => Ok(2),
            }
        }
        "la" => Ok(2),
        _ => Ok(1),
    }
}

/// How many instructions `li` needs for value `v`.
fn li_expansion_len(v: i64) -> u64 {
    if i16::try_from(v).is_ok() {
        1
    } else if u32::try_from(v).is_ok() {
        2 // lui + ori
    } else if i32::try_from(v).is_ok() {
        4 // lui + ori + sll 32 + sra 32 (sign extension)
    } else {
        6 // lui + ori + sll 16 + ori + sll 16 + ori
    }
}

/// Emits the `li`/`la` expansion for `v` into `dst` (real assemblers
/// expand large immediates through `lui`/`ori` exactly like this).
fn expand_li(dst: Reg, v: i64) -> Vec<Inst> {
    match li_expansion_len(v) {
        1 => vec![Inst::rri(Op::Addi, dst, Reg::ZERO, v)],
        2 => vec![
            Inst::rri(Op::Lui, dst, Reg::ZERO, (v >> 16) & 0xffff),
            Inst::rri(Op::Ori, dst, dst, v & 0xffff),
        ],
        4 => vec![
            Inst::rri(Op::Lui, dst, Reg::ZERO, (v >> 16) & 0xffff),
            Inst::rri(Op::Ori, dst, dst, v & 0xffff),
            Inst::rri(Op::Sll, dst, dst, 32),
            Inst::rri(Op::Sra, dst, dst, 32),
        ],
        _ => vec![
            Inst::rri(Op::Lui, dst, Reg::ZERO, (v >> 48) & 0xffff),
            Inst::rri(Op::Ori, dst, dst, (v >> 32) & 0xffff),
            Inst::rri(Op::Sll, dst, dst, 16),
            Inst::rri(Op::Ori, dst, dst, (v >> 16) & 0xffff),
            Inst::rri(Op::Sll, dst, dst, 16),
            Inst::rri(Op::Ori, dst, dst, v & 0xffff),
        ],
    }
}

fn encode(
    mnemonic: &str,
    mcol: usize,
    args: &[Arg],
    pc: u64,
    labels: &HashMap<String, u64>,
    line: usize,
) -> Result<Vec<Inst>, AsmError> {
    let need = |n: usize| -> Result<(), AsmError> {
        if args.len() == n {
            Ok(())
        } else {
            err(
                line,
                mcol,
                format!("`{mnemonic}` expects {n} operands, got {}", args.len()),
            )
        }
    };
    let arg = |i: usize| -> Result<&Arg, AsmError> {
        args.get(i).ok_or_else(|| AsmError {
            line,
            col: mcol,
            msg: format!("`{mnemonic}` is missing operand {}", i + 1),
        })
    };
    let reg = |i: usize| {
        let a = arg(i)?;
        parse_reg(a.as_str(), line, a.col)
    };
    let imm = |i: usize| {
        let a = arg(i)?;
        parse_imm(a.as_str(), labels, line, a.col)
    };

    // Pseudo-instructions first.
    match mnemonic {
        "li" | "la" => {
            need(2)?;
            let dst = reg(0)?;
            let v = imm(1)?;
            // `li` with a small literal stays one instruction; labels and
            // large values expand. `la` is always the 2-instruction form
            // so pass-1 sizing stays address-independent.
            return Ok(if mnemonic == "la" {
                vec![
                    Inst::rri(Op::Lui, dst, Reg::ZERO, (v >> 16) & 0xffff),
                    Inst::rri(Op::Ori, dst, dst, v & 0xffff),
                ]
            } else if parse_i64_raw(arg(1)?.as_str()).is_none() {
                // li with a label: fixed la-style expansion.
                vec![
                    Inst::rri(Op::Lui, dst, Reg::ZERO, (v >> 16) & 0xffff),
                    Inst::rri(Op::Ori, dst, dst, v & 0xffff),
                ]
            } else {
                expand_li(dst, v)
            });
        }
        "move" => {
            need(2)?;
            return Ok(vec![Inst::rrr(Op::Or, reg(0)?, reg(1)?, Reg::ZERO)]);
        }
        "b" => {
            need(1)?;
            return Ok(vec![Inst::branch2(Op::Beq, Reg::ZERO, Reg::ZERO, imm(0)? as u64)]);
        }
        "neg" => {
            need(2)?;
            return Ok(vec![Inst::rrr(Op::Sub, reg(0)?, Reg::ZERO, reg(1)?)]);
        }
        "not" => {
            need(2)?;
            return Ok(vec![Inst::rrr(Op::Nor, reg(0)?, reg(1)?, Reg::ZERO)]);
        }
        _ => {}
    }

    let op = Op::parse(mnemonic)
        .ok_or_else(|| AsmError {
            line,
            col: mcol,
            msg: format!("unknown mnemonic `{mnemonic}`"),
        })?;
    let _ = pc;

    Ok(vec![match op {
        Op::Add | Op::Sub | Op::Mul | Op::Mulh | Op::Div | Op::Rem | Op::And | Op::Or | Op::Xor
        | Op::Nor | Op::Sllv | Op::Srlv | Op::Srav | Op::Slt | Op::Sltu | Op::AddF | Op::SubF
        | Op::MulF | Op::DivF => {
            need(3)?;
            Inst::rrr(op, reg(0)?, reg(1)?, reg(2)?)
        }
        Op::Addi | Op::Andi | Op::Ori | Op::Xori | Op::Slti | Op::Sltiu | Op::Sll | Op::Srl
        | Op::Sra => {
            need(3)?;
            Inst::rri(op, reg(0)?, reg(1)?, imm(2)?)
        }
        Op::Lui => {
            need(2)?;
            Inst::rri(op, reg(0)?, Reg::ZERO, imm(1)?)
        }
        Op::SqrtF | Op::AbsF | Op::NegF | Op::MovF | Op::CvtFI | Op::CvtIF => {
            need(2)?;
            Inst::rr(op, reg(0)?, reg(1)?)
        }
        Op::CeqF | Op::CltF | Op::CleF => {
            need(2)?;
            Inst::rrr(op, Reg::FCC, reg(0)?, reg(1)?)
        }
        Op::Lb | Op::Lbu | Op::Lh | Op::Lhu | Op::Lw | Op::Lwu | Op::Ld | Op::LdF => {
            need(2)?;
            let a = arg(1)?;
            let (disp, base) = parse_mem_operand(a.as_str(), labels, line, a.col)?;
            Inst::mem(op, reg(0)?, base, disp)
        }
        Op::Sb | Op::Sh | Op::Sw | Op::Sd | Op::SdF => {
            need(2)?;
            let a = arg(1)?;
            let (disp, base) = parse_mem_operand(a.as_str(), labels, line, a.col)?;
            Inst::store(op, reg(0)?, base, disp)
        }
        Op::Beq | Op::Bne => {
            need(3)?;
            Inst::branch2(op, reg(0)?, reg(1)?, imm(2)? as u64)
        }
        Op::Blez | Op::Bgtz | Op::Bltz | Op::Bgez => {
            need(2)?;
            Inst::branch1(op, reg(0)?, imm(1)? as u64)
        }
        Op::Bc1t | Op::Bc1f => {
            need(1)?;
            Inst::branch1(op, Reg::FCC, imm(0)? as u64)
        }
        Op::J | Op::Jal => {
            need(1)?;
            Inst::jump(op, imm(0)? as u64)
        }
        Op::Jr => {
            need(1)?;
            Inst::jump_reg(op, None, reg(0)?)
        }
        Op::Jalr => match args.len() {
            1 => Inst::jump_reg(op, Some(Reg::RA), reg(0)?),
            2 => Inst::jump_reg(op, Some(reg(0)?), reg(1)?),
            n => {
                return err(line, mcol, format!("`jalr` expects 1 or 2 operands, got {n}"))
            }
        },
        Op::Nop => {
            need(0)?;
            Inst::NOP
        }
        Op::Halt => {
            need(0)?;
            Inst::HALT
        }
    }])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::program::DATA_BASE;

    #[test]
    fn basic_loop_assembles_and_runs() {
        let prog = assemble(
            "        li   r1, 4\n\
             loop:   add  r2, r2, r1\n\
                     addi r1, r1, -1\n\
                     bne  r1, r0, loop\n\
                     halt\n",
        )
        .unwrap();
        assert_eq!(prog.len(), 5);
        let mut m = Machine::new(&prog);
        m.run(100).unwrap();
        assert_eq!(m.regs.read(Reg::int(2)), 10);
    }

    #[test]
    fn data_directives() {
        let prog = assemble(
            "        .data 0x200000\n\
             vals:   .word 1, 2, 3\n\
             q:      .quad 0xdeadbeefcafe\n\
             s:      .asciiz \"ab\"\n\
                     .align 4\n\
             buf:    .space 16\n\
                     .text\n\
                     la   r1, vals\n\
                     lw   r2, 4(r1)\n\
                     halt\n",
        )
        .unwrap();
        assert_eq!(prog.label("vals"), Some(0x20_0000));
        assert_eq!(prog.label("q"), Some(0x20_000c));
        assert_eq!(prog.label("s"), Some(0x20_0014));
        // "ab\0" = 3 bytes -> 0x200017, aligned to 4 -> 0x200018
        assert_eq!(prog.label("buf"), Some(0x20_0018));
        let mut m = Machine::new(&prog);
        m.run(10).unwrap();
        assert_eq!(m.regs.read(Reg::int(2)), 2);
    }

    #[test]
    fn default_data_base_used_without_address() {
        let prog = assemble(".data\nx: .word 7\n.text\nhalt\n").unwrap();
        assert_eq!(prog.label("x"), Some(DATA_BASE));
    }

    #[test]
    fn entry_directive() {
        let prog = assemble(
            "        .entry main\n\
             other:  nop\n\
             main:   halt\n",
        )
        .unwrap();
        assert_eq!(prog.entry, prog.label("main").unwrap());
    }

    #[test]
    fn mem_operand_forms() {
        let prog = assemble(
            ".data 0x300000\nv: .word 42\n.text\nlw r1, v(r0)\nlw r2, v\nhalt\n",
        )
        .unwrap();
        let mut m = Machine::new(&prog);
        m.run(10).unwrap();
        assert_eq!(m.regs.read(Reg::int(1)), 42);
        assert_eq!(m.regs.read(Reg::int(2)), 42);
    }

    #[test]
    fn fp_syntax() {
        let prog = assemble(
            ".data 0x300000\na: .double 2.5\nb: .double 1.5\n.text\n\
             l.f f1, a\nl.f f2, b\nadd.f f3, f1, f2\nc.lt.f f2, f1\nbc1t yes\nhalt\nyes: li r9, 1\nhalt\n",
        )
        .unwrap();
        let mut m = Machine::new(&prog);
        m.run(20).unwrap();
        assert_eq!(m.regs.read_f64(Reg::fp(3)), 4.0);
        assert_eq!(m.regs.read(Reg::int(9)), 1);
    }

    #[test]
    fn comments_and_blank_lines() {
        let prog = assemble("# header\n\n  ; full comment\n  nop # trailing\n  halt\n").unwrap();
        assert_eq!(prog.len(), 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("nop\nbogus r1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("bogus"));

        let e = assemble("add r1, r2\n").unwrap_err();
        assert!(e.msg.contains("expects 3"));

        let e = assemble("x: nop\nx: nop\n").unwrap_err();
        assert!(e.msg.contains("duplicate"));

        let e = assemble("beq r1, r2, nowhere\n").unwrap_err();
        assert!(e.msg.contains("nowhere"));
    }

    #[test]
    fn errors_carry_columns() {
        // The bad register operand `rr2` starts at column 13.
        let e = assemble("nop\n    add r1, rr2, r3\n").unwrap_err();
        assert_eq!((e.line, e.col), (2, 13));
        assert!(e.msg.contains("rr2"));

        // An unknown mnemonic points at the mnemonic itself.
        let e = assemble("  bogus r1\n").unwrap_err();
        assert_eq!((e.line, e.col), (1, 3));

        // A bad branch target points at the target operand.
        let e = assemble("beq r1, r2, nowhere\n").unwrap_err();
        assert_eq!((e.line, e.col), (1, 13));

        // Duplicate labels point at the redefinition.
        let e = assemble("x: nop\n  x: nop\n").unwrap_err();
        assert_eq!((e.line, e.col), (2, 3));

        // Errors after a label prefix still measure from line start.
        let e = assemble("lab:   lw r1, 8(zz)\n").unwrap_err();
        assert_eq!((e.line, e.col), (1, 17));

        assert_eq!(
            e.at_file("prog.s"),
            format!("prog.s:1:17: {}", e.msg)
        );
    }

    #[test]
    fn src_locs_track_expansion() {
        let prog = assemble("  li r1, 0x123456\n  nop\nl:  halt\n").unwrap();
        // li expands to lui+ori: both map to line 1 col 3.
        assert_eq!(prog.len(), 4);
        assert_eq!(prog.src_locs.len(), prog.len());
        assert_eq!((prog.src_locs[0].line, prog.src_locs[0].col), (1, 3));
        assert_eq!((prog.src_locs[1].line, prog.src_locs[1].col), (1, 3));
        assert_eq!((prog.src_locs[2].line, prog.src_locs[2].col), (2, 3));
        assert_eq!((prog.src_locs[3].line, prog.src_locs[3].col), (3, 5));
    }

    #[test]
    fn pseudo_instructions() {
        let prog = assemble(
            "li r1, -7\nmove r2, r1\nneg r3, r1\nnot r4, r0\nb end\nnop\nend: halt\n",
        )
        .unwrap();
        let mut m = Machine::new(&prog);
        m.run(20).unwrap();
        assert_eq!(m.regs.read(Reg::int(2)) as i64, -7);
        assert_eq!(m.regs.read(Reg::int(3)) as i64, 7);
        assert_eq!(m.regs.read(Reg::int(4)), u64::MAX);
        assert_eq!(m.icount, 6); // nop after `b` skipped
    }

    #[test]
    fn call_return_with_stack() {
        let prog = assemble(
            "        jal  fun\n\
                     halt\n\
             fun:    addi sp, sp, -8\n\
                     sd   ra, 0(sp)\n\
                     li   r5, 77\n\
                     ld   ra, 0(sp)\n\
                     addi sp, sp, 8\n\
                     jr   ra\n",
        )
        .unwrap();
        let mut m = Machine::new(&prog);
        m.run(20).unwrap();
        assert!(m.halted);
        assert_eq!(m.regs.read(Reg::int(5)), 77);
    }

    #[test]
    fn hex_and_underscore_numbers() {
        let prog = assemble("li r1, 0xff\nli r2, 1_000\nli r3, -0x10\nhalt\n").unwrap();
        let mut m = Machine::new(&prog);
        m.run(10).unwrap();
        assert_eq!(m.regs.read(Reg::int(1)), 0xff);
        assert_eq!(m.regs.read(Reg::int(2)), 1000);
        assert_eq!(m.regs.read(Reg::int(3)) as i64, -16);
    }

    #[test]
    fn jalr_forms() {
        let prog = assemble(
            "la r1, fun\njalr r1\nhalt\nfun: li r5, 3\njr ra\n",
        )
        .unwrap();
        let mut m = Machine::new(&prog);
        m.run(20).unwrap();
        assert_eq!(m.regs.read(Reg::int(5)), 3);
        assert!(m.halted);
    }
}
