//! The per-line simulator-invariant rules.
//!
//! | id | name     | scope                                           |
//! |----|----------|-------------------------------------------------|
//! | R2 | panic    | cycle-level crates + `isa/src/asm.rs` + `serve` |
//! | R4 | config   | `crates/core/src/config.rs` fields              |
//! | R7 | columnar | cycle-level crates minus the column module      |
//!
//! Cycle-level crates are the ones whose state evolves per simulated
//! cycle: [`CYCLE_CRATES`]. A panic mid-cycle would tear down a
//! simulation that a malformed workload should instead surface as an
//! error; R2 flags the one panicking shape clippy has no narrow lint
//! for, the integer-literal index. R4 keeps the experiments honest: a
//! config knob that nothing reads changes nothing.
//!
//! The rest of each invariant lives in the compiler's lints, scoped to
//! the same crates: every cycle crate's `clippy.toml` bans hash-ordered
//! collections and host-clock types, and a `deny(clippy::unwrap_used,
//! …)` in those crates' roots, in `serve` and in `isa/src/asm.rs` bans
//! the panicking calls and macros.

use crate::findings::{Finding, Rule};
use crate::lexer::SourceLine;

/// One scanned file: path relative to the analyzed root, plus lines.
pub struct File {
    pub path: String,
    pub lines: Vec<SourceLine>,
}

/// The crates whose per-cycle state must be deterministic & panic-free.
/// Each carries the shared `clippy.toml` and the crate-level panic deny.
pub const CYCLE_CRATES: [&str; 6] = ["core", "reuse", "predict", "branch", "mem", "mechanism"];

/// The one file allowed to declare `Vec<Option<…>>` state: the ROB
/// column module, where array-of-structs remnants are being burned down
/// behind the columnar accessors (R7's escape hatch is the module
/// boundary).
const COLUMN_MODULE: &str = "crates/core/src/rob.rs";

fn in_cycle_crate(path: &str) -> bool {
    CYCLE_CRATES
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/src/")))
}

fn in_panic_scope(path: &str) -> bool {
    // The service crate handles hostile byte streams on its request
    // path: a panic there takes down a connection or worker thread, so
    // it gets the same panic-freedom discipline as the cycle crates.
    in_cycle_crate(path)
        || path == "crates/isa/src/asm.rs"
        || path.starts_with("crates/serve/src/")
}

/// Runs every rule over the scanned files.
pub fn run_all(files: &[File]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in files {
        if in_cycle_crate(&f.path) && f.path != COLUMN_MODULE {
            columnar(f, &mut findings);
        }
        if in_panic_scope(&f.path) {
            literal_index(f, &mut findings);
        }
    }
    config_discipline(files, &mut findings);
    findings
}

/// Records a line-granular finding.
pub(crate) fn emit(findings: &mut Vec<Finding>, rule: Rule, file: &File, line: usize, message: String) {
    findings.push(Finding {
        rule,
        file: file.path.clone(),
        line,
        col: 0,
        message,
    });
}

// ----------------------------------------------------------------
// R7: columnar hot state.
// ----------------------------------------------------------------

/// Flags `Vec<Option<…>>` struct fields in cycle-level code outside the
/// column module. That shape is the array-of-structs layout the SoA
/// refactor removed from the hot loop: per-cycle scans over it pay an
/// occupancy branch plus a strided load per slot, where parallel
/// columns behind a validity bitmap pay one word-test per 64 slots.
fn columnar(file: &File, findings: &mut Vec<Finding>) {
    for field in &parse_structs(file) {
        if field.ty.contains("Vec<Option<") {
            emit(
                findings,
                Rule::Columnar,
                file,
                field.line,
                format!(
                    "field `{}.{}` is `{}`: Vec<Option<…>> hot state outside {COLUMN_MODULE}; split it into parallel columns with a validity bitmap",
                    field.struct_name, field.name, field.ty
                ),
            );
        }
    }
}

// ----------------------------------------------------------------
// R2: no literal indexes.
// ----------------------------------------------------------------

fn literal_index(file: &File, findings: &mut Vec<Finding>) {
    for line in live_lines(file) {
        for idx in literal_indexes(&line.code) {
            emit(
                findings,
                Rule::Panic,
                file,
                line.number,
                format!("direct indexing `[{idx}]` can panic out of bounds; use `.get({idx})`"),
            );
        }
    }
}

/// Collects integer-literal index expressions: `xs[0]`, `pair.1[12]`.
///
/// Loop-style indexing (`xs[i]`, `map[reg.index()]`) is deliberately
/// not flagged — the index is usually derived from the collection's
/// own length, and flagging it would drown real findings in noise. A
/// literal index instead encodes a fixed-size assumption that an
/// `.get(n)` makes explicit.
pub(crate) fn literal_indexes(code: &str) -> Vec<String> {
    index_exprs(code).into_iter().filter(|s| is_int_literal(s)).collect()
}

/// Whether `s` is an integer literal (digits and `_` separators).
pub(crate) fn is_int_literal(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_digit() || c == '_')
}

/// The trimmed text inside every single-line index expression `e[…]`.
pub(crate) fn index_exprs(code: &str) -> Vec<String> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    for (i, &c) in chars.iter().enumerate() {
        if c != '[' {
            continue;
        }
        // What precedes the bracket decides slice-index vs array type
        // or literal: only an expression tail (identifier, `)`, `]`)
        // makes this an index operation.
        let prev = chars[..i].iter().rev().find(|c| !c.is_whitespace());
        let is_index = prev.is_some_and(|&p| p.is_alphanumeric() || p == '_' || p == ')' || p == ']');
        if !is_index {
            continue;
        }
        let mut depth = 1;
        let mut j = i + 1;
        while j < chars.len() && depth > 0 {
            match chars[j] {
                '[' => depth += 1,
                ']' => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        if depth != 0 {
            continue; // index spans lines; out of this checker's reach
        }
        let inner: String = chars[i + 1..j - 1].iter().collect();
        out.push(inner.trim().to_string());
    }
    out
}

// ----------------------------------------------------------------
// Struct parsing shared by R4/R7.
// ----------------------------------------------------------------

/// One parsed struct field.
struct Field {
    struct_name: String,
    name: String,
    /// The declared type text (up to the trailing comma).
    ty: String,
    line: usize,
}

/// Parses `struct` declarations and their named fields from a file.
fn parse_structs(file: &File) -> Vec<Field> {
    let mut fields = Vec::new();
    let lines = &file.lines;
    let mut i = 0usize;
    while i < lines.len() {
        let code = &lines[i].code;
        let Some(name) = struct_name(code) else {
            i += 1;
            continue;
        };
        // Track braces from the declaration line to its close.
        let mut depth = 0i32;
        let mut opened = false;
        let mut end = i;
        'outer: for (j, line) in lines.iter().enumerate().skip(i) {
            for c in line.code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    ';' if !opened => {
                        // Unit or tuple struct: no named fields.
                        end = j;
                        break 'outer;
                    }
                    '}' => {
                        depth -= 1;
                        if opened && depth == 0 {
                            end = j;
                            break 'outer;
                        }
                    }
                    _ => {}
                }
            }
            end = j;
        }
        for line in &lines[i..=end] {
            if let Some((fname, ty)) = field_decl(&line.code) {
                fields.push(Field {
                    struct_name: name.clone(),
                    name: fname,
                    ty,
                    line: line.number,
                });
            }
        }
        i = end + 1;
    }
    fields
}

/// Extracts the struct name from a `struct Foo` declaration line.
fn struct_name(code: &str) -> Option<String> {
    let trimmed = code.trim_start();
    let rest = trimmed
        .strip_prefix("pub struct ")
        .or_else(|| trimmed.strip_prefix("struct "))?;
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Extracts `name` and type text from a `pub name: Type,` field line.
fn field_decl(code: &str) -> Option<(String, String)> {
    let trimmed = code.trim_start();
    let rest = trimmed.strip_prefix("pub ").unwrap_or(trimmed);
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() || name == "struct" || name == "fn" {
        return None;
    }
    let after = &rest[name.len()..];
    let after = after.trim_start();
    let ty = after.strip_prefix(':')?;
    Some((name, ty.trim().trim_end_matches(',').to_string()))
}

/// True when `tok` occurs in `code` with non-identifier neighbors.
fn has_token(code: &str, tok: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(tok) {
        let at = from + pos;
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after_ok = !code[at + tok.len()..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        from = at + tok.len();
    }
    false
}

/// Non-test lines of a file.
fn live_lines(file: &File) -> impl Iterator<Item = &SourceLine> {
    file.lines.iter().filter(|l| !l.in_test)
}

// ----------------------------------------------------------------
// R4: config discipline.
// ----------------------------------------------------------------

fn config_discipline(files: &[File], findings: &mut Vec<Finding>) {
    let Some(decl_file) = files.iter().find(|f| f.path == "crates/core/src/config.rs") else {
        return;
    };
    for field in &parse_structs(decl_file) {
        let read_elsewhere = files.iter().any(|f| {
            f.path != decl_file.path
                && live_lines(f).any(|l| has_token(&l.code, &field.name))
        });
        if !read_elsewhere {
            emit(
                findings,
                Rule::Config,
                decl_file,
                field.line,
                format!(
                    "config field `{}.{}` is never read outside {}: a knob that changes nothing misleads every experiment built on it",
                    field.struct_name, field.name, decl_file.path
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn file(path: &str, src: &str) -> File {
        File {
            path: path.to_string(),
            lines: scan(src),
        }
    }

    #[test]
    fn r2_covers_the_serve_crate_request_path() {
        let src = "fn f(xs: &[u8]) -> u8 { xs[0] }\n";
        let flagged = run_all(&[file("crates/serve/src/http.rs", src)]);
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0].rule, Rule::Panic);
        // The service's integration tests are outside src/ and exempt.
        let exempt = run_all(&[file("crates/serve/tests/http.rs", src)]);
        assert!(exempt.is_empty());
    }

    #[test]
    fn r2_literal_index_only() {
        let src = "fn f(xs: &[u64], i: usize) -> u64 { xs[0] + xs[i] + xs.first().copied().unwrap() }\n";
        let findings = run_all(&[file("crates/branch/src/x.rs", src)]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("[0]"));
    }

    #[test]
    fn r2_skips_test_modules() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert_eq!([1u8][0], 1); }\n}\n";
        let findings = run_all(&[file("crates/core/src/x.rs", src)]);
        assert!(findings.is_empty());
    }

    #[test]
    fn r4_flags_unread_config_fields() {
        let config = file(
            "crates/core/src/config.rs",
            "pub struct CoreConfig {\n    pub width: usize,\n    pub ghost: usize,\n}\n",
        );
        let user = file("crates/core/src/pipeline.rs", "fn f(w: usize) { let _ = w; }\nfn g(c: &C) -> usize { c.width }\n");
        let findings = run_all(&[config, user]);
        let r4: Vec<_> = findings.iter().filter(|f| f.rule == Rule::Config).collect();
        assert_eq!(r4.len(), 1);
        assert!(r4[0].message.contains("ghost"));
    }

    #[test]
    fn r7_flags_vec_option_fields_outside_the_column_module() {
        let src = "pub struct Table {\n    pub slots: Vec<Option<(u64, u64)>>,\n    pub tags: Vec<u64>,\n}\n";
        let bad = run_all(&[file("crates/branch/src/x.rs", src)]);
        let r7: Vec<_> = bad.iter().filter(|f| f.rule == Rule::Columnar).collect();
        assert_eq!(r7.len(), 1);
        assert!(r7[0].message.contains("Table.slots"));
        // The column module itself is the burn-down site and exempt.
        let exempt = run_all(&[file("crates/core/src/rob.rs", src)]);
        assert!(exempt.iter().all(|f| f.rule != Rule::Columnar));
        // Non-cycle crates may use whatever layout they like.
        let cold = run_all(&[file("crates/bench/src/x.rs", src)]);
        assert!(cold.iter().all(|f| f.rule != Rule::Columnar));
    }
}
