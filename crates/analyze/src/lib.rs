//! Simulator-invariant static analysis for the vpir workspace.
//!
//! `vpir-analyze` walks the workspace sources and checks invariants
//! that `rustc` and clippy cannot see because they are facts about
//! *this simulator*, not about Rust. The per-line rules:
//!
//! - **R1 determinism** — cycle-level crates must not use hash-ordered
//!   collections; two runs of the same experiment must be bit-equal.
//! - **R2 panic-freedom** — pipeline hot paths must not contain
//!   `unwrap`/`expect`/`panic!`-family macros or literal indexing.
//! - **R4 config discipline** — every config field must be read
//!   outside its definition.
//! - **R6 wall clock** — cycle-level crates must not read host time.
//! - **R7 columnar** — cycle-level hot state must not be
//!   `Vec<Option<…>>` outside the ROB column module.
//!
//! The interprocedural passes R8–R10 ([`passes`]) prove panic-freedom
//! of the simulator entry points and check concurrency determinism and
//! lock order. Stats counters need no rule: their completeness and
//! `u64` width are compile-time properties of the counter schema in
//! `crates/bench/src/state.rs`.
//!
//! A finding is suppressed (recorded but not fatal) by appending
//! `// vpir: allow(rule, reason)` to the offending line. The binary
//! exits nonzero when any unsuppressed finding remains, which is what
//! makes it usable as a CI gate.

pub mod callgraph;
pub mod findings;
pub mod items;
pub mod lexer;
pub mod passes;
pub mod rules;
pub mod sarif;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use findings::{Finding, Report, Rule};

/// Analyzes the workspace rooted at `root`.
///
/// Scans `<root>/src` and every `<root>/crates/*/src` tree, runs all
/// rules, and returns a sorted [`Report`]. The walk order (and thus
/// the report order) is lexicographic, so output is reproducible.
pub fn analyze_root(root: &Path) -> io::Result<Report> {
    if !root.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} is not a directory", root.display()),
        ));
    }
    let files = scan_workspace(root)?;
    Ok(analyze_files(&files))
}

/// Scans `<root>/src` and every `<root>/crates/*/src` tree into lexed
/// files, sorted by path for reproducible output.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<rules::File>> {
    let mut files = Vec::new();
    collect_tree(root, &root.join("src"), &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut krates: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        krates.sort();
        for krate in krates {
            collect_tree(root, &krate.join("src"), &mut files)?;
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

/// Runs the line rules (R1, R2, R4, R6, R7) and the interprocedural
/// passes (R8–R10) over already-scanned files and returns the combined
/// sorted report.
pub fn analyze_files(files: &[rules::File]) -> Report {
    let mut findings = rules::run_all(files);
    let (inter, proofs) = passes::run_interprocedural(files);
    findings.extend(inter);
    let mut report = Report {
        files_scanned: files.len(),
        findings,
        proofs,
    };
    report.sort();
    report
}

/// Scans the workspace under `root` and renders the resolved call tree
/// below `root_spec` (an exact qualified name or a unique suffix).
pub fn dump_call_graph(root: &Path, root_spec: &str) -> io::Result<Result<String, String>> {
    let files = scan_workspace(root)?;
    let idx = items::ItemIndex::build(&files);
    let graph = callgraph::CallGraph::build(&files, &idx);
    Ok(graph.dump(&files, &idx, root_spec))
}

/// Recursively scans every `.rs` file under `dir` into `files`.
fn collect_tree(root: &Path, dir: &Path, files: &mut Vec<rules::File>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_tree(root, &path, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let source = fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            files.push(rules::File {
                path: rel,
                lines: lexer::scan(&source),
            });
        }
    }
    Ok(())
}
