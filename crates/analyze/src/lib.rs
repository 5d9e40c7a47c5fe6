//! Simulator-invariant static analysis for the vpir workspace.
//!
//! `vpir-analyze` walks the workspace sources and checks invariants
//! that `rustc` and clippy cannot see because they are facts about
//! *this simulator*, not about Rust. The per-line rules:
//!
//! - **R2 literal index** — pipeline hot paths must not index with an
//!   integer literal.
//! - **R4 config discipline** — every config field must be read
//!   outside its definition.
//! - **R7 columnar** — cycle-level hot state must not be
//!   `Vec<Option<…>>` outside the ROB column module.
//!
//! The workspace-wide passes R8–R10 ([`passes`]) prove panic-freedom
//! of the simulator entry points, keep `Relaxed` atomics out of control
//! flow, and check lock order. What the compiler can check, it does:
//! each cycle crate's `clippy.toml` bans hash-ordered collections and
//! host time, and a crate-level `deny(clippy::unwrap_used, …)` bans
//! panicking calls (see [`rules`]). Stats counters need no rule: their
//! completeness and `u64` width are compile-time properties of the
//! counter schema in `crates/bench/src/state.rs`.
//!
//! `vpir analyze` runs every rule and exits nonzero on any finding,
//! which is what makes it usable as a CI gate.

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

/// Runs the line rules (R2, R4, R7) and the workspace-wide passes
/// (R8–R10) over already-scanned files and returns the combined sorted
/// report.
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
