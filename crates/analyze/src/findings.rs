//! Finding and report types plus the text / JSON renderers.

use std::fmt::Write as _;

use vpir_jsonlite::{compact_array, json_str, JsonObj};

/// The simulator invariants (R2, R4, R7–R10; host Rust sources) and
/// guest-program structural lints (L1–L4, vpir assembly) the analyzers
/// check.
///
/// The host rules are emitted by `vpir-analyze` over the workspace; the
/// guest lints are emitted by `vpir-isa-analyze` over assembled
/// programs. Both share this type so reports render identically.
/// Retired ids are not reused: R1 and R6 are clippy's
/// `disallowed-types`, R3 and R5 the counter schema's compile checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// R2 — pipeline hot paths must not index with an integer literal.
    Panic,
    /// R4 — every config field must be read outside its definition.
    Config,
    /// R7 — cycle-level hot state must be columnar, not `Vec<Option<…>>`.
    Columnar,
    /// R8 — entry-point call trees must be transitively panic-free.
    PanicReach,
    /// R9 — a `Relaxed` atomic load must not feed control flow.
    Concurrency,
    /// R10 — the lock-acquisition graph must be acyclic.
    LockOrder,
    /// L1 — guest basic block unreachable from the entry point.
    Unreachable,
    /// L2 — guest register read before any write reaches it.
    UninitRead,
    /// L3 — guest branch/jump to an undefined or misaligned target.
    BadTarget,
    /// L4 — guest memory stored to but never loaded.
    DeadStore,
}

impl Rule {
    /// The short identifier (`R2` … `R10`, `L1` … `L4`).
    pub fn id(self) -> &'static str {
        match self {
            Rule::Panic => "R2",
            Rule::Config => "R4",
            Rule::Columnar => "R7",
            Rule::PanicReach => "R8",
            Rule::Concurrency => "R9",
            Rule::LockOrder => "R10",
            Rule::Unreachable => "L1",
            Rule::UninitRead => "L2",
            Rule::BadTarget => "L3",
            Rule::DeadStore => "L4",
        }
    }

    /// The short name printed next to the id.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Panic => "panic",
            Rule::Config => "config",
            Rule::Columnar => "columnar",
            Rule::PanicReach => "panic-reach",
            Rule::Concurrency => "concurrency",
            Rule::LockOrder => "lock-order",
            Rule::Unreachable => "unreachable",
            Rule::UninitRead => "uninit-read",
            Rule::BadTarget => "bad-target",
            Rule::DeadStore => "dead-store",
        }
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    /// Path relative to the analyzed root.
    pub file: String,
    /// 1-based line number (0 when the source location is unknown, e.g.
    /// a guest program loaded from a binary image).
    pub line: usize,
    /// 1-based column; 0 when unknown. Host-rule findings are
    /// line-granular and leave this 0.
    pub col: usize,
    pub message: String,
}

impl Finding {
    /// The finding as a compact JSON object, as both analyzers report it.
    pub fn to_json(&self) -> String {
        JsonObj::compact()
            .s("rule", self.rule.id())
            .s("name", self.rule.name())
            .s("file", &self.file)
            .u("line", self.line as u64)
            .u("col", self.col as u64)
            .s("message", &self.message)
            .finish()
    }

    /// `file:line` or `file:line:col` when the column is known.
    pub fn location(&self) -> String {
        if self.col > 0 {
            format!("{}:{}:{}", self.file, self.line, self.col)
        } else {
            format!("{}:{}", self.file, self.line)
        }
    }
}

/// A positive result from an interprocedural pass: what was *proven*
/// (or assumed), not just what was flagged. R8 emits one per analyzed
/// entry point so "no findings" is distinguishable from "not checked".
#[derive(Debug, Clone)]
pub struct ProofNote {
    /// The emitting rule (`R8`).
    pub rule: Rule,
    /// The qualified root the proof covers (`Simulator::run_checked`).
    pub root: String,
    /// One-line verdict.
    pub summary: String,
    /// Residual obligations: unresolved may-call edges, assumption
    /// counts — everything the proof is conditional on.
    pub details: Vec<String>,
}

impl ProofNote {
    /// The proof as a compact JSON object, as both reports carry it.
    pub fn to_json(&self) -> String {
        let details = compact_array(self.details.iter().map(|d| json_str(d)));
        JsonObj::compact()
            .s("rule", self.rule.id())
            .s("root", &self.root)
            .s("summary", &self.summary)
            .raw("details", &details)
            .finish()
    }
}

/// The result of analyzing one source tree.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    /// Proof notes from the interprocedural passes.
    pub proofs: Vec<ProofNote>,
}

impl Report {
    /// Sorts findings by file, line, then rule for stable output.
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.rule.id()).cmp(&(&b.file, b.line, b.rule.id())));
    }

    /// Human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{}: {}({}): {}",
                f.location(),
                f.rule.id(),
                f.rule.name(),
                f.message
            );
        }
        let _ = writeln!(
            out,
            "vpir-analyze: {} file(s), {} finding(s)",
            self.files_scanned,
            self.findings.len()
        );
        for p in &self.proofs {
            let _ = writeln!(out, "  proof {} {}: {}", p.rule.id(), p.root, p.summary);
            for d in &p.details {
                let _ = writeln!(out, "    - {d}");
            }
        }
        out
    }

    /// Machine-readable report (single JSON object).
    pub fn to_json(&self) -> String {
        let findings = self.findings.iter().map(Finding::to_json);
        let proofs = self.proofs.iter().map(ProofNote::to_json);
        JsonObj::compact()
            .u("files_scanned", self.files_scanned as u64)
            .u("live", self.findings.len() as u64)
            .raw("findings", &compact_array(findings))
            .raw("proofs", &compact_array(proofs))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: Rule) -> Finding {
        Finding {
            rule,
            file: "crates/core/src/x.rs".into(),
            line: 7,
            col: 0,
            message: "msg with \"quotes\"".into(),
        }
    }

    #[test]
    fn json_is_escaped() {
        let report = Report {
            findings: vec![finding(Rule::Panic)],
            files_scanned: 3,
            proofs: Vec::new(),
        };
        let json = report.to_json();
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\"rule\":\"R2\""));
        assert!(json.contains("\"files_scanned\":3"));
    }

    #[test]
    fn text_mentions_counts() {
        let report = Report {
            findings: vec![finding(Rule::Config)],
            files_scanned: 2,
            proofs: Vec::new(),
        };
        let text = report.to_text();
        assert!(text.contains("crates/core/src/x.rs:7: R4(config)"));
        assert!(text.contains("2 file(s), 1 finding(s)"));
    }
}
