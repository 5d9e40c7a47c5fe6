//! Finding and report types plus the text / JSON renderers.

use std::fmt::Write as _;

use vpir_jsonlite::{compact_array, json_str, JsonObj};

/// Declares [`Rule`] from one row per rule: the variant, its id, its
/// name and a one-sentence description, which is also the variant's
/// doc.
macro_rules! rules {
    ($($variant:ident $id:literal $name:literal $desc:literal;)*) => {
        /// The simulator invariants (R2, R4, R7–R10; host Rust sources)
        /// and guest-program structural lints (L1–L4, vpir assembly) the
        /// analyzers check.
        ///
        /// The host rules are emitted by `vpir-analyze` over the
        /// workspace; the guest lints are emitted by `vpir-isa-analyze`
        /// over assembled programs. Both share this type so reports
        /// render identically. Retired ids are not reused: R1 and R6 are
        /// clippy's `disallowed-types`, R3 and R5 the counter schema's
        /// compile checks.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Rule {
            $(#[doc = concat!($id, " — ", $desc)] $variant,)*
        }

        impl Rule {
            /// Every rule in declaration order: the host rules, then
            /// the guest lints.
            pub const ALL: &'static [Rule] = &[$(Rule::$variant),*];

            /// The short identifier (`R2` … `R10`, `L1` … `L4`).
            pub fn id(self) -> &'static str {
                match self {
                    $(Rule::$variant => $id,)*
                }
            }

            /// The short name printed next to the id.
            pub fn name(self) -> &'static str {
                match self {
                    $(Rule::$variant => $name,)*
                }
            }

            /// The one-sentence description.
            pub fn description(self) -> &'static str {
                match self {
                    $(Rule::$variant => $desc,)*
                }
            }
        }
    };
}

rules! {
    Panic "R2" "panic" "Pipeline hot paths must not index with an integer literal.";
    Config "R4" "config" "Every config field must be read outside its definition.";
    Columnar "R7" "columnar" "Cycle-level hot state must be columnar, not `Vec<Option<...>>`.";
    PanicReach "R8" "panic-reach" "Entry-point call trees must be transitively panic-free.";
    Concurrency "R9" "concurrency" "A `Relaxed` atomic load must not feed control flow.";
    LockOrder "R10" "lock-order" "The lock-acquisition graph must be acyclic.";
    Unreachable "L1" "unreachable" "A guest basic block is unreachable from the entry point.";
    UninitRead "L2" "uninit-read" "A guest register is read before any write reaches it.";
    BadTarget "L3" "bad-target" "A guest branch or jump goes to an undefined or misaligned target.";
    DeadStore "L4" "dead-store" "Guest memory is stored to but never loaded.";
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
