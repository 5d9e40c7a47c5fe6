//! Finding and report types plus the text / JSON renderers.

use std::fmt::Write as _;

/// The simulator invariants (R1, R2, R4, R6–R10; host Rust sources) and
/// guest-program structural lints (L1–L4, vpir assembly) the analyzers
/// check.
///
/// The host rules are emitted by `vpir-analyze` over the workspace; the
/// guest lints are emitted by `vpir-isa-analyze` over assembled
/// programs. Both share this type so reports render identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// R1 — cycle-level code must not use hash-ordered collections.
    Determinism,
    /// R2 — pipeline hot paths must not contain panicking constructs.
    Panic,
    /// R4 — every config field must be read outside its definition.
    Config,
    /// R6 — cycle-level code must not read wall-clock time.
    WallClock,
    /// R7 — cycle-level hot state must be columnar, not `Vec<Option<…>>`.
    Columnar,
    /// R8 — entry-point call trees must be transitively panic-free.
    PanicReach,
    /// R9 — spawned closures must not race on shared mutable captures,
    /// and control-flow atomics must not use `Ordering::Relaxed`.
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
    /// The short identifier (`R1` … `R10`, `L1` … `L4`).
    pub fn id(self) -> &'static str {
        match self {
            Rule::Determinism => "R1",
            Rule::Panic => "R2",
            Rule::Config => "R4",
            Rule::WallClock => "R6",
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

    /// The name used in `// vpir: allow(name, reason)` comments.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::Panic => "panic",
            Rule::Config => "config",
            Rule::WallClock => "wallclock",
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
    /// The justification from a matching `vpir: allow` comment; `None`
    /// for live (unsuppressed) findings.
    pub suppressed: Option<String>,
}

impl Finding {
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

/// The result of analyzing one source tree.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    /// Proof notes from the interprocedural passes.
    pub proofs: Vec<ProofNote>,
}

impl Report {
    /// Findings not silenced by an allow comment; these gate CI.
    pub fn live(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed.is_none())
    }

    /// Findings silenced by an allow comment (recorded, not fatal).
    pub fn suppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed.is_some())
    }

    /// Sorts findings by file, line, then rule for stable output.
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.rule.id()).cmp(&(&b.file, b.line, b.rule.id())));
    }

    /// Human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in self.live() {
            let _ = writeln!(
                out,
                "{}: {}({}): {}",
                f.location(),
                f.rule.id(),
                f.rule.name(),
                f.message
            );
        }
        let live = self.live().count();
        let suppressed = self.suppressed().count();
        let _ = writeln!(
            out,
            "vpir-analyze: {} file(s), {} finding(s), {} suppressed",
            self.files_scanned, live, suppressed
        );
        if suppressed > 0 {
            for f in self.suppressed() {
                let _ = writeln!(
                    out,
                    "  allowed {}: {}({}): {}",
                    f.location(),
                    f.rule.id(),
                    f.rule.name(),
                    f.suppressed.as_deref().unwrap_or_default()
                );
            }
        }
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
        let mut out = String::from("{");
        let _ = write!(out, "\"files_scanned\":{},", self.files_scanned);
        let _ = write!(out, "\"live\":{},", self.live().count());
        let _ = write!(out, "\"suppressed\":{},", self.suppressed().count());
        out.push_str("\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rule\":\"{}\",\"name\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\"",
                f.rule.id(),
                f.rule.name(),
                escape(&f.file),
                f.line,
                f.col,
                escape(&f.message)
            );
            match &f.suppressed {
                Some(reason) => {
                    let _ = write!(out, ",\"allowed\":\"{}\"}}", escape(reason));
                }
                None => out.push('}'),
            }
        }
        out.push_str("],\"proofs\":[");
        for (i, p) in self.proofs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rule\":\"{}\",\"root\":\"{}\",\"summary\":\"{}\",\"details\":[",
                p.rule.id(),
                escape(&p.root),
                escape(&p.summary)
            );
            for (j, d) in p.details.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\"", escape(d));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// Escapes a string for inclusion in a JSON literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: Rule, suppressed: Option<&str>) -> Finding {
        Finding {
            rule,
            file: "crates/core/src/x.rs".into(),
            line: 7,
            col: 0,
            message: "msg with \"quotes\"".into(),
            suppressed: suppressed.map(String::from),
        }
    }

    #[test]
    fn live_and_suppressed_split() {
        let report = Report {
            findings: vec![finding(Rule::Panic, None), finding(Rule::Panic, Some("ok"))],
            files_scanned: 1,
            proofs: Vec::new(),
        };
        assert_eq!(report.live().count(), 1);
        assert_eq!(report.suppressed().count(), 1);
    }

    #[test]
    fn json_is_escaped() {
        let report = Report {
            findings: vec![finding(Rule::Determinism, None)],
            files_scanned: 3,
            proofs: Vec::new(),
        };
        let json = report.to_json();
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\"rule\":\"R1\""));
        assert!(json.contains("\"files_scanned\":3"));
    }

    #[test]
    fn text_mentions_counts() {
        let report = Report {
            findings: vec![finding(Rule::Config, Some("legacy"))],
            files_scanned: 2,
            proofs: Vec::new(),
        };
        let text = report.to_text();
        assert!(text.contains("0 finding(s), 1 suppressed"));
        assert!(text.contains("allowed"));
    }
}
