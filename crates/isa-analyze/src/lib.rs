//! # vpir-isa-analyze — static analysis of guest programs
//!
//! A std-only static analyzer for [`vpir_isa::Program`]s, the guest-side
//! counterpart of the host-source linter in `vpir-analyze`:
//!
//! * control-flow graph construction with unreachable-block detection
//!   ([`cfg`](mod@cfg)),
//! * dominators and natural loops ([`dom`]),
//! * dataflow: reaching definitions and must-initialized registers
//!   ([`dataflow`]), and sparse conditional constant propagation driven
//!   by the real architectural semantics ([`sccp`]),
//! * a static redundancy classification — *invariant* /
//!   *stride-derivable* / *input-dependent* — mirroring the dynamic
//!   Figure 8 taxonomy of the Sodani & Sohi limit study ([`classify`]),
//! * structural lints L1–L4 sharing `vpir-analyze`'s finding and report
//!   machinery, and
//! * cross-validation of the static classification against the dynamic
//!   per-PC limit-study counts ([`xval`]), with the one-sided guarantee
//!   that statically invariant instructions are dynamically repeated.
//!
//! # Examples
//!
//! ```
//! use vpir_isa::asm;
//! let prog = asm::assemble(
//!     "       li   r1, 3
//!             li   r2, 0
//!      loop:  addi r2, r2, 5
//!             addi r1, r1, -1
//!             bne  r1, r0, loop
//!             halt",
//! )?;
//! let analysis = vpir_isa_analyze::analyze_program(&prog, "demo.s");
//! assert!(analysis.findings.is_empty());
//! assert_eq!(analysis.loops.loops.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cfg;
pub mod classify;
pub mod dataflow;
pub mod dom;
pub mod sccp;
pub mod xval;

use std::fmt::Write as _;

use vpir_analyze::Finding;
use vpir_isa::Program;
use vpir_jsonlite::{compact_array, JsonObj};

pub use cfg::{Cfg, EdgeRole};
pub use classify::StaticClass;
pub use dom::LoopInfo;
pub use sccp::{AddrFact, Sccp};
pub use xval::{cross_validate, Xval};

/// Top-level keys every [`Analysis::to_json`] object carries; consumers
/// (the CLI, the HTTP service, CI) validate emitted JSON against this.
pub const REQUIRED_KEYS: &[&str] = &[
    "file",
    "insts",
    "blocks",
    "unreachable_blocks",
    "loops",
    "producers",
    "classes",
    "live",
    "findings",
];

/// Everything the analyzer concluded about one static instruction.
#[derive(Debug, Clone)]
pub struct InstSummary {
    /// Instruction index in the text segment.
    pub index: usize,
    /// Byte address.
    pub addr: u64,
    /// Disassembled form.
    pub text: String,
    /// Whether constant propagation found the instruction executable.
    pub executable: bool,
    /// Static redundancy class; `None` for non-result-producers.
    pub class: Option<StaticClass>,
    /// The proven-constant result value, when invariant.
    pub const_value: Option<u64>,
    /// Loop-nesting depth of the containing block.
    pub loop_depth: u32,
    /// Byte address of the innermost containing loop's header block.
    pub loop_header: Option<u64>,
}

/// Full analysis of one program.
#[derive(Debug)]
pub struct Analysis {
    /// The (display) file name the program came from.
    pub file: String,
    /// The control-flow graph.
    pub cfg: Cfg,
    /// Dominators and natural loops.
    pub loops: LoopInfo,
    /// Constant-propagation facts.
    pub sccp: Sccp,
    /// Per-instruction summaries, in address order.
    pub insts: Vec<InstSummary>,
    /// Structural lint findings (L1–L4).
    pub findings: Vec<Finding>,
}

impl Analysis {
    /// `(invariant, stride-derivable, input-dependent, producers)`
    /// counts over the static instructions.
    pub fn class_counts(&self) -> (u64, u64, u64, u64) {
        let mut c = (0, 0, 0, 0);
        for inst in &self.insts {
            match inst.class {
                Some(StaticClass::Invariant) => c.0 += 1,
                Some(StaticClass::StrideDerivable) => c.1 += 1,
                Some(StaticClass::InputDependent) => c.2 += 1,
                None => continue,
            }
            c.3 += 1;
        }
        c
    }

    /// Human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let unreachable = self.cfg.unreachable_blocks().len();
        let (inv, stride, dep, producers) = self.class_counts();
        let _ = writeln!(
            out,
            "{}: {} inst(s), {} block(s) ({} unreachable), {} loop(s)",
            self.file,
            self.insts.len(),
            self.cfg.blocks.len(),
            unreachable,
            self.loops.loops.len()
        );
        let _ = writeln!(
            out,
            "  classes: {inv} invariant, {stride} stride-derivable, {dep} input-dependent (of {producers} producers)"
        );
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
        out
    }

    /// Machine-readable report (single JSON object).
    pub fn to_json(&self) -> String {
        let (inv, stride, dep, producers) = self.class_counts();
        let classes = JsonObj::compact()
            .u("invariant", inv)
            .u("stride_derivable", stride)
            .u("input_dependent", dep)
            .finish();
        let unreachable = self.cfg.unreachable_blocks().len() as u64;
        let findings = compact_array(self.findings.iter().map(Finding::to_json));
        JsonObj::compact()
            .s("file", &self.file)
            .u("insts", self.insts.len() as u64)
            .u("blocks", self.cfg.blocks.len() as u64)
            .u("unreachable_blocks", unreachable)
            .u("loops", self.loops.loops.len() as u64)
            .u("producers", producers)
            .raw("classes", &classes)
            .u("live", self.findings.len() as u64)
            .raw("findings", &findings)
            .finish()
    }
}

/// Runs the full analysis pipeline over `prog`. `file` is the display
/// name used in findings (e.g. the `.s` path or a workload name).
pub fn analyze_program(prog: &Program, file: &str) -> Analysis {
    let cfg = cfg::build(prog);
    let loops = dom::analyze(&cfg);
    let sccp = sccp::run(prog, &cfg);
    let rd = dataflow::reaching_defs(prog, &cfg);
    let classes = classify::classify(prog, &cfg, &loops, &sccp, &rd);
    let findings = classify::lints(prog, &cfg, &sccp, file);

    let insts = prog
        .insts
        .iter()
        .enumerate()
        .map(|(i, inst)| {
            let b = cfg.block_of.get(i).copied().unwrap_or(0);
            InstSummary {
                index: i,
                addr: prog.addr_of(i),
                text: inst.to_string(),
                executable: sccp.facts[i].executable,
                class: classes[i],
                const_value: sccp.facts[i].const_result,
                loop_depth: loops.depth.get(b).copied().unwrap_or(0),
                loop_header: loops
                    .innermost
                    .get(b)
                    .copied()
                    .flatten()
                    .map(|h| prog.addr_of(cfg.blocks[h].start)),
            }
        })
        .collect();

    Analysis {
        file: file.to_string(),
        cfg,
        loops,
        sccp,
        insts,
        findings,
    }
}

