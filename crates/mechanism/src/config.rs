//! Per-mechanism configuration types.
//!
//! A mechanism and its configuration are declared in the same crate;
//! [`Mechanisms::new`](crate::Mechanisms::new) builds the mechanisms an
//! [`Enhancement`] names. `vpir-core` re-exports every name, so
//! downstream `use vpir_core::{VpConfig, ...}` imports work.

use vpir_predict::VptConfig;
use vpir_reuse::RbConfig;

/// Which value predictor drives the VPT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VpKind {
    /// `VP_Magic`: last-*n*-unique-values with oracle selection.
    Magic,
    /// `VP_LVP`: last-value predictor.
    Lvp,
    /// `VP_Stride`: two-delta stride predictor (captures the paper's
    /// *derivable* results, which neither LVP nor Magic track).
    Stride,
}

/// How branches with value-speculative operands are resolved
/// (Section 4.1.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BranchResolution {
    /// *Speculative branch resolution*: resolve as soon as the branch
    /// executes, even on value-speculative operands (may cause spurious
    /// squashes).
    Sb,
    /// *Non-speculative branch resolution*: resolve only once the
    /// operands are known non-value-speculative (delays resolution by the
    /// verification latency).
    Nsb,
}

/// How often an instruction may re-execute after value mispredictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Reexecution {
    /// *Multiple executions*: re-execute every time a new input value
    /// arrives.
    Me,
    /// *No multiple executions*: re-execute once, after the correct
    /// operands are known.
    Nme,
}

/// When IR validates results (Figure 3's experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Validation {
    /// At decode, the real IR pipeline: reused instructions skip execute,
    /// reused branches resolve immediately.
    Early,
    /// At execute: reuse behaves like an always-correct value prediction
    /// (the instruction still executes and resolves branches there).
    Late,
}

/// Value-prediction configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VpConfig {
    /// The predictor.
    pub kind: VpKind,
    /// SB or NSB branch handling.
    pub branch_resolution: BranchResolution,
    /// ME or NME re-execution policy.
    pub reexecution: Reexecution,
    /// VP-verification latency in cycles (the paper uses 0 and 1).
    pub verify_latency: u32,
    /// Geometry of the result VPT (and of the address VPT).
    pub vpt: VptConfig,
    /// Whether load effective addresses are also predicted.
    pub predict_addresses: bool,
}

impl VpConfig {
    /// `VP_Magic`, ME-SB, 0-cycle verification — the paper's headline
    /// configuration.
    pub fn magic() -> VpConfig {
        VpConfig {
            kind: VpKind::Magic,
            branch_resolution: BranchResolution::Sb,
            reexecution: Reexecution::Me,
            verify_latency: 0,
            vpt: VptConfig::table1(),
            predict_addresses: true,
        }
    }

    /// `VP_LVP`, ME-SB, 0-cycle verification.
    pub fn lvp() -> VpConfig {
        VpConfig {
            kind: VpKind::Lvp,
            ..VpConfig::magic()
        }
    }

    /// Returns `self` with the given branch-resolution policy.
    pub fn with_branches(mut self, br: BranchResolution) -> VpConfig {
        self.branch_resolution = br;
        self
    }

    /// Returns `self` with the given re-execution policy.
    pub fn with_reexecution(mut self, re: Reexecution) -> VpConfig {
        self.reexecution = re;
        self
    }

    /// Returns `self` with the given verification latency.
    pub fn with_verify_latency(mut self, cycles: u32) -> VpConfig {
        self.verify_latency = cycles;
        self
    }

    /// A short label like `"ME-SB"` for reports.
    pub fn label(&self) -> String {
        format!(
            "{}-{}",
            match self.reexecution {
                Reexecution::Me => "ME",
                Reexecution::Nme => "NME",
            },
            match self.branch_resolution {
                BranchResolution::Sb => "SB",
                BranchResolution::Nsb => "NSB",
            }
        )
    }
}

/// Instruction-reuse configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrConfig {
    /// Reuse-buffer geometry and scheme.
    pub rb: RbConfig,
    /// Early (real IR) or late (Figure 3) validation.
    pub validation: Validation,
}

impl IrConfig {
    /// The paper's IR configuration: 4K-entry 4-way RB, augmented
    /// `S_{n+d}`, early validation.
    pub fn table1() -> IrConfig {
        IrConfig {
            rb: RbConfig::table1(),
            validation: Validation::Early,
        }
    }
}

/// Trace-reuse configuration (the RTB — reuse trace buffer — after
/// Coppieters et al.).
///
/// Traces are contiguous runs of dynamic instructions captured along
/// the commit path: straight-line arithmetic/memory instructions,
/// optionally terminated by one conditional branch. A dispatch-time hit
/// whose live-in registers and external load values match the current
/// speculative state replays the whole trace atomically — every member
/// enters the ROB in the same cycle with its recorded result, bypassing
/// the decode-width limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtbConfig {
    /// Maximum members per trace (the capture window; the terminal
    /// branch counts as a member).
    pub max_len: usize,
    /// Minimum members for a capture to be worth installing.
    pub min_len: usize,
    /// RTB sets (indexed by head PC).
    pub sets: usize,
    /// RTB associativity.
    pub ways: usize,
}

impl RtbConfig {
    /// Four-member traces over a 64-set, 4-way RTB (`rtb:t4`).
    pub fn t4() -> RtbConfig {
        RtbConfig {
            max_len: 4,
            min_len: 2,
            sets: 64,
            ways: 4,
        }
    }

    /// Eight-member traces over the same geometry (`rtb:t8`).
    pub fn t8() -> RtbConfig {
        RtbConfig {
            max_len: 8,
            ..RtbConfig::t4()
        }
    }

    /// The registry label for this configuration, e.g. `"rtb:t8"`.
    pub fn label(&self) -> String {
        format!("rtb:t{}", self.max_len)
    }
}

/// The redundancy mechanism under study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enhancement {
    /// The base superscalar — no VP, no IR.
    None,
    /// Value prediction.
    Vp(VpConfig),
    /// Instruction reuse.
    Ir(IrConfig),
    /// The hybrid the paper's conclusion calls for: the non-speculative
    /// reuse test runs first; instructions that miss in the RB fall back
    /// to value prediction. Reused results need no verification; only
    /// the predicted remainder is value-speculative.
    Hybrid(VpConfig, IrConfig),
    /// Trace reuse: atomic replay of multi-instruction traces from the
    /// RTB.
    Rtb(RtbConfig),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtb_labels_follow_max_len() {
        assert_eq!(RtbConfig::t4().label(), "rtb:t4");
        assert_eq!(RtbConfig::t8().label(), "rtb:t8");
        assert_eq!(RtbConfig::t4().min_len, 2);
        assert!(RtbConfig::t8().max_len > RtbConfig::t4().max_len);
    }
}
