//! Simulator configuration.
//!
//! Table 1's fixed parameters are crate-private constants here, and
//! [`CoreConfig`] holds only what a caller varies.
//! [`CoreConfig::table1`] reproduces the paper's base machine exactly;
//! the [`Enhancement`] field selects the baseline, one of the VP
//! configurations at either verification latency, IR with early or late
//! validation, or trace reuse. The per-mechanism configuration types
//! (`VpConfig`, `IrConfig`, `RtbConfig`, `Enhancement`, ...) live in
//! `vpir-mechanism` next to the mechanisms themselves and are
//! re-exported here so existing `use vpir_core::{VpConfig, ...}`
//! imports keep working.

pub use vpir_mechanism::{
    BranchResolution, Enhancement, IrConfig, Reexecution, RtbConfig, Validation, VpConfig,
    VpKind,
};

/// Which direction predictor drives the front end (Table 1 uses gshare;
/// the alternatives support sensitivity studies of how VP's and IR's
/// branch interactions scale with prediction quality).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FrontEnd {
    /// Gshare, 10-bit history / 16K counters (the paper's machine).
    #[default]
    Gshare,
    /// A PC-indexed bimodal table (weaker on correlated branches).
    Bimodal,
    /// Static predict-taken (the stress baseline).
    StaticTaken,
}

/// Deterministic fault injection for testing the failure model.
///
/// These knobs wedge the machine in controlled, reproducible ways so
/// the watchdog and the bench harness's graceful degradation can be
/// exercised without depending on a real (and therefore fixable) bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultInjection {
    /// No injected fault (the only setting for real experiments).
    #[default]
    None,
    /// Refuse to commit any instruction once `after_commits` have
    /// committed. In-flight work drains, the ROB fills, and no further
    /// architectural progress is possible — a deterministic livelock
    /// that trips the forward-progress watchdog exactly
    /// `watchdog_cycles` after the last commit.
    CommitStall {
        /// Commit count after which the commit stage wedges.
        after_commits: u64,
    },
}

/// Instructions fetched per cycle (Table 1).
pub(crate) const FETCH_WIDTH: usize = 4;
/// Instructions dispatched (decoded + renamed) per cycle (Table 1).
pub(crate) const DECODE_WIDTH: usize = 4;
/// Operations issued to functional units per cycle (Table 1).
pub(crate) const ISSUE_WIDTH: usize = 4;
/// Instructions committed per cycle (Table 1).
pub(crate) const COMMIT_WIDTH: usize = 4;
/// Load/store-queue entries (Table 1).
pub(crate) const LSQ_SIZE: usize = 32;
/// Maximum unresolved branches in flight (Table 1).
pub(crate) const MAX_BRANCHES: usize = 8;
/// Fetch cannot cross a boundary of this many bytes in one cycle
/// (Table 1).
pub(crate) const FETCH_LINE_BYTES: u64 = 32;
/// Data-cache ports (Table 1).
pub(crate) const DCACHE_PORTS: u32 = 2;
/// Return-address-stack depth (Table 1).
pub(crate) const RAS_DEPTH: usize = 16;
/// Reorder-buffer sizes the simulator accepts: each per-stage slot mask
/// is one `u64` word, which holds Table 1's 32 entries and the 16/64
/// ablation sizes.
pub(crate) const ROB_SIZES: std::ops::RangeInclusive<usize> = 2..=64;

/// The settable part of the machine configuration.
///
/// The rest of Table 1 is fixed: the widths, LSQ, branch cap, fetch
/// line, D$ ports and RAS depth are the constants above, and
/// `Simulator::new` builds the caches
/// ([`vpir_mem::CacheConfig::table1_inst`] and `table1_data`) and the
/// functional units (`FuPool::table1`) from
/// their Table 1 constructors.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Reorder-buffer entries, 2 to 64 (32 in Table 1; `experiments
    /// ablations` sweeps 16 and 64).
    pub rob_size: usize,
    /// Front-end direction predictor.
    pub front_end: FrontEnd,
    /// The mechanism under study.
    pub enhancement: Enhancement,
    /// Forward-progress watchdog: if no instruction commits for this
    /// many cycles the run fails with a structured `Livelock`/`Deadlock`
    /// error instead of spinning to the cycle limit. Memory latencies
    /// are tens of cycles, so the default (one million cycles with zero
    /// commits) can only fire on a genuine wedge.
    pub watchdog_cycles: u64,
    /// Opt-in per-cycle invariant checking (ROB ordering, checkpoint
    /// stack, rename map, speculation-field sanity). Costly; meant for
    /// debugging and differential tests, off for experiments.
    pub paranoia: bool,
    /// Deterministic fault injection for failure-model tests.
    pub fault: FaultInjection,
    /// Collect per-static-PC committed-execution / RB-hit / VPT-correct
    /// counters (`Simulator::pc_profile`). Off by default: the map
    /// allocates per static instruction, which the allocation-free cycle
    /// loop otherwise avoids.
    pub pc_profile: bool,
}

impl CoreConfig {
    /// The paper's Table 1 machine with no enhancement.
    pub fn table1() -> CoreConfig {
        CoreConfig {
            rob_size: 32,
            front_end: FrontEnd::Gshare,
            enhancement: Enhancement::None,
            watchdog_cycles: 1_000_000,
            paranoia: false,
            fault: FaultInjection::None,
            pc_profile: false,
        }
    }

    /// Table 1 machine with the given enhancement.
    pub fn with_enhancement(enhancement: Enhancement) -> CoreConfig {
        CoreConfig {
            enhancement,
            ..CoreConfig::table1()
        }
    }

    /// Table 1 machine with a VP configuration.
    pub fn with_vp(vp: VpConfig) -> CoreConfig {
        CoreConfig::with_enhancement(Enhancement::Vp(vp))
    }

    /// Table 1 machine with an IR configuration.
    pub fn with_ir(ir: IrConfig) -> CoreConfig {
        CoreConfig::with_enhancement(Enhancement::Ir(ir))
    }

    /// Table 1 machine with the VP+IR hybrid (reuse first, predict on a
    /// reuse miss).
    pub fn with_hybrid(vp: VpConfig, ir: IrConfig) -> CoreConfig {
        CoreConfig::with_enhancement(Enhancement::Hybrid(vp, ir))
    }

    /// Table 1 machine with a trace-reuse (RTB) configuration.
    pub fn with_rtb(rtb: RtbConfig) -> CoreConfig {
        CoreConfig::with_enhancement(Enhancement::Rtb(rtb))
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the ROB has fewer than 2 or more than 64 entries, or
    /// the watchdog window is zero.
    pub fn validate(&self) {
        assert!(
            ROB_SIZES.contains(&self.rob_size),
            "ROB size must be in {ROB_SIZES:?}"
        );
        assert!(self.watchdog_cycles > 0, "watchdog window must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let c = CoreConfig::table1();
        c.validate();
        assert_eq!(c.rob_size, 32);
        assert_eq!(c.front_end, FrontEnd::Gshare);
        assert_eq!(c.enhancement, Enhancement::None);
    }

    #[test]
    fn vp_labels() {
        let vp = VpConfig::magic();
        assert_eq!(vp.label(), "ME-SB");
        assert_eq!(
            vp.with_branches(BranchResolution::Nsb)
                .with_reexecution(Reexecution::Nme)
                .label(),
            "NME-NSB"
        );
    }

    #[test]
    fn enhancement_constructors_agree() {
        assert_eq!(
            CoreConfig::with_rtb(RtbConfig::t8()),
            CoreConfig::with_enhancement(Enhancement::Rtb(RtbConfig::t8()))
        );
        assert_eq!(
            CoreConfig::with_ir(IrConfig::table1()).enhancement,
            Enhancement::Ir(IrConfig::table1())
        );
    }

    #[test]
    fn failure_model_defaults() {
        let c = CoreConfig::table1();
        assert_eq!(c.watchdog_cycles, 1_000_000);
        assert!(!c.paranoia);
        assert_eq!(c.fault, FaultInjection::None);
    }

    #[test]
    #[should_panic(expected = "watchdog window must be positive")]
    fn zero_watchdog_rejected() {
        let mut c = CoreConfig::table1();
        c.watchdog_cycles = 0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "ROB size must be in 2..=64")]
    fn degenerate_rob_rejected() {
        let mut c = CoreConfig::table1();
        c.rob_size = 1;
        c.validate();
    }
}
