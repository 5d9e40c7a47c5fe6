//! Simulator configuration.
//!
//! [`CoreConfig::table1`] reproduces the paper's base machine exactly;
//! the [`Enhancement`] field selects the baseline, one of the VP
//! configurations at either verification latency, IR with early or late
//! validation, or trace reuse. The per-mechanism configuration types
//! (`VpConfig`, `IrConfig`, `RtbConfig`, `Enhancement`, ...) live in
//! `vpir-mechanism` next to the mechanisms themselves and are
//! re-exported here so existing `use vpir_core::{VpConfig, ...}`
//! imports keep working.

use vpir_isa::FuClass;
use vpir_mem::CacheConfig;

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

/// Full machine configuration (Table 1 defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions dispatched (decoded + renamed) per cycle.
    pub decode_width: usize,
    /// Operations issued to functional units per cycle.
    pub issue_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Reorder-buffer entries.
    pub rob_size: usize,
    /// Load/store-queue entries.
    pub lsq_size: usize,
    /// Maximum unresolved branches in flight.
    pub max_branches: usize,
    /// Fetch cannot cross a boundary of this many bytes in one cycle.
    pub fetch_line_bytes: u64,
    /// Instruction cache.
    pub icache: CacheConfig,
    /// Data cache.
    pub dcache: CacheConfig,
    /// Data-cache ports.
    pub dcache_ports: u32,
    /// Functional-unit counts, indexed by [`FuClass::index`].
    pub fu_counts: [usize; 5],
    /// Return-address-stack depth.
    pub ras_depth: usize,
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
            fetch_width: 4,
            decode_width: 4,
            issue_width: 4,
            commit_width: 4,
            rob_size: 32,
            lsq_size: 32,
            max_branches: 8,
            fetch_line_bytes: 32,
            icache: CacheConfig::table1_inst(),
            dcache: CacheConfig::table1_data(),
            dcache_ports: 2,
            fu_counts: {
                let mut c = [0; 5];
                for fu in FuClass::ALL {
                    c[fu.index()] = fu.default_count();
                }
                c
            },
            ras_depth: 16,
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
    /// Panics if any width or buffer size is zero.
    pub fn validate(&self) {
        assert!(self.fetch_width > 0, "fetch width must be positive");
        assert!(self.decode_width > 0, "decode width must be positive");
        assert!(self.issue_width > 0, "issue width must be positive");
        assert!(self.commit_width > 0, "commit width must be positive");
        assert!(self.rob_size > 1, "ROB too small");
        assert!(self.lsq_size > 0, "LSQ too small");
        assert!(self.max_branches > 0, "need at least one branch checkpoint");
        assert!(
            self.fetch_line_bytes.is_power_of_two(),
            "fetch line must be a power of two"
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
        assert_eq!(c.fetch_width, 4);
        assert_eq!(c.rob_size, 32);
        assert_eq!(c.lsq_size, 32);
        assert_eq!(c.max_branches, 8);
        assert_eq!(c.fu_counts, [8, 2, 1, 4, 1]);
        assert_eq!(c.dcache_ports, 2);
        assert_eq!(c.icache.size_bytes, 64 * 1024);
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
    #[should_panic(expected = "ROB too small")]
    fn degenerate_rob_rejected() {
        let mut c = CoreConfig::table1();
        c.rob_size = 1;
        c.validate();
    }
}
