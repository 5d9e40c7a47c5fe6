//! # vpir-stats — means, ratios, and report rendering
//!
//! Small numeric and formatting helpers shared by the experiment harness:
//! the paper reports harmonic means over benchmarks (Figures 3, 6, 7) and
//! fixed-width tables; this crate renders both.
//!
//! # Examples
//!
//! ```
//! use vpir_stats::harmonic_mean;
//! let speedups = [1.1, 1.2, 1.3];
//! let hm = harmonic_mean(speedups.iter().copied()).unwrap();
//! assert!(hm > 1.19 && hm < 1.20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod table;

pub use table::{AsciiBars, Table};

/// The harmonic mean of a sequence of positive values.
///
/// Returns `None` for an empty sequence or any non-positive value. The
/// paper's HM bars over per-benchmark speedups use this.
pub fn harmonic_mean<I>(values: I) -> Option<f64>
where
    I: IntoIterator<Item = f64>,
{
    let mut n = 0usize;
    let mut recip_sum = 0.0;
    for v in values {
        if v <= 0.0 || !v.is_finite() {
            return None;
        }
        n += 1;
        recip_sum += 1.0 / v;
    }
    if n == 0 {
        None
    } else {
        Some(n as f64 / recip_sum)
    }
}

/// The arithmetic mean; `None` for an empty sequence.
pub fn arithmetic_mean<I>(values: I) -> Option<f64>
where
    I: IntoIterator<Item = f64>,
{
    let mut n = 0usize;
    let mut sum = 0.0;
    for v in values {
        n += 1;
        sum += v;
    }
    if n == 0 {
        None
    } else {
        Some(sum / n as f64)
    }
}

/// The geometric mean of positive values; `None` if empty or non-positive.
pub fn geometric_mean<I>(values: I) -> Option<f64>
where
    I: IntoIterator<Item = f64>,
{
    let mut n = 0usize;
    let mut log_sum = 0.0;
    for v in values {
        if v <= 0.0 || !v.is_finite() {
            return None;
        }
        n += 1;
        log_sum += v.ln();
    }
    if n == 0 {
        None
    } else {
        Some((log_sum / n as f64).exp())
    }
}

/// Per-static-instruction dynamic counters collected by the pipeline
/// when `CoreConfig::pc_profile` is on: which static instructions the
/// reuse buffer and the VPT actually serve. Summed over every PC they
/// equal the run's `committed`, `reused_full`, `reused_addr` and
/// `result_pred_correct` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcStats {
    /// Committed executions of this static instruction.
    pub executions: u64,
    /// Committed executions satisfied from the reuse buffer.
    pub rb_hits: u64,
    /// Committed memory operations whose effective address came from
    /// the reuse buffer (a fully reused one counts here too).
    pub addr_reuses: u64,
    /// Committed executions whose VPT prediction matched the result.
    pub vpt_correct: u64,
}

/// Trace-reuse (RTB) counters, collected by the trace-reuse mechanism
/// and surfaced through `SimStats`.
///
/// Capture pipeline: dispatched straight-line runs become *captured*
/// pendings; pendings whose members all commit are *installed* into the
/// RTB (or *dropped* when a partially-overlapping in-trace store makes
/// a member load unclassifiable); pendings with a squashed member are
/// *pending_squashed* — the wrong-path-invalidation guarantee. Replay:
/// a validated dispatch-time hit counts one *replay* and
/// `replayed_insts` members; a member whose recorded outcome disagrees
/// with the functional recomputation *aborts* the rest of the replay
/// (the member then dispatches normally — soundness never depends on
/// the recording). `committed_reused` attributes committed trace
/// members by instruction class (`per_class`, `OpClass` declaration
/// order) and by natural-loop nesting depth (`per_depth`, depths ≥ 4
/// share the last bucket).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RtbStats {
    /// Trace captures finalized into the pending queue.
    pub captured: u64,
    /// Pending captures discarded because a member was squashed.
    pub pending_squashed: u64,
    /// Pending captures installed into the RTB at commit.
    pub installed: u64,
    /// Pending captures dropped at install (unclassifiable member load).
    pub dropped: u64,
    /// Validated dispatch-time trace replays granted.
    pub replays: u64,
    /// Trace members dispatched under a granted replay.
    pub replayed_insts: u64,
    /// Replays cut short by a member guard failure.
    pub aborted: u64,
    /// Committed instructions that were replayed trace members.
    pub committed_reused: u64,
    /// `committed_reused` by instruction class (`OpClass` order).
    pub per_class: [u64; 9],
    /// `committed_reused` by natural-loop nesting depth (0–3, then 4+).
    pub per_depth: [u64; 5],
}

impl RtbStats {
    /// Mean members per granted replay.
    pub fn mean_trace_len(&self) -> f64 {
        ratio(self.replayed_insts as f64, self.replays as f64)
    }

    /// Percent of committed instructions that were replayed trace
    /// members, given the run's total committed count.
    pub fn committed_reuse_pct(&self, committed: u64) -> f64 {
        percent(self.committed_reused, committed)
    }

    /// Percent of installs among finalized captures.
    pub fn install_pct(&self) -> f64 {
        percent(self.installed, self.captured)
    }
}

/// `part / whole` as a percentage; `0.0` when `whole` is zero.
pub fn percent(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// `value / base`; `0.0` when `base` is zero (used for normalised bars).
pub fn ratio(value: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        value / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_basics() {
        assert_eq!(harmonic_mean([2.0, 2.0]), Some(2.0));
        let hm = harmonic_mean([1.0, 2.0]).unwrap();
        assert!((hm - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(harmonic_mean(std::iter::empty()), None);
        assert_eq!(harmonic_mean([1.0, 0.0]), None);
        assert_eq!(harmonic_mean([1.0, -2.0]), None);
    }

    #[test]
    fn harmonic_is_below_arithmetic() {
        let vals = [1.0, 2.0, 4.0];
        let hm = harmonic_mean(vals).unwrap();
        let am = arithmetic_mean(vals).unwrap();
        let gm = geometric_mean(vals).unwrap();
        assert!(hm < gm && gm < am);
    }

    #[test]
    fn percent_and_ratio_handle_zero() {
        assert_eq!(percent(1, 0), 0.0);
        assert_eq!(percent(25, 100), 25.0);
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(5.0, 2.0), 2.5);
    }
}
