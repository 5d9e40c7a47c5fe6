//! A two-delta stride value predictor.
//!
//! The paper's Section 4.3 classifies a slice of results as *derivable* —
//! values that fall on a stride (loop induction variables, walking
//! pointers). A last-value predictor misses every one of them; a stride
//! predictor captures exactly that slice. This implementation uses the
//! classic two-delta scheme (Eickemeyer & Vassiliadis): the stride only
//! updates after the same delta is observed twice, which keeps one-off
//! jumps from polluting a stable stride.

use crate::table::{VptConfig, VptStats};

#[derive(Debug, Clone, Copy)]
struct StrideEntry {
    tag: u64,
    last: u64,
    /// Committed stride (applied for predictions).
    stride: i64,
    /// Most recently observed delta (promoted to `stride` on repeat).
    pending: i64,
    confidence: u8,
    valid: bool,
    lru: u64,
}

const EMPTY: StrideEntry = StrideEntry {
    tag: 0,
    last: 0,
    stride: 0,
    pending: 0,
    confidence: 0,
    valid: false,
    lru: 0,
};

/// A set-associative two-delta stride predictor.
///
/// # Examples
///
/// ```
/// use vpir_predict::{StridePredictor, VptConfig};
/// let mut vp = StridePredictor::new(VptConfig::table1());
/// for v in [10u64, 13, 16, 19] {
///     vp.train(0x1000, v);
/// }
/// assert_eq!(vp.predict(0x1000, None), Some(22));
/// ```
#[derive(Debug, Clone)]
pub struct StridePredictor {
    config: VptConfig,
    sets: Vec<Vec<StrideEntry>>,
    stats: VptStats,
    tick: u64,
}

impl StridePredictor {
    /// Creates an empty predictor with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of `assoc`.
    pub fn new(config: VptConfig) -> StridePredictor {
        assert!(config.assoc > 0, "associativity must be positive");
        assert!(
            config.entries > 0 && config.entries.is_multiple_of(config.assoc),
            "entries must be a positive multiple of assoc"
        );
        StridePredictor {
            config,
            sets: vec![vec![EMPTY; config.assoc]; config.sets()],
            stats: VptStats::default(),
            tick: 0,
        }
    }

    fn set_of(&self, pc: u64) -> usize {
        ((pc >> 2) % self.config.sets() as u64) as usize
    }

    /// Predicts the value produced by the instruction at `pc` (its last
    /// value plus the confirmed stride), or `None` if no confident
    /// prediction is available. `_oracle` is ignored (the signature
    /// matches [`MagicPredictor::predict`](crate::MagicPredictor::predict)).
    pub fn predict(&mut self, pc: u64, _oracle: Option<u64>) -> Option<u64> {
        self.stats.lookups += 1;
        let set = &self.sets[self.set_of(pc)];
        let hit = set
            .iter()
            .find(|e| e.valid && e.tag == pc && e.confidence >= self.config.confidence_threshold)
            .map(|e| e.last.wrapping_add(e.stride as u64));
        if hit.is_some() {
            self.stats.predictions += 1;
        }
        hit
    }

    /// Trains the predictor with the actual value produced at `pc`.
    pub fn train(&mut self, pc: u64, actual: u64) {
        self.stats.trainings += 1;
        self.tick += 1;
        let tick = self.tick;
        let set_idx = self.set_of(pc);
        let set = &mut self.sets[set_idx];

        if let Some(e) = set.iter_mut().find(|e| e.valid && e.tag == pc) {
            let delta = actual.wrapping_sub(e.last) as i64;
            if delta == e.stride {
                e.confidence = (e.confidence + 1).min(3);
            } else if delta == e.pending {
                // Two-delta promotion: the new stride is established.
                e.stride = delta;
                e.confidence = 1;
            } else {
                e.pending = delta;
                e.confidence = e.confidence.saturating_sub(1);
            }
            e.last = actual;
            e.lru = tick;
            return;
        }
        self.stats.allocations += 1;
        // The set is non-empty (assoc is validated positive at
        // construction); bailing instead of panicking is
        // behavior-identical on the reachable path.
        let Some(victim) = set
            .iter_mut()
            .min_by_key(|e| if e.valid { e.lru } else { 0 })
        else {
            return;
        };
        *victim = StrideEntry {
            tag: pc,
            last: actual,
            stride: 0,
            pending: 0,
            confidence: 0,
            valid: true,
            lru: tick,
        };
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> VptStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vp() -> StridePredictor {
        StridePredictor::new(VptConfig {
            entries: 64,
            assoc: 4,
            confidence_threshold: 2,
        })
    }

    #[test]
    fn learns_a_stride() {
        let mut p = vp();
        for v in [100u64, 104, 108, 112] {
            p.train(0x10, v);
        }
        assert_eq!(p.predict(0x10, None), Some(116));
    }

    #[test]
    fn learns_a_negative_stride() {
        let mut p = vp();
        for v in [50u64, 49, 48, 47] {
            p.train(0x10, v);
        }
        assert_eq!(p.predict(0x10, None), Some(46));
    }

    #[test]
    fn constant_value_is_a_zero_stride() {
        let mut p = vp();
        for _ in 0..4 {
            p.train(0x10, 7);
        }
        assert_eq!(p.predict(0x10, None), Some(7));
    }

    #[test]
    fn one_off_jump_does_not_break_a_stable_stride() {
        let mut p = vp();
        for v in [0u64, 4, 8, 12, 16] {
            p.train(0x10, v);
        }
        p.train(0x10, 100); // excursion: confidence drops, stride kept
        p.train(0x10, 104);
        p.train(0x10, 108); // stride 4 re-established around new values
        assert_eq!(p.predict(0x10, None), Some(112));
    }

    #[test]
    fn random_values_never_confident() {
        let mut p = vp();
        for v in [3u64, 17, 2, 91, 44, 8, 63] {
            p.train(0x10, v);
        }
        assert_eq!(p.predict(0x10, None), None);
    }

    #[test]
    fn untrained_pc_predicts_nothing() {
        let mut p = vp();
        p.train(0x10, 4);
        assert_eq!(p.predict(0x20, None), None);
    }

    #[test]
    fn stride_beats_lvp_on_induction_variable() {
        use crate::LastValuePredictor;
        let mut stride = vp();
        let mut lvp = LastValuePredictor::new(VptConfig {
            entries: 64,
            assoc: 4,
            confidence_threshold: 2,
        });
        let mut s_hits = 0;
        let mut l_hits = 0;
        for i in 0..100u64 {
            let v = i * 8;
            if stride.predict(0x40, None) == Some(v) {
                s_hits += 1;
            }
            if lvp.predict(0x40, None) == Some(v) {
                l_hits += 1;
            }
            stride.train(0x40, v);
            lvp.train(0x40, v);
        }
        assert!(s_hits > 90, "stride hits: {s_hits}");
        assert_eq!(l_hits, 0, "LVP cannot track a stride");
    }
}
