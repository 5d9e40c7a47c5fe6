//! # vpir-predict — value prediction tables
//!
//! The Value Prediction Table (VPT) of the paper's Figure 1(a) pipeline,
//! in the two flavours studied:
//!
//! * [`MagicPredictor`] (`VP_Magic`, Section 4.1.1) — stores the last *n*
//!   unique results of each instruction with a 2-bit confidence counter
//!   per result. Only confident results are predicted. Selection is
//!   *oracle*: if the correct result is among the stored values it is
//!   selected, otherwise the most confident stored value is. (The scheme
//!   is still realistic — Wang & Franklin's hybrid predictor achieves
//!   accurate selection among *n* buffered values — but the paper uses
//!   oracle selection so the VPT's instance-selection power matches the
//!   reuse buffer's.)
//! * [`LastValuePredictor`] (`VP_LVP`) — the classic Lipasti/Shen last
//!   value predictor: one instance per instruction, predicted when its
//!   confidence is above threshold.
//!
//! Both are views over a common set-associative [`VptTable`]. The paper's
//! configuration is 16K entries, 4-way set-associative, LRU
//! ([`VptConfig::table1`]).
//!
//! # Examples
//!
//! ```
//! use vpir_predict::{LastValuePredictor, VptConfig};
//! let mut vp = LastValuePredictor::new(VptConfig::table1());
//! // Train the same result twice to reach the confidence threshold.
//! vp.train(0x1000, 7);
//! vp.train(0x1000, 7);
//! assert_eq!(vp.predict(0x1000, None), Some(7));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented))]

mod stride;
mod table;

pub use stride::StridePredictor;
pub use table::{VptConfig, VptStats, VptTable};

/// `VP_Magic`: last-*n*-unique-values with oracle selection.
#[derive(Debug, Clone)]
pub struct MagicPredictor {
    table: VptTable,
}

impl MagicPredictor {
    /// Creates a magic predictor over the given table geometry.
    pub fn new(config: VptConfig) -> MagicPredictor {
        MagicPredictor {
            table: VptTable::new(config),
        }
    }

    /// Predicts the value produced by the instruction at `pc`, or `None`
    /// if no confident prediction is available.
    ///
    /// `oracle` carries the architecturally correct value when the
    /// simulator knows it at prediction time (the pipeline executes at
    /// dispatch, like SimpleScalar). It is used *only to select among
    /// values already stored* — the predictor never predicts a value it
    /// has not seen.
    pub fn predict(&mut self, pc: u64, oracle: Option<u64>) -> Option<u64> {
        // Oracle selection among stored values (Section 4.1.1), done in
        // one allocation-free pass over the set.
        let selected = self.table.select_confident(pc, oracle);
        self.table.note_lookup(selected.is_some());
        selected
    }

    /// Trains the predictor with the actual value produced at `pc`.
    pub fn train(&mut self, pc: u64, actual: u64) {
        self.table.train_multi(pc, actual);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> VptStats {
        self.table.stats()
    }
}

/// `VP_LVP`: the last-value predictor (one instance per instruction).
#[derive(Debug, Clone)]
pub struct LastValuePredictor {
    table: VptTable,
}

impl LastValuePredictor {
    /// Creates a last-value predictor over the given table geometry.
    pub fn new(config: VptConfig) -> LastValuePredictor {
        LastValuePredictor {
            table: VptTable::new(config),
        }
    }

    /// Predicts the value produced by the instruction at `pc`, or `None`
    /// if no confident prediction is available. `_oracle` is ignored
    /// (the signature matches [`MagicPredictor::predict`]).
    pub fn predict(&mut self, pc: u64, _oracle: Option<u64>) -> Option<u64> {
        let v = self.table.last_confident_value(pc);
        self.table.note_lookup(v.is_some());
        v
    }

    /// Trains the predictor with the actual value produced at `pc`.
    pub fn train(&mut self, pc: u64, actual: u64) {
        self.table.train_last(pc, actual);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> VptStats {
        self.table.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> VptConfig {
        VptConfig {
            entries: 64,
            assoc: 4,
            confidence_threshold: 2,
        }
    }

    #[test]
    fn lvp_requires_confidence() {
        let mut vp = LastValuePredictor::new(small());
        assert_eq!(vp.predict(0x10, None), None);
        vp.train(0x10, 5);
        assert_eq!(vp.predict(0x10, None), None, "confidence 1 < threshold");
        vp.train(0x10, 5);
        assert_eq!(vp.predict(0x10, None), Some(5));
    }

    #[test]
    fn lvp_loses_confidence_on_change() {
        let mut vp = LastValuePredictor::new(small());
        for _ in 0..3 {
            vp.train(0x10, 5);
        }
        assert_eq!(vp.predict(0x10, None), Some(5));
        // The value changes: confidence decays to zero (3 trainings),
        // then the new value is installed and must rebuild confidence.
        for _ in 0..5 {
            vp.train(0x10, 9);
        }
        assert_eq!(vp.predict(0x10, None), Some(9));
    }

    #[test]
    fn lvp_keeps_single_instance() {
        let mut vp = LastValuePredictor::new(small());
        for v in [1u64, 2, 1, 2, 1, 2] {
            vp.train(0x10, v);
        }
        // Alternating values never build confidence in LVP.
        assert_eq!(vp.predict(0x10, None), None);
    }

    #[test]
    fn magic_selects_correct_among_stored() {
        let mut vp = MagicPredictor::new(small());
        // Store two alternating values, both confident.
        for v in [1u64, 2, 1, 2, 1, 2, 1, 2] {
            vp.train(0x20, v);
        }
        assert_eq!(vp.predict(0x20, Some(1)), Some(1));
        assert_eq!(vp.predict(0x20, Some(2)), Some(2));
        // Oracle value it has never seen: falls back to most confident.
        let fallback = vp.predict(0x20, Some(99));
        assert!(matches!(fallback, Some(1) | Some(2)));
    }

    #[test]
    fn magic_never_invents_values() {
        let mut vp = MagicPredictor::new(small());
        assert_eq!(vp.predict(0x30, Some(42)), None, "empty table predicts nothing");
        vp.train(0x30, 7);
        vp.train(0x30, 7);
        // 42 was never stored; magic still predicts a stored value.
        assert_eq!(vp.predict(0x30, Some(42)), Some(7));
    }

    #[test]
    fn magic_beats_lvp_on_alternation() {
        let mut magic = MagicPredictor::new(small());
        let mut lvp = LastValuePredictor::new(small());
        let mut magic_hits = 0;
        let mut lvp_hits = 0;
        let mut v = 0u64;
        for i in 0..100 {
            v = if v == 3 { 8 } else { 3 };
            if i >= 20 {
                if magic.predict(0x40, Some(v)) == Some(v) {
                    magic_hits += 1;
                }
                if lvp.predict(0x40, Some(v)) == Some(v) {
                    lvp_hits += 1;
                }
            }
            magic.train(0x40, v);
            lvp.train(0x40, v);
        }
        assert_eq!(magic_hits, 80);
        assert_eq!(lvp_hits, 0);
    }

    #[test]
    fn stats_count_lookups() {
        let mut vp = LastValuePredictor::new(small());
        vp.predict(0x1, None);
        vp.train(0x1, 4);
        vp.train(0x1, 4);
        vp.predict(0x1, None);
        let s = vp.stats();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.predictions, 1);
    }
}
