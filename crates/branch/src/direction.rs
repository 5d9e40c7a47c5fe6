//! Conditional-branch direction predictors.
//!
//! [`Gshare::predict`] returns the prediction and an opaque *token* (the
//! pre-shift global history) that the pipeline carries with the branch
//! and hands back at `update`, so the same counter trains that made the
//! prediction, and at [`Gshare::recover`] on a misprediction, so the
//! speculative history can be repaired. [`Bimodal`] keeps no history
//! and needs no token.

fn bump(counter: &mut u8, taken: bool) {
    if taken {
        *counter = (*counter + 1).min(3);
    } else {
        *counter = counter.saturating_sub(1);
    }
}

/// McFarling's gshare predictor.
///
/// The Table 1 configuration is a 10-bit global history register XORed
/// into a 16K-entry (14 index bits) table of 2-bit saturating counters.
/// Because the history is shorter than the index, it is aligned to the
/// high end of the index, as in the original TN-36 report.
///
/// # Examples
///
/// ```
/// use vpir_branch::Gshare;
/// let mut bp = Gshare::table1();
/// for _ in 0..24 {
///     let (taken, token) = bp.predict(0x1000);
///     bp.update(0x1000, true, token);
///     if !taken {
///         bp.recover(token, true); // repair speculative history
///     }
/// }
/// assert!(bp.predict(0x1000).0);
/// ```
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<u8>,
    index_bits: u32,
    history_bits: u32,
    history: u64,
}

impl Gshare {
    /// Creates a gshare predictor with `2^index_bits` counters and
    /// `history_bits` bits of global history, initialised weakly not-taken.
    ///
    /// # Panics
    ///
    /// Panics if `history_bits > index_bits` or `index_bits > 28`.
    pub fn new(index_bits: u32, history_bits: u32) -> Gshare {
        assert!(history_bits <= index_bits, "history longer than index");
        assert!(index_bits <= 28, "table too large");
        Gshare {
            table: vec![1; 1 << index_bits],
            index_bits,
            history_bits,
            history: 0,
        }
    }

    /// The paper's configuration: 10-bit history, 16K counters.
    pub fn table1() -> Gshare {
        Gshare::new(14, 10)
    }

    fn index(&self, pc: u64, history: u64) -> usize {
        let shifted = history << (self.index_bits - self.history_bits);
        (((pc >> 2) ^ shifted) & ((1 << self.index_bits) - 1)) as usize
    }

    fn mask(&self) -> u64 {
        (1 << self.history_bits) - 1
    }

    /// Predicts the branch at `pc` and speculatively shifts the history.
    /// Returns `(taken, token)`.
    pub fn predict(&mut self, pc: u64) -> (bool, u64) {
        let token = self.history;
        let taken = self.table[self.index(pc, token)] >= 2;
        self.history = ((self.history << 1) | taken as u64) & self.mask();
        (taken, token)
    }

    /// Trains with the resolved outcome of a branch whose prediction
    /// carried `token`.
    pub fn update(&mut self, pc: u64, taken: bool, token: u64) {
        let idx = self.index(pc, token);
        bump(&mut self.table[idx], taken);
    }

    /// Repairs the speculative history after the branch carrying `token`
    /// was found mispredicted (all younger speculative shifts are bogus).
    pub fn recover(&mut self, token: u64, actual_taken: bool) {
        self.history = ((token << 1) | actual_taken as u64) & self.mask();
    }

    /// Current speculative global history (diagnostics / tests).
    pub fn history(&self) -> u64 {
        self.history
    }
}

/// A simple PC-indexed table of 2-bit counters (no history).
#[derive(Debug, Clone)]
pub struct Bimodal {
    table: Vec<u8>,
    index_bits: u32,
}

impl Bimodal {
    /// Creates a bimodal predictor with `2^index_bits` counters.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits > 28`.
    pub fn new(index_bits: u32) -> Bimodal {
        assert!(index_bits <= 28, "table too large");
        Bimodal {
            table: vec![1; 1 << index_bits],
            index_bits,
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) & ((1 << self.index_bits) - 1)) as usize
    }

    /// Predicts whether the branch at `pc` is taken.
    pub fn predict(&self, pc: u64) -> bool {
        self.table[self.index(pc)] >= 2
    }

    /// Trains with the resolved outcome of the branch at `pc`.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let idx = self.index(pc);
        bump(&mut self.table[idx], taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gshare_learns_biased_branch() {
        let mut bp = Gshare::table1();
        for _ in 0..24 {
            let (p, token) = bp.predict(0x400);
            bp.update(0x400, true, token);
            if !p {
                bp.recover(token, true);
            }
        }
        assert!(bp.predict(0x400).0);
    }

    #[test]
    fn gshare_learns_alternating_branch_with_history() {
        let mut bp = Gshare::new(10, 8);
        let mut correct = 0;
        let mut outcome = false;
        for i in 0..400 {
            outcome = !outcome;
            let (p, token) = bp.predict(0x80);
            if p == outcome && i >= 100 {
                correct += 1;
            }
            bp.update(0x80, outcome, token);
            if p != outcome {
                bp.recover(token, outcome);
            }
        }
        // After warm-up, history disambiguates the alternation perfectly.
        assert_eq!(correct, 300);
    }

    #[test]
    fn bimodal_cannot_learn_alternation() {
        let mut bp = Bimodal::new(10);
        let mut outcome = false;
        let mut correct = 0;
        for i in 0..400 {
            outcome = !outcome;
            let p = bp.predict(0x80);
            if p == outcome && i >= 100 {
                correct += 1;
            }
            bp.update(0x80, outcome);
        }
        assert!(correct < 200, "bimodal should stay near chance, got {correct}");
    }

    #[test]
    fn recover_repairs_history() {
        let mut bp = Gshare::table1();
        let (p0, t0) = bp.predict(0x10);
        // Suppose 0x10 was mispredicted; younger predictions are wrong path.
        bp.predict(0x20);
        bp.predict(0x30);
        bp.recover(t0, !p0);
        assert_eq!(bp.history(), ((t0 << 1) | (!p0) as u64) & ((1 << 10) - 1));
    }

    #[test]
    fn speculative_history_shifts_on_predict() {
        let mut bp = Gshare::new(14, 10);
        // Train 0x80 to predict taken so a 1 bit enters the history.
        for _ in 0..24 {
            let (p, t) = bp.predict(0x80);
            bp.update(0x80, true, t);
            if !p {
                bp.recover(t, true);
            }
        }
        let before = bp.history();
        let (taken, _) = bp.predict(0x80);
        assert!(taken);
        assert_eq!(bp.history(), ((before << 1) | 1) & ((1 << 10) - 1));
    }

    #[test]
    fn distinct_pcs_use_distinct_counters() {
        let mut bp = Bimodal::new(12);
        for _ in 0..2 {
            bp.update(0x100, true);
        }
        assert!(bp.predict(0x100));
        assert!(
            !bp.predict(0x104),
            "untrained branch still weakly not-taken"
        );
    }

    #[test]
    #[should_panic(expected = "history longer than index")]
    fn gshare_rejects_oversized_history() {
        Gshare::new(8, 9);
    }
}
