//! The set-associative value prediction table.

use vpir_mem::SetAssoc;

/// Geometry and policy of a [`VptTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VptConfig {
    /// Total entries (ways × sets).
    pub entries: usize,
    /// Ways per set — also the maximum instances stored per instruction.
    pub assoc: usize,
    /// Minimum 2-bit confidence (0–3) required to predict.
    pub confidence_threshold: u8,
}

impl VptConfig {
    /// The paper's configuration: 16K entries, 4-way, threshold 2.
    pub fn table1() -> VptConfig {
        VptConfig {
            entries: 16 * 1024,
            assoc: 4,
            confidence_threshold: 2,
        }
    }
}

/// Lookup/training counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VptStats {
    /// Total prediction lookups.
    pub lookups: u64,
    /// Lookups that produced a prediction.
    pub predictions: u64,
    /// Training updates.
    pub trainings: u64,
    /// Entries newly allocated (capacity misses on training).
    pub allocations: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct VptWay {
    tag: u64,
    value: u64,
    confidence: u8,
}

/// A set-associative, LRU table of `(pc, value, confidence)` triples.
///
/// One instruction (PC) may occupy several ways of its set — that is how
/// `VP_Magic` stores multiple unique values. [`VptTable::train_last`]
/// enforces the single-instance discipline of `VP_LVP` instead.
///
/// The ways live in one [`SetAssoc`] indexed by `pc >> 2`: a lookup
/// touches exactly one cache-friendly stripe and never allocates.
#[derive(Debug, Clone)]
pub struct VptTable {
    config: VptConfig,
    ways: SetAssoc<VptWay>,
    stats: VptStats,
}

impl VptTable {
    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power-of-two multiple of a positive
    /// `assoc`.
    pub fn new(config: VptConfig) -> VptTable {
        VptTable {
            config,
            ways: SetAssoc::new(config.entries, config.assoc),
            stats: VptStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> VptStats {
        self.stats
    }

    /// The ways holding an instance of `pc`, as `(slot, way)`.
    fn stored(&self, pc: u64) -> impl Iterator<Item = (usize, &VptWay)> {
        self.ways
            .occupied(pc >> 2)
            .filter(move |(_, w)| w.tag == pc)
    }

    /// Records a lookup (and whether it produced a prediction).
    pub fn note_lookup(&mut self, predicted: bool) {
        self.stats.lookups += 1;
        if predicted {
            self.stats.predictions += 1;
        }
    }

    /// All confident values stored for `pc`, most confident first
    /// (ties broken towards most recently used).
    pub fn confident_values(&self, pc: u64) -> Vec<u64> {
        let threshold = self.config.confidence_threshold;
        let mut hits: Vec<(u8, u64, u64)> = self
            .stored(pc)
            .filter(|(_, w)| w.confidence >= threshold)
            .map(|(slot, w)| (w.confidence, self.ways.stamp(slot), w.value))
            .collect();
        hits.sort_by(|a, b| b.cmp(a));
        hits.iter().map(|&(_, _, value)| value).collect()
    }

    /// Oracle selection over the confident values stored for `pc`,
    /// without materializing them (`VP_Magic`'s lookup): the correct
    /// value if stored and confident, else the most confident stored
    /// value (ties towards most recently used), else `None`.
    ///
    /// Equivalent to checking [`Self::confident_values`] for `oracle`
    /// and falling back to its first element, minus the allocation.
    pub fn select_confident(&self, pc: u64, oracle: Option<u64>) -> Option<u64> {
        let threshold = self.config.confidence_threshold;
        let mut best: Option<((u8, u64), u64)> = None;
        let mut oracle_stored = false;
        for (slot, w) in self.stored(pc) {
            if w.confidence < threshold {
                continue;
            }
            if Some(w.value) == oracle {
                oracle_stored = true;
            }
            // LRU stamps are unique, so (confidence, stamp) totally
            // orders the ways of a set — the max is the sort's first
            // element.
            let rank = (w.confidence, self.ways.stamp(slot));
            if best.is_none_or(|(b, _)| b < rank) {
                best = Some((rank, w.value));
            }
        }
        if oracle_stored {
            return oracle;
        }
        best.map(|(_, value)| value)
    }

    /// The single stored value for `pc` if it is confident (LVP lookup).
    pub fn last_confident_value(&self, pc: u64) -> Option<u64> {
        let (_, w) = self.stored(pc).next()?;
        (w.confidence >= self.config.confidence_threshold).then_some(w.value)
    }

    /// Multi-instance training (`VP_Magic`): if `actual` is stored, raise
    /// its confidence; otherwise lower the most confident instance's and
    /// allocate a new way for `actual`.
    pub fn train_multi(&mut self, pc: u64, actual: u64) {
        self.stats.trainings += 1;
        self.ways.tick();

        if let Some(slot) = self
            .ways
            .find(pc >> 2, |w| w.tag == pc && w.value == actual)
        {
            let way = self.ways.touch(slot);
            way.confidence = (way.confidence + 1).min(3);
            return;
        }
        // A stored-but-wrong instance loses confidence (the counter is
        // "incremented or decremented depending on whether prediction is
        // right or wrong").
        let most_confident = self
            .stored(pc)
            .max_by_key(|&(slot, w)| (w.confidence, self.ways.stamp(slot)))
            .map(|(slot, _)| slot);
        if let Some(way) = most_confident.and_then(|slot| self.ways.get_mut(slot)) {
            way.confidence = way.confidence.saturating_sub(1);
        }
        self.allocate(pc, actual);
    }

    /// Single-instance training (`VP_LVP`): one way per PC; a changed
    /// value decays confidence and replaces the value at zero confidence.
    pub fn train_last(&mut self, pc: u64, actual: u64) {
        self.stats.trainings += 1;
        self.ways.tick();

        if let Some(slot) = self.ways.find(pc >> 2, |w| w.tag == pc) {
            let way = self.ways.touch(slot);
            if way.value == actual {
                way.confidence = (way.confidence + 1).min(3);
            } else {
                way.confidence = way.confidence.saturating_sub(1);
                if way.confidence == 0 {
                    way.value = actual;
                }
            }
            return;
        }
        self.allocate(pc, actual);
    }

    fn allocate(&mut self, pc: u64, value: u64) {
        self.stats.allocations += 1;
        let slot = self.ways.victim(pc >> 2);
        *self.ways.touch(slot) = VptWay {
            tag: pc,
            value,
            confidence: 1,
        };
    }

    /// Number of instances currently stored for `pc`.
    pub fn instances(&self, pc: u64) -> usize {
        self.stored(pc).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> VptTable {
        VptTable::new(VptConfig {
            entries: 16,
            assoc: 4,
            confidence_threshold: 2,
        })
    }

    #[test]
    fn multi_stores_up_to_assoc_instances() {
        let mut t = table();
        for v in 0..6u64 {
            t.train_multi(0x100, v);
            t.train_multi(0x100, v); // reach confidence
        }
        assert_eq!(t.instances(0x100), 4, "bounded by associativity");
    }

    #[test]
    fn confident_ordering_most_confident_first() {
        let mut t = table();
        t.train_multi(0x100, 7); // conf 1
        for _ in 0..3 {
            t.train_multi(0x100, 9); // conf 3 (first one decays 7 to 0)
        }
        t.train_multi(0x100, 7); // conf 1
        t.train_multi(0x100, 7); // conf 2
        let vals = t.confident_values(0x100);
        assert_eq!(vals, vec![9, 7]);
    }

    #[test]
    fn wrong_value_decays_confidence_multi() {
        let mut t = table();
        for _ in 0..2 {
            t.train_multi(0x100, 5);
        }
        assert_eq!(t.confident_values(0x100), vec![5]);
        t.train_multi(0x100, 6); // 5 decays to 1, 6 allocated
        assert!(t.confident_values(0x100).is_empty());
    }

    #[test]
    fn lvp_single_way_per_pc() {
        let mut t = table();
        t.train_last(0x100, 1);
        t.train_last(0x100, 1);
        t.train_last(0x100, 2); // decay
        assert_eq!(t.instances(0x100), 1);
    }

    #[test]
    fn distinct_pcs_in_same_set_coexist() {
        let mut t = table(); // 4 sets
        let (a, b) = (0x100u64, 0x100 + 4 * 4); // same set (stride = sets*4)
        t.train_last(a, 10);
        t.train_last(a, 10);
        t.train_last(b, 20);
        t.train_last(b, 20);
        assert_eq!(t.last_confident_value(a), Some(10));
        assert_eq!(t.last_confident_value(b), Some(20));
    }

    #[test]
    fn lru_eviction_on_set_pressure() {
        let mut t = table(); // 4 sets, 4 ways
        let stride = 4 * 4u64; // same-set stride
        for i in 0..5u64 {
            let pc = 0x100 + i * stride;
            t.train_last(pc, i);
        }
        // First PC evicted by the fifth.
        assert_eq!(t.instances(0x100), 0);
        assert_eq!(t.instances(0x100 + 4 * stride), 1);
    }

    #[test]
    #[should_panic(expected = "multiple of assoc")]
    fn bad_geometry_rejected() {
        VptTable::new(VptConfig {
            entries: 10,
            assoc: 4,
            confidence_threshold: 2,
        });
    }
}
