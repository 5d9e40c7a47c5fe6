//! The set-associative value prediction table.

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

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.entries / self.assoc
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

#[derive(Debug, Clone, Copy)]
struct VptWay {
    tag: u64,
    value: u64,
    confidence: u8,
    valid: bool,
    lru: u64,
}

const EMPTY_WAY: VptWay = VptWay {
    tag: 0,
    value: 0,
    confidence: 0,
    valid: false,
    lru: 0,
};

/// A set-associative, LRU table of `(pc, value, confidence)` triples.
///
/// One instruction (PC) may occupy several ways of its set — that is how
/// `VP_Magic` stores multiple unique values. [`VptTable::train_last`]
/// enforces the single-instance discipline of `VP_LVP` instead.
///
/// Storage is one flat `Vec<VptWay>`; set `s` occupies the contiguous
/// slice `[s * assoc, (s + 1) * assoc)`. A lookup touches exactly one
/// cache-friendly stripe and never allocates.
#[derive(Debug, Clone)]
pub struct VptTable {
    config: VptConfig,
    ways: Vec<VptWay>,
    /// `sets - 1` when the set count is a power of two, letting
    /// `set_of` mask instead of divide.
    set_mask: Option<u64>,
    stats: VptStats,
    tick: u64,
}

impl VptTable {
    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of `assoc`.
    pub fn new(config: VptConfig) -> VptTable {
        assert!(config.assoc > 0, "associativity must be positive");
        assert!(
            config.entries > 0 && config.entries.is_multiple_of(config.assoc),
            "entries must be a positive multiple of assoc"
        );
        VptTable {
            config,
            ways: vec![EMPTY_WAY; config.entries],
            set_mask: config
                .sets()
                .is_power_of_two()
                .then(|| config.sets() as u64 - 1),
            stats: VptStats::default(),
            tick: 0,
        }
    }

    /// The table's configuration.
    pub fn config(&self) -> &VptConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> VptStats {
        self.stats
    }

    fn set_of(&self, pc: u64) -> usize {
        match self.set_mask {
            Some(mask) => ((pc >> 2) & mask) as usize,
            None => ((pc >> 2) % self.config.sets() as u64) as usize,
        }
    }

    fn set(&self, pc: u64) -> &[VptWay] {
        let start = self.set_of(pc) * self.config.assoc;
        &self.ways[start..start + self.config.assoc]
    }

    fn set_mut(&mut self, pc: u64) -> &mut [VptWay] {
        let start = self.set_of(pc) * self.config.assoc;
        let assoc = self.config.assoc;
        &mut self.ways[start..start + assoc]
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
        let mut hits: Vec<&VptWay> = self
            .set(pc)
            .iter()
            .filter(|w| w.valid && w.tag == pc && w.confidence >= threshold)
            .collect();
        hits.sort_by(|a, b| b.confidence.cmp(&a.confidence).then(b.lru.cmp(&a.lru)));
        hits.iter().map(|w| w.value).collect()
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
        let mut best: Option<&VptWay> = None;
        let mut oracle_stored = false;
        for w in self.set(pc) {
            if !(w.valid && w.tag == pc && w.confidence >= threshold) {
                continue;
            }
            if Some(w.value) == oracle {
                oracle_stored = true;
            }
            // `lru` ticks are unique, so (confidence, lru) totally orders
            // the ways of a set — the max is the sort's first element.
            if best.is_none_or(|b| (b.confidence, b.lru) < (w.confidence, w.lru)) {
                best = Some(w);
            }
        }
        if oracle_stored {
            return oracle;
        }
        best.map(|w| w.value)
    }

    /// The single stored value for `pc` if it is confident (LVP lookup).
    pub fn last_confident_value(&self, pc: u64) -> Option<u64> {
        self.set(pc)
            .iter()
            .find(|w| w.valid && w.tag == pc)
            .filter(|w| w.confidence >= self.config.confidence_threshold)
            .map(|w| w.value)
    }

    /// Multi-instance training (`VP_Magic`): if `actual` is stored, raise
    /// its confidence; otherwise lower the most confident instance's and
    /// allocate a new way for `actual`.
    pub fn train_multi(&mut self, pc: u64, actual: u64) {
        self.stats.trainings += 1;
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_mut(pc);

        if let Some(way) = set
            .iter_mut()
            .find(|w| w.valid && w.tag == pc && w.value == actual)
        {
            way.confidence = (way.confidence + 1).min(3);
            way.lru = tick;
            return;
        }
        // A stored-but-wrong instance loses confidence (the counter is
        // "incremented or decremented depending on whether prediction is
        // right or wrong").
        if let Some(way) = set
            .iter_mut()
            .filter(|w| w.valid && w.tag == pc)
            .max_by_key(|w| (w.confidence, w.lru))
        {
            way.confidence = way.confidence.saturating_sub(1);
        }
        self.allocate(pc, actual);
    }

    /// Single-instance training (`VP_LVP`): one way per PC; a changed
    /// value decays confidence and replaces the value at zero confidence.
    pub fn train_last(&mut self, pc: u64, actual: u64) {
        self.stats.trainings += 1;
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_mut(pc);

        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == pc) {
            if way.value == actual {
                way.confidence = (way.confidence + 1).min(3);
            } else {
                way.confidence = way.confidence.saturating_sub(1);
                if way.confidence == 0 {
                    way.value = actual;
                }
            }
            way.lru = tick;
            return;
        }
        self.allocate(pc, actual);
    }

    fn allocate(&mut self, pc: u64, value: u64) {
        self.stats.allocations += 1;
        let tick = self.tick;
        // The set is non-empty (assoc is validated positive at
        // construction); bailing instead of panicking is
        // behavior-identical on the reachable path.
        let Some(way) = self
            .set_mut(pc)
            .iter_mut()
            .min_by_key(|w| if w.valid { w.lru } else { 0 })
        else {
            return;
        };
        *way = VptWay {
            tag: pc,
            value,
            confidence: 1,
            valid: true,
            lru: tick,
        };
    }

    /// Number of valid instances currently stored for `pc`.
    pub fn instances(&self, pc: u64) -> usize {
        self.set(pc)
            .iter()
            .filter(|w| w.valid && w.tag == pc)
            .count()
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
