//! A fixed-size bitset over reuse-buffer slot indexes.
//!
//! The buffer's inverted indexes (register → slots, memory block →
//! slots) used to be `BTreeSet<u32>`, which allocates a tree node per
//! member and rebalances on every insert/remove — both on the
//! simulator's per-commit invalidation path. A `SlotSet` is a flat
//! `Vec<u64>` sized once at construction: membership updates are single
//! word operations and iteration walks set bits in ascending slot order,
//! so it preserves the deterministic iteration order of the
//! `BTreeSet` it replaces while doing zero steady-state allocation.

/// A set of slot indexes in `0..capacity`, stored as a flat bitmap with
/// a one-level summary (bit `w` of the summary is set iff `words[w]` is
/// non-zero), so iterating a sparse set skips its empty words.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SlotSet {
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl SlotSet {
    /// An empty set able to hold indexes in `0..capacity`.
    pub(crate) fn new(capacity: usize) -> SlotSet {
        let words = capacity.div_ceil(64);
        SlotSet {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
        }
    }

    /// Adds `slot` to the set.
    pub(crate) fn insert(&mut self, slot: u32) {
        let wi = (slot >> 6) as usize;
        if let Some(w) = self.words.get_mut(wi) {
            *w |= 1u64 << (slot & 63);
            self.summary[wi >> 6] |= 1u64 << (wi & 63);
        } else {
            debug_assert!(false, "slot {slot} beyond SlotSet capacity");
        }
    }

    /// Removes `slot` from the set (a no-op if absent).
    pub(crate) fn remove(&mut self, slot: u32) {
        let wi = (slot >> 6) as usize;
        if let Some(w) = self.words.get_mut(wi) {
            *w &= !(1u64 << (slot & 63));
            if *w == 0 {
                self.summary[wi >> 6] &= !(1u64 << (wi & 63));
            }
        }
    }

    /// Whether `slot` is in the set.
    #[cfg(test)]
    pub(crate) fn contains(&self, slot: u32) -> bool {
        self.words
            .get((slot >> 6) as usize)
            .is_some_and(|w| w & (1u64 << (slot & 63)) != 0)
    }

    /// The members in ascending order (matching `BTreeSet` iteration).
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.summary
            .iter()
            .enumerate()
            .flat_map(|(si, &sw)| BitIter {
                word: sw,
                base: (si as u32) << 6,
            })
            .flat_map(|wi| BitIter {
                word: self.words[wi as usize],
                base: wi << 6,
            })
    }
}

/// Iterates the set bits of one word, lowest first.
struct BitIter {
    word: u64,
    base: u32,
}

impl Iterator for BitIter {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros();
        self.word &= self.word - 1; // clear the lowest set bit
        Some(self.base + tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = SlotSet::new(200);
        assert!(!s.contains(5));
        s.insert(5);
        s.insert(63);
        s.insert(64);
        s.insert(199);
        assert!(s.contains(5) && s.contains(63) && s.contains(64) && s.contains(199));
        s.remove(63);
        assert!(!s.contains(63));
        s.remove(63); // idempotent
        assert!(s.contains(64));
    }

    #[test]
    fn iterates_ascending_like_btreeset() {
        let mut s = SlotSet::new(256);
        let mut reference = std::collections::BTreeSet::new();
        // Deterministic pseudo-random membership.
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for _ in 0..100 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let slot = (x >> 33) as u32 % 256;
            s.insert(slot);
            reference.insert(slot);
        }
        let got: Vec<u32> = s.iter().collect();
        let want: Vec<u32> = reference.into_iter().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_set_iterates_nothing() {
        let s = SlotSet::new(64);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn out_of_range_remove_is_noop() {
        let mut s = SlotSet::new(64);
        s.remove(1000);
        assert_eq!(s.iter().count(), 0);
    }
}
