//! The set-associative LRU table under every cache-like structure of the
//! simulated machine: the I- and D-caches, the value-prediction and
//! stride tables, the reuse buffer and the reuse trace buffer.

use std::ops::Range;

#[derive(Debug, Clone)]
struct Way<T> {
    /// Clock value at the way's last [`SetAssoc::touch`]; 0 marks an
    /// empty way.
    stamp: u64,
    item: T,
}

/// A set-associative table of `T` with LRU replacement.
///
/// Storage is one flat array; set `s` is the contiguous slots
/// `[s * assoc, (s + 1) * assoc)`, and a key (the line for a cache,
/// `pc >> 2` for a PC-indexed table) selects set `key & (sets - 1)`. A
/// slot names one way for the table's lifetime, so an owner may keep it
/// (the reuse buffer's invalidation indexes do).
///
/// Recency is a clock that the owner advances with [`tick`](Self::tick)
/// and copies into a way with [`touch`](Self::touch); stamps are unique
/// as long as the owner touches at most one way per tick. A way never
/// touched is empty: [`occupied`](Self::occupied) skips it and
/// [`victim`](Self::victim) picks it first. Empty ways still hold a `T`,
/// so an owner can overwrite a victim in place and keep its allocations.
///
/// # Examples
///
/// ```
/// use vpir_mem::SetAssoc;
/// let mut t: SetAssoc<u64> = SetAssoc::new(8, 2); // 4 sets of 2 ways
/// // Keys 1, 5 and 9 share set 1: the third evicts the first.
/// for tag in [1u64, 5, 9] {
///     t.tick();
///     let slot = t.victim(tag);
///     *t.touch(slot) = tag;
/// }
/// assert_eq!(t.find(1, |&tag| tag == 1), None);
/// assert!(t.find(5, |&tag| tag == 5).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct SetAssoc<T> {
    ways: Vec<Way<T>>,
    assoc: usize,
    set_mask: u64,
    clock: u64,
}

impl<T: Clone + Default> SetAssoc<T> {
    /// An empty table of `entries` ways, `assoc` to a set.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is zero or `entries` is not `assoc` times a
    /// power of two.
    pub fn new(entries: usize, assoc: usize) -> SetAssoc<T> {
        assert!(assoc > 0, "associativity must be positive");
        let sets = entries / assoc;
        assert!(
            sets * assoc == entries && sets.is_power_of_two(),
            "entries must be a power-of-two multiple of assoc"
        );
        let empty = Way {
            stamp: 0,
            item: T::default(),
        };
        SetAssoc {
            ways: vec![empty; entries],
            assoc,
            set_mask: sets as u64 - 1,
            clock: 0,
        }
    }
}

impl<T> SetAssoc<T> {
    fn set(&self, key: u64) -> Range<usize> {
        let start = (key & self.set_mask) as usize * self.assoc;
        start..start + self.assoc
    }

    /// The occupied ways of `key`'s set in way order, as `(slot, item)`.
    pub fn occupied(&self, key: u64) -> impl Iterator<Item = (usize, &T)> {
        let set = self.set(key);
        set.clone()
            .zip(&self.ways[set])
            .filter(|(_, way)| way.stamp != 0)
            .map(|(slot, way)| (slot, &way.item))
    }

    /// The slot of the first occupied way of `key`'s set whose item
    /// satisfies `pred`.
    pub fn find(&self, key: u64, mut pred: impl FnMut(&T) -> bool) -> Option<usize> {
        self.occupied(key)
            .find(|(_, item)| pred(item))
            .map(|(slot, _)| slot)
    }

    /// The slot to replace in `key`'s set: its first empty way, else its
    /// least recently touched one (the lowest way on a tie).
    pub fn victim(&self, key: u64) -> usize {
        let set = self.set(key);
        let (mut victim, mut oldest) = (set.start, u64::MAX);
        for (slot, way) in set.clone().zip(&self.ways[set]) {
            if way.stamp < oldest {
                (victim, oldest) = (slot, way.stamp);
            }
        }
        victim
    }

    /// Advances the LRU clock; call it before the first
    /// [`touch`](Self::touch).
    pub fn tick(&mut self) {
        self.clock += 1;
    }

    /// Stamps `slot` with the clock, which marks it occupied and most
    /// recently used, and returns its item to read or overwrite.
    pub fn touch(&mut self, slot: usize) -> &mut T {
        let way = &mut self.ways[slot];
        way.stamp = self.clock;
        &mut way.item
    }

    /// `slot`'s item, or `None` if the way is empty.
    pub fn get(&self, slot: usize) -> Option<&T> {
        self.ways
            .get(slot)
            .filter(|way| way.stamp != 0)
            .map(|way| &way.item)
    }

    /// `slot`'s item to update in place, or `None` if the way is empty.
    pub fn get_mut(&mut self, slot: usize) -> Option<&mut T> {
        self.ways
            .get_mut(slot)
            .filter(|way| way.stamp != 0)
            .map(|way| &mut way.item)
    }

    /// `slot`'s LRU stamp: larger is more recent, 0 is empty.
    pub fn stamp(&self, slot: usize) -> u64 {
        self.ways.get(slot).map_or(0, |way| way.stamp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 sets of 4 ways; keys `k`, `k + 4`, `k + 8`, ... share a set.
    fn table() -> SetAssoc<u64> {
        SetAssoc::new(16, 4)
    }

    /// Touches `key`'s way if present, else fills its victim.
    fn access(t: &mut SetAssoc<u64>, key: u64) -> usize {
        t.tick();
        let slot = t.find(key, |&k| k == key).unwrap_or_else(|| t.victim(key));
        *t.touch(slot) = key;
        slot
    }

    #[test]
    fn an_empty_way_is_chosen_first() {
        let mut t = table();
        assert_eq!(t.victim(1), 4, "an empty set fills from its lowest way");
        assert_eq!(access(&mut t, 1), 4);
        assert_eq!(access(&mut t, 5), 5);
        // Re-touching way 4 does not make the older way 5 the victim
        // while ways 6 and 7 are still empty.
        access(&mut t, 1);
        assert_eq!(t.victim(1), 6);
        assert_eq!(t.occupied(1).count(), 2);
        assert_eq!(t.get(6), None);
    }

    #[test]
    fn a_full_set_evicts_in_lru_order() {
        let mut t = table();
        let keys = [2u64, 6, 10, 14];
        for k in keys {
            access(&mut t, k);
        }
        access(&mut t, 2); // 2 is now the most recent
        for (k, evicted) in [(18u64, 6u64), (22, 10), (26, 14), (30, 2)] {
            access(&mut t, k);
            assert_eq!(
                t.find(evicted, |&x| x == evicted),
                None,
                "{k} evicts {evicted}"
            );
            assert!(t.find(k, |&x| x == k).is_some());
        }
    }

    #[test]
    fn the_lowest_way_wins_a_tie() {
        let mut t = table();
        // Two touches in one tick share a stamp.
        t.tick();
        *t.touch(1) = 7;
        *t.touch(0) = 3;
        assert_eq!(t.stamp(0), t.stamp(1));
        t.tick();
        *t.touch(2) = 11;
        *t.touch(3) = 15;
        assert_eq!(t.victim(0), 0);
    }

    #[test]
    fn sets_do_not_affect_each_other() {
        let mut t = table();
        for k in [0u64, 4, 8, 12, 16, 20] {
            access(&mut t, k); // six keys into set 0's four ways
        }
        for set in 1..4u64 {
            assert_eq!(t.occupied(set).count(), 0, "set {set}");
            assert_eq!(t.victim(set), set as usize * 4);
        }
        // A key past the set count wraps onto its own set only.
        assert_eq!(access(&mut t, 4 * 1000 + 3), 12);
        assert_eq!(t.occupied(0).count(), 4);
        assert_eq!(
            t.occupied(3).map(|(_, &k)| k).collect::<Vec<_>>(),
            vec![4003]
        );
    }

    #[test]
    fn occupancy_and_recency_are_per_slot() {
        let mut t = table();
        assert_eq!((t.get(0), t.stamp(0)), (None, 0));
        let slot = access(&mut t, 0);
        assert_eq!(t.get(slot), Some(&0));
        if let Some(item) = t.get_mut(slot) {
            *item = 99;
        }
        assert_eq!(t.occupied(0).collect::<Vec<_>>(), vec![(0, &99)]);
        assert_eq!(t.get(16), None, "out of range");
    }

    #[test]
    #[should_panic(expected = "power-of-two multiple of assoc")]
    fn rejects_a_set_count_that_is_not_a_power_of_two() {
        SetAssoc::<u64>::new(12, 4);
    }

    #[test]
    #[should_panic(expected = "power-of-two multiple of assoc")]
    fn rejects_entries_that_do_not_fill_whole_sets() {
        SetAssoc::<u64>::new(10, 4);
    }

    #[test]
    #[should_panic(expected = "associativity must be positive")]
    fn rejects_zero_ways() {
        SetAssoc::<u64>::new(16, 0);
    }
}
