//! The content-addressed result cache: a bounded in-memory LRU tier in
//! front of an optional crash-safe disk tier.
//!
//! The key is an FNV-1a hash over the serialized program image plus the
//! canonical configuration parameters; the value is the complete
//! rendered response body. Because the simulator is deterministic, a
//! hit and the miss that populated it return byte-identical bodies —
//! the service-level analogue of the paper's reuse buffer, where a
//! recognized (program, config) pair short-circuits re-execution. And
//! like the paper's RB, the buffer is *managed*: both tiers are
//! bounded (entries and bytes in memory, bytes on disk) with LRU
//! eviction, so a hostile or merely long-lived workload cannot grow
//! the cache without bound.
//!
//! A memory hit answers `X-Cache: hit`; a disk hit (after a restart,
//! or after memory eviction) re-verifies the stored frame, promotes
//! the body back into memory, and answers `X-Cache: hit-disk`. A
//! corrupted disk entry is quarantined by the store and surfaces here
//! as a plain miss — never wrong bytes, never a panic.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::store::{DiskStore, StoreStats};

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a sequence of byte chunks, hashing a separator byte
/// between chunks so `["ab", "c"]` and `["a", "bc"]` differ.
pub fn fnv1a64(chunks: &[&[u8]]) -> u64 {
    let mut hash = FNV_OFFSET_BASIS;
    let mut step = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    };
    for (i, chunk) in chunks.iter().enumerate() {
        if i > 0 {
            step(0xff);
        }
        for &byte in *chunk {
            step(byte);
        }
    }
    hash
}

/// Which tier answered a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitTier {
    /// Answered from the in-memory LRU (`X-Cache: hit`).
    Memory,
    /// Answered from the disk store (`X-Cache: hit-disk`).
    Disk,
}

/// One indexed entry.
struct Slot<V> {
    seq: u64,
    bytes: u64,
    value: V,
}

/// The LRU index both tiers keep: key → (recency sequence, bytes,
/// value), recency sequence → key, the byte total and the eviction
/// count. The memory tier's value is the body; the disk tier's is
/// `()`, its bodies being files.
pub(crate) struct LruIndex<V> {
    entries: BTreeMap<u64, Slot<V>>,
    /// recency sequence → key (ascending = least recently used first).
    recency: BTreeMap<u64, u64>,
    next_seq: u64,
    bytes: u64,
    evicted: u64,
}

impl<V> LruIndex<V> {
    pub(crate) fn new() -> LruIndex<V> {
        LruIndex {
            entries: BTreeMap::new(),
            recency: BTreeMap::new(),
            next_seq: 0,
            bytes: 0,
            evicted: 0,
        }
    }

    /// Entries indexed.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Total bytes indexed.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Entries evicted since the index was built.
    pub(crate) fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Whether `key` is indexed.
    pub(crate) fn contains(&self, key: u64) -> bool {
        self.entries.contains_key(&key)
    }

    /// Takes the next recency sequence.
    pub(crate) fn next_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Refreshes `key`'s recency to now and returns its value.
    pub(crate) fn touch(&mut self, key: u64) -> Option<&V> {
        let slot = self.entries.get_mut(&key)?;
        self.recency.remove(&slot.seq);
        slot.seq = self.next_seq;
        self.next_seq += 1;
        self.recency.insert(slot.seq, key);
        Some(&slot.value)
    }

    /// Indexes `key` as the most recently used entry, replacing any
    /// entry it had.
    pub(crate) fn insert(&mut self, key: u64, bytes: u64, value: V) {
        let seq = self.next_seq();
        self.insert_at(key, seq, bytes, value);
    }

    /// Indexes `key` at recency `seq`, moved past any sequence already
    /// taken, replacing any entry it had. The disk tier rebuilds its
    /// order this way from the sequences in its file headers.
    pub(crate) fn insert_at(&mut self, key: u64, mut seq: u64, bytes: u64, value: V) {
        self.remove(key);
        while self.recency.contains_key(&seq) {
            seq += 1;
        }
        self.recency.insert(seq, key);
        self.entries.insert(key, Slot { seq, bytes, value });
        self.bytes += bytes;
        self.next_seq = self.next_seq.max(seq + 1);
    }

    /// Drops `key` from the index.
    pub(crate) fn remove(&mut self, key: u64) {
        if let Some(slot) = self.entries.remove(&key) {
            self.recency.remove(&slot.seq);
            self.bytes = self.bytes.saturating_sub(slot.bytes);
        }
    }

    /// Evicts least-recently-used entries until at most `max_entries`
    /// entries of at most `max_bytes` remain, passing each victim's key
    /// to `on_evict`. `keep`, the entry just inserted, is never evicted.
    pub(crate) fn evict_to_fit(
        &mut self,
        max_entries: usize,
        max_bytes: u64,
        keep: Option<u64>,
        mut on_evict: impl FnMut(u64),
    ) {
        while self.entries.len() > max_entries || self.bytes > max_bytes {
            let Some((_, &victim)) = self.recency.iter().next() else { break };
            if Some(victim) == keep {
                break;
            }
            self.remove(victim);
            self.evicted += 1;
            on_evict(victim);
        }
    }
}

/// The two-tier bounded result cache.
pub struct ResultCache {
    mem: Mutex<LruIndex<Arc<String>>>,
    max_entries: usize,
    max_bytes: u64,
    store: Option<DiskStore>,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("entries", &self.len())
            .field("max_entries", &self.max_entries)
            .field("max_bytes", &self.max_bytes)
            .field("store", &self.store)
            .finish()
    }
}

impl ResultCache {
    /// An empty cache holding at most `max_entries` bodies totalling at
    /// most `max_bytes` in memory, with `store` as the durable tier.
    pub fn new(max_entries: usize, max_bytes: u64, store: Option<DiskStore>) -> ResultCache {
        ResultCache {
            mem: Mutex::new(LruIndex::new()),
            max_entries,
            max_bytes,
            store,
        }
    }

    /// Looks up `key`: memory first, then the disk tier (promoting a
    /// verified disk body back into memory).
    pub fn get(&self, key: u64) -> Option<(Arc<String>, HitTier)> {
        {
            let mut mem = self.lock();
            if let Some(body) = mem.touch(key) {
                return Some((Arc::clone(body), HitTier::Memory));
            }
        }
        let store = self.store.as_ref()?;
        let bytes = store.load(key)?;
        // The frame checksum already vouched for these bytes; they were
        // written from a `String`, so this conversion cannot fail in
        // practice — but a failure must still read as a miss.
        let body = Arc::new(String::from_utf8(bytes).ok()?);
        self.insert_mem(key, Arc::clone(&body));
        Some((body, HitTier::Disk))
    }

    /// Inserts `body` under `key` into both tiers.
    pub fn insert(&self, key: u64, body: Arc<String>) {
        if let Some(store) = &self.store {
            store.insert(key, body.as_bytes());
        }
        self.insert_mem(key, body);
    }

    fn insert_mem(&self, key: u64, body: Arc<String>) {
        let bytes = body.len() as u64;
        if bytes > self.max_bytes || self.max_entries == 0 {
            return; // never cacheable in memory; the disk tier may still hold it
        }
        let mut mem = self.lock();
        mem.insert(key, bytes, body);
        mem.evict_to_fit(self.max_entries, self.max_bytes, Some(key), |_| {});
    }

    /// Number of entries currently held in memory.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the memory tier holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total body bytes currently held in memory.
    pub fn mem_bytes(&self) -> u64 {
        self.lock().bytes()
    }

    /// Entries evicted from the memory tier since startup.
    pub fn mem_evicted(&self) -> u64 {
        self.lock().evicted()
    }

    /// Disk-tier statistics, when a disk tier is configured.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store.as_ref().map(DiskStore::stats)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LruIndex<Arc<String>>> {
        // A panicking job cannot hold this lock (jobs touch the cache
        // only after simulation finishes), but stay poison-safe anyway.
        self.mem.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};

    fn body(text: &str) -> Arc<String> {
        Arc::new(text.to_string())
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/scratch/cache")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fnv_distinguishes_chunk_boundaries() {
        assert_ne!(fnv1a64(&[b"ab", b"c"]), fnv1a64(&[b"a", b"bc"]));
        assert_ne!(fnv1a64(&[b"ab"]), fnv1a64(&[b"ab", b""]));
        assert_eq!(fnv1a64(&[b"ab", b"c"]), fnv1a64(&[b"ab", b"c"]));
        // Reference vector: FNV-1a 64 of "a" is 0xaf63dc4c8601ec8c.
        assert_eq!(fnv1a64(&[b"a"]), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn the_lru_index_bounds_orders_and_replaces() {
        let mut evicted = Vec::new();
        let mut index = LruIndex::new();
        for key in 1..=3 {
            index.insert(key, 10, key * 100);
        }
        // Touch order: 1 becomes the newest, so 2 is the oldest.
        assert_eq!(index.touch(1), Some(&100));
        assert_eq!(index.touch(9), None);
        // Entry bound.
        index.evict_to_fit(2, u64::MAX, None, |k| evicted.push(k));
        assert_eq!(evicted, [2]);
        // Replace on reinsert: a new size and value, and newest again.
        index.insert(3, 25, 301);
        assert_eq!((index.len(), index.bytes()), (2, 35));
        assert_eq!(index.touch(3), Some(&301));
        // Byte bound: the oldest entry goes first.
        index.evict_to_fit(usize::MAX, 30, None, |k| evicted.push(k));
        assert_eq!(evicted, [2, 1]);
        // Keep newest: a protected entry stays even over the bound...
        index.insert(4, 50, 400);
        index.evict_to_fit(usize::MAX, 30, Some(4), |k| evicted.push(k));
        assert_eq!(evicted, [2, 1, 3]);
        assert!(index.contains(4));
        // ...and goes when nothing protects it.
        index.evict_to_fit(usize::MAX, 30, None, |k| evicted.push(k));
        assert_eq!((index.len(), index.bytes(), index.evicted()), (0, 0, 4));
        // A sequence already taken moves past it: 6 stays newer than 5.
        index.insert_at(5, 7, 1, 500);
        index.insert_at(6, 7, 1, 600);
        index.evict_to_fit(1, u64::MAX, None, |k| evicted.push(k));
        assert_eq!(evicted, [2, 1, 3, 4, 5]);
    }

    #[test]
    fn lru_evicts_the_coldest_entry_at_the_entry_bound() {
        let cache = ResultCache::new(2, 1 << 20, None);
        assert!(cache.is_empty());
        cache.insert(1, body("one"));
        cache.insert(2, body("two"));
        // Touch 1 so 2 is the LRU victim when 3 arrives.
        assert!(cache.get(1).is_some());
        cache.insert(3, body("three"));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.mem_evicted(), 1);
        assert!(cache.get(2).is_none(), "LRU entry evicted");
        assert_eq!(cache.get(1).map(|(b, _)| b.to_string()), Some("one".to_string()));
        assert_eq!(cache.get(3).map(|(b, _)| b.to_string()), Some("three".to_string()));
    }

    #[test]
    fn byte_bound_holds_even_for_few_entries() {
        let cache = ResultCache::new(1024, 10, None);
        cache.insert(1, body("aaaa"));
        cache.insert(2, body("bbbb"));
        cache.insert(3, body("cccc"));
        assert!(cache.mem_bytes() <= 10, "bytes: {}", cache.mem_bytes());
        assert_eq!(cache.mem_evicted(), 1);
        // A body over the byte budget is simply not retained.
        cache.insert(4, body("xxxxxxxxxxxxxxxx"));
        assert!(cache.get(4).is_none());
        // Re-inserting an existing key replaces, not duplicates.
        cache.insert(3, body("c'"));
        assert_eq!(cache.get(3).map(|(b, _)| b.to_string()), Some("c'".to_string()));
    }

    #[test]
    fn disk_tier_answers_after_memory_eviction_and_promotes() {
        let dir = scratch("promote");
        let store = DiskStore::open(&dir, 1 << 20, None).expect("open");
        let cache = ResultCache::new(1, 1 << 20, Some(store));
        cache.insert(1, body("first"));
        cache.insert(2, body("second")); // evicts 1 from memory; disk keeps both
        let (b, tier) = cache.get(1).expect("disk hit");
        assert_eq!(tier, HitTier::Disk);
        assert_eq!(b.as_str(), "first");
        // Promoted back into memory: the next hit is a memory hit.
        let (_, tier) = cache.get(1).expect("mem hit");
        assert_eq!(tier, HitTier::Memory);
    }
}
