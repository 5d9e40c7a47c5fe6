//! Property-based tests for the cache model against a reference
//! implementation of set-associative LRU.

use std::collections::BTreeMap;

use vpir_mem::{Cache, CacheConfig, PortArbiter};
use vpir_testkit::check;

/// A straightforward reference model of a set-associative LRU cache.
struct RefCache {
    sets: BTreeMap<u64, Vec<u64>>, // set -> lines, most recent last
    assoc: usize,
    line_bytes: u64,
    nsets: u64,
}

impl RefCache {
    fn new(cfg: &CacheConfig) -> RefCache {
        RefCache {
            sets: BTreeMap::new(),
            assoc: cfg.assoc,
            line_bytes: cfg.line_bytes as u64,
            nsets: cfg.sets() as u64,
        }
    }

    /// Returns whether the access hits, then updates LRU state.
    fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        let set = self.sets.entry(line % self.nsets).or_default();
        let hit = set.contains(&line);
        set.retain(|l| *l != line);
        set.push(line);
        if set.len() > self.assoc {
            set.remove(0);
        }
        hit
    }
}

fn small_config() -> CacheConfig {
    CacheConfig {
        size_bytes: 512,
        assoc: 2,
        line_bytes: 32,
        hit_latency: 1,
        miss_latency: 6,
        mshrs: 64, // effectively unlimited so timing never reorders fills
    }
}

/// Hit/miss classification matches the reference LRU model when
/// accesses are spaced out (no overlapping misses).
#[test]
fn matches_reference_lru() {
    check("matches_reference_lru", 256, |rng| {
        let cfg = small_config();
        let mut cache = Cache::new(cfg);
        let mut reference = RefCache::new(&cfg);
        let mut t = 0u64;
        for _ in 0..rng.gen_range(1usize..200) {
            let addr = rng.gen_range(0u64..0x4000);
            t += 100; // far enough apart that every miss has completed
            let expect = reference.access(addr);
            let got = cache.access(t, addr, false);
            assert_eq!(got.hit, expect, "addr {addr:#x} at {t}");
        }
    });
}

/// Data is never ready before the hit latency nor later than a full
/// miss, and hits are strictly faster than cold misses.
#[test]
fn latency_bounds() {
    check("latency_bounds", 256, |rng| {
        let cfg = small_config();
        let mut cache = Cache::new(cfg);
        let mut t = 0u64;
        for _ in 0..rng.gen_range(1usize..100) {
            let addr = rng.gen_range(0u64..0x4000);
            t += 50;
            let out = cache.access(t, addr, false);
            let delay = out.ready_cycle - t;
            assert!(delay >= cfg.hit_latency as u64);
            assert!(delay <= (cfg.hit_latency + cfg.miss_latency) as u64);
            if out.hit {
                assert_eq!(delay, cfg.hit_latency as u64);
            }
        }
    });
}

/// Stats add up: hits + misses + merges equals accesses.
#[test]
fn stats_are_consistent() {
    check("stats_are_consistent", 256, |rng| {
        let mut cache = Cache::new(small_config());
        let n = rng.gen_range(1usize..100);
        for i in 0..n {
            let addr = rng.gen_range(0u64..0x2000);
            cache.access(i as u64, addr, i % 3 == 0);
        }
        let s = cache.stats();
        assert_eq!(s.accesses(), n as u64);
        assert!(s.miss_ratio() >= 0.0 && s.miss_ratio() <= 1.0);
    });
}

/// The port arbiter grants exactly `ports` requests per cycle.
#[test]
fn arbiter_grants_exactly_ports() {
    check("arbiter_grants_exactly_ports", 256, |rng| {
        let ports = rng.gen_range(1u32..4);
        let demands: Vec<usize> = (0..rng.gen_range(1usize..50))
            .map(|_| rng.gen_range(0usize..8))
            .collect();
        let mut arb = PortArbiter::new(ports);
        for (cycle, demand) in demands.iter().enumerate() {
            let granted = (0..*demand).filter(|_| arb.request(cycle as u64)).count();
            assert_eq!(granted, (*demand).min(ports as usize));
        }
        let (g, d) = arb.totals();
        assert_eq!(g + d, demands.iter().map(|d| *d as u64).sum::<u64>());
    });
}
