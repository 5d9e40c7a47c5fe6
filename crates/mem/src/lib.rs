//! # vpir-mem — cache and memory-port timing models
//!
//! Timing-only models of the Table 1 memory hierarchy: 64 KB 2-way
//! set-associative instruction and data caches with 32-byte lines and a
//! 6-cycle miss latency; the data cache is dual-ported and non-blocking.
//!
//! Every cache-like table of the machine (these caches, the VPT, the
//! stride table, the reuse buffer and the reuse trace buffer) keeps its
//! ways in a [`SetAssoc`], which owns the set index, the LRU stamps and
//! the victim choice.
//!
//! These models track *tags and timing only* — data values live in
//! `vpir_isa::MemImage` (the simulator executes at dispatch and uses the
//! cache purely to decide when a value becomes available).
//!
//! # Examples
//!
//! ```
//! use vpir_mem::{Cache, CacheConfig};
//! let mut dcache = Cache::new(CacheConfig::table1_data());
//! let miss = dcache.access(0, 0x1000);
//! assert_eq!(miss.ready_cycle, 7); // 1-cycle hit pipe + 6-cycle miss
//! let hit = dcache.access(8, 0x1008);
//! assert_eq!(hit.ready_cycle, 9); // same line now resident
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented))]

mod assoc;
mod cache;
mod ports;

pub use assoc::SetAssoc;
pub use cache::{AccessOutcome, Cache, CacheConfig, CacheStats};
pub use ports::PortArbiter;
