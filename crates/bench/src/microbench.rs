//! A minimal wall-clock benchmarking harness.
//!
//! The workspace is offline-buildable and therefore cannot depend on
//! criterion; this module provides the small slice the bench targets
//! need: named groups, warm-up, repeated sampling, median/min
//! reporting, and optional per-element throughput.
//!
//! ```no_run
//! use vpir_bench::microbench::{black_box, group};
//!
//! let mut g = group("cache");
//! g.throughput(1024).bench("access_1k", || {
//!     for i in 0..1024u64 {
//!         black_box(i * 3);
//!     }
//! });
//! ```

use std::time::Instant;

pub use std::hint::black_box;

/// Timed invocations discarded before sampling starts.
const WARMUP: u32 = 3;
/// Timed samples per benchmark.
const SAMPLES: usize = 10;

/// Starts a named group of benchmarks.
pub fn group(name: &str) -> Group {
    Group {
        name: name.to_string(),
        elements: None,
    }
}

/// A named collection of benchmarks sharing an optional throughput.
#[derive(Debug)]
pub struct Group {
    name: String,
    elements: Option<u64>,
}

impl Group {
    /// Reports results as time per element over `elements` work items.
    pub fn throughput(&mut self, elements: u64) -> &mut Group {
        self.elements = Some(elements);
        self
    }

    /// Times `f`, which reports how many simulated cycles it ran, and
    /// prints the median and best throughput in cycles per second — the
    /// steady-state figure the zero-allocation cycle loop is tuned for
    /// (and the same unit `vpir bench` persists in `BENCH_matrix.json`).
    pub fn bench_cycle_rate(&mut self, name: &str, mut f: impl FnMut() -> u64) -> &mut Group {
        for _ in 0..WARMUP {
            black_box(f());
        }
        let mut rates = [0f64; SAMPLES];
        for r in &mut rates {
            let start = Instant::now();
            let cycles = black_box(f());
            let secs = start.elapsed().as_secs_f64().max(1e-12);
            *r = cycles as f64 / secs;
        }
        rates.sort_unstable_by(|a, b| a.total_cmp(b));
        let median = rates[SAMPLES / 2];
        let best = rates[SAMPLES - 1];
        println!(
            "{}/{name}: {} cycles/sec median, {} best",
            self.name,
            fmt_rate(median),
            fmt_rate(best)
        );
        self
    }

    /// Times `f`, printing the median and minimum over the samples.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> &mut Group {
        for _ in 0..WARMUP {
            black_box(f());
        }
        let mut samples = [0u64; SAMPLES];
        for s in &mut samples {
            let start = Instant::now();
            black_box(f());
            *s = start.elapsed().as_nanos() as u64;
        }
        samples.sort_unstable();
        let median = samples[SAMPLES / 2];
        let min = samples[0];
        let mut line = format!(
            "{}/{name}: median {}, min {}",
            self.name,
            fmt_ns(median),
            fmt_ns(min)
        );
        if let Some(per_elem) = self.elements.and_then(|n| median.checked_div(n)) {
            line.push_str(&format!(" ({}/elem)", fmt_ns(per_elem)));
        }
        println!("{line}");
        self
    }
}

fn fmt_rate(rate: f64) -> String {
    if rate >= 1e6 {
        format!("{:.2}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1}k", rate / 1e3)
    } else {
        format!("{rate:.0}")
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}
