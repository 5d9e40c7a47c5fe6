//! u64 log-bucketed latency histograms for `/metrics` and the loadgen
//! report — integer-only, like every other number the workspace emits.
//!
//! A recorded value `v` (microseconds) lands in bucket
//! `floor(log2(v)) + 1` (bucket 0 holds `v == 0`), so bucket `i >= 1`
//! covers `[2^(i-1), 2^i)` and 64 buckets span the full u64 range.
//! Percentiles are reported as the *upper bound* of the bucket holding
//! the requested rank (`2^i - 1`), clamped to the exact recorded max so
//! no percentile ever exceeds it: a deterministic, allocation-free
//! answer whose error is bounded by the bucket's width — exactly the
//! trade the paper's own log-scaled tables make.
//!
//! # Atomic-ordering contract
//!
//! Every atomic here is **monotonic telemetry**, written with `Relaxed`
//! `fetch_add`/`fetch_max` and read only by `/metrics` scrapes and the
//! end-of-run loadgen report. No control-flow decision is ever made on
//! these values (the R9 concurrency pass enforces that), so cross-
//! thread ordering buys nothing; RMW atomicity alone guarantees no
//! lost increments. A scrape may observe `count` a beat ahead of the
//! bucket sums — [`Histogram::percentile`] tolerates that by falling
//! back to the highest non-empty bucket.

use std::sync::atomic::{AtomicU64, Ordering};

use vpir_jsonlite::JsonObj;

const BUCKETS: usize = 64;

/// A fixed-size, lock-free histogram of u64 samples (microseconds by
/// convention, but the math is unit-agnostic).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket index for a value.
    fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
        }
    }

    /// The inclusive upper bound reported for a bucket.
    fn upper_bound(index: usize) -> u64 {
        if index == 0 {
            0
        } else if index >= 63 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        if let Some(bucket) = self.buckets.get(Self::bucket_of(value)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The value at quantile `num/den` (e.g. `percentile(999, 1000)`
    /// is p99.9), reported as the holding bucket's upper bound clamped
    /// to the recorded max. Integer math throughout; returns 0 for an
    /// empty histogram.
    pub fn percentile(&self, num: u64, den: u64) -> u64 {
        let count = self.count();
        if count == 0 || den == 0 {
            return 0;
        }
        // ceil(count * num / den), clamped into [1, count].
        let rank = count
            .saturating_mul(num)
            .saturating_add(den - 1)
            .checked_div(den)
            .unwrap_or(count)
            .clamp(1, count);
        let mut cumulative = 0u64;
        let mut last_nonempty = 0usize;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n > 0 {
                last_nonempty = i;
            }
            cumulative = cumulative.saturating_add(n);
            if cumulative >= rank {
                return Self::upper_bound(i).min(self.max());
            }
        }
        // `count` raced ahead of the bucket writes: answer from the
        // highest bucket that has data rather than underreporting.
        Self::upper_bound(last_nonempty).min(self.max())
    }

    /// p50 of the recorded samples.
    pub fn p50(&self) -> u64 {
        self.percentile(50, 100)
    }

    /// p99 of the recorded samples.
    pub fn p99(&self) -> u64 {
        self.percentile(99, 100)
    }

    /// p99.9 of the recorded samples.
    pub fn p999(&self) -> u64 {
        self.percentile(999, 1000)
    }

    /// The histogram summary as a jsonlite object
    /// (`count`/`p50_us`/`p99_us`/`p999_us`/`max_us`, all u64).
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .u("count", self.count())
            .u("p50_us", self.p50())
            .u("p99_us", self.p99())
            .u("p999_us", self.p999())
            .u("max_us", self.max())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_uniform_distribution_has_the_expected_bucket_percentiles() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.max(), 1000);
        // rank 500 falls in bucket [256, 512) whose upper bound is 511.
        assert_eq!(h.p50(), 511);
        // rank 990 and rank 1000 both fall in bucket [512, 1024), whose
        // upper bound 1023 is clamped to the recorded max.
        assert_eq!(h.p99(), 1000);
        assert_eq!(h.p999(), 1000);
        assert_ordered(&h);
    }

    /// p50 ≤ p99 ≤ p999 ≤ max: no percentile exceeds the recorded max.
    fn assert_ordered(h: &Histogram) {
        assert!(h.p50() <= h.p99(), "p50 {} > p99 {}", h.p50(), h.p99());
        assert!(h.p99() <= h.p999(), "p99 {} > p999 {}", h.p99(), h.p999());
        assert!(h.p999() <= h.max(), "p999 {} > max {}", h.p999(), h.max());
    }

    #[test]
    fn skewed_distribution_separates_the_tail() {
        let h = Histogram::new();
        // 990 fast samples at 100us, 10 slow ones at 1_000_000us.
        for _ in 0..990 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        assert_eq!(h.p50(), 127, "bucket [64,128) holds the fast mass");
        assert_eq!(h.p99(), 127, "rank 990 is still a fast sample");
        assert_eq!(h.p999(), 1_000_000, "the p99.9 rank lands in the slow tail, clamped to max");
        assert_eq!(h.max(), 1_000_000);
        assert_ordered(&h);
    }

    #[test]
    fn edge_values_and_empty_histograms_are_total() {
        let h = Histogram::new();
        assert_eq!(h.p50(), 0, "empty histogram answers 0");
        assert_ordered(&h);
        h.record(0);
        assert_eq!(h.p50(), 0, "zero lands in bucket 0");
        h.record(u64::MAX);
        assert_eq!(h.percentile(100, 100), u64::MAX);
        assert_ordered(&h);
        assert_eq!(h.percentile(7, 0), 0, "zero denominator is refused, not divided");
        let json = h.to_json();
        assert!(json.contains("\"count\": 2"), "{json}");
        assert!(json.contains("\"p999_us\": "), "{json}");
    }
}
