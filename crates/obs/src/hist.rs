//! Fixed-bucket log2 latency histograms plus the shared nearest-rank
//! percentile helper.
//!
//! Bucket layout: 25 finite buckets with upper bounds `1µs << k` for
//! `k = 0..25` (1µs, 2µs, 4µs, … ~16.78s) plus a `+Inf` bucket. The
//! layout is fixed so histograms merge by bucket-wise addition and the
//! Prometheus `le` label set never varies between scrapes or processes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of finite buckets.
pub const FINITE_BUCKETS: usize = 25;

/// Upper bounds of the finite buckets, in nanoseconds.
pub const BUCKET_BOUNDS_NS: [u64; FINITE_BUCKETS] = {
    let mut bounds = [0u64; FINITE_BUCKETS];
    let mut k = 0;
    while k < FINITE_BUCKETS {
        bounds[k] = 1_000u64 << k;
        k += 1;
    }
    bounds
};

/// The `q`-quantile (0.0 ..= 1.0) of a sample set by the nearest-rank
/// method. Empty input yields 0.0 so a zero-request run stays renderable.
///
/// This is the single shared implementation: `ldiv-bench`'s rollups
/// call it, and [`Histogram::quantile`] uses the same rank rule over
/// cumulative bucket counts.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    sorted[nearest_rank(q, sorted.len()) - 1]
}

/// Nearest-rank index (1-based) for quantile `q` over `n` samples:
/// `ceil(q * n)` clamped to `1..=n`.
pub fn nearest_rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// A mergeable log2 latency histogram with atomic cells.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; FINITE_BUCKETS],
    inf: AtomicU64,
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `ns` nanoseconds.
    pub fn observe_ns(&self, ns: u64) {
        match BUCKET_BOUNDS_NS.iter().position(|&b| ns <= b) {
            Some(k) => self.buckets[k].fetch_add(1, Ordering::Relaxed),
            None => self.inf.fetch_add(1, Ordering::Relaxed),
        };
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one observation from a [`Duration`].
    pub fn observe(&self, d: Duration) {
        self.observe_ns(d.as_nanos() as u64);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (finite buckets, then `+Inf`), non-cumulative.
    pub fn bucket_counts(&self) -> [u64; FINITE_BUCKETS + 1] {
        let mut out = [0u64; FINITE_BUCKETS + 1];
        for (k, cell) in self.buckets.iter().enumerate() {
            out[k] = cell.load(Ordering::Relaxed);
        }
        out[FINITE_BUCKETS] = self.inf.load(Ordering::Relaxed);
        out
    }

    /// Adds another histogram's cells into this one (same fixed layout).
    pub fn merge(&self, other: &Histogram) {
        for (k, cell) in other.buckets.iter().enumerate() {
            self.buckets[k].fetch_add(cell.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.inf
            .fetch_add(other.inf.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum_ns
            .fetch_add(other.sum_ns.load(Ordering::Relaxed), Ordering::Relaxed);
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Nearest-rank quantile estimate in seconds: the upper bound of the
    /// bucket holding the rank-`ceil(q*n)` observation (the histogram
    /// analogue of [`percentile`]). Returns `None` when empty and
    /// `f64::INFINITY` when the rank lands in the `+Inf` bucket.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = nearest_rank(q, total as usize) as u64;
        let mut cumulative = 0u64;
        for (k, &c) in counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return Some(if k < FINITE_BUCKETS {
                    BUCKET_BOUNDS_NS[k] as f64 / 1e9
                } else {
                    f64::INFINITY
                });
            }
        }
        unreachable!("rank is clamped to total observations")
    }
}

/// Renders a bucket bound in seconds as an exact decimal string
/// (integer-nanosecond bounds have exact decimal forms, so `le` labels
/// are deterministic with no float formatting involved).
pub fn seconds_text(ns: u64) -> String {
    let secs = ns / 1_000_000_000;
    let frac = ns % 1_000_000_000;
    if frac == 0 {
        return secs.to_string();
    }
    let mut out = format!("{secs}.{frac:09}");
    while out.ends_with('0') {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_double_from_one_microsecond() {
        assert_eq!(BUCKET_BOUNDS_NS[0], 1_000);
        assert_eq!(BUCKET_BOUNDS_NS[1], 2_000);
        assert_eq!(BUCKET_BOUNDS_NS[24], 16_777_216_000);
    }

    #[test]
    fn observations_land_in_log2_buckets() {
        let h = Histogram::new();
        h.observe_ns(1); // <= 1µs
        h.observe_ns(1_000); // boundary: still the 1µs bucket
        h.observe_ns(1_001); // 2µs bucket
        h.observe_ns(20_000_000_000); // past the last finite bound
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 2);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[FINITE_BUCKETS], 1);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum_ns(), 1 + 1_000 + 1_001 + 20_000_000_000);
    }

    #[test]
    fn merge_adds_cellwise() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.observe_ns(500);
        b.observe_ns(500);
        b.observe_ns(3_000);
        a.merge(&b);
        let counts = a.bucket_counts();
        assert_eq!(counts[0], 2);
        assert_eq!(counts[2], 1);
        assert_eq!(a.count(), 3);
    }

    /// Pins nearest-rank semantics at small N for both the sample-based
    /// percentile and the histogram quantile (the satellite requirement).
    #[test]
    fn nearest_rank_small_n_edge_cases() {
        // N=1: every quantile is the single sample.
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[7.0], 1.0), 7.0);
        // N=2: rank = ceil(2q) clamped to 1..=2.
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.51), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.99), 2.0);
        // N=3: p50 is the second sample, p99 the third.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.34), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.33), 1.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.99), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);

        // Histogram quantile follows the identical rank rule.
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None); // N=0
        h.observe_ns(500); // 1µs bucket
        assert_eq!(h.quantile(0.5), Some(1e-6)); // N=1
        h.observe_ns(3_000); // 4µs bucket
        assert_eq!(h.quantile(0.5), Some(1e-6)); // N=2, rank 1
        assert_eq!(h.quantile(0.51), Some(4e-6)); // N=2, rank 2
        h.observe_ns(3_000); // N=3
        assert_eq!(h.quantile(0.5), Some(4e-6)); // rank 2
        assert_eq!(h.quantile(0.33), Some(1e-6)); // rank 1
        assert_eq!(h.quantile(0.99), Some(4e-6)); // rank 3
    }

    #[test]
    fn quantile_hits_inf_bucket() {
        let h = Histogram::new();
        h.observe_ns(u64::MAX / 2);
        assert_eq!(h.quantile(0.5), Some(f64::INFINITY));
    }

    #[test]
    fn seconds_text_is_exact_and_trimmed() {
        assert_eq!(seconds_text(1_000), "0.000001");
        assert_eq!(seconds_text(2_048_000), "0.002048");
        assert_eq!(seconds_text(1_000_000_000), "1");
        assert_eq!(seconds_text(16_777_216_000), "16.777216");
    }
}
