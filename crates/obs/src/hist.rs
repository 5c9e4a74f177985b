//! The mergeable log₂-bucketed histogram underlying `obs::record` /
//! `obs::time` and the service tier's latency percentiles.
//!
//! Always compiled (no feature gate): the service workers and the
//! benchmark record latencies into [`Histogram`]s whether or not the probe
//! layer is armed, and tests compare percentile extraction against
//! sorted-vector references.

/// Number of log₂ buckets: bucket `k` holds values in
/// `[2^k, 2^(k+1))`, with 0 folded into bucket 0, so 64 buckets cover
/// the whole `u64` range.
pub const BUCKETS: usize = 64;

/// Bucket index of a value: `floor(log₂(max(v, 1)))`.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (63 - (v | 1).leading_zeros()) as usize
}

/// A log₂-bucketed histogram with an exact maximum: fixed size,
/// allocation-free, mergeable.
///
/// Percentiles are resolved to bucket granularity (a factor-of-2
/// bound) and clamped by the exact max, which is the right fidelity
/// for latency reporting: the interesting question is "did p999 move a
/// bucket", not its third significant digit.
///
/// # Examples
///
/// ```
/// use sl2_obs::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// assert_eq!(h.max(), 1000);
/// assert!(h.p50() >= 500 && h.p50() < 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            max: 0,
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        if v > self.max {
            self.max = v;
        }
    }

    /// Folds `other` into `self` (bucket-wise sum, max of maxes) —
    /// the per-thread-shard merge.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// Reconstructs a histogram from raw bucket counts and an exact
    /// max (the armed registry's atomic-shard snapshot path).
    pub fn from_parts(buckets: [u64; BUCKETS], max: u64) -> Self {
        let count = buckets.iter().sum();
        Histogram {
            buckets,
            count,
            max,
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The exact largest observation (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `num/den` (e.g. `99/100` for p99):
    /// the inclusive upper bound of the bucket holding the
    /// ceil(count·num/den)-th smallest observation, clamped by the
    /// exact max. Returns 0 on an empty histogram.
    pub fn value_at_quantile(&self, num: u64, den: u64) -> u64 {
        assert!(den > 0 && num <= den, "quantile must be in [0, 1]");
        if self.count == 0 {
            return 0;
        }
        // Ceiling rank, at least 1: p0 is the smallest observation.
        // Widen to u128 so count × num cannot overflow.
        let rank = ((self.count as u128 * num as u128).div_ceil(den as u128)).max(1) as u64;
        let mut seen = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let hi = if k == BUCKETS - 1 {
                    u64::MAX
                } else {
                    (1u64 << (k + 1)) - 1
                };
                return hi.min(self.max);
            }
        }
        self.max
    }

    /// Median (bucket-resolution; see [`Histogram::value_at_quantile`]).
    pub fn p50(&self) -> u64 {
        self.value_at_quantile(1, 2)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.value_at_quantile(99, 100)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.value_at_quantile(999, 1000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_ranges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p999(), 0);
    }

    #[test]
    fn max_is_exact_and_caps_every_percentile() {
        let mut h = Histogram::new();
        h.record(5);
        h.record(1000);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.value_at_quantile(1, 1), 1000);
        assert!(h.p999() <= 1000);
    }

    #[test]
    fn merge_is_bucketwise_sum() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1u64, 2, 2, 700] {
            a.record(v);
        }
        for v in [3u64, 900, 100_000] {
            b.record(v);
        }
        let mut whole = Histogram::new();
        for v in [1u64, 2, 2, 700, 3, 900, 100_000] {
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }
}
