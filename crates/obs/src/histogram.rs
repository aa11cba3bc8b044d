//! Log-bucketed histograms.
//!
//! Request sizes and wait times in the simulation span six or more
//! orders of magnitude, so fixed-width buckets are useless; power-of-two
//! buckets give constant relative resolution at O(64) memory per
//! series. Bucket `i` counts observations in `[2^(i-1), 2^i)` (bucket 0
//! counts exact zeros), which makes bucket upper bounds exactly
//! representable in every exporter.

/// A histogram over `u64` observations with power-of-two buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `counts[0]` = observations equal to 0; `counts[i]` (i ≥ 1) =
    /// observations in `[2^(i-1), 2^i)`.
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    /// Same as [`Histogram::new`] (`min` starts at `u64::MAX` so the
    /// first observation always lowers it).
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = Self::bucket_index(value);
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Bucket index a value falls into.
    fn bucket_index(value: u64) -> usize {
        match value {
            0 => 0,
            v => 64 - v.leading_zeros() as usize,
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observation (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Non-empty buckets as `(inclusive_upper_bound, count)`, ascending.
    /// Bucket 0 reports bound 0; bucket `i` reports `2^i - 1` (the
    /// largest value in `[2^(i-1), 2^i)`).
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let bound = if i == 0 {
                    0
                } else {
                    ((1u128 << i) - 1).min(u64::MAX as u128) as u64
                };
                (bound, c)
            })
            .collect()
    }

    /// Estimated `q`-quantile (`0.0 ≤ q ≤ 1.0`) of the recorded
    /// observations: find the bucket containing the target rank, then
    /// interpolate linearly between the bucket's bounds. The estimate is
    /// clamped to the exact observed `[min, max]`, so single-sample and
    /// single-bucket histograms answer exactly at the extremes. Returns
    /// `None` when the histogram is empty or `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !q.is_finite() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        if q == 0.0 {
            return Some(self.min as f64);
        }
        // Target rank in (0, count]: the q-quantile is the value below
        // which a q fraction of the observations fall.
        let target = q * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let before = cum;
            cum += c;
            if cum as f64 >= target {
                let (lo, hi) = if i == 0 {
                    (0.0, 0.0)
                } else {
                    (
                        (1u64 << (i - 1)) as f64,
                        ((1u128 << i) - 1).min(u64::MAX as u128) as f64,
                    )
                };
                let frac = (target - before as f64) / c as f64;
                let est = lo + frac * (hi - lo);
                return Some(est.clamp(self.min as f64, self.max as f64));
            }
        }
        Some(self.max as f64)
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (slot, &c) in self.counts.iter_mut().zip(&other.counts) {
            *slot += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert!(h.buckets().is_empty());
    }

    #[test]
    fn bucket_boundaries() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024] {
            h.observe(v);
        }
        // 0 → bucket 0; 1 → (0,1]; 2,3 → (1,3]; 4..7 → (3,7]; 8 → (7,15];
        // 1024 → (1023, 2047].
        assert_eq!(
            h.buckets(),
            vec![(0, 1), (1, 1), (3, 2), (7, 2), (15, 1), (2047, 1)]
        );
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1024));
    }

    #[test]
    fn bucket_counts_cover_all_observations() {
        let mut h = Histogram::new();
        for v in 0..1000u64 {
            h.observe(v * 37);
        }
        let total: u64 = h.buckets().iter().map(|&(_, c)| c).sum();
        assert_eq!(total, h.count());
        assert_eq!(h.sum(), (0..1000u128).map(|v| v * 37).sum());
    }

    #[test]
    fn merge_matches_sequential() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [5u64, 100, 3] {
            a.observe(v);
            all.observe(v);
        }
        for v in [0u64, 999_999] {
            b.observe(v);
            all.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        // Merging an empty histogram is a no-op.
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before);
    }

    #[test]
    fn extreme_values() {
        let mut h = Histogram::new();
        h.observe(u64::MAX);
        assert_eq!(h.buckets(), vec![(u64::MAX, 1)]);
        assert_eq!(h.percentile(0.99), Some(u64::MAX as f64));
    }

    #[test]
    fn percentile_empty_and_out_of_range() {
        let h = Histogram::new();
        assert_eq!(h.percentile(0.5), None);
        let mut h = Histogram::new();
        h.observe(7);
        assert_eq!(h.percentile(-0.1), None);
        assert_eq!(h.percentile(1.1), None);
        assert_eq!(h.percentile(f64::NAN), None);
    }

    #[test]
    fn percentile_single_sample_is_exact() {
        let mut h = Histogram::new();
        h.observe(100);
        for q in [0.0, 0.25, 0.5, 0.95, 1.0] {
            assert_eq!(h.percentile(q), Some(100.0), "q={q}");
        }
    }

    #[test]
    fn percentile_all_in_one_bucket_interpolates_within_range() {
        // All samples in [64, 127] (one bucket): any estimate must stay
        // inside the observed [min, max] and grow with q.
        let mut h = Histogram::new();
        for v in [64u64, 80, 100, 127] {
            h.observe(v);
        }
        let p50 = h.percentile(0.5).unwrap();
        let p99 = h.percentile(0.99).unwrap();
        assert!((64.0..=127.0).contains(&p50));
        assert!((64.0..=127.0).contains(&p99));
        assert!(p50 <= p99);
        assert_eq!(h.percentile(0.0), Some(64.0));
        assert_eq!(h.percentile(1.0), Some(127.0));
    }

    #[test]
    fn percentile_is_monotonic_and_order_of_magnitude_right() {
        let mut h = Histogram::new();
        // 90 small values, 10 large ones: p50 small, p99 large.
        for _ in 0..90 {
            h.observe(1000);
        }
        for _ in 0..10 {
            h.observe(1_000_000);
        }
        let p50 = h.percentile(0.5).unwrap();
        let p95 = h.percentile(0.95).unwrap();
        let p99 = h.percentile(0.99).unwrap();
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p50 < 3000.0, "p50 {p50} should sit in the small bucket");
        assert!(p99 > 500_000.0, "p99 {p99} should sit in the large bucket");
        // Zeros land in bucket 0 and report 0.
        let mut z = Histogram::new();
        z.observe(0);
        z.observe(0);
        assert_eq!(z.percentile(0.5), Some(0.0));
    }
}
