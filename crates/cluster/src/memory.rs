//! Heterogeneous memory sampling.
//!
//! Extreme-scale projections (Table 1) shrink memory per core to megabytes
//! and make *available* memory vary widely across nodes — the two effects
//! the memory-conscious strategy reacts to. [`TruncatedNormal`] is the
//! paper's experimental design: "the memory buffer sizes for processes
//! were set up as random variables following a normal distribution"
//! (mean = the baseline's fixed buffer size), truncated so samples stay
//! positive and bounded.

use rand::Rng;

/// A normal distribution `N(mean, stddev²)` truncated to `[lo, hi]`,
/// sampled by rejection with a clamping fallback.
///
/// Implemented in-crate with the Box–Muller transform so the workspace
/// needs nothing beyond the `rand` core crate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedNormal {
    mean: f64,
    stddev: f64,
    lo: f64,
    hi: f64,
}

impl TruncatedNormal {
    /// A truncated normal. `lo`/`hi` are clamped around the mean if given
    /// inverted; a non-positive `stddev` degenerates to a constant.
    pub fn new(mean: f64, stddev: f64, lo: f64, hi: f64) -> Self {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        TruncatedNormal {
            mean,
            stddev: stddev.max(0.0),
            lo,
            hi,
        }
    }

    /// The paper's configuration: mean = the baseline aggregation buffer,
    /// relative stddev (default 0.5 ≈ the paper's "50"), truncated to
    /// `[mean/4, 4·mean]` so buffers stay positive and sane.
    pub fn paper_buffers(mean: f64, relative_stddev: f64) -> Self {
        Self::new(mean, mean * relative_stddev, mean / 4.0, mean * 4.0)
    }

    /// Mean of the underlying (untruncated) normal.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard deviation of the underlying normal.
    pub fn stddev(&self) -> f64 {
        self.stddev
    }

    /// Lower truncation bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper truncation bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Draw one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.stddev == 0.0 {
            return self.mean.clamp(self.lo, self.hi);
        }
        // Rejection sampling: cheap because the truncation window in
        // practice covers most of the mass. Bail out to clamping after a
        // fixed number of tries so sampling is always O(1).
        for _ in 0..64 {
            let x = self.mean + self.stddev * standard_normal(rng);
            if x >= self.lo && x <= self.hi {
                return x;
            }
        }
        (self.mean + self.stddev * standard_normal(rng)).clamp(self.lo, self.hi)
    }

    /// Draw `n` samples.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// One standard-normal variate via the Box–Muller transform.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn truncated_normal_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        let d = TruncatedNormal::new(100.0, 50.0, 80.0, 120.0);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!((80.0..=120.0).contains(&x), "sample {x} out of bounds");
        }
    }

    #[test]
    fn truncated_normal_mean_roughly_preserved() {
        let mut rng = StdRng::seed_from_u64(42);
        let d = TruncatedNormal::paper_buffers(64.0, 0.5);
        let samples = d.sample_n(&mut rng, 20_000);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        // The [mean/4, 4·mean] window trims more of the lower tail than the
        // upper, so the sample mean sits slightly above the nominal 64.
        assert!((60.0..=72.0).contains(&mean), "mean = {mean}");
        let sd =
            (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64).sqrt();
        assert!(sd > 20.0 && sd < 40.0, "sd = {sd}");
    }

    #[test]
    fn zero_stddev_is_constant() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = TruncatedNormal::new(10.0, 0.0, 0.0, 100.0);
        assert_eq!(d.sample(&mut rng), 10.0);
        // Constant outside bounds clamps.
        let d = TruncatedNormal::new(200.0, 0.0, 0.0, 100.0);
        assert_eq!(d.sample(&mut rng), 100.0);
    }

    #[test]
    fn inverted_bounds_are_swapped() {
        let d = TruncatedNormal::new(5.0, 1.0, 10.0, 0.0);
        assert_eq!(d.lo(), 0.0);
        assert_eq!(d.hi(), 10.0);
    }
}
