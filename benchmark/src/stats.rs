//! Order statistics over op samples. Every op of a workload does
//! identical work, so the spread between samples is host noise: the
//! median is the timing, the rest are noise indicators.

/// Nearest-rank percentile (`q` in `0..=100`) of an unsorted, non-empty
/// sample: the smallest value with at least `q` % of the sample at or
/// below it.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Interquartile range as a share of the median (0 for a zero median).
pub fn iqr_frac(samples: &[f64]) -> f64 {
    let p50 = median(samples);
    if p50 == 0.0 {
        return 0.0;
    }
    (percentile(samples, 75.0) - percentile(samples, 25.0)) / p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(median(&s), 30.0);
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 20.0), 10.0);
        assert_eq!(percentile(&s, 21.0), 20.0);
        assert_eq!(percentile(&s, 90.0), 50.0);
        assert_eq!(percentile(&s, 100.0), 50.0);
        // Even count: nearest rank takes the lower middle, never a mean.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn iqr_is_relative_to_the_median() {
        let s = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0];
        // p25 = 20, p50 = 40, p75 = 60.
        assert_eq!(iqr_frac(&s), 1.0);
        assert_eq!(iqr_frac(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(iqr_frac(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }
}
