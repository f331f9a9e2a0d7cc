//! Order statistics the benchmark reports: median, quartiles, MAD,
//! nearest-rank percentiles, and the rule for which percentile a sample
//! is large enough to support.

/// Summary of one sample of timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Value at fractional rank `q` (0..=1) of an ascending slice, linearly
/// interpolated between neighbours.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// Min, quartiles, median, max and MAD of a non-empty sample.
pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    Summary {
        n: s.len(),
        min: s[0],
        q1: quantile_sorted(&s, 0.25),
        median: quantile_sorted(&s, 0.5),
        q3: quantile_sorted(&s, 0.75),
        max: s[s.len() - 1],
        mad: mad(values),
    }
}

/// Nearest-rank percentile (`pct` in 1..=100): the smallest sample with
/// at least `pct` % of the sample at or below it.
pub fn percentile(values: &[f64], pct: u32) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "percentile of an empty sample");
    let rank = (s.len() * pct as usize).div_ceil(100).clamp(1, s.len());
    s[rank - 1]
}

/// A percentile is supported by a sample only when at least ten samples
/// lie beyond it (p90 needs 100 samples, p99 needs 1000).
pub fn percentile_eligible(n: usize, pct: u32) -> bool {
    n * (100 - pct.min(100) as usize) >= 10 * 100
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_interpolate_like_the_inclusive_method() {
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(
            (s.n, s.min, s.q1, s.median, s.q3, s.max),
            (9, 1.0, 3.0, 5.0, 7.0, 9.0)
        );
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.q3), (1.75, 3.25));
    }

    #[test]
    fn mad_ignores_one_outlier() {
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
        assert_eq!(mad(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[4.0, 2.0], 90), 4.0);
        assert_eq!(percentile(&[4.0], 1), 4.0);
    }

    #[test]
    fn eligibility_needs_ten_samples_beyond() {
        assert!(!percentile_eligible(99, 90));
        assert!(percentile_eligible(100, 90));
        assert!(percentile_eligible(20, 50));
        assert!(!percentile_eligible(19, 50));
        assert!(!percentile_eligible(999, 99));
        assert!(percentile_eligible(1000, 99));
        assert!(!percentile_eligible(1_000_000, 100));
    }
}
