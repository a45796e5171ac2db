//! Exact order statistics over recorded samples.

/// The tail quantiles a latency can be reported at, highest first.
const TAILS: [f64; 4] = [0.99, 0.95, 0.90, 0.75];

/// Samples that must lie beyond a reported tail quantile for it to be more
/// than a handful of outliers.
const MIN_BEYOND: usize = 10;

/// Index of quantile `q` in `n` ascending samples (nearest rank).
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The exact `q`-quantile of ascending `sorted` (nearest rank, no
/// interpolation: the value is one that was measured).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), q)]
}

/// The highest tail quantile (at most p99) with at least ten of `n` samples
/// beyond it; the median when even p75 has fewer.
pub fn supported_tail(n: usize) -> f64 {
    TAILS
        .into_iter()
        .find(|&q| n > 0 && n - 1 - rank(n, q) >= MIN_BEYOND)
        .unwrap_or(0.5)
}

/// Median and supported tail of a latency sample, in the sample's unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    pub samples: usize,
    pub p50: f64,
    pub p95: f64,
    pub tail: f64,
    /// The quantile `tail` was read at (0.99 at full scale).
    pub tail_quantile: f64,
}

pub fn summarize(mut samples: Vec<f64>) -> Option<LatencySummary> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let tail_quantile = supported_tail(samples.len());
    Some(LatencySummary {
        samples: samples.len(),
        p50: quantile(&samples, 0.5),
        p95: quantile(&samples, 0.95),
        tail: quantile(&samples, tail_quantile),
        tail_quantile,
    })
}

/// Median of a handful of repeated measurements (set-up, restart).
pub fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn quantiles_are_measured_values_at_the_nearest_rank() {
        let s = ramp(100);
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples sits at rank 990: ten samples beyond.
        assert_eq!(supported_tail(1000), 0.99);
        assert_eq!(supported_tail(999), 0.95);
        // p95 of 200 sits at rank 190: ten beyond; of 199 only nine.
        assert_eq!(supported_tail(200), 0.95);
        assert_eq!(supported_tail(199), 0.90);
        assert_eq!(supported_tail(100), 0.90);
        assert_eq!(supported_tail(99), 0.75);
        assert_eq!(supported_tail(40), 0.75);
        assert_eq!(supported_tail(39), 0.5);
        assert_eq!(supported_tail(0), 0.5);
    }

    #[test]
    fn summary_reports_median_and_supported_tail() {
        let mut samples = ramp(2000);
        samples.reverse();
        let s = summarize(samples).unwrap();
        assert_eq!(s.samples, 2000);
        assert_eq!(s.p50, 1000.0);
        assert_eq!(s.p95, 1900.0);
        assert_eq!(s.tail, 1980.0);
        assert_eq!(s.tail_quantile, 0.99);
        assert!(summarize(Vec::new()).is_none());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
