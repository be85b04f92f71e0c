//! The harness's own arithmetic: nearest-rank percentiles, median and
//! MAD, relative differences. Kept apart from the workloads so
//! `check.sh` can unit-test it without running one.

/// Nearest-rank `q`-quantile (`q` in `[0, 1]`) of unsorted samples; 0
/// when empty. Nearest-rank never interpolates, so a reported p95 is a
/// latency some query actually had.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// Median: the middle sample, or the mean of the middle two.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median absolute deviation from the median.
pub fn mad(samples: &[f64]) -> f64 {
    let m = median(samples);
    let deviations: Vec<f64> = samples.iter().map(|s| (s - m).abs()).collect();
    median(&deviations)
}

/// How much worse `second` is than `first`, as a share of `first`;
/// negative when `second` is better. `higher_is_better` flips the sign.
pub fn worsening(first: f64, second: f64, higher_is_better: bool) -> f64 {
    if first == 0.0 {
        return if second == 0.0 { 0.0 } else { f64::INFINITY };
    }
    let delta = (second - first) / first.abs();
    if higher_is_better {
        -delta
    } else {
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        // Never interpolates: the answer is always a sample.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(percentile(&[1.0, 10.0], 0.5), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_and_mad() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // Deviations from 3 are {2, 0, 2, 6} -> median 2.
        assert_eq!(mad(&[1.0, 3.0, 5.0, 9.0, 3.0]), 2.0);
        assert_eq!(mad(&[7.0]), 0.0);
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(100.0, 110.0, false) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 0.0, false), 0.0);
        assert!(worsening(0.0, 1.0, false).is_infinite());
    }
}
