//! Order statistics over timing samples.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples
//! lie beyond it: a p99 over 150 samples rests on one or two values and
//! moves with whichever outlier the run happened to catch.

/// Samples that must lie strictly beyond a percentile before it is
/// reported.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (nearest rank, `0 < p < 100`) of `samples`, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile rank {p} out of (0, 100)");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    if n - 1 - idx < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[idx])
}

/// The middle value of a small set of per-repetition figures (mean of
/// the two middle values for an even count). Unlike [`percentile`] this
/// has no sample floor: it summarises a handful of repetitions, each of
/// which is already an aggregate over many operations.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean; `0.0` for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples: rank 990, ten samples beyond.
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        // p99 of 999 samples: rank 990 again, only nine beyond.
        assert_eq!(percentile(&ramp(999), 99.0), None);
        // p90 needs 100 samples, p50 needs 20.
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(percentile(&ramp(99), 90.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(200);
        v.reverse();
        assert_eq!(percentile(&v, 90.0), Some(180.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
