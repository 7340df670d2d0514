//! The estimators the harness reports and the gate compares.

/// Nearest-rank quantile: the `ceil(q * n)`-th smallest sample (the
/// smallest for `q` near 0), always an observed value. The timed metrics
/// are the 10th percentile: host noise on this machine only ever adds
/// time, so a low quantile of identical ops repeats better than their
/// median (README, noise study).
///
/// # Panics
///
/// Panics on an empty sample or NaN.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a timing sample"));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Smallest sample.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Median as Python's `statistics.median`: the mean of the middle two
/// for an even count.
///
/// # Panics
///
/// Panics on an empty sample or NaN.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a sample"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) — the spread
/// the pipeline computes over a run set. 0 for fewer than two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let m = values.len();
    if m < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a sample"));
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&sorted)
}

/// A duration in milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median wall time (µs) of `f` over `reps` calls.
pub fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = std::time::Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantile_picks_observed_values() {
        let xs: Vec<f64> = (1..=16).rev().map(f64::from).collect();
        // ceil(0.1 * 16) = 2nd smallest; ceil(0.5 * 16) = 8th.
        assert_eq!(quantile(&xs, 0.10), 2.0);
        assert_eq!(quantile(&xs, 0.50), 8.0);
        assert_eq!(quantile(&xs, 0.95), 16.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 16.0);
        assert_eq!(quantile(&[7.5], 0.10), 7.5);
        // 28 ops: ceil(2.8) = 3rd smallest.
        let ys: Vec<f64> = (1..=28).map(f64::from).collect();
        assert_eq!(quantile(&ys, 0.10), 3.0);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((quartile_spread(&[1.0, 2.0, 4.0]) - 1.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }
}
