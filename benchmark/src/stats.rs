//! Order statistics over timing samples.

/// The `pct`-th percentile (0–100) by linear interpolation between the
/// closest ranks — the "inclusive" definition, so `percentile(_, 0)` is
/// the minimum and `percentile(_, 100)` the maximum.
///
/// # Panics
///
/// Panics on an empty sample: every caller measures at least one pass.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = pct.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method: rank `q·(len + 1)`, clamped to the
/// sample) — the definition the acceptance check's spread uses. A single
/// sample has no spread: both quartiles are that sample.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "quartiles of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    let at = |q: f64| {
        if len == 1 {
            return sorted[0];
        }
        let rank = q * (len + 1) as f64;
        let j = (rank.floor() as usize).clamp(1, len - 1);
        let frac = rank - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    (at(0.25), at(0.75))
}

/// Interquartile range as a share of the median — the spread the
/// benchmark's bounds are judged against. `0` for a zero median.
pub fn relative_spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    let m = median(samples);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_on_known_inputs() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
        // Even length interpolates between the two middle ranks.
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        // 95th of 1..=21: rank 0.95 · 20 = 19 → the 20th value.
        let ladder: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&ladder, 95.0), 20.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&ten) - 1.0).abs() < 1e-12); // 5.5 / 5.5
        assert_eq!(relative_spread(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(relative_spread(&[0.0, 0.0]), 0.0);
    }
}
