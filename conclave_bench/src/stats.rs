//! Order statistics for the harness: medians, nearest-rank percentiles with
//! the "ten samples beyond" rule, and quartiles as Python's
//! `statistics.quantiles(values, n=4)` gives them.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    v
}

/// The median (mean of the two middle values for an even count); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile: the smallest sample such that at least `p` of
/// all samples are less than or equal to it. `p` in (0, 1]; 0 for an empty
/// slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Whether the nearest-rank percentile `p` of `n` samples has at least ten
/// samples beyond it — the condition under which a tail percentile is
/// reported at all.
pub fn tail_is_supported(n: usize, p: f64) -> bool {
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    n >= rank + 10
}

/// First quartile, median and third quartile by the exclusive method
/// (Python's `statistics.quantiles(values, n=4)`); a single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let m = v.len();
    match m {
        0 => [0.0; 3],
        1 => [v[0]; 3],
        _ => [1usize, 2, 3].map(|i| {
            let j = (i * (m + 1) / 4).clamp(1, m - 1);
            let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        }),
    }
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// the driver holds against each metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        // Nearest rank never interpolates: p95 of ten samples is the largest.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.95), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn a_tail_percentile_needs_ten_samples_beyond_it() {
        // p95 of 200 samples is rank 190: exactly ten beyond.
        assert!(tail_is_supported(200, 0.95));
        assert!(!tail_is_supported(199, 0.95));
        // p99 needs a thousand samples, the median twenty.
        assert!(tail_is_supported(1000, 0.99));
        assert!(!tail_is_supported(999, 0.99));
        assert!(tail_is_supported(20, 0.50));
        assert!(!tail_is_supported(19, 0.50));
        assert!(!tail_is_supported(0, 0.50));
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
