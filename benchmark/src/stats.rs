//! Order statistics of the benchmark's samples.
//!
//! Medians and latency percentiles reuse `brb_stats` (linear interpolation); the
//! quartiles follow Python's `statistics.quantiles(values, n=4)` (the exclusive
//! method), because that is how the spread of a metric over a set of runs is judged.

pub use brb_stats::{median, percentile};

/// First quartile, median and third quartile as `statistics.quantiles(values, n=4)`
/// gives them. A single sample is its own quartiles; an empty one has none.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut data: Vec<f64> = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("samples must not contain NaN"));
    match data.len() {
        0 => None,
        1 => Some((data[0], data[0], data[0])),
        len => {
            let cut = |i: usize| {
                let m = len + 1;
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            Some((cut(1), cut(2), cut(3)))
        }
    }
}

/// Distance between the first and third quartile as a share of the median: the
/// run-to-run spread a metric's bound is judged against. 0 for fewer than two samples
/// or a zero median.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q2, q3)) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn spread_is_the_interquartile_range_over_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[4.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn percentiles_interpolate_linearly() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(median(&v), 25.0);
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 40.0);
        assert!((percentile(&v, 90.0) - 37.0).abs() < 1e-9);
    }
}
