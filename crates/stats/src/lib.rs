//! Summary statistics for the PBRB experiment harnesses.
//!
//! The paper reports, for every modification MBD.1–12, the distribution of its relative
//! impact on broadcast latency and on the number of bits transmitted (Figs. 7–10 show
//! box plots with the 95% interval, the quartiles and the median; Table 1 shows observed
//! ranges). This crate provides the small statistics toolbox those reports need:
//!
//! * [`Summary`] — mean / min / max / count over a sample;
//! * [`Accumulator`] — a streaming, mergeable counterpart of [`Summary`] used by the
//!   parallel sweep engine to aggregate partial results;
//! * [`FiveNumber`] — the box-plot row used in Figs. 7–10 (2.5th percentile, first
//!   quartile, median, third quartile, 97.5th percentile);
//! * [`LogHistogram`] — a mergeable log-bucketed histogram with `p50`/`p90`/`p99`
//!   quantiles, used by the workload engine to aggregate per-broadcast delivery
//!   latencies across sweep workers (its merge is associative and exact, so parallel
//!   aggregation is bit-identical to serial);
//! * [`relative_variation`] — the `(new - baseline) / baseline` percentage used throughout
//!   Table 1 and Figs. 6–10.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Basic summary of a sample: count, mean, min, max and standard deviation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean (0 for an empty sample).
    pub mean: f64,
    /// Minimum value (0 for an empty sample).
    pub min: f64,
    /// Maximum value (0 for an empty sample).
    pub max: f64,
    /// Population standard deviation (0 for an empty sample).
    pub std_dev: f64,
}

impl Summary {
    /// Computes the summary of a sample.
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self {
                count: 0,
                mean: 0.0,
                min: 0.0,
                max: 0.0,
                std_dev: 0.0,
            };
        }
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / count as f64;
        Self {
            count,
            mean,
            min,
            max,
            std_dev: var.sqrt(),
        }
    }
}

/// A streaming, mergeable summary accumulator (Welford / Chan parallel moments).
///
/// The parallel sweep engine (`brb-sim::sweep`) aggregates partial results per chunk and
/// merges the partials in a deterministic order; `Accumulator` is the merge-friendly
/// counterpart of [`Summary`]: it carries count, mean, the centered second moment, min and
/// max, and two accumulators can be [`Accumulator::merge`]d without revisiting samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accumulator {
    count: usize,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Accumulator {
    fn default() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Accumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one observation in (Welford's online update).
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another accumulator in (Chan et al.'s parallel combination).
    ///
    /// Merging is exact on counts/min/max and numerically stable on mean/variance; the
    /// result depends on the merge *order* only through floating-point rounding, which is
    /// why the sweep engine always merges partials in a canonical order.
    pub fn merge(&mut self, other: &Accumulator) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations folded in.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Minimum observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Population standard deviation (0 when empty).
    pub fn std_dev(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.m2 / self.count as f64).max(0.0).sqrt()
        }
    }

    /// Converts into the plain [`Summary`] report.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            min: self.min(),
            max: self.max(),
            std_dev: self.std_dev(),
        }
    }
}

/// Number of sub-buckets per power of two in a [`LogHistogram`]: 16, bounding the
/// relative quantization error at `1/16` (6.25%) while keeping the whole `u64` range in
/// under a thousand buckets.
const HISTOGRAM_SUB_BUCKET_BITS: u32 = 4;

/// A mergeable histogram over `u64` observations with log-linear buckets.
///
/// Values below 16 get exact unit buckets; above, each power of two is split into 16
/// linear sub-buckets, so any recorded value is attributed to a bucket whose bounds are
/// within 6.25% of it. This is the latency-distribution container of the workload
/// engine: per-run histograms of microsecond delivery latencies are merged across sweep
/// points (and sweep workers) and queried for `p50`/`p90`/`p99`.
///
/// Merging adds bucket counts element-wise, which makes it **exact, associative and
/// commutative** — the property the parallel sweep aggregation relies on: folding any
/// partition of the observations in any grouping yields byte-identical histograms.
/// (`tests/histogram_properties.rs` pins this with a proptest suite.)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LogHistogram {
    /// `counts[i]` is the number of observations in bucket `i`; trailing zero buckets are
    /// never stored, so equal distributions compare equal structurally.
    counts: Vec<u64>,
    /// Total number of observations (the sum of `counts`).
    total: u64,
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index of a value.
    fn bucket_index(value: u64) -> usize {
        let sub_buckets = 1u64 << HISTOGRAM_SUB_BUCKET_BITS; // 16
        if value < sub_buckets {
            return value as usize;
        }
        let exponent = 63 - u64::from(value.leading_zeros());
        let shift = exponent - u64::from(HISTOGRAM_SUB_BUCKET_BITS);
        let sub = (value >> shift) - sub_buckets;
        ((exponent - u64::from(HISTOGRAM_SUB_BUCKET_BITS) + 1) * sub_buckets + sub) as usize
    }

    /// Inclusive lower bound of bucket `index` (the smallest value mapped to it).
    fn bucket_low(index: usize) -> u64 {
        let sub_buckets = 1usize << HISTOGRAM_SUB_BUCKET_BITS;
        if index < sub_buckets {
            return index as u64;
        }
        let block = index / sub_buckets; // >= 1
        let sub = (index % sub_buckets) as u64;
        (sub_buckets as u64 + sub) << (block - 1)
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `count` identical observations.
    pub fn record_n(&mut self, value: u64, count: u64) {
        if count == 0 {
            return;
        }
        let index = Self::bucket_index(value);
        if self.counts.len() <= index {
            self.counts.resize(index + 1, 0);
        }
        self.counts[index] += count;
        self.total += count;
    }

    /// Merges another histogram in by element-wise bucket addition (exact, associative,
    /// commutative).
    pub fn merge(&mut self, other: &LogHistogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether the histogram is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The value at quantile `q` in `[0, 1]`: the lower bound of the bucket holding the
    /// `ceil(q * count)`-th smallest observation (so `quantile(0.5)` of a single
    /// observation returns that observation's bucket). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            cumulative += count;
            if cumulative >= target {
                return Some(Self::bucket_low(index));
            }
        }
        // Unreachable while `total` equals the sum of `counts`; be defensive anyway.
        Some(Self::bucket_low(self.counts.len().saturating_sub(1)))
    }

    /// Median (50th percentile) bucket bound.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 90th percentile bucket bound.
    pub fn p90(&self) -> Option<u64> {
        self.quantile(0.90)
    }

    /// 99th percentile bucket bound.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Largest non-empty bucket's lower bound (an upper-tail witness). `None` when empty.
    pub fn max_bucket_low(&self) -> Option<u64> {
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .map(Self::bucket_low)
    }
}

/// The five numbers reported by the paper's box plots (Figs. 7–10): the 95% interval
/// bounds, the quartiles, and the median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiveNumber {
    /// 2.5th percentile (lower bound of the 95% interval).
    pub p2_5: f64,
    /// First quartile (25th percentile).
    pub q1: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// Third quartile (75th percentile).
    pub q3: f64,
    /// 97.5th percentile (upper bound of the 95% interval).
    pub p97_5: f64,
}

impl FiveNumber {
    /// Computes the five-number summary of a sample.
    ///
    /// Returns `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not contain NaN"));
        Some(Self {
            p2_5: percentile_sorted(&sorted, 2.5),
            q1: percentile_sorted(&sorted, 25.0),
            median: percentile_sorted(&sorted, 50.0),
            q3: percentile_sorted(&sorted, 75.0),
            p97_5: percentile_sorted(&sorted, 97.5),
        })
    }

    /// Formats the five numbers in the bracketed style used on the side of Figs. 7–10,
    /// e.g. `[-51 -34 -29 -22 -6]`.
    pub fn to_bracket_string(&self) -> String {
        format!(
            "[{:.1} {:.1} {:.1} {:.1} {:.1}]",
            self.p2_5, self.q1, self.median, self.q3, self.p97_5
        )
    }
}

/// Linear-interpolation percentile of an **already sorted** sample; `pct` in `[0, 100]`.
///
/// # Panics
///
/// Panics if the sample is empty.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    let pct = pct.clamp(0.0, 100.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = pct / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Percentile of an unsorted sample (sorts a copy).
///
/// # Panics
///
/// Panics if the sample is empty or contains NaN.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not contain NaN"));
    percentile_sorted(&sorted, pct)
}

/// Median of a sample.
///
/// # Panics
///
/// Panics if the sample is empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Arithmetic mean, or 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    Summary::of(values).mean
}

/// Relative variation `(value - baseline) / baseline`, expressed in percent — the quantity
/// Table 1 and Figs. 6–10 report ("Lat. var. %", "# bits var.").
///
/// Returns 0 when the baseline is 0 and the value is also 0, and `f64::INFINITY` /
/// `f64::NEG_INFINITY` when only the baseline is 0.
pub fn relative_variation(baseline: f64, value: f64) -> f64 {
    if baseline == 0.0 {
        if value == 0.0 {
            0.0
        } else if value > 0.0 {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        }
    } else {
        (value - baseline) / baseline * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_sample_is_zeroed() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn summary_of_constant_sample() {
        let s = Summary::of(&[4.0, 4.0, 4.0]);
        assert_eq!(s.mean, 4.0);
        assert_eq!(s.min, 4.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn summary_mean_and_bounds() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!(s.std_dev > 0.0);
    }

    #[test]
    fn five_number_of_empty_is_none() {
        assert!(FiveNumber::of(&[]).is_none());
    }

    #[test]
    fn five_number_of_uniform_ramp() {
        let values: Vec<f64> = (0..=100).map(|v| v as f64).collect();
        let f = FiveNumber::of(&values).unwrap();
        assert!((f.median - 50.0).abs() < 1e-9);
        assert!((f.q1 - 25.0).abs() < 1e-9);
        assert!((f.q3 - 75.0).abs() < 1e-9);
        assert!((f.p2_5 - 2.5).abs() < 1e-9);
        assert!((f.p97_5 - 97.5).abs() < 1e-9);
    }

    #[test]
    fn five_number_bracket_string_format() {
        let f = FiveNumber::of(&[1.0, 2.0, 3.0]).unwrap();
        let s = f.to_bracket_string();
        assert!(s.starts_with('['));
        assert!(s.ends_with(']'));
        assert_eq!(s.split_whitespace().count(), 5);
    }

    #[test]
    fn percentile_of_singleton() {
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn percentile_interpolates() {
        assert!((percentile(&[0.0, 10.0], 50.0) - 5.0).abs() < 1e-12);
        assert!((percentile(&[0.0, 10.0], 25.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_clamps_out_of_range() {
        assert_eq!(percentile(&[1.0, 2.0, 3.0], -5.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 150.0), 3.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_of_empty_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!((median(&[1.0, 2.0, 3.0, 4.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn relative_variation_basic() {
        assert!((relative_variation(100.0, 50.0) + 50.0).abs() < 1e-12);
        assert!((relative_variation(100.0, 197.0) - 97.0).abs() < 1e-12);
        assert_eq!(relative_variation(0.0, 0.0), 0.0);
        assert_eq!(relative_variation(0.0, 1.0), f64::INFINITY);
        assert_eq!(relative_variation(0.0, -1.0), f64::NEG_INFINITY);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn accumulator_matches_bulk_summary() {
        let values = [3.0, 1.5, 4.25, -2.0, 9.0, 0.0, 7.5];
        let mut acc = Accumulator::new();
        for &v in &values {
            acc.push(v);
        }
        let bulk = Summary::of(&values);
        let streamed = acc.summary();
        assert_eq!(streamed.count, bulk.count);
        assert!((streamed.mean - bulk.mean).abs() < 1e-12);
        assert_eq!(streamed.min, bulk.min);
        assert_eq!(streamed.max, bulk.max);
        assert!((streamed.std_dev - bulk.std_dev).abs() < 1e-12);
    }

    #[test]
    fn accumulator_merge_matches_single_pass() {
        let values: Vec<f64> = (0..40).map(|i| (i as f64) * 1.37 - 11.0).collect();
        let mut whole = Accumulator::new();
        for &v in &values {
            whole.push(v);
        }
        let mut merged = Accumulator::new();
        for chunk in values.chunks(7) {
            let mut part = Accumulator::new();
            for &v in chunk {
                part.push(v);
            }
            merged.merge(&part);
        }
        assert_eq!(merged.count(), whole.count());
        assert!((merged.mean() - whole.mean()).abs() < 1e-9);
        assert_eq!(merged.min(), whole.min());
        assert_eq!(merged.max(), whole.max());
        assert!((merged.std_dev() - whole.std_dev()).abs() < 1e-9);
    }

    #[test]
    fn accumulator_merge_with_empty_sides() {
        let mut a = Accumulator::new();
        a.push(5.0);
        let empty = Accumulator::new();
        let mut b = a;
        b.merge(&empty);
        assert_eq!(b, a, "merging an empty accumulator is a no-op");
        let mut c = Accumulator::new();
        c.merge(&a);
        assert_eq!(c, a, "merging into an empty accumulator copies");
    }

    #[test]
    fn histogram_buckets_are_exact_below_sixteen() {
        let mut h = LogHistogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        for v in 0..16u64 {
            assert_eq!(LogHistogram::bucket_index(v), v as usize);
            assert_eq!(LogHistogram::bucket_low(v as usize), v);
        }
    }

    #[test]
    fn histogram_bucket_bounds_are_contiguous_and_monotonic() {
        // Every value maps to the bucket whose [low, next_low) range contains it.
        for v in [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1_000,
            50_000,
            1_000_000,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let index = LogHistogram::bucket_index(v);
            let low = LogHistogram::bucket_low(index);
            assert!(low <= v, "low {low} > value {v}");
            if index + 1 < LogHistogram::bucket_index(u64::MAX) {
                let next = LogHistogram::bucket_low(index + 1);
                assert!(v < next, "value {v} >= next bucket low {next}");
            }
            // Relative quantization error is bounded by 1/16.
            assert!(
                (v - low) as f64 <= v as f64 / 16.0 + 1.0,
                "bucket low {low} too far below {v}"
            );
        }
    }

    #[test]
    fn histogram_quantiles_on_a_known_sample() {
        let mut h = LogHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        // Exact below 16; bucketed (<= 6.25% low) above.
        let p50 = h.p50().unwrap();
        assert!((47..=50).contains(&p50), "p50 {p50}");
        let p90 = h.p90().unwrap();
        assert!((85..=90).contains(&p90), "p90 {p90}");
        let p99 = h.p99().unwrap();
        assert!((93..=99).contains(&p99), "p99 {p99}");
        assert_eq!(h.quantile(0.0).unwrap(), 1);
        let p100 = h.quantile(1.0).unwrap();
        assert!((93..=100).contains(&p100), "p100 {p100}");
    }

    #[test]
    fn histogram_single_observation_is_its_own_quantile() {
        let mut h = LogHistogram::new();
        h.record(7);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(7));
        }
        assert_eq!(h.max_bucket_low(), Some(7));
    }

    #[test]
    fn histogram_merge_equals_single_pass() {
        let values: Vec<u64> = (0..500).map(|i| i * i % 90_000).collect();
        let mut whole = LogHistogram::new();
        for &v in &values {
            whole.record(v);
        }
        let mut merged = LogHistogram::new();
        for chunk in values.chunks(13) {
            let mut part = LogHistogram::new();
            for &v in chunk {
                part.record(v);
            }
            merged.merge(&part);
        }
        assert_eq!(whole, merged, "merge must be exact");
    }

    #[test]
    fn histogram_merge_with_empty_is_identity() {
        let mut h = LogHistogram::new();
        h.record_n(42, 3);
        let snapshot = h.clone();
        h.merge(&LogHistogram::new());
        assert_eq!(h, snapshot);
        let mut empty = LogHistogram::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn empty_histogram_reports_none() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), None);
        assert_eq!(h.p99(), None);
        assert_eq!(h.max_bucket_low(), None);
    }

    #[test]
    fn histogram_record_n_zero_is_a_no_op() {
        let mut h = LogHistogram::new();
        h.record_n(5, 0);
        assert!(h.is_empty());
        assert_eq!(h, LogHistogram::new(), "no trailing zero buckets appear");
    }

    #[test]
    fn empty_accumulator_reports_zeroes() {
        let acc = Accumulator::new();
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.min(), 0.0);
        assert_eq!(acc.max(), 0.0);
        assert_eq!(acc.std_dev(), 0.0);
        assert_eq!(acc.summary(), Summary::of(&[]));
    }
}
