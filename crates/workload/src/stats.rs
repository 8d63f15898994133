//! Backend-independent workload run statistics.

use brb_stats::LogHistogram;

/// What a workload run measured: completion counts, sustained throughput, and the
/// per-broadcast delivery-latency distribution.
///
/// A broadcast's latency is the time from its injection until the *last* correct process
/// delivered it (the same worst-correct-process convention the paper uses for single
/// broadcasts); a broadcast is *completed* once every correct process delivered it.
/// Latencies live in a mergeable [`LogHistogram`] (microseconds), so per-seed stats can
/// be aggregated across sweep points — and across sweep workers — exactly.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadStats {
    /// Number of broadcasts injected (a crashed source's injections are no-ops and are
    /// not counted).
    pub injected: usize,
    /// Number of injected broadcasts delivered by every correct process.
    pub completed: usize,
    /// Virtual time from the first injection to the last delivery, in milliseconds.
    pub duration_ms: f64,
    /// Per-broadcast delivery latencies (microseconds), one observation per completed
    /// broadcast.
    pub latency_histogram: LogHistogram,
    /// Broadcast instances retired through watermark GC, summed over all processes
    /// (0 when GC is disabled or the backend does not report it).
    pub gc_retired: u64,
    /// Protocol-state bytes still held across all processes when the run ended. Flat
    /// across consecutive runs under GC; grows with every completed broadcast without.
    pub retained_bytes: usize,
}

impl WorkloadStats {
    /// Whether every injected broadcast completed.
    pub fn all_completed(&self) -> bool {
        self.completed == self.injected
    }

    /// Sustained throughput in completed broadcasts per second of virtual time (0 for an
    /// instantaneous or empty run).
    pub fn throughput_per_sec(&self) -> f64 {
        if self.duration_ms <= 0.0 {
            0.0
        } else {
            self.completed as f64 / (self.duration_ms / 1_000.0)
        }
    }

    /// Median delivery latency in milliseconds (`NaN` when nothing completed).
    pub fn p50_ms(&self) -> f64 {
        quantile_ms(&self.latency_histogram, 0.50)
    }

    /// 90th-percentile delivery latency in milliseconds (`NaN` when nothing completed).
    pub fn p90_ms(&self) -> f64 {
        quantile_ms(&self.latency_histogram, 0.90)
    }

    /// 99th-percentile delivery latency in milliseconds (`NaN` when nothing completed).
    pub fn p99_ms(&self) -> f64 {
        quantile_ms(&self.latency_histogram, 0.99)
    }

    /// Folds another run's stats in: counts add, durations add (runs are understood as
    /// consecutive), histograms merge exactly.
    pub fn merge(&mut self, other: &WorkloadStats) {
        self.injected += other.injected;
        self.completed += other.completed;
        self.duration_ms += other.duration_ms;
        self.latency_histogram.merge(&other.latency_histogram);
        // Retirements accumulate like the counts; retained bytes keep the worst
        // end-of-run snapshot, so merging across seeds or workers reports the largest
        // residual footprint observed.
        self.gc_retired += other.gc_retired;
        self.retained_bytes = self.retained_bytes.max(other.retained_bytes);
    }
}

fn quantile_ms(histogram: &LogHistogram, q: f64) -> f64 {
    histogram
        .quantile(q)
        .map(|micros| micros as f64 / 1_000.0)
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(latencies_micros: &[u64], duration_ms: f64) -> WorkloadStats {
        let mut histogram = LogHistogram::new();
        for &l in latencies_micros {
            histogram.record(l);
        }
        WorkloadStats {
            injected: latencies_micros.len(),
            completed: latencies_micros.len(),
            duration_ms,
            latency_histogram: histogram,
            ..WorkloadStats::default()
        }
    }

    #[test]
    fn throughput_and_percentiles() {
        let stats = stats_with(&[50_000, 100_000, 150_000, 200_000], 2_000.0);
        assert!(stats.all_completed());
        assert_eq!(stats.throughput_per_sec(), 2.0);
        // Bucket lows sit within 1/16 under the exact observations.
        assert!(
            (93.75..=100.0).contains(&stats.p50_ms()),
            "{}",
            stats.p50_ms()
        );
        assert!(
            (187.5..=200.0).contains(&stats.p99_ms()),
            "{}",
            stats.p99_ms()
        );
    }

    #[test]
    fn empty_stats_are_safe() {
        let stats = WorkloadStats::default();
        assert_eq!(stats.throughput_per_sec(), 0.0);
        assert!(stats.p50_ms().is_nan());
        assert!(stats.p90_ms().is_nan());
        assert!(stats.all_completed(), "vacuously complete");
    }

    #[test]
    fn merge_accumulates() {
        let mut a = stats_with(&[10_000], 100.0);
        let b = stats_with(&[20_000, 30_000], 300.0);
        a.merge(&b);
        assert_eq!(a.injected, 3);
        assert_eq!(a.completed, 3);
        assert_eq!(a.duration_ms, 400.0);
        assert_eq!(a.latency_histogram.count(), 3);
    }
}
