//! The workload specification.

use brb_core::types::ProcessId;

use crate::gen::{Injection, TrafficGenerator};

/// Inter-arrival structure of the injected broadcasts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// One broadcast every `interval_micros` of virtual time, the first at time 0.
    Constant {
        /// Fixed inter-arrival interval in microseconds.
        interval_micros: u64,
    },
    /// A Poisson process: independent exponential inter-arrival gaps with the given mean
    /// (the memoryless arrivals of a large independent client population).
    Poisson {
        /// Mean inter-arrival gap in microseconds.
        mean_interval_micros: u64,
    },
    /// Bursts of `burst` back-to-back broadcasts: burst `b` starts at
    /// `b * period_micros`, and its injections are `spacing_micros` apart.
    Bursty {
        /// Number of broadcasts per burst (at least 1).
        burst: u32,
        /// Spacing between consecutive injections inside one burst, in microseconds.
        spacing_micros: u64,
        /// Interval between the starts of consecutive bursts, in microseconds.
        period_micros: u64,
    },
}

/// Which process initiates each broadcast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SourceSelection {
    /// Every broadcast originates at one fixed process.
    Single {
        /// The fixed source.
        source: ProcessId,
    },
    /// Broadcast `i` originates at process `i mod n`.
    RoundRobin,
    /// Sources are drawn from a Zipf distribution over the `n` processes: process 0 is
    /// the hottest, with rank `k + 1` drawn proportionally to `1 / (k + 1)^exponent`
    /// (`exponent = 0` is uniform). Models the skewed per-user traffic of a large
    /// deployment, where a few accounts produce most of the broadcasts.
    Zipf {
        /// Skew exponent (finite, non-negative).
        exponent: f64,
    },
}

/// Distribution of the payload sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadSizes {
    /// Every payload has the same size (the paper's 16 B / 1024 B settings).
    Fixed {
        /// Payload size in bytes.
        bytes: usize,
    },
    /// Payload sizes drawn uniformly from `[min_bytes, max_bytes]`.
    Uniform {
        /// Smallest payload size in bytes.
        min_bytes: usize,
        /// Largest payload size in bytes.
        max_bytes: usize,
    },
}

/// When the workload stops injecting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Exactly this many broadcasts in total.
    Count {
        /// Total number of broadcasts.
        broadcasts: u32,
    },
    /// Every broadcast whose *arrival time* falls within the first `micros` of virtual
    /// time (capped at [`Bound::DURATION_CAP`] injections as a guard against
    /// runaway-rate specs).
    Duration {
        /// Virtual-time horizon in microseconds.
        micros: u64,
    },
}

impl Bound {
    /// Safety cap on the number of injections a duration bound may expand to.
    pub const DURATION_CAP: u32 = 1 << 20;
}

/// Open- vs closed-loop injection.
///
/// The schedule of arrival times is the same in both modes; the loop mode tells the
/// *driver* whether to honor it unconditionally or to gate it on completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopMode {
    /// Inject each broadcast at its scheduled time, whatever the system's backlog — the
    /// saturation-probing mode.
    Open,
    /// At most `window` broadcasts in flight: an arrival finding the window full is
    /// deferred until a previous broadcast completes (is delivered by every correct
    /// process). Models a bounded client pool and yields the classic
    /// throughput-vs-latency closed-loop operating point.
    Closed {
        /// Maximum number of in-flight broadcasts (at least 1).
        window: u32,
    },
}

impl LoopMode {
    /// The in-flight window: `u32::MAX` for the open loop.
    pub fn window(self) -> u32 {
        match self {
            LoopMode::Open => u32::MAX,
            LoopMode::Closed { window } => window,
        }
    }
}

/// A complete description of a multi-broadcast workload.
///
/// Together with a process count and a seed, a spec expands deterministically into a
/// schedule of [`Injection`]s (see [`TrafficGenerator`]); every backend consumes that
/// same schedule. See the crate docs for a quickstart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Arrival process of the broadcasts.
    pub arrival: Arrival,
    /// Which process initiates each broadcast.
    pub sources: SourceSelection,
    /// Distribution of payload sizes.
    pub payloads: PayloadSizes,
    /// Total-count or duration bound.
    pub bound: Bound,
    /// Open- or closed-loop injection.
    pub mode: LoopMode,
}

impl WorkloadSpec {
    /// A constant-rate, round-robin, 64 B, open-loop workload of `broadcasts` broadcasts
    /// — the canonical starting point; adjust with the `with_*` builders.
    pub fn constant_rate(interval_micros: u64, broadcasts: u32) -> Self {
        Self {
            arrival: Arrival::Constant { interval_micros },
            sources: SourceSelection::RoundRobin,
            payloads: PayloadSizes::Fixed { bytes: 64 },
            bound: Bound::Count { broadcasts },
            mode: LoopMode::Open,
        }
    }

    /// A Poisson-arrival workload with the given mean inter-arrival gap (round-robin,
    /// 64 B, open loop).
    pub fn poisson(mean_interval_micros: u64, broadcasts: u32) -> Self {
        Self {
            arrival: Arrival::Poisson {
                mean_interval_micros,
            },
            ..Self::constant_rate(0, broadcasts)
        }
    }

    /// A bursty workload: bursts of `burst` broadcasts `spacing_micros` apart, one burst
    /// every `period_micros` (round-robin, 64 B, open loop).
    pub fn bursty(burst: u32, spacing_micros: u64, period_micros: u64, broadcasts: u32) -> Self {
        Self {
            arrival: Arrival::Bursty {
                burst,
                spacing_micros,
                period_micros,
            },
            ..Self::constant_rate(0, broadcasts)
        }
    }

    /// Replaces the source-selection policy.
    pub fn with_sources(mut self, sources: SourceSelection) -> Self {
        self.sources = sources;
        self
    }

    /// Replaces the payload-size distribution.
    pub fn with_payloads(mut self, payloads: PayloadSizes) -> Self {
        self.payloads = payloads;
        self
    }

    /// Fixes every payload at `bytes` bytes.
    pub fn with_payload_bytes(self, bytes: usize) -> Self {
        self.with_payloads(PayloadSizes::Fixed { bytes })
    }

    /// Replaces the bound.
    pub fn with_bound(mut self, bound: Bound) -> Self {
        self.bound = bound;
        self
    }

    /// Replaces the loop mode.
    pub fn with_mode(mut self, mode: LoopMode) -> Self {
        self.mode = mode;
        self
    }

    /// Closes the loop at the given in-flight window.
    pub fn closed_loop(self, window: u32) -> Self {
        self.with_mode(LoopMode::Closed { window })
    }

    /// Expands the spec into its full injection schedule for an `n`-process system —
    /// a pure function of `(self, n, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid for `n` processes (see [`TrafficGenerator::new`]).
    pub fn schedule(&self, n: usize, seed: u64) -> Vec<Injection> {
        TrafficGenerator::new(*self, n, seed).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let spec = WorkloadSpec::constant_rate(1_000, 10)
            .with_sources(SourceSelection::Single { source: 3 })
            .with_payload_bytes(256)
            .closed_loop(4);
        assert_eq!(
            spec.arrival,
            Arrival::Constant {
                interval_micros: 1_000
            }
        );
        assert_eq!(spec.sources, SourceSelection::Single { source: 3 });
        assert_eq!(spec.payloads, PayloadSizes::Fixed { bytes: 256 });
        assert_eq!(spec.bound, Bound::Count { broadcasts: 10 });
        assert_eq!(spec.mode, LoopMode::Closed { window: 4 });
        assert_eq!(spec.mode.window(), 4);
        assert_eq!(LoopMode::Open.window(), u32::MAX);
    }

    #[test]
    fn poisson_and_bursty_constructors() {
        let p = WorkloadSpec::poisson(2_000, 5);
        assert_eq!(
            p.arrival,
            Arrival::Poisson {
                mean_interval_micros: 2_000
            }
        );
        let b = WorkloadSpec::bursty(8, 10, 1_000, 24);
        assert_eq!(
            b.arrival,
            Arrival::Bursty {
                burst: 8,
                spacing_micros: 10,
                period_micros: 1_000
            }
        );
        assert_eq!(b.bound, Bound::Count { broadcasts: 24 });
    }

    #[test]
    fn with_bound_and_duration_cap() {
        let spec =
            WorkloadSpec::constant_rate(1_000, 1).with_bound(Bound::Duration { micros: 50_000 });
        assert_eq!(spec.bound, Bound::Duration { micros: 50_000 });
    }
}
