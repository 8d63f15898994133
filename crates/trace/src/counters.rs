//! Per-node counter registries: sends, drops by cause, queue-depth peaks.
//!
//! Counters are always-on (a handful of relaxed atomics), independent of
//! whether a [`crate::TraceSink`] is attached: the link decorators feed them so
//! `NodeReport` can account for every discarded frame even in untraced runs.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::event::DropCause;

/// Plain (non-atomic) drop tally, indexed by [`DropCause`]. Used directly by
/// the single-threaded simulator and as the snapshot type in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DropCounts(pub [u64; DropCause::ALL.len()]);

impl DropCounts {
    /// All-zero tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one drop.
    pub fn record(&mut self, cause: DropCause) {
        self.0[cause.index()] += 1;
    }

    /// Drops recorded for one cause.
    pub fn get(&self, cause: DropCause) -> u64 {
        self.0[cause.index()]
    }

    /// Total drops across every cause.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Iterate `(cause, count)` in [`DropCause::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (DropCause, u64)> + '_ {
        DropCause::ALL.iter().map(move |&c| (c, self.get(c)))
    }

    /// Element-wise accumulation (aggregating across nodes).
    pub fn merge(&mut self, other: &DropCounts) {
        for (slot, v) in self.0.iter_mut().zip(other.0.iter()) {
            *slot += v;
        }
    }

    /// Compact `cause=count` rendering, e.g. `loss=3 churn_gate=0 ...`.
    pub fn render(&self) -> String {
        let parts: Vec<String> = self
            .iter()
            .map(|(cause, count)| format!("{}={count}", cause.as_str()))
            .collect();
        parts.join(" ")
    }
}

impl std::fmt::Display for DropCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Thread-safe per-node counter registry shared between a `NodeDriver` and its
/// link decorators via `Arc`.
#[derive(Debug, Default)]
pub struct NodeCounters {
    sends: AtomicU64,
    drops: [AtomicU64; DropCause::ALL.len()],
    queue_depth_peak: AtomicU64,
}

impl NodeCounters {
    /// Fresh all-zero registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count `n` transmitted frame copies.
    pub fn record_sends(&self, n: u64) {
        self.sends.fetch_add(n, Ordering::Relaxed);
    }

    /// Count one dropped frame.
    pub fn record_drop(&self, cause: DropCause) {
        self.drops[cause.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Note a delay-line occupancy sample; keeps the maximum.
    pub fn note_queue_depth(&self, depth: u64) {
        self.queue_depth_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Transmitted frame copies so far.
    pub fn sends(&self) -> u64 {
        self.sends.load(Ordering::Relaxed)
    }

    /// Snapshot of the drop tally.
    pub fn drops(&self) -> DropCounts {
        let mut counts = DropCounts::default();
        for (slot, atomic) in counts.0.iter_mut().zip(self.drops.iter()) {
            *slot = atomic.load(Ordering::Relaxed);
        }
        counts
    }

    /// Highest delay-line occupancy observed.
    pub fn queue_depth_peak(&self) -> u64 {
        self.queue_depth_peak.load(Ordering::Relaxed)
    }
}
