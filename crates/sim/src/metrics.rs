//! Metrics collected during a simulation run.
//!
//! The paper's evaluation reports, per broadcast:
//!
//! * **latency** — the time until *all correct processes* have delivered (Sec. 7.1);
//! * **network consumption** — the total number of bytes put on the links (Table 3
//!   field accounting);
//! * **memory consumption** — dominated by the transmission paths stored for disjoint-path
//!   verification (Sec. 7.3), which the simulator tracks as a peak value, sampled after
//!   every handled event.
//!
//! All per-broadcast and per-process tables are ordered maps, so two [`RunMetrics`] values that
//! compare equal also render to identical [`RunMetrics::canonical_text`] snapshots — the
//! property the golden-file determinism suite (`tests/determinism.rs`) is built on.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use brb_core::types::{BroadcastId, ProcessId};

use crate::time::SimTime;

/// Counters accumulated while a simulation runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// Number of messages transmitted on the links.
    pub messages_sent: usize,
    /// Total bytes transmitted (per the paper's Table 3 accounting).
    pub bytes_sent: usize,
    /// Delivery time of each broadcast at each process, ordered by `(process, id)`.
    pub delivery_times: BTreeMap<(ProcessId, BroadcastId), SimTime>,
    /// Injection time of each broadcast: when its (non-crashed) source was asked to
    /// broadcast. Single-broadcast runs have exactly one entry at time 0; workload runs
    /// have one entry per effective injection. Per-broadcast delivery latency is the
    /// delivery time minus this time ([`RunMetrics::broadcast_latency`]).
    pub injection_times: BTreeMap<BroadcastId, SimTime>,
    /// Peak number of transmission paths stored by any single process.
    pub peak_stored_paths: usize,
    /// Peak protocol-state bytes held by any single process.
    pub peak_state_bytes: usize,
    /// Number of events processed by the simulator.
    pub events_processed: usize,
    /// Total broadcast instances retired through watermark GC, summed over all
    /// processes (0 when GC is disabled).
    pub gc_retired: u64,
    /// Protocol-state bytes still held across all processes when the run ended —
    /// the quantity that stays flat under GC and grows without it.
    pub retained_bytes: usize,
    /// Churn events applied during the run, in application order: `(virtual time in
    /// microseconds, rendered action)`. Empty for churn-free runs, so the existing
    /// golden snapshots are unaffected.
    pub churn_events: Vec<(u64, String)>,
    /// Consensus decisions reached during the run: `(process, decided value, decision
    /// round)`, ordered by process. Empty for non-consensus runs, so the existing
    /// golden snapshots are unaffected.
    pub decisions: Vec<(ProcessId, u8, u32)>,
    /// Number of consensus rounds the harness drove (0 for non-consensus runs).
    pub consensus_rounds: u32,
}

impl RunMetrics {
    /// Records a message transmission.
    pub fn record_send(&mut self, bytes: usize) {
        self.messages_sent += 1;
        self.bytes_sent += bytes;
    }

    /// Records a delivery.
    pub fn record_delivery(&mut self, process: ProcessId, id: BroadcastId, at: SimTime) {
        self.delivery_times.entry((process, id)).or_insert(at);
    }

    /// Records a broadcast injection (the first time wins, like deliveries).
    pub fn record_injection(&mut self, id: BroadcastId, at: SimTime) {
        self.injection_times.entry(id).or_insert(at);
    }

    /// Records an applied churn event (events arrive in application order, which is
    /// nondecreasing in time — the compiled schedule's order).
    pub fn record_churn(&mut self, at: SimTime, action: &str) {
        self.churn_events.push((at.as_micros(), action.to_string()));
    }

    /// Number of broadcasts injected.
    pub fn injected_count(&self) -> usize {
        self.injection_times.len()
    }

    /// Latency of broadcast `id`: the time at which the **last** process among `correct`
    /// delivered it, or `None` if some correct process never delivered.
    pub fn latency(&self, id: BroadcastId, correct: &[ProcessId]) -> Option<SimTime> {
        let mut worst = SimTime::ZERO;
        for &p in correct {
            match self.delivery_times.get(&(p, id)) {
                Some(&t) => worst = worst.max(t),
                None => return None,
            }
        }
        Some(worst)
    }

    /// Per-broadcast delivery latency: the time from the injection of `id` until the
    /// **last** process among `correct` delivered it, or `None` if `id` was never
    /// injected or some correct process never delivered it.
    pub fn broadcast_latency(&self, id: BroadcastId, correct: &[ProcessId]) -> Option<SimTime> {
        let injected = *self.injection_times.get(&id)?;
        Some(self.latency(id, correct)?.saturating_sub(injected))
    }

    /// Number of correct processes (from `correct`) that delivered broadcast `id`.
    pub fn delivered_count(&self, id: BroadcastId, correct: &[ProcessId]) -> usize {
        correct
            .iter()
            .filter(|&&p| self.delivery_times.contains_key(&(p, id)))
            .count()
    }

    /// Network consumption in kilobytes (the unit of Figs. 4b/5b of the paper).
    pub fn kilobytes_sent(&self) -> f64 {
        self.bytes_sent as f64 / 1_000.0
    }

    /// Renders every counter into a canonical, line-oriented text form.
    ///
    /// Two metrics values render identically if and only if they are equal: all integer
    /// counters are printed in full, delivery times in exact microseconds, and both maps
    /// in their (deterministic) key order. The golden snapshots under `tests/golden/` and
    /// the 1-vs-N-worker sweep comparisons are byte-level comparisons of this rendering.
    pub fn canonical_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "messages_sent={}", self.messages_sent);
        let _ = writeln!(out, "bytes_sent={}", self.bytes_sent);
        let _ = writeln!(out, "events_processed={}", self.events_processed);
        let _ = writeln!(out, "peak_stored_paths={}", self.peak_stored_paths);
        let _ = writeln!(out, "peak_state_bytes={}", self.peak_state_bytes);
        let _ = writeln!(out, "gc_retired={}", self.gc_retired);
        let _ = writeln!(out, "retained_bytes={}", self.retained_bytes);
        for (&id, &at) in &self.injection_times {
            let _ = writeln!(
                out,
                "injection ({}, {}) at_us={}",
                id.source,
                id.seq,
                at.as_micros()
            );
        }
        for (&(process, id), &at) in &self.delivery_times {
            let _ = writeln!(
                out,
                "delivery p{process} ({}, {}) at_us={}",
                id.source,
                id.seq,
                at.as_micros()
            );
        }
        // Emitted only for churned runs: churn-free metrics render exactly as before,
        // which keeps the pre-churn golden snapshots byte-identical.
        for (at, action) in &self.churn_events {
            let _ = writeln!(out, "churn at_us={at} {action}");
        }
        // Emitted only for consensus runs, for the same golden-compatibility reason.
        if !self.decisions.is_empty() || self.consensus_rounds > 0 {
            let _ = writeln!(out, "consensus_rounds={}", self.consensus_rounds);
            for (process, value, round) in &self.decisions {
                let _ = writeln!(out, "decision p{process} value={value} round={round}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_send_accumulates() {
        let mut m = RunMetrics::default();
        m.record_send(100);
        m.record_send(50);
        m.record_send(10);
        assert_eq!(m.messages_sent, 3);
        assert_eq!(m.bytes_sent, 160);
        assert_eq!(m.kilobytes_sent(), 0.16);
    }

    #[test]
    fn latency_is_the_worst_correct_delivery() {
        let mut m = RunMetrics::default();
        let id = BroadcastId::new(0, 0);
        m.record_delivery(1, id, SimTime::from_millis(100));
        m.record_delivery(2, id, SimTime::from_millis(250));
        assert_eq!(m.latency(id, &[1, 2]), Some(SimTime::from_millis(250)));
        assert_eq!(m.latency(id, &[1]), Some(SimTime::from_millis(100)));
        assert_eq!(m.latency(id, &[1, 2, 3]), None, "process 3 never delivered");
        assert_eq!(m.delivered_count(id, &[1, 2, 3]), 2);
    }

    #[test]
    fn first_delivery_time_wins() {
        let mut m = RunMetrics::default();
        let id = BroadcastId::new(0, 0);
        m.record_delivery(1, id, SimTime::from_millis(10));
        m.record_delivery(1, id, SimTime::from_millis(99));
        assert_eq!(m.delivery_times[&(1, id)], SimTime::from_millis(10));
    }

    #[test]
    fn canonical_text_is_stable_and_discriminating() {
        let mut a = RunMetrics::default();
        a.record_send(10);
        a.record_send(5);
        a.record_delivery(2, BroadcastId::new(0, 1), SimTime::from_micros(1_500));
        a.record_delivery(1, BroadcastId::new(0, 1), SimTime::from_micros(999));
        let b = a.clone();
        assert_eq!(a.canonical_text(), b.canonical_text());
        assert!(a.canonical_text().contains("messages_sent=2"));
        assert!(a.canonical_text().contains("delivery p1 (0, 1) at_us=999"));
        let mut c = a.clone();
        c.record_send(1);
        assert_ne!(a.canonical_text(), c.canonical_text());
    }

    #[test]
    fn broadcast_latency_subtracts_the_injection_time() {
        let mut m = RunMetrics::default();
        let id = BroadcastId::new(2, 3);
        m.record_injection(id, SimTime::from_millis(40));
        m.record_delivery(0, id, SimTime::from_millis(90));
        m.record_delivery(1, id, SimTime::from_millis(140));
        assert_eq!(
            m.broadcast_latency(id, &[0, 1]),
            Some(SimTime::from_millis(100))
        );
        assert_eq!(
            m.broadcast_latency(id, &[0, 1, 5]),
            None,
            "5 never delivered"
        );
        assert_eq!(
            m.broadcast_latency(BroadcastId::new(9, 9), &[0]),
            None,
            "never injected"
        );
        assert_eq!(m.injected_count(), 1);
    }

    #[test]
    fn injections_render_in_canonical_text() {
        let mut m = RunMetrics::default();
        m.record_injection(BroadcastId::new(1, 0), SimTime::from_micros(250));
        m.record_injection(BroadcastId::new(0, 2), SimTime::from_micros(125));
        // First injection time wins, like deliveries.
        m.record_injection(BroadcastId::new(1, 0), SimTime::from_micros(999));
        let text = m.canonical_text();
        assert!(text.contains("injection (1, 0) at_us=250"));
        assert!(text.contains("injection (0, 2) at_us=125"));
        let p0 = text.find("injection (0, 2)").unwrap();
        let p1 = text.find("injection (1, 0)").unwrap();
        assert!(p0 < p1, "injections are sorted by broadcast id");
    }

    #[test]
    fn canonical_text_orders_deliveries_by_process_then_id() {
        let mut m = RunMetrics::default();
        m.record_delivery(3, BroadcastId::new(1, 0), SimTime::from_micros(5));
        m.record_delivery(1, BroadcastId::new(2, 0), SimTime::from_micros(7));
        let text = m.canonical_text();
        let p1 = text.find("delivery p1").unwrap();
        let p3 = text.find("delivery p3").unwrap();
        assert!(p1 < p3, "deliveries must be sorted by process id");
    }
}
