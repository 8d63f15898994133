//! `brb-trace`: zero-overhead-when-disabled structured tracing for the PBRB
//! reproduction (Bonomi, Decouchant, Farina, Rahli, Tixeuil, ICDCS 2021).
//!
//! The crate is a dependency leaf: every tier (engines in `brb-core`, the
//! discrete-event simulator, the channel runtime and the TCP deployment) emits
//! typed [`TraceEvent`]s through a cloneable [`Tracer`] handle into a shared
//! [`TraceSink`]. With no sink attached the tracer is a single `Option` branch,
//! so instrumented hot paths cost nothing in untraced runs.
//!
//! Layers:
//! - [`TraceEvent`] / [`TraceEventKind`] — the typed vocabulary: protocol phase
//!   transitions (Dolev paths, Bracha thresholds, CPA acceptance, consensus
//!   BV/AUX/coin/decide), frame events with [`DropCause`], lifecycle marks.
//! - [`TraceSink`] — [`NoopSink`], [`VecSink`] (in-memory), [`JsonlSink`]
//!   (streaming writer).
//! - [`Tracer`] / [`Clock`] — stamping with virtual (simulator) or wall-clock
//!   (live backends) microseconds.
//! - [`NodeCounters`] / [`DropCounts`] — always-on per-node registries
//!   (sends, drops by cause, queue-depth peaks) surfaced in `NodeReport`.
//! - [`export`] — JSONL and Chrome trace-event JSON (open in Perfetto), plus
//!   schema validators used by CI.
//! - [`analysis`] — order-normalized causal sequences (cross-backend
//!   conformance) and per-broadcast `injection → first hop → threshold →
//!   delivery` latency breakdowns.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use brb_trace::{Backend, Clock, Tracer, TraceEventKind, VecSink};
//!
//! // A buffered sink and a virtual clock the host advances.
//! let sink = Arc::new(VecSink::new());
//! let (clock, now_us) = Clock::virtual_clock();
//! let tracer = Tracer::new(Backend::Sim, clock, sink.clone());
//!
//! // The source injects instance (0, 0); node 2 delivers it 150 µs later.
//! tracer.emit(0, 0, 0, TraceEventKind::Injected);
//! now_us.store(150, std::sync::atomic::Ordering::Relaxed);
//! tracer.emit(2, 0, 0, TraceEventKind::Delivered);
//!
//! let events = sink.events();
//! assert_eq!(events.len(), 2);
//! assert_eq!(events[1].time_us, 150);
//!
//! // Export + validate round-trip, no JSON dependency required.
//! let jsonl = brb_trace::export::to_jsonl(&events);
//! assert_eq!(brb_trace::export::validate_jsonl(&jsonl).unwrap(), 2);
//! let chrome = brb_trace::export::chrome_trace_json(&events);
//! assert!(brb_trace::export::validate_chrome_trace(&chrome).unwrap() > 0);
//!
//! // Causal sequences normalize away arrival order.
//! let seq = brb_trace::analysis::causal_sequence(&events);
//! assert_eq!(seq, vec![(0, 0, "delivered", 2), (0, 0, "injected", 0)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod counters;
mod event;
pub mod export;
pub mod json;
mod sink;
mod tracer;

pub use analysis::{causal_sequence, latency_breakdown, render_causal_sequence, LatencyBreakdown};
pub use counters::{DropCounts, NodeCounters};
pub use event::{Backend, DropCause, NodeId, TraceEvent, TraceEventKind};
pub use export::{chrome_trace_json, to_jsonl, validate_chrome_trace, validate_jsonl};
pub use json::{escape_json, parse_json, validate_json, JsonValue};
pub use sink::{JsonlSink, NoopSink, TraceSink, VecSink};
pub use tracer::{Clock, Tracer};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        let sink = Arc::new(VecSink::new());
        let (clock, now) = Clock::virtual_clock();
        let tracer = Tracer::new(Backend::Sim, clock, sink.clone());
        tracer.emit(0, 0, 0, TraceEventKind::Injected);
        now.store(40, std::sync::atomic::Ordering::Relaxed);
        tracer.emit(1, 0, 0, TraceEventKind::PathAccumulated { paths: 1 });
        now.store(90, std::sync::atomic::Ordering::Relaxed);
        tracer.emit(1, 0, 0, TraceEventKind::ReadySent);
        now.store(120, std::sync::atomic::Ordering::Relaxed);
        tracer.emit(1, 0, 0, TraceEventKind::Delivered);
        tracer.emit(0, 0, 0, TraceEventKind::Delivered);
        tracer.emit_frame(
            0,
            TraceEventKind::FrameDropped {
                to: 3,
                cause: DropCause::Loss,
            },
        );
        sink.events()
    }

    #[test]
    fn disabled_tracer_emits_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        tracer.emit(0, 0, 0, TraceEventKind::Injected);
    }

    #[test]
    fn jsonl_round_trip_validates() {
        let events = sample_events();
        let jsonl = export::to_jsonl(&events);
        assert_eq!(export::validate_jsonl(&jsonl).unwrap(), events.len());
    }

    #[test]
    fn chrome_export_validates() {
        let chrome = export::chrome_trace_json(&sample_events());
        assert!(export::validate_chrome_trace(&chrome).unwrap() >= 6);
    }

    #[test]
    fn breakdown_orders_phases() {
        let rows = latency_breakdown(&sample_events());
        assert_eq!(rows.len(), 1);
        let row = rows[0];
        assert_eq!(row.injection_us, 0);
        assert_eq!(row.first_hop_us, Some(40));
        assert_eq!(row.threshold_us, Some(90));
        assert_eq!(row.delivery_us, Some(120));
        assert_eq!(row.deliveries, 2);
    }

    #[test]
    fn causal_sequence_ignores_order_and_noise() {
        let mut events = sample_events();
        events.reverse();
        let seq = causal_sequence(&events);
        assert_eq!(
            seq,
            vec![
                (0, 0, "delivered", 0),
                (0, 0, "delivered", 1),
                (0, 0, "injected", 0),
                (0, 0, "ready_sent", 1),
            ]
        );
    }

    #[test]
    fn counters_accumulate() {
        let counters = NodeCounters::new();
        counters.record_sends(3);
        counters.record_drop(DropCause::ChurnGate);
        counters.record_drop(DropCause::ChurnGate);
        counters.record_drop(DropCause::Behavior);
        counters.note_queue_depth(4);
        counters.note_queue_depth(2);
        assert_eq!(counters.sends(), 3);
        let drops = counters.drops();
        assert_eq!(drops.get(DropCause::ChurnGate), 2);
        assert_eq!(drops.get(DropCause::Behavior), 1);
        assert_eq!(drops.total(), 3);
        assert_eq!(counters.queue_depth_peak(), 4);
        let mut merged = DropCounts::new();
        merged.merge(&drops);
        merged.merge(&drops);
        assert_eq!(merged.total(), 6);
        assert!(merged.render().contains("churn_gate=4"));
    }

    #[test]
    fn json_parser_rejects_malformed() {
        assert!(json::validate_json("{\"a\": [1, 2, {\"b\": null}]}").is_ok());
        assert!(json::validate_json("{\"a\": 1,}").is_err());
        assert!(json::validate_json("{\"a\": 1} trailing").is_err());
        assert!(json::validate_json("{\"a\": 1, \"a\": 2}").is_err());
        assert!(json::validate_json("[1e]").is_err());
    }

    #[test]
    fn jsonl_sink_streams_lines() {
        let sink = JsonlSink::new(Vec::new());
        let tracer = Tracer::new(Backend::Runtime, Clock::wall_from_now(), Arc::new(sink));
        tracer.emit(4, 1, 7, TraceEventKind::EchoThreshold { echoes: 5 });
        // The sink owns the Vec; validation of streamed output is covered by
        // the example + CI path. Here we only assert the emit path is live.
        assert!(tracer.is_enabled());
        assert_eq!(tracer.backend(), Some(Backend::Runtime));
    }
}
