//! The `--trace` experiment axis: deterministic causal latency breakdowns and
//! drops-by-cause accounting from the structured trace layer (`brb-trace`).
//!
//! Each scenario runs one seeded broadcast on the simulator with a `VecSink` attached
//! and decomposes the resulting event stream into the per-broadcast causal chain
//! `injection → first hop → threshold → delivery` (`brb_trace::latency_breakdown`),
//! plus the per-cause frame-drop totals the simulator's link decorations recorded.
//! Everything is measured on the virtual clock of the discrete-event simulator, so the
//! rows are bit-identical across runs and worker counts — the CI smoke job includes
//! them in its 1-vs-4-worker byte-equality diff.

use brb_core::config::Config;
use brb_core::stack::StackSpec;
use brb_core::types::ProcessId;
use brb_sim::experiment::experiment_graph;
use brb_sim::{run_experiment_traced, Behavior, DelayModel};
use brb_trace::{latency_breakdown, DropCause};

use crate::{experiment, Scale};

/// One causal latency breakdown row: a broadcast instance within a scenario.
#[derive(Debug, Clone)]
pub struct TraceBreakdownPoint {
    /// Scenario name, the CSV `behavior` column.
    pub scenario: &'static str,
    /// Source process of the broadcast instance.
    pub source: ProcessId,
    /// Sequence number of the instance.
    pub seq: u32,
    /// Virtual time of the injection (µs).
    pub injection_us: u64,
    /// Virtual time of the first protocol event beyond the source (µs).
    pub first_hop_us: Option<u64>,
    /// Virtual time of the first threshold crossing (µs).
    pub threshold_us: Option<u64>,
    /// Virtual time of the last delivery (µs).
    pub delivery_us: Option<u64>,
    /// Number of nodes that delivered the instance.
    pub deliveries: usize,
}

/// One drops-by-cause row: the summed per-cause frame-drop count of a scenario.
#[derive(Debug, Clone)]
pub struct TraceDropPoint {
    /// Scenario name, the CSV `behavior` column.
    pub scenario: &'static str,
    /// Drop cause label (`loss`, `churn_gate`, `behavior`, `gc_retired`,
    /// `non_neighbor`, `malformed`).
    pub cause: &'static str,
    /// Frames dropped for this cause, summed over all nodes.
    pub dropped: u64,
}

/// The Byzantine process of the adversarial scenarios (never the source, process 0).
const BYZANTINE: ProcessId = 3;

/// The traced scenario list: a clean run, a frame-dropping adversary (deterministic
/// `SilentTowards`, so the drop totals are exact), and a replayer.
fn scenarios() -> Vec<(&'static str, Vec<(ProcessId, Behavior)>)> {
    vec![
        ("correct", vec![]),
        (
            "silent-towards-1-5",
            vec![(BYZANTINE, Behavior::SilentTowards(vec![1, 5]))],
        ),
        ("replayer", vec![(BYZANTINE, Behavior::Replayer)]),
    ]
}

/// Runs the trace matrix: every scenario once on the simulator with a sink attached,
/// returning the per-broadcast breakdown rows and the per-cause drop rows.
pub fn run_trace_matrix(
    scale: Scale,
    asynchronous: bool,
    stack: StackSpec,
) -> (Vec<TraceBreakdownPoint>, Vec<TraceDropPoint>) {
    let (n, k, f) = match scale {
        Scale::Quick => (10, 4, 1),
        Scale::Paper => (20, 7, 2),
    };
    let graph_seed = 29_000 + (n * k) as u64;
    let delay = if asynchronous {
        DelayModel::asynchronous()
    } else {
        DelayModel::synchronous()
    };
    let config = Config::bdopt_mbd1(n, f);
    let graph = experiment_graph(n, k, graph_seed);

    let mut breakdowns = Vec::new();
    let mut drops = Vec::new();
    for (name, behaviors) in scenarios() {
        let params = experiment(n, k, f, 64, config, delay, 1)
            .with_stack(stack)
            .with_behaviors(behaviors);
        let traced = run_experiment_traced(&params, &graph);
        for b in latency_breakdown(&traced.events) {
            breakdowns.push(TraceBreakdownPoint {
                scenario: name,
                source: b.source,
                seq: b.seq,
                injection_us: b.injection_us,
                first_hop_us: b.first_hop_us,
                threshold_us: b.threshold_us,
                delivery_us: b.delivery_us,
                deliveries: b.deliveries,
            });
        }
        let mut by_cause = brb_trace::DropCounts::new();
        for counts in &traced.drop_counts {
            by_cause.merge(counts);
        }
        for cause in DropCause::ALL {
            drops.push(TraceDropPoint {
                scenario: name,
                cause: cause.as_str(),
                dropped: by_cause.get(cause),
            });
        }
    }
    (breakdowns, drops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_matrix_is_deterministic_and_causal() {
        let (b1, d1) = run_trace_matrix(Scale::Quick, false, StackSpec::Bd);
        let (b2, d2) = run_trace_matrix(Scale::Quick, false, StackSpec::Bd);
        assert!(!b1.is_empty(), "every scenario yields a breakdown row");
        assert_eq!(b1.len(), b2.len());
        for (a, b) in b1.iter().zip(&b2) {
            assert_eq!(a.injection_us, b.injection_us);
            assert_eq!(a.delivery_us, b.delivery_us);
            assert_eq!(a.deliveries, b.deliveries);
        }
        for (a, b) in d1.iter().zip(&d2) {
            assert_eq!(a.dropped, b.dropped);
        }
        // The causal chain is ordered on the virtual clock.
        for b in &b1 {
            let hop = b.first_hop_us.expect("a connected graph has a first hop");
            let delivery = b.delivery_us.expect("correct scenarios complete");
            assert!(b.injection_us <= hop && hop <= delivery);
            assert!(b.deliveries > 0);
        }
        // The silent adversary's suppressed frames are accounted as behavior drops.
        let silent_behavior = d1
            .iter()
            .find(|d| d.scenario == "silent-towards-1-5" && d.cause == "behavior")
            .expect("row exists");
        assert!(silent_behavior.dropped > 0);
    }
}
