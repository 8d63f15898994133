//! The Byzantine-placement experiment axis: one behavior scenario, every backend.
//!
//! The paper's evaluation runs its real TCP nodes under controlled Byzantine placements
//! (Sec. 7); this harness is the in-repository version of that matrix. Each scenario
//! assigns one [`Behavior`] to a fixed non-source process and runs the *same* single
//! broadcast on the three backends — the discrete-event simulator (through the parallel
//! sweep engine, so the rows are worker-count invariant), the channel runtime and the
//! TCP deployment (through the shared `brb-transport` node driver with the behavior
//! applied as a `FaultyLink` decorator).
//!
//! Every reported value is deterministic: the live backends report only the
//! delivery counts that the BRB guarantees pin down (all correct processes deliver for
//! any placement of at most `f` Byzantine processes), while the simulator rows
//! additionally report their exact message/byte totals. This is what lets the CI smoke
//! job byte-diff a lossy-run CSV between 1 and 4 sweep workers, like the other matrices.

use std::time::Duration;

use brb_core::config::Config;
use brb_core::stack::StackSpec;
use brb_core::types::{Payload, ProcessId};
use brb_net::BACKENDS;
use brb_runtime::Deployment;
use brb_sim::{run_sweep, Behavior, DelayModel, ExperimentSpec};
use brb_transport::DriverOptions;

use crate::{experiment, Scale};

/// One row of the behavior matrix: a scenario on one backend.
#[derive(Debug, Clone)]
pub struct BehaviorPoint {
    /// Scenario name (e.g. `"lossy-0.2"`), the CSV `behavior` column.
    pub scenario: String,
    /// Backend the row was measured on: `"sim"`, `"runtime"` or `"tcp"`.
    pub backend: &'static str,
    /// Number of processes.
    pub n: usize,
    /// Correct processes that delivered the broadcast.
    pub delivered: usize,
    /// Number of correct (non-Byzantine) processes.
    pub correct: usize,
    /// Total messages transmitted — deterministic on the simulator only, `None` on the
    /// live backends (thread interleavings move duplicate-suppression races).
    pub messages: Option<usize>,
    /// Total bytes transmitted (simulator rows only, like `messages`).
    pub bytes: Option<usize>,
}

/// The Byzantine process every scenario targets (never the source, process 0).
const BYZANTINE: ProcessId = 3;

/// The scenario list: every [`Behavior`] of the simulator's vocabulary, assigned to
/// process [`BYZANTINE`].
fn scenarios() -> Vec<(&'static str, Vec<(ProcessId, Behavior)>)> {
    vec![
        ("correct", vec![]),
        ("lossy-0.2", vec![(BYZANTINE, Behavior::Lossy(0.2))]),
        (
            "silent-towards-1-5",
            vec![(BYZANTINE, Behavior::SilentTowards(vec![1, 5]))],
        ),
        ("replayer", vec![(BYZANTINE, Behavior::Replayer)]),
        ("flooder-3", vec![(BYZANTINE, Behavior::Flooder(3))]),
        (
            "fails-after-20",
            vec![(BYZANTINE, Behavior::FailsAfter(20))],
        ),
        ("crash", vec![(BYZANTINE, Behavior::Crash)]),
    ]
}

/// Runs the behavior matrix: every scenario on sim + channel runtime + TCP, one
/// broadcast each, on the same generated topology.
pub fn run_behavior_matrix(
    scale: Scale,
    asynchronous: bool,
    workers: usize,
    stack: StackSpec,
) -> Vec<BehaviorPoint> {
    let (n, k, f) = match scale {
        Scale::Quick => (10, 4, 1),
        Scale::Paper => (20, 7, 2),
    };
    let graph_seed = 23_000 + (n * k) as u64;
    let delay = if asynchronous {
        DelayModel::asynchronous()
    } else {
        DelayModel::synchronous()
    };
    let config = Config::bdopt_mbd1(n, f);
    let payload = 64;

    // Simulator rows, through the sweep engine (bit-identical for any worker count).
    let specs: Vec<ExperimentSpec> = scenarios()
        .into_iter()
        .map(|(name, behaviors)| {
            let params = experiment(n, k, f, payload, config, delay, 1)
                .with_stack(stack)
                .with_behaviors(behaviors);
            ExperimentSpec::new(name.to_string(), graph_seed, params)
        })
        .collect();
    let outcomes = run_sweep(&specs, workers);

    let graph = brb_sim::experiment::experiment_graph(n, k, graph_seed);
    let mut points = Vec::new();
    for ((name, behaviors), outcome) in scenarios().into_iter().zip(&outcomes) {
        let r = &outcome.record.result;
        points.push(BehaviorPoint {
            scenario: name.to_string(),
            backend: "sim",
            n,
            delivered: r.delivered,
            correct: r.correct,
            messages: Some(r.messages),
            bytes: Some(r.bytes),
        });

        let byzantine: Vec<ProcessId> = behaviors.iter().map(|(p, _)| *p).collect();
        let correct: Vec<ProcessId> = (0..n).filter(|p| !byzantine.contains(p)).collect();
        // Every process except the crashed ones delivers (the other Byzantine ones
        // still receive everything), so the live runs can await the count
        // deterministically.
        let expected = n - behaviors.iter().filter(|(_, b)| !b.receives()).count();
        let options = DriverOptions::default().with_behaviors(behaviors);
        // One measurement procedure for both live backends: broadcast, await the
        // deterministic delivery count, and report how many correct processes delivered.
        for (backend, wire) in BACKENDS {
            let links = wire(&graph, &[]).expect("live backend wires its links");
            let deployment = Deployment::start_on(links, &graph, config, stack, options.clone());
            deployment.broadcast(0, Payload::filled(0xAB, payload));
            deployment.await_deliveries(expected, Duration::from_secs(60));
            let report = deployment.shutdown();
            points.push(BehaviorPoint {
                scenario: name.to_string(),
                // The CSV's historical name of the channel backend.
                backend: if backend == "channel" {
                    "runtime"
                } else {
                    backend
                },
                n,
                delivered: correct
                    .iter()
                    .filter(|&&p| !report.nodes[p].deliveries.is_empty())
                    .count(),
                correct: correct.len(),
                messages: None,
                bytes: None,
            });
        }
    }

    print_points(
        &format!("Behavior matrix — stack={stack}, N={n}, k={k}, f={f}, one broadcast/point"),
        &points,
    );
    points
}

fn print_points(title: &str, points: &[BehaviorPoint]) {
    println!("# {title}");
    println!(
        "{:<20} {:>8} {:>10} {:>8} {:>10} {:>12}",
        "behavior", "backend", "delivered", "correct", "messages", "bytes"
    );
    for p in points {
        let fmt_opt = |v: Option<usize>| v.map_or("-".to_string(), |v| v.to_string());
        println!(
            "{:<20} {:>8} {:>10} {:>8} {:>10} {:>12}",
            p.scenario,
            p.backend,
            p.delivered,
            p.correct,
            fmt_opt(p.messages),
            fmt_opt(p.bytes),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_behavior_matrix_delivers_everywhere_on_every_backend() {
        let points = run_behavior_matrix(Scale::Quick, false, 2, StackSpec::Bd);
        assert_eq!(points.len(), 7 * 3, "7 scenarios x 3 backends");
        for p in &points {
            assert_eq!(
                p.delivered, p.correct,
                "{} on {}: all correct processes must deliver",
                p.scenario, p.backend
            );
            if p.backend == "sim" {
                assert!(p.messages.unwrap() > 0, "{}", p.scenario);
            }
        }
    }

    #[test]
    fn behavior_matrix_is_worker_count_invariant() {
        let a = run_behavior_matrix(Scale::Quick, false, 1, StackSpec::Bd);
        let b = run_behavior_matrix(Scale::Quick, false, 4, StackSpec::Bd);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.scenario, y.scenario);
            assert_eq!(x.backend, y.backend);
            assert_eq!((x.delivered, x.correct), (y.delivered, y.correct));
            assert_eq!((x.messages, x.bytes), (y.messages, y.bytes));
        }
    }
}
