//! The churn experiment axis: scheduled link/partition/restart events as sweep rows.
//!
//! The paper evaluates BRB on *static* partially connected topologies; this harness adds
//! the dynamic counterpart — every [`ChurnSpec`] scenario (link flap, partition/heal,
//! node restart, per-link delay override) replayed against the paper's single-broadcast
//! experiment, plus the same mixed schedule on the non-regular topology families
//! (planar grid, geometric random graph, bounded-degree expander) that model the
//! deployments where churn actually happens.
//!
//! Every row runs on the discrete-event simulator: the scenario rows go through the
//! parallel sweep engine (so they are worker-count invariant and the CI smoke job can
//! byte-diff the CSV between 1 and 4 workers), the family rows through
//! [`run_experiment`] on deterministically generated graphs. The schedules are
//! placed so that completeness is topology-guaranteed — a downed edge always leaves the
//! `f + 1` disjoint paths the Dolev layer needs — which is what makes `delivered` a
//! deterministic column rather than a race.

use brb_core::stack::StackSpec;
use brb_graph::connectivity::is_k_connected;
use brb_graph::{families, Graph};
use brb_sim::churn::{ChurnAction, ChurnSpec};
use brb_sim::experiment::{experiment_graph, run_experiment};
use brb_sim::{run_sweep, DelayModel, ExperimentSpec};

use crate::{experiment, Scale};

use brb_core::config::Config;

/// One row of the churn matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnPoint {
    /// Scenario name (e.g. `"flap"`), the CSV `behavior` column.
    pub scenario: String,
    /// Topology label (`"regular"` for the scenario rows, the family name otherwise).
    pub label: String,
    /// Number of processes.
    pub n: usize,
    /// Correct processes that delivered the broadcast.
    pub delivered: usize,
    /// Number of correct processes.
    pub correct: usize,
    /// Total messages transmitted.
    pub messages: usize,
    /// Total bytes transmitted.
    pub bytes: usize,
    /// Number of churn events the run applied.
    pub churn_events: usize,
}

/// The scenario list: one schedule per churn action family, timed so the single
/// broadcast (injected at `t = 0`, quiescent within ~100 ms of virtual time) meets the
/// flap and the delay override in flight, and the partition/heal/restart afterwards.
fn scenarios(flaky: (usize, usize), n: usize) -> Vec<(&'static str, Option<ChurnSpec>)> {
    let (a, b) = flaky;
    vec![
        ("none", None),
        (
            "flap",
            Some(ChurnSpec::new().flap(a, b, 5_000, 40_000, 10_000, 2)),
        ),
        (
            "partition-heal",
            Some(
                ChurnSpec::new()
                    .at(
                        500_000,
                        ChurnAction::Partition {
                            side: (0..n / 3).collect(),
                        },
                    )
                    .at(600_000, ChurnAction::Heal),
            ),
        ),
        (
            "restart",
            Some(ChurnSpec::new().at(700_000, ChurnAction::NodeRestart { process: n - 1 })),
        ),
        (
            "link-delay",
            Some(ChurnSpec::new().at(
                0,
                ChurnAction::SetLinkDelay {
                    from: a,
                    to: b,
                    extra_micros: 5_000,
                },
            )),
        ),
    ]
}

/// The mixed schedule the family rows replay: a flap riding the dissemination, then a
/// partition/heal cycle and a restart in the quiescent tail (the same shape as the
/// committed `bd_planar_grid_churn` golden).
fn mixed_spec(flaky: (usize, usize), n: usize) -> ChurnSpec {
    ChurnSpec::new()
        .flap(flaky.0, flaky.1, 5_000, 40_000, 10_000, 1)
        .at(
            500_000,
            ChurnAction::Partition {
                side: (0..n / 4).collect(),
            },
        )
        .at(550_000, ChurnAction::Heal)
        .at(600_000, ChurnAction::NodeRestart { process: n - 1 })
}

/// The non-regular topology families, generated as pure functions of the seed. The
/// random families are re-seeded deterministically until 3-connected, so the flap
/// (which costs one edge) always leaves the two disjoint paths `f = 1` needs.
fn family_graphs(seed: u64) -> Vec<(&'static str, Graph)> {
    let geometric = (0..)
        .map(|i| families::geometric_random_graph(20, 0.35, seed + i))
        .find(|g| is_k_connected(g, 3))
        .expect("some seed yields a 3-connected geometric graph");
    let expander = (0..)
        .map(|i| {
            families::bounded_degree_expander(20, 4, seed + i)
                .expect("n = 20, d = 4 is a feasible expander")
        })
        .find(|g| is_k_connected(g, 3))
        .expect("some seed yields a 3-connected expander");
    vec![
        ("planar-grid", families::planar_grid(5, 5)),
        ("geometric", geometric),
        ("expander", expander),
    ]
}

/// Runs the churn matrix: every scenario on the paper's random regular topology through
/// the sweep engine, then the mixed schedule on each topology family.
pub fn run_churn_matrix(
    scale: Scale,
    asynchronous: bool,
    workers: usize,
    stack: StackSpec,
) -> Vec<ChurnPoint> {
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
    let payload = 64;
    let flaky = experiment_graph(n, k, graph_seed).edges()[0];

    // Scenario rows, through the sweep engine (bit-identical for any worker count).
    let named = scenarios(flaky, n);
    let specs: Vec<ExperimentSpec> = named
        .iter()
        .map(|(name, churn)| {
            let mut params = experiment(n, k, f, payload, config, delay, 1).with_stack(stack);
            if let Some(spec) = churn {
                params = params.with_churn(spec.clone());
            }
            ExperimentSpec::new((*name).to_string(), graph_seed, params)
        })
        .collect();
    let mut points: Vec<ChurnPoint> = scenarios(flaky, n)
        .into_iter()
        .zip(run_sweep(&specs, workers))
        .map(|((name, _), outcome)| {
            let r = &outcome.record.result;
            ChurnPoint {
                scenario: name.to_string(),
                label: "regular".to_string(),
                n,
                delivered: r.delivered,
                correct: r.correct,
                messages: r.messages,
                bytes: r.bytes,
                churn_events: outcome.record.metrics.churn_events.len(),
            }
        })
        .collect();

    // Family rows: the mixed schedule on each deterministic non-regular topology,
    // always at f = 1 (the families fix their own sizes and connectivity floors).
    for (family, graph) in family_graphs(graph_seed) {
        let fn_ = graph.node_count();
        let fconfig = Config::bdopt_mbd1(fn_, 1);
        let fflaky = graph.edges()[0];
        let params = experiment(fn_, 3, 1, payload, fconfig, delay, 1)
            .with_stack(stack)
            .with_churn(mixed_spec(fflaky, fn_));
        let record = run_experiment(&params, &graph);
        let r = &record.result;
        points.push(ChurnPoint {
            scenario: "mixed".to_string(),
            label: family.to_string(),
            n: fn_,
            delivered: r.delivered,
            correct: r.correct,
            messages: r.messages,
            bytes: r.bytes,
            churn_events: record.metrics.churn_events.len(),
        });
    }

    print_points(
        &format!("Churn matrix — stack={stack}, N={n}, k={k}, f={f}, one broadcast/point"),
        &points,
    );
    points
}

fn print_points(title: &str, points: &[ChurnPoint]) {
    println!("# {title}");
    println!(
        "{:<16} {:<12} {:>4} {:>10} {:>8} {:>10} {:>12} {:>7}",
        "scenario", "topology", "n", "delivered", "correct", "messages", "bytes", "events"
    );
    for p in points {
        println!(
            "{:<16} {:<12} {:>4} {:>10} {:>8} {:>10} {:>12} {:>7}",
            p.scenario, p.label, p.n, p.delivered, p.correct, p.messages, p.bytes, p.churn_events
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_churn_matrix_delivers_everywhere() {
        let points = run_churn_matrix(Scale::Quick, false, 2, StackSpec::Bd);
        assert_eq!(points.len(), 5 + 3, "5 scenarios + 3 topology families");
        for p in &points {
            assert_eq!(
                p.delivered, p.correct,
                "{} on {}: every correct process must deliver",
                p.scenario, p.label
            );
            assert!(p.messages > 0, "{}", p.scenario);
            if p.scenario == "none" {
                assert_eq!(p.churn_events, 0);
            } else {
                assert!(p.churn_events > 0, "{} must apply events", p.scenario);
            }
        }
    }

    #[test]
    fn churn_matrix_is_worker_count_invariant() {
        let a = run_churn_matrix(Scale::Quick, false, 1, StackSpec::Bd);
        let b = run_churn_matrix(Scale::Quick, false, 4, StackSpec::Bd);
        assert_eq!(a, b);
    }
}
