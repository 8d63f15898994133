//! Running binary consensus over BRB inside the discrete-event simulator.
//!
//! The consensus engine ([`brb_consensus::ConsensusEngine`]) is a
//! [`DynEngine`](brb_core::stack::DynEngine) decorator, so the simulator runs it the
//! way it runs any non-default stack: wrapped in a [`DynStack`] moving encoded wire
//! frames — the exact bytes the socket deployments put on their links. The harness
//! here phase-steps the protocol: it injects `Propose` at virtual time 0, runs the
//! network to quiescence, then alternates `CloseBv(r)` / `CloseRound(r)` control
//! operations (each followed by a run to quiescence) until every honest process has
//! decided. Because each phase closes over a *global* BRB fixpoint, all honest
//! processes evaluate identical delivery sets and decide the same value in the same
//! round — deterministically, for a fixed `(params, spec)` pair, and identically to
//! the live backends driving the same schedule.

use brb_consensus::{
    close_bv_payload, close_round_payload, propose_payload, ConsensusEngine, ConsensusSpec,
    Decision, DecisionHandle,
};
use brb_core::stack::DynStack;
use brb_core::types::{seq_namespace, ProcessId, NAMESPACE_CONSENSUS};
use brb_graph::Graph;

use crate::behavior::Behavior;
use crate::experiment::{ExperimentParams, ExperimentRecord, ExperimentResult};
use crate::sim::Simulation;

/// Aggregated outcome of one consensus run (what the sweep CSV rows report).
#[derive(Debug, Clone, PartialEq)]
pub struct ConsensusStats {
    /// Number of honest processes (correct at the transport level and not flippers).
    pub honest: usize,
    /// Number of honest processes that decided.
    pub decided: usize,
    /// The decided value, when at least one honest process decided (lockstep phases
    /// make it unique).
    pub decision_value: Option<u8>,
    /// The round the honest processes decided in.
    pub decision_round: Option<u32>,
    /// Number of rounds the harness drove (bounded by the spec's `max_rounds`).
    pub rounds_driven: u32,
    /// Distinct BRB instances spawned in the consensus namespace (counted over
    /// delivered instance ids).
    pub instances: usize,
    /// Virtual time (ms) at which every honest process had decided.
    pub decision_time_ms: f64,
}

impl ConsensusStats {
    /// Whether every honest process decided.
    pub fn all_decided(&self) -> bool {
        self.decided == self.honest
    }
}

/// Per-process decisions of the honest processes, in the form the
/// [`brb_consensus::checks`] checkers consume.
pub fn honest_decisions(
    handles: &[DecisionHandle],
    honest: &[ProcessId],
) -> Vec<(ProcessId, Option<Decision>)> {
    honest.iter().map(|&p| (p, handles[p].get())).collect()
}

/// The honest processes of a consensus experiment: transport-level correct minus the
/// spec's consensus-level value-flippers.
pub fn honest_processes(correct: &[ProcessId], spec: &ConsensusSpec) -> Vec<ProcessId> {
    correct
        .iter()
        .copied()
        .filter(|p| !spec.flippers.contains(p))
        .collect()
}

/// Builds one consensus-wrapped engine per process over the experiment's stack and
/// returns the simulation plus one decision handle per process.
///
/// Every stack — including the default Bracha–Dolev — runs through the [`DynStack`]
/// wire-frame path here: consensus needs the seq-aware [`brb_core::stack::DynEngine`]
/// interface between itself and the protocol below.
pub fn build_consensus_sim(
    params: &ExperimentParams,
    graph: &Graph,
    spec: &ConsensusSpec,
) -> (Simulation<DynStack>, Vec<DecisionHandle>) {
    assert_eq!(graph.node_count(), params.n, "graph size must match N");
    let shared = std::sync::Arc::new(graph.clone());
    let mut handles = Vec::with_capacity(params.n);
    let engines: Vec<DynStack> = (0..params.n)
        .map(|i| {
            let inner = params.stack.build_shared(&params.config, &shared, i);
            let engine = ConsensusEngine::new(inner, params.n, params.f, spec);
            handles.push(engine.decision_handle());
            DynStack::new(Box::new(engine))
        })
        .collect();
    let mut sim = Simulation::new(engines, params.delay, params.seed);
    for offset in 0..params.crashed {
        sim.set_behavior(params.n - 1 - offset, Behavior::Crash);
    }
    for (process, behavior) in &params.behaviors {
        sim.set_behavior(*process, behavior.clone());
    }
    if let Some(churn) = &params.churn {
        // Link-level churn only: a NodeRestart would discard the consensus engine's
        // volatile round state, which the phase-stepped harness does not model.
        sim.set_churn(churn.compile(params.seed), graph.edges());
    }
    (sim, handles)
}

/// Phase-steps one consensus instance to termination (or the spec's round bound).
///
/// Control operations go through [`Simulation::client_op`], so they leave the
/// injection metrics untouched; round-message BRB traffic is accounted like any other
/// traffic. Returns the aggregated stats and records the decisions into the run's
/// [`crate::RunMetrics`] (`decisions` / `consensus_rounds`), where they become part
/// of the canonical text the determinism harness compares.
pub fn run_consensus(
    sim: &mut Simulation<DynStack>,
    spec: &ConsensusSpec,
    handles: &[DecisionHandle],
) -> ConsensusStats {
    let n = handles.len();
    let correct = sim.correct_processes();
    let honest = honest_processes(&correct, spec);
    for p in 0..n {
        sim.client_op(p, propose_payload());
    }
    sim.run_to_quiescence();
    let mut rounds_driven = 0;
    let mut decision_time = sim.now();
    while rounds_driven < spec.max_rounds {
        let round = rounds_driven;
        for op in [close_bv_payload(round), close_round_payload(round)] {
            for p in 0..n {
                sim.client_op(p, op.clone());
            }
            sim.run_to_quiescence();
        }
        rounds_driven += 1;
        decision_time = sim.now();
        if honest.iter().all(|&p| handles[p].get().is_some()) {
            break;
        }
    }
    sim.collect_gc_metrics();
    let decisions = honest_decisions(handles, &honest);
    for &(p, decision) in &decisions {
        if let Some(d) = decision {
            sim.metrics_mut().decisions.push((p, d.value, d.round));
        }
    }
    sim.metrics_mut().consensus_rounds = rounds_driven;
    let decided: Vec<Decision> = decisions.iter().filter_map(|&(_, d)| d).collect();
    let instances = sim
        .metrics()
        .delivery_times
        .keys()
        .map(|&(_, id)| id)
        .filter(|id| seq_namespace(id.seq) == NAMESPACE_CONSENSUS)
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    ConsensusStats {
        honest: honest.len(),
        decided: decided.len(),
        decision_value: decided.first().map(|d| d.value),
        decision_round: decided.first().map(|d| d.round),
        rounds_driven,
        instances,
        decision_time_ms: decision_time.as_micros() as f64 / 1_000.0,
    }
}

/// Runs one consensus experiment end to end on a caller-provided topology, with an
/// optional trace sink attached before the phases start: builds the wrapped engines,
/// phase-steps to termination and returns the usual [`ExperimentRecord`] with
/// [`ExperimentResult::consensus`] filled, plus the per-process drop accounting (the
/// events end up in the caller's sink). [`crate::experiment::run_experiment`] and
/// [`crate::experiment::run_experiment_traced`] route here when
/// [`ExperimentParams::consensus`] is set.
pub(crate) fn run_consensus_sink(
    params: &ExperimentParams,
    graph: &Graph,
    sink: Option<std::sync::Arc<dyn brb_trace::TraceSink>>,
) -> crate::experiment::TracedRecord {
    let spec = params
        .consensus
        .as_ref()
        .expect("run_consensus_sink requires ExperimentParams::consensus");
    let (mut sim, handles) = build_consensus_sim(params, graph, spec);
    if let Some(sink) = sink {
        sim.set_trace_sink(sink);
    }
    let stats = run_consensus(&mut sim, spec, &handles);
    let correct = sim.correct_processes();
    let result = ExperimentResult {
        latency_ms: stats.all_decided().then_some(stats.decision_time_ms),
        bytes: sim.metrics().bytes_sent,
        messages: sim.metrics().messages_sent,
        delivered: stats.decided,
        correct: correct.len(),
        peak_state_bytes: sim.metrics().peak_state_bytes,
        peak_stored_paths: sim.metrics().peak_stored_paths,
        gc_retired: sim.metrics().gc_retired,
        retained_bytes: sim.metrics().retained_bytes,
        workload: None,
        consensus: Some(stats),
    };
    let drop_counts = sim.drop_counts().to_vec();
    crate::experiment::TracedRecord {
        record: ExperimentRecord {
            result,
            metrics: sim.into_metrics(),
        },
        events: Vec::new(),
        drop_counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brb_consensus::checks::{check_agreement, check_termination, check_validity};
    use brb_consensus::ProposalPattern;
    use brb_core::config::Config;
    use brb_core::stack::StackSpec;

    use crate::experiment::{experiment_graph, run_experiment};

    fn consensus_params(stack: StackSpec, spec: ConsensusSpec) -> ExperimentParams {
        ExperimentParams::new(14, 5, 2, Config::bdopt_mbd1(14, 2))
            .with_stack(stack)
            .with_consensus(spec)
    }

    #[test]
    fn unanimous_proposals_decide_their_value_on_bd() {
        let spec = ConsensusSpec::default().with_proposals(ProposalPattern::Unanimous(0));
        let params = consensus_params(StackSpec::Bd, spec.clone());
        let graph = experiment_graph(params.n, params.connectivity, params.seed);
        let record = run_experiment(&params, &graph);
        let stats = record.result.consensus.expect("consensus stats");
        assert!(stats.all_decided(), "{stats:?}");
        assert_eq!(stats.decision_value, Some(0), "validity");
        assert!(stats.instances > 0);
        assert!(record.result.latency_ms.unwrap() > 0.0);
        let text = record.metrics.canonical_text();
        assert!(text.contains("consensus_rounds="), "{text}");
        assert!(text.contains("decision p0 value=0"), "{text}");
    }

    #[test]
    fn split_proposals_with_a_flipper_satisfy_all_checkers() {
        let spec = ConsensusSpec::default()
            .with_proposals(ProposalPattern::Split)
            .with_flippers(vec![6]);
        let params = consensus_params(StackSpec::Bd, spec.clone());
        let graph = experiment_graph(params.n, params.connectivity, params.seed);
        let (mut sim, handles) = build_consensus_sim(&params, &graph, &spec);
        let stats = run_consensus(&mut sim, &spec, &handles);
        assert!(stats.all_decided(), "{stats:?}");
        let honest = honest_processes(&sim.correct_processes(), &spec);
        let decisions = honest_decisions(&handles, &honest);
        check_agreement(&decisions).unwrap();
        check_validity(&spec, &decisions).unwrap();
        check_termination(&decisions).unwrap();
    }

    #[test]
    fn decisions_are_deterministic_across_repeat_runs() {
        let spec = ConsensusSpec::default().with_proposals(ProposalPattern::Random(5));
        let params = consensus_params(StackSpec::BrachaRoutedDolev, spec);
        let graph = experiment_graph(params.n, params.connectivity, params.seed);
        let a = run_experiment(&params, &graph);
        let b = run_experiment(&params, &graph);
        assert_eq!(a.metrics.canonical_text(), b.metrics.canonical_text());
        assert_eq!(a.result.consensus, b.result.consensus);
    }
}
