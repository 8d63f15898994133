//! The phase driver that runs binary consensus over BRB on a live deployment.
//!
//! `brb-sim::consensus` phase-steps [`brb_consensus::ConsensusEngine`]s on the virtual
//! clock; this module replays the identical schedule against a *live* deployment:
//! `Propose` to every node, wait for the BRB traffic to quiesce, then alternate
//! `CloseBv(r)` / `CloseRound(r)` control broadcasts — each followed by a wait for
//! quiescence — until every honest process has decided (or the spec's round bound is
//! hit). Because every phase closes over a global BRB fixpoint, the honest processes
//! evaluate the same delivery sets the simulator computes and decide the same value in
//! the same round, which is what the cross-backend test pins.
//!
//! Quiescence is detected over the deployment's delivery stream: a phase is considered
//! closed once the stream has been silent for a full grace window *and* every BRB
//! instance observed in the consensus namespace has been delivered by every receiving
//! process. [`run_consensus`] runs it on a [`crate::Deployment`] over any backend's
//! [`Links`], so "the same schedule on every backend" is one code path.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use brb_consensus::{
    close_bv_payload, close_round_payload, propose_payload, ConsensusEngine, ConsensusSpec,
    Decision, DecisionHandle,
};
use brb_core::config::Config;
use brb_core::stack::{DynEngine, StackSpec};
use brb_core::types::{
    seq_namespace, BroadcastId, Delivery, Payload, ProcessId, NAMESPACE_CONSENSUS,
};
use brb_graph::Graph;
use brb_transport::DriverOptions;
use crossbeam::channel::{Receiver, RecvTimeoutError};

use crate::deployment::{Deployment, DeploymentReport, Links};

/// What the consensus driver observed on a live backend: the honest processes'
/// decisions plus the shape of the run, in the form the [`brb_consensus::checks`]
/// checkers consume directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsensusRun {
    /// Rounds the driver closed (bounded by the spec's `max_rounds`).
    pub rounds_driven: u32,
    /// Per-honest-process decisions, `(process, decision)` in process order.
    pub decisions: Vec<(ProcessId, Option<Decision>)>,
    /// Distinct BRB instances observed in the consensus namespace on the delivery
    /// stream — the live counterpart of `brb_sim::ConsensusStats::instances`.
    pub instances: usize,
}

impl ConsensusRun {
    /// Whether every honest process decided.
    pub fn all_decided(&self) -> bool {
        self.decisions.iter().all(|(_, d)| d.is_some())
    }
}

/// Replays the consensus phase schedule against a live deployment: `inject` fires one
/// broadcast command (the consensus engine intercepts control payloads locally),
/// `deliveries` is the deployment's delivery stream, `handles` holds one decision
/// handle per process (index = process id), `honest` lists the processes whose
/// decisions the run reports, and `receivers` is the number of processes that actually
/// deliver BRB traffic (correct plus transport-level Byzantine, minus deaf/crashed) —
/// the per-instance delivery count a closed phase must reach.
///
/// Returns when every honest process decided, the spec's round bound was driven, or
/// `timeout` elapsed.
#[allow(clippy::too_many_arguments)]
pub fn drive_consensus<F>(
    inject: F,
    deliveries: &Receiver<(ProcessId, Delivery)>,
    spec: &ConsensusSpec,
    handles: &[DecisionHandle],
    honest: &[ProcessId],
    receivers: usize,
    grace: Duration,
    timeout: Duration,
) -> ConsensusRun
where
    F: Fn(ProcessId, Payload),
{
    let n = handles.len();
    let deadline = Instant::now() + timeout;
    // Per-instance delivery counts, accumulated across phases (instances from closed
    // phases stay complete, so only the current phase's instances gate quiescence).
    let mut counts: HashMap<BroadcastId, usize> = HashMap::new();
    let await_quiescence = |counts: &mut HashMap<BroadcastId, usize>| loop {
        match deliveries.recv_timeout(grace) {
            Ok((_, delivery)) => {
                *counts.entry(delivery.id).or_insert(0) += 1;
            }
            Err(RecvTimeoutError::Timeout) => {
                // Silent for a full grace window: the phase is closed once every
                // consensus-namespace instance reached every receiving process.
                let complete = counts
                    .iter()
                    .filter(|(id, _)| seq_namespace(id.seq) == NAMESPACE_CONSENSUS)
                    .all(|(_, &c)| c >= receivers);
                if complete || Instant::now() >= deadline {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    };

    for p in 0..n {
        inject(p, propose_payload());
    }
    await_quiescence(&mut counts);
    let mut rounds_driven = 0;
    while rounds_driven < spec.max_rounds {
        let round = rounds_driven;
        for op in [close_bv_payload(round), close_round_payload(round)] {
            for p in 0..n {
                inject(p, op.clone());
            }
            await_quiescence(&mut counts);
        }
        rounds_driven += 1;
        if honest.iter().all(|&p| handles[p].get().is_some()) || Instant::now() >= deadline {
            break;
        }
    }

    let instances = counts
        .keys()
        .filter(|id| seq_namespace(id.seq) == NAMESPACE_CONSENSUS)
        .count();
    ConsensusRun {
        rounds_driven,
        decisions: honest.iter().map(|&p| (p, handles[p].get())).collect(),
        instances,
    }
}

/// Convenience wrapper: runs one seeded consensus instance of the given stack over
/// `links` and returns the deployment report (with [`crate::NodeReport::decision`]
/// patched in from the decision handles) together with what the phase driver observed.
/// Every backend runs this one phase schedule, quiescence rule and decision logic, so a
/// fixed `(graph, config, stack, spec)` tuple decides the same value in the same round
/// on every live backend — and on the simulator.
#[allow(clippy::too_many_arguments)]
pub fn run_consensus(
    links: Links,
    graph: &Graph,
    config: Config,
    stack: StackSpec,
    spec: &ConsensusSpec,
    f: usize,
    options: DriverOptions,
    timeout: Duration,
) -> (DeploymentReport, ConsensusRun) {
    let n = graph.node_count();
    let shared = Arc::new(graph.clone());
    let mut handles = Vec::with_capacity(n);
    let engines = (0..n)
        .map(|id| {
            let engine = ConsensusEngine::new(stack.build_shared(&config, &shared, id), n, f, spec);
            handles.push(engine.decision_handle());
            Box::new(engine) as Box<dyn DynEngine>
        })
        .collect();
    // The processes that deliver BRB traffic at all: the running ones, minus those
    // assigned the deaf `Behavior::Crash`.
    let receiving: Vec<ProcessId> = links
        .running()
        .into_iter()
        .filter(|&p| options.behavior_of(p).receives())
        .collect();
    let honest = brb_sim::honest_processes(&receiving, spec);
    let grace = options.idle_shutdown;
    let deployment = Deployment::start_with_engines_on(links, engines, options);
    let run = drive_consensus(
        |source, payload| deployment.broadcast(source, payload),
        deployment.deliveries(),
        spec,
        &handles,
        &honest,
        receiving.len(),
        grace,
        timeout,
    );
    let mut report = deployment.shutdown();
    for (id, handle) in handles.iter().enumerate() {
        report.nodes[id].decision = handle.get();
    }
    (report, run)
}
