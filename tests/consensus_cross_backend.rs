//! Cross-backend consensus conformance: one seeded binary Byzantine consensus
//! instance (`brb-consensus`, DBFT-style rounds over BRB) runs on the deterministic
//! discrete-event simulator, the thread-per-process channel runtime and the TCP
//! socket deployment — and every honest process on every backend decides the *same
//! value in the same round*.
//!
//! The scenario is adversarial: split proposals (half 0, half 1) plus one
//! consensus-level Byzantine value-flipper that inverts its EST/AUX votes while
//! staying BRB-honest below, so only the consensus layer's `n - f` quorums and
//! bin-values validation defeat it. On top of the lockstep-decision assertion the
//! suite checks:
//!
//! * the agreement/validity/termination checkers of [`brb_consensus::checks`] on
//!   every backend's decision vector;
//! * all four BRB properties (validity, no-duplication, integrity, agreement) on
//!   every underlying round-message instance, per backend — consensus rides ordinary
//!   BRB instances in the dedicated consensus sequence-number namespace, so the
//!   broadcast-layer invariants must keep holding underneath it;
//! * `gc_retired > 0` on every backend when an event-count retention window is
//!   installed — closed-round BRB state is actually reclaimed *while consensus is
//!   still running*, the bounded-memory story of the paper extended up the stack.
//!
//! Two pinned proptests follow: consensus validity/agreement under randomized
//! proposal patterns and flipper placement, and decision stability under a seeded
//! link-flap churn schedule (simulator only — virtual-time phases close over global
//! fixpoints, so dropped frames cost latency, never the decision).

use std::collections::BTreeMap;
use std::time::Duration;

use brb_consensus::checks::{check_agreement, check_termination, check_validity};
use brb_consensus::{ConsensusSpec, Decision, ProposalPattern};
use brb_core::config::Config;
use brb_core::gc::GcPolicy;
use brb_core::stack::StackSpec;
use brb_core::types::{
    seq_namespace, BroadcastId, Delivery, Payload, ProcessId, NAMESPACE_CONSENSUS,
};
use brb_core::Protocol;
use brb_net::BACKENDS;
use brb_sim::churn::ChurnSpec;
use brb_sim::experiment::experiment_graph;
use brb_sim::invariants::{check_brb, BroadcastRecord};
use brb_sim::{
    build_consensus_sim, honest_decisions, honest_processes, run_consensus, run_experiment,
    ExperimentParams,
};
use brb_transport::DriverOptions;
use proptest::prelude::*;

const N: usize = 14;
const K: usize = 5;
const F: usize = 2;
const GRAPH_SEED: u64 = 4_242;
/// Event-count retention window: small enough that closed-round BRB instances retire
/// mid-consensus on every backend.
const GC_WINDOW: u64 = 64;

/// The pinned adversarial scenario all three backends run.
fn scenario() -> ConsensusSpec {
    ConsensusSpec::default()
        .with_proposals(ProposalPattern::Split)
        .with_flippers(vec![N - 2])
}

/// Reconstructs the per-instance broadcast records from observed delivery logs: every
/// instance id must live in the consensus namespace, and every process that delivered
/// it must have seen the same payload (BRB agreement makes the first payload seen
/// authoritative).
fn consensus_broadcasts(logs: &[Vec<Delivery>]) -> Vec<BroadcastRecord> {
    let mut by_id: BTreeMap<BroadcastId, Payload> = BTreeMap::new();
    for log in logs {
        for delivery in log {
            assert_eq!(
                seq_namespace(delivery.id.seq),
                NAMESPACE_CONSENSUS,
                "a pure consensus run must only spawn consensus-namespace instances"
            );
            by_id
                .entry(delivery.id)
                .or_insert_with(|| delivery.payload.clone());
        }
    }
    by_id
        .into_iter()
        .map(|(id, payload)| BroadcastRecord::new(id.source, id, payload))
        .collect()
}

/// Asserts the four BRB properties on one backend's logs, one check per underlying
/// round-message instance set.
fn assert_brb_under_consensus(backend: &str, logs: &[Vec<Delivery>]) {
    let everyone: Vec<ProcessId> = (0..logs.len()).collect();
    let broadcasts = consensus_broadcasts(logs);
    assert!(
        !broadcasts.is_empty(),
        "{backend}: consensus must have spawned BRB instances"
    );
    let slices: Vec<&[Delivery]> = logs.iter().map(|l| l.as_slice()).collect();
    check_brb(&slices, &everyone, &broadcasts)
        .unwrap_or_else(|v| panic!("{backend}: BRB violated under consensus: {v}"));
}

/// Runs every checker and asserts the decision vector matches the simulator's
/// reference decision on every process.
fn assert_decisions(
    backend: &str,
    spec: &ConsensusSpec,
    reference: Decision,
    decisions: &[(ProcessId, Option<Decision>)],
) {
    check_agreement(decisions).unwrap_or_else(|e| panic!("{backend}: {e}"));
    check_validity(spec, decisions).unwrap_or_else(|e| panic!("{backend}: {e}"));
    check_termination(decisions).unwrap_or_else(|e| panic!("{backend}: {e}"));
    for &(p, d) in decisions {
        assert_eq!(
            d,
            Some(reference),
            "{backend}: process {p} diverged from the simulator's decision"
        );
    }
}

#[test]
fn seeded_consensus_decides_identically_on_all_three_backends() {
    let spec = scenario();
    let config = Config::bdopt_mbd1(N, F).with_gc(GcPolicy::after_events(GC_WINDOW));
    let graph = experiment_graph(N, K, GRAPH_SEED);

    // 1. Discrete-event simulator: the reference schedule.
    let params = ExperimentParams::new(N, K, F, config)
        .with_stack(StackSpec::Bd)
        .with_consensus(spec.clone());
    let (mut sim, handles) = build_consensus_sim(&params, &graph, &spec);
    let stats = run_consensus(&mut sim, &spec, &handles);
    assert!(stats.all_decided(), "simulator: {stats:?}");
    assert!(stats.instances > 0, "simulator spawned no BRB instances");
    assert!(
        sim.metrics().gc_retired > 0,
        "simulator: the retention window must retire closed-round instances"
    );
    let honest = honest_processes(&sim.correct_processes(), &spec);
    let sim_decisions = honest_decisions(&handles, &honest);
    let reference = sim_decisions[0].1.expect("simulator decided");
    assert_decisions("sim", &spec, reference, &sim_decisions);
    let sim_logs: Vec<Vec<Delivery>> = sim
        .processes()
        .iter()
        .map(|p| p.deliveries().to_vec())
        .collect();
    assert_brb_under_consensus("sim", &sim_logs);

    let delivery_set = |log: &[Delivery]| -> std::collections::BTreeSet<(BroadcastId, Payload)> {
        log.iter().map(|d| (d.id, d.payload.clone())).collect()
    };

    // 2. and 3. Thread-per-process deployments over crossbeam channels and over TCP
    //    sockets on loopback.
    for (backend, wire) in BACKENDS {
        let (report, run) = brb_runtime::run_consensus(
            wire(&graph, &[]).expect("links wire"),
            &graph,
            config,
            StackSpec::Bd,
            &spec,
            F,
            DriverOptions::default(),
            Duration::from_secs(120),
        );
        assert!(run.all_decided(), "{backend}: {:?}", run.decisions);
        assert_eq!(run.instances, stats.instances, "{backend} instance count");
        assert_decisions(backend, &spec, reference, &run.decisions);
        let logs: Vec<Vec<Delivery>> = report
            .nodes
            .iter()
            .map(|node| node.deliveries.clone())
            .collect();
        assert_brb_under_consensus(backend, &logs);
        assert!(
            report.nodes.iter().map(|n| n.gc_retired).sum::<u64>() > 0,
            "{backend}: the retention window must retire closed-round instances"
        );
        // The patched per-node report carries the same decisions the handles report.
        for &(p, d) in &run.decisions {
            assert_eq!(report.nodes[p].decision, d, "{backend} report at {p}");
        }

        // The backends delivered identical round-message instance *sets* process by
        // process, not merely equivalent decisions. (Order differs: within a phase the
        // live backends interleave concurrent instances nondeterministically.)
        for (p, sim_log) in sim_logs.iter().enumerate() {
            assert_eq!(
                delivery_set(sim_log),
                delivery_set(&logs[p]),
                "sim vs {backend} at process {p}"
            );
        }
    }
}

/// Simulator-only consensus run at a smaller scale for the proptests.
fn prop_params(spec: ConsensusSpec) -> (ExperimentParams, brb_graph::Graph) {
    let (n, k, f) = (10usize, 4usize, 1usize);
    let config = Config::bdopt_mbd1(n, f).with_gc(GcPolicy::after_events(GC_WINDOW));
    let params = ExperimentParams::new(n, k, f, config)
        .with_stack(StackSpec::Bd)
        .with_consensus(spec);
    let graph = experiment_graph(n, k, GRAPH_SEED);
    (params, graph)
}

proptest! {
    // Fully pinned runner configuration: the case count, the base RNG seed and the
    // failure-persistence file are all committed, so this suite generates the same
    // inputs on every machine (see tests/README.md). The case count is small because
    // every case phase-steps a full consensus instance.
    #![proptest_config(ProptestConfig::with_cases(8)
        .with_rng_seed(0x000C_015E_1505_2021)
        .with_failure_persistence(FileFailurePersistence::SourceParallel("proptest-regressions")))]

    /// BV-validity surfaced at the decision: whatever the proposal pattern and
    /// wherever the flipper sits, every honest process decides — the same value on
    /// all of them, and that value was proposed by an honest process (the bin-values
    /// filter keeps flipper-only values out of the candidate set).
    #[test]
    fn random_proposals_with_a_flipper_decide_an_honest_proposal(
        pattern_seed in 0u64..1_000, flipper in 0usize..10
    ) {
        let spec = ConsensusSpec::default()
            .with_proposals(ProposalPattern::Random(pattern_seed))
            .with_flippers(vec![flipper]);
        let (params, graph) = prop_params(spec.clone());
        let record = run_experiment(&params, &graph);
        let stats = record.result.consensus.as_ref().expect("consensus stats");
        prop_assert!(stats.all_decided(), "{stats:?}");
        let honest: Vec<ProcessId> = (0..params.n).filter(|&p| p != flipper).collect();
        let value = stats.decision_value.expect("decided");
        prop_assert!(
            honest.iter().any(|&p| spec.proposal_for(p) == value),
            "decided {value} proposed by no honest process"
        );
    }

    /// Decision stability under churn: a seeded link-flap schedule (one flapping edge
    /// of a 3-connected graph, three down/up cycles across the propose wave) changes
    /// which frames travel, but every phase still closes over the same global BRB
    /// fixpoint — so the decided value *and round* match the churn-free run exactly.
    #[test]
    fn decision_is_stable_under_a_link_flap_schedule(
        edge_choice in 0usize..64, cycles in 1u32..4
    ) {
        let spec = ConsensusSpec::default().with_proposals(ProposalPattern::Split);
        let (params, graph) = prop_params(spec.clone());
        let baseline = run_experiment(&params, &graph);
        let base = baseline.result.consensus.as_ref().expect("consensus stats");
        prop_assert!(base.all_decided(), "{base:?}");

        let edges = graph.edges();
        let (a, b) = edges[edge_choice % edges.len()];
        let churn = ChurnSpec::new().flap(a, b, 500, 2_000, 2_000, cycles);
        let flapped = run_experiment(&params.clone().with_churn(churn), &graph);
        let flap = flapped.result.consensus.as_ref().expect("consensus stats");
        prop_assert!(flap.all_decided(), "{flap:?}");
        prop_assert_eq!(flap.decision_value, base.decision_value);
        prop_assert_eq!(flap.decision_round, base.decision_round);
        prop_assert_eq!(flap.rounds_driven, base.rounds_driven);
    }
}
