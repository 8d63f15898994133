//! Integration tests of the standalone protocol layers (Bracha on complete graphs, Dolev
//! on partially connected graphs) and of the disjoint-path verification they rely on,
//! exercised through the public crate APIs.

use brb_core::bracha::BrachaProcess;
use brb_core::config::Config;
use brb_core::dolev::DolevProcess;
use brb_core::protocol::Protocol;
use brb_core::types::{BroadcastId, Payload};
use brb_graph::{connectivity, generate, traversal};
use brb_sim::{Behavior, DelayModel, Simulation};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn bracha_delivers_with_f_crashes_on_complete_graph() {
    let (n, f) = (10, 3);
    let processes: Vec<BrachaProcess> = (0..n).map(|i| BrachaProcess::new(i, n, f)).collect();
    let mut sim = Simulation::new(processes, DelayModel::synchronous(), 2);
    for victim in [7, 8, 9] {
        sim.set_behavior(victim, Behavior::Crash);
    }
    sim.broadcast(0, Payload::from("bracha"));
    sim.run_to_quiescence();
    let correct = sim.correct_processes();
    assert_eq!(correct.len(), 7);
    assert_eq!(
        sim.metrics()
            .delivered_count(BroadcastId::new(0, 0), &correct),
        7
    );
}

#[test]
fn dolev_standalone_reliable_communication_with_crashes() {
    let (n, k, f) = (16, 5, 2);
    let mut rng = StdRng::seed_from_u64(3);
    let graph = generate::random_regular_connected(n, k, 2 * f + 1, &mut rng).unwrap();
    let processes: Vec<DolevProcess> = (0..n)
        .map(|i| DolevProcess::new(i, Config::bdopt(n, f), graph.neighbors_vec(i)))
        .collect();
    let mut sim = Simulation::new(processes, DelayModel::synchronous(), 5);
    sim.set_behavior(9, Behavior::Crash);
    sim.set_behavior(14, Behavior::Crash);
    sim.broadcast(1, Payload::from("dolev"));
    sim.run_to_quiescence();
    let correct = sim.correct_processes();
    assert_eq!(
        sim.metrics()
            .delivered_count(BroadcastId::new(1, 0), &correct),
        correct.len()
    );
}

#[test]
fn dolev_latency_reflects_multi_hop_dissemination() {
    // On a ring-like sparse graph, Dolev needs several 50 ms hops; on a complete graph one
    // hop suffices for direct delivery with MD.1.
    let sparse = generate::figure1_example();
    let processes: Vec<DolevProcess> = (0..10)
        .map(|i| DolevProcess::new(i, Config::bdopt(10, 1), sparse.neighbors_vec(i)))
        .collect();
    let mut sim = Simulation::new(processes, DelayModel::synchronous(), 1);
    sim.broadcast(0, Payload::from("x"));
    sim.run_to_quiescence();
    let sparse_latency = sim
        .metrics()
        .latency(BroadcastId::new(0, 0), &sim.correct_processes())
        .unwrap();

    let complete = generate::complete(10);
    let processes: Vec<DolevProcess> = (0..10)
        .map(|i| DolevProcess::new(i, Config::bdopt(10, 1), complete.neighbors_vec(i)))
        .collect();
    let mut sim = Simulation::new(processes, DelayModel::synchronous(), 1);
    sim.broadcast(0, Payload::from("x"));
    sim.run_to_quiescence();
    let complete_latency = sim
        .metrics()
        .latency(BroadcastId::new(0, 0), &sim.correct_processes())
        .unwrap();

    assert!(complete_latency < sparse_latency);
    assert_eq!(complete_latency.as_millis_f64(), 50.0);
}

proptest! {
    // Fully pinned runner configuration: the case count, the base RNG seed and the
    // failure-persistence file are all committed, so this suite generates the same 16
    // inputs on every machine (see tests/README.md).
    #![proptest_config(ProptestConfig::with_cases(16)
        .with_rng_seed(0xB0B0_0004_1A7E_0004)
        .with_failure_persistence(FileFailurePersistence::SourceParallel("proptest-regressions")))]

    /// Menger's theorem, the keystone of Dolev's correctness argument: in every generated
    /// k-connected graph, every pair of nodes is joined by at least k node-disjoint paths.
    #[test]
    fn menger_bound_holds_on_generated_graphs(seed in any::<u64>(), k in 3usize..6) {
        let n = 12;
        let mut rng = StdRng::seed_from_u64(seed);
        if let Ok(graph) = generate::random_regular_connected(n, k, k, &mut rng) {
            prop_assert!(connectivity::is_k_connected(&graph, k));
            for s in 0..n {
                for t in (s + 1)..n {
                    prop_assert!(connectivity::local_connectivity(&graph, s, t) >= k);
                }
            }
        }
    }

    /// Generated regular graphs are connected with the requested degree.
    #[test]
    fn random_regular_graphs_are_well_formed(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generate::random_regular_graph(18, 4, &mut rng).unwrap();
        prop_assert!(traversal::is_connected(&graph));
        for v in graph.nodes() {
            prop_assert_eq!(graph.degree(v), 4);
        }
        prop_assert_eq!(graph.edge_count(), 18 * 4 / 2);
    }

    /// Bracha on a complete graph delivers for arbitrary (n, f) with f < n/3 and any
    /// source, under asynchronous delays.
    #[test]
    fn bracha_validity_under_asynchrony(n in 4usize..12, seed in any::<u64>()) {
        let f = (n - 1) / 3;
        let source = (seed as usize) % n;
        let processes: Vec<BrachaProcess> = (0..n).map(|i| BrachaProcess::new(i, n, f)).collect();
        let mut sim = Simulation::new(processes, DelayModel::asynchronous(), seed);
        sim.broadcast(source, Payload::filled(1, 16));
        sim.run_to_quiescence();
        let correct = sim.correct_processes();
        prop_assert_eq!(
            sim.metrics().delivered_count(BroadcastId::new(source, 0), &correct),
            n
        );
        for p in sim.processes() {
            prop_assert_eq!(p.deliveries().len(), 1);
        }
    }
}
