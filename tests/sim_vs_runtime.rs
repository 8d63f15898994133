//! Cross-runtime integration test: the same protocol engine delivers both under the
//! deterministic discrete-event simulator and under the thread-per-process runtime.

use std::time::Duration;

use brb_core::config::Config;
use brb_core::stack::StackSpec;
use brb_core::types::{BroadcastId, Payload};
use brb_core::BdProcess;
use brb_graph::generate;
use brb_runtime::{run_broadcast, Links};
use brb_sim::{DelayModel, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn simulator_and_threaded_runtime_agree_on_delivery() {
    let (n, k, f) = (14, 5, 2);
    let mut rng = StdRng::seed_from_u64(31);
    let graph = generate::random_regular_connected(n, k, 2 * f + 1, &mut rng).unwrap();
    let config = Config::latency_preset(n, f);
    let payload = Payload::from("cross-runtime payload");

    // Discrete-event simulation.
    let processes: Vec<BdProcess> = (0..n)
        .map(|i| BdProcess::new(i, config, graph.neighbors_vec(i)))
        .collect();
    let mut sim = Simulation::new(processes, DelayModel::synchronous(), 1);
    sim.broadcast(3, payload.clone());
    sim.run_to_quiescence();
    let correct = sim.correct_processes();
    assert_eq!(
        sim.metrics()
            .delivered_count(BroadcastId::new(3, 0), &correct),
        n
    );

    // Threaded deployment (same engine, real concurrency).
    let report = run_broadcast(
        Links::channels(&graph, &[]),
        &graph,
        config,
        StackSpec::Bd,
        payload.clone(),
        3,
        Duration::from_secs(20),
    );
    let everyone: Vec<usize> = (0..n).collect();
    assert!(report.all_delivered(&everyone, 1));
    for node in &report.nodes {
        assert_eq!(node.deliveries[0].payload, payload);
        assert_eq!(node.deliveries[0].id, BroadcastId::new(3, 0));
    }
}

#[test]
fn threaded_runtime_tolerates_crashes_like_the_simulator() {
    let (n, k, f) = (14, 5, 2);
    let mut rng = StdRng::seed_from_u64(8);
    let graph = generate::random_regular_connected(n, k, 2 * f + 1, &mut rng).unwrap();
    let config = Config::bdopt_mbd1(n, f);
    let payload = Payload::filled(0x42, 256);
    let crashed = vec![5usize, 11];

    let report = run_broadcast(
        Links::channels(&graph, &crashed),
        &graph,
        config,
        StackSpec::Bd,
        payload.clone(),
        0,
        Duration::from_secs(20),
    );
    let correct: Vec<usize> = (0..n).filter(|p| !crashed.contains(p)).collect();
    assert!(report.all_delivered(&correct, 1));
    for &c in &crashed {
        assert!(report.nodes[c].deliveries.is_empty());
    }
    assert!(report.total_bytes() > 0);
}
