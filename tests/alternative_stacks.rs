//! Integration tests of the alternative BRB stacks: Bracha over routed (known-topology)
//! Dolev and Bracha over CPA, validated with the generic BRB invariant checkers.
//!
//! These stacks implement the Sec. 4.3 template of the paper with substrates other than
//! flooding Dolev: the routed variant assumes topology knowledge (global fault model,
//! `k >= 2f+1`), the CPA variant assumes the `t`-locally bounded fault model. Both must
//! satisfy the same four BRB properties as the flooding Bracha–Dolev engine.

use brb_core::bracha_rc::{BrachaCpa, BrachaOverRc, BrachaRoutedDolev};
use brb_core::cpa::CpaProcess;
use brb_core::dolev_routed::RoutedDolev;
use brb_core::types::{BroadcastId, Payload, ProcessId};
use brb_graph::{families, generate, Graph};
use brb_sim::invariants::{check_brb_processes, BroadcastRecord};
use brb_sim::{Behavior, DelayModel, Simulation};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn routed_processes(graph: &Graph, f: usize) -> Vec<BrachaRoutedDolev> {
    let n = graph.node_count();
    (0..n)
        .map(|i| BrachaOverRc::new(n, f, RoutedDolev::new(i, f, graph.clone())))
        .collect()
}

fn cpa_processes(graph: &Graph, f: usize, t_local: usize) -> Vec<BrachaCpa> {
    let n = graph.node_count();
    (0..n)
        .map(|i| BrachaOverRc::new(n, f, CpaProcess::new(i, n, t_local, graph.neighbors_vec(i))))
        .collect()
}

#[test]
fn bracha_routed_dolev_satisfies_brb_on_the_petersen_graph() {
    let graph = generate::figure1_example();
    let mut sim = Simulation::new(routed_processes(&graph, 1), DelayModel::synchronous(), 7);
    let payload = Payload::from("routed stack");
    sim.broadcast(0, payload.clone());
    sim.run_to_quiescence();

    let correct = sim.correct_processes();
    let broadcasts = [BroadcastRecord::new(0, BroadcastId::new(0, 0), payload)];
    check_brb_processes(sim.processes(), &correct, &broadcasts).expect("BRB properties hold");
}

#[test]
fn bracha_routed_dolev_tolerates_targeted_silence() {
    // 4-connected circulant over 13 nodes with f = 1: the single Byzantine process does
    // not crash but silently drops everything it owes to two chosen victims, trying to
    // starve them of disjoint-route copies. Since at most one of the 2f+1 = 3 predefined
    // routes to each victim passes through it, the victims still reach the f+1 threshold.
    let graph = generate::circulant(13, 2);
    let mut sim = Simulation::new(routed_processes(&graph, 1), DelayModel::asynchronous(), 11);
    sim.set_behavior(9, Behavior::SilentTowards(vec![0, 1]));
    let payload = Payload::filled(0x5A, 64);
    sim.broadcast(2, payload.clone());
    sim.run_to_quiescence();

    let correct = sim.correct_processes();
    assert_eq!(correct.len(), 12);
    let broadcasts = [BroadcastRecord::new(2, BroadcastId::new(2, 0), payload)];
    check_brb_processes(sim.processes(), &correct, &broadcasts).expect("BRB properties hold");
}

#[test]
fn bracha_routed_dolev_on_a_tight_harary_topology() {
    // Harary graphs are exactly (2f+1)-connected with the minimum number of edges: the
    // tightest topology the routed variant can run on.
    let f = 2;
    let graph = families::harary(2 * f + 1, 16).unwrap();
    let mut sim = Simulation::new(routed_processes(&graph, f), DelayModel::synchronous(), 3);
    // f silent Byzantine processes, not the source.
    sim.set_behavior(5, Behavior::Crash);
    sim.set_behavior(11, Behavior::Crash);
    let payload = Payload::filled(1, 128);
    sim.broadcast(0, payload.clone());
    sim.run_to_quiescence();

    let correct = sim.correct_processes();
    let broadcasts = [BroadcastRecord::new(0, BroadcastId::new(0, 0), payload)];
    check_brb_processes(sim.processes(), &correct, &broadcasts).expect("BRB properties hold");
}

#[test]
fn bracha_cpa_satisfies_brb_on_a_dense_graph_with_silent_faults() {
    // A complete graph satisfies the CPA condition for t = 2; f = 2 silent processes.
    let n = 10;
    let graph = generate::complete(n);
    let mut sim = Simulation::new(cpa_processes(&graph, 2, 2), DelayModel::synchronous(), 5);
    sim.set_behavior(7, Behavior::Crash);
    sim.set_behavior(8, Behavior::FailsAfter(10));
    let payload = Payload::from("cpa stack");
    sim.broadcast(1, payload.clone());
    sim.run_to_quiescence();

    let correct = sim.correct_processes();
    let broadcasts = [BroadcastRecord::new(1, BroadcastId::new(1, 0), payload)];
    check_brb_processes(sim.processes(), &correct, &broadcasts).expect("BRB properties hold");
}

#[test]
fn bracha_cpa_on_a_generalized_wheel() {
    // Generalized wheel W(3, 10): every rim node sees all three hubs plus two rim
    // neighbors, so the CPA condition holds for t = 1 as long as the Byzantine process is
    // a rim node.
    let graph = families::generalized_wheel(3, 10);
    let n = graph.node_count();
    let mut sim = Simulation::new(cpa_processes(&graph, 1, 1), DelayModel::asynchronous(), 23);
    sim.set_behavior(9, Behavior::Crash); // a rim node
    let payload = Payload::filled(7, 16);
    sim.broadcast(0, payload.clone());
    sim.run_to_quiescence();

    let correct = sim.correct_processes();
    assert_eq!(correct.len(), n - 1);
    let broadcasts = [BroadcastRecord::new(0, BroadcastId::new(0, 0), payload)];
    check_brb_processes(sim.processes(), &correct, &broadcasts).expect("BRB properties hold");
}

#[test]
fn routed_stack_uses_far_fewer_messages_than_flooding_stack() {
    // Head-to-head on the same topology and fault assumption: the plain flooding
    // Bracha-Dolev combination (no MD/MBD optimisations) against Bracha over routed Dolev.
    let (n, k, f) = (12, 4, 1);
    let mut rng = StdRng::seed_from_u64(17);
    let graph = generate::random_regular_connected(n, k, 2 * f + 1, &mut rng).unwrap();

    let flooding: Vec<brb_core::BdProcess> = (0..n)
        .map(|i| brb_core::BdProcess::new(i, brb_core::Config::plain(n, f), graph.neighbors_vec(i)))
        .collect();
    let mut flood_sim = Simulation::new(flooding, DelayModel::synchronous(), 1);
    flood_sim.broadcast(0, Payload::filled(0, 16));
    flood_sim.run_to_quiescence();

    let mut routed_sim = Simulation::new(routed_processes(&graph, f), DelayModel::synchronous(), 1);
    routed_sim.broadcast(0, Payload::filled(0, 16));
    routed_sim.run_to_quiescence();

    let flood_msgs = flood_sim.metrics().messages_sent;
    let routed_msgs = routed_sim.metrics().messages_sent;
    assert!(
        routed_msgs * 2 < flood_msgs,
        "routed stack should at least halve the message count: routed {routed_msgs}, flooding {flood_msgs}"
    );
    // Both stacks must deliver everywhere.
    assert_eq!(
        flood_sim
            .metrics()
            .delivered_count(BroadcastId::new(0, 0), &flood_sim.correct_processes()),
        n
    );
    assert_eq!(
        routed_sim
            .metrics()
            .delivered_count(BroadcastId::new(0, 0), &routed_sim.correct_processes()),
        n
    );
}

proptest! {
    // Fully pinned runner configuration: the case count, the base RNG seed and the
    // failure-persistence file are all committed, so this suite generates the same 16
    // systems on every machine (see tests/README.md).
    #![proptest_config(ProptestConfig::with_cases(16)
        .with_rng_seed(0xB0B0_0003_57AC_0003)
        .with_failure_persistence(FileFailurePersistence::SourceParallel("proptest-regressions")))]

    /// For random k-connected regular graphs with k >= 2f+1 and up to f crashed processes,
    /// the routed stack satisfies all four BRB properties.
    #[test]
    fn routed_stack_brb_properties_hold(
        (n, k, f) in prop_oneof![
            Just((10usize, 3usize, 1usize)),
            Just((12, 4, 1)),
            Just((14, 6, 2)),
            Just((16, 5, 2)),
        ],
        seed in any::<u64>(),
        asynchronous in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generate::random_regular_connected(n, k, 2 * f + 1, &mut rng)
            .expect("parameters admit a k-connected regular graph");
        let delay = if asynchronous { DelayModel::asynchronous() } else { DelayModel::synchronous() };
        let mut sim = Simulation::new(routed_processes(&graph, f), delay, seed);
        let source = (seed as usize) % n;
        let mut crashed: Vec<ProcessId> = Vec::new();
        for i in 0..f {
            let victim = (source + 1 + (seed as usize + i * 5) % (n - 1)) % n;
            if victim != source && !crashed.contains(&victim) {
                crashed.push(victim);
                sim.set_behavior(victim, Behavior::Crash);
            }
        }
        let payload = Payload::filled((seed % 256) as u8, 16);
        sim.broadcast(source, payload.clone());
        sim.run_to_quiescence();

        let correct = sim.correct_processes();
        let broadcasts = [BroadcastRecord::new(source, BroadcastId::new(source, 0), payload)];
        let outcome = check_brb_processes(sim.processes(), &correct, &broadcasts);
        prop_assert!(outcome.is_ok(), "violation: {:?}", outcome);
    }
}
