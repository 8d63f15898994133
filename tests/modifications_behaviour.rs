//! Integration tests of the MBD modifications' observable behaviour on whole-system runs:
//! every individual modification still provides BRB, and the headline bandwidth/latency
//! trends of the paper hold qualitatively on small topologies.

use brb_core::config::Config;
use brb_core::stack::StackSpec;
use brb_core::types::{BroadcastId, Payload};
use brb_core::BdProcess;
use brb_graph::generate;
use brb_sim::{run_experiment, DelayModel, ExperimentParams, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn graph_20_7() -> brb_graph::Graph {
    let mut rng = StdRng::seed_from_u64(77);
    generate::random_regular_connected(20, 7, 7, &mut rng).unwrap()
}

fn run(
    config: Config,
    graph: &brb_graph::Graph,
    payload_size: usize,
    delay: DelayModel,
) -> brb_sim::ExperimentResult {
    let params = ExperimentParams {
        n: graph.node_count(),
        connectivity: 7,
        f: 3,
        crashed: 0,
        payload_size,
        config,
        stack: StackSpec::Bd,
        delay,
        seed: 13,
        workload: None,
        behaviors: Vec::new(),
        churn: None,
        consensus: None,
    };
    run_experiment(&params, graph).result
}

#[test]
fn every_single_modification_preserves_brb_on_a_20_node_graph() {
    let graph = graph_20_7();
    let (n, f) = (20, 3);
    for i in 2..=12u8 {
        let config = Config::bdopt_mbd1(n, f).with_mbd(&[i]);
        let result = run(config, &graph, 1024, DelayModel::synchronous());
        assert!(result.complete(), "MBD.{i} broke delivery");
    }
}

#[test]
fn mbd1_byte_reduction_matches_paper_magnitude() {
    // Table 1 reports MBD.1 reducing network consumption by 97.6–98% with 1 KiB payloads.
    // On a 20-node, 7-connected graph the reduction is of the same order (the exact value
    // depends on N and k).
    let graph = graph_20_7();
    let base = run(
        Config::bdopt(20, 3),
        &graph,
        1024,
        DelayModel::synchronous(),
    );
    let opt = run(
        Config::bdopt_mbd1(20, 3),
        &graph,
        1024,
        DelayModel::synchronous(),
    );
    assert!(base.complete() && opt.complete());
    let reduction = 1.0 - opt.bytes as f64 / base.bytes as f64;
    assert!(
        reduction > 0.80,
        "MBD.1 should remove most of the payload bytes, got {:.1}% reduction",
        reduction * 100.0
    );
}

#[test]
fn mbd1_reduction_is_smaller_for_small_payloads() {
    // With 16 B payloads Table 1 reports a (much) smaller impact of MBD.1 than with 1 KiB.
    let graph = graph_20_7();
    let base16 = run(Config::bdopt(20, 3), &graph, 16, DelayModel::synchronous());
    let opt16 = run(
        Config::bdopt_mbd1(20, 3),
        &graph,
        16,
        DelayModel::synchronous(),
    );
    let base1k = run(
        Config::bdopt(20, 3),
        &graph,
        1024,
        DelayModel::synchronous(),
    );
    let opt1k = run(
        Config::bdopt_mbd1(20, 3),
        &graph,
        1024,
        DelayModel::synchronous(),
    );
    let red16 = 1.0 - opt16.bytes as f64 / base16.bytes as f64;
    let red1k = 1.0 - opt1k.bytes as f64 / base1k.bytes as f64;
    assert!(
        red1k > red16,
        "large payloads benefit more from MBD.1: 16 B -> {red16:.2}, 1 KiB -> {red1k:.2}"
    );
}

#[test]
fn bandwidth_preset_beats_mbd1_alone_on_bytes() {
    let graph = graph_20_7();
    let base = run(
        Config::bdopt_mbd1(20, 3),
        &graph,
        1024,
        DelayModel::synchronous(),
    );
    let bdw = run(
        Config::bandwidth_preset(20, 3),
        &graph,
        1024,
        DelayModel::synchronous(),
    );
    assert!(
        bdw.bytes < base.bytes,
        "bdw preset: {} vs {}",
        bdw.bytes,
        base.bytes
    );
}

#[test]
fn mbd11_increases_latency_but_decreases_bytes() {
    // Sec. 6.6 / Fig. 4: MBD.11 drastically decreases the number of messages but tends to
    // increase latency because the designated Echo/Ready creators may be far apart.
    let graph = graph_20_7();
    let base = run(
        Config::bdopt_mbd1(20, 3),
        &graph,
        1024,
        DelayModel::synchronous(),
    );
    let with11 = run(
        Config::bdopt_mbd1(20, 3).with_mbd(&[11]),
        &graph,
        1024,
        DelayModel::synchronous(),
    );
    assert!(with11.bytes < base.bytes);
    assert!(
        with11.latency_ms.unwrap() >= base.latency_ms.unwrap(),
        "MBD.11 should not reduce latency: {:?} vs {:?}",
        with11.latency_ms,
        base.latency_ms
    );
}

#[test]
fn asynchronous_networks_still_deliver_with_all_modifications() {
    let graph = graph_20_7();
    let config = Config::bdopt(20, 3).with_mbd(&(1..=12).collect::<Vec<_>>());
    let result = run(config, &graph, 1024, DelayModel::asynchronous());
    assert!(result.complete());
}

#[test]
fn latency_scales_with_hop_count_on_a_ring_like_topology() {
    // On a sparse 3-connected graph latency is a multiple of the 50 ms hop delay and
    // bounded by (diameter + 2 phases) hops.
    let graph = generate::figure1_example();
    let config = Config::bdopt_mbd1(10, 1);
    let processes: Vec<BdProcess> = (0..10)
        .map(|i| BdProcess::new(i, config, graph.neighbors_vec(i)))
        .collect();
    let mut sim = Simulation::new(processes, DelayModel::synchronous(), 4);
    sim.broadcast(0, Payload::filled(0, 16));
    sim.run_to_quiescence();
    let latency = sim
        .metrics()
        .latency(BroadcastId::new(0, 0), &sim.correct_processes())
        .unwrap();
    assert_eq!(
        latency.as_micros() % 50_000,
        0,
        "latency is a multiple of the hop delay"
    );
    assert!(
        latency.as_millis_f64() >= 150.0,
        "at least Send+Echo+Ready hops"
    );
    assert!(
        latency.as_millis_f64() <= 600.0,
        "bounded by a few diameters"
    );
}
