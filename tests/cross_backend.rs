//! Cross-backend integration tests: the same protocol engine and configuration deliver
//! the same broadcast on all three execution back ends — the deterministic discrete-event
//! simulator, the thread-per-process channel runtime, and the TCP socket deployment.
//!
//! The paper's evaluation runs on one back end only (containers + TCP); keeping the three
//! back ends in agreement is what justifies reading the simulator's latency and bandwidth
//! figures as predictions for the deployed system. With the `brb_core::stack` API the
//! agreement is checked for **every** [`StackSpec`] variant, not just the Bracha–Dolev
//! combination: the matrix test below runs each stack on each backend on the Figure 1
//! topology (Bracha, whose system model requires full connectivity, runs on the complete
//! graph over the same ten processes), asserts the three delivery sets are identical, and
//! checks the four BRB properties on every backend's logs.

use std::time::Duration;

use brb_core::config::Config;
use brb_core::gc::GcPolicy;
use brb_core::stack::{DynEngine, DynStack, StackSpec, WireActionBuf};
use brb_core::types::{BroadcastId, BroadcastSeq, Delivery, Payload, ProcessId};
use brb_core::{BdProcess, Protocol};
use brb_graph::{generate, Graph};
use brb_net::{tcp_links, Wiring, BACKENDS};
use brb_runtime::{run_broadcast, Deployment, DriverOptions};
use brb_sim::invariants::{check_brb, BroadcastRecord};
use brb_sim::{DelayModel, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Topology and configuration on which each stack's matrix row runs, all over `n = 10`
/// processes. The Figure 1 graph is 3-connected, so the global-fault stacks run with
/// `f = 1`; the CPA stacks use `t = f = 0` (CPA's certified propagation stalls on the
/// Petersen graph for `t >= 1` — its graph condition is strictly stronger than
/// `2t+1`-connectivity); Bracha gets the complete graph its model requires, with the
/// largest tolerable `f`.
fn matrix_row(stack: StackSpec) -> (Graph, Config) {
    let n = 10;
    if stack.requires_full_connectivity() {
        return (generate::complete(n), Config::plain(n, 3));
    }
    let graph = generate::figure1_example();
    let config = match stack {
        StackSpec::Cpa | StackSpec::BrachaCpa => Config::plain(n, 0),
        _ => Config::bdopt_mbd1(n, 1),
    };
    (graph, config)
}

/// Runs one broadcast of `stack` under the discrete-event simulator (through the same
/// `DynStack` encoded-frame path the deployments use) and returns the per-process
/// delivery logs.
fn simulate(
    stack: StackSpec,
    graph: &Graph,
    config: &Config,
    payload: &Payload,
) -> Vec<Vec<Delivery>> {
    let processes: Vec<DynStack> = (0..graph.node_count())
        .map(|i| stack.build_protocol(config, graph, i))
        .collect();
    let mut sim = Simulation::new(processes, DelayModel::synchronous(), 1);
    sim.broadcast(0, payload.clone());
    sim.run_to_quiescence();
    sim.processes()
        .iter()
        .map(|p| p.deliveries().to_vec())
        .collect()
}

#[test]
fn every_stack_agrees_across_all_three_backends_on_figure1() {
    for stack in StackSpec::ALL {
        let (graph, config) = matrix_row(stack);
        let n = graph.node_count();
        let payload = Payload::from(format!("matrix:{stack}").as_str());
        let everyone: Vec<usize> = (0..n).collect();
        let broadcasts = [BroadcastRecord::new(
            0,
            BroadcastId::new(0, 0),
            payload.clone(),
        )];

        // 1. Discrete-event simulator (encoded frames through DynStack).
        let sim_logs = simulate(stack, &graph, &config, &payload);

        // All four BRB properties hold on the simulator's logs.
        let slices: Vec<&[Delivery]> = sim_logs.iter().map(|l| l.as_slice()).collect();
        check_brb(&slices, &everyone, &broadcasts)
            .unwrap_or_else(|v| panic!("{stack} on sim: {v}"));

        // 2. and 3. Thread-per-process deployments over crossbeam channels and over TCP
        //    sockets on loopback.
        for (backend, wire) in BACKENDS {
            let report = run_broadcast(
                wire(&graph, &[]).expect("links wire"),
                &graph,
                config,
                stack,
                payload.clone(),
                0,
                Duration::from_secs(20),
            );
            // Identical delivery sets across the backends, process by process.
            for (p, sim_log) in sim_logs.iter().enumerate() {
                assert_eq!(
                    *sim_log, report.nodes[p].deliveries,
                    "{stack}: sim and {backend} disagree at process {p}"
                );
            }
            // All four BRB properties hold on each backend's logs. (For the RC-only
            // stacks the source is correct, so the BRB properties reduce to the RC
            // guarantees and must hold as well.)
            let slices: Vec<&[Delivery]> = report
                .nodes
                .iter()
                .map(|node| node.deliveries.as_slice())
                .collect();
            check_brb(&slices, &everyone, &broadcasts)
                .unwrap_or_else(|v| panic!("{stack} on {backend}: {v}"));
            // Sanity: every process delivered exactly the broadcast payload once.
            assert!(report.all_delivered(&everyone, 1), "{stack} {backend}");
            assert!(report.total_bytes() > 0, "{stack} {backend}");
        }
    }
}

#[test]
fn all_three_backends_deliver_the_same_broadcast() {
    let (n, k, f) = (12, 5, 2);
    let mut rng = StdRng::seed_from_u64(2021);
    let graph = generate::random_regular_connected(n, k, 2 * f + 1, &mut rng).unwrap();
    let config = Config::bandwidth_preset(n, f);
    let payload = Payload::from("one engine, three backends");
    let source = 4;
    let id = BroadcastId::new(source, 0);

    // 1. Discrete-event simulator.
    let processes: Vec<BdProcess> = (0..n)
        .map(|i| BdProcess::new(i, config, graph.neighbors_vec(i)))
        .collect();
    let mut sim = Simulation::new(processes, DelayModel::synchronous(), 1);
    sim.broadcast(source, payload.clone());
    sim.run_to_quiescence();
    let correct = sim.correct_processes();
    assert_eq!(sim.metrics().delivered_count(id, &correct), n);

    // 2. and 3. Thread-per-process deployments over crossbeam channels and over TCP
    //    sockets on loopback.
    let everyone: Vec<usize> = (0..n).collect();
    for (backend, wire) in BACKENDS {
        let report = run_broadcast(
            wire(&graph, &[]).expect("links wire"),
            &graph,
            config,
            StackSpec::Bd,
            payload.clone(),
            source,
            Duration::from_secs(20),
        );
        assert!(report.all_delivered(&everyone, 1), "{backend}");
        // Every backend attributes the delivery to the same broadcast identifier and
        // payload.
        for node in &report.nodes {
            assert_eq!(node.deliveries[0].id, id, "{backend}");
            assert_eq!(node.deliveries[0].payload, payload, "{backend}");
        }
    }
}

#[test]
fn tcp_backend_tolerates_a_crashed_process_like_the_simulator() {
    let (n, f) = (10, 1);
    let graph = generate::figure1_example();
    let config = Config::latency_preset(n, f);
    let payload = Payload::filled(0x7E, 512);
    let crashed = vec![6usize];

    // Simulator prediction: all correct processes deliver.
    let processes: Vec<BdProcess> = (0..n)
        .map(|i| BdProcess::new(i, config, graph.neighbors_vec(i)))
        .collect();
    let mut sim = Simulation::new(processes, DelayModel::synchronous(), 4);
    sim.set_behavior(6, brb_sim::Behavior::Crash);
    sim.broadcast(0, payload.clone());
    sim.run_to_quiescence();
    let sim_correct = sim.correct_processes();
    assert_eq!(
        sim.metrics()
            .delivered_count(BroadcastId::new(0, 0), &sim_correct),
        n - 1
    );

    // TCP deployment observation.
    let report = run_broadcast(
        tcp_links(&graph, &crashed).expect("TCP links wire"),
        &graph,
        config,
        StackSpec::Bd,
        payload.clone(),
        0,
        Duration::from_secs(20),
    );
    let correct: Vec<usize> = (0..n).filter(|p| !crashed.contains(p)).collect();
    assert!(report.all_delivered(&correct, 1));
    assert!(report.nodes[6].deliveries.is_empty());
    assert!(report.total_bytes() > 0);
}

/// An engine whose broadcast panics, standing in for an engine bug.
struct PanicsOnBroadcast(ProcessId);

impl DynEngine for PanicsOnBroadcast {
    fn process_id(&self) -> ProcessId {
        self.0
    }

    fn broadcast_wire(&mut self, _payload: Payload, _out: &mut WireActionBuf) {
        panic!("engine bug in broadcast_wire");
    }

    fn broadcast_wire_seq(&mut self, _seq: BroadcastSeq, _p: Payload, _out: &mut WireActionBuf) {}

    fn handle_frame(&mut self, _from: ProcessId, _frame: &[u8], _out: &mut WireActionBuf) {}

    fn deliveries(&self) -> &[Delivery] {
        &[]
    }

    fn state_bytes(&self) -> usize {
        0
    }

    fn stored_paths(&self) -> usize {
        0
    }

    fn set_gc_policy(&mut self, _policy: GcPolicy) {}

    fn note_time(&mut self, _now_ms: u64) {}

    fn gc_retired(&self) -> u64 {
        0
    }
}

fn panicking_engines(graph: &Graph) -> Vec<Box<dyn DynEngine>> {
    graph
        .nodes()
        .map(|id| Box::new(PanicsOnBroadcast(id)) as Box<dyn DynEngine>)
        .collect()
}

/// Starts panicking engines on `wire`'s links, broadcasts, and shuts down: the
/// shutdown must re-raise the node's panic.
fn shutdown_reraises_a_node_panic(wire: Wiring) {
    let graph = generate::figure1_example();
    let deployment = Deployment::start_with_engines_on(
        wire(&graph, &[]).expect("links wire"),
        panicking_engines(&graph),
        DriverOptions::default(),
    );
    deployment.broadcast(0, Payload::from("m"));
    deployment.shutdown();
}

#[test]
#[should_panic(expected = "engine bug in broadcast_wire")]
fn channel_shutdown_reraises_a_node_panic() {
    shutdown_reraises_a_node_panic(BACKENDS[0].1);
}

#[test]
#[should_panic(expected = "engine bug in broadcast_wire")]
fn tcp_shutdown_reraises_a_node_panic() {
    shutdown_reraises_a_node_panic(BACKENDS[1].1);
}
