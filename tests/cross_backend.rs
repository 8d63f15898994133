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

use std::sync::Arc;
use std::time::{Duration, Instant};

use brb_core::config::Config;
use brb_core::gc::GcPolicy;
use brb_core::stack::{DynEngine, DynStack, StackSpec, WireActionBuf};
use brb_core::types::{BroadcastId, BroadcastSeq, Delivery, Payload, ProcessId};
use brb_core::{BdProcess, Protocol};
use brb_graph::{generate, Graph};
use brb_net::{Wiring, BACKENDS};
use brb_runtime::{run_broadcast, Deployment, DriverOptions};
use brb_sim::invariants::{check_brb, BroadcastRecord};
use brb_sim::{Behavior, DelayModel, Simulation};
use brb_trace::{DropCause, DropCounts, TraceEvent, TraceEventKind, VecSink};
use brb_transport::TraceConfig;
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

/// Runs the simulator and `wire`'s deployment on Figure 1 with one crash, and on a
/// 5-connected 14-node graph with two: every correct process delivers on both, and no
/// crashed one does on the deployment.
fn crashed_processes_agree_with_the_simulator((backend, wire): (&str, Wiring)) {
    let mut rng = StdRng::seed_from_u64(8);
    let regular = generate::random_regular_connected(14, 5, 5, &mut rng).unwrap();
    let cases = [
        (
            generate::figure1_example(),
            Config::latency_preset(10, 1),
            Payload::filled(0x7E, 512),
            vec![6usize],
        ),
        (
            regular,
            Config::bdopt_mbd1(14, 2),
            Payload::filled(0x42, 256),
            vec![5, 11],
        ),
    ];
    for (graph, config, payload, crashed) in cases {
        let n = graph.node_count();
        let correct: Vec<usize> = (0..n).filter(|p| !crashed.contains(p)).collect();

        // Simulator prediction: all correct processes deliver.
        let processes: Vec<BdProcess> = (0..n)
            .map(|i| BdProcess::new(i, config, graph.neighbors_vec(i)))
            .collect();
        let mut sim = Simulation::new(processes, DelayModel::synchronous(), 4);
        for &c in &crashed {
            sim.set_behavior(c, brb_sim::Behavior::Crash);
        }
        sim.broadcast(0, payload.clone());
        sim.run_to_quiescence();
        let delivered = sim
            .metrics()
            .delivered_count(BroadcastId::new(0, 0), &correct);
        assert_eq!(delivered, correct.len(), "sim, crashed {crashed:?}");

        // Live observation on the backend.
        let report = run_broadcast(
            wire(&graph, &crashed).expect("links wire"),
            &graph,
            config,
            StackSpec::Bd,
            payload.clone(),
            0,
            Duration::from_secs(20),
        );
        assert!(
            report.all_delivered(&correct, 1),
            "{backend}, crashed {crashed:?}"
        );
        for &c in &crashed {
            assert!(report.nodes[c].deliveries.is_empty(), "{backend}: {c}");
        }
        assert!(report.total_bytes() > 0, "{backend}");
    }
}

#[test]
fn threaded_runtime_tolerates_crashes_like_the_simulator() {
    crashed_processes_agree_with_the_simulator(BACKENDS[0]);
}

#[test]
fn tcp_backend_tolerates_a_crashed_process_like_the_simulator() {
    crashed_processes_agree_with_the_simulator(BACKENDS[1]);
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

/// Per process: the `FrameSent` copies and the drops by cause of one run.
type FrameFates = Vec<(usize, DropCounts)>;

/// Tallies `events` per process: `FrameSent` copies and `FrameDropped` causes.
fn frame_fates(events: &[TraceEvent], n: usize) -> FrameFates {
    let mut fates = vec![(0, DropCounts::new()); n];
    for event in events {
        match event.kind {
            TraceEventKind::FrameSent { .. } => fates[event.node].0 += 1,
            TraceEventKind::FrameDropped { cause, .. } => fates[event.node].1.record(cause),
            _ => {}
        }
    }
    fates
}

/// The simulator and both live backends decide every frame's fate with the one
/// `brb_sim::fate::outbound`. Plain Bracha sends a fixed number of frames per process
/// whatever the arrival order, so under deterministic behaviors (a replayer, a
/// targeted silence and a mid-run failure on three non-source processes) every backend
/// must count the same `FrameSent` copies and the same drops by cause per process.
#[test]
fn frame_fates_agree_across_all_three_backends() {
    let n = 10;
    let graph = generate::complete(n);
    let config = Config::plain(n, 3);
    let behaviors = vec![
        (1, Behavior::Replayer),
        (2, Behavior::SilentTowards(vec![4, 5])),
        (3, Behavior::FailsAfter(7)),
    ];
    let payload = Payload::from("one frame fate");

    let processes: Vec<DynStack> = (0..n)
        .map(|i| StackSpec::Bracha.build_protocol(&config, &graph, i))
        .collect();
    let mut sim = Simulation::new(processes, DelayModel::asynchronous(), 3);
    for (process, behavior) in &behaviors {
        sim.set_behavior(*process, behavior.clone());
    }
    let sink = Arc::new(VecSink::new());
    sim.set_trace_sink(sink.clone());
    sim.broadcast(0, payload.clone());
    sim.run_to_quiescence();
    let expected = frame_fates(&sink.events(), n);
    for (process, (sent, drops)) in expected.iter().enumerate() {
        assert_eq!(*drops, sim.drop_counts()[process], "sim {process}");
        assert!(*sent > 0 || drops.total() > 0, "sim {process} sent nothing");
    }
    assert_eq!(expected[1].0, 2 * expected[6].0, "the replayer sends twice");
    assert_eq!(
        expected[2].1.get(DropCause::Behavior),
        2 * 2,
        "ECHO + READY to 4, 5"
    );
    assert_eq!(expected[3].0, 7);

    let decided = |fates: &FrameFates| -> Vec<u64> {
        fates
            .iter()
            .map(|(sent, drops)| *sent as u64 + drops.total())
            .collect()
    };
    for (backend, wire) in BACKENDS {
        let sink = Arc::new(VecSink::new());
        let trace_backend = if backend == "tcp" {
            brb_trace::Backend::Tcp
        } else {
            brb_trace::Backend::Runtime
        };
        let options = DriverOptions::default()
            .with_behaviors(behaviors.clone())
            .with_trace(TraceConfig::new(trace_backend, sink.clone()));
        let deployment = Deployment::start_on(
            wire(&graph, &[]).expect("links wire"),
            &graph,
            config,
            StackSpec::Bracha,
            options,
        );
        deployment.broadcast(0, payload.clone());
        // Wait until every process has decided as many frames as on the simulator.
        let deadline = Instant::now() + Duration::from_secs(20);
        while decided(&frame_fates(&sink.events(), n)) < decided(&expected) {
            assert!(
                Instant::now() < deadline,
                "{backend}: frame fates still missing after 20 s"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let report = deployment.shutdown();
        let observed = frame_fates(&sink.events(), n);
        for process in 0..n {
            let node = &report.nodes[process];
            assert_eq!(observed[process], expected[process], "{backend} {process}");
            assert_eq!(
                node.drops_by_cause, expected[process].1,
                "{backend} {process}"
            );
            assert_eq!(
                node.messages_sent, expected[process].0,
                "{backend} {process}"
            );
        }
    }
}
