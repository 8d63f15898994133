//! Cross-backend workload conformance: the same seeded [`WorkloadSpec`] firehoses the
//! discrete-event simulator, the thread-per-process channel runtime and the TCP socket
//! deployment — through the same `StackSpec`-built engines and the same generated
//! injection schedule — and the three backends must agree.
//!
//! "Agree" means: for every process, the *set* of `(broadcast id, payload)` deliveries
//! is identical across the backends (the delivery *order* legitimately differs under
//! real concurrency), and each backend's logs satisfy all four BRB properties for every
//! one of the concurrently injected broadcasts.

use std::collections::BTreeSet;
use std::time::Duration;

use brb_core::config::Config;
use brb_core::stack::{DynStack, StackSpec};
use brb_core::types::{BroadcastId, Delivery, Payload, ProcessId};
use brb_core::Protocol;
use brb_graph::generate;
use brb_net::{run_tcp_workload, TcpDeployment};
use brb_runtime::deployment::run_threaded_workload;
use brb_runtime::{Deployment, DriverOptions, Pacing};
use brb_sim::invariants::{check_brb, BroadcastRecord};
use brb_sim::workload::run_workload;
use brb_sim::{Behavior, DelayModel, Simulation};
use brb_workload::{predicted_ids, SourceSelection, WorkloadSpec};

/// Normalizes a delivery log into the set the backends must agree on.
fn delivery_set(log: &[Delivery]) -> BTreeSet<(BroadcastId, Payload)> {
    log.iter().map(|d| (d.id, d.payload.clone())).collect()
}

/// Runs the workload schedule of `spec` under the simulator (through the encoded-frame
/// `DynStack` path, the same codec path the deployments drive) and returns per-process
/// delivery logs.
fn simulate_workload(stack: StackSpec, spec: &WorkloadSpec, seed: u64) -> Vec<Vec<Delivery>> {
    let graph = generate::figure1_example();
    let config = Config::bdopt_mbd1(10, 1);
    let processes: Vec<DynStack> = (0..graph.node_count())
        .map(|i| stack.build_protocol(&config, &graph, i))
        .collect();
    let mut sim = Simulation::new(processes, DelayModel::synchronous(), 1);
    let schedule = spec.schedule(graph.node_count(), seed);
    run_workload(&mut sim, &schedule, spec.mode);
    sim.processes()
        .iter()
        .map(|p| p.deliveries().to_vec())
        .collect()
}

#[test]
fn same_workload_spec_agrees_across_all_three_backends() {
    let n = 10;
    // 24 broadcasts arriving 4 ms apart (well under the per-broadcast completion time,
    // so many are in flight at once), round-robin over all ten sources.
    let round_robin = WorkloadSpec::constant_rate(4_000, 24).with_payload_bytes(96);
    // 64 broadcasts 2 ms apart whose sources follow a Zipf law, so a few nodes run many
    // of their own instances concurrently.
    let zipf = WorkloadSpec::constant_rate(2_000, 64)
        .with_payload_bytes(72)
        .with_sources(SourceSelection::Zipf { exponent: 1.1 });
    let everyone: Vec<ProcessId> = (0..n).collect();

    for (stack, spec, seed) in [
        (StackSpec::Bd, round_robin, 2026),
        (StackSpec::BrachaRoutedDolev, round_robin, 2026),
        (StackSpec::Bd, zipf, 31337),
    ] {
        let graph = generate::figure1_example();
        let config = Config::bdopt_mbd1(n, 1);
        let schedule = spec.schedule(n, seed);
        let ids = predicted_ids(&schedule);
        let broadcasts: Vec<BroadcastRecord> = schedule
            .iter()
            .zip(&ids)
            .map(|(injection, &id)| {
                BroadcastRecord::new(injection.source, id, injection.payload.clone())
            })
            .collect();
        let case = format!("{stack} seed {seed}");

        // 1. Discrete-event simulator.
        let sim_logs = simulate_workload(stack, &spec, seed);

        // 2. Channel runtime, driven by the generator thread.
        let (threaded, threaded_run) = run_threaded_workload(
            &graph,
            config,
            stack,
            &spec,
            seed,
            &[],
            Duration::from_secs(60),
        );
        assert!(threaded_run.all_completed(), "{case}: {threaded_run:?}");

        // 3. TCP sockets over loopback, same driver.
        let (tcp, tcp_run) = run_tcp_workload(
            &graph,
            config,
            stack,
            &spec,
            seed,
            &[],
            Duration::from_secs(60),
        )
        .expect("TCP deployment starts");
        assert!(tcp_run.all_completed(), "{case}: {tcp_run:?}");

        // Identical per-process delivery sets, backend by backend.
        for (p, sim_log) in sim_logs.iter().enumerate() {
            let sim_set = delivery_set(sim_log);
            assert_eq!(
                sim_set.len(),
                schedule.len(),
                "{case}: process {p} must deliver every broadcast in the simulator"
            );
            assert_eq!(
                sim_set,
                delivery_set(&threaded.nodes[p].deliveries),
                "{case}: sim and channel runtime disagree at process {p}"
            );
            assert_eq!(
                sim_set,
                delivery_set(&tcp.nodes[p].deliveries),
                "{case}: sim and TCP disagree at process {p}"
            );
        }

        // All four BRB properties hold per broadcast on every backend's logs.
        for (backend, logs) in [
            ("sim", sim_logs.clone()),
            (
                "runtime",
                threaded
                    .nodes
                    .iter()
                    .map(|n| n.deliveries.clone())
                    .collect(),
            ),
            (
                "tcp",
                tcp.nodes.iter().map(|n| n.deliveries.clone()).collect(),
            ),
        ] {
            let slices: Vec<&[Delivery]> = logs.iter().map(|l| l.as_slice()).collect();
            check_brb(&slices, &everyone, &broadcasts)
                .unwrap_or_else(|v| panic!("{case} on {backend}: {v}"));
        }
    }
}

#[test]
fn adversarial_workload_agrees_across_all_three_backends() {
    // The adversarial cross-backend conformance the all-correct tests cannot give: the
    // same seeded spec under a Lossy(0.2) + SilentTowards Byzantine mix, on the
    // simulator (via `Simulation::set_behavior`), the channel runtime and the TCP
    // deployment (via the `FaultyLink` transport decorators that
    // `DriverOptions::behaviors` installs). The lossy drops fall on *different* frames
    // per backend (independent RNG streams, real interleavings), but BRB tolerates any
    // behavior of at most f processes — so every correct process must deliver the exact
    // same set of broadcasts everywhere, and all four BRB invariants must hold on each
    // backend's logs.
    let (n, k, f) = (14, 5, 2);
    let seed = 4242;
    use rand::SeedableRng;
    let mut topo_rng = rand::rngs::StdRng::seed_from_u64(58);
    let graph = generate::random_regular_connected(n, k, 2 * f + 1, &mut topo_rng).unwrap();
    let config = Config::bdopt_mbd1(n, f);
    // Processes 12 and 13 are Byzantine; the 12 round-robin broadcasts come from the
    // correct sources 0..11, so every one of them is guaranteed to complete.
    let behaviors: Vec<(ProcessId, Behavior)> = vec![
        (12, Behavior::Lossy(0.2)),
        (13, Behavior::SilentTowards(vec![1, 5])),
    ];
    let correct: Vec<ProcessId> = (0..12).collect();
    let spec = WorkloadSpec::constant_rate(4_000, 12).with_payload_bytes(64);
    let schedule = spec.schedule(n, seed);
    let ids = predicted_ids(&schedule);
    assert!(schedule.iter().all(|injection| injection.source < 12));
    let broadcasts: Vec<BroadcastRecord> = schedule
        .iter()
        .zip(&ids)
        .map(|(injection, &id)| {
            BroadcastRecord::new(injection.source, id, injection.payload.clone())
        })
        .collect();

    // 1. Discrete-event simulator, through the encoded-frame DynStack path.
    let processes: Vec<DynStack> = (0..n)
        .map(|i| StackSpec::Bd.build_protocol(&config, &graph, i))
        .collect();
    let mut sim = Simulation::new(processes, DelayModel::synchronous(), 1);
    for (process, behavior) in &behaviors {
        sim.set_behavior(*process, behavior.clone());
    }
    run_workload(&mut sim, &schedule, spec.mode);
    let sim_logs: Vec<Vec<Delivery>> = sim
        .processes()
        .iter()
        .map(|p| p.deliveries().to_vec())
        .collect();

    // 2. Channel runtime with the behaviors as transport decorators.
    let options = DriverOptions::default().with_behaviors(behaviors.clone());
    let deployment = Deployment::start(&graph, config, StackSpec::Bd, options.clone(), &[]);
    let threaded_run = deployment.run_workload(
        &schedule,
        spec.mode,
        Pacing::Unpaced,
        &correct,
        Duration::from_secs(60),
    );
    let threaded = deployment.shutdown();
    assert!(threaded_run.all_completed(), "{threaded_run:?}");

    // 3. TCP sockets over loopback, same decorators on real links.
    let deployment =
        TcpDeployment::start(&graph, config, StackSpec::Bd, options, &[]).expect("TCP starts");
    let tcp_run = deployment.run_workload(
        &schedule,
        spec.mode,
        Pacing::Unpaced,
        &correct,
        Duration::from_secs(60),
    );
    let tcp = deployment.shutdown();
    assert!(tcp_run.all_completed(), "{tcp_run:?}");

    // Identical per-process delivery sets on every backend, and complete ones: the
    // Byzantine pair cannot starve anyone of the f+1 disjoint paths / 2f+1 READYs.
    for &p in &correct {
        let sim_set = delivery_set(&sim_logs[p]);
        assert_eq!(
            sim_set.len(),
            12,
            "process {p} must deliver all 12 broadcasts in the simulator"
        );
        assert_eq!(
            sim_set,
            delivery_set(&threaded.nodes[p].deliveries),
            "sim and channel runtime disagree at process {p}"
        );
        assert_eq!(
            sim_set,
            delivery_set(&tcp.nodes[p].deliveries),
            "sim and TCP disagree at process {p}"
        );
    }

    // All four BRB properties hold per broadcast on every backend's logs.
    for (backend, logs) in [
        ("sim", sim_logs.clone()),
        (
            "runtime",
            threaded
                .nodes
                .iter()
                .map(|node| node.deliveries.clone())
                .collect(),
        ),
        (
            "tcp",
            tcp.nodes
                .iter()
                .map(|node| node.deliveries.clone())
                .collect(),
        ),
    ] {
        let slices: Vec<&[Delivery]> = logs.iter().map(|l| l.as_slice()).collect();
        check_brb(&slices, &correct, &broadcasts)
            .unwrap_or_else(|v| panic!("adversarial workload on {backend}: {v}"));
    }
}

#[test]
fn closed_loop_workload_agrees_across_backends_with_a_crash() {
    // Closed loop (window 6) with a crashed process among the round-robin sources: the
    // backends implement the window differently (virtual-time admission vs a live
    // generator thread watching completions), but the delivered sets must still agree.
    let n = 10;
    let seed = 77;
    let crashed = vec![7usize];
    let spec = WorkloadSpec::constant_rate(0, 20)
        .with_payload_bytes(48)
        .closed_loop(6);
    let graph = generate::figure1_example();
    let config = Config::bdopt_mbd1(n, 1);
    let correct: Vec<ProcessId> = (0..n).filter(|p| !crashed.contains(p)).collect();

    // Simulator run with the crash.
    let processes: Vec<DynStack> = (0..n)
        .map(|i| StackSpec::Bd.build_protocol(&config, &graph, i))
        .collect();
    let mut sim = Simulation::new(processes, DelayModel::synchronous(), 1);
    sim.set_behavior(7, brb_sim::Behavior::Crash);
    let schedule = spec.schedule(n, seed);
    run_workload(&mut sim, &schedule, spec.mode);
    let sim_logs: Vec<Vec<Delivery>> = sim
        .processes()
        .iter()
        .map(|p| p.deliveries().to_vec())
        .collect();

    let (threaded, run) = run_threaded_workload(
        &graph,
        config,
        StackSpec::Bd,
        &spec,
        seed,
        &crashed,
        Duration::from_secs(60),
    );
    assert!(run.all_completed(), "{run:?}");
    assert_eq!(run.effective, 18, "two of the 20 injections hit the crash");

    for &p in &correct {
        assert_eq!(
            delivery_set(&sim_logs[p]),
            delivery_set(&threaded.nodes[p].deliveries),
            "sim and runtime disagree at process {p}"
        );
        assert_eq!(delivery_set(&sim_logs[p]).len(), 18);
    }
    assert!(threaded.nodes[7].deliveries.is_empty());
}

#[test]
fn replayed_frames_of_retired_instances_agree_and_stay_bounded_across_backends() {
    // Instance GC under a Byzantine `Replayer`: every frame the replayer forwards is
    // duplicated, so frames of broadcasts the receiving engines have *already retired*
    // keep arriving throughout the run. The watermark markers must turn each of them
    // into a deterministic no-op: no duplicate delivery (BRB-No duplication below), no
    // resurrected state, and the exact same per-process delivery sets on the simulator,
    // the channel runtime and the TCP deployment.
    let n = 10;
    let seed = 909;
    let spec = WorkloadSpec::constant_rate(4_000, 16).with_payload_bytes(64);
    let graph = generate::figure1_example();
    let gc = brb_core::gc::GcPolicy::after_events(96);
    let config_plain = Config::bdopt_mbd1(n, 1);
    let config_gc = config_plain.with_gc(gc);
    let behaviors: Vec<(ProcessId, Behavior)> = vec![(1, Behavior::Replayer)];
    let correct: Vec<ProcessId> = (0..n).filter(|&p| p != 1).collect();
    let schedule = spec.schedule(n, seed);
    let ids = predicted_ids(&schedule);
    let broadcasts: Vec<BroadcastRecord> = schedule
        .iter()
        .zip(&ids)
        .map(|(injection, &id)| {
            BroadcastRecord::new(injection.source, id, injection.payload.clone())
        })
        .collect();

    let simulate = |config: &Config| {
        let processes: Vec<DynStack> = (0..n)
            .map(|i| StackSpec::Bd.build_protocol(config, &graph, i))
            .collect();
        let mut sim = Simulation::new(processes, DelayModel::synchronous(), 1);
        sim.set_behavior(1, Behavior::Replayer);
        run_workload(&mut sim, &schedule, spec.mode);
        let logs: Vec<Vec<Delivery>> = sim
            .processes()
            .iter()
            .map(|p| p.deliveries().to_vec())
            .collect();
        let retained: usize = sim.processes().iter().map(|p| p.state_bytes()).sum();
        let retired: u64 = sim.processes().iter().map(|p| p.gc_retired()).sum();
        (logs, retained, retired)
    };

    // 1. Simulator, with and without GC: the no-GC run is the unbounded baseline the
    //    GC run must undercut (it keeps all 16 instances on all 10 processes forever).
    let (nogc_logs, nogc_retained, nogc_retired) = simulate(&config_plain);
    assert_eq!(nogc_retired, 0, "disabled GC must retire nothing");
    let (sim_logs, sim_retained, sim_retired) = simulate(&config_gc);
    assert!(sim_retired > 0, "the event window must retire instances");
    assert!(
        sim_retained < nogc_retained / 2,
        "GC must shed most of the per-broadcast state: {sim_retained} vs {nogc_retained}"
    );
    for &p in &correct {
        assert_eq!(
            delivery_set(&sim_logs[p]),
            delivery_set(&nogc_logs[p]),
            "GC must not change what process {p} delivers"
        );
    }

    // `run_workload` waits only for the correct sources' broadcasts. The comparison
    // below covers the Replayer source's too, so each live backend also waits until it
    // has streamed every delivery the simulator made before it shuts down.
    let sim_deliveries: usize = sim_logs.iter().map(Vec::len).sum();
    let rest_of = |run: &brb_runtime::WorkloadRun| {
        sim_deliveries
            .checked_sub(run.deliveries_seen)
            .expect("a live backend delivers no more than the simulator")
    };

    // 2. Channel runtime, GC flowing through the same `Config`.
    let options = DriverOptions::default().with_behaviors(behaviors.clone());
    let deployment = Deployment::start(&graph, config_gc, StackSpec::Bd, options.clone(), &[]);
    let threaded_run = deployment.run_workload(
        &schedule,
        spec.mode,
        Pacing::Unpaced,
        &correct,
        Duration::from_secs(60),
    );
    let rest = rest_of(&threaded_run);
    let threaded_rest = deployment.await_deliveries(rest, Duration::from_secs(60));
    let threaded = deployment.shutdown();
    assert!(threaded_run.all_completed(), "{threaded_run:?}");
    assert_eq!(
        threaded_rest, rest,
        "channel runtime: deliveries after the workload"
    );

    // 3. TCP sockets over loopback.
    let deployment = TcpDeployment::start(&graph, config_gc, StackSpec::Bd, options, &[])
        .expect("TCP deployment starts");
    let tcp_run = deployment.run_workload(
        &schedule,
        spec.mode,
        Pacing::Unpaced,
        &correct,
        Duration::from_secs(60),
    );
    let rest = rest_of(&tcp_run);
    let tcp_rest = deployment.await_deliveries(rest, Duration::from_secs(60));
    let tcp = deployment.shutdown();
    assert!(tcp_run.all_completed(), "{tcp_run:?}");
    assert_eq!(tcp_rest, rest, "TCP: deliveries after the workload");

    for (backend, report) in [("runtime", &threaded), ("tcp", &tcp)] {
        let retired: u64 = report.nodes.iter().map(|node| node.gc_retired).sum();
        assert!(retired > 0, "{backend}: live engines must retire instances");
        let retained: usize = report.nodes.iter().map(|node| node.state_bytes).sum();
        assert!(
            retained < nogc_retained,
            "{backend}: retained state must stay under the keep-everything \
             baseline: {retained} vs {nogc_retained}"
        );
    }

    for &p in &correct {
        let sim_set = delivery_set(&sim_logs[p]);
        assert_eq!(
            sim_set.len(),
            16,
            "process {p} must deliver all 16 broadcasts"
        );
        assert_eq!(
            sim_set,
            delivery_set(&threaded.nodes[p].deliveries),
            "sim and channel runtime disagree at process {p}"
        );
        assert_eq!(
            sim_set,
            delivery_set(&tcp.nodes[p].deliveries),
            "sim and TCP disagree at process {p}"
        );
    }

    // All four BRB properties — including No duplication, the one a resurrected
    // instance would break — on every backend's logs.
    for (backend, logs) in [
        ("sim", sim_logs.clone()),
        (
            "runtime",
            threaded
                .nodes
                .iter()
                .map(|node| node.deliveries.clone())
                .collect(),
        ),
        (
            "tcp",
            tcp.nodes
                .iter()
                .map(|node| node.deliveries.clone())
                .collect(),
        ),
    ] {
        let slices: Vec<&[Delivery]> = logs.iter().map(|l| l.as_slice()).collect();
        check_brb(&slices, &correct, &broadcasts)
            .unwrap_or_else(|v| panic!("GC + replayer on {backend}: {v}"));
    }
}
