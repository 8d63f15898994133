//! Cross-backend churn conformance: one seeded [`ChurnSpec`] — a flapping link under
//! live traffic, a partition/heal cycle in a quiescent gap, and a node restart with
//! state loss — runs on the discrete-event simulator (virtual time), the channel
//! runtime and the TCP deployment (wall clock, via the pacer thread), and the three
//! backends must agree.
//!
//! "Agree" means: for every process, the *set* of `(broadcast id, payload)` deliveries
//! is identical across the backends, every backend's logs satisfy all four BRB
//! properties for all ten broadcasts, and the restarted node reports exactly one
//! restart on the live backends while retaining its pre-restart deliveries in the
//! durable log.
//!
//! The schedule is chosen so completeness is *guaranteed*, not timing-dependent:
//!
//! * the flap downs a single edge of a 5-connected graph while wave one disseminates —
//!   the survivors still give every pair at least the `f + 1 = 3` disjoint paths the
//!   Dolev layer needs, so dropped frames cost latency, never delivery;
//! * the partition (processes `{0, 1, 2}` cut off), heal and restart all sit in the
//!   quiescent gap between the waves — the live runs only reach the gap after
//!   [`Deployment::await_deliveries`] confirmed wave one finished, so no delivery can
//!   depend on a frame the partition would eat;
//! * the restarted process (13) never sources a broadcast — its per-source sequence
//!   counter resets with the volatile state, so a post-restart source would mint
//!   colliding broadcast ids, which is exactly what the durable-log suppression exists
//!   to keep out of the delivery stream.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use brb_core::config::Config;
use brb_core::stack::{DynStack, StackSpec};
use brb_core::types::{BroadcastId, Delivery, Payload, ProcessId};
use brb_core::Protocol;
use brb_graph::generate;
use brb_net::BACKENDS;
use brb_runtime::{Deployment, DriverOptions};
use brb_sim::churn::{ChurnAction, ChurnSpec};
use brb_sim::experiment::experiment_graph;
use brb_sim::invariants::{check_brb, BroadcastRecord};
use brb_sim::{DelayModel, SimTime, Simulation};
use brb_transport::ChurnHandle;

const N: usize = 14;
const K: usize = 5;
const F: usize = 2;
const SEED: u64 = 7031;

/// Wave one: five broadcasts from sources 0..5, injected while the flap is active.
const WAVE1_SOURCES: [ProcessId; 5] = [0, 1, 2, 3, 4];
/// Wave two: five broadcasts from sources 5..10, injected after the restart settled.
const WAVE2_SOURCES: [ProcessId; 5] = [5, 6, 7, 8, 9];
/// The process the schedule crash-recovers between the waves.
const RESTARTED: ProcessId = 13;

/// The shared schedule, in virtual microseconds. The live pacer replays the same
/// numbers in wall-clock time (scale 1.0), so the gap placements below are also the
/// wall-clock budget the live waves get: wave one has two full seconds to finish
/// before the partition hits, which loopback runs at `n = 14` clear by an order of
/// magnitude.
const FLAP_START_US: u64 = 5_000;
const FLAP_DOWN_US: u64 = 445_000;
const PARTITION_AT_US: u64 = 2_000_000;
const HEAL_AT_US: u64 = 2_200_000;
const RESTART_AT_US: u64 = 2_600_000;
const WAVE2_AT_US: u64 = 3_400_000;

fn payload_of(wave: usize, slot: usize) -> Payload {
    Payload::filled((0x10 * wave as u8) | slot as u8, 96)
}

/// The one spec every backend replays. `flaky` is the single edge the flap toggles.
fn churn_spec(flaky: (ProcessId, ProcessId)) -> ChurnSpec {
    ChurnSpec::new()
        .flap(flaky.0, flaky.1, FLAP_START_US, FLAP_DOWN_US, 50_000, 1)
        .at(
            PARTITION_AT_US,
            ChurnAction::Partition {
                side: vec![0, 1, 2],
            },
        )
        .at(HEAL_AT_US, ChurnAction::Heal)
        .at(
            RESTART_AT_US,
            ChurnAction::NodeRestart { process: RESTARTED },
        )
}

/// Normalizes a delivery log into the set the backends must agree on.
fn delivery_set(log: &[Delivery]) -> BTreeSet<(BroadcastId, Payload)> {
    log.iter().map(|d| (d.id, d.payload.clone())).collect()
}

#[test]
fn seeded_churn_schedule_agrees_across_all_three_backends() {
    let graph = experiment_graph(N, K, SEED);
    let config = Config::bdopt_mbd1(N, F);
    let flaky = graph.edges()[0];
    let spec = churn_spec(flaky);
    let everyone: Vec<ProcessId> = (0..N).collect();

    // Every source broadcasts exactly once, so each id is (source, seq 0).
    let broadcasts: Vec<BroadcastRecord> = WAVE1_SOURCES
        .iter()
        .enumerate()
        .map(|(slot, &source)| (1, slot, source))
        .chain(
            WAVE2_SOURCES
                .iter()
                .enumerate()
                .map(|(slot, &source)| (2, slot, source)),
        )
        .map(|(wave, slot, source)| {
            BroadcastRecord::new(source, BroadcastId::new(source, 0), payload_of(wave, slot))
        })
        .collect();

    // 1. Discrete-event simulator: churn events interleave with the injection and
    //    message heaps in virtual time, and the restart swaps in a factory-built
    //    fresh engine.
    let processes: Vec<DynStack> = (0..N)
        .map(|i| StackSpec::Bd.build_protocol(&config, &graph, i))
        .collect();
    let mut sim = Simulation::new(processes, DelayModel::synchronous(), 1);
    sim.set_churn(spec.compile(SEED), graph.edges());
    let (config_for_restart, graph_for_restart) = (config, graph.clone());
    sim.set_restart_builder(move |process| {
        StackSpec::Bd.build_protocol(&config_for_restart, &graph_for_restart, process)
    });
    for (slot, &source) in WAVE1_SOURCES.iter().enumerate() {
        sim.schedule_broadcast(
            SimTime::from_micros(slot as u64 * 10_000),
            source,
            payload_of(1, slot),
        );
    }
    for (slot, &source) in WAVE2_SOURCES.iter().enumerate() {
        sim.schedule_broadcast(
            SimTime::from_micros(WAVE2_AT_US + slot as u64 * 10_000),
            source,
            payload_of(2, slot),
        );
    }
    sim.run_to_quiescence();
    // The restart demonstrably happened: the volatile engine only saw wave two, the
    // durable log carries wave one across the crash.
    assert_eq!(
        sim.processes()[RESTARTED].deliveries().len(),
        WAVE2_SOURCES.len(),
        "the restarted engine's volatile log must only hold post-restart deliveries"
    );
    let sim_logs: Vec<Vec<Delivery>> = (0..N).map(|p| sim.full_deliveries(p)).collect();

    for (p, sim_log) in sim_logs.iter().enumerate() {
        assert_eq!(
            delivery_set(sim_log).len(),
            broadcasts.len(),
            "process {p} must deliver all {} broadcasts in the simulator",
            broadcasts.len()
        );
    }
    let slices: Vec<&[Delivery]> = sim_logs.iter().map(|l| l.as_slice()).collect();
    check_brb(&slices, &everyone, &broadcasts)
        .unwrap_or_else(|v| panic!("churn schedule on sim: {v}"));

    // 2. and 3. Channel runtime and TCP sockets over loopback: the pacer thread replays
    //    the same compiled schedule against the shared link state, and routes the
    //    restart command to the node driver. Each deployment gets a fresh handle (its
    //    churn clock starts at its own start time).
    for (backend, wire) in BACKENDS {
        let options =
            DriverOptions::default().with_churn(ChurnHandle::new(&spec, SEED, 1.0, &graph.edges()));
        let links = wire(&graph, &[]).expect("links wire");
        let deployment = Deployment::start_on(links, &graph, config, StackSpec::Bd, options);
        run_live_waves(backend, &deployment);
        let report = deployment.shutdown();

        // The restart really ran, exactly once, and only there.
        assert_eq!(
            report.nodes[RESTARTED].restarts, 1,
            "{backend}: process {RESTARTED} must restart exactly once"
        );
        for p in (0..N).filter(|&p| p != RESTARTED) {
            assert_eq!(report.nodes[p].restarts, 0, "{backend}: process {p}");
        }

        // Identical, complete per-process delivery sets.
        for (p, sim_log) in sim_logs.iter().enumerate() {
            assert_eq!(
                delivery_set(sim_log),
                delivery_set(&report.nodes[p].deliveries),
                "sim and {backend} disagree at process {p}"
            );
        }

        // All four BRB properties hold per broadcast — including No duplication at the
        // restarted process, the property a resurrected instance would break.
        let slices: Vec<&[Delivery]> = report
            .nodes
            .iter()
            .map(|node| node.deliveries.as_slice())
            .collect();
        check_brb(&slices, &everyone, &broadcasts)
            .unwrap_or_else(|v| panic!("churn schedule on {backend}: {v}"));
    }
}

/// Drives the two-wave broadcast schedule against a live deployment. Wall-clock
/// placement mirrors the virtual-time schedule: wave one immediately, wave two after the
/// pacer has replayed the partition, heal and restart.
fn run_live_waves(backend: &str, deployment: &Deployment) {
    let start = Instant::now();
    // Wave one, racing the flap: completeness is topology-guaranteed (see module docs).
    for (slot, &source) in WAVE1_SOURCES.iter().enumerate() {
        deployment.broadcast(source, payload_of(1, slot));
    }
    let expected = N * WAVE1_SOURCES.len();
    let got = deployment.await_deliveries(expected, Duration::from_secs(60));
    assert_eq!(
        got, expected,
        "{backend}: wave one must complete everywhere"
    );
    assert!(
        start.elapsed() < Duration::from_micros(PARTITION_AT_US),
        "{backend}: wave one must finish inside the pre-partition window \
         (took {:?}; raise the schedule gaps if this machine is that slow)",
        start.elapsed()
    );

    // Sleep through the partition, heal and restart; wave two starts strictly after
    // the pacer delivered the restart command.
    let wave2_at = Duration::from_micros(WAVE2_AT_US);
    std::thread::sleep(wave2_at.saturating_sub(start.elapsed()));
    for (slot, &source) in WAVE2_SOURCES.iter().enumerate() {
        deployment.broadcast(source, payload_of(2, slot));
    }
    let got = deployment.await_deliveries(expected, Duration::from_secs(60));
    assert_eq!(
        got, expected,
        "{backend}: wave two must complete everywhere"
    );
}

#[test]
fn per_link_delay_override_is_asymmetric_on_a_live_deployment() {
    // The live twin of the simulator's asymmetric-override regression: a
    // `SetLinkDelay` on 0 -> 1 only must slow that direction's one-way latency without
    // touching 1 -> 0. Two processes, Dolev with f = 0, so each broadcast is one frame
    // across the single link and the await time *is* the link latency (plus loopback
    // noise, which is orders of magnitude under the 400 ms override).
    let graph = generate::complete(2);
    let config = Config::plain(2, 0);
    let extra = Duration::from_millis(400);
    let spec = ChurnSpec::new().at(
        0,
        ChurnAction::SetLinkDelay {
            from: 0,
            to: 1,
            extra_micros: extra.as_micros() as u64,
        },
    );
    let options =
        DriverOptions::default().with_churn(ChurnHandle::new(&spec, SEED, 1.0, &graph.edges()));
    let deployment = Deployment::start(&graph, config, StackSpec::Dolev, options, &[]);
    // Let the pacer apply the t = 0 override before the first frame is sent.
    std::thread::sleep(Duration::from_millis(50));

    // Slow direction: node 1 only delivers after the overridden 0 -> 1 link fires.
    let start = Instant::now();
    deployment.broadcast(0, Payload::filled(0xA0, 32));
    assert_eq!(deployment.await_deliveries(2, Duration::from_secs(30)), 2);
    let slow = start.elapsed();

    // Fast direction: 1 -> 0 carries no override and completes in loopback time.
    let start = Instant::now();
    deployment.broadcast(1, Payload::filled(0xB0, 32));
    assert_eq!(deployment.await_deliveries(2, Duration::from_secs(30)), 2);
    let fast = start.elapsed();
    let report = deployment.shutdown();

    assert!(
        slow >= extra - Duration::from_millis(20),
        "0 -> 1 must ride the 400 ms override (one-way latency {slow:?})"
    );
    assert!(
        fast < extra / 2,
        "1 -> 0 must stay unaffected by the opposite direction's override \
         (one-way latency {fast:?})"
    );
    assert!(fast < slow, "the override must be direction-specific");
    for node in &report.nodes {
        assert_eq!(
            node.deliveries.len(),
            2,
            "both broadcasts deliver everywhere"
        );
    }
}
