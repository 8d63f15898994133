//! Golden-snapshot determinism regression suite.
//!
//! Two families of checks:
//!
//! 1. **Engine snapshots** — for a matrix of (protocol, topology, seed) cases, the full
//!    [`RunMetrics`] of a run, rendered through `RunMetrics::canonical_text`, must match
//!    the committed snapshot under `tests/golden/` byte for byte. Any engine change that
//!    alters event ordering, byte accounting or delivery times shows up as a diff here.
//! 2. **Sweep worker-count invariance** — the parallel sweep must produce byte-identical
//!    metrics for 1, 2 and 8 workers, and those metrics must match their own golden
//!    snapshot.
//!
//! Regenerating snapshots after an *intentional* engine change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -q -p brb --test determinism && cargo test -q -p brb --test determinism
//! ```
//!
//! See `tests/README.md` for when a diff is legitimate.

use std::fs;
use std::path::PathBuf;

use brb_core::bracha::BrachaProcess;
use brb_core::config::Config;
use brb_core::stack::StackSpec;
use brb_core::types::Payload;
use brb_core::BdProcess;
use brb_graph::{generate, NeighborIndex};
use brb_sim::experiment::experiment_graph;
use brb_sim::workload::run_workload;
use brb_sim::{
    run_experiment, run_sweep, Behavior, DelayModel, ExperimentParams, ExperimentSpec, Simulation,
};
use brb_workload::{SourceSelection, WorkloadSpec};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

/// Compares `rendered` against the committed snapshot, or rewrites the snapshot when the
/// `UPDATE_GOLDEN` environment variable is set.
fn check_golden(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).expect("tests/golden must be creatable");
        fs::write(&path, rendered).expect("golden snapshot must be writable");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden snapshot {name}; regenerate with UPDATE_GOLDEN=1 (see tests/README.md)"
        )
    });
    assert_eq!(
        expected, rendered,
        "run metrics diverged from tests/golden/{name}.txt — if the engine change is \
         intentional, regenerate with UPDATE_GOLDEN=1 and commit the diff"
    );
}

/// One BD run on the paper's Fig. 1 topology, returning the canonical metrics rendering.
fn bd_fig1_run(config: Config, delay: DelayModel, seed: u64, payload: usize) -> String {
    let graph = generate::figure1_example();
    let index = NeighborIndex::new(&graph);
    let processes: Vec<BdProcess> = (0..graph.node_count())
        .map(|i| BdProcess::new(i, config, index.neighbors(i).to_vec()))
        .collect();
    let mut sim = Simulation::new(processes, delay, seed);
    sim.broadcast(0, Payload::filled(1, payload));
    sim.run_to_quiescence();
    sim.metrics().canonical_text()
}

#[test]
fn determinism_bd_fig1_synchronous_matches_golden() {
    let rendered = bd_fig1_run(Config::bdopt_mbd1(10, 1), DelayModel::synchronous(), 1, 16);
    check_golden("bd_fig1_sync", &rendered);
}

#[test]
fn determinism_bd_fig1_asynchronous_matches_golden() {
    let rendered = bd_fig1_run(
        Config::latency_preset(10, 1),
        DelayModel::asynchronous(),
        7,
        1024,
    );
    check_golden("bd_fig1_async", &rendered);
}

#[test]
fn determinism_bracha_complete_graph_matches_golden() {
    let n = 7;
    let processes: Vec<BrachaProcess> = (0..n).map(|i| BrachaProcess::new(i, n, 2)).collect();
    let mut sim = Simulation::new(processes, DelayModel::synchronous(), 11);
    sim.broadcast(2, Payload::from("golden"));
    sim.run_to_quiescence();
    check_golden("bracha_complete_n7", &sim.metrics().canonical_text());
}

/// The Bracha-only stacks under asynchronous delays, each on the topology its
/// `cross_backend` matrix row uses: `bracha` on the complete graph with f = 3, Bracha over
/// routed Dolev on Fig. 1 with f = 1, Bracha over CPA on Fig. 1 with t = f = 0. Two
/// overlapping broadcasts per stack, so reordering between phases shows.
#[test]
fn determinism_bracha_stacks_asynchronous_match_golden() {
    let n = 10;
    let mut rendered = String::new();
    for (stack, graph, config) in [
        (
            StackSpec::Bracha,
            generate::complete(n),
            Config::plain(n, 3),
        ),
        (
            StackSpec::BrachaRoutedDolev,
            generate::figure1_example(),
            Config::bdopt_mbd1(n, 1),
        ),
        (
            StackSpec::BrachaCpa,
            generate::figure1_example(),
            Config::plain(n, 0),
        ),
    ] {
        let processes: Vec<_> = (0..n)
            .map(|i| stack.build_protocol(&config, &graph, i))
            .collect();
        let mut sim = Simulation::new(processes, DelayModel::asynchronous(), 19);
        sim.broadcast(0, Payload::filled(5, 64));
        sim.broadcast(3, Payload::filled(6, 64));
        sim.run_to_quiescence();
        rendered.push_str(&format!("=== {stack}\n"));
        rendered.push_str(&sim.metrics().canonical_text());
    }
    check_golden("bracha_stacks_async", &rendered);
}

#[test]
fn determinism_bd_with_crashes_matches_golden() {
    let params = ExperimentParams {
        n: 16,
        connectivity: 5,
        f: 2,
        crashed: 2,
        payload_size: 64,
        config: Config::bandwidth_preset(16, 2),
        stack: StackSpec::Bd,
        delay: DelayModel::synchronous(),
        seed: 11,
        workload: None,
        behaviors: Vec::new(),
        churn: None,
        consensus: None,
    };
    let graph = experiment_graph(16, 5, 33);
    let record = run_experiment(&params, &graph);
    assert!(record.result.complete());
    check_golden("bd_random_n16_crashed", &record.metrics.canonical_text());
}

#[test]
fn determinism_churn_planar_grid_matches_golden() {
    // A churned run on the planar-grid family: an early flap of the 0—1 edge, an
    // asymmetric delay override on 0 -> 1, then (after dissemination) a first-row
    // partition, its heal, and a restart of the far corner. The canonical rendering
    // gains `churn at_us=…` lines — pinned here byte for byte.
    use brb_sim::churn::{ChurnAction, ChurnSpec};
    let graph = brb_graph::families::planar_grid(5, 5);
    let churn = ChurnSpec::new()
        .at(
            0,
            ChurnAction::SetLinkDelay {
                from: 0,
                to: 1,
                extra_micros: 5_000,
            },
        )
        .flap(0, 1, 10_000, 40_000, 10_000, 1)
        .at(
            500_000,
            ChurnAction::Partition {
                side: vec![0, 1, 2, 3, 4],
            },
        )
        .at(550_000, ChurnAction::Heal)
        .at(600_000, ChurnAction::NodeRestart { process: 24 });
    let params = ExperimentParams {
        n: 25,
        connectivity: 3,
        f: 1,
        crashed: 0,
        payload_size: 96,
        config: Config::bdopt_mbd1(25, 1),
        stack: StackSpec::Bd,
        delay: DelayModel::synchronous(),
        seed: 17,
        workload: None,
        behaviors: Vec::new(),
        churn: Some(churn),
        consensus: None,
    };
    let record = run_experiment(&params, &graph);
    assert!(
        record.result.complete(),
        "the 3-connected grid rides out the flap"
    );
    let rendered = record.metrics.canonical_text();
    assert!(
        rendered.contains("churn at_us=600000 restart p24"),
        "churn events must render:\n{rendered}"
    );
    check_golden("bd_planar_grid_churn", &rendered);
}

#[test]
fn determinism_byzantine_behaviours_match_golden() {
    let graph = generate::figure1_example();
    let index = NeighborIndex::new(&graph);
    let config = Config::bdopt_mbd1(10, 1);
    let processes: Vec<BdProcess> = (0..graph.node_count())
        .map(|i| BdProcess::new(i, config, index.neighbors(i).to_vec()))
        .collect();
    let mut sim = Simulation::new(processes, DelayModel::asynchronous(), 13);
    sim.set_behavior(4, Behavior::Replayer);
    sim.set_behavior(7, Behavior::Lossy(0.3));
    sim.broadcast(0, Payload::filled(3, 256));
    sim.run_to_quiescence();
    check_golden("bd_fig1_byzantine", &sim.metrics().canonical_text());
}

/// The sweep matrix shared by the worker-count tests: three systems, two configurations
/// and two seeds each.
fn sweep_matrix() -> Vec<ExperimentSpec> {
    let mut specs = Vec::new();
    for &(n, k, f) in &[(10usize, 4usize, 1usize), (12, 5, 2), (16, 7, 3)] {
        for (tag, config) in [
            ("mbd1", Config::bdopt_mbd1(n, f)),
            ("bdw", Config::bandwidth_preset(n, f)),
        ] {
            for run in 0..2u64 {
                let mut params = ExperimentParams::new(n, k, f, config);
                params.payload_size = 128;
                params.seed = 21 + run;
                specs.push(ExperimentSpec::new(
                    format!("matrix/n={n}/k={k}/{tag}/run={run}"),
                    4_000 + run,
                    params,
                ));
            }
        }
    }
    specs
}

fn render_outcomes(outcomes: &[brb_sim::SweepOutcome]) -> String {
    let mut out = String::new();
    for outcome in outcomes {
        out.push_str("=== ");
        out.push_str(&outcome.label);
        out.push('\n');
        out.push_str(&outcome.record.metrics.canonical_text());
    }
    out
}

#[test]
fn determinism_sweep_1_2_8_workers_byte_identical_and_golden() {
    let specs = sweep_matrix();
    let serial = run_sweep(&specs, 1);
    let rendered = render_outcomes(&serial);
    for workers in [2usize, 8] {
        let parallel = run_sweep(&specs, workers);
        assert_eq!(
            rendered,
            render_outcomes(&parallel),
            "sweep metrics differ between 1 and {workers} workers"
        );
        assert_eq!(
            serial, parallel,
            "full outcomes differ with {workers} workers"
        );
    }
    check_golden("sweep_matrix", &rendered);
}

/// A multi-broadcast workload run: 64 broadcasts arriving back to back (Poisson, mean
/// 2 ms, an order of magnitude under the ~150 ms completion time), so dozens are
/// concurrently in flight. The full canonical metrics — per-broadcast injections,
/// deliveries, byte accounting, event count — are pinned as a golden snapshot.
fn workload_fig1_run() -> String {
    let graph = generate::figure1_example();
    let index = NeighborIndex::new(&graph);
    let config = Config::bdopt_mbd1(10, 1);
    let processes: Vec<BdProcess> = (0..graph.node_count())
        .map(|i| BdProcess::new(i, config, index.neighbors(i).to_vec()))
        .collect();
    let mut sim = Simulation::new(processes, DelayModel::asynchronous(), 5);
    let spec = WorkloadSpec::poisson(2_000, 64)
        .with_sources(SourceSelection::Zipf { exponent: 1.1 })
        .with_payload_bytes(128);
    let schedule = spec.schedule(10, 77);
    run_workload(&mut sim, &schedule, spec.mode);
    // The workload truly overlaps: at least 64 broadcasts were injected and every one
    // was delivered by all 10 processes.
    assert_eq!(sim.metrics().injected_count(), 64);
    let correct = sim.correct_processes();
    for &id in sim.metrics().injection_times.keys() {
        assert_eq!(sim.metrics().delivered_count(id, &correct), 10, "{id}");
    }
    sim.metrics().canonical_text()
}

#[test]
fn determinism_workload_64_concurrent_broadcasts_matches_golden() {
    check_golden("workload_fig1_64bc", &workload_fig1_run());
}

/// The workload sweep matrix: arrival × source-selection shapes at quick scale, two
/// seeds each, including a closed-loop point.
fn workload_sweep_matrix() -> Vec<ExperimentSpec> {
    let (n, k, f) = (16usize, 5usize, 2usize);
    let shapes: Vec<(&str, WorkloadSpec)> = vec![
        ("constant", WorkloadSpec::constant_rate(10_000, 20)),
        (
            "poisson-zipf",
            WorkloadSpec::poisson(10_000, 20).with_sources(SourceSelection::Zipf { exponent: 1.2 }),
        ),
        ("bursty", WorkloadSpec::bursty(5, 500, 40_000, 20)),
        ("closed", WorkloadSpec::constant_rate(0, 20).closed_loop(4)),
    ];
    let mut specs = Vec::new();
    for (tag, workload) in shapes {
        for run in 0..2u64 {
            let mut params = ExperimentParams::new(n, k, f, Config::bdopt_mbd1(n, f));
            params.payload_size = 64;
            params.seed = 31 + run;
            params.workload = Some(workload);
            specs.push(ExperimentSpec::new(
                format!("workload/{tag}/run={run}"),
                6_000 + run,
                params,
            ));
        }
    }
    specs
}

#[test]
fn determinism_workload_sweep_1_2_8_workers_byte_identical_and_golden() {
    let specs = workload_sweep_matrix();
    let serial = run_sweep(&specs, 1);
    let rendered = render_outcomes(&serial);
    for workers in [2usize, 8] {
        let parallel = run_sweep(&specs, workers);
        assert_eq!(
            rendered,
            render_outcomes(&parallel),
            "workload sweep metrics differ between 1 and {workers} workers"
        );
        assert_eq!(
            serial, parallel,
            "full workload outcomes (including latency histograms) differ with {workers} workers"
        );
    }
    for outcome in &serial {
        let stats = outcome
            .record
            .result
            .workload
            .as_ref()
            .expect("workload runs fill workload stats");
        assert!(stats.all_completed(), "{}: {stats:?}", outcome.label);
    }
    check_golden("workload_sweep_matrix", &rendered);
}

#[test]
fn determinism_repeated_runs_are_bit_identical() {
    // Same process twice in one address space: guards against any hidden global state
    // (thread-local RNGs, allocation-order-dependent hashing) leaking into the metrics.
    let a = bd_fig1_run(
        Config::bdopt_mbd1(10, 1),
        DelayModel::asynchronous(),
        99,
        512,
    );
    let b = bd_fig1_run(
        Config::bdopt_mbd1(10, 1),
        DelayModel::asynchronous(),
        99,
        512,
    );
    assert_eq!(a, b);
}
