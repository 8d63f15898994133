//! Observer-effect freedom of the `brb-trace` layer, plus the pinned causal trace.
//!
//! Tracing must be purely observational: attaching a sink to a simulation may not
//! change a single byte of the run's canonical metrics. This suite re-runs the exact
//! scenarios behind every committed golden snapshot (`tests/golden/*.txt`, normally
//! exercised by `tests/determinism.rs` without tracing) with a `VecSink` attached and
//! compares `RunMetrics::canonical_text` against the committed files — so a divergence
//! points at a tracing hook that perturbed scheduling, RNG consumption or accounting.
//! A proptest widens the check across random quick-scale parameter tuples, and the
//! Figure-1 scenario's order-normalized causal event sequence is itself pinned as a
//! golden snapshot (`bd_fig1_trace`).
//!
//! Regenerate the trace snapshot after an intentional protocol change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -q -p brb --test trace_observer && \
//!     cargo test -q -p brb --test trace_observer
//! ```

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use brb_core::bracha::BrachaProcess;
use brb_core::config::Config;
use brb_core::stack::StackSpec;
use brb_core::types::Payload;
use brb_core::BdProcess;
use brb_graph::{generate, NeighborIndex};
use brb_sim::experiment::experiment_graph;
use brb_sim::workload::run_workload;
use brb_sim::{
    run_experiment, run_experiment_traced, Behavior, DelayModel, ExperimentParams, Simulation,
};
use brb_trace::{causal_sequence, render_causal_sequence, TraceSink, VecSink};
use brb_workload::{SourceSelection, WorkloadSpec};
use proptest::prelude::*;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

/// Reads the committed golden produced by `tests/determinism.rs`. This suite never
/// rewrites those snapshots — it asserts the traced re-run matches them byte for byte.
fn committed_golden(name: &str) -> String {
    fs::read_to_string(golden_path(name)).unwrap_or_else(|_| {
        panic!(
            "missing golden snapshot {name}; generate it first with \
             UPDATE_GOLDEN=1 cargo test -q -p brb --test determinism"
        )
    })
}

/// `check_golden` for the snapshots this suite owns (the pinned causal trace).
fn check_golden(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).expect("tests/golden must be creatable");
        fs::write(&path, rendered).expect("golden snapshot must be writable");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("missing golden snapshot {name}; regenerate with UPDATE_GOLDEN=1")
    });
    assert_eq!(
        expected, rendered,
        "causal trace diverged from tests/golden/{name}.txt — if the protocol change is \
         intentional, regenerate with UPDATE_GOLDEN=1 and commit the diff"
    );
}

/// The Fig. 1 BD scenario of `bd_fig1_sync`/`bd_fig1_async`, run **with** a sink.
fn bd_fig1_traced(
    config: Config,
    delay: DelayModel,
    seed: u64,
    payload: usize,
) -> (String, Vec<brb_trace::TraceEvent>) {
    let graph = generate::figure1_example();
    let index = NeighborIndex::new(&graph);
    let processes: Vec<BdProcess> = (0..graph.node_count())
        .map(|i| BdProcess::new(i, config, index.neighbors(i).to_vec()))
        .collect();
    let mut sim = Simulation::new(processes, delay, seed);
    let sink = Arc::new(VecSink::new());
    sim.set_trace_sink(sink.clone() as Arc<dyn TraceSink>);
    sim.broadcast(0, Payload::filled(1, payload));
    sim.run_to_quiescence();
    (sim.metrics().canonical_text(), sink.take())
}

#[test]
fn tracing_is_invisible_to_bd_fig1_goldens() {
    let (sync_text, sync_events) =
        bd_fig1_traced(Config::bdopt_mbd1(10, 1), DelayModel::synchronous(), 1, 16);
    assert!(!sync_events.is_empty(), "the sink must actually observe");
    assert_eq!(committed_golden("bd_fig1_sync"), sync_text);

    let (async_text, _) = bd_fig1_traced(
        Config::latency_preset(10, 1),
        DelayModel::asynchronous(),
        7,
        1024,
    );
    assert_eq!(committed_golden("bd_fig1_async"), async_text);
}

#[test]
fn tracing_is_invisible_to_bracha_golden() {
    let n = 7;
    let processes: Vec<BrachaProcess> = (0..n).map(|i| BrachaProcess::new(i, n, 2)).collect();
    let mut sim = Simulation::new(processes, DelayModel::synchronous(), 11);
    let sink = Arc::new(VecSink::new());
    sim.set_trace_sink(sink.clone() as Arc<dyn TraceSink>);
    sim.broadcast(2, Payload::from("golden"));
    sim.run_to_quiescence();
    assert!(!sink.take().is_empty());
    assert_eq!(
        committed_golden("bracha_complete_n7"),
        sim.metrics().canonical_text()
    );
}

#[test]
fn tracing_is_invisible_to_byzantine_golden() {
    let graph = generate::figure1_example();
    let index = NeighborIndex::new(&graph);
    let config = Config::bdopt_mbd1(10, 1);
    let processes: Vec<BdProcess> = (0..graph.node_count())
        .map(|i| BdProcess::new(i, config, index.neighbors(i).to_vec()))
        .collect();
    let mut sim = Simulation::new(processes, DelayModel::asynchronous(), 13);
    let sink = Arc::new(VecSink::new());
    sim.set_trace_sink(sink.clone() as Arc<dyn TraceSink>);
    sim.set_behavior(4, Behavior::Replayer);
    sim.set_behavior(7, Behavior::Lossy(0.3));
    sim.broadcast(0, Payload::filled(3, 256));
    sim.run_to_quiescence();
    assert_eq!(
        committed_golden("bd_fig1_byzantine"),
        sim.metrics().canonical_text()
    );
}

#[test]
fn tracing_is_invisible_to_experiment_goldens() {
    // bd_random_n16_crashed.
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
    let traced = run_experiment_traced(&params, &graph);
    assert!(!traced.events.is_empty());
    assert_eq!(
        committed_golden("bd_random_n16_crashed"),
        traced.record.metrics.canonical_text()
    );

    // bd_planar_grid_churn.
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
    let traced = run_experiment_traced(&params, &graph);
    assert_eq!(
        committed_golden("bd_planar_grid_churn"),
        traced.record.metrics.canonical_text()
    );
}

/// The sweep goldens (`sweep_matrix`, `workload_sweep_matrix`) concatenate per-spec
/// canonical texts; a sweep outcome for `(params, graph_seed)` is exactly
/// `run_experiment_*(params, experiment_graph(n, k, graph_seed))`, so the traced
/// re-run must reproduce every section of the committed files.
fn assert_traced_sections_match(golden: &str, sections: &[(String, u64, ExperimentParams)]) {
    let mut rendered = String::new();
    for (label, graph_seed, params) in sections {
        let graph = experiment_graph(params.n, params.connectivity, *graph_seed);
        let traced = run_experiment_traced(params, &graph);
        rendered.push_str("=== ");
        rendered.push_str(label);
        rendered.push('\n');
        rendered.push_str(&traced.record.metrics.canonical_text());
    }
    assert_eq!(golden, rendered);
}

#[test]
fn tracing_is_invisible_to_sweep_matrix_golden() {
    let mut sections = Vec::new();
    for &(n, k, f) in &[(10usize, 4usize, 1usize), (12, 5, 2), (16, 7, 3)] {
        for (tag, config) in [
            ("mbd1", Config::bdopt_mbd1(n, f)),
            ("bdw", Config::bandwidth_preset(n, f)),
        ] {
            for run in 0..2u64 {
                let mut params = ExperimentParams::new(n, k, f, config);
                params.payload_size = 128;
                params.seed = 21 + run;
                sections.push((
                    format!("matrix/n={n}/k={k}/{tag}/run={run}"),
                    4_000 + run,
                    params,
                ));
            }
        }
    }
    assert_traced_sections_match(&committed_golden("sweep_matrix"), &sections);
}

#[test]
fn tracing_is_invisible_to_workload_goldens() {
    // workload_fig1_64bc: the 64-broadcast overlapping workload on Fig. 1.
    let graph = generate::figure1_example();
    let index = NeighborIndex::new(&graph);
    let config = Config::bdopt_mbd1(10, 1);
    let processes: Vec<BdProcess> = (0..graph.node_count())
        .map(|i| BdProcess::new(i, config, index.neighbors(i).to_vec()))
        .collect();
    let mut sim = Simulation::new(processes, DelayModel::asynchronous(), 5);
    let sink = Arc::new(VecSink::new());
    sim.set_trace_sink(sink.clone() as Arc<dyn TraceSink>);
    let spec = WorkloadSpec::poisson(2_000, 64)
        .with_sources(SourceSelection::Zipf { exponent: 1.1 })
        .with_payload_bytes(128);
    let schedule = spec.schedule(10, 77);
    run_workload(&mut sim, &schedule, spec.mode);
    assert_eq!(
        committed_golden("workload_fig1_64bc"),
        sim.metrics().canonical_text()
    );

    // workload_sweep_matrix: arrival × source-selection shapes, two seeds each.
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
    let mut sections = Vec::new();
    for (tag, workload) in shapes {
        for run in 0..2u64 {
            let mut params = ExperimentParams::new(n, k, f, Config::bdopt_mbd1(n, f));
            params.payload_size = 64;
            params.seed = 31 + run;
            params.workload = Some(workload);
            sections.push((format!("workload/{tag}/run={run}"), 6_000 + run, params));
        }
    }
    assert_traced_sections_match(&committed_golden("workload_sweep_matrix"), &sections);
}

#[test]
fn bd_fig1_causal_trace_matches_golden() {
    let (_, events) = bd_fig1_traced(Config::bdopt_mbd1(10, 1), DelayModel::synchronous(), 1, 16);
    let rendered = render_causal_sequence(&causal_sequence(&events));
    check_golden("bd_fig1_trace", &rendered);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Observer-effect freedom across random quick-scale parameter tuples: the traced
    /// run's canonical metrics equal the untraced run's, byte for byte.
    #[test]
    fn tracing_never_changes_canonical_metrics(
        n in 8usize..14,
        seed in 0u64..500,
        crashed in 0usize..2,
        payload in 16usize..128,
    ) {
        let (k, f) = (4usize, 1usize);
        let mut params = ExperimentParams::new(n, k, f, Config::bdopt_mbd1(n, f));
        params.seed = seed;
        params.crashed = crashed;
        params.payload_size = payload;
        let graph = experiment_graph(n, k, seed.wrapping_add(9_999));
        let plain = run_experiment(&params, &graph);
        let traced = run_experiment_traced(&params, &graph);
        prop_assert_eq!(
            plain.metrics.canonical_text(),
            traced.record.metrics.canonical_text()
        );
        prop_assert!(!traced.events.is_empty());
    }
}
