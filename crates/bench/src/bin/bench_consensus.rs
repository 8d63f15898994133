//! Machine-readable consensus-over-BRB benchmark for CI.
//!
//! Emits `BENCH_consensus.json` with one section per proposal scenario (unanimous,
//! split, split + value-flipper) at a fixed seed: the mean wall-clock milliseconds to
//! drive one seeded binary consensus instance to termination on the simulator, the
//! decided round, the number of BRB instances spawned in the consensus namespace per
//! run, and the instance-GC retirement count (the runs install an event-count
//! retention window, so closed-round BRB state is reclaimed mid-consensus).
//!
//! The termination/agreement/GC invariants are asserted here (exit code 1 on
//! regression), so the smoke script only has to check the file exists and carries the
//! expected fields. The JSON is a [`brb_trace::JsonValue`], the workspace's one JSON
//! type, written by [`brb_bench::write_json`].
//!
//! Usage: `cargo run --release -p brb-bench --bin bench_consensus [-- --out PATH]`

use std::time::Instant;

use brb_bench::{host, object, rounded, write_json};
use brb_consensus::{ConsensusSpec, ProposalPattern};
use brb_core::config::Config;
use brb_core::gc::GcPolicy;
use brb_core::stack::StackSpec;
use brb_sim::experiment::{experiment_graph, run_experiment, ExperimentParams};
use brb_trace::JsonValue;

/// Iterations per scenario averaged into `mean_ms`.
const ITERS: u32 = 3;
/// System size of the benchmark point.
const N: usize = 14;
/// Connectivity of the benchmark topology.
const K: usize = 5;
/// Fault budget.
const F: usize = 2;
/// Event-count retention window installed on every run.
const GC_WINDOW: u64 = 64;

struct ScenarioResult {
    name: &'static str,
    mean_ms: f64,
    decision_value: u8,
    decision_round: u32,
    rounds_driven: u32,
    instances: usize,
    gc_retired: u64,
}

/// Runs one scenario `ITERS` times at the fixed seed and averages the wall clock.
fn run_scenario(name: &'static str, spec: ConsensusSpec) -> ScenarioResult {
    let config = Config::bdopt_mbd1(N, F).with_gc(GcPolicy::after_events(GC_WINDOW));
    let params = ExperimentParams::new(N, K, F, config)
        .with_stack(StackSpec::Bd)
        .with_consensus(spec);
    let graph = experiment_graph(N, K, params.seed);
    let mut total_ms = 0.0;
    let mut last = None;
    for _ in 0..ITERS {
        let start = Instant::now();
        let record = run_experiment(&params, &graph);
        total_ms += start.elapsed().as_secs_f64() * 1_000.0;
        last = Some(record);
    }
    let record = last.expect("ITERS > 0");
    let stats = record.result.consensus.expect("consensus stats");
    assert!(
        stats.all_decided(),
        "{name}: every honest process must decide ({}/{})",
        stats.decided,
        stats.honest
    );
    ScenarioResult {
        name,
        mean_ms: total_ms / f64::from(ITERS),
        decision_value: stats.decision_value.expect("decided"),
        decision_round: stats.decision_round.expect("decided"),
        rounds_driven: stats.rounds_driven,
        instances: stats.instances,
        gc_retired: record.result.gc_retired,
    }
}

fn main() {
    let results = [
        run_scenario(
            "unanimous1",
            ConsensusSpec::default().with_proposals(ProposalPattern::Unanimous(1)),
        ),
        run_scenario(
            "split",
            ConsensusSpec::default().with_proposals(ProposalPattern::Split),
        ),
        run_scenario(
            "split_flip",
            ConsensusSpec::default()
                .with_proposals(ProposalPattern::Split)
                .with_flippers(vec![N - 2]),
        ),
    ];

    let count = |n: u64| JsonValue::Number(n as f64);
    let scenarios = results.iter().map(|r| {
        let scenario = object([
            ("mean_ms", rounded(r.mean_ms, 3)),
            ("decision_value", count(r.decision_value.into())),
            ("decision_round", count(r.decision_round.into())),
            ("rounds_driven", count(r.rounds_driven.into())),
            ("instances", count(r.instances as u64)),
            ("gc_retired", count(r.gc_retired)),
        ]);
        (r.name.to_string(), scenario)
    });
    let doc = object([
        (
            "bench",
            JsonValue::String(format!("consensus_over_brb_n{N}_k{K}")),
        ),
        ("host", host()),
        ("iters", count(ITERS.into())),
        ("window_events", count(GC_WINDOW)),
        ("scenarios", JsonValue::Object(scenarios.collect())),
    ]);
    let args: Vec<String> = std::env::args().skip(1).collect();
    write_json(&args, "BENCH_consensus.json", &doc);

    // The invariants CI relies on: unanimous proposals decide their value in round 0
    // (pinned coin), every scenario spawns BRB instances, and the retention window
    // actually retires closed-round state mid-consensus.
    let unanimous = &results[0];
    assert_eq!(unanimous.decision_value, 1, "validity on unanimous input");
    assert_eq!(unanimous.decision_round, 0, "pinned coin decides round 0");
    for r in &results {
        assert!(r.instances > 0, "{}: no BRB instances spawned", r.name);
        assert!(
            r.gc_retired > 0,
            "{}: the retention window must retire instances",
            r.name
        );
        assert!(r.mean_ms > 0.0, "{}: zero wall clock", r.name);
    }
    println!(
        "# OK: {} scenarios decided; unanimous in round {} with {} instances",
        results.len(),
        unanimous.decision_round,
        unanimous.instances
    );
}
