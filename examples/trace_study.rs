//! Cross-backend structured-tracing study: one seeded adversarial scenario, three
//! backends, identical causal event sequences.
//!
//! The `brb-trace` layer stamps every protocol phase transition with
//! `(backend, node, BroadcastId, seq, time)`. Timestamps differ across backends by
//! construction — the simulator runs on a virtual clock, the live backends on wall
//! clock — but the *order-normalized causal sequence* (injection, ready-quorum
//! crossings, deliveries, sorted by instance and node) is a pure function of the
//! protocol, so it must be byte-identical on the simulator, the channel runtime and
//! the TCP deployment. This example runs the same Bracha–Dolev broadcast under two
//! deterministic adversaries (a targeted-silence node and a replayer) on all three
//! backends and asserts exactly that, then writes the simulator's full event stream
//! as JSONL and as Chrome trace-event JSON (load the latter in Perfetto:
//! one track per node, one span per broadcast instance).
//!
//! Usage: `cargo run --release --example trace_study [out-dir]` (default `target`).

use std::sync::Arc;
use std::time::Duration;

use brb_core::config::Config;
use brb_core::stack::StackSpec;
use brb_core::types::{Payload, ProcessId};
use brb_net::{Wiring, BACKENDS};
use brb_runtime::Deployment;
use brb_sim::experiment::{experiment_graph, ExperimentParams};
use brb_sim::{run_experiment_traced, Behavior, DelayModel};
use brb_trace::{
    causal_sequence, chrome_trace_json, latency_breakdown, render_causal_sequence, to_jsonl,
    validate_chrome_trace, validate_jsonl, Backend, NodeId, TraceEvent, VecSink,
};
use brb_transport::{DriverOptions, TraceConfig};

/// System size of the study.
const N: usize = 8;
/// Connectivity of the generated random regular topology.
const K: usize = 4;
/// Fault budget.
const F: usize = 1;
/// Topology seed shared by all three backends.
const GRAPH_SEED: u64 = 4_242;
/// Payload of the single broadcast.
const PAYLOAD: usize = 64;

/// The deterministic adversaries: process 3 suppresses every frame towards 1 and 5,
/// process 5 replays every frame it forwards. Neither changes *which* causal events
/// occur — BRB still delivers everywhere — only how much redundant traffic flows.
fn behaviors() -> Vec<(ProcessId, Behavior)> {
    vec![
        (3, Behavior::SilentTowards(vec![1, 5])),
        (5, Behavior::Replayer),
    ]
}

type CausalSeq = Vec<(NodeId, u32, &'static str, NodeId)>;

fn sim_events() -> Vec<TraceEvent> {
    let graph = experiment_graph(N, K, GRAPH_SEED);
    let mut params = ExperimentParams::new(N, K, F, Config::bdopt_mbd1(N, F))
        .with_stack(StackSpec::Bd)
        .with_behaviors(behaviors());
    params.payload_size = PAYLOAD;
    params.delay = DelayModel::synchronous();
    params.seed = 7;
    let traced = run_experiment_traced(&params, &graph);
    assert!(
        traced.record.result.complete(),
        "the simulated broadcast must complete"
    );
    traced.events
}

/// The same scenario on a live backend, its trace events tagged with `backend`.
fn live_events(wire: Wiring, backend: Backend) -> Vec<TraceEvent> {
    let graph = experiment_graph(N, K, GRAPH_SEED);
    let sink = Arc::new(VecSink::new());
    let options = DriverOptions::default()
        .with_behaviors(behaviors())
        .with_trace(TraceConfig::new(backend, sink.clone()));
    let links = wire(&graph, &[]).expect("links wire on loopback");
    let deployment = Deployment::start_on(
        links,
        &graph,
        Config::bdopt_mbd1(N, F),
        StackSpec::Bd,
        options,
    );
    deployment.broadcast(0, Payload::filled(0xAB, PAYLOAD));
    deployment.await_deliveries(N, Duration::from_secs(30));
    deployment.shutdown();
    sink.take()
}

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target".to_string());
    std::fs::create_dir_all(&out_dir).expect("output directory");

    println!("# trace_study — N={N}, k={K}, f={F}, stack=bd, adversaries=silent+replayer");

    let sim = sim_events();
    let sim_seq: CausalSeq = causal_sequence(&sim);
    assert!(!sim_seq.is_empty(), "the causal sequence must be non-empty");
    println!("events: sim={}", sim.len());
    for ((name, wire), backend) in BACKENDS.into_iter().zip([Backend::Runtime, Backend::Tcp]) {
        let events = live_events(wire, backend);
        println!("events: {name}={}", events.len());
        let seq: CausalSeq = causal_sequence(&events);
        assert_eq!(
            sim_seq, seq,
            "sim and {name} causal sequences must be identical"
        );
    }
    println!(
        "OK: identical order-normalized causal sequence on all three backends \
         ({} causal events):",
        sim_seq.len()
    );
    print!("{}", render_causal_sequence(&sim_seq));

    // The causal latency decomposition of the simulated run (virtual microseconds).
    for b in latency_breakdown(&sim) {
        println!(
            "breakdown: bc({}, {}): injection={}us first_hop={:?}us threshold={:?}us \
             delivery={:?}us deliveries={}",
            b.source,
            b.seq,
            b.injection_us,
            b.first_hop_us,
            b.threshold_us,
            b.delivery_us,
            b.deliveries
        );
    }

    // Exporters: JSONL (one event per line) and Chrome trace-event JSON. Open the
    // latter at https://ui.perfetto.dev — one track per node, spans per instance.
    let jsonl = to_jsonl(&sim);
    let events = validate_jsonl(&jsonl).expect("emitted JSONL validates against the schema");
    let chrome = chrome_trace_json(&sim);
    let entries = validate_chrome_trace(&chrome).expect("emitted Chrome trace JSON is well-formed");
    let jsonl_path = format!("{out_dir}/trace_study.jsonl");
    let chrome_path = format!("{out_dir}/trace_study_chrome.json");
    std::fs::write(&jsonl_path, &jsonl).expect("JSONL path writable");
    std::fs::write(&chrome_path, &chrome).expect("Chrome trace path writable");
    println!("OK: {events} JSONL events -> {jsonl_path}");
    println!("OK: {entries} Chrome trace entries -> {chrome_path}");
}
