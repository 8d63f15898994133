//! Machine-readable quiescence + bounded-memory benchmark for CI.
//!
//! Emits `BENCH_quiescence.json` with the host it ran on (`nproc`, CPU model) and two
//! sections:
//!
//! * `quiescence` — the mean wall-clock time of the same scenario the criterion bench
//!   `engine_quiescence_n100_k12` measures (one broadcast on an N=100, k=12 random
//!   regular graph, run to quiescence), so CI can track the engine + event-loop hot
//!   path as a single number;
//! * `memory_curve` — the first/last summed `state_bytes` across a long sequence of
//!   broadcasts with instance GC off and on. The GC-off endpoints grow linearly with
//!   the broadcast count; the GC-on endpoints must stay flat.
//!
//! The flatness invariant is asserted here (exit code 1 on regression), so the smoke
//! script only has to check the file exists and carries the expected fields. The JSON
//! is emitted through [`brb_bench::json`]: the workspace deliberately has no JSON
//! dependency.
//!
//! Usage: `cargo run --release -p brb-bench --bin bench_quiescence [-- --out PATH]`

use std::time::Instant;

use brb_bench::json::{host, out_path_from_args, write_and_echo, JsonObject};

use brb_core::config::Config;
use brb_core::gc::GcPolicy;
use brb_core::stack::{DynStack, StackSpec};
use brb_core::types::Payload;
use brb_core::{BdProcess, Protocol};
use brb_graph::NeighborIndex;
use brb_sim::experiment::experiment_graph;
use brb_sim::{DelayModel, Simulation};

/// Iterations of the quiescence scenario averaged into `mean_ms` (each runs ~seconds).
const QUIESCENCE_ITERS: u32 = 3;
/// Sequential broadcasts traced for the memory curve.
const CURVE_BROADCASTS: usize = 40;
/// Event-count retention window for the GC-on curve.
const CURVE_WINDOW: u64 = 200;

/// Times the `engine_quiescence_n100_k12` scenario: mean milliseconds to quiesce one
/// 1 KiB broadcast on the N=100, k=12, f=5 bandwidth-preset system.
fn quiescence_mean_ms() -> (f64, usize) {
    let (n, k, f) = (100usize, 12usize, 5usize);
    let graph = experiment_graph(n, k, 424_242);
    let index = NeighborIndex::new(&graph);
    let config = Config::bandwidth_preset(n, f);
    let mut total_ms = 0.0;
    let mut events = 0;
    for _ in 0..QUIESCENCE_ITERS {
        let processes: Vec<BdProcess> = (0..n)
            .map(|i| BdProcess::new(i, config, index.neighbors(i).to_vec()))
            .collect();
        let mut sim = Simulation::new(processes, DelayModel::synchronous(), 7);
        sim.broadcast(0, Payload::filled(0xAB, 1024));
        let start = Instant::now();
        events = sim.run_to_quiescence();
        total_ms += start.elapsed().as_secs_f64() * 1_000.0;
    }
    (total_ms / f64::from(QUIESCENCE_ITERS), events)
}

/// Runs `CURVE_BROADCASTS` sequential broadcasts on an N=20 system and returns the
/// summed `state_bytes` after the first and after the last, plus total retirements.
fn memory_curve(gc: Option<GcPolicy>) -> (usize, usize, u64) {
    let (n, k, f) = (20usize, 6usize, 1usize);
    let graph = experiment_graph(n, k, 777);
    let mut config = Config::bdopt_mbd1(n, f);
    if let Some(policy) = gc {
        config = config.with_gc(policy);
    }
    let processes: Vec<DynStack> = (0..n)
        .map(|i| StackSpec::Bd.build_protocol(&config, &graph, i))
        .collect();
    let mut sim = Simulation::new(processes, DelayModel::synchronous(), 7);
    let (mut first, mut last) = (0usize, 0usize);
    for round in 0..CURVE_BROADCASTS {
        sim.broadcast(round % n, Payload::filled(round as u8, 64));
        sim.run_to_quiescence();
        let bytes: usize = sim.processes().iter().map(|p| p.state_bytes()).sum();
        if round == 0 {
            first = bytes;
        }
        last = bytes;
    }
    let retired: u64 = sim.processes().iter().map(|p| p.gc_retired()).sum();
    (first, last, retired)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = out_path_from_args(&args, "BENCH_quiescence.json");

    let (mean_ms, events) = quiescence_mean_ms();
    let (off_first, off_last, off_retired) = memory_curve(None);
    let (on_first, on_last, on_retired) = memory_curve(Some(GcPolicy::after_events(CURVE_WINDOW)));

    let endpoints = |first: usize, last: usize, retired: u64| {
        let mut obj = JsonObject::new();
        obj.u64("first_bytes", first as u64)
            .u64("last_bytes", last as u64)
            .u64("gc_retired", retired);
        obj
    };
    let mut quiescence = JsonObject::new();
    quiescence
        .f64("mean_ms", mean_ms, 3)
        .u64("iters", u64::from(QUIESCENCE_ITERS))
        .u64("events", events as u64);
    let mut curve = JsonObject::new();
    curve
        .u64("broadcasts", CURVE_BROADCASTS as u64)
        .u64("window_events", CURVE_WINDOW)
        .obj("gc_off", endpoints(off_first, off_last, off_retired))
        .obj("gc_on", endpoints(on_first, on_last, on_retired));
    let mut doc = JsonObject::new();
    doc.str("bench", "engine_quiescence_n100_k12")
        .obj("host", host())
        .obj("quiescence", quiescence)
        .obj("memory_curve", curve);
    write_and_echo(&out_path, &doc.render());

    // The boundedness invariant CI relies on: GC off grows with the broadcast count,
    // GC on stays flat (the last endpoint may not exceed the first by more than the
    // in-flight window's worth of instances — in practice it equals it).
    assert_eq!(
        off_retired, 0,
        "GC must stay disabled on the baseline curve"
    );
    assert!(
        off_last > 4 * off_first,
        "baseline must grow linearly: first={off_first} last={off_last}"
    );
    assert!(on_retired > 0, "GC-on curve must retire instances");
    assert!(
        on_last <= 2 * on_first,
        "GC-on curve must stay flat: first={on_first} last={on_last}"
    );
    assert!(
        on_last < off_last / 2,
        "GC-on endpoint must undercut the baseline: {on_last} vs {off_last}"
    );
    println!("# OK: GC-off endpoint grew {off_first} -> {off_last} bytes; GC-on stayed {on_first} -> {on_last}");
}
