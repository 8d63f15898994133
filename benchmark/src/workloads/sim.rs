//! The two simulated workloads: the historical flagship (one huge broadcast through the
//! typed engine) and the paper's headline point as many small concurrent broadcasts
//! through the codec path.

use std::sync::Arc;
use std::time::Instant;

use brb_core::bd::BdProcess;
use brb_core::config::Config;
use brb_core::gc::GcPolicy;
use brb_core::protocol::Protocol;
use brb_core::stack::{DynStack, StackSpec};
use brb_core::types::{BroadcastId, Delivery, Payload, ProcessId};
use brb_graph::{Graph, NeighborIndex};
use brb_sim::experiment::experiment_graph;
use brb_sim::invariants::BroadcastRecord;
use brb_sim::{DelayModel, Simulation};
use brb_workload::{predicted_ids, Injection, LoopMode, SourceSelection, WorkloadSpec};

use super::{Rep, RepRequest, Topology};
use crate::check::check_logs;
use crate::gen::payload_for;
use crate::host::process_cpu_s;
use crate::seeds::Seeds;
use crate::stats::median;
use crate::timed::{TimedBd, TimedEngine};
use crate::trace::TraceHub;

/// What the simulator is asked to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimLoad {
    /// One broadcast from process 0 at time 0, run to quiescence with exact memory
    /// peaks (the historical `engine_quiescence_n100_k12` scenario, unchanged).
    SingleBroadcast,
    /// Poisson arrivals from Zipf-distributed sources through
    /// `brb_sim::workload::run_workload`.
    PoissonZipf {
        /// Mean gap between arrivals, in virtual µs.
        mean_interval_micros: u64,
        /// Broadcasts injected.
        broadcasts: u32,
    },
}

/// The counts a workload is known to produce at its historical seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnownCounts {
    /// Events processed = messages sent.
    pub events: usize,
    /// Table 3 bytes.
    pub bytes: usize,
    /// `RunMetrics::peak_state_bytes`.
    pub peak_state_bytes: usize,
}

/// A simulated workload.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    /// Processes.
    pub n: usize,
    /// Degree of the random regular topology.
    pub k: usize,
    /// Byzantine processes tolerated.
    pub f: usize,
    /// The engines' configuration.
    pub config: fn() -> Config,
    /// Payload size.
    pub payload_bytes: usize,
    /// `true`: typed `BdProcess` (no codec). `false`: `DynStack` engines, the codec path
    /// deployments use.
    pub typed: bool,
    /// The injection schedule.
    pub load: SimLoad,
    /// The seeds used when `--seed` is not given.
    pub historical_seeds: Seeds,
    /// Checked when the historical seeds are in use.
    pub known: Option<KnownCounts>,
}

/// `sim_bd_n100_k12_1k`.
pub const FLAGSHIP: SimSpec = SimSpec {
    n: 100,
    k: 12,
    f: 5,
    config: || Config::bandwidth_preset(100, 5),
    payload_bytes: 1024,
    typed: true,
    load: SimLoad::SingleBroadcast,
    historical_seeds: Seeds::historical(424_242, 7),
    known: Some(KnownCounts {
        events: 591_134,
        bytes: 16_172_362,
        peak_state_bytes: 143_982,
    }),
};

/// `sim_bd_n31_k10_16b_x24`.
pub const HEADLINE: SimSpec = SimSpec {
    n: 31,
    k: 10,
    f: 4,
    config: || Config::latency_bandwidth_preset(31, 4).with_gc(GcPolicy::after_events(20_000)),
    payload_bytes: 16,
    typed: false,
    load: SimLoad::PoissonZipf {
        mean_interval_micros: 20_000,
        broadcasts: 24,
    },
    historical_seeds: Seeds::historical(31_010, 7),
    known: None,
};

/// Generates the workload's random regular graph and checks the protocol's
/// precondition. A seed whose graph fails it moves on to the next graph seed, so that no
/// seed makes the workload fail; the cost of the failed attempts stays in the times.
fn topology(spec: &SimSpec, seeds: &Seeds) -> Result<Topology, String> {
    let (mut generate_ms, mut connectivity_check_ms) = (0.0, 0.0);
    for attempt in 0..16u64 {
        let seed = seeds.graph.wrapping_add(attempt);
        let mut topology = Topology::timed(|| experiment_graph(spec.n, spec.k, seed), spec.f);
        topology.generate_ms += generate_ms;
        topology.connectivity_check_ms += connectivity_check_ms;
        if topology.connected {
            return Ok(topology);
        }
        (generate_ms, connectivity_check_ms) =
            (topology.generate_ms, topology.connectivity_check_ms);
    }
    Err(format!(
        "no {}-connected {}-regular graph on {} nodes in 16 attempts from graph seed {}",
        2 * spec.f + 1,
        spec.k,
        spec.n,
        seeds.graph
    ))
}

/// The workload's injections (the flagship's single broadcast included) and the records
/// the correctness gate checks them against.
fn schedule(spec: &SimSpec, seeds: &Seeds) -> (Vec<Injection>, Vec<BroadcastRecord>) {
    let injections = match spec.load {
        SimLoad::SingleBroadcast => {
            let payload = match seeds.given {
                // The historical scenario's payload.
                None => Payload::filled(0xAB, spec.payload_bytes),
                Some(_) => payload_for(seeds.payload, 0, spec.payload_bytes),
            };
            vec![Injection {
                at_micros: 0,
                source: 0,
                payload,
            }]
        }
        SimLoad::PoissonZipf {
            mean_interval_micros,
            broadcasts,
        } => WorkloadSpec::poisson(mean_interval_micros, broadcasts)
            .with_sources(SourceSelection::Zipf { exponent: 1.0 })
            .with_payload_bytes(spec.payload_bytes)
            .schedule(spec.n, seeds.schedule),
    };
    let records = injections
        .iter()
        .zip(predicted_ids(&injections))
        .map(|(injection, id)| {
            BroadcastRecord::new(injection.source, id, injection.payload.clone())
        })
        .collect();
    (injections, records)
}

fn typed_engines(spec: &SimSpec, graph: &Graph) -> Vec<BdProcess> {
    let index = NeighborIndex::new(graph);
    let config = (spec.config)();
    (0..spec.n)
        .map(|i| BdProcess::new(i, config, index.neighbors(i).to_vec()))
        .collect()
}

fn dyn_engines(spec: &SimSpec, graph: &Graph, hub: Option<&Arc<TraceHub>>) -> Vec<DynStack> {
    let config = (spec.config)();
    (0..spec.n)
        .map(|i| {
            let engine = StackSpec::Bd.build(&config, graph, i);
            DynStack::new(match hub {
                Some(hub) => Box::new(TimedEngine::new(engine, Arc::clone(hub), true, false)),
                None => engine,
            })
        })
        .collect()
}

/// Everything a repetition sets up before the first injection can be sent.
struct Prepared {
    topology: Topology,
    injections: Vec<Injection>,
    records: Vec<BroadcastRecord>,
    schedule_ms: f64,
}

fn prepare(spec: &SimSpec, seeds: &Seeds) -> Result<Prepared, String> {
    let topology = topology(spec, seeds)?;
    let started = Instant::now();
    let (injections, records) = schedule(spec, seeds);
    Ok(Prepared {
        topology,
        injections,
        records,
        schedule_ms: started.elapsed().as_secs_f64() * 1e3,
    })
}

/// Runs one repetition: set-up, the schedule to quiescence, the correctness gate.
///
/// # Errors
///
/// Returns the failed precondition, the BRB violation or the count that differs from
/// the known one.
pub fn repetition(spec: &SimSpec, request: &RepRequest<'_>) -> Result<Rep, String> {
    let setup_started = Instant::now();
    let prepared = prepare(spec, request.seeds)?;
    let graph = &prepared.topology.graph;
    let (delay, seed) = (DelayModel::synchronous(), request.seeds.run);
    match (spec.typed, &request.hub) {
        (true, None) => {
            let sim = Simulation::new(typed_engines(spec, graph), delay, seed);
            measure(spec, request, sim, &prepared, setup_started)
        }
        (true, Some(hub)) => {
            let engines = typed_engines(spec, graph)
                .into_iter()
                .map(|engine| TimedBd::new(engine, Arc::clone(hub)))
                .collect();
            measure(
                spec,
                request,
                Simulation::new(engines, delay, seed),
                &prepared,
                setup_started,
            )
        }
        (false, hub) => {
            let sim = Simulation::new(dyn_engines(spec, graph, hub.as_ref()), delay, seed);
            measure(spec, request, sim, &prepared, setup_started)
        }
    }
}

/// Sets the simulation up and drops it: one more `setup_s` sample.
///
/// # Errors
///
/// Returns the failed precondition.
pub fn setup_only(spec: &SimSpec, seeds: &Seeds) -> Result<f64, String> {
    let started = Instant::now();
    let prepared = prepare(spec, seeds)?;
    let graph = &prepared.topology.graph;
    let (delay, seed) = (DelayModel::synchronous(), seeds.run);
    if spec.typed {
        std::hint::black_box(Simulation::new(typed_engines(spec, graph), delay, seed));
    } else {
        std::hint::black_box(Simulation::new(dyn_engines(spec, graph, None), delay, seed));
    }
    Ok(started.elapsed().as_secs_f64())
}

fn measure<P: Protocol>(
    spec: &SimSpec,
    request: &RepRequest<'_>,
    mut sim: Simulation<P>,
    prepared: &Prepared,
    setup_started: Instant,
) -> Result<Rep, String>
where
    P::Message: Eq,
{
    let setup_s = setup_started.elapsed().as_secs_f64();

    let cpu_before = process_cpu_s();
    let started = Instant::now();
    let events = match spec.load {
        SimLoad::SingleBroadcast => {
            let injection = &prepared.injections[0];
            sim.broadcast(injection.source, injection.payload.clone());
            sim.run_to_quiescence()
        }
        SimLoad::PoissonZipf { .. } => {
            brb_sim::run_workload(&mut sim, &prepared.injections, LoopMode::Open)
        }
    };
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu_before;

    // The correctness gate: all four BRB properties over the engines' delivery logs.
    let correct: Vec<ProcessId> = sim.correct_processes();
    {
        let logs: Vec<&[Delivery]> = sim.processes().iter().map(|p| p.deliveries()).collect();
        check_logs(&logs, &correct, &prepared.records).map_err(|v| v.to_string())?;
    }
    // Dropping the engines is what makes the `Timed*` wrappers hand their records over.
    let metrics = sim.into_metrics();
    let ids: Vec<BroadcastId> = prepared.records.iter().map(|r| r.id).collect();
    let virtual_latencies_ms: Vec<f64> = ids
        .iter()
        .filter_map(|&id| metrics.broadcast_latency(id, &correct))
        .map(|latency| latency.as_millis_f64())
        .collect();
    if let (None, Some(known)) = (request.seeds.given, spec.known) {
        let got = (
            metrics.events_processed,
            metrics.messages_sent,
            metrics.bytes_sent,
            metrics.peak_state_bytes,
        );
        let want = (
            known.events,
            known.events,
            known.bytes,
            known.peak_state_bytes,
        );
        if got != want {
            return Err(format!(
                "historical seeds must reproduce (events, messages, bytes, peak_state_bytes) = {want:?}, got {got:?}"
            ));
        }
    }

    let mut rep = Rep {
        setup_s,
        wall_s,
        cpu_s,
        attempted: ids.len() as u64,
        completed: virtual_latencies_ms.len() as u64,
        bytes: metrics.bytes_sent as u64,
        messages: metrics.messages_sent as u64,
        // What a user of the simulator waits for: one repetition's result.
        latency_p50_ms: wall_s * 1e3,
        ..Rep::default()
    };
    let layers = &mut rep.layers;
    prepared.topology.layers(layers);
    layers.insert("workload.schedule_ms", prepared.schedule_ms);
    layers.insert("core.gc.retired", metrics.gc_retired as f64);
    layers.insert(
        "core.gc.retained_state_bytes",
        metrics.retained_bytes as f64,
    );
    layers.insert("sim.events", events as f64);
    layers.insert("sim.events_per_s", events as f64 / wall_s);
    layers.insert("sim.peak_state_bytes", metrics.peak_state_bytes as f64);
    if !virtual_latencies_ms.is_empty() {
        layers.insert("sim.virtual_latency_p50_ms", median(&virtual_latencies_ms));
    }
    if let Some(hub) = &request.hub {
        let mut recorded = hub.take();
        recorded.synthesize_roots();
        let engine = recorded.engine_total();
        let busy_s = engine.busy_wall_ns() as f64 / 1e9;
        let probe_s = engine.probe_ns as f64 / 1e9;
        // One thread, two layers: what is not the engine is the simulator.
        let self_s = (wall_s - busy_s - probe_s).max(0.0);
        super::engine_layers(layers, &engine, None);
        layers.insert("sim.self_s", self_s);
        layers.insert("sim.ns_per_event", self_s * 1e9 / events.max(1) as f64);
        layers.insert(
            "bench.unattributed_share",
            super::unattributed(cpu_s, busy_s + probe_s + self_s),
        );
        layers.insert("bench.spans_recorded", recorded.spans.len() as f64);
        rep.recorded = Some(recorded);
    }
    Ok(rep)
}
