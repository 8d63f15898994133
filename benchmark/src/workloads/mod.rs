//! The five workloads, and what one repetition of any of them reports.
//!
//! Each workload stresses different layers (see the README's table): for an
//! optimisation of one layer there is a workload that exercises it and one that
//! bypasses it, where the prediction is no change.

pub mod live;
pub mod sim;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use brb_graph::connectivity::is_k_connected;
use brb_graph::Graph;

use crate::seeds::Seeds;
use crate::trace::{Recorded, TraceHub};

/// A topology, what producing it cost, and whether it meets the protocols'
/// precondition: `2f+1`-connectivity.
struct Topology {
    graph: Graph,
    generate_ms: f64,
    connectivity_check_ms: f64,
    connected: bool,
}

impl Topology {
    /// Times `generate` and the `2f+1`-connectivity check of what it returns.
    fn timed(generate: impl FnOnce() -> Graph, f: usize) -> Self {
        let started = Instant::now();
        let graph = generate();
        let generate_ms = started.elapsed().as_secs_f64() * 1e3;
        let started = Instant::now();
        let connected = is_k_connected(&graph, 2 * f + 1);
        Self {
            graph,
            generate_ms,
            connectivity_check_ms: started.elapsed().as_secs_f64() * 1e3,
            connected,
        }
    }

    /// The `graph.*` readings.
    fn layers(&self, layers: &mut BTreeMap<&'static str, f64>) {
        layers.insert("graph.generate_ms", self.generate_ms);
        layers.insert("graph.connectivity_check_ms", self.connectivity_check_ms);
    }
}

/// What one repetition (fresh set-up, one measured phase, tear-down, correctness gate)
/// observed.
#[derive(Default)]
pub struct Rep {
    /// Set-up time: topology + precondition check + engines + links/sockets + spawn.
    pub setup_s: f64,
    /// Wall time of the measured phase.
    pub wall_s: f64,
    /// Process user+sys CPU over the measured phase.
    pub cpu_s: f64,
    /// Broadcasts injected.
    pub attempted: u64,
    /// Broadcasts delivered by every correct process.
    pub completed: u64,
    /// Table 3 bytes put on the links.
    pub bytes: u64,
    /// Frames put on the links.
    pub messages: u64,
    /// The repetition's `latency_p50_ms`.
    pub latency_p50_ms: f64,
    /// Per-layer readings, by metric name (complete on traced repetitions only).
    pub layers: BTreeMap<&'static str, f64>,
    /// What the `Timed*` wrappers recorded (traced repetitions only).
    pub recorded: Option<Recorded>,
}

/// What a repetition is asked to do.
pub struct RepRequest<'a> {
    /// The run's seeds.
    pub seeds: &'a Seeds,
    /// Length of the measured phase of a live workload (simulated workloads run their
    /// schedule to quiescence, however long that takes).
    pub phase: Duration,
    /// `Some` on a traced repetition: where the wrappers record.
    pub hub: Option<Arc<TraceHub>>,
}

/// Which kind of system a workload drives.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// The discrete-event simulator.
    Sim(sim::SimSpec),
    /// A thread-per-process deployment under the benchmark's load generator.
    Live(live::LiveSpec),
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Why the workload is in the benchmark, in one line.
    pub why: &'static str,
    /// What runs.
    pub kind: Kind,
}

impl Workload {
    /// The seeds of a run: derived from `--seed`, or the workload's historical ones.
    pub fn seeds(&self, seed: Option<u64>) -> Seeds {
        match (seed, self.kind) {
            (Some(seed), _) => Seeds::derive(seed),
            (None, Kind::Sim(spec)) => spec.historical_seeds,
            (None, Kind::Live(_)) => Seeds::derive(1),
        }
    }

    /// Measured repetitions of a run of `seconds`: live workloads split it into three
    /// phases on fresh deployments; simulated ones repeat their schedule until the
    /// time is used up.
    pub fn phase(&self, seconds: f64) -> Duration {
        match self.kind {
            Kind::Sim(_) => Duration::ZERO,
            Kind::Live(_) => Duration::from_secs_f64(seconds / live::REPETITIONS as f64),
        }
    }

    /// Runs one repetition.
    ///
    /// # Errors
    ///
    /// Returns a description of the failed precondition, BRB violation or I/O error.
    pub fn repetition(&self, request: &RepRequest<'_>) -> Result<Rep, String> {
        match &self.kind {
            Kind::Sim(spec) => sim::repetition(spec, request),
            Kind::Live(spec) => live::repetition(spec, request),
        }
    }

    /// Sets the workload's system up and tears it down again without load, returning the
    /// set-up time: extra `setup_s` samples.
    ///
    /// # Errors
    ///
    /// Returns a description of the failed precondition or I/O error.
    pub fn setup_only(&self, seeds: &Seeds) -> Result<f64, String> {
        match &self.kind {
            Kind::Sim(spec) => sim::setup_only(spec, seeds),
            Kind::Live(spec) => live::setup_only(spec, seeds),
        }
    }
}

/// The benchmark's workloads, in the order they run.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "sim_bd_n100_k12_1k",
        why: "one huge instance (N=100, k=12, f=5, 1 KiB, typed BdProcess in the simulator): engine + disjoint-path work and the sim event loop do everything; codec, transport and net do nothing",
        kind: Kind::Sim(sim::FLAGSHIP),
    },
    Workload {
        name: "sim_bd_n31_k10_16b_x24",
        why: "the paper's headline point (N=31, f=4, 16 B) as 24 concurrent Poisson/Zipf broadcasts through DynStack with GC on: per-instance lookup, gc, codec and sim injection matter, path-set size does not",
        kind: Kind::Sim(sim::HEADLINE),
    },
    Workload {
        name: "chan_bracha_n10_64b_closed8",
        why: "plain Bracha on a complete graph over channels, closed loop of 8: engine work is a set insert, so driver + channel transport dominate",
        kind: Kind::Live(live::CHAN_BRACHA),
    },
    Workload {
        name: "tcp_bd_fig1_64b_closed8",
        why: "Bracha-Dolev on the Fig. 1 topology over loopback TCP, closed loop of 8: syscalls and reader threads dominate; the only workload that exercises net",
        kind: Kind::Live(live::TCP_BD),
    },
    Workload {
        name: "chan_bd_fig1_1k_open250",
        why: "same stack over channels, open loop at 250/s with 1 KiB payloads, below saturation: latency is the blocking path only (engine + codec with a real payload + driver hand-offs)",
        kind: Kind::Live(live::CHAN_BD_OPEN),
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Fills in the `core.engine.*` readings from the wrappers' counters. `cpu` is how the
/// engines' CPU time is known: `None` inside the simulator, where wall time inside a call
/// is its CPU time; `Some(clock_cost_ns)` where the thread CPU clock was sampled (see
/// `crate::trace::solve_cpu_split`).
fn engine_layers(
    layers: &mut BTreeMap<&'static str, f64>,
    engine: &crate::trace::EngineStats,
    cpu: Option<f64>,
) {
    let calls = engine.handle.calls.max(1) as f64;
    let (cpu_ns, ns_per_call, broadcast_ns) = match cpu {
        Some(cost) => (
            engine.cpu_total_ns(cost),
            engine.handle.cpu_mean_ns(cost),
            engine.broadcast.cpu_mean_ns(cost),
        ),
        None => (
            engine.busy_wall_ns() as f64,
            engine.handle.wall_ns as f64 / calls,
            engine.broadcast.wall_ns as f64 / engine.broadcast.calls.max(1) as f64,
        ),
    };
    layers.insert("core.engine.calls", engine.handle.calls as f64);
    layers.insert("core.engine.busy_s", engine.busy_wall_ns() as f64 / 1e9);
    layers.insert("core.engine.cpu_s", cpu_ns / 1e9);
    layers.insert("core.engine.ns_per_call", ns_per_call);
    layers.insert(
        "core.engine.actions_per_call",
        engine.actions as f64 / calls,
    );
    layers.insert(
        "core.engine.useful_ratio",
        engine.useful_calls as f64 / calls,
    );
    layers.insert("core.engine.broadcast_ns", broadcast_ns);
    layers.insert("core.engine.probe_s", engine.probe_ns as f64 / 1e9);
    layers.insert(
        "core.engine.stored_paths_peak",
        engine.stored_paths_peak as f64,
    );
    layers.insert("core.engine.state_bytes_end", engine.state_bytes_end as f64);
}

/// Share of the process's CPU that no named layer accounts for.
fn unattributed(process_cpu_s: f64, attributed_s: f64) -> f64 {
    if process_cpu_s <= 0.0 {
        return 0.0;
    }
    (1.0 - attributed_s / process_cpu_s).clamp(0.0, 1.0)
}
