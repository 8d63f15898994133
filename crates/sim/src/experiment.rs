//! High-level experiment runner used by the benchmark harnesses.
//!
//! One *experiment* reproduces one data point of the paper's evaluation: a protocol
//! stack ([`StackSpec`]), a `(N, k, f)` random regular topology, a protocol
//! configuration (a set of MD/MBD modifications), a payload size, a delay model and a
//! number of Byzantine (crashed) processes. The runner generates the topology, builds
//! one protocol instance per node, lets one source broadcast once, runs the
//! discrete-event simulation to quiescence and reports the metrics the paper plots:
//! latency, network consumption, message count and memory proxies.
//!
//! The default stack is the paper's Bracha–Dolev combination ([`BdProcess`]), which runs
//! on the typed fast path; every other [`StackSpec`] runs through the
//! [`brb_core::stack::DynStack`] adapter, which moves encoded wire frames through the
//! simulator — the exact bytes the socket deployments put on their links.

use brb_core::bd::BdProcess;
use brb_core::config::Config;
use brb_core::protocol::Protocol;
use brb_core::stack::StackSpec;
use brb_core::types::{BroadcastId, Payload, ProcessId};
use brb_graph::{generate, Graph, NeighborIndex};
use brb_workload::{WorkloadSpec, WorkloadStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::behavior::Behavior;
use crate::churn::ChurnSpec;
use crate::delay::DelayModel;
use crate::metrics::RunMetrics;
use crate::sim::Simulation;
use crate::workload::{run_workload, workload_stats};

/// Parameters of one experiment (one data point of a figure or table).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentParams {
    /// Number of processes `N`.
    pub n: usize,
    /// Target vertex connectivity `k` of the random regular topology (also its degree).
    pub connectivity: usize,
    /// Fault threshold `f` the protocol is configured for.
    pub f: usize,
    /// Number of processes that actually crash during the run (at most `f`).
    pub crashed: usize,
    /// Payload size in bytes (the paper uses 16 B and 1024 B).
    pub payload_size: usize,
    /// Protocol configuration (which MD/MBD modifications are enabled).
    pub config: Config,
    /// Protocol stack the experiment runs ([`StackSpec::Bd`] reproduces the paper).
    pub stack: StackSpec,
    /// Link delay model.
    pub delay: DelayModel,
    /// Random seed (topology generation, delays, behaviours and the workload schedule).
    pub seed: u64,
    /// Multi-broadcast traffic to inject instead of the paper's single broadcast.
    /// `None` reproduces the paper: process 0 broadcasts once at time 0. `Some(spec)`
    /// expands the spec into a seeded schedule and drives it through the simulation
    /// (open or closed loop), filling [`ExperimentResult::workload`].
    pub workload: Option<WorkloadSpec>,
    /// Byzantine behaviour assignments, `(process, behavior)`, applied on top of the
    /// `crashed` count (and overriding it where they collide). The empty default
    /// reproduces the paper's all-correct-but-crashed runs; the live deployments accept
    /// the same assignments through `brb_transport::DriverOptions::behaviors`, so one
    /// scenario description drives every backend.
    pub behaviors: Vec<(ProcessId, Behavior)>,
    /// Churn schedule (link flaps, partitions, node restarts, per-link overrides)
    /// applied during the run. `None` — the default — reproduces the static networks of
    /// the paper; `Some(spec)` compiles the spec with the run seed and interleaves the
    /// events into the simulation ([`crate::Simulation::set_churn`]). The live
    /// deployments replay the same compiled schedule through
    /// `brb_transport::ChurnHandle`, so one scenario description drives every backend.
    pub churn: Option<ChurnSpec>,
    /// Binary consensus instance to run **instead of** broadcast traffic: the engines
    /// are wrapped in [`brb_consensus::ConsensusEngine`] and the run phase-steps
    /// proposals to decisions (see [`run_experiment`]).
    /// `None` — the default — keeps the broadcast experiments exactly as before.
    pub consensus: Option<brb_consensus::ConsensusSpec>,
}

impl ExperimentParams {
    /// A convenient starting point matching the paper's default synchronous setting
    /// (Bracha–Dolev stack, 1024 B payload, 50 ms constant delays, no crash, seed 1).
    pub fn new(n: usize, connectivity: usize, f: usize, config: Config) -> Self {
        Self {
            n,
            connectivity,
            f,
            crashed: 0,
            payload_size: 1024,
            config,
            stack: StackSpec::Bd,
            delay: DelayModel::synchronous(),
            seed: 1,
            workload: None,
            behaviors: Vec::new(),
            churn: None,
            consensus: None,
        }
    }

    /// Returns a copy of the parameters with the protocol stack replaced.
    pub fn with_stack(mut self, stack: StackSpec) -> Self {
        self.stack = stack;
        self
    }

    /// Returns a copy of the parameters with a multi-broadcast workload installed.
    pub fn with_workload(mut self, workload: WorkloadSpec) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Returns a copy of the parameters with the given Byzantine behaviour assignments.
    pub fn with_behaviors(mut self, behaviors: Vec<(ProcessId, Behavior)>) -> Self {
        self.behaviors = behaviors;
        self
    }

    /// Returns a copy of the parameters with a churn schedule installed.
    pub fn with_churn(mut self, churn: ChurnSpec) -> Self {
        self.churn = Some(churn);
        self
    }

    /// Returns a copy of the parameters with a consensus instance installed.
    pub fn with_consensus(mut self, consensus: brb_consensus::ConsensusSpec) -> Self {
        self.consensus = Some(consensus);
        self
    }
}

/// Result of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Time in milliseconds from the first injection until **all correct processes
    /// delivered every injected broadcast** (for the paper's single-broadcast runs this
    /// is the broadcast latency), or `None` if some correct process missed some
    /// broadcast.
    pub latency_ms: Option<f64>,
    /// Total network consumption in bytes.
    pub bytes: usize,
    /// Total number of messages transmitted.
    pub messages: usize,
    /// Number of correct processes that delivered.
    pub delivered: usize,
    /// Number of correct processes.
    pub correct: usize,
    /// Peak protocol-state size (bytes) over all processes (Sec. 7.3 memory proxy).
    pub peak_state_bytes: usize,
    /// Peak number of stored transmission paths over all processes.
    pub peak_stored_paths: usize,
    /// Multi-broadcast measurements (throughput, latency percentiles) when the
    /// experiment ran a [`WorkloadSpec`]; `None` for the paper's single-broadcast runs.
    pub workload: Option<WorkloadStats>,
    /// Broadcast instances retired through watermark GC across all processes (0 when
    /// [`Config::gc`](brb_core::config::Config) is disabled).
    pub gc_retired: u64,
    /// Protocol-state bytes still held across all processes at the end of the run.
    pub retained_bytes: usize,
    /// Consensus outcome (decision value/round, rounds driven, instances spawned)
    /// when the experiment ran a [`brb_consensus::ConsensusSpec`]; `None` for
    /// broadcast experiments.
    pub consensus: Option<crate::consensus::ConsensusStats>,
}

impl ExperimentResult {
    /// Network consumption in kilobytes, the unit used by Figs. 4b/5b.
    pub fn kilobytes(&self) -> f64 {
        self.bytes as f64 / 1_000.0
    }

    /// Whether every correct process delivered the broadcast.
    pub fn complete(&self) -> bool {
        self.delivered == self.correct
    }
}

/// Generates the topology for an experiment: a random `k`-regular graph over `n` nodes.
///
/// Connectivity is not re-verified for every seed (random regular graphs are almost
/// surely `k`-connected); harnesses that need a certificate use
/// [`brb_graph::generate::random_regular_connected`] directly.
pub fn experiment_graph(n: usize, connectivity: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    generate::random_regular_graph(n, connectivity, &mut rng)
        .expect("the (n, k) combinations used in experiments admit regular graphs")
}

/// An [`ExperimentResult`] together with the full [`RunMetrics`] of the underlying
/// simulation run, as returned by [`run_experiment`].
///
/// The determinism harness compares the canonical rendering of `metrics` against golden
/// snapshots, which would be impossible from the aggregated [`ExperimentResult`] alone.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// The aggregated per-run result (what the figures and tables consume).
    pub result: ExperimentResult,
    /// The raw simulator metrics of the run.
    pub metrics: RunMetrics,
}

/// Runs one experiment on a caller-provided topology and returns both the aggregated
/// result and the full run metrics. Several configurations compared on the *same* graph
/// (Table 1, Figs. 4–10) share one [`experiment_graph`].
///
/// The source is process 0; the `crashed` Byzantine processes are chosen among the highest
/// identifiers so that the source itself stays correct. A run with
/// [`ExperimentParams::consensus`] set phase-steps one consensus instance instead.
pub fn run_experiment(params: &ExperimentParams, graph: &Graph) -> ExperimentRecord {
    run_experiment_sink(params, graph, None).record
}

/// An [`ExperimentRecord`] together with the structured trace and the per-process drop
/// accounting captured during the run, as returned by [`run_experiment_traced`].
#[derive(Debug, Clone)]
pub struct TracedRecord {
    /// The record an untraced run would have produced ([`RunMetrics`] included —
    /// attaching the sink never changes them; `tests/trace_observer.rs` pins this).
    pub record: ExperimentRecord,
    /// Every [`brb_trace::TraceEvent`] the run emitted, in emission order.
    pub events: Vec<brb_trace::TraceEvent>,
    /// Send-time drop accounting per process (churn gating, link loss, behaviour).
    pub drop_counts: Vec<brb_trace::DropCounts>,
}

/// [`run_experiment`] with a [`brb_trace::VecSink`] attached: same metrics,
/// plus the full event trace and the per-process drop counters.
pub fn run_experiment_traced(params: &ExperimentParams, graph: &Graph) -> TracedRecord {
    let sink = std::sync::Arc::new(brb_trace::VecSink::new());
    let mut traced = run_experiment_sink(params, graph, Some(sink.clone()));
    traced.events = sink.take();
    traced
}

/// Shared body of [`run_experiment`] / [`run_experiment_traced`]: runs the
/// experiment with an optional trace sink attached to the simulation.
fn run_experiment_sink(
    params: &ExperimentParams,
    graph: &Graph,
    sink: Option<std::sync::Arc<dyn brb_trace::TraceSink>>,
) -> TracedRecord {
    assert_eq!(graph.node_count(), params.n, "graph size must match N");
    assert!(
        params.crashed <= params.f,
        "cannot crash more than f processes"
    );
    // A consensus experiment replaces the broadcast traffic entirely and always runs
    // through the DynStack wire-frame path (consensus needs the seq-aware DynEngine
    // interface between itself and the stack below), whatever the stack.
    if params.consensus.is_some() {
        return crate::consensus::run_consensus_sink(params, graph, sink);
    }
    match params.stack {
        // The paper's stack keeps its typed fast path: no frame encoding, no boxing.
        StackSpec::Bd => {
            // Flatten the adjacency once per run; every process then copies its own
            // (sorted) neighbor slice instead of walking the graph's per-node tree sets.
            let index = NeighborIndex::new(graph);
            let processes: Vec<BdProcess> = (0..params.n)
                .map(|i| BdProcess::new(i, params.config, index.neighbors(i).to_vec()))
                .collect();
            let config = params.config;
            let restart_index = NeighborIndex::new(graph);
            record_run(
                params,
                graph,
                processes,
                move |i| BdProcess::new(i, config, restart_index.neighbors(i).to_vec()),
                sink,
            )
        }
        // Every other stack goes through the boxed engine + wire codec, the same code
        // path the socket deployments drive. Topology-aware stacks share one graph copy.
        stack => {
            let shared = std::sync::Arc::new(graph.clone());
            let processes: Vec<_> = (0..params.n)
                .map(|i| stack.build_protocol_shared(&params.config, &shared, i))
                .collect();
            let config = params.config;
            record_run(
                params,
                graph,
                processes,
                move |i| stack.build_protocol_shared(&config, &shared, i),
                sink,
            )
        }
    }
}

/// Simulates the experiment's traffic — the paper's single broadcast from process 0, or
/// the full multi-broadcast workload when [`ExperimentParams::workload`] is set — over
/// prebuilt protocol instances and collects the metrics.
fn record_run<P: Protocol>(
    params: &ExperimentParams,
    graph: &Graph,
    processes: Vec<P>,
    restart_builder: impl FnMut(ProcessId) -> P + 'static,
    sink: Option<std::sync::Arc<dyn brb_trace::TraceSink>>,
) -> TracedRecord
where
    P::Message: Eq,
{
    let mut sim = Simulation::new(processes, params.delay, params.seed);
    if let Some(sink) = sink {
        sim.set_trace_sink(sink);
    }
    // Crash the `crashed` highest-numbered processes (never the source, process 0).
    for offset in 0..params.crashed {
        let victim = params.n - 1 - offset;
        sim.set_behavior(victim, Behavior::Crash);
    }
    // Explicit behaviour assignments come last, so they can refine the crash set.
    for (process, behavior) in &params.behaviors {
        sim.set_behavior(*process, behavior.clone());
    }
    if let Some(spec) = &params.churn {
        // Same compile seed as the run: one (params, seed) pair fully determines the
        // schedule, exactly like the workload expansion below.
        sim.set_churn(spec.compile(params.seed), graph.edges());
        sim.set_restart_builder(restart_builder);
    }
    match &params.workload {
        None => {
            let source: ProcessId = 0;
            sim.broadcast(source, Payload::filled(0xAB, params.payload_size));
            sim.run_to_quiescence();
        }
        Some(spec) => {
            // The schedule is a pure function of (spec, n, seed): sweep workers and
            // other backends expanding the same triple inject the same traffic.
            let schedule = spec.schedule(params.n, params.seed);
            run_workload(&mut sim, &schedule, spec.mode);
        }
    }

    let correct = sim.correct_processes();
    let stats = workload_stats(sim.metrics(), &correct);
    // A process counts as `delivered` when it delivered *every* injected broadcast; the
    // makespan is only reported when every correct process did. For single-broadcast
    // runs both definitions coincide with the paper's. A run that injected nothing
    // (e.g. a workload whose only source crashed) delivered nothing — report 0, not a
    // vacuous full count.
    let injected_ids: Vec<BroadcastId> = sim.metrics().injection_times.keys().copied().collect();
    let delivered = if injected_ids.is_empty() {
        0
    } else {
        correct
            .iter()
            .filter(|&&p| {
                injected_ids
                    .iter()
                    .all(|id| sim.metrics().delivery_times.contains_key(&(p, *id)))
            })
            .count()
    };
    let latency_ms =
        (stats.injected > 0 && stats.completed == stats.injected).then_some(stats.duration_ms);
    let result = ExperimentResult {
        latency_ms,
        bytes: sim.metrics().bytes_sent,
        messages: sim.metrics().messages_sent,
        delivered,
        correct: correct.len(),
        peak_state_bytes: sim.metrics().peak_state_bytes,
        peak_stored_paths: sim.metrics().peak_stored_paths,
        gc_retired: sim.metrics().gc_retired,
        retained_bytes: sim.metrics().retained_bytes,
        workload: params.workload.is_some().then_some(stats),
        consensus: None,
    };
    let drop_counts = sim.drop_counts().to_vec();
    TracedRecord {
        record: ExperimentRecord {
            result,
            metrics: sim.into_metrics(),
        },
        events: Vec::new(),
        drop_counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(config: Config) -> ExperimentParams {
        ExperimentParams {
            n: 16,
            connectivity: 5,
            f: 2,
            crashed: 0,
            payload_size: 64,
            config,
            stack: StackSpec::Bd,
            delay: DelayModel::synchronous(),
            seed: 11,
            workload: None,
            behaviors: Vec::new(),
            churn: None,
            consensus: None,
        }
    }

    /// One run on the experiment's own seeded graph.
    fn run(p: &ExperimentParams) -> ExperimentResult {
        run_experiment(p, &experiment_graph(p.n, p.connectivity, p.seed)).result
    }

    #[test]
    fn experiment_delivers_everywhere() {
        let r = run(&params(Config::bdopt_mbd1(16, 2)));
        assert!(r.complete());
        assert_eq!(r.correct, 16);
        assert!(r.latency_ms.unwrap() >= 100.0);
        assert!(r.bytes > 0);
        assert!(r.kilobytes() > 0.0);
        assert!(r.peak_state_bytes > 0);
    }

    #[test]
    fn experiment_with_crashes_still_delivers_to_correct_processes() {
        let mut p = params(Config::bdopt_mbd1(16, 2));
        p.crashed = 2;
        let r = run(&p);
        assert_eq!(r.correct, 14);
        assert!(
            r.complete(),
            "correct processes must deliver despite crashes"
        );
    }

    #[test]
    fn bandwidth_preset_reduces_bytes_on_same_graph() {
        let p_base = params(Config::bdopt_mbd1(16, 2));
        let graph = experiment_graph(16, 5, 3);
        let base = run_experiment(&p_base, &graph).result;
        let p_bdw = params(Config::bandwidth_preset(16, 2));
        let bdw = run_experiment(&p_bdw, &graph).result;
        assert!(base.complete() && bdw.complete());
        assert!(
            bdw.bytes <= base.bytes,
            "bdw. preset should not increase bytes: {} vs {}",
            bdw.bytes,
            base.bytes
        );
    }

    #[test]
    fn mbd1_reduces_bytes_vs_bdopt_on_same_graph() {
        let graph = experiment_graph(16, 5, 5);
        let mut p0 = params(Config::bdopt(16, 2));
        p0.payload_size = 1024;
        let mut p1 = params(Config::bdopt_mbd1(16, 2));
        p1.payload_size = 1024;
        let base = run_experiment(&p0, &graph).result;
        let opt = run_experiment(&p1, &graph).result;
        assert!(base.complete() && opt.complete());
        assert!(
            (opt.bytes as f64) < 0.5 * base.bytes as f64,
            "MBD.1 should at least halve the bytes with 1 KiB payloads: {} vs {}",
            opt.bytes,
            base.bytes
        );
    }

    #[test]
    #[should_panic(expected = "cannot crash")]
    fn too_many_crashes_are_rejected() {
        let mut p = params(Config::bdopt_mbd1(16, 2));
        p.crashed = 3;
        run(&p);
    }

    #[test]
    fn behavior_assignments_apply_to_the_simulation() {
        let mut p = params(Config::bdopt_mbd1(16, 2));
        p.behaviors = vec![
            (3, Behavior::Lossy(0.3)),
            (9, Behavior::SilentTowards(vec![1])),
        ];
        let r = run(&p);
        assert_eq!(r.correct, 14, "byzantine processes leave the correct set");
        assert!(r.complete(), "correct processes deliver despite the faults");
        assert!(r.bytes > 0);
    }

    #[test]
    fn asynchronous_experiment_completes() {
        let mut p = params(Config::latency_preset(16, 2));
        p.delay = DelayModel::asynchronous();
        let r = run(&p);
        assert!(r.complete());
    }

    #[test]
    fn alternative_stacks_run_through_the_experiment_runner() {
        // Every non-default stack goes through the DynStack (encoded frames) path; the
        // ones whose assumptions hold on a 5-regular random graph with f = 2 must still
        // deliver everywhere. (Bracha sees the simulator as a complete network — the
        // simulator imposes no topology — which matches its system model.)
        for stack in [
            StackSpec::BrachaRoutedDolev,
            StackSpec::Dolev,
            StackSpec::RoutedDolev,
            StackSpec::Bracha,
        ] {
            let p = params(Config::bdopt_mbd1(16, 2)).with_stack(stack);
            let r = run(&p);
            assert!(r.complete(), "{stack} must deliver everywhere");
            assert!(r.bytes > 0, "{stack} reports Table 3 bytes");
            assert!(r.latency_ms.unwrap() > 0.0, "{stack} reports latency");
        }
    }

    #[test]
    fn stack_choice_changes_the_traffic_profile() {
        let graph = experiment_graph(16, 5, 3);
        let bd = run_experiment(&params(Config::bdopt_mbd1(16, 2)), &graph).result;
        let routed = run_experiment(
            &params(Config::bdopt_mbd1(16, 2)).with_stack(StackSpec::BrachaRoutedDolev),
            &graph,
        )
        .result;
        assert!(bd.complete() && routed.complete());
        assert_ne!(
            bd.messages, routed.messages,
            "different stacks produce different message counts"
        );
    }

    #[test]
    fn workload_experiments_fill_workload_stats() {
        let mut p = params(Config::bdopt_mbd1(16, 2));
        p.workload = Some(brb_workload::WorkloadSpec::constant_rate(10_000, 8));
        let r = run(&p);
        assert!(r.complete(), "all 8 broadcasts reach all 16 processes");
        let stats = r.workload.expect("workload runs fill stats");
        assert_eq!(stats.injected, 8);
        assert!(stats.all_completed());
        assert!(r.latency_ms.unwrap() > 0.0, "makespan is reported");
        assert!(stats.throughput_per_sec() > 0.0);
    }

    #[test]
    fn workload_with_only_crashed_sources_reports_zero_delivered() {
        // Every injection targets the crash victim (the highest id), so nothing is ever
        // broadcast: the result must report 0 delivered, not a vacuous full count.
        let mut p = params(Config::bdopt_mbd1(16, 2));
        p.crashed = 1;
        p.workload = Some(
            brb_workload::WorkloadSpec::constant_rate(1_000, 4)
                .with_sources(brb_workload::SourceSelection::Single { source: 15 }),
        );
        let r = run(&p);
        assert_eq!(r.delivered, 0);
        assert_eq!(r.correct, 15);
        assert!(!r.complete());
        assert_eq!(r.latency_ms, None);
        let stats = r.workload.expect("workload runs fill stats");
        assert_eq!(stats.injected, 0, "crashed-source injections are no-ops");
    }

    #[test]
    fn rc_only_stacks_report_their_memory_proxies() {
        let p = params(Config::bdopt(16, 2)).with_stack(StackSpec::Dolev);
        let r = run(&p);
        assert!(r.complete());
        assert!(r.peak_state_bytes > 0, "Dolev tracks per-content state");
    }
}
