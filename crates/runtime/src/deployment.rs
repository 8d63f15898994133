//! Thread-per-process deployment driving any [`StackSpec`]-selected protocol engine.
//!
//! Node threads run the shared [`brb_transport::NodeDriver`] over
//! [`brb_transport::ChannelTransport`]s (crossbeam-channel authenticated links): the
//! deployment itself is a thin constructor — wire the links, build the engines, spawn
//! one driver per process — and never touches a frame. Fault injection and the paper's
//! delay regimes come from [`DriverOptions`]: per-process [`brb_sim::Behavior`]s and a
//! wall-clock-scaled [`brb_sim::DelayModel`] are applied as transport decorators, the
//! same scenario vocabulary the discrete-event simulator uses.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use brb_core::config::Config;
use brb_core::stack::{DynEngine, StackSpec};
use brb_core::types::{Delivery, Payload, ProcessId};
use brb_graph::Graph;
use brb_transport::{build_links, ChannelTransport, Command, DriverOptions, NodeDriver};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

pub use brb_transport::{DeploymentReport, NodeReport};

/// Builds the engine of one process; a churned deployment rebuilds from it on restart.
type EngineFactory = dyn Fn(ProcessId) -> Box<dyn DynEngine> + Send + Sync;

/// A running thread-per-process deployment.
pub struct Deployment {
    handles: Vec<JoinHandle<NodeReport>>,
    commands: Vec<Sender<Command>>,
    deliveries: Receiver<(ProcessId, Delivery)>,
    n: usize,
}

impl Deployment {
    /// Spawns one thread per process of `graph`, each running the shared
    /// [`NodeDriver`] over the `stack` engine built from the given configuration.
    /// `crashed` processes are not spawned at all (their links are dead, which is
    /// indistinguishable from a silent Byzantine process for the others); for a crash
    /// that keeps the links up, assign [`brb_sim::Behavior::Crash`] through
    /// [`DriverOptions::behaviors`] instead.
    pub fn start(
        graph: &Graph,
        config: Config,
        stack: StackSpec,
        options: DriverOptions,
        crashed: &[ProcessId],
    ) -> Self {
        // Topology-aware stacks (routed Dolev) share one copy of the graph.
        let shared_graph = Arc::new(graph.clone());
        let build = move |id| stack.build_shared(&config, &shared_graph, id);
        let engines = (0..graph.node_count()).map(&build).collect();
        // NodeRestart events rebuild the engine with the same constructor the node
        // started from (same identity and topology view, fresh state).
        let restart = options
            .churn
            .is_some()
            .then(|| Arc::new(build) as Arc<EngineFactory>);
        Self::spawn(graph, engines, restart, options, crashed)
    }

    /// Spawns one thread per process over caller-built engines — the hook decorator
    /// engines (e.g. [`brb_consensus::ConsensusEngine`]) come through: the caller
    /// constructs one boxed [`DynEngine`] per process (index = process id, exactly
    /// `graph.node_count()` of them), keeps whatever side handles it needs (decision
    /// handles, instrumentation), and hands the engines over.
    ///
    /// Unlike [`Deployment::start`], no engine factory is installed: a
    /// [`Command::Restart`] is a no-op, because rebuilding a decorator engine would
    /// discard its volatile state (for consensus, the round state) mid-protocol.
    /// Churn schedules still pace their link events.
    pub fn start_with_engines(
        graph: &Graph,
        engines: Vec<Box<dyn DynEngine>>,
        options: DriverOptions,
        crashed: &[ProcessId],
    ) -> Self {
        Self::spawn(graph, engines, None, options, crashed)
    }

    /// The one spawn loop behind both constructors: wires the channel links, starts a
    /// driver per non-crashed process over its engine (with the restart factory, when
    /// given) and the churn pacer, when a schedule is set.
    fn spawn(
        graph: &Graph,
        engines: Vec<Box<dyn DynEngine>>,
        restart: Option<Arc<EngineFactory>>,
        options: DriverOptions,
        crashed: &[ProcessId],
    ) -> Self {
        let n = graph.node_count();
        assert_eq!(engines.len(), n, "one engine per process required");
        let (mailboxes, senders) = build_links(n, &graph.edges());
        let (delivery_tx, delivery_rx) = unbounded();
        let mut commands = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for (id, ((mailbox, links), engine)) in
            mailboxes.into_iter().zip(senders).zip(engines).enumerate()
        {
            let (cmd_tx, cmd_rx) = unbounded();
            commands.push(cmd_tx);
            if crashed.contains(&id) {
                continue;
            }
            let mut driver = NodeDriver::new(
                engine,
                Box::new(ChannelTransport::new(mailbox, links)),
                cmd_rx,
                delivery_tx.clone(),
                &options,
            );
            if let Some(build) = &restart {
                let build = build.clone();
                driver = driver.with_engine_factory(move || build(id));
            }
            handles.push(std::thread::spawn(move || driver.run()));
        }
        if let Some(churn) = &options.churn {
            // The pacer outlives this constructor; its schedule starts now. The join
            // handle is dropped — the thread exits once the schedule is exhausted.
            let _ = churn.spawn_pacer(commands.clone());
        }
        Self {
            handles,
            commands,
            deliveries: delivery_rx,
            n,
        }
    }

    /// Number of processes in the deployment (including crashed ones).
    pub fn process_count(&self) -> usize {
        self.n
    }

    /// Asks `source` to broadcast `payload`.
    pub fn broadcast(&self, source: ProcessId, payload: Payload) {
        let _ = self.commands[source].send(Command::Broadcast(payload));
    }

    /// The shared delivery stream of the deployment, for drivers that track
    /// completion themselves (see [`crate::consensus::drive_consensus`]).
    pub fn deliveries(&self) -> &Receiver<(ProcessId, Delivery)> {
        &self.deliveries
    }

    /// Waits until at least `expected` deliveries have been observed in total, or until
    /// `timeout` elapses. Returns the number of deliveries observed.
    pub fn await_deliveries(&self, expected: usize, timeout: Duration) -> usize {
        let deadline = std::time::Instant::now() + timeout;
        let mut seen = 0usize;
        while seen < expected {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                break;
            }
            match self.deliveries.recv_timeout(remaining) {
                Ok(_) => seen += 1,
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        seen
    }

    /// Replays a workload schedule against the running deployment through the shared
    /// generator driver (see [`crate::workload::drive_workload`]): a generator thread
    /// fires the injections (honoring the closed-loop window), this thread tracks
    /// per-broadcast completion over the delivery stream.
    pub fn run_workload(
        &self,
        schedule: &[brb_workload::Injection],
        mode: brb_workload::LoopMode,
        pacing: crate::workload::Pacing,
        correct: &[ProcessId],
        timeout: Duration,
    ) -> crate::workload::WorkloadRun {
        crate::workload::drive_workload(
            |source, payload| self.broadcast(source, payload),
            &self.deliveries,
            schedule,
            mode,
            pacing,
            correct,
            timeout,
        )
    }

    /// Shuts every node down and collects the per-node reports.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of a node thread once every other node is joined.
    pub fn shutdown(self) -> DeploymentReport {
        for tx in &self.commands {
            let _ = tx.send(Command::Shutdown);
        }
        let mut nodes: Vec<NodeReport> = (0..self.n)
            .map(|id| NodeReport {
                id,
                deliveries: Vec::new(),
                messages_sent: 0,
                bytes_sent: 0,
                state_bytes: 0,
                gc_retired: 0,
                restarts: 0,
                drops_by_cause: brb_trace::DropCounts::new(),
                queue_depth_peak: 0,
                decision: None,
            })
            .collect();
        // A panicked node is an engine bug, not a node that delivered nothing: join the
        // others, then re-raise the first panic.
        let mut panicked = None;
        for handle in self.handles {
            match handle.join() {
                Ok(report) => {
                    let id = report.id;
                    nodes[id] = report;
                }
                Err(panic) => {
                    panicked.get_or_insert(panic);
                }
            }
        }
        if let Some(panic) = panicked {
            std::panic::resume_unwind(panic);
        }
        DeploymentReport { nodes }
    }
}

/// Convenience wrapper: runs one broadcast of the given stack on `graph` and returns the
/// deployment report once every correct process delivered (or the timeout expired).
pub fn run_threaded_broadcast(
    graph: &Graph,
    config: Config,
    stack: StackSpec,
    payload: Payload,
    source: ProcessId,
    crashed: &[ProcessId],
    timeout: Duration,
) -> DeploymentReport {
    let deployment = Deployment::start(graph, config, stack, DriverOptions::default(), crashed);
    deployment.broadcast(source, payload);
    let expected = graph.node_count() - crashed.len();
    deployment.await_deliveries(expected, timeout);
    deployment.shutdown()
}

/// Convenience wrapper: expands `spec` into its seeded schedule, firehoses the threaded
/// deployment with it (unpaced: only the injection order and the loop window matter at
/// wall-clock scale), and returns the deployment report together with what the driver
/// observed.
pub fn run_threaded_workload(
    graph: &Graph,
    config: Config,
    stack: StackSpec,
    spec: &brb_workload::WorkloadSpec,
    seed: u64,
    crashed: &[ProcessId],
    timeout: Duration,
) -> (DeploymentReport, crate::workload::WorkloadRun) {
    let n = graph.node_count();
    let deployment = Deployment::start(graph, config, stack, DriverOptions::default(), crashed);
    let schedule = spec.schedule(n, seed);
    let correct: Vec<ProcessId> = (0..n).filter(|p| !crashed.contains(p)).collect();
    let run = deployment.run_workload(
        &schedule,
        spec.mode,
        crate::workload::Pacing::Unpaced,
        &correct,
        timeout,
    );
    (deployment.shutdown(), run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use brb_graph::generate;
    use brb_sim::Behavior;
    use brb_transport::LinkDelay;

    #[test]
    fn threaded_broadcast_delivers_everywhere() {
        let graph = generate::figure1_example();
        let config = Config::bdopt_mbd1(10, 1);
        let report = run_threaded_broadcast(
            &graph,
            config,
            StackSpec::Bd,
            Payload::from("threaded hello"),
            0,
            &[],
            Duration::from_secs(10),
        );
        let everyone: Vec<ProcessId> = (0..10).collect();
        assert!(
            report.all_delivered(&everyone, 1),
            "every process must deliver"
        );
        assert!(report.total_messages() > 0);
        assert!(report.total_bytes() > 0);
        for node in &report.nodes {
            assert_eq!(node.deliveries[0].payload, Payload::from("threaded hello"));
        }
    }

    #[test]
    fn threaded_broadcast_with_crashed_process() {
        let graph = generate::circulant(13, 2); // 4-regular, supports f = 1
        let config = Config::latency_preset(13, 1);
        let crashed = [7usize];
        let report = run_threaded_broadcast(
            &graph,
            config,
            StackSpec::Bd,
            Payload::filled(5, 128),
            2,
            &crashed,
            Duration::from_secs(10),
        );
        let correct: Vec<ProcessId> = (0..13).filter(|p| !crashed.contains(p)).collect();
        assert!(report.all_delivered(&correct, 1));
        assert!(report.nodes[7].deliveries.is_empty());
    }

    #[test]
    fn threaded_broadcast_runs_non_bd_stacks() {
        // The routed-Dolev-based BRB stack has never run under real concurrency before
        // the stack API: one broadcast must deliver at every node.
        let graph = generate::figure1_example();
        let config = Config::plain(10, 1);
        let report = run_threaded_broadcast(
            &graph,
            config,
            StackSpec::BrachaRoutedDolev,
            Payload::from("routed over threads"),
            0,
            &[],
            Duration::from_secs(10),
        );
        let everyone: Vec<ProcessId> = (0..10).collect();
        assert!(report.all_delivered(&everyone, 1));
        assert!(report.total_bytes() > 0);
    }

    #[test]
    fn behavior_decorators_inject_faults_into_the_live_deployment() {
        // One process replays every frame, another drops everything towards two victims:
        // the sim's scenario vocabulary, running on the live channel backend through the
        // FaultyLink decorators. Every correct process still delivers (f = 1 per the
        // quorum margins; the two Byzantine nodes also deliver since their inbound links
        // are intact).
        let graph = generate::figure1_example();
        let config = Config::bdopt_mbd1(10, 1);
        let options = DriverOptions::default()
            .with_behaviors(vec![(4, Behavior::Replayer), (7, Behavior::Crash)]);
        let deployment = Deployment::start(&graph, config, StackSpec::Bd, options, &[]);
        deployment.broadcast(0, Payload::from("faulted"));
        deployment.await_deliveries(9, Duration::from_secs(10));
        let report = deployment.shutdown();
        let correct: Vec<ProcessId> = (0..10).filter(|&p| p != 4 && p != 7).collect();
        assert!(report.all_delivered(&correct, 1));
        assert!(
            report.nodes[7].deliveries.is_empty(),
            "behavior-crashed node delivers nothing"
        );
        assert_eq!(report.nodes[7].messages_sent, 0);
        assert!(
            report.nodes[4].messages_sent > 0,
            "the replayer transmits (twice per frame)"
        );
    }

    #[test]
    fn scaled_delay_model_runs_on_the_live_deployment() {
        // The paper's 50 ms synchronous regime compressed 100x: frames take ~0.5 ms per
        // hop, so the broadcast completes but measurably slower than the undelayed run.
        let graph = generate::figure1_example();
        let config = Config::bdopt_mbd1(10, 1);
        let options = DriverOptions::default().with_link_delay(LinkDelay::Scaled {
            model: brb_sim::DelayModel::synchronous(),
            scale: 0.01,
        });
        let deployment = Deployment::start(&graph, config, StackSpec::Bd, options, &[]);
        let start = std::time::Instant::now();
        deployment.broadcast(0, Payload::from("paced"));
        let seen = deployment.await_deliveries(10, Duration::from_secs(30));
        let elapsed = start.elapsed();
        let report = deployment.shutdown();
        assert_eq!(seen, 10);
        let everyone: Vec<ProcessId> = (0..10).collect();
        assert!(report.all_delivered(&everyone, 1));
        assert!(
            elapsed >= Duration::from_millis(1),
            "two 0.5 ms hops minimum, got {elapsed:?}"
        );
    }

    #[test]
    fn threaded_workload_firehoses_every_source() {
        let graph = generate::figure1_example();
        let config = Config::bdopt_mbd1(10, 1);
        let spec = brb_workload::WorkloadSpec::constant_rate(1_000, 20).with_payload_bytes(48);
        let (report, run) = run_threaded_workload(&graph, config, StackSpec::Bd, &spec, 7, &[], {
            Duration::from_secs(30)
        });
        assert_eq!(run.injected, 20);
        assert_eq!(run.effective, 20);
        assert!(run.all_completed(), "{run:?}");
        assert_eq!(
            run.broadcast_latencies.len(),
            20,
            "every completed broadcast reports a wall-clock latency"
        );
        let everyone: Vec<ProcessId> = (0..10).collect();
        // Every process delivers all 20 broadcasts.
        assert!(report.all_delivered(&everyone, 20));
    }

    #[test]
    fn threaded_closed_loop_workload_with_a_crashed_source_completes() {
        let graph = generate::figure1_example();
        let config = Config::bdopt_mbd1(10, 1);
        // Window 3, one crashed process among the round-robin sources: its injections
        // are no-ops and must not clog the window.
        let spec = brb_workload::WorkloadSpec::constant_rate(0, 10).closed_loop(3);
        let crashed = [6usize];
        let (report, run) = run_threaded_workload(
            &graph,
            config,
            StackSpec::Bd,
            &spec,
            3,
            &crashed,
            Duration::from_secs(30),
        );
        assert_eq!(run.injected, 10);
        assert_eq!(run.effective, 9, "source 6's injection cannot complete");
        assert!(run.all_completed(), "{run:?}");
        let correct: Vec<ProcessId> = (0..10).filter(|p| !crashed.contains(p)).collect();
        // Nine effective broadcasts, each delivered by every correct process.
        assert!(report.all_delivered(&correct, 9));
        assert!(report.nodes[6].deliveries.is_empty());
    }
}
