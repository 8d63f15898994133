//! The one live deployment: a thread-per-process [`NodeDriver`] over any backend's links.
//!
//! A backend only wires [`Links`]: one boxed [`Transport`] per running process, plus
//! what must be closed once every node thread is joined. [`Links::channels`] wires
//! crossbeam-channel authenticated links; `brb_net::tcp_links` wires loopback TCP
//! sockets. Everything else — building the engines, spawning the drivers, the churn
//! pacer, the command and delivery channels, the workload driver and the shutdown — is
//! this module's one copy. Fault injection and the paper's delay regimes come from
//! [`DriverOptions`]: per-process [`brb_sim::Behavior`]s and a wall-clock-scaled
//! [`brb_sim::DelayModel`] are applied as transport decorators, the same scenario
//! vocabulary the discrete-event simulator uses.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use brb_core::config::Config;
use brb_core::stack::{DynEngine, StackSpec};
use brb_core::types::{Delivery, Payload, ProcessId};
use brb_graph::Graph;
use brb_transport::{build_links, ChannelTransport, Command, DriverOptions, NodeDriver, Transport};
use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::workload::{drive_workload, Pacing, WorkloadRun};

pub use brb_transport::{DeploymentReport, NodeReport};

/// Builds the engine of one process; a churned deployment rebuilds from it on restart.
type EngineFactory = dyn Fn(ProcessId) -> Box<dyn DynEngine> + Send + Sync;

/// The links a backend wires for one deployment.
pub struct Links {
    /// One transport per process (index = process id); `None` for a crashed process,
    /// which gets no driver thread.
    pub transports: Vec<Option<Box<dyn Transport>>>,
    /// Runs once every node thread is joined (TCP: shuts the sockets down, which
    /// unblocks the reader threads).
    pub close: Box<dyn FnOnce() + Send + Sync>,
}

impl Links {
    /// Crossbeam-channel links along the edges of `graph`. The links of `crashed`
    /// processes are dropped, which is indistinguishable from a silent Byzantine process
    /// for the others; for a crash that keeps the links up, assign
    /// [`brb_sim::Behavior::Crash`] through [`DriverOptions::behaviors`] instead.
    pub fn channels(graph: &Graph, crashed: &[ProcessId]) -> Self {
        let (mailboxes, senders) = build_links(graph.node_count(), &graph.edges());
        let transports = mailboxes
            .into_iter()
            .zip(senders)
            .enumerate()
            .map(|(id, (mailbox, links))| {
                (!crashed.contains(&id))
                    .then(|| Box::new(ChannelTransport::new(mailbox, links)) as Box<dyn Transport>)
            })
            .collect();
        Self {
            transports,
            close: Box::new(|| {}),
        }
    }

    /// The processes that get a driver thread: everyone but the crashed ones.
    pub fn running(&self) -> Vec<ProcessId> {
        (0..self.transports.len())
            .filter(|&p| self.transports[p].is_some())
            .collect()
    }
}

/// A running thread-per-process deployment.
pub struct Deployment {
    handles: Vec<JoinHandle<NodeReport>>,
    commands: Vec<Sender<Command>>,
    deliveries: Receiver<(ProcessId, Delivery)>,
    close: Box<dyn FnOnce() + Send + Sync>,
}

impl Deployment {
    /// Spawns one [`NodeDriver`] per process of `graph` over [`Links::channels`], each
    /// running the `stack` engine built from the given configuration. `crashed`
    /// processes are not spawned at all.
    pub fn start(
        graph: &Graph,
        config: Config,
        stack: StackSpec,
        options: DriverOptions,
        crashed: &[ProcessId],
    ) -> Self {
        let links = Links::channels(graph, crashed);
        Self::start_on(links, graph, config, stack, options)
    }

    /// Spawns one driver per running process of `links`, each running the `stack`
    /// engine built from the given configuration. Under churn, a [`Command::Restart`]
    /// rebuilds the engine with the same constructor (same identity and topology view,
    /// fresh state); the links are untouched.
    pub fn start_on(
        links: Links,
        graph: &Graph,
        config: Config,
        stack: StackSpec,
        options: DriverOptions,
    ) -> Self {
        // Topology-aware stacks (routed Dolev) share one copy of the graph.
        let shared_graph = Arc::new(graph.clone());
        let build = move |id| stack.build_shared(&config, &shared_graph, id);
        let engines = (0..graph.node_count()).map(&build).collect();
        let restart = options
            .churn
            .is_some()
            .then(|| Arc::new(build) as Arc<EngineFactory>);
        Self::spawn(links, engines, restart, options)
    }

    /// Spawns one driver per running process of `links` over caller-built engines —
    /// the hook decorator engines (e.g. [`brb_consensus::ConsensusEngine`]) come
    /// through: the caller constructs one boxed [`DynEngine`] per process (index =
    /// process id), keeps whatever side handles it needs, and hands the engines over.
    ///
    /// No engine factory is installed: a [`Command::Restart`] is a no-op, because
    /// rebuilding a decorator engine would discard its volatile state (for consensus,
    /// the round state) mid-protocol. Churn schedules still pace their link events.
    pub fn start_with_engines_on(
        links: Links,
        engines: Vec<Box<dyn DynEngine>>,
        options: DriverOptions,
    ) -> Self {
        Self::spawn(links, engines, None, options)
    }

    /// The one spawn loop: a driver per running process over its engine (with the
    /// restart factory, when given) and the churn pacer, when a schedule is set.
    fn spawn(
        links: Links,
        engines: Vec<Box<dyn DynEngine>>,
        restart: Option<Arc<EngineFactory>>,
        options: DriverOptions,
    ) -> Self {
        let n = links.transports.len();
        assert_eq!(engines.len(), n, "one engine per process required");
        let (delivery_tx, deliveries) = unbounded();
        let mut commands = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for (id, (transport, engine)) in links.transports.into_iter().zip(engines).enumerate() {
            let (cmd_tx, cmd_rx) = unbounded();
            commands.push(cmd_tx);
            let Some(transport) = transport else {
                continue;
            };
            let mut driver =
                NodeDriver::new(engine, transport, cmd_rx, delivery_tx.clone(), &options);
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
            deliveries,
            close: links.close,
        }
    }

    /// Number of processes in the deployment (including crashed ones).
    pub fn process_count(&self) -> usize {
        self.commands.len()
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
        let deadline = Instant::now() + timeout;
        let mut seen = 0usize;
        while seen < expected {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() || self.deliveries.recv_timeout(remaining).is_err() {
                break;
            }
            seen += 1;
        }
        seen
    }

    /// Replays a workload schedule against the running deployment through the shared
    /// generator driver (see [`drive_workload`]): a generator thread fires the
    /// injections (honoring the closed-loop window), this thread tracks per-broadcast
    /// completion over the delivery stream.
    pub fn run_workload(
        &self,
        schedule: &[brb_workload::Injection],
        mode: brb_workload::LoopMode,
        pacing: Pacing,
        correct: &[ProcessId],
        timeout: Duration,
    ) -> WorkloadRun {
        drive_workload(
            |source, payload| self.broadcast(source, payload),
            &self.deliveries,
            schedule,
            mode,
            pacing,
            correct,
            timeout,
        )
    }

    /// Shuts every node down, closes the links, and collects the per-node reports.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of a node thread once every other node is joined.
    pub fn shutdown(self) -> DeploymentReport {
        for tx in &self.commands {
            let _ = tx.send(Command::Shutdown);
        }
        let mut nodes: Vec<NodeReport> = (0..self.commands.len())
            .map(|id| NodeReport {
                id,
                ..NodeReport::default()
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
                Err(panic) => panicked = panicked.or(Some(panic)),
            }
        }
        (self.close)();
        if let Some(panic) = panicked {
            std::panic::resume_unwind(panic);
        }
        DeploymentReport { nodes }
    }
}

/// Convenience wrapper: runs one broadcast of the given stack over `links` and returns
/// the deployment report once every running process delivered (or the timeout expired).
pub fn run_broadcast(
    links: Links,
    graph: &Graph,
    config: Config,
    stack: StackSpec,
    payload: Payload,
    source: ProcessId,
    timeout: Duration,
) -> DeploymentReport {
    let expected = links.running().len();
    let deployment = Deployment::start_on(links, graph, config, stack, DriverOptions::default());
    deployment.broadcast(source, payload);
    deployment.await_deliveries(expected, timeout);
    deployment.shutdown()
}

/// Convenience wrapper: expands `spec` into its seeded schedule, firehoses a deployment
/// over `links` with it (unpaced: only the injection order and the loop window matter
/// at wall-clock scale), and returns the deployment report together with what the
/// driver observed.
pub fn run_workload(
    links: Links,
    graph: &Graph,
    config: Config,
    stack: StackSpec,
    spec: &brb_workload::WorkloadSpec,
    seed: u64,
    timeout: Duration,
) -> (DeploymentReport, WorkloadRun) {
    let correct = links.running();
    let deployment = Deployment::start_on(links, graph, config, stack, DriverOptions::default());
    let schedule = spec.schedule(graph.node_count(), seed);
    let run = deployment.run_workload(&schedule, spec.mode, Pacing::Unpaced, &correct, timeout);
    (deployment.shutdown(), run)
}
