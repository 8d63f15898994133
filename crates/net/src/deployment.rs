//! TCP deployment of any [`StackSpec`]-selected engine: one protocol thread per process,
//! real loopback sockets as authenticated links.
//!
//! This is the closest in-repository analogue of the paper's testbed (Sec. 7.1): the paper
//! runs one node per Docker container on a single desktop and connects them with TCP
//! sockets; we run one node per thread in a single OS process and connect them with TCP
//! sockets over the loopback interface. The node threads are the shared
//! [`brb_transport::NodeDriver`] — the exact event loop the channel runtime spawns — over
//! a [`TcpTransport`] (socket write halves + the reader threads' mailbox), so the
//! protocol engines, wire formats, byte accounting, fault decorators and delay models are
//! identical across the discrete-event simulator (`brb-sim`), the channel runtime
//! (`brb-runtime`) and this backend; the reports reuse the shared
//! [`NodeReport`] / [`DeploymentReport`] types for that reason.

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use brb_core::config::Config;
use brb_core::stack::{DynEngine, StackSpec};
use brb_core::types::{Delivery, Payload, ProcessId};
use brb_graph::Graph;
use brb_transport::{
    Command, DeploymentReport, DriverOptions, Frame, NodeDriver, NodeReport, OutFrame, SendReceipt,
    Transport,
};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::endpoint::{bind_endpoints, connect_mesh, send_frame, spawn_link_reader};

/// Builds the engine of one process; a churned deployment rebuilds from it on restart.
type EngineFactory = dyn Fn(ProcessId) -> Box<dyn DynEngine> + Send + Sync;

/// The loopback-socket transport of one process: TCP write halves keyed by neighbor,
/// plus the mailbox its per-link reader threads feed ([`spawn_link_reader`]).
pub struct TcpTransport {
    writers: HashMap<ProcessId, TcpStream>,
    mailbox: Receiver<Frame>,
    /// Reusable coalescing buffer for [`Transport::send_batch`]: a same-destination
    /// burst is staged here (standard length-prefixed framing, unchanged on the wire)
    /// and written with one syscall; the buffer's capacity is retained across bursts, so
    /// steady-state batched sends allocate nothing.
    staging: Vec<u8>,
}

impl TcpTransport {
    /// Wraps one process's established write halves and its reader-thread mailbox.
    pub fn new(writers: HashMap<ProcessId, TcpStream>, mailbox: Receiver<Frame>) -> Self {
        Self {
            writers,
            mailbox,
            staging: Vec::new(),
        }
    }
}

impl Transport for TcpTransport {
    fn inbound(&self) -> &Receiver<Frame> {
        &self.mailbox
    }

    fn peers(&self) -> Vec<ProcessId> {
        let mut peers: Vec<ProcessId> = self.writers.keys().copied().collect();
        peers.sort_unstable();
        peers
    }

    fn send(&mut self, to: ProcessId, frame: &Bytes, _wire_size: usize) -> usize {
        if let Some(stream) = self.writers.get_mut(&to) {
            // A failed write means the peer crashed or shut down, which the protocols
            // tolerate; the frame still counts as transmitted.
            let _ = send_frame(stream, frame);
            1
        } else {
            0
        }
    }

    fn send_batch(&mut self, to: ProcessId, frames: &[OutFrame]) -> SendReceipt {
        let mut receipt = SendReceipt::default();
        let Some(stream) = self.writers.get_mut(&to) else {
            return receipt;
        };
        match frames {
            [] => {}
            [only] => {
                let _ = send_frame(stream, &only.frame);
                receipt.record(1, only.wire_size);
            }
            burst => {
                // One syscall for the whole burst: concatenate the standard
                // length-prefixed frames into the reusable staging buffer and write it
                // in one go. The wire format is unchanged — the peer's reader splits
                // the stream back frame by frame (and `read_frame_burst` drains the
                // whole burst into one pooled allocation).
                self.staging.clear();
                for f in burst {
                    receipt.record(1, f.wire_size);
                    if f.frame.len() > crate::frame::MAX_FRAME_BYTES {
                        // write_frame would refuse it; account it like a failed write.
                        continue;
                    }
                    self.staging
                        .extend_from_slice(&(f.frame.len() as u32).to_be_bytes());
                    self.staging.extend_from_slice(&f.frame);
                }
                let _ = stream
                    .write_all(&self.staging)
                    .and_then(|()| stream.flush());
            }
        }
        receipt
    }
}

/// A running TCP deployment.
pub struct TcpDeployment {
    handles: Vec<JoinHandle<NodeReport>>,
    commands: Vec<Sender<Command>>,
    deliveries: Receiver<(ProcessId, Delivery)>,
    /// One write-half clone per established link, used to shut the sockets down and
    /// unblock reader threads at the end of the run.
    all_streams: Vec<TcpStream>,
    n: usize,
}

impl TcpDeployment {
    /// Binds the endpoints, establishes the TCP mesh of `graph`, and spawns one shared
    /// [`NodeDriver`] per process, each running the `stack` engine built from the given
    /// configuration. `crashed` processes get endpoints and links (so their neighbors
    /// see an established connection, as for a process that crashes right after start-up)
    /// but no protocol thread; for a crash that keeps the protocol thread alive, assign
    /// [`brb_sim::Behavior::Crash`] through [`DriverOptions::behaviors`] instead.
    ///
    /// # Errors
    ///
    /// Returns any socket error raised while binding or connecting.
    pub fn start(
        graph: &Graph,
        config: Config,
        stack: StackSpec,
        options: DriverOptions,
        crashed: &[ProcessId],
    ) -> std::io::Result<Self> {
        // Topology-aware stacks (routed Dolev) share one copy of the graph.
        let shared_graph = Arc::new(graph.clone());
        let build = move |id| stack.build_shared(&config, &shared_graph, id);
        let engines = (0..graph.node_count()).map(&build).collect();
        // NodeRestart events rebuild the engine with the same constructor the node
        // started from (same identity and topology view, fresh state); the sockets and
        // reader threads are untouched — only protocol state is lost, like a process
        // crash-recovering on a machine whose kernel keeps the connections alive.
        let restart = options
            .churn
            .is_some()
            .then(|| Arc::new(build) as Arc<EngineFactory>);
        Self::spawn(graph, engines, restart, options, crashed)
    }

    /// Binds the endpoints, establishes the TCP mesh of `graph`, and spawns one driver
    /// per process over caller-built engines — how decorator engines (e.g.
    /// [`brb_consensus::ConsensusEngine`]) run on real sockets: the caller constructs
    /// one boxed [`DynEngine`] per process (index = process id, exactly
    /// `graph.node_count()` of them), keeps its side handles, and hands the engines
    /// over. No engine factory is installed, so a restart command is a no-op
    /// (rebuilding a decorator engine would discard its volatile state mid-protocol);
    /// churn schedules still pace their link events.
    ///
    /// # Errors
    ///
    /// Returns any socket error raised while binding or connecting.
    pub fn start_with_engines(
        graph: &Graph,
        engines: Vec<Box<dyn DynEngine>>,
        options: DriverOptions,
        crashed: &[ProcessId],
    ) -> std::io::Result<Self> {
        Self::spawn(graph, engines, None, options, crashed)
    }

    /// The one spawn loop behind both constructors: binds and connects the mesh, then
    /// starts the link readers and a driver per non-crashed process over its engine
    /// (with the restart factory, when given) and the churn pacer, when a schedule is
    /// set.
    fn spawn(
        graph: &Graph,
        engines: Vec<Box<dyn DynEngine>>,
        restart: Option<Arc<EngineFactory>>,
        options: DriverOptions,
        crashed: &[ProcessId],
    ) -> std::io::Result<Self> {
        let n = graph.node_count();
        assert_eq!(engines.len(), n, "one engine per process required");
        let endpoints = bind_endpoints(n)?;
        let links = connect_mesh(graph, &endpoints)?;
        let (delivery_tx, delivery_rx) = unbounded();
        let mut commands = Vec::with_capacity(n);
        let mut handles = Vec::new();
        let mut all_streams = Vec::new();

        for ((id, node_links), engine) in links.into_iter().enumerate().zip(engines) {
            let (cmd_tx, cmd_rx) = unbounded();
            commands.push(cmd_tx);
            for stream in node_links.writers.values() {
                if let Ok(clone) = stream.try_clone() {
                    all_streams.push(clone);
                }
            }
            if crashed.contains(&id) {
                // Keep the sockets open but run no protocol: a crash fault.
                continue;
            }
            let (mailbox_tx, mailbox_rx) = unbounded();
            for (peer, stream) in node_links.readers {
                spawn_link_reader(peer, stream, mailbox_tx.clone());
            }
            let mut driver = NodeDriver::new(
                engine,
                Box::new(TcpTransport::new(node_links.writers, mailbox_rx)),
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
        Ok(Self {
            handles,
            commands,
            deliveries: delivery_rx,
            all_streams,
            n,
        })
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
    /// completion themselves (see `brb_runtime::consensus::drive_consensus`).
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
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => break,
            }
        }
        seen
    }

    /// Replays a workload schedule against the running TCP deployment through the
    /// generator driver shared with the channel runtime
    /// (`brb_runtime::workload::drive_workload`): a generator thread fires the
    /// injections (honoring the closed-loop window), this thread tracks per-broadcast
    /// completion over the delivery stream.
    pub fn run_workload(
        &self,
        schedule: &[brb_workload::Injection],
        mode: brb_workload::LoopMode,
        pacing: brb_runtime::Pacing,
        correct: &[ProcessId],
        timeout: Duration,
    ) -> brb_runtime::WorkloadRun {
        brb_runtime::drive_workload(
            |source, payload| self.broadcast(source, payload),
            &self.deliveries,
            schedule,
            mode,
            pacing,
            correct,
            timeout,
        )
    }

    /// Shuts every node down, closes the sockets, and collects the per-node reports.
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
        for handle in self.handles {
            if let Ok(report) = handle.join() {
                let id = report.id;
                nodes[id] = report;
            }
        }
        // Unblock any reader thread still parked on a socket.
        for stream in &self.all_streams {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        DeploymentReport { nodes }
    }
}

/// Convenience wrapper: runs one broadcast of the given stack over TCP on `graph` and
/// returns the deployment report once every correct process delivered (or the timeout
/// expired).
///
/// # Errors
///
/// Returns any socket error raised while setting the deployment up.
pub fn run_tcp_broadcast(
    graph: &Graph,
    config: Config,
    stack: StackSpec,
    payload: Payload,
    source: ProcessId,
    crashed: &[ProcessId],
    timeout: Duration,
) -> std::io::Result<DeploymentReport> {
    let deployment = TcpDeployment::start(graph, config, stack, DriverOptions::default(), crashed)?;
    deployment.broadcast(source, payload);
    let expected = graph.node_count() - crashed.len();
    deployment.await_deliveries(expected, timeout);
    Ok(deployment.shutdown())
}

/// Convenience wrapper: runs one seeded consensus instance of the given stack over
/// real TCP sockets and returns the deployment report (with
/// [`NodeReport::decision`] patched in from the decision handles) together with what
/// the phase driver observed. The phase schedule, quiescence rule and decision logic
/// are the exact code the channel runtime runs
/// (`brb_runtime::consensus::drive_consensus`), so a fixed `(graph, config, stack,
/// spec)` tuple decides the same value in the same round on both live backends — and
/// on the simulator.
///
/// # Errors
///
/// Returns any socket error raised while setting the deployment up.
#[allow(clippy::too_many_arguments)]
pub fn run_tcp_consensus(
    graph: &Graph,
    config: Config,
    stack: StackSpec,
    spec: &brb_consensus::ConsensusSpec,
    f: usize,
    options: DriverOptions,
    crashed: &[ProcessId],
    timeout: Duration,
) -> std::io::Result<(DeploymentReport, brb_runtime::ConsensusRun)> {
    let n = graph.node_count();
    let grace = options.idle_shutdown;
    let (engines, handles) = brb_runtime::build_consensus_engines(graph, &config, stack, spec, f);
    let receiving = brb_runtime::receiving_processes(n, &options, crashed);
    let honest = brb_sim::honest_processes(&receiving, spec);
    let deployment = TcpDeployment::start_with_engines(graph, engines, options, crashed)?;
    let run = brb_runtime::drive_consensus(
        |source, payload| deployment.broadcast(source, payload),
        deployment.deliveries(),
        spec,
        &handles,
        &honest,
        receiving.len(),
        grace,
        timeout,
    );
    let mut report = deployment.shutdown();
    for (id, handle) in handles.iter().enumerate() {
        report.nodes[id].decision = handle.get();
    }
    Ok((report, run))
}

/// Convenience wrapper: expands `spec` into its seeded schedule, firehoses the TCP
/// deployment with it (unpaced), and returns the deployment report together with what
/// the driver observed.
///
/// # Errors
///
/// Returns any socket error raised while setting the deployment up.
pub fn run_tcp_workload(
    graph: &Graph,
    config: Config,
    stack: StackSpec,
    spec: &brb_workload::WorkloadSpec,
    seed: u64,
    crashed: &[ProcessId],
    timeout: Duration,
) -> std::io::Result<(DeploymentReport, brb_runtime::WorkloadRun)> {
    let n = graph.node_count();
    let deployment = TcpDeployment::start(graph, config, stack, DriverOptions::default(), crashed)?;
    let schedule = spec.schedule(n, seed);
    let correct: Vec<ProcessId> = (0..n).filter(|p| !crashed.contains(p)).collect();
    let run = deployment.run_workload(
        &schedule,
        spec.mode,
        brb_runtime::Pacing::Unpaced,
        &correct,
        timeout,
    );
    Ok((deployment.shutdown(), run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use brb_graph::generate;
    use brb_sim::Behavior;

    #[test]
    fn tcp_batched_send_accounts_identically_and_arrives_intact() {
        // A burst through TcpTransport::send_batch (one write syscall) must report the
        // same copy/byte totals as frame-at-a-time sends and deliver the same frames,
        // in order, through the standard length-prefixed reader.
        let graph = generate::complete(2);
        let endpoints = crate::endpoint::bind_endpoints(2).unwrap();
        let mut links = crate::endpoint::connect_mesh(&graph, &endpoints).unwrap();
        let (tx, rx) = unbounded();
        for (peer, stream) in links[1].readers.drain() {
            crate::endpoint::spawn_link_reader(peer, stream, tx.clone());
        }
        let (_unused_tx, node0_mailbox) = unbounded();
        let mut t0 = TcpTransport::new(std::mem::take(&mut links[0].writers), node0_mailbox);

        let frames: Vec<OutFrame> = (0..4)
            .map(|i| OutFrame::new(Bytes::from(vec![0xA0 + i as u8; 5 + i]), 200 + i))
            .collect();
        let mut per_frame = SendReceipt::default();
        for f in &frames {
            per_frame.record(1, f.wire_size); // send() returns 1 per linked neighbor
        }
        let receipt = t0.send_batch(1, &frames);
        assert_eq!(
            receipt, per_frame,
            "batched receipt equals per-frame totals"
        );
        for f in &frames {
            let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(got.from, 0);
            assert_eq!(got.bytes, f.frame);
            assert!(!got.batch, "TCP bursts reframe as standard single frames");
        }
        // And a batch to a process without a link accounts zero, like send().
        assert_eq!(t0.send_batch(7, &frames), SendReceipt::default());
    }

    #[test]
    fn tcp_workload_firehoses_the_socket_deployment() {
        let graph = generate::figure1_example();
        let config = Config::bdopt_mbd1(10, 1);
        let spec = brb_workload::WorkloadSpec::constant_rate(1_000, 16)
            .with_payload_bytes(32)
            .closed_loop(8);
        let (report, run) = run_tcp_workload(
            &graph,
            config,
            StackSpec::Bd,
            &spec,
            11,
            &[],
            Duration::from_secs(30),
        )
        .expect("deployment starts");
        assert_eq!(run.injected, 16);
        assert!(run.all_completed(), "{run:?}");
        let everyone: Vec<ProcessId> = (0..10).collect();
        assert!(report.all_delivered(&everyone, 16));
        assert!(report.total_bytes() > 0);
    }

    #[test]
    fn tcp_broadcast_delivers_everywhere() {
        let graph = generate::figure1_example();
        let config = Config::bdopt_mbd1(10, 1);
        let report = run_tcp_broadcast(
            &graph,
            config,
            StackSpec::Bd,
            Payload::from("tcp hello"),
            0,
            &[],
            Duration::from_secs(20),
        )
        .expect("deployment starts");
        let everyone: Vec<ProcessId> = (0..10).collect();
        assert!(
            report.all_delivered(&everyone, 1),
            "every process must deliver"
        );
        assert!(report.total_messages() > 0);
        assert!(report.total_bytes() > 0);
        for node in &report.nodes {
            assert_eq!(node.deliveries[0].payload, Payload::from("tcp hello"));
        }
    }

    #[test]
    fn tcp_broadcast_with_crashed_process_still_delivers() {
        let graph = generate::circulant(13, 2); // 4-regular, supports f = 1
        let config = Config::bandwidth_preset(13, 1);
        let crashed = [4usize];
        let report = run_tcp_broadcast(
            &graph,
            config,
            StackSpec::Bd,
            Payload::filled(7, 256),
            0,
            &crashed,
            Duration::from_secs(20),
        )
        .expect("deployment starts");
        let correct: Vec<ProcessId> = (0..13).filter(|p| !crashed.contains(p)).collect();
        assert!(report.all_delivered(&correct, 1));
        assert!(report.nodes[4].deliveries.is_empty());
    }

    #[test]
    fn deployment_reports_process_count_and_handles_shutdown_without_broadcast() {
        let graph = generate::ring(4);
        let config = Config::plain(4, 0);
        let deployment =
            TcpDeployment::start(&graph, config, StackSpec::Bd, DriverOptions::default(), &[])
                .unwrap();
        assert_eq!(deployment.process_count(), 4);
        // No broadcast: awaiting deliveries times out at zero.
        assert_eq!(
            deployment.await_deliveries(1, Duration::from_millis(100)),
            0
        );
        let report = deployment.shutdown();
        assert_eq!(report.total_messages(), 0);
    }

    #[test]
    fn tcp_broadcast_runs_non_bd_stacks() {
        // Dolev's flooding protocol over real sockets: every node must RC-deliver the
        // broadcast of process 0 despite TCP-level interleavings.
        let graph = generate::figure1_example();
        let config = Config::bdopt(10, 1);
        let report = run_tcp_broadcast(
            &graph,
            config,
            StackSpec::Dolev,
            Payload::from("dolev over tcp"),
            0,
            &[],
            Duration::from_secs(20),
        )
        .expect("deployment starts");
        let everyone: Vec<ProcessId> = (0..10).collect();
        assert!(report.all_delivered(&everyone, 1));
    }

    #[test]
    fn behavior_decorators_run_over_real_sockets() {
        // A SilentTowards adversary on real TCP links: process 3 drops every frame
        // addressed to its victims, who still deliver through their other neighbors.
        let graph = generate::figure1_example();
        let config = Config::bdopt_mbd1(10, 1);
        let options =
            DriverOptions::default().with_behaviors(vec![(3, Behavior::SilentTowards(vec![2, 6]))]);
        let deployment = TcpDeployment::start(&graph, config, StackSpec::Bd, options, &[])
            .expect("deployment starts");
        deployment.broadcast(0, Payload::from("targeted over tcp"));
        deployment.await_deliveries(10, Duration::from_secs(20));
        let report = deployment.shutdown();
        let correct: Vec<ProcessId> = (0..10).filter(|&p| p != 3).collect();
        assert!(report.all_delivered(&correct, 1));
    }
}
