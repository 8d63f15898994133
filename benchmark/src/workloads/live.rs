//! The three live workloads: thread-per-process deployments over channels or loopback
//! TCP, loaded by the benchmark's own generator ([`crate::gen`]).
//!
//! Untraced repetitions run the product's own constructors (`Deployment::start`,
//! `TcpDeployment::start`). Traced repetitions assemble the same nodes from the same
//! public pieces, with a [`TimedEngine`] around each engine and a [`TimedTransport`]
//! around each base transport, and read each node thread's scheduler statistics when
//! `NodeDriver::run` returns.

use std::net::TcpStream;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use brb_core::config::Config;
use brb_core::stack::StackSpec;
use brb_core::types::{Delivery, Payload, ProcessId};
use brb_graph::{generate, Graph};
use brb_net::{bind_endpoints, connect_mesh, TcpDeployment, TcpTransport};
use brb_runtime::Deployment;
use brb_transport::{
    build_links, ChannelTransport, Command, DeploymentReport, DriverOptions, NodeDriver,
    NodeReport, Transport,
};
use crossbeam::channel::{unbounded, Receiver, Sender};

use super::{Rep, RepRequest, Topology};
use crate::check::check_logs;
use crate::gen::{drive, Load, LoadPlan};
use crate::host::{process_cpu_s, thread_sched, unnamed_threads_cpu_s, ThreadSched};
use crate::seeds::Seeds;
use crate::stats::{median, percentile};
use crate::timed::{TimedEngine, TimedTransport};
use crate::trace::{solve_cpu_split, take_gap_times, CallTimes, TraceHub};

/// Measured phases a run is split into, each on a fresh deployment.
pub const REPETITIONS: usize = 3;

/// How long after the last injection an undelivered broadcast counts as failed.
const COMPLETION_TIMEOUT: Duration = Duration::from_secs(20);

/// What carries the frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// crossbeam channels (`brb_runtime::Deployment`).
    Channel,
    /// Loopback TCP sockets (`brb_net::TcpDeployment`).
    Tcp,
}

/// A live workload.
#[derive(Debug, Clone, Copy)]
pub struct LiveSpec {
    /// The protocol stack every node runs.
    pub stack: StackSpec,
    /// The (fixed) topology.
    pub graph: fn() -> Graph,
    /// The engines' configuration.
    pub config: fn() -> Config,
    /// Byzantine processes tolerated: the topology must be `2f+1`-connected.
    pub f: usize,
    /// What carries the frames.
    pub backend: Backend,
    /// Payload size.
    pub payload_bytes: usize,
    /// Closed or open loop.
    pub load: Load,
}

/// `chan_bracha_n10_64b_closed8`.
pub const CHAN_BRACHA: LiveSpec = LiveSpec {
    stack: StackSpec::Bracha,
    graph: || generate::complete(10),
    config: || Config::plain(10, 3),
    f: 3,
    backend: Backend::Channel,
    payload_bytes: 64,
    load: Load::Closed { clients: 8 },
};

/// `tcp_bd_fig1_64b_closed8`.
pub const TCP_BD: LiveSpec = LiveSpec {
    stack: StackSpec::Bd,
    graph: generate::figure1_example,
    config: || Config::bdopt_mbd1(10, 1),
    f: 1,
    backend: Backend::Tcp,
    payload_bytes: 64,
    load: Load::Closed { clients: 8 },
};

/// `chan_bd_fig1_1k_open250`.
pub const CHAN_BD_OPEN: LiveSpec = LiveSpec {
    stack: StackSpec::Bd,
    graph: generate::figure1_example,
    config: || Config::bdopt_mbd1(10, 1),
    f: 1,
    backend: Backend::Channel,
    payload_bytes: 1024,
    load: Load::Open { rate_per_s: 250.0 },
};

/// The span names of the two base transports.
const CHANNEL_SEND: &str = "transport.channel.send";
const TCP_SEND: &str = "net.tcp.send";

/// What a node thread reads about itself once `NodeDriver::run` has returned.
struct NodeThread {
    /// Its CPU and run-queue time, exact, from the scheduler.
    sched: ThreadSched,
    /// The sampled CPU time of the gaps between its wrapped calls: the driver's own.
    gaps: CallTimes,
}

/// The same nodes `Deployment::start` / `TcpDeployment::start` build, assembled here so
/// that the wrappers sit around each engine and each base transport.
struct TracedDeployment {
    handles: Vec<JoinHandle<(NodeReport, NodeThread)>>,
    commands: Vec<Sender<Command>>,
    deliveries: Receiver<(ProcessId, Delivery)>,
    /// TCP only: a clone of every stream, to unblock the readers at shutdown ...
    streams: Vec<TcpStream>,
    /// ... and the reader threads themselves, which are joined.
    readers: Vec<JoinHandle<()>>,
    connect_mesh_ms: f64,
}

impl TracedDeployment {
    fn start(
        spec: &LiveSpec,
        graph: &Graph,
        options: &DriverOptions,
        hub: &Arc<TraceHub>,
    ) -> std::io::Result<Self> {
        let n = graph.node_count();
        let config = (spec.config)();
        let shared_graph = Arc::new(graph.clone());
        let (delivery_tx, deliveries) = unbounded();
        let mut deployment = Self {
            handles: Vec::with_capacity(n),
            commands: Vec::with_capacity(n),
            deliveries,
            streams: Vec::new(),
            readers: Vec::new(),
            connect_mesh_ms: 0.0,
        };
        let mut transports: Vec<Box<dyn Transport>> = Vec::with_capacity(n);
        match spec.backend {
            Backend::Channel => {
                let (mailboxes, senders) = build_links(n, &graph.edges());
                for (id, (mailbox, links)) in mailboxes.into_iter().zip(senders).enumerate() {
                    let base = ChannelTransport::new(mailbox, links);
                    transports.push(Box::new(TimedTransport::new(
                        base,
                        CHANNEL_SEND,
                        id,
                        Arc::clone(hub),
                    )));
                }
            }
            Backend::Tcp => {
                let started = Instant::now();
                let endpoints = bind_endpoints(n)?;
                let links = connect_mesh(graph, &endpoints)?;
                deployment.connect_mesh_ms = started.elapsed().as_secs_f64() * 1e3;
                for (id, node_links) in links.into_iter().enumerate() {
                    for stream in node_links.writers.values() {
                        deployment.streams.push(stream.try_clone()?);
                    }
                    let (mailbox_tx, mailbox_rx) = unbounded();
                    for (peer, stream) in node_links.readers {
                        deployment
                            .readers
                            .push(brb_net::endpoint::spawn_link_reader(
                                peer,
                                stream,
                                mailbox_tx.clone(),
                            ));
                    }
                    let base = TcpTransport::new(node_links.writers, mailbox_rx);
                    transports.push(Box::new(TimedTransport::new(
                        base,
                        TCP_SEND,
                        id,
                        Arc::clone(hub),
                    )));
                }
            }
        }
        for (id, transport) in transports.into_iter().enumerate() {
            let (command_tx, command_rx) = unbounded();
            deployment.commands.push(command_tx);
            let engine = TimedEngine::new(
                spec.stack.build_shared(&config, &shared_graph, id),
                Arc::clone(hub),
                spec.stack == StackSpec::Bd,
                true,
            );
            let driver = NodeDriver::new(
                Box::new(engine),
                transport,
                command_rx,
                delivery_tx.clone(),
                options,
            );
            // `run` consumes the driver, so engine and transport wrappers have handed
            // their records to the hub by the time the thread reads its own clock.
            let handle = std::thread::Builder::new()
                .name(format!("bn-node-{id}"))
                .spawn(move || {
                    let report = driver.run();
                    let thread = NodeThread {
                        sched: thread_sched(),
                        gaps: take_gap_times(),
                    };
                    (report, thread)
                })?;
            deployment.handles.push(handle);
        }
        Ok(deployment)
    }

    fn shutdown(self) -> Result<(DeploymentReport, Vec<NodeThread>), String> {
        for command in &self.commands {
            let _ = command.send(Command::Shutdown);
        }
        let mut nodes = Vec::with_capacity(self.handles.len());
        let mut threads = Vec::with_capacity(self.handles.len());
        for handle in self.handles {
            let (report, thread) = handle.join().map_err(|_| "a node thread panicked")?;
            nodes.push(report);
            threads.push(thread);
        }
        for stream in &self.streams {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        for reader in self.readers {
            reader.join().map_err(|_| "a reader thread panicked")?;
        }
        nodes.sort_by_key(|node| node.id);
        Ok((DeploymentReport { nodes }, threads))
    }
}

/// A deployment under load, traced or not.
enum Running {
    Channel(Deployment),
    Tcp(TcpDeployment),
    Traced(TracedDeployment),
}

impl Running {
    fn start(
        spec: &LiveSpec,
        graph: &Graph,
        seeds: &Seeds,
        hub: Option<&Arc<TraceHub>>,
    ) -> Result<Self, String> {
        let options = DriverOptions {
            seed: seeds.run,
            ..DriverOptions::default()
        };
        let config = (spec.config)();
        Ok(match (hub, spec.backend) {
            (Some(hub), _) => Running::Traced(
                TracedDeployment::start(spec, graph, &options, hub).map_err(|e| e.to_string())?,
            ),
            (None, Backend::Channel) => {
                Running::Channel(Deployment::start(graph, config, spec.stack, options, &[]))
            }
            (None, Backend::Tcp) => Running::Tcp(
                TcpDeployment::start(graph, config, spec.stack, options, &[])
                    .map_err(|e| e.to_string())?,
            ),
        })
    }

    fn broadcast(&self, source: ProcessId, payload: Payload) {
        match self {
            Running::Channel(deployment) => deployment.broadcast(source, payload),
            Running::Tcp(deployment) => deployment.broadcast(source, payload),
            Running::Traced(deployment) => {
                let _ = deployment.commands[source].send(Command::Broadcast(payload));
            }
        }
    }

    fn deliveries(&self) -> &Receiver<(ProcessId, Delivery)> {
        match self {
            Running::Channel(deployment) => deployment.deliveries(),
            Running::Tcp(deployment) => deployment.deliveries(),
            Running::Traced(deployment) => &deployment.deliveries,
        }
    }

    fn connect_mesh_ms(&self) -> f64 {
        match self {
            Running::Traced(deployment) => deployment.connect_mesh_ms,
            _ => 0.0,
        }
    }

    fn shutdown(self) -> Result<(DeploymentReport, Vec<NodeThread>), String> {
        match self {
            Running::Channel(deployment) => Ok((deployment.shutdown(), Vec::new())),
            Running::Tcp(deployment) => Ok((deployment.shutdown(), Vec::new())),
            Running::Traced(deployment) => deployment.shutdown(),
        }
    }
}

fn topology(spec: &LiveSpec) -> Result<Topology, String> {
    let topology = Topology::timed(spec.graph, spec.f);
    if !topology.connected {
        return Err(format!("topology is not {}-connected", 2 * spec.f + 1));
    }
    Ok(topology)
}

/// Starts the workload's deployment and shuts it down again: one more `setup_s` sample.
///
/// # Errors
///
/// Returns the failed precondition or socket error.
pub fn setup_only(spec: &LiveSpec, seeds: &Seeds) -> Result<f64, String> {
    let started = Instant::now();
    let topology = topology(spec)?;
    let running = Running::start(spec, &topology.graph, seeds, None)?;
    let setup_s = started.elapsed().as_secs_f64();
    running.shutdown()?;
    Ok(setup_s)
}

/// Runs one repetition: a fresh deployment, one load phase, shutdown, the correctness
/// gate.
///
/// # Errors
///
/// Returns the failed precondition, socket error or BRB violation.
pub fn repetition(spec: &LiveSpec, request: &RepRequest<'_>) -> Result<Rep, String> {
    let hub = request.hub.as_ref();
    let life_cpu_before = process_cpu_s();
    let setup_started = Instant::now();
    let topology = topology(spec)?;
    let start_started = Instant::now();
    let start_cpu_before = process_cpu_s();
    let running = Running::start(spec, &topology.graph, request.seeds, hub)?;
    let start_cpu_s = process_cpu_s() - start_cpu_before;
    let start_ms = start_started.elapsed().as_secs_f64() * 1e3;
    let setup_s = setup_started.elapsed().as_secs_f64();

    let n = topology.graph.node_count();
    let plan = LoadPlan {
        n,
        payload_bytes: spec.payload_bytes,
        seed: request.seeds.payload,
        load: spec.load,
        phase: request.phase,
        completion_timeout: COMPLETION_TIMEOUT,
    };
    let cpu_before = process_cpu_s();
    let load = drive(
        |source, payload| running.broadcast(source, payload),
        running.deliveries(),
        &plan,
        hub.map(Arc::as_ref),
    );
    let cpu_s = process_cpu_s() - cpu_before;
    // Reader threads are spawned unnamed by `spawn_link_reader`; they are still alive.
    let reader_cpu_s = match (hub, spec.backend) {
        (Some(_), Backend::Tcp) => unnamed_threads_cpu_s(),
        _ => 0.0,
    };
    let connect_mesh_ms = running.connect_mesh_ms();

    let shutdown_started = Instant::now();
    let (report, node_threads) = running.shutdown()?;
    let shutdown_ms = shutdown_started.elapsed().as_secs_f64() * 1e3;
    let life_cpu_s = process_cpu_s() - life_cpu_before;

    // The correctness gate: all four BRB properties over the nodes' delivery logs.
    let everyone: Vec<ProcessId> = (0..n).collect();
    {
        let logs: Vec<&[Delivery]> = report
            .nodes
            .iter()
            .map(|node| node.deliveries.as_slice())
            .collect();
        check_logs(&logs, &everyone, &load.records).map_err(|v| v.to_string())?;
    }
    if let Load::Open { .. } = spec.load {
        let lag_p50_ms = median(&load.lag_ms);
        if lag_p50_ms > 1.0 {
            return Err(format!(
                "the open-loop generator ran {lag_p50_ms:.3} ms late at the median (> 1 ms): the run does not measure the offered rate"
            ));
        }
    }

    let mut rep = Rep {
        setup_s,
        wall_s: load.wall_s,
        cpu_s,
        attempted: load.records.len() as u64,
        completed: load.completed,
        bytes: report.total_bytes() as u64,
        messages: report.total_messages() as u64,
        latency_p50_ms: if load.latencies_ms.is_empty() {
            f64::INFINITY
        } else {
            median(&load.latencies_ms)
        },
        ..Rep::default()
    };
    let layers = &mut rep.layers;
    topology.layers(layers);
    layers.insert("workload.schedule_ms", load.schedule_ms);
    if !load.lag_ms.is_empty() {
        layers.insert("workload.generator_lag_p50_ms", median(&load.lag_ms));
        layers.insert(
            "workload.generator_lag_max_ms",
            percentile(&load.lag_ms, 100.0),
        );
    }
    layers.insert("workload.achieved_rate_per_s", load.achieved_rate_per_s);
    layers.insert(
        "core.gc.retired",
        report.nodes.iter().map(|node| node.gc_retired as f64).sum(),
    );
    layers.insert(
        "core.gc.retained_state_bytes",
        report
            .nodes
            .iter()
            .map(|node| node.state_bytes as f64)
            .sum(),
    );
    layers.insert("runtime.start_ms", start_ms);
    layers.insert("runtime.start_cpu_s", start_cpu_s);
    layers.insert("runtime.shutdown_ms", shutdown_ms);
    layers.insert("runtime.harness_cpu_s", load.harness_cpu_s);
    if !load.latencies_ms.is_empty() {
        layers.insert(
            "runtime.latency_p90_ms",
            percentile(&load.latencies_ms, 90.0),
        );
        layers.insert(
            "runtime.latency_p99_ms",
            percentile(&load.latencies_ms, 99.0),
        );
        layers.insert(
            "runtime.latency_max_ms",
            percentile(&load.latencies_ms, 100.0),
        );
    }
    layers.insert("runtime.deliveries_seen", load.deliveries_seen as f64);
    if let Some(hub) = hub {
        hub.push_spans(load.root_spans);
        let recorded = hub.take();
        let engine = recorded.engine_total();
        // Node threads outnumber the cores: wall time inside a call includes the waits of
        // a thread descheduled there. The threads' CPU is known exactly; it is split
        // among engine calls, send calls and the driver's own gaps by the sampled CPU
        // clock readings.
        let sends = &recorded.sends;
        let mut gaps = CallTimes::default();
        for thread in &node_threads {
            gaps.merge(&thread.gaps);
        }
        let thread_cpu_s: f64 = node_threads.iter().map(|t| t.sched.run_s).sum();
        let clock_cost_ns = solve_cpu_split(
            &[&engine.handle, &engine.broadcast, &sends.calls, &gaps],
            thread_cpu_s * 1e9,
        );
        let send_cpu_s = sends.calls.cpu_total_ns(clock_cost_ns) / 1e9;
        let driver_self_s = gaps.cpu_total_ns(clock_cost_ns) / 1e9;
        super::engine_layers(layers, &engine, Some(clock_cost_ns));
        layers.insert("transport.driver.thread_cpu_s", thread_cpu_s);
        layers.insert(
            "transport.driver.runq_wait_s",
            node_threads.iter().map(|t| t.sched.wait_s).sum(),
        );
        layers.insert("transport.driver.self_s", driver_self_s);
        layers.insert(
            "transport.driver.self_ns_per_frame",
            driver_self_s * 1e9 / engine.handle.calls.max(1) as f64,
        );
        layers.insert("bench.cpu_clock_cost_ns", clock_cost_ns);
        let send_calls = sends.calls.calls as f64;
        let send_busy_s = sends.calls.wall_ns as f64 / 1e9;
        let ns_per_send = sends.calls.cpu_mean_ns(clock_cost_ns);
        match spec.backend {
            Backend::Channel => {
                layers.insert("transport.channel.sends", send_calls);
                layers.insert("transport.channel.send_busy_s", send_busy_s);
                layers.insert("transport.channel.send_cpu_s", send_cpu_s);
                layers.insert("transport.channel.ns_per_send", ns_per_send);
                layers.insert(
                    "transport.channel.frames_per_op",
                    sends.frames as f64 / send_calls.max(1.0),
                );
            }
            Backend::Tcp => {
                layers.insert("net.tcp.sends", send_calls);
                layers.insert("net.tcp.send_busy_s", send_busy_s);
                layers.insert("net.tcp.send_cpu_s", send_cpu_s);
                layers.insert("net.tcp.ns_per_send", ns_per_send);
                layers.insert("net.tcp.connect_mesh_ms", connect_mesh_ms);
                layers.insert("net.tcp.reader_cpu_s", reader_cpu_s);
            }
        }
        layers.insert(
            "bench.unattributed_share",
            super::unattributed(
                life_cpu_s,
                start_cpu_s + thread_cpu_s + reader_cpu_s + load.harness_cpu_s,
            ),
        );
        layers.insert("bench.spans_recorded", recorded.spans.len() as f64);
        rep.recorded = Some(recorded);
    }
    Ok(rep)
}
