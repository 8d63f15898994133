//! The transport-generic node event loop shared by every live deployment.
//!
//! `brb-runtime` and `brb-net` used to each carry their own near-identical node loop
//! (command handling, idle shutdown, jitter sleeps, `WireActionBuf` dispatch). The
//! [`NodeDriver`] is that loop, written once against the [`Transport`] abstraction: a
//! deployment builds one driver per process — a boxed [`DynEngine`], a decorated
//! transport, a command channel and the shared delivery channel — spawns `run()` on a
//! thread, and collects the [`NodeReport`]s at shutdown. The deployments themselves are
//! thereby reduced to *constructors* (wire the links, build the engines, spawn drivers).

use std::sync::Arc;
use std::time::Duration;

use brb_core::stack::{DynEngine, WireAction, WireActionBuf};
use brb_core::types::{Delivery, Payload, ProcessId};
use brb_core::wire::split_batch;
use brb_sim::churn::RestartMemory;
use brb_sim::Behavior;
use brb_trace::{DropCounts, NodeCounters, TraceEventKind, TraceSink, Tracer};
use crossbeam::channel::{Receiver, Sender};

use crate::churn::{ChurnHandle, ChurnLink};
use crate::link::Frame;
use crate::policy::{DelayedLink, FaultyLink, LinkDelay, LinkObserver, LinkPolicy};
use crate::transport::{OutFrame, Transport};

/// Structured-trace configuration of a live deployment: one shared sink and one shared
/// **wall-clock** epoch, so every node's events are stamped on the same time base.
///
/// Build one per deployment ([`TraceConfig::new`]) and install it with
/// [`DriverOptions::with_trace`]; each node's driver derives its tracer from it and
/// threads the handle through its engine and link decorators.
#[derive(Clone)]
pub struct TraceConfig {
    sink: Arc<dyn TraceSink>,
    backend: brb_trace::Backend,
    clock: brb_trace::Clock,
}

impl TraceConfig {
    /// A trace configuration for `backend` writing to `sink`, with the shared epoch
    /// anchored at the moment of this call.
    pub fn new(backend: brb_trace::Backend, sink: Arc<dyn TraceSink>) -> Self {
        Self {
            sink,
            backend,
            clock: brb_trace::Clock::wall_from_now(),
        }
    }

    /// The tracer a node derives from this configuration (all nodes share the sink and
    /// the epoch).
    pub fn tracer(&self) -> Tracer {
        Tracer::new(self.backend, self.clock.clone(), self.sink.clone())
    }
}

impl std::fmt::Debug for TraceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceConfig")
            .field("backend", &self.backend)
            .finish_non_exhaustive()
    }
}

/// Commands a deployment sends to one of its node drivers.
#[derive(Debug, Clone)]
pub enum Command {
    /// Initiate the broadcast of the given payload.
    ///
    /// Broadcasts initiated this way mint ids in the **client instance namespace**
    /// (`brb_core::types::NAMESPACE_CLIENT`): engines allocate the next free local
    /// sequence number under namespace 0, so deployment-initiated client traffic can
    /// never collide with the ids a decorator engine (e.g. a
    /// `brb_consensus::ConsensusEngine`, which owns `NAMESPACE_CONSENSUS`) mints for
    /// its own internal broadcasts on the same node.
    Broadcast(Payload),
    /// Crash-recover the node: its engine (all volatile protocol state) is discarded
    /// and rebuilt through the driver's engine factory; the durable delivered log
    /// survives. A no-op when no factory was installed
    /// (see [`NodeDriver::with_engine_factory`]).
    Restart,
    /// Finish processing pending traffic, then exit and report.
    Shutdown,
}

/// Options of a live deployment, shared by the channel runtime and the TCP backend.
///
/// They say *what* a deployment runs — idle shutdown, seeds, the [`LinkPolicy`]
/// vocabulary (per-process Byzantine [`Behavior`]s and a wall-clock-scaled
/// [`brb_sim::DelayModel`], so the simulator's scenario configurations run identically
/// on the live backends), churn, GC and tracing — never *how* the driver moves frames:
/// every node runs one engine, drains its inbound backlog into it and sends each engine
/// event's frames as one [`Transport::send_batch`] burst per destination, traced or not.
#[derive(Debug, Clone)]
pub struct DriverOptions {
    /// How long a node waits without any traffic before it considers the broadcast
    /// quiesced and checks for shutdown. [`DriverOptions::default`] uses 300 ms.
    pub idle_shutdown: Duration,
    /// Base seed of the per-node RNG streams (delay jitter, behavior drop decisions);
    /// process `i` derives its streams from `seed + i`.
    pub seed: u64,
    /// Byzantine behavior assignments, `(process, behavior)`. Unlisted processes are
    /// [`Behavior::Correct`]; later entries override earlier ones. [`Behavior::Crash`]
    /// spawns the node but makes it deaf and mute, indistinguishable from a process that
    /// crashed at start-up.
    pub behaviors: Vec<(ProcessId, Behavior)>,
    /// Per-frame transmission delay applied on every node's outbound links
    /// ([`LinkDelay::MeanJitter`] for a fixed `mean + uniform(0..=jitter)`,
    /// [`LinkDelay::Scaled`] for the paper's distributions).
    pub link_delay: LinkDelay,
    /// Instance-GC retention policy installed on every node's engine. `None` (the
    /// default) leaves whatever the engine's [`brb_core::config::Config`] seeded —
    /// usually disabled — so per-broadcast state is kept forever, the pre-GC behavior.
    pub gc: Option<brb_core::gc::GcPolicy>,
    /// Churn schedule of the deployment, when one is set: every node's transport is
    /// gated by the handle's shared link state ([`ChurnLink`] outermost, so a frame on
    /// a downed link never reaches a behavior or delay decorator — the simulator's
    /// ordering), and per-link delay overrides ride the delay line. The deployment is
    /// responsible for spawning the pacer ([`ChurnHandle::spawn_pacer`]).
    pub churn: Option<ChurnHandle>,
    /// Structured-trace configuration: when set, every node's engine and link
    /// decorators emit [`brb_trace::TraceEvent`]s into the shared sink, stamped with
    /// wall-clock microseconds since the config's epoch. `None` — the default — keeps
    /// tracing disabled (a single branch per would-be event).
    pub trace: Option<TraceConfig>,
}

impl Default for DriverOptions {
    /// The defaults the two deleted options structs both used (no delay, 300 ms idle
    /// shutdown, seed 1), now stated once, plus all-correct behaviors and no link delay.
    fn default() -> Self {
        Self {
            idle_shutdown: Duration::from_millis(300),
            seed: 1,
            behaviors: Vec::new(),
            link_delay: LinkDelay::None,
            gc: None,
            churn: None,
            trace: None,
        }
    }
}

impl DriverOptions {
    /// The defaults every deployment shares: no delay, 300 ms idle shutdown, seed 1,
    /// all-correct behaviors.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a copy with the given behavior assignments installed.
    pub fn with_behaviors(mut self, behaviors: Vec<(ProcessId, Behavior)>) -> Self {
        self.behaviors = behaviors;
        self
    }

    /// Returns a copy with the given link delay installed.
    pub fn with_link_delay(mut self, link_delay: LinkDelay) -> Self {
        self.link_delay = link_delay;
        self
    }

    /// Returns a copy with the given instance-GC retention policy installed on every
    /// node's engine.
    pub fn with_gc(mut self, gc: brb_core::gc::GcPolicy) -> Self {
        self.gc = Some(gc);
        self
    }

    /// Returns a copy with the given churn schedule installed on every node's links.
    pub fn with_churn(mut self, churn: ChurnHandle) -> Self {
        self.churn = Some(churn);
        self
    }

    /// Returns a copy with structured tracing enabled on every node (see
    /// [`TraceConfig`]).
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The tracer resolved for every node: derived from [`DriverOptions::trace`] when
    /// set, disabled otherwise.
    pub fn tracer(&self) -> Tracer {
        self.trace
            .as_ref()
            .map(TraceConfig::tracer)
            .unwrap_or_default()
    }

    /// The behavior assigned to `process` (the last matching entry wins).
    pub fn behavior_of(&self, process: ProcessId) -> Behavior {
        self.behaviors
            .iter()
            .rev()
            .find(|(p, _)| *p == process)
            .map(|(_, b)| b.clone())
            .unwrap_or_default()
    }

    /// The [`LinkPolicy`] this options set resolves to for `process`: its assigned
    /// behavior plus the deployment-wide [`DriverOptions::link_delay`].
    pub fn policy_of(&self, process: ProcessId) -> LinkPolicy {
        LinkPolicy {
            behavior: self.behavior_of(process),
            delay: self.link_delay.clone(),
        }
    }

    /// Decorates `base` with the fault/delay policy resolved for `process`
    /// (see [`LinkPolicy::decorate`]), plus the churn gate when a schedule is set.
    ///
    /// With churn the composition is, outermost first: [`ChurnLink`] (downed-link gate
    /// and loss overrides), the behavior ([`FaultyLink`]), the delay line
    /// ([`DelayedLink`], always present so the per-link delay overrides have a line to
    /// ride even under [`LinkDelay::None`]) — the exact order the simulator applies per
    /// `Send` action, so a gated frame advances no behavior counter and samples no
    /// delay. An observed stack also taps the delay line's input, emitting one
    /// `FrameSent` per transmitted copy.
    pub fn decorate(&self, process: ProcessId, base: Box<dyn Transport>) -> Box<dyn Transport> {
        self.decorate_observed(process, base, None)
    }

    /// [`DriverOptions::decorate`] with every decorator's drop/occupancy accounting
    /// routed into `observer` (what [`NodeDriver::new`] installs).
    pub fn decorate_observed(
        &self,
        process: ProcessId,
        base: Box<dyn Transport>,
        observer: Option<LinkObserver>,
    ) -> Box<dyn Transport> {
        let seed = self.seed.wrapping_add(process as u64);
        let Some(handle) = &self.churn else {
            return self
                .policy_of(process)
                .decorate_observed(base, seed, observer);
        };
        let policy = self.policy_of(process);
        let mut transport: Box<dyn Transport> = match &observer {
            Some(obs) => obs.traced(Box::new(
                DelayedLink::observed(base, policy.delay.clone(), seed, obs.clone())
                    .churned(handle.clone(), process),
            )),
            None => Box::new(
                DelayedLink::new(base, policy.delay.clone(), seed).churned(handle.clone(), process),
            ),
        };
        if policy.behavior.is_byzantine() {
            // The same distinct stream LinkPolicy::decorate derives, so a behavior's
            // drop decisions do not move when churn is enabled.
            let mut faulty = FaultyLink::new(
                transport,
                policy.behavior.clone(),
                seed ^ 0x5EED_B44A_D001_CAFE,
            );
            if let Some(obs) = &observer {
                faulty = faulty.with_observer(obs.clone());
            }
            transport = Box::new(faulty);
        }
        let mut gate = ChurnLink::new(
            transport,
            handle.clone(),
            process,
            seed ^ 0xC4C4_D70B_1055_CAFE,
        );
        if let Some(obs) = observer {
            gate = gate.with_observer(obs);
        }
        Box::new(gate)
    }
}

/// Final report of one node driver (the default is an empty report of process 0).
#[derive(Debug, Clone, Default)]
pub struct NodeReport {
    /// Identifier of the process.
    pub id: ProcessId,
    /// Payloads delivered by the process, in delivery order.
    pub deliveries: Vec<Delivery>,
    /// Number of frames the process put on its links (amplified copies each count).
    pub messages_sent: usize,
    /// Total bytes the process put on its links (Table 3 accounting).
    pub bytes_sent: usize,
    /// Protocol-state bytes the engine still held at shutdown (flat under instance GC,
    /// growing with every broadcast without it).
    pub state_bytes: usize,
    /// Broadcast instances the engine retired through watermark GC (summed across
    /// restarts: retirements of discarded engines are carried over).
    pub gc_retired: u64,
    /// Number of [`Command::Restart`]s the node carried out.
    pub restarts: u64,
    /// Frames the node's link decorators discarded, broken down by cause (churn
    /// gating, loss overrides, Byzantine behavior, non-neighbor sends), plus the inbound
    /// frames its engines refused for naming a label outside the system
    /// ([`brb_trace::DropCause::Malformed`]). Engines' GC-retired ingress drops surface
    /// only in the trace, not here.
    pub drops_by_cause: DropCounts,
    /// Peak occupancy of the node's delay line (0 without a [`LinkDelay`] that queues).
    pub queue_depth_peak: u64,
    /// The node's consensus decision, when the deployment ran binary consensus over
    /// BRB (`brb-consensus`). The driver itself never sets this — it reports `None`
    /// and the consensus harness patches the field in from the engines'
    /// [`brb_consensus::DecisionHandle`]s after shutdown.
    pub decision: Option<brb_consensus::Decision>,
}

/// Aggregated report of a whole deployment run.
#[derive(Debug, Clone)]
pub struct DeploymentReport {
    /// Per-node reports, indexed by process identifier.
    pub nodes: Vec<NodeReport>,
}

impl DeploymentReport {
    /// Total number of messages transmitted.
    pub fn total_messages(&self) -> usize {
        self.nodes.iter().map(|n| n.messages_sent).sum()
    }

    /// Total bytes transmitted.
    pub fn total_bytes(&self) -> usize {
        self.nodes.iter().map(|n| n.bytes_sent).sum()
    }

    /// Whether every listed process delivered exactly `expected` payloads.
    pub fn all_delivered(&self, processes: &[ProcessId], expected: usize) -> bool {
        processes
            .iter()
            .all(|&p| self.nodes[p].deliveries.len() == expected)
    }
}

/// What the driver loop woke up on in one iteration.
enum Wake {
    Command(Option<Command>),
    Frame(Option<crate::link::Frame>),
    Idle,
}

/// One node of a live deployment: a boxed protocol engine, its (decorated) transport, a
/// reusable action sink, and the command/delivery channels back to the deployment.
///
/// The event loop wakes on a command or an inbound frame, drains the inbound backlog
/// (up to `DRAIN_BUDGET` frames) into the engine, dispatches the resulting
/// [`WireAction`]s — frames to the transport as one [`Transport::send_batch`] burst per
/// destination, deliveries to the shared channel — and shuts down once the shutdown
/// command arrived and the inbound stream drained, with the idle timeout bounding how
/// long quiescence detection waits. A burst of one frame is the frame-at-a-time case;
/// there is no other send path, traced or not.
pub struct NodeDriver {
    engine: Box<dyn DynEngine>,
    actions: WireActionBuf,
    transport: Box<dyn Transport>,
    commands: Receiver<Command>,
    deliveries: Sender<(ProcessId, Delivery)>,
    idle_shutdown: Duration,
    /// Whether the node processes inbound traffic and broadcast commands at all
    /// (`false` only for [`Behavior::Crash`], whose outbound side the decorator already
    /// silences).
    receives: bool,
    /// Rebuilds a fresh engine on [`Command::Restart`]. `None` (the default) makes
    /// restarts no-ops — only deployments running a churn schedule with restarts
    /// install one.
    engine_factory: Option<Box<dyn FnMut() -> Box<dyn DynEngine> + Send>>,
    /// The durable compact state a restart preserves: the ids delivered by discarded
    /// engines (suppressing post-restart re-deliveries, the no-duplication-across-
    /// crashes property) ...
    memory: RestartMemory,
    /// ... and those deliveries themselves, in order, for the final report.
    durable: Vec<Delivery>,
    /// The GC policy to re-install on a rebuilt engine (the factory builds from the
    /// raw config, which usually has GC disabled).
    gc: Option<brb_core::gc::GcPolicy>,
    /// GC retirements of discarded engines, carried into the final report.
    retired_before: u64,
    /// Number of restarts carried out.
    restarts: u64,
    /// The node's always-on counter registry, shared with its link decorators.
    counters: Arc<NodeCounters>,
    /// The node's tracer (disabled unless [`DriverOptions::trace`] was set).
    tracer: Tracer,
    /// Reusable per-destination staging of one dispatch: destination slots are created
    /// on first use and their `Vec` capacity is retained across dispatches, so the
    /// steady-state loop allocates nothing per event.
    out_batches: Vec<(ProcessId, Vec<OutFrame>)>,
}

/// Inbound frames (channel messages, not batch parts) one ingest cycle consumes, so a
/// saturated queue cannot starve command processing or delay deliveries unboundedly.
const DRAIN_BUDGET: usize = 128;

impl NodeDriver {
    /// Builds the driver for `process`: decorates `transport` with the fault/delay
    /// policy `options` resolves for this process and wires the channels.
    pub fn new(
        engine: Box<dyn DynEngine>,
        transport: Box<dyn Transport>,
        commands: Receiver<Command>,
        deliveries: Sender<(ProcessId, Delivery)>,
        options: &DriverOptions,
    ) -> Self {
        let id = engine.process_id();
        let policy = options.policy_of(id);
        let receives = policy.behavior.receives();
        let mut engine = engine;
        if let Some(gc) = options.gc {
            engine.set_gc_policy(gc);
        }
        let tracer = options.tracer();
        let counters = Arc::new(NodeCounters::default());
        engine.set_tracer(tracer.clone().with_counters(counters.clone()));
        let observer = LinkObserver::new(id, counters.clone(), tracer.clone());
        Self {
            engine,
            actions: WireActionBuf::new(),
            transport: options.decorate_observed(id, transport, Some(observer)),
            commands,
            deliveries,
            idle_shutdown: options.idle_shutdown,
            receives,
            engine_factory: None,
            memory: RestartMemory::new(),
            durable: Vec::new(),
            gc: options.gc,
            retired_before: 0,
            restarts: 0,
            counters,
            tracer,
            out_batches: Vec::new(),
        }
    }

    /// Installs the engine factory [`Command::Restart`] rebuilds from: a deployment
    /// running a churn schedule with [`brb_sim::churn::ChurnAction::NodeRestart`] events
    /// passes the same constructor it built the original engine with, so the fresh
    /// engine re-joins with the identical identity and topology view but none of the
    /// volatile protocol state.
    #[must_use]
    pub fn with_engine_factory(
        mut self,
        factory: impl FnMut() -> Box<dyn DynEngine> + Send + 'static,
    ) -> Self {
        self.engine_factory = Some(Box::new(factory));
        self
    }

    /// Carries out a [`Command::Restart`]: absorbs the doomed engine's delivered log
    /// into the durable state, then swaps in a freshly built engine (with the GC policy
    /// re-applied). A no-op without an engine factory.
    fn restart(&mut self) {
        if self.engine_factory.is_none() {
            return;
        }
        for delivery in self.engine.deliveries() {
            if self.memory.note_delivered(delivery.id) {
                self.durable.push(delivery.clone());
            }
        }
        self.retired_before += self.engine.gc_retired();
        let factory = self.engine_factory.as_mut().expect("checked above");
        let mut fresh = factory();
        if let Some(gc) = self.gc {
            fresh.set_gc_policy(gc);
        }
        fresh.set_tracer(self.tracer.clone().with_counters(self.counters.clone()));
        self.actions.clear();
        self.engine = fresh;
        self.restarts += 1;
        self.tracer
            .emit_frame(self.engine.process_id(), TraceEventKind::Restarted);
    }

    /// Runs the node to completion (shutdown command or channel disconnection) and
    /// reports what it delivered and transmitted. Deployments call this on a dedicated
    /// thread, one per process.
    ///
    /// After the shutdown command the loop keeps ingesting until the inbound queue is
    /// empty, so a backlog that needs several drain cycles is handled in full.
    pub fn run(mut self) -> NodeReport {
        let id = self.engine.process_id();
        let started = std::time::Instant::now();
        let mut messages_sent = 0usize;
        let mut bytes_sent = 0usize;
        let mut shutting_down = false;
        loop {
            let wake = crossbeam::channel::select! {
                recv(self.commands) -> cmd => Wake::Command(cmd.ok()),
                recv(self.transport.inbound()) -> frame => Wake::Frame(frame.ok()),
                default(self.idle_shutdown) => Wake::Idle,
            };
            // Live backends feed wall-clock milliseconds since start-up, so
            // time-based retention windows measure real elapsed time.
            self.engine.note_time(started.elapsed().as_millis() as u64);
            match wake {
                Wake::Command(Some(Command::Broadcast(payload))) => {
                    if self.receives {
                        self.engine.broadcast_wire(payload, &mut self.actions);
                        self.dispatch(&mut messages_sent, &mut bytes_sent);
                    }
                }
                Wake::Command(Some(Command::Restart)) => self.restart(),
                Wake::Command(Some(Command::Shutdown) | None) | Wake::Frame(None) => {
                    shutting_down = true;
                }
                Wake::Frame(Some(frame)) => {
                    // Malformed frames are dropped inside the engine; the driver never
                    // interprets protocol bytes itself (batch framing is transport
                    // framing, not protocol bytes).
                    if self.receives {
                        self.ingest_drained(frame);
                        self.dispatch(&mut messages_sent, &mut bytes_sent);
                    }
                }
                Wake::Idle => {}
            }
            if shutting_down && self.transport.inbound().is_empty() {
                break;
            }
        }
        // The report's delivery log spans restarts: the durable pre-restart
        // deliveries first (their original order), then what the current engine
        // delivered — minus re-deliveries of durable ids, which no-duplication
        // across crashes suppresses.
        let mut deliveries = std::mem::take(&mut self.durable);
        deliveries.extend(
            self.engine
                .deliveries()
                .iter()
                .filter(|d| !self.memory.suppresses(d.id))
                .cloned(),
        );
        NodeReport {
            id,
            deliveries,
            messages_sent,
            bytes_sent,
            state_bytes: self.engine.state_bytes(),
            gc_retired: self.retired_before + self.engine.gc_retired(),
            restarts: self.restarts,
            drops_by_cause: self.counters.drops(),
            queue_depth_peak: self.counters.queue_depth_peak(),
            decision: None,
        }
    }

    /// Starting from the frame that woke the loop, drains the inbound queue (up to
    /// `DRAIN_BUDGET` frames) into **one** ingest/dispatch cycle, so outbound bursts
    /// scale with the backlog and the per-op cost amortizes exactly when the node is
    /// loaded. Under light load the queue is empty and the cycle handles one frame.
    fn ingest_drained(&mut self, first: Frame) {
        let mut frame = first;
        for drained in 1.. {
            if frame.batch {
                for bytes in split_batch(&frame.bytes).unwrap_or_default() {
                    self.engine
                        .handle_frame(frame.from, &bytes, &mut self.actions);
                }
            } else {
                self.engine
                    .handle_frame(frame.from, &frame.bytes, &mut self.actions);
            }
            if drained >= DRAIN_BUDGET {
                break;
            }
            match self.transport.inbound().try_recv() {
                Ok(next) => frame = next,
                Err(_) => break,
            }
        }
    }

    /// Executes the actions buffered by the last engine event. Deliveries go to the
    /// shared channel. `Send`s are grouped by destination (first-seen destination
    /// order, original frame order within each destination — per-link FIFO is
    /// preserved, which is all the protocols assume) and each group leaves through one
    /// [`Transport::send_batch`] call; its receipt — the copies the link policy actually
    /// put on the wire — feeds the Table 3 accounting. The action buffer is drained in
    /// place and the per-destination staging keeps its capacity, so the steady-state
    /// loop allocates nothing per event.
    fn dispatch(&mut self, messages_sent: &mut usize, bytes_sent: &mut usize) {
        for action in self.actions.drain() {
            match action {
                WireAction::Send {
                    to,
                    frame,
                    wire_size,
                } => {
                    let slot = match self.out_batches.iter().position(|(d, _)| *d == to) {
                        Some(i) => &mut self.out_batches[i].1,
                        None => {
                            self.out_batches.push((to, Vec::new()));
                            &mut self.out_batches.last_mut().expect("just pushed").1
                        }
                    };
                    slot.push(OutFrame::new(frame, wire_size));
                }
                WireAction::Deliver(delivery) => {
                    // A rebuilt engine may re-deliver an instance the node already
                    // delivered before its crash; the durable log suppresses the
                    // duplicate (no-duplication holds across restarts).
                    if self.memory.suppresses(delivery.id) {
                        continue;
                    }
                    let id = self.engine.process_id();
                    self.tracer.emit(
                        id,
                        delivery.id.source,
                        delivery.id.seq,
                        TraceEventKind::Delivered,
                    );
                    let _ = self.deliveries.send((id, delivery));
                }
            }
        }
        for (to, frames) in &mut self.out_batches {
            if frames.is_empty() {
                continue;
            }
            let receipt = self.transport.send_batch(*to, frames);
            frames.clear();
            *messages_sent += receipt.copies;
            *bytes_sent += receipt.bytes;
            self.counters.record_sends(receipt.copies as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::build_links;
    use crate::transport::ChannelTransport;
    use brb_core::config::Config;
    use brb_core::stack::StackSpec;
    use brb_core::types::BroadcastId;
    use brb_graph::generate;
    use crossbeam::channel::unbounded;

    type MiniDeployment = (
        Vec<Sender<Command>>,
        Receiver<(ProcessId, Delivery)>,
        Vec<std::thread::JoinHandle<NodeReport>>,
    );

    /// Spawns one driver per process of `graph` over channel links and returns the
    /// command senders, the delivery receiver and the join handles — a miniature
    /// deployment, built from nothing but this crate's public API.
    fn spawn_drivers(
        graph: &brb_graph::Graph,
        config: Config,
        options: &DriverOptions,
    ) -> MiniDeployment {
        let n = graph.node_count();
        let (mailboxes, senders) = build_links(n, &graph.edges());
        let (delivery_tx, delivery_rx) = unbounded();
        let mut commands = Vec::new();
        let mut handles = Vec::new();
        for (id, (mailbox, links)) in mailboxes.into_iter().zip(senders).enumerate() {
            let (cmd_tx, cmd_rx) = unbounded();
            commands.push(cmd_tx);
            let driver = NodeDriver::new(
                StackSpec::Bd.build(&config, graph, id),
                Box::new(ChannelTransport::new(mailbox, links)),
                cmd_rx,
                delivery_tx.clone(),
                options,
            );
            handles.push(std::thread::spawn(move || driver.run()));
        }
        (commands, delivery_rx, handles)
    }

    fn shutdown(
        commands: &[Sender<Command>],
        handles: Vec<std::thread::JoinHandle<NodeReport>>,
    ) -> Vec<NodeReport> {
        for tx in commands {
            let _ = tx.send(Command::Shutdown);
        }
        let mut reports: Vec<NodeReport> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        reports.sort_by_key(|r| r.id);
        reports
    }

    #[test]
    fn drivers_complete_a_broadcast_over_channel_links() {
        let graph = generate::figure1_example();
        let config = Config::bdopt_mbd1(10, 1);
        let options = DriverOptions {
            idle_shutdown: Duration::from_millis(100),
            ..DriverOptions::default()
        };
        let (commands, deliveries, handles) = spawn_drivers(&graph, config, &options);
        commands[0]
            .send(Command::Broadcast(Payload::from("driver hello")))
            .unwrap();
        for _ in 0..10 {
            deliveries.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        let reports = shutdown(&commands, handles);
        assert!(reports.iter().all(|r| r.deliveries.len() == 1));
        assert!(reports.iter().map(|r| r.messages_sent).sum::<usize>() > 0);
    }

    /// A hand-made `bd` Echo of broadcast (2, 0) whose path names `label`.
    fn echo_through(label: usize) -> bytes::Bytes {
        use brb_core::wire::{MessageKind, PayloadRef, WireMessage};
        WireMessage {
            kind: MessageKind::Echo,
            id: BroadcastId::new(2, 0),
            originator: 3,
            originator2: None,
            payload: PayloadRef::Inline(Payload::from("m")),
            path: vec![label],
            fields: Default::default(),
        }
        .encode()
    }

    /// Node 1 of `ring(4)` running `bd` alone: its driver (not yet running), its command
    /// sender, the links of every node (`senders[0][0]` is neighbour 0's link into node
    /// 1) and the mailboxes of the other three nodes.
    fn lone_ring_node() -> (
        NodeDriver,
        Sender<Command>,
        Vec<Vec<crate::link::AuthenticatedSender>>,
        Vec<crate::link::Mailbox>,
    ) {
        let graph = generate::ring(4);
        let (mut mailboxes, senders) = build_links(4, &graph.edges());
        let (delivery_tx, _delivery_rx) = unbounded();
        let (cmd_tx, cmd_rx) = unbounded();
        let driver = NodeDriver::new(
            StackSpec::Bd.build(&Config::bdopt(4, 1), &graph, 1),
            Box::new(ChannelTransport::new(
                mailboxes.remove(1),
                senders[1].clone(),
            )),
            cmd_rx,
            delivery_tx,
            &DriverOptions::default(),
        );
        (driver, cmd_tx, senders, mailboxes)
    }

    #[test]
    fn frames_naming_labels_outside_the_system_are_counted_as_malformed() {
        // Only node 1 runs; its neighbor 0's link feeds it hand-made frames.
        let (driver, cmd_tx, senders, mailboxes) = lone_ring_node();
        let handle = std::thread::spawn(move || driver.run());
        let link = &senders[0][0];
        assert_eq!(link.peer(), 1);
        assert!(link.send(echo_through(4_000_000_000)));
        assert!(link.send(echo_through(4)));
        assert!(link.send(echo_through(3)));
        // The link is FIFO: once node 2 sees the relay of the third frame, node 1 has
        // handled all three.
        let relayed = mailboxes[1]
            .receiver()
            .recv_timeout(Duration::from_secs(10))
            .expect("the well-formed Echo is relayed to node 2");
        assert_eq!(relayed.from, 1);
        let reports = shutdown(&[cmd_tx], vec![handle]);
        let drops = reports[0].drops_by_cause;
        assert_eq!(drops.get(brb_trace::DropCause::Malformed), 2);
        assert_eq!(drops.total(), 2);
        assert_eq!(reports[0].messages_sent, 1);
    }

    #[test]
    fn shutdown_drains_a_backlog_longer_than_one_ingest_cycle() {
        // 300 frames and the shutdown command are queued before the node starts, so
        // the loop may see the command first: it must keep ingesting, one
        // DRAIN_BUDGET-sized cycle after another, until the queue is empty.
        const BACKLOG: usize = 300;
        const { assert!(BACKLOG > 2 * DRAIN_BUDGET) };
        let (driver, cmd_tx, senders, _mailboxes) = lone_ring_node();
        let link = &senders[0][0];
        assert_eq!(link.peer(), 1);
        for _ in 0..BACKLOG {
            assert!(link.send(echo_through(4)));
        }
        cmd_tx.send(Command::Shutdown).unwrap();
        let report = driver.run();
        let drops = report.drops_by_cause;
        assert_eq!(drops.get(brb_trace::DropCause::Malformed), BACKLOG as u64);
        assert_eq!(drops.total(), BACKLOG as u64);
        assert_eq!(report.messages_sent, 0);
    }

    #[test]
    fn crash_behavior_makes_a_node_deaf_and_mute() {
        let graph = generate::figure1_example();
        let config = Config::bdopt_mbd1(10, 1);
        let options = DriverOptions {
            idle_shutdown: Duration::from_millis(100),
            ..DriverOptions::default()
        }
        .with_behaviors(vec![(5, Behavior::Crash)]);
        let (commands, deliveries, handles) = spawn_drivers(&graph, config, &options);
        commands[0]
            .send(Command::Broadcast(Payload::from("despite the crash")))
            .unwrap();
        for _ in 0..9 {
            deliveries.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        let reports = shutdown(&commands, handles);
        assert_eq!(
            reports[5].deliveries.len(),
            0,
            "crashed node delivers nothing"
        );
        assert_eq!(reports[5].messages_sent, 0, "crashed node sends nothing");
        for r in reports.iter().filter(|r| r.id != 5) {
            assert_eq!(r.deliveries.len(), 1, "process {} must deliver", r.id);
        }
    }

    /// One broadcast on the Figure 1 graph with a replayer (node 4) and a node silent
    /// towards two of its three neighbors (node 7), traced into `trace` when given.
    fn byzantine_broadcast(trace: Option<TraceConfig>) -> Vec<NodeReport> {
        let graph = generate::figure1_example();
        let options = DriverOptions {
            idle_shutdown: Duration::from_millis(100),
            trace,
            ..DriverOptions::default()
        }
        .with_behaviors(vec![
            (4, Behavior::Replayer),
            (7, Behavior::SilentTowards(vec![2, 9])),
        ]);
        let (commands, deliveries, handles) =
            spawn_drivers(&graph, Config::bdopt_mbd1(10, 1), &options);
        commands[0]
            .send(Command::Broadcast(Payload::from("traced or not")))
            .unwrap();
        for _ in 0..10 {
            deliveries.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        shutdown(&commands, handles)
    }

    #[test]
    fn frame_sent_events_account_every_transmitted_copy() {
        let sink = Arc::new(brb_trace::VecSink::new());
        let traced = byzantine_broadcast(Some(TraceConfig::new(
            brb_trace::Backend::Runtime,
            sink.clone(),
        )));
        let events = sink.take();
        for report in &traced {
            let sent: Vec<usize> = events
                .iter()
                .filter(|e| e.node == report.id)
                .filter_map(|e| match e.kind {
                    TraceEventKind::FrameSent { bytes, .. } => Some(bytes),
                    _ => None,
                })
                .collect();
            assert_eq!(
                sent.len(),
                report.messages_sent,
                "node {} copies",
                report.id
            );
            assert_eq!(
                sent.iter().sum::<usize>(),
                report.bytes_sent,
                "node {} bytes",
                report.id
            );
        }
        // Both behaviors were exercised: the silent node dropped, the replayer doubled.
        assert!(traced[7].drops_by_cause.get(brb_trace::DropCause::Behavior) > 0);
        assert!(traced[4].messages_sent > 0 && traced[4].messages_sent.is_multiple_of(2));

        let untraced = byzantine_broadcast(None);
        let delivered = |r: &NodeReport| -> std::collections::BTreeSet<(BroadcastId, Payload)> {
            r.deliveries
                .iter()
                .map(|d| (d.id, d.payload.clone()))
                .collect()
        };
        for (t, u) in traced.iter().zip(&untraced) {
            assert_eq!(delivered(t).len(), 1, "process {} delivers", t.id);
            assert_eq!(delivered(t), delivered(u), "process {} delivery set", t.id);
        }
    }

    #[test]
    fn behavior_of_resolves_the_last_assignment() {
        let options = DriverOptions::default()
            .with_behaviors(vec![(2, Behavior::Crash), (2, Behavior::Replayer)]);
        assert_eq!(options.behavior_of(2), Behavior::Replayer);
        assert_eq!(options.behavior_of(0), Behavior::Correct);
    }

    #[test]
    fn report_accessors() {
        let report = DeploymentReport {
            nodes: vec![
                NodeReport {
                    id: 0,
                    deliveries: vec![],
                    messages_sent: 2,
                    bytes_sent: 10,
                    state_bytes: 0,
                    gc_retired: 0,
                    restarts: 0,
                    drops_by_cause: DropCounts::new(),
                    queue_depth_peak: 0,
                    decision: None,
                },
                NodeReport {
                    id: 1,
                    deliveries: vec![],
                    messages_sent: 3,
                    bytes_sent: 20,
                    state_bytes: 0,
                    gc_retired: 0,
                    restarts: 0,
                    drops_by_cause: DropCounts::new(),
                    queue_depth_peak: 0,
                    decision: None,
                },
            ],
        };
        assert_eq!(report.total_messages(), 5);
        assert_eq!(report.total_bytes(), 30);
        assert!(!report.all_delivered(&[0, 1], 1));
        assert!(report.all_delivered(&[0, 1], 0));
    }
}
