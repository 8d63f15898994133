//! The discrete-event network simulator.
//!
//! The simulator owns one protocol instance per process, a virtual clock and a queue of
//! in-flight messages. Sending a message schedules its reception after a delay drawn from
//! the configured [`DelayModel`]; receptions are processed in timestamp order, which
//! reproduces the synchronous and asynchronous regimes of the paper's evaluation
//! (asynchronous delays reorder messages exactly as described in Sec. 7.6).
//!
//! Determinism: for a fixed seed, topology and protocol configuration, a run is perfectly
//! reproducible. Events with equal timestamps are ordered by `(from, to)` and only then by
//! a global sequence number, so the order in which same-time events are drained never
//! depends on the order in which they were scheduled (see [`Simulation::step_batch`]).
//!
//! # Engine internals
//!
//! Three structural choices keep the per-event cost low enough for large parameter sweeps:
//!
//! * in-flight messages are held by value: scheduling a send moves the engine's message
//!   into the queue and dispatching moves it into the destination engine, so a frame
//!   costs no allocation of its own; only a duplicating behaviour's extra copies clone;
//! * the queue keeps one vector per timestamp, appended to in scheduling order and put in
//!   `(from, to, seq)` order only when the clock reaches it, by a stable counting sort of
//!   its indices (linear in the wave plus its range of ids); a binary heap takes just the
//!   sends that land before the newest timestamp (asynchronous delays), and its events
//!   for the instant are merged in. Under constant delays a send is one `Vec::push`;
//! * same-timestamp events are drained in one pass ([`Simulation::step_batch`]) into a
//!   reused batch buffer, and drained buckets are kept for later timestamps, so the
//!   steady state allocates no queue storage, and every handled event writes its actions
//!   into one reusable sink.
//!
//! What is left per event is whatever the engine allocates; `tests/alloc_budget.rs` holds
//! it to a committed budget.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use brb_core::protocol::{ActionBuf, Protocol};
use brb_core::types::{Action, BroadcastId, Delivery, Payload, ProcessId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::behavior::Behavior;
use crate::churn::{ChurnAction, ChurnEvent, LinkState, RestartMemory};
use crate::delay::DelayModel;
use crate::fate;
use crate::metrics::RunMetrics;
use crate::queue::{Event, EventQueue};
use crate::time::SimTime;

/// A broadcast scheduled to enter the system at a future virtual time (the workload
/// engine's injection events). Ordered by `(at, seq)`: same-time injections run in
/// scheduling order, and *before* any message event of the same timestamp — the
/// application acts at the start of the instant, the network after.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ScheduledInjection {
    at: SimTime,
    seq: u64,
    source: ProcessId,
    payload: Payload,
}

impl Ord for ScheduledInjection {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for ScheduledInjection {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Discrete-event simulation of a set of processes running protocol `P`.
pub struct Simulation<P: Protocol>
where
    P::Message: Eq,
{
    processes: Vec<P>,
    behaviors: Vec<Behavior>,
    sent_per_process: Vec<usize>,
    /// Broadcasts each source has injected through this simulation, mirroring the
    /// engines' own per-source sequence numbering so the metrics can attribute
    /// injections to [`BroadcastId`]s without decoding messages.
    injected_per_source: Vec<u32>,
    queue: EventQueue<P::Message>,
    /// Scheduled broadcast injections (the workload engine's mid-run arrivals), drained
    /// by [`Simulation::step_batch`] ahead of same-time message events.
    injections: BinaryHeap<Reverse<ScheduledInjection>>,
    next_injection_seq: u64,
    /// Reusable batch buffer: [`Simulation::step_batch`] drains same-time events into this
    /// vector and trades its allocation for the drained bucket's (the event pool).
    batch: Vec<Event<P::Message>>,
    /// Reusable action sink: every protocol event writes its actions into this buffer via
    /// [`Protocol::handle_message_into`] / [`Protocol::broadcast_into`], so the hot
    /// dispatch path performs no per-event `Vec` allocation.
    actions: ActionBuf<P::Message>,
    now: SimTime,
    next_seq: u64,
    delay: DelayModel,
    rng: StdRng,
    metrics: RunMetrics,
    /// Safety bound on processed events (guards against configuration mistakes that would
    /// otherwise loop forever, e.g. the unoptimized protocol on large dense graphs).
    max_events: usize,
    /// Compiled churn schedule ([`crate::churn::ChurnSpec::compile`]), consumed in order:
    /// the third event source of [`Simulation::step_batch`], applied *before* same-time
    /// injections and message events (the network reconfigures at the start of the
    /// instant).
    churn_events: Vec<ChurnEvent>,
    /// Index of the next unapplied churn event.
    next_churn: usize,
    /// Current link-level churn state; consulted at send time by
    /// [`Simulation::schedule_actions`] through [`fate::outbound`].
    link_state: LinkState,
    /// Undirected edge list of the topology (needed to expand `Partition` actions).
    churn_edges: Vec<(ProcessId, ProcessId)>,
    /// Builds a fresh protocol instance for a [`ChurnAction::NodeRestart`] (volatile
    /// state loss + re-join). Required whenever the schedule contains a restart.
    restart_builder: Option<Box<dyn FnMut(ProcessId) -> P>>,
    /// Per-process durable delivery log: everything delivered before the process's
    /// restarts (the compact state a real node persists across a crash), whose ids are
    /// suppressed after a restart so no-duplication holds across crashes (and no
    /// GC-retired instance resurrects).
    restart_memory: Vec<RestartMemory>,
    /// Number of node restarts executed.
    restarts: u64,
    /// Structured-trace handle shared with every process ([`Simulation::set_trace_sink`]);
    /// disabled by default, in which case every emit is a single branch.
    tracer: brb_trace::Tracer,
    /// The virtual clock backing the tracer's timestamps, advanced to `now` (in µs)
    /// before any engine or host emission.
    trace_clock: Option<Arc<AtomicU64>>,
    /// Always-on per-process drop accounting, mirroring the live decorators' counter
    /// registry: frames discarded at send time by churn gating, lossy links or
    /// Byzantine behaviour. Deterministic for a fixed seed; deliberately kept out of
    /// [`RunMetrics`] so golden transcripts are unaffected.
    drop_counts: Vec<brb_trace::DropCounts>,
}

impl<P: Protocol> Simulation<P>
where
    P::Message: Eq,
{
    /// Creates a simulation over the given processes, all initially [`Behavior::Correct`].
    pub fn new(processes: Vec<P>, delay: DelayModel, seed: u64) -> Self {
        let n = processes.len();
        Self {
            processes,
            behaviors: vec![Behavior::Correct; n],
            sent_per_process: vec![0; n],
            injected_per_source: vec![0; n],
            queue: EventQueue::new(),
            injections: BinaryHeap::new(),
            next_injection_seq: 0,
            batch: Vec::new(),
            actions: ActionBuf::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            delay,
            rng: StdRng::seed_from_u64(seed),
            metrics: RunMetrics::default(),
            max_events: 50_000_000,
            churn_events: Vec::new(),
            next_churn: 0,
            link_state: LinkState::new(),
            churn_edges: Vec::new(),
            restart_builder: None,
            restart_memory: vec![RestartMemory::new(); n],
            restarts: 0,
            tracer: brb_trace::Tracer::disabled(),
            trace_clock: None,
            drop_counts: vec![brb_trace::DropCounts::new(); n],
        }
    }

    /// Attaches a structured-trace sink to this run: every process's engine and the
    /// simulator's own host events (deliveries, frame sends/drops, restarts) emit
    /// [`brb_trace::TraceEvent`]s stamped with the **virtual** clock, tagged
    /// [`brb_trace::Backend::Sim`]. Call before injecting broadcasts; attaching is
    /// idempotent but events are only recorded from the moment of attachment.
    pub fn set_trace_sink(&mut self, sink: Arc<dyn brb_trace::TraceSink>) {
        let (clock, handle) = brb_trace::Clock::virtual_clock();
        handle.store(self.now.as_micros(), Ordering::Relaxed);
        let tracer = brb_trace::Tracer::new(brb_trace::Backend::Sim, clock, sink);
        for process in &mut self.processes {
            process.set_tracer(tracer.clone());
        }
        self.tracer = tracer;
        self.trace_clock = Some(handle);
    }

    /// The tracer shared with every process (disabled unless
    /// [`Simulation::set_trace_sink`] was called). A restart builder can clone this to
    /// re-install tracing on freshly built engines — the simulator's own restarts
    /// already do so automatically.
    pub fn tracer(&self) -> &brb_trace::Tracer {
        &self.tracer
    }

    /// Per-process drop accounting (send-time churn gating, link loss, Byzantine
    /// suppression), indexed by process id. Always collected, deterministic for a
    /// fixed seed, and independent of whether a trace sink is attached.
    pub fn drop_counts(&self) -> &[brb_trace::DropCounts] {
        &self.drop_counts
    }

    /// Advances the tracer's virtual clock to the simulator's current instant.
    #[inline]
    fn sync_trace_clock(&self) {
        if let Some(clock) = &self.trace_clock {
            clock.store(self.now.as_micros(), Ordering::Relaxed);
        }
    }

    /// Installs a compiled churn schedule. `edges` is the topology's undirected edge
    /// list (used to expand `Partition` actions into their cross links). Events are
    /// applied in order at their virtual times, before same-time injections and message
    /// events.
    pub fn set_churn(&mut self, events: Vec<ChurnEvent>, edges: Vec<(ProcessId, ProcessId)>) {
        self.churn_events = events;
        self.next_churn = 0;
        self.churn_edges = edges;
    }

    /// Installs the factory that rebuilds a process for [`ChurnAction::NodeRestart`]
    /// events. The returned instance must be a *fresh* engine (same id, same neighbors,
    /// empty volatile state): the restart models a crash-recover with state loss, and
    /// the simulation itself preserves only the durable delivered log.
    pub fn set_restart_builder(&mut self, builder: impl FnMut(ProcessId) -> P + 'static) {
        self.restart_builder = Some(Box::new(builder));
    }

    /// The current link-level churn state (for assertions and diagnostics).
    pub fn link_state(&self) -> &LinkState {
        &self.link_state
    }

    /// Number of node restarts executed so far.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// The complete delivery log of a process across restarts: its durable pre-restart
    /// deliveries followed by the current engine's deliveries (minus durable duplicates,
    /// which the dispatch path already suppresses). Equals the engine's own log for a
    /// process that never restarted.
    pub fn full_deliveries(&self, process: ProcessId) -> Vec<Delivery> {
        self.restart_memory[process].full_log(self.processes[process].deliveries())
    }

    /// Overrides the behaviour of one process.
    pub fn set_behavior(&mut self, process: ProcessId, behavior: Behavior) {
        self.behaviors[process] = behavior;
    }

    /// The behaviour of one process.
    pub fn behavior(&self, process: ProcessId) -> &Behavior {
        &self.behaviors[process]
    }

    /// Overrides the event-count safety bound.
    pub fn set_max_events(&mut self, max_events: usize) {
        self.max_events = max_events;
    }

    /// Identifiers of the processes with [`Behavior::Correct`].
    pub fn correct_processes(&self) -> Vec<ProcessId> {
        self.behaviors
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_byzantine())
            .map(|(i, _)| i)
            .collect()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Metrics collected so far.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Consumes the simulation and returns the collected metrics (used by the experiment
    /// runner to hand full run metrics to the determinism harness without cloning).
    pub fn into_metrics(self) -> RunMetrics {
        self.metrics
    }

    /// Mutable access to the metrics, for harnesses that record run-level facts the
    /// simulator cannot observe itself (e.g. consensus decisions read from engine
    /// handles after quiescence).
    pub fn metrics_mut(&mut self) -> &mut RunMetrics {
        &mut self.metrics
    }

    /// Immutable access to the protocol instances.
    pub fn processes(&self) -> &[P] {
        &self.processes
    }

    /// Number of events currently in flight.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Number of scheduled broadcast injections not yet executed.
    pub fn pending_injections(&self) -> usize {
        self.injections.len()
    }

    /// Makes process `source` broadcast `payload` at the current virtual time.
    ///
    /// The resulting messages are scheduled but not yet processed; call
    /// [`Simulation::run_to_quiescence`] to process them. A crashed source ignores the
    /// request (and no injection is recorded).
    pub fn broadcast(&mut self, source: ProcessId, payload: Payload) {
        if !self.behaviors[source].receives() {
            return;
        }
        // The engines number their own broadcasts sequentially per source; mirror that
        // count so the injection can be attributed to its BroadcastId in the metrics.
        let id = BroadcastId::new(source, self.injected_per_source[source]);
        self.injected_per_source[source] += 1;
        self.metrics.record_injection(id, self.now);
        self.sync_trace_clock();
        let mut actions = std::mem::take(&mut self.actions);
        actions.clear();
        self.processes[source].note_time(self.now.as_micros() / 1_000);
        self.processes[source].broadcast_into(payload, &mut actions);
        self.schedule_actions(source, &mut actions);
        self.actions = actions;
    }

    /// Hands `payload` to process `source`'s engine through the broadcast entry point
    /// **without recording an injection**: the channel by which layered clients (the
    /// consensus harness's `Propose`/`CloseBv`/`CloseRound` control operations) talk to
    /// their engines. Unlike [`Simulation::broadcast`], no [`BroadcastId`] is attributed
    /// and the per-source injection counter is untouched, so workload metrics and
    /// `predicted_ids` stay exact. A crashed process ignores the operation.
    pub fn client_op(&mut self, source: ProcessId, payload: Payload) {
        if !self.behaviors[source].receives() {
            return;
        }
        self.sync_trace_clock();
        let mut actions = std::mem::take(&mut self.actions);
        actions.clear();
        self.processes[source].note_time(self.now.as_micros() / 1_000);
        self.processes[source].broadcast_into(payload, &mut actions);
        self.schedule_actions(source, &mut actions);
        self.actions = actions;
    }

    /// Schedules process `source` to broadcast `payload` at virtual time `at` (clamped
    /// to the current time if already past): the workload engine's way of letting
    /// broadcasts enter mid-run, interleaved with deliveries of earlier broadcasts.
    ///
    /// Injections due at the same timestamp as message events run *first* (see
    /// [`Simulation::step_batch`]); injections sharing a timestamp run in scheduling
    /// order.
    pub fn schedule_broadcast(&mut self, at: SimTime, source: ProcessId, payload: Payload) {
        let injection = ScheduledInjection {
            at: at.max(self.now),
            seq: self.next_injection_seq,
            source,
            payload,
        };
        self.next_injection_seq += 1;
        self.injections.push(Reverse(injection));
    }

    /// Drains and processes **all** events scheduled at the earliest pending timestamp in
    /// one pass, advancing the clock to that timestamp.
    ///
    /// The batch is the set of events due at that timestamp when the call starts; events
    /// the batch itself schedules are queued for later calls (with a zero-delay model they
    /// run at the same virtual time, in a subsequent batch). Scheduled broadcast
    /// injections due at the timestamp run first (in scheduling order), then message
    /// events in `(from, to, seq)` order. Returns the number of injections plus events
    /// processed, or 0 if nothing is pending.
    ///
    /// # Panics
    ///
    /// Panics if the event bound is exceeded, which indicates a diverging configuration.
    pub fn step_batch(&mut self) -> usize {
        let next_event = self.queue.next_at();
        let next_injection = self
            .injections
            .peek()
            .map(|Reverse(injection)| injection.at);
        // Churn events scheduled in the past fire at the current instant, like clamped
        // injections.
        let next_churn = self
            .churn_events
            .get(self.next_churn)
            .map(|event| SimTime::from_micros(event.at_micros).max(self.now));
        let batch_at = match [next_event, next_injection, next_churn]
            .into_iter()
            .flatten()
            .min()
        {
            None => return 0,
            Some(at) => at,
        };
        // Move the pooled buffer out so the queue and the processes can be borrowed
        // mutably while iterating it; its capacity is given back at the end.
        let mut batch = std::mem::take(&mut self.batch);
        if next_event == Some(batch_at) {
            self.queue.pop_batch(&mut batch);
        } else {
            batch.clear();
        }
        self.now = batch_at;
        self.sync_trace_clock();
        // Network reconfiguration at the start of the instant: churn events due now
        // apply before same-time injections broadcast and message events are delivered.
        let mut churned = 0usize;
        while let Some(event) = self.churn_events.get(self.next_churn) {
            if SimTime::from_micros(event.at_micros) > batch_at {
                break;
            }
            let action = event.action.clone();
            self.next_churn += 1;
            self.apply_churn_action(&action);
            churned += 1;
        }
        // Application next: injections due now broadcast before the network's
        // same-time message events are delivered.
        let mut injected = 0usize;
        while let Some(Reverse(injection)) = self.injections.peek() {
            if injection.at != batch_at {
                break;
            }
            let injection = self.injections.pop().expect("peeked injection exists").0;
            self.broadcast(injection.source, injection.payload);
            injected += 1;
        }
        let processed = churned + injected + batch.len();
        self.metrics.events_processed += processed;
        assert!(
            self.metrics.events_processed <= self.max_events,
            "simulation exceeded {} events without quiescing",
            self.max_events
        );
        for event in batch.drain(..) {
            self.dispatch(event);
        }
        self.batch = batch;
        processed
    }

    /// Processes events until no message is in flight (or the safety bound is reached).
    ///
    /// Returns the number of events processed.
    ///
    /// # Panics
    ///
    /// Panics if the event bound is exceeded, which indicates a diverging configuration.
    pub fn run_to_quiescence(&mut self) -> usize {
        let mut processed = 0usize;
        loop {
            let step = self.step_batch();
            if step == 0 {
                self.collect_gc_metrics();
                return processed;
            }
            processed += step;
        }
    }

    /// Refreshes the end-of-run GC counters in the metrics: total instances retired and
    /// total protocol-state bytes still retained across all processes. Runs at
    /// quiescence (and wherever a long-running host wants a curve point).
    pub fn collect_gc_metrics(&mut self) {
        self.metrics.gc_retired = self.processes.iter().map(|p| p.gc_retired()).sum();
        self.metrics.retained_bytes = self.processes.iter().map(|p| p.state_bytes()).sum();
    }

    /// Runs until either quiescence or the given virtual deadline; events and injections
    /// scheduled after the deadline remain queued. Returns the number of events
    /// processed.
    pub fn run_until(&mut self, deadline: SimTime) -> usize {
        let mut processed = 0usize;
        loop {
            let event_due = self.queue.next_at().is_some_and(|at| at <= deadline);
            let injection_due =
                matches!(self.injections.peek(), Some(Reverse(i)) if i.at <= deadline);
            let churn_due = self
                .churn_events
                .get(self.next_churn)
                .is_some_and(|e| SimTime::from_micros(e.at_micros).max(self.now) <= deadline);
            if !event_due && !injection_due && !churn_due {
                break;
            }
            processed += self.step_batch();
        }
        self.now = self.now.max(deadline);
        processed
    }

    /// Applies one churn event to the link state, recording it in the metrics and
    /// carrying out a node restart when the action asks for one.
    fn apply_churn_action(&mut self, action: &ChurnAction) {
        self.metrics.record_churn(self.now, &action.to_string());
        if let Some(process) = self.link_state.apply(action, &self.churn_edges) {
            self.restart_process(process);
        }
    }

    /// Crash-recovers one process: the engine is replaced by a freshly built one (same
    /// id and neighbors, empty volatile state) and the old engine's deliveries move into
    /// the durable log, whose ids the dispatch path suppresses from then on — across a
    /// crash a node may rebuild transient state for a retired instance, but it can never
    /// deliver it twice.
    fn restart_process(&mut self, process: ProcessId) {
        let builder = self
            .restart_builder
            .as_mut()
            .expect("a churn schedule with NodeRestart requires Simulation::set_restart_builder");
        let mut fresh = builder(process);
        fresh.set_tracer(self.tracer.clone());
        let old = std::mem::replace(&mut self.processes[process], fresh);
        self.restart_memory[process].absorb(old.deliveries());
        self.restarts += 1;
        self.tracer
            .emit_frame(process, brb_trace::TraceEventKind::Restarted);
    }

    /// Delivers one event to its destination process and schedules the resulting actions
    /// through the reusable action sink (no per-event allocation).
    fn dispatch(&mut self, event: Event<P::Message>) {
        if !self.behaviors[event.to].receives() {
            return;
        }
        let mut actions = std::mem::take(&mut self.actions);
        actions.clear();
        self.processes[event.to].note_time(self.now.as_micros() / 1_000);
        self.processes[event.to].handle_message_into(event.from, event.message, &mut actions);
        self.schedule_actions(event.to, &mut actions);
        self.actions = actions;
    }

    /// Carries out the actions process `from` produced for one handled event (a message
    /// or an injection), then samples its memory proxies: the one sample site, so the
    /// peaks are exact on every run.
    fn schedule_actions(&mut self, from: ProcessId, actions: &mut ActionBuf<P::Message>) {
        for action in actions.drain() {
            match action {
                Action::Send { to, message } => {
                    // Messages already in flight still arrive: the gate acts at send time.
                    let fate = fate::outbound(
                        Some(&self.link_state),
                        &self.behaviors[from],
                        &mut self.sent_per_process[from],
                        from,
                        to,
                        &mut self.rng,
                    );
                    let copies = match fate {
                        Ok(copies) => copies,
                        Err(cause) => {
                            self.drop_counts[from].record(cause);
                            self.tracer.emit_frame(
                                from,
                                brb_trace::TraceEventKind::FrameDropped { to, cause },
                            );
                            continue;
                        }
                    };
                    let bytes = P::message_size(&message);
                    // Per-directed-link delay override: the extra rides on top of every
                    // sampled copy delay, as it does on the live delay line.
                    let extra = SimTime::from_micros(self.link_state.extra_delay_micros(from, to));
                    // The last copy is the message itself: only a duplicating behaviour's
                    // extra copies clone it.
                    for message in std::iter::repeat_n(message, copies) {
                        self.metrics.record_send(bytes);
                        self.tracer
                            .emit_frame(from, brb_trace::TraceEventKind::FrameSent { to, bytes });
                        let delay = self.delay.sample(&mut self.rng);
                        let event = Event {
                            at: self.now + delay + extra,
                            from,
                            to,
                            seq: self.next_seq,
                            message,
                        };
                        self.next_seq += 1;
                        self.queue.push(event);
                    }
                }
                Action::Deliver(delivery) => {
                    // An instance delivered before a restart lives in the durable log;
                    // the rebuilt engine re-delivering it is the crash-recover duplicate
                    // this suppression exists for.
                    if self.restart_memory[from].suppresses(delivery.id) {
                        continue;
                    }
                    self.metrics.record_delivery(from, delivery.id, self.now);
                    self.tracer.emit(
                        from,
                        delivery.id.source,
                        delivery.id.seq,
                        brb_trace::TraceEventKind::Delivered,
                    );
                }
            }
        }
        let process = &self.processes[from];
        self.metrics.peak_state_bytes = self.metrics.peak_state_bytes.max(process.state_bytes());
        self.metrics.peak_stored_paths = self.metrics.peak_stored_paths.max(process.stored_paths());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brb_core::bd::BdProcess;
    use brb_core::bracha::BrachaProcess;
    use brb_core::config::Config;
    use brb_core::types::BroadcastId;
    use brb_graph::generate;

    fn bd_simulation(
        n: usize,
        f: usize,
        config: Config,
        delay: DelayModel,
        seed: u64,
    ) -> Simulation<BdProcess> {
        let graph = generate::figure1_example();
        assert_eq!(graph.node_count(), n);
        let processes: Vec<BdProcess> = (0..n)
            .map(|i| BdProcess::new(i, config, graph.neighbors_vec(i)))
            .collect();
        let _ = f;
        Simulation::new(processes, delay, seed)
    }

    #[test]
    fn synchronous_bd_broadcast_delivers_everywhere() {
        let config = Config::bdopt_mbd1(10, 1);
        let mut sim = bd_simulation(10, 1, config, DelayModel::synchronous(), 1);
        sim.broadcast(0, Payload::filled(1, 16));
        sim.run_to_quiescence();
        let correct = sim.correct_processes();
        let id = BroadcastId::new(0, 0);
        assert_eq!(sim.metrics().delivered_count(id, &correct), 10);
        let latency = sim.metrics().latency(id, &correct).unwrap();
        // With 50 ms hops and a diameter-2 graph, latency is a small multiple of 50 ms.
        assert!(latency >= SimTime::from_millis(100));
        assert!(latency <= SimTime::from_millis(500));
        assert!(sim.metrics().bytes_sent > 0);
        assert!(sim.metrics().messages_sent > 0);
    }

    #[test]
    fn asynchronous_bd_broadcast_delivers_everywhere() {
        let config = Config::latency_preset(10, 1);
        let mut sim = bd_simulation(10, 1, config, DelayModel::asynchronous(), 7);
        sim.broadcast(3, Payload::filled(1, 1024));
        sim.run_to_quiescence();
        let correct = sim.correct_processes();
        let id = BroadcastId::new(3, 0);
        assert_eq!(sim.metrics().delivered_count(id, &correct), 10);
    }

    #[test]
    fn crashed_processes_do_not_prevent_delivery() {
        let config = Config::bdopt_mbd1(10, 1);
        let mut sim = bd_simulation(10, 1, config, DelayModel::synchronous(), 3);
        sim.set_behavior(5, Behavior::Crash);
        sim.broadcast(0, Payload::filled(2, 16));
        sim.run_to_quiescence();
        let correct = sim.correct_processes();
        assert_eq!(correct.len(), 9);
        let id = BroadcastId::new(0, 0);
        assert_eq!(sim.metrics().delivered_count(id, &correct), 9);
    }

    #[test]
    fn crashed_source_broadcasts_nothing() {
        let config = Config::bdopt_mbd1(10, 1);
        let mut sim = bd_simulation(10, 1, config, DelayModel::synchronous(), 3);
        sim.set_behavior(0, Behavior::Crash);
        sim.broadcast(0, Payload::filled(2, 16));
        assert_eq!(sim.run_to_quiescence(), 0);
        assert_eq!(sim.metrics().messages_sent, 0);
    }

    #[test]
    fn replayer_behavior_does_not_break_no_duplication() {
        let config = Config::bdopt_mbd1(10, 1);
        let mut sim = bd_simulation(10, 1, config, DelayModel::synchronous(), 3);
        sim.set_behavior(1, Behavior::Replayer);
        sim.broadcast(0, Payload::filled(2, 16));
        sim.run_to_quiescence();
        for p in sim.processes() {
            assert!(p.deliveries().len() <= 1);
        }
        let correct = sim.correct_processes();
        let id = BroadcastId::new(0, 0);
        assert_eq!(sim.metrics().delivered_count(id, &correct), correct.len());
    }

    /// Sends every broadcast payload to process 1, and records what it receives.
    struct Recorder {
        id: ProcessId,
        received: Vec<(ProcessId, Payload)>,
    }

    impl Protocol for Recorder {
        type Message = Payload;

        fn process_id(&self) -> ProcessId {
            self.id
        }

        fn broadcast_into(&mut self, payload: Payload, out: &mut ActionBuf<Payload>) {
            out.send(1, payload);
        }

        fn handle_message_into(&mut self, from: ProcessId, m: Payload, _: &mut ActionBuf<Payload>) {
            self.received.push((from, m));
        }

        fn deliveries(&self) -> &[Delivery] {
            &[]
        }

        fn message_size(message: &Payload) -> usize {
            message.len()
        }
    }

    #[test]
    fn replayer_copies_both_arrive_with_equal_messages() {
        let processes = (0..2)
            .map(|id| Recorder {
                id,
                received: Vec::new(),
            })
            .collect();
        let mut sim = Simulation::new(processes, DelayModel::synchronous(), 5);
        sim.set_behavior(0, Behavior::Replayer);
        let payload = Payload::from("replayed");
        sim.broadcast(0, payload.clone());
        assert_eq!(sim.pending_events(), 2, "one send, two copies in flight");
        sim.run_to_quiescence();
        assert_eq!(sim.metrics().messages_sent, 2);
        assert_eq!(
            sim.processes()[1].received,
            vec![(0, payload.clone()), (0, payload)]
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let config = Config::bandwidth_preset(10, 1);
        let run = |seed| {
            let mut sim = bd_simulation(10, 1, config, DelayModel::asynchronous(), seed);
            sim.broadcast(0, Payload::filled(9, 64));
            sim.run_to_quiescence();
            (
                sim.metrics().messages_sent,
                sim.metrics().bytes_sent,
                sim.metrics()
                    .latency(BroadcastId::new(0, 0), &sim.correct_processes())
                    .unwrap(),
            )
        };
        assert_eq!(run(42), run(42));
        // Different seeds almost surely reorder events and change counters.
        let a = run(1);
        let b = run(2);
        assert!(
            a != b || a.0 == b.0,
            "runs are allowed to coincide but usually differ"
        );
    }

    #[test]
    fn bracha_on_complete_graph_in_simulation() {
        let n = 7;
        let processes: Vec<BrachaProcess> = (0..n).map(|i| BrachaProcess::new(i, n, 2)).collect();
        let mut sim = Simulation::new(processes, DelayModel::synchronous(), 11);
        sim.broadcast(2, Payload::from("hello"));
        sim.run_to_quiescence();
        let correct = sim.correct_processes();
        let id = BroadcastId::new(2, 0);
        assert_eq!(sim.metrics().delivered_count(id, &correct), n);
        // SEND + ECHO + READY rounds with one 50 ms hop each: exactly 150 ms on a complete
        // graph with constant delays.
        assert_eq!(
            sim.metrics().latency(id, &correct),
            Some(SimTime::from_millis(150))
        );
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let config = Config::bdopt_mbd1(10, 1);
        let mut sim = bd_simulation(10, 1, config, DelayModel::synchronous(), 1);
        sim.broadcast(0, Payload::filled(1, 16));
        // Stop before the first hop completes: nothing can have been processed.
        let processed = sim.run_until(SimTime::from_millis(10));
        assert_eq!(processed, 0);
        let processed = sim.run_until(SimTime::from_millis(60));
        assert!(processed > 0, "first hop arrives at 50 ms");
        sim.run_to_quiescence();
        let correct = sim.correct_processes();
        assert_eq!(
            sim.metrics()
                .delivered_count(BroadcastId::new(0, 0), &correct),
            10
        );
    }

    #[test]
    #[should_panic(expected = "exceeded")]
    fn event_bound_guards_against_divergence() {
        let config = Config::bdopt_mbd1(10, 1);
        let mut sim = bd_simulation(10, 1, config, DelayModel::synchronous(), 1);
        sim.set_max_events(5);
        sim.broadcast(0, Payload::filled(1, 16));
        sim.run_to_quiescence();
    }

    fn event_at(at: SimTime, from: ProcessId, to: ProcessId, seq: u64) -> Event<u8> {
        Event {
            at,
            from,
            to,
            seq,
            message: 0u8,
        }
    }

    #[test]
    fn equal_timestamp_events_order_by_link_before_seq() {
        let t = SimTime::from_millis(50);
        // Scheduled "late" (high seq) but on an earlier link: must still come first.
        let early_link_late_seq = event_at(t, 1, 2, 900);
        let late_link_early_seq = event_at(t, 3, 0, 1);
        assert!(early_link_late_seq < late_link_early_seq);
        // Same from, ties broken by destination.
        assert!(event_at(t, 1, 0, 7) < event_at(t, 1, 5, 2));
        // Same link, ties finally broken by sequence number.
        assert!(event_at(t, 1, 2, 3) < event_at(t, 1, 2, 4));
        // The timestamp always dominates.
        assert!(event_at(SimTime::from_millis(49), 9, 9, 9) < event_at(t, 0, 0, 0));
    }

    #[test]
    fn step_batch_drains_whole_timestamp_in_link_order() {
        let n = 7;
        let processes: Vec<BrachaProcess> = (0..n).map(|i| BrachaProcess::new(i, n, 2)).collect();
        let mut sim = Simulation::new(processes, DelayModel::synchronous(), 11);
        sim.broadcast(2, Payload::from("batched"));
        // The source sends one SEND to each of the 6 other processes and, having handled
        // its own copy locally, one ECHO to each as well — 12 events, all due at 50 ms.
        assert_eq!(sim.pending_events(), 12);
        let processed = sim.step_batch();
        assert_eq!(processed, 12, "one batch drains every same-time event");
        assert_eq!(sim.now(), SimTime::from_millis(50));
        // Processing the first wave scheduled the next one, all due at 100 ms.
        assert!(sim.pending_events() > 0);
        sim.run_to_quiescence();
        let correct = sim.correct_processes();
        assert_eq!(
            sim.metrics()
                .delivered_count(BroadcastId::new(2, 0), &correct),
            n
        );
    }

    #[test]
    fn step_batch_on_empty_queue_is_a_no_op() {
        let processes: Vec<BrachaProcess> = (0..4).map(|i| BrachaProcess::new(i, 4, 1)).collect();
        let mut sim = Simulation::new(processes, DelayModel::synchronous(), 1);
        assert_eq!(sim.step_batch(), 0);
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn scheduled_injections_enter_mid_run_and_deliver() {
        let config = Config::bdopt_mbd1(10, 1);
        let mut sim = bd_simulation(10, 1, config, DelayModel::synchronous(), 1);
        // Two broadcasts from different sources, the second entering while the first is
        // still propagating (the first completes around 100-150 ms).
        sim.schedule_broadcast(SimTime::ZERO, 0, Payload::filled(1, 16));
        sim.schedule_broadcast(SimTime::from_millis(60), 3, Payload::filled(2, 16));
        assert_eq!(sim.pending_injections(), 2);
        assert_eq!(
            sim.pending_events(),
            0,
            "nothing sent before the clock moves"
        );
        sim.run_to_quiescence();
        assert_eq!(sim.pending_injections(), 0);
        let correct = sim.correct_processes();
        for (id, injected_at) in [
            (BroadcastId::new(0, 0), SimTime::ZERO),
            (BroadcastId::new(3, 0), SimTime::from_millis(60)),
        ] {
            assert_eq!(sim.metrics().delivered_count(id, &correct), 10, "{id}");
            assert_eq!(sim.metrics().injection_times[&id], injected_at);
            assert!(sim.metrics().broadcast_latency(id, &correct).unwrap() > SimTime::ZERO);
        }
    }

    #[test]
    fn injections_run_before_same_time_message_events() {
        let n = 7;
        let processes: Vec<BrachaProcess> = (0..n).map(|i| BrachaProcess::new(i, n, 2)).collect();
        let mut sim = Simulation::new(processes, DelayModel::synchronous(), 11);
        sim.broadcast(2, Payload::from("first"));
        // 12 message events due at 50 ms; a second broadcast injected at the same time.
        sim.schedule_broadcast(SimTime::from_millis(50), 4, Payload::from("second"));
        let processed = sim.step_batch();
        assert_eq!(processed, 13, "one injection + twelve message events");
        assert_eq!(sim.now(), SimTime::from_millis(50));
        // The injection happened at 50 ms, as the metrics record.
        assert_eq!(
            sim.metrics().injection_times[&BroadcastId::new(4, 0)],
            SimTime::from_millis(50)
        );
        sim.run_to_quiescence();
        let correct = sim.correct_processes();
        assert_eq!(
            sim.metrics()
                .delivered_count(BroadcastId::new(2, 0), &correct),
            n
        );
        assert_eq!(
            sim.metrics()
                .delivered_count(BroadcastId::new(4, 0), &correct),
            n
        );
    }

    #[test]
    fn past_injection_times_are_clamped_to_now() {
        let config = Config::bdopt_mbd1(10, 1);
        let mut sim = bd_simulation(10, 1, config, DelayModel::synchronous(), 1);
        sim.broadcast(0, Payload::filled(1, 16));
        sim.run_until(SimTime::from_millis(75));
        // Scheduling in the past injects at the current instant instead.
        sim.schedule_broadcast(SimTime::from_millis(10), 5, Payload::filled(9, 16));
        sim.run_to_quiescence();
        assert_eq!(
            sim.metrics().injection_times[&BroadcastId::new(5, 0)],
            SimTime::from_millis(75)
        );
    }

    #[test]
    fn run_until_respects_pending_injections() {
        let config = Config::bdopt_mbd1(10, 1);
        let mut sim = bd_simulation(10, 1, config, DelayModel::synchronous(), 1);
        sim.schedule_broadcast(SimTime::from_millis(100), 0, Payload::filled(1, 16));
        assert_eq!(sim.run_until(SimTime::from_millis(50)), 0);
        assert_eq!(sim.pending_injections(), 1);
        assert!(
            sim.run_until(SimTime::from_millis(100)) > 0,
            "injection fires"
        );
        assert_eq!(sim.pending_injections(), 0);
    }

    #[test]
    fn isolating_the_source_blocks_every_send() {
        use crate::churn::{ChurnAction, ChurnSpec};
        let config = Config::bdopt_mbd1(10, 1);
        let mut sim = bd_simulation(10, 1, config, DelayModel::synchronous(), 1);
        let graph = generate::figure1_example();
        let spec = ChurnSpec::new().at(0, ChurnAction::Partition { side: vec![0] });
        sim.set_churn(spec.compile(1), graph.edges());
        sim.schedule_broadcast(SimTime::ZERO, 0, Payload::filled(1, 16));
        sim.run_to_quiescence();
        assert_eq!(
            sim.metrics().messages_sent,
            0,
            "every frame from the isolated source is dropped at send time"
        );
        assert_eq!(sim.metrics().churn_events.len(), 1);
        assert!(!sim.link_state().is_quiet());
    }

    #[test]
    fn heal_lets_later_broadcasts_through() {
        use crate::churn::{ChurnAction, ChurnSpec};
        let config = Config::bdopt_mbd1(10, 1);
        let mut sim = bd_simulation(10, 1, config, DelayModel::synchronous(), 1);
        let graph = generate::figure1_example();
        let spec = ChurnSpec::new()
            .at(0, ChurnAction::Partition { side: vec![0] })
            .at(500_000, ChurnAction::Heal);
        sim.set_churn(spec.compile(1), graph.edges());
        // First broadcast dies against the partition; the second, after the heal,
        // reaches everyone.
        sim.schedule_broadcast(SimTime::ZERO, 0, Payload::filled(1, 16));
        sim.schedule_broadcast(SimTime::from_millis(600), 0, Payload::filled(2, 16));
        sim.run_to_quiescence();
        let correct = sim.correct_processes();
        assert_eq!(
            sim.metrics()
                .delivered_count(BroadcastId::new(0, 0), &correct),
            0,
            "messages are not retransmitted after the heal"
        );
        assert_eq!(
            sim.metrics()
                .delivered_count(BroadcastId::new(0, 1), &correct),
            10
        );
        assert!(sim.link_state().is_quiet(), "heal restored every link");
    }

    #[test]
    fn restart_preserves_durable_deliveries_and_suppresses_duplicates() {
        use crate::churn::{ChurnAction, ChurnSpec};
        let config = Config::bdopt_mbd1(10, 1);
        let mut sim = bd_simulation(10, 1, config, DelayModel::synchronous(), 1);
        sim.set_restart_builder(move |i| {
            let graph = generate::figure1_example();
            BdProcess::new(i, config, graph.neighbors_vec(i))
        });
        let spec = ChurnSpec::new().at(1_000_000, ChurnAction::NodeRestart { process: 5 });
        sim.set_churn(spec.compile(1), Vec::new());
        sim.schedule_broadcast(SimTime::ZERO, 0, Payload::filled(1, 16));
        sim.schedule_broadcast(SimTime::from_millis(2_000), 3, Payload::filled(2, 16));
        sim.run_to_quiescence();
        assert_eq!(sim.restarts(), 1);
        // The restarted engine only saw the second broadcast; the first survives in the
        // durable log, so the combined view has both with no duplicates.
        assert_eq!(sim.processes()[5].deliveries().len(), 1);
        let full = sim.full_deliveries(5);
        assert_eq!(full.len(), 2);
        let ids: Vec<BroadcastId> = full.iter().map(|d| d.id).collect();
        assert_eq!(ids, vec![BroadcastId::new(0, 0), BroadcastId::new(3, 0)]);
        // A never-restarted process reports its engine log unchanged.
        assert_eq!(sim.full_deliveries(2).len(), 2);
    }

    #[test]
    fn per_link_delay_override_is_asymmetric() {
        use crate::churn::{ChurnAction, ChurnSpec};
        let config = Config::bdopt_mbd1(10, 1);
        let mut sim = bd_simulation(10, 1, config, DelayModel::synchronous(), 1);
        let spec = ChurnSpec::new().at(
            0,
            ChurnAction::SetLinkDelay {
                from: 0,
                to: 1,
                extra_micros: 250_000,
            },
        );
        sim.set_churn(spec.compile(1), Vec::new());
        sim.broadcast(0, Payload::filled(1, 16));
        sim.step_batch(); // applies the override before any message event
        sim.run_to_quiescence();
        // Every copy 0 -> 1 carries the extra 250 ms; the reverse direction does not,
        // so 1 still delivers on time through its other neighbors but the slow copies
        // arrive long after quiescence would otherwise be reached.
        let correct = sim.correct_processes();
        assert_eq!(
            sim.metrics()
                .delivered_count(BroadcastId::new(0, 0), &correct),
            10
        );
        assert!(
            sim.now() >= SimTime::from_millis(300),
            "the overridden link's copies stretch the run past 250 ms (now = {})",
            sim.now()
        );
    }

    #[test]
    #[should_panic(expected = "set_restart_builder")]
    fn restart_without_builder_panics() {
        use crate::churn::{ChurnAction, ChurnSpec};
        let config = Config::bdopt_mbd1(10, 1);
        let mut sim = bd_simulation(10, 1, config, DelayModel::synchronous(), 1);
        let spec = ChurnSpec::new().at(0, ChurnAction::NodeRestart { process: 2 });
        sim.set_churn(spec.compile(1), Vec::new());
        sim.broadcast(0, Payload::filled(1, 16));
        sim.run_to_quiescence();
    }

    #[test]
    fn crashed_source_injection_is_a_recorded_no_op() {
        let config = Config::bdopt_mbd1(10, 1);
        let mut sim = bd_simulation(10, 1, config, DelayModel::synchronous(), 1);
        sim.set_behavior(4, Behavior::Crash);
        sim.schedule_broadcast(SimTime::ZERO, 4, Payload::filled(1, 16));
        sim.run_to_quiescence();
        assert_eq!(sim.metrics().messages_sent, 0);
        assert_eq!(
            sim.metrics().injected_count(),
            0,
            "no-op injections leave no trace"
        );
    }
}
