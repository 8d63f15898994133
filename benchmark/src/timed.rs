//! The benchmark-owned wrappers of the traced repetitions: [`TimedEngine`] around a boxed
//! [`DynEngine`] (the codec path deployments use), [`TimedBd`] around the typed
//! [`BdProcess`] (the simulator's typed path) and [`TimedTransport`] around a base
//! [`Transport`]. They forward every call unchanged — `tests/observer.rs` checks a
//! wrapped run against an unwrapped one byte for byte — and record into a
//! [`TraceHub`] when dropped.

use std::cell::Cell;
use std::sync::Arc;

use brb_core::bd::BdProcess;
use brb_core::gc::GcPolicy;
use brb_core::pathset::PathSet;
use brb_core::protocol::{ActionBuf, Protocol};
use brb_core::stack::{DynEngine, WireAction, WireActionBuf};
use brb_core::types::{Action, BroadcastId, BroadcastSeq, Delivery, Payload, ProcessId};
use brb_core::wire::{MessageKind, WireMessage};
use brb_transport::{Frame, OutFrame, SendReceipt, Transport};
use bytes::Bytes;
use crossbeam::channel::Receiver;

use crate::host::thread_cpu_ns;
use crate::seeds::splitmix64;
use crate::trace::{
    cause, gap_begins, gap_ends, request_of, root_id, sampled, set_cause, CallTimes, EngineTrace,
    PathRecord, Request, SendStats, Span, TraceHub, CPU_SAMPLE_EVERY, FRAME_LOG_CAP,
};

/// Handle calls between two `stored_paths()` samples.
const STORED_PATHS_STRIDE: u64 = 256;

/// Received paths are logged at every eighth process (ids 1, 9, 17, ...): building a
/// path record per message at every process costs the traced run several per cent, and
/// the processes of a regular topology do statistically the same work.
pub fn logs_paths(node: ProcessId) -> bool {
    node % 8 == 1
}

/// The clocks read when a timed call started.
#[derive(Clone, Copy)]
struct Started {
    wall_ns: u64,
    /// The thread's CPU clock, on the calls picked for it.
    cpu_ns: Option<u64>,
}

/// Reads the clocks around calls: the wall clock always; with `sample_cpu` also the
/// thread's CPU clock around a random call in [`CPU_SAMPLE_EVERY`], and across a random
/// one in as many of the gaps between calls (random, so that no period of the traffic
/// can line up with the sampling).
struct Stopwatch {
    hub: Arc<TraceHub>,
    rng: u64,
    /// Off inside the simulator: one thread runs everything there, so wall time inside
    /// a call *is* its CPU time, and the two system calls per sample are saved.
    sample_cpu: bool,
}

impl Stopwatch {
    fn new(hub: Arc<TraceHub>, node: ProcessId, sample_cpu: bool) -> Self {
        Self {
            hub,
            rng: 0x5EED ^ node as u64,
            sample_cpu,
        }
    }

    fn picks(&mut self) -> bool {
        self.sample_cpu && splitmix64(&mut self.rng).is_multiple_of(CPU_SAMPLE_EVERY)
    }

    fn start(&mut self) -> Started {
        let picked = self.picks();
        self.start_with_cpu(picked)
    }

    fn start_with_cpu(&self, with_cpu: bool) -> Started {
        if self.sample_cpu {
            gap_ends(thread_cpu_ns);
        }
        Started {
            cpu_ns: (with_cpu && self.sample_cpu).then(thread_cpu_ns),
            wall_ns: self.hub.now_ns(),
        }
    }

    /// Books the call that `started` opened into `times`; returns when it ended.
    fn stop(&mut self, started: Started, times: &mut CallTimes) -> u64 {
        let end_ns = self.hub.now_ns();
        let cpu_ns = started.cpu_ns.map(|at_start| thread_cpu_ns() - at_start);
        times.record(end_ns - started.wall_ns, cpu_ns);
        if self.sample_cpu {
            let picked = self.picks();
            gap_begins(picked.then(thread_cpu_ns));
        }
        end_ns
    }
}

/// The recording half shared by both engine wrappers.
struct CallRecorder {
    watch: Stopwatch,
    trace: EngineTrace,
    spans: Vec<Span>,
    /// `state_bytes`/`stored_paths` take `&self`: their time is added up here and
    /// folded into the counters when the wrapper is dropped.
    probe_ns: Cell<u64>,
}

impl CallRecorder {
    fn new(hub: Arc<TraceHub>, node: ProcessId, sample_cpu: bool) -> Self {
        Self {
            watch: Stopwatch::new(hub, node, sample_cpu),
            trace: EngineTrace {
                node,
                ..EngineTrace::default()
            },
            spans: Vec::new(),
            probe_ns: Cell::new(0),
        }
    }

    /// Times one of the read-only probes the host makes between events.
    fn probe<R>(&self, call: impl FnOnce() -> R) -> R {
        let hub = &self.watch.hub;
        let start = hub.now_ns();
        let result = call();
        self.probe_ns
            .set(self.probe_ns.get() + hub.now_ns() - start);
        result
    }

    /// Keeps the call as a span if its broadcast is a sampled one, and publishes it as
    /// the cause of the sends the host is about to dispatch on this thread.
    fn note_span(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        request: Option<Request>,
    ) {
        let mut span_id = 0;
        if let Some(request) = request.filter(|r| sampled(*r)) {
            if let Some(id) = self.watch.hub.claim_span() {
                span_id = id;
                self.spans.push(Span {
                    id,
                    parent: root_id(request),
                    name,
                    start_ns,
                    end_ns,
                    request,
                });
            }
        }
        set_cause(span_id, request.unwrap_or_default());
    }

    fn finish_handle(&mut self, started: Started, actions: usize, request: Option<Request>) {
        let end_ns = self.watch.stop(started, &mut self.trace.stats.handle);
        self.trace.stats.actions += actions as u64;
        self.trace.stats.useful_calls += u64::from(actions > 0);
        self.note_span("core.engine.handle", started.wall_ns, end_ns, request);
    }

    /// Stops the clocks of a broadcast entry call (its request may only be known from
    /// what it emitted, so the span is noted separately).
    fn stop_broadcast(&mut self, started: Started) -> u64 {
        self.watch.stop(started, &mut self.trace.stats.broadcast)
    }

    /// Whether this handle call is one on which `stored_paths()` is sampled.
    fn samples_stored_paths(&self) -> bool {
        self.trace
            .stats
            .handle
            .calls
            .is_multiple_of(STORED_PATHS_STRIDE)
    }

    fn note_stored_paths(&mut self, paths: usize) {
        let peak = &mut self.trace.stats.stored_paths_peak;
        *peak = (*peak).max(paths as u64);
    }

    fn log_frames(&mut self, emitted: &[WireAction]) {
        for action in emitted {
            if self.trace.frames.len() >= FRAME_LOG_CAP {
                return;
            }
            if let WireAction::Send {
                frame, wire_size, ..
            } = action
            {
                self.trace.frames.push((frame.clone(), *wire_size));
            }
        }
    }

    /// Hands everything over to the hub; `stored_paths`/`state_bytes` are the engine's
    /// final readings.
    fn flush(&mut self, stored_paths: usize, state_bytes: usize) {
        self.note_stored_paths(stored_paths);
        self.trace.stats.probe_ns = self.probe_ns.get();
        self.trace.stats.state_bytes_end = state_bytes as u64;
        self.watch.hub.push_spans(std::mem::take(&mut self.spans));
        self.watch.hub.push_engine(std::mem::take(&mut self.trace));
    }
}

/// The path a Bracha-Dolev message carries, as `BdProcess::handle_dolev` derives it.
fn path_record(me: ProcessId, from: ProcessId, message: &WireMessage) -> PathRecord {
    let mut path = PathSet::from_iter_ids(message.path.iter().copied());
    path.insert(from);
    path.remove(message.originator);
    path.remove(me);
    let kind = MessageKind::ALL
        .iter()
        .position(|k| *k == message.kind)
        .unwrap_or(0) as u8;
    PathRecord {
        instance: (message.id, kind, message.originator),
        path,
        via: from,
        direct: from == message.originator,
    }
}

/// A boxed engine with a stopwatch around every call.
pub struct TimedEngine {
    inner: Box<dyn DynEngine>,
    recorder: CallRecorder,
    /// Whether inbound frames are Bracha-Dolev [`WireMessage`]s whose paths feed the
    /// `core.disjoint` replay (decoding happens outside the timed call).
    log_paths: bool,
}

impl TimedEngine {
    /// Wraps `inner`. `log_paths` asks for the received paths of a Bracha-Dolev engine
    /// (kept at the processes [`logs_paths`] names); `sample_cpu` for the thread CPU
    /// clock around a sample of the calls (engines that share a core with other threads).
    pub fn new(
        inner: Box<dyn DynEngine>,
        hub: Arc<TraceHub>,
        log_paths: bool,
        sample_cpu: bool,
    ) -> Self {
        let node = inner.process_id();
        Self {
            inner,
            recorder: CallRecorder::new(hub, node, sample_cpu),
            log_paths: log_paths && logs_paths(node),
        }
    }

    /// Books a finished broadcast entry call that emitted `emitted`.
    fn finish_broadcast(
        &mut self,
        started: Started,
        request: Option<Request>,
        emitted: &[WireAction],
    ) {
        let end_ns = self.recorder.stop_broadcast(started);
        // A plain broadcast's id is the one the engine just minted: it is on the frames.
        let request = request.or_else(|| {
            emitted.iter().find_map(|action| match action {
                WireAction::Send { frame, .. } => {
                    self.inner.frame_broadcast_id(frame).map(request_of)
                }
                WireAction::Deliver(delivery) => Some(request_of(delivery.id)),
            })
        });
        self.recorder
            .note_span("core.engine.broadcast", started.wall_ns, end_ns, request);
        self.recorder.log_frames(emitted);
    }
}

impl Drop for TimedEngine {
    fn drop(&mut self) {
        let (paths, bytes) = (self.inner.stored_paths(), self.inner.state_bytes());
        self.recorder.flush(paths, bytes);
    }
}

impl DynEngine for TimedEngine {
    fn process_id(&self) -> ProcessId {
        self.inner.process_id()
    }

    fn broadcast_wire(&mut self, payload: Payload, out: &mut WireActionBuf) {
        let before = out.len();
        // Broadcast entries are few: every one has its CPU time read (where any is).
        let started = self.recorder.watch.start_with_cpu(true);
        self.inner.broadcast_wire(payload, out);
        self.finish_broadcast(started, None, &out.as_slice()[before..]);
    }

    fn broadcast_wire_seq(&mut self, seq: BroadcastSeq, payload: Payload, out: &mut WireActionBuf) {
        let before = out.len();
        let request = (self.inner.process_id() as u32, seq);
        let started = self.recorder.watch.start_with_cpu(true);
        self.inner.broadcast_wire_seq(seq, payload, out);
        self.finish_broadcast(started, Some(request), &out.as_slice()[before..]);
    }

    fn handle_frame(&mut self, from: ProcessId, frame: &[u8], out: &mut WireActionBuf) {
        let before = out.len();
        let request = self.inner.frame_broadcast_id(frame).map(request_of);
        let started = self.recorder.watch.start();
        self.inner.handle_frame(from, frame, out);
        self.recorder
            .finish_handle(started, out.len() - before, request);
        self.recorder.log_frames(&out.as_slice()[before..]);
        if self.log_paths {
            if let Some(message) = WireMessage::decode(frame) {
                let record = path_record(self.inner.process_id(), from, &message);
                self.recorder.trace.paths.push(record);
            }
        }
        if self.recorder.samples_stored_paths() {
            let paths = self.inner.stored_paths();
            self.recorder.note_stored_paths(paths);
        }
    }

    fn deliveries(&self) -> &[Delivery] {
        self.inner.deliveries()
    }

    fn state_bytes(&self) -> usize {
        self.recorder.probe(|| self.inner.state_bytes())
    }

    fn stored_paths(&self) -> usize {
        self.recorder.probe(|| self.inner.stored_paths())
    }

    fn set_gc_policy(&mut self, policy: GcPolicy) {
        self.inner.set_gc_policy(policy);
    }

    fn note_time(&mut self, now_ms: u64) {
        self.inner.note_time(now_ms);
    }

    fn gc_retired(&self) -> u64 {
        self.inner.gc_retired()
    }

    fn set_tracer(&mut self, tracer: brb_trace::Tracer) {
        self.inner.set_tracer(tracer);
    }

    fn frame_broadcast_id(&self, frame: &[u8]) -> Option<BroadcastId> {
        self.inner.frame_broadcast_id(frame)
    }
}

/// The typed Bracha-Dolev engine with a stopwatch around every call: what the
/// simulator's typed path (`Simulation<BdProcess>`, no codec) is traced through.
pub struct TimedBd {
    inner: BdProcess,
    recorder: CallRecorder,
}

impl TimedBd {
    /// Wraps `inner`.
    pub fn new(inner: BdProcess, hub: Arc<TraceHub>) -> Self {
        let node = Protocol::process_id(&inner);
        Self {
            inner,
            recorder: CallRecorder::new(hub, node, false),
        }
    }
}

impl Drop for TimedBd {
    fn drop(&mut self) {
        let paths = Protocol::stored_paths(&self.inner);
        let bytes = Protocol::state_bytes(&self.inner);
        self.recorder.flush(paths, bytes);
    }
}

impl Protocol for TimedBd {
    type Message = WireMessage;

    fn process_id(&self) -> ProcessId {
        Protocol::process_id(&self.inner)
    }

    fn broadcast(&mut self, payload: Payload) -> Vec<Action<WireMessage>> {
        let mut out = ActionBuf::new();
        self.broadcast_into(payload, &mut out);
        out.into_vec()
    }

    fn handle_message(
        &mut self,
        from: ProcessId,
        message: WireMessage,
    ) -> Vec<Action<WireMessage>> {
        let mut out = ActionBuf::new();
        self.handle_message_into(from, message, &mut out);
        out.into_vec()
    }

    fn broadcast_into(&mut self, payload: Payload, out: &mut ActionBuf<WireMessage>) {
        let request = (
            Protocol::process_id(self) as u32,
            Protocol::next_seq(&self.inner),
        );
        let started = self.recorder.watch.start_with_cpu(true);
        self.inner.broadcast_into(payload, out);
        let end_ns = self.recorder.stop_broadcast(started);
        self.recorder.note_span(
            "core.engine.broadcast",
            started.wall_ns,
            end_ns,
            Some(request),
        );
    }

    fn handle_message_into(
        &mut self,
        from: ProcessId,
        message: WireMessage,
        out: &mut ActionBuf<WireMessage>,
    ) {
        let before = out.len();
        let request = request_of(message.id);
        let me = Protocol::process_id(self);
        let record = logs_paths(me).then(|| path_record(me, from, &message));
        let started = self.recorder.watch.start();
        self.inner.handle_message_into(from, message, out);
        self.recorder
            .finish_handle(started, out.len() - before, Some(request));
        self.recorder.trace.paths.extend(record);
        if self.recorder.samples_stored_paths() {
            let paths = Protocol::stored_paths(&self.inner);
            self.recorder.note_stored_paths(paths);
        }
    }

    fn next_seq(&self) -> BroadcastSeq {
        Protocol::next_seq(&self.inner)
    }

    fn set_next_seq(&mut self, seq: BroadcastSeq) {
        Protocol::set_next_seq(&mut self.inner, seq);
    }

    fn deliveries(&self) -> &[Delivery] {
        Protocol::deliveries(&self.inner)
    }

    fn message_size(message: &WireMessage) -> usize {
        BdProcess::message_size(message)
    }

    fn state_bytes(&self) -> usize {
        self.recorder.probe(|| Protocol::state_bytes(&self.inner))
    }

    fn stored_paths(&self) -> usize {
        self.recorder.probe(|| Protocol::stored_paths(&self.inner))
    }

    fn set_gc_policy(&mut self, policy: GcPolicy) {
        Protocol::set_gc_policy(&mut self.inner, policy);
    }

    fn note_time(&mut self, now_ms: u64) {
        Protocol::note_time(&mut self.inner, now_ms);
    }

    fn gc_retired(&self) -> u64 {
        Protocol::gc_retired(&self.inner)
    }

    fn set_tracer(&mut self, tracer: brb_trace::Tracer) {
        Protocol::set_tracer(&mut self.inner, tracer);
    }
}

/// A base transport with a stopwatch around every send: the innermost layer, under
/// whatever `DriverOptions::decorate_observed` stacks on top.
pub struct TimedTransport<T: Transport> {
    inner: T,
    /// Span name: the layer the base transport belongs to.
    name: &'static str,
    watch: Stopwatch,
    stats: SendStats,
    spans: Vec<Span>,
}

impl<T: Transport> TimedTransport<T> {
    /// Wraps process `node`'s base transport; `name` is the span name of its sends.
    pub fn new(inner: T, name: &'static str, node: ProcessId, hub: Arc<TraceHub>) -> Self {
        Self {
            inner,
            name,
            watch: Stopwatch::new(hub, node, true),
            stats: SendStats::default(),
            spans: Vec::new(),
        }
    }

    fn finish(&mut self, started: Started, frames: usize) {
        let end_ns = self.watch.stop(started, &mut self.stats.calls);
        self.stats.frames += frames as u64;
        let (parent, request) = cause();
        if parent != 0 {
            if let Some(id) = self.watch.hub.claim_span() {
                self.spans.push(Span {
                    id,
                    parent,
                    name: self.name,
                    start_ns: started.wall_ns,
                    end_ns,
                    request,
                });
            }
        }
    }
}

impl<T: Transport> Drop for TimedTransport<T> {
    fn drop(&mut self) {
        self.watch.hub.push_spans(std::mem::take(&mut self.spans));
        self.watch.hub.push_sends(&self.stats);
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn inbound(&self) -> &Receiver<Frame> {
        self.inner.inbound()
    }

    fn peers(&self) -> Vec<ProcessId> {
        self.inner.peers()
    }

    fn send(&mut self, to: ProcessId, frame: &Bytes, wire_size: usize) -> usize {
        let started = self.watch.start();
        let copies = self.inner.send(to, frame, wire_size);
        self.finish(started, 1);
        copies
    }

    fn send_batch(&mut self, to: ProcessId, frames: &[OutFrame]) -> SendReceipt {
        let started = self.watch.start();
        let receipt = self.inner.send_batch(to, frames);
        self.finish(started, frames.len());
        receipt
    }
}
