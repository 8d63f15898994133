//! Bracha's authenticated double-echo broadcast (Algorithm 1 of the paper).
//!
//! This is the classic BRB protocol for **asynchronous, fully connected** networks with
//! authenticated, reliable point-to-point links, tolerating `f < N/3` Byzantine processes.
//! It is used in this repository as the upper protocol layer of the Bracha–Dolev
//! combination (see [`crate::bd`]) and as a standalone baseline on complete topologies.
//!
//! The protocol has three phases. The source sends `SEND(m)` to every process. On the
//! first `SEND(m)`, a process sends `ECHO(m)` to every process. On `⌈(N+f+1)/2⌉` ECHOs
//! (or `f+1` READYs), a process sends `READY(m)`. On `2f+1` READYs, it delivers `m`.

use std::collections::{BTreeSet, HashMap, HashSet};

use serde::{Deserialize, Serialize};

use crate::gc::{GcPolicy, GcState};
use crate::protocol::{ActionBuf, Protocol};
use crate::quorum;
use crate::types::{Action, BroadcastId, Content, Delivery, Payload, ProcessId};
use crate::wire::{FIELD_BID, FIELD_MTYPE, FIELD_PAYLOAD_SIZE, FIELD_PROCESS_ID};

/// Phase of a Bracha message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BrachaKind {
    /// Phase 1: the source disseminates the payload.
    Send,
    /// Phase 2: witnesses echo the payload.
    Echo,
    /// Phase 3: processes announce they are ready to deliver.
    Ready,
}

/// A message of Bracha's protocol.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BrachaMessage {
    /// Message phase.
    pub kind: BrachaKind,
    /// Broadcast identifier `(s, bid)`.
    pub id: BroadcastId,
    /// Payload data.
    pub payload: Payload,
}

impl BrachaMessage {
    /// Wire size following Table 3: `mtype + s + bid + payloadSize + payload`.
    pub fn wire_size(&self) -> usize {
        FIELD_MTYPE + FIELD_PROCESS_ID + FIELD_BID + FIELD_PAYLOAD_SIZE + self.payload.len()
    }
}

/// Per-content protocol state (Algorithm 1's `sentEcho`, `sentReady`, `delivered`,
/// `echos`, `readys`).
#[derive(Debug, Default, Clone)]
struct BrachaState {
    sent_echo: bool,
    sent_ready: bool,
    delivered: bool,
    echos: BTreeSet<ProcessId>,
    readys: BTreeSet<ProcessId>,
}

impl BrachaState {
    /// Memory proxy of one tracked content (Sec. 7.3 accounting, kept comparable with
    /// the other stacks): the buffered payload bytes (the [`Content`] key owns a copy
    /// until retirement), the quorum membership sets, and the three booleans.
    fn state_bytes(&self, content: &Content) -> usize {
        content.payload.len() + 8 * (self.echos.len() + self.readys.len()) + 3
    }
}

/// One process running Bracha's protocol on a fully connected network.
#[derive(Debug, Clone)]
pub struct BrachaProcess {
    id: ProcessId,
    n: usize,
    f: usize,
    states: HashMap<Content, BrachaState>,
    /// Running sum of [`BrachaState::state_bytes`] over `states`.
    state_bytes: usize,
    delivered_ids: HashSet<BroadcastId>,
    deliveries: Vec<Delivery>,
    next_seq: u32,
    gc: GcState,
    tracer: brb_trace::Tracer,
}

impl BrachaProcess {
    /// Creates a Bracha process.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not smaller than `n / 3` or if `id >= n`.
    pub fn new(id: ProcessId, n: usize, f: usize) -> Self {
        assert!(id < n, "process id {id} out of range for n = {n}");
        assert!(
            f <= quorum::max_faults(n),
            "f = {f} violates f < N/3 for N = {n}"
        );
        Self {
            id,
            n,
            f,
            states: HashMap::new(),
            state_bytes: 0,
            delivered_ids: HashSet::new(),
            deliveries: Vec::new(),
            next_seq: 0,
            gc: GcState::new(GcPolicy::DISABLED),
            tracer: brb_trace::Tracer::disabled(),
        }
    }

    /// Retires every instance whose retention window elapsed: quorum state and the
    /// delivered-id marker are pruned (the GC watermark keeps rejecting the id, which is
    /// what preserves BRB-No duplication after the prune).
    fn run_gc(&mut self) {
        for id in self.gc.due() {
            self.states.retain(|content, state| {
                let keep = content.id != id;
                if !keep {
                    self.state_bytes -= state.state_bytes(content);
                }
                keep
            });
            self.delivered_ids.remove(&id);
            self.tracer.emit(
                self.id,
                id.source,
                id.seq,
                brb_trace::TraceEventKind::Retired,
            );
        }
    }

    /// ECHO quorum size.
    pub fn echo_quorum(&self) -> usize {
        quorum::echo_quorum(self.n, self.f)
    }

    /// READY delivery quorum size.
    pub fn ready_quorum(&self) -> usize {
        quorum::ready_quorum(self.f)
    }

    /// Sends `message` to every other process and processes it locally, accumulating the
    /// resulting actions (Bracha's sends are all-to-all, including the sender itself).
    fn send_to_all(&mut self, message: BrachaMessage, actions: &mut Vec<Action<BrachaMessage>>) {
        for q in 0..self.n {
            if q != self.id {
                actions.push(Action::send(q, message.clone()));
            }
        }
        // Local copy: a process also counts its own Echo/Ready and handles its own Send.
        self.handle_internal(self.id, message, actions);
    }

    fn handle_internal(
        &mut self,
        from: ProcessId,
        message: BrachaMessage,
        actions: &mut Vec<Action<BrachaMessage>>,
    ) {
        // A label outside `0..n` comes from a faulty process: refuse the frame before it
        // creates state for a process that does not exist.
        if from >= self.n || message.id.source >= self.n {
            self.tracer.frame_refused(
                self.id,
                message.id.source,
                message.id.seq,
                brb_trace::DropCause::Malformed,
            );
            return;
        }
        // Frames for a retired instance are dropped deterministically: recreating the
        // entry below would resurrect pruned state (and could re-deliver).
        if self.gc.is_retired(message.id) {
            self.tracer.emit(
                self.id,
                message.id.source,
                message.id.seq,
                brb_trace::TraceEventKind::FrameDropped {
                    to: self.id,
                    cause: brb_trace::DropCause::GcRetired,
                },
            );
            return;
        }
        let content = Content::new(message.id, message.payload.clone());
        let state = self.states.entry(content.clone()).or_insert_with(|| {
            let fresh = BrachaState::default();
            self.state_bytes += fresh.state_bytes(&content);
            fresh
        });
        let before = state.state_bytes(&content);
        let mut send_echo = false;
        let mut send_ready = false;
        let mut deliver = false;
        match message.kind {
            BrachaKind::Send => {
                // Only the claimed source may originate a SEND; the authenticated link
                // exposes the actual sender, so a SEND relayed by someone else is ignored.
                if from == message.id.source && !state.sent_echo {
                    state.sent_echo = true;
                    send_echo = true;
                }
            }
            BrachaKind::Echo => {
                state.echos.insert(from);
                if state.echos.len() >= quorum::echo_quorum(self.n, self.f) && !state.sent_ready {
                    state.sent_ready = true;
                    send_ready = true;
                    self.tracer.emit(
                        self.id,
                        message.id.source,
                        message.id.seq,
                        brb_trace::TraceEventKind::EchoThreshold {
                            echoes: state.echos.len(),
                        },
                    );
                }
            }
            BrachaKind::Ready => {
                state.readys.insert(from);
                if state.readys.len() >= quorum::ready_amplification(self.f) && !state.sent_ready {
                    state.sent_ready = true;
                    send_ready = true;
                    self.tracer.emit(
                        self.id,
                        message.id.source,
                        message.id.seq,
                        brb_trace::TraceEventKind::ReadyAmplified,
                    );
                }
                if state.readys.len() >= quorum::ready_quorum(self.f) && !state.delivered {
                    state.delivered = true;
                    deliver = true;
                }
            }
        }
        self.state_bytes = self.state_bytes + state.state_bytes(&content) - before;
        if send_ready {
            self.tracer.emit(
                self.id,
                message.id.source,
                message.id.seq,
                brb_trace::TraceEventKind::ReadySent,
            );
        }
        if send_echo {
            self.send_to_all(
                BrachaMessage {
                    kind: BrachaKind::Echo,
                    id: message.id,
                    payload: message.payload.clone(),
                },
                actions,
            );
        }
        if send_ready {
            self.send_to_all(
                BrachaMessage {
                    kind: BrachaKind::Ready,
                    id: message.id,
                    payload: message.payload.clone(),
                },
                actions,
            );
        }
        if deliver && self.delivered_ids.insert(content.id) {
            self.gc.on_delivered(content.id);
            let delivery = Delivery {
                id: content.id,
                payload: content.payload,
            };
            self.deliveries.push(delivery.clone());
            actions.push(Action::Deliver(delivery));
        }
    }

    /// Shared body of [`Protocol::broadcast`] / [`Protocol::broadcast_into`].
    fn broadcast_inner(&mut self, payload: Payload, actions: &mut Vec<Action<BrachaMessage>>) {
        let id = BroadcastId::new(self.id, self.next_seq);
        self.next_seq += 1;
        self.tracer.emit(
            self.id,
            id.source,
            id.seq,
            brb_trace::TraceEventKind::Injected,
        );
        self.send_to_all(
            BrachaMessage {
                kind: BrachaKind::Send,
                id,
                payload,
            },
            actions,
        );
    }
}

impl Protocol for BrachaProcess {
    type Message = BrachaMessage;

    fn process_id(&self) -> ProcessId {
        self.id
    }

    fn next_seq(&self) -> u32 {
        self.next_seq
    }

    fn set_next_seq(&mut self, seq: u32) {
        self.next_seq = seq;
    }

    fn broadcast(&mut self, payload: Payload) -> Vec<Action<BrachaMessage>> {
        let mut actions = Vec::new();
        self.gc.on_event();
        self.broadcast_inner(payload, &mut actions);
        self.run_gc();
        actions
    }

    fn handle_message(
        &mut self,
        from: ProcessId,
        message: BrachaMessage,
    ) -> Vec<Action<BrachaMessage>> {
        let mut actions = Vec::new();
        self.gc.on_event();
        self.handle_internal(from, message, &mut actions);
        self.run_gc();
        actions
    }

    fn broadcast_into(&mut self, payload: Payload, out: &mut ActionBuf<BrachaMessage>) {
        self.gc.on_event();
        self.broadcast_inner(payload, out.as_mut_vec());
        self.run_gc();
    }

    fn handle_message_into(
        &mut self,
        from: ProcessId,
        message: BrachaMessage,
        out: &mut ActionBuf<BrachaMessage>,
    ) {
        self.gc.on_event();
        self.handle_internal(from, message, out.as_mut_vec());
        self.run_gc();
    }

    fn deliveries(&self) -> &[Delivery] {
        &self.deliveries
    }

    fn message_size(message: &BrachaMessage) -> usize {
        message.wire_size()
    }

    fn state_bytes(&self) -> usize {
        self.state_bytes
    }

    fn stored_paths(&self) -> usize {
        // Bracha assumes direct authenticated links and never records transmission
        // paths; reported explicitly (rather than via the trait default) so that the
        // Sec. 7.3 memory tables show a deliberate zero, not a missing metric.
        0
    }

    fn set_gc_policy(&mut self, policy: GcPolicy) {
        self.gc.set_policy(policy);
    }

    fn note_time(&mut self, now_ms: u64) {
        self.gc.note_time(now_ms);
    }

    fn gc_retired(&self) -> u64 {
        self.gc.retired_count()
    }

    fn set_tracer(&mut self, tracer: brb_trace::Tracer) {
        self.tracer = tracer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::check::{Checked, WalkState};

    /// The walk the running total replaced: every tracked content.
    impl WalkState for BrachaProcess {
        fn walk_state(&self) -> (usize, usize) {
            let bytes = self
                .states
                .iter()
                .map(|(content, s)| {
                    content.payload.len() + 8 * (s.echos.len() + s.readys.len()) + 3
                })
                .sum();
            (bytes, 0)
        }
    }

    /// Drives a set of Bracha processes to quiescence by synchronously delivering every
    /// sent message (a minimal in-test network with no Byzantine behaviour).
    fn run_to_quiescence(
        processes: &mut [BrachaProcess],
        initial: Vec<(ProcessId, Action<BrachaMessage>)>,
    ) {
        let mut queue: Vec<(ProcessId, Action<BrachaMessage>)> = initial;
        while let Some((sender, action)) = queue.pop() {
            if let Action::Send { to, message } = action {
                let actions = processes[to].handle_checked(sender, message);
                for a in actions {
                    queue.push((to, a));
                }
            }
        }
        for p in processes.iter() {
            p.clone().assert_totals();
        }
    }

    fn new_system(n: usize, f: usize) -> Vec<BrachaProcess> {
        (0..n).map(|i| BrachaProcess::new(i, n, f)).collect()
    }

    #[test]
    fn all_correct_processes_deliver_a_correct_broadcast() {
        let n = 7;
        let mut processes = new_system(n, 2);
        let actions = processes[0].broadcast_checked(Payload::from("hello"));
        let initial: Vec<_> = actions.into_iter().map(|a| (0, a)).collect();
        run_to_quiescence(&mut processes, initial);
        for p in &processes {
            assert_eq!(
                p.deliveries().len(),
                1,
                "process {} did not deliver",
                p.process_id()
            );
            assert_eq!(p.deliveries()[0].payload, Payload::from("hello"));
            assert_eq!(p.deliveries()[0].id, BroadcastId::new(0, 0));
        }
    }

    #[test]
    fn no_duplication_across_two_broadcasts() {
        let n = 4;
        let mut processes = new_system(n, 1);
        for round in 0..2 {
            let actions =
                processes[1].broadcast_checked(Payload::from(format!("m{round}").as_str()));
            let initial: Vec<_> = actions.into_iter().map(|a| (1, a)).collect();
            run_to_quiescence(&mut processes, initial);
        }
        for p in &processes {
            assert_eq!(p.deliveries().len(), 2);
            let ids: Vec<_> = p.deliveries().iter().map(|d| d.id).collect();
            assert_eq!(ids, vec![BroadcastId::new(1, 0), BroadcastId::new(1, 1)]);
        }
    }

    #[test]
    fn send_from_non_source_is_ignored() {
        let mut p = BrachaProcess::new(2, 4, 1);
        let msg = BrachaMessage {
            kind: BrachaKind::Send,
            id: BroadcastId::new(0, 0),
            payload: Payload::from("forged"),
        };
        // Process 3 forwards a SEND claiming to originate at process 0: ignored.
        let actions = p.handle_checked(3, msg);
        assert!(actions.is_empty());
    }

    #[test]
    fn ready_amplification_takes_over_without_echo_quorum() {
        // With n = 4, f = 1: ready amplification = 2, delivery = 3.
        let mut p = BrachaProcess::new(0, 4, 1);
        let mk = |kind| BrachaMessage {
            kind,
            id: BroadcastId::new(3, 0),
            payload: Payload::from("m"),
        };
        assert!(p.handle_checked(1, mk(BrachaKind::Ready)).is_empty());
        // Second ready triggers the amplification: our own Ready is sent to everyone, and
        // since our own Ready also counts towards the quorum (1 + 2 remote = 3 = 2f+1),
        // the content is delivered at the same event.
        let actions = p.handle_checked(2, mk(BrachaKind::Ready));
        let sends: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { to, message } => Some((*to, message.kind)),
                _ => None,
            })
            .collect();
        assert_eq!(sends.len(), 3);
        assert!(sends.iter().all(|(_, k)| *k == BrachaKind::Ready));
        assert!(actions.iter().any(|a| a.as_delivery().is_some()));
        // A third ready must not produce a duplicate delivery (BRB-No duplication).
        let actions = p.handle_checked(3, mk(BrachaKind::Ready));
        assert!(actions.iter().all(|a| a.as_delivery().is_none()));
        assert_eq!(p.deliveries().len(), 1);
    }

    #[test]
    fn equivocating_source_leads_to_at_most_one_delivery_per_id() {
        // A Byzantine source sends SEND(m1) to half the processes and SEND(m2) to the
        // other half, with the same broadcast id. Echo quorums cannot form for both, so
        // at most one payload is delivered by correct processes; and whichever is
        // delivered is delivered by all (agreement) — here neither reaches a quorum.
        let n = 4;
        let mut processes = new_system(n, 1);
        let id = BroadcastId::new(3, 0);
        let m1 = BrachaMessage {
            kind: BrachaKind::Send,
            id,
            payload: Payload::from("m1"),
        };
        let m2 = BrachaMessage {
            kind: BrachaKind::Send,
            id,
            payload: Payload::from("m2"),
        };
        // Byzantine process 3 equivocates towards 0/1 (m1) and 2 (m2).
        let mut queue: Vec<(ProcessId, Action<BrachaMessage>)> = Vec::new();
        for (target, msg) in [(0usize, m1.clone()), (1, m1), (2, m2)] {
            for a in processes[target].handle_checked(3, msg) {
                queue.push((target, a));
            }
        }
        // Drop every message addressed to the Byzantine process 3 and run to quiescence.
        while let Some((sender, action)) = queue.pop() {
            if let Action::Send { to, message } = action {
                if to == 3 {
                    continue;
                }
                for a in processes[to].handle_checked(sender, message) {
                    queue.push((to, a));
                }
            }
        }
        let delivered_payloads: Vec<_> = processes[..3]
            .iter()
            .flat_map(|p| p.deliveries().iter().map(|d| d.payload.clone()))
            .collect();
        // Either nobody delivered, or everyone delivered the same payload.
        if !delivered_payloads.is_empty() {
            assert!(delivered_payloads.windows(2).all(|w| w[0] == w[1]));
        }
        for p in &processes[..3] {
            assert!(p.deliveries().len() <= 1);
        }
    }

    #[test]
    fn wire_size_matches_table3() {
        let m = BrachaMessage {
            kind: BrachaKind::Echo,
            id: BroadcastId::new(0, 0),
            payload: Payload::filled(0, 1024),
        };
        assert_eq!(m.wire_size(), 1 + 4 + 4 + 4 + 1024);
    }

    #[test]
    fn state_bytes_grow_with_activity() {
        let mut p = BrachaProcess::new(0, 4, 1);
        let before = p.state_bytes();
        p.handle_checked(
            1,
            BrachaMessage {
                kind: BrachaKind::Echo,
                id: BroadcastId::new(2, 0),
                payload: Payload::from("m"),
            },
        );
        assert!(p.state_bytes() > before);
    }

    #[test]
    fn gc_retires_delivered_instances_and_drops_replays() {
        let n = 4;
        let mut processes = new_system(n, 1);
        for p in &mut processes {
            p.set_gc_policy(GcPolicy::after_events(2));
        }
        let actions = processes[0].broadcast_checked(Payload::from("gc"));
        let initial: Vec<_> = actions.into_iter().map(|a| (0, a)).collect();
        run_to_quiescence(&mut processes, initial);
        assert!(processes.iter().all(|p| p.deliveries().len() == 1));
        // Push every process past its retention window with unrelated traffic.
        let unrelated = |seq| BrachaMessage {
            kind: BrachaKind::Echo,
            id: BroadcastId::new(1, seq),
            payload: Payload::from("pad"),
        };
        for p in &mut processes {
            for seq in 10..14 {
                p.handle_checked(2, unrelated(seq));
            }
            assert!(p.gc_retired() >= 1, "the delivered instance must retire");
        }
        let p = &mut processes[3];
        let retired_state = p.state_bytes();
        // Replaying the full READY quorum of the retired broadcast must neither
        // re-deliver nor recreate state.
        for from in 0..3 {
            let actions = p.handle_checked(
                from,
                BrachaMessage {
                    kind: BrachaKind::Ready,
                    id: BroadcastId::new(0, 0),
                    payload: Payload::from("gc"),
                },
            );
            assert!(actions.is_empty(), "replayed frames are no-ops");
        }
        assert_eq!(p.deliveries().len(), 1, "no duplicate delivery");
        assert_eq!(p.state_bytes(), retired_state, "no state regrowth");
    }

    #[test]
    #[should_panic(expected = "violates")]
    fn rejects_invalid_fault_threshold() {
        BrachaProcess::new(0, 6, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_id() {
        BrachaProcess::new(9, 4, 1);
    }

    #[test]
    fn labels_outside_the_system_are_refused_before_any_state_exists() {
        let mut p = BrachaProcess::new(1, 4, 1);
        let wild = 4_000_000_000usize;
        let echo = |source: ProcessId| BrachaMessage {
            kind: BrachaKind::Echo,
            id: BroadcastId::new(source, 0),
            payload: Payload::from("m"),
        };
        for (from, message) in [(2, echo(wild)), (2, echo(4)), (wild, echo(0))] {
            assert!(p.handle_checked(from, message).is_empty());
            assert_eq!(p.state_bytes(), 0);
            assert!(p.states.is_empty());
        }
        p.handle_checked(2, echo(3));
        assert!(p.state_bytes() > 0);
    }
}
