//! Dolev's reliable communication protocol (Algorithm 2 of the paper) with Bonomi et al.'s
//! practical modifications MD.1–5.
//!
//! Dolev's protocol provides **reliable communication** (reliable broadcast with honest
//! dealer) on any network whose vertex connectivity is at least `2f+1`, in the global
//! fault model, with authenticated reliable links and an *unknown* topology. Messages are
//! flooded together with the list of process labels they traversed; a process delivers a
//! content once it has received it through at least `f+1` node-disjoint paths (or directly
//! from the source with MD.1).
//!
//! This standalone implementation is used as a baseline and as a building block for tests;
//! the Bracha–Dolev combination in [`crate::bd`] embeds its own Dolev instances to benefit
//! from the cross-layer modifications MBD.1–12.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::config::MdFlags;
use crate::disjoint::DisjointPathTracker;
use crate::footprint::Footprint;
use crate::gc::{GcPolicy, GcState};
use crate::pathset::PathSet;
use crate::protocol::{ActionBuf, Protocol};
use crate::types::{Action, BroadcastId, Content, Delivery, Payload, ProcessId};
use crate::wire::{FIELD_BID, FIELD_MTYPE, FIELD_PATH_LEN, FIELD_PAYLOAD_SIZE, FIELD_PROCESS_ID};

/// A message of Dolev's protocol: a content and the path of process labels it traversed
/// (excluding the current sender, which the receiver learns from the authenticated link).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DolevMessage {
    /// The broadcast content (source, sequence number and payload).
    pub content: Content,
    /// Labels of the processes traversed so far.
    pub path: Vec<ProcessId>,
}

impl DolevMessage {
    /// Wire size following Table 3: `mtype + s + bid + payloadSize + payload + pathLen +
    /// 4 * |path|`.
    pub fn wire_size(&self) -> usize {
        FIELD_MTYPE
            + FIELD_PROCESS_ID
            + FIELD_BID
            + FIELD_PAYLOAD_SIZE
            + self.content.payload.len()
            + FIELD_PATH_LEN
            + FIELD_PROCESS_ID * self.path.len()
    }
}

/// Per-content dissemination state.
#[derive(Debug, Clone)]
struct InstanceState {
    tracker: DisjointPathTracker,
    delivered: bool,
    /// Whether the empty path has been forwarded after delivery (MD.2 / MD.5).
    relayed_empty: bool,
    /// Neighbors that sent us an empty path, i.e. that already delivered (MD.3 / MD.4).
    neighbors_delivered: PathSet,
}

impl InstanceState {
    fn new() -> Self {
        Self {
            tracker: DisjointPathTracker::new(),
            delivered: false,
            relayed_empty: false,
            neighbors_delivered: PathSet::new(),
        }
    }

    /// Memory proxy of this instance: the tracker's paths and combinations plus the
    /// delivered-neighbor set.
    fn footprint(&self) -> Footprint {
        Footprint::new(
            self.tracker.approx_memory_bytes() + 8 * self.neighbors_delivered.len(),
            self.tracker.path_count(),
        )
    }
}

/// Looks up the instance of `content`, creating (and counting) it on first sight.
fn instance_entry<'a>(
    instances: &'a mut HashMap<Content, InstanceState>,
    total: &mut Footprint,
    content: &Content,
) -> &'a mut InstanceState {
    instances.entry(content.clone()).or_insert_with(|| {
        let fresh = InstanceState::new();
        total.add(fresh.footprint());
        fresh
    })
}

/// One process running Dolev's reliable-communication protocol on an unknown topology.
#[derive(Debug, Clone)]
pub struct DolevProcess {
    id: ProcessId,
    /// System size: the labels a well-formed message may carry are `0..n`.
    n: usize,
    f: usize,
    neighbors: Vec<ProcessId>,
    md: MdFlags,
    instances: HashMap<Content, InstanceState>,
    /// Running sum of [`InstanceState::footprint`] over `instances`.
    footprint: Footprint,
    deliveries: Vec<Delivery>,
    next_seq: u32,
    gc: GcState,
    tracer: brb_trace::Tracer,
}

impl DolevProcess {
    /// Creates a Dolev process of a system of `n` processes given its direct
    /// neighborhood (the rest of the topology stays unknown to it).
    pub fn new(id: ProcessId, n: usize, f: usize, neighbors: Vec<ProcessId>, md: MdFlags) -> Self {
        Self {
            id,
            n,
            f,
            neighbors,
            md,
            instances: HashMap::new(),
            footprint: Footprint::ZERO,
            deliveries: Vec::new(),
            next_seq: 0,
            gc: GcState::new(GcPolicy::DISABLED),
            tracer: brb_trace::Tracer::disabled(),
        }
    }

    /// Prunes the state of every instance whose retention window elapsed.
    fn run_gc(&mut self) {
        for id in self.gc.due() {
            self.instances.retain(|content, state| {
                let keep = content.id != id;
                if !keep {
                    self.footprint.remove(state.footprint());
                }
                keep
            });
            self.tracer
                .emit(self.id, id.source, id.seq, brb_trace::TraceEventKind::Retired);
        }
    }

    /// Number of node-disjoint paths required for delivery (`f + 1`).
    pub fn delivery_threshold(&self) -> usize {
        self.f + 1
    }

    /// The neighbors of this process.
    pub fn neighbors(&self) -> &[ProcessId] {
        &self.neighbors
    }

    /// Number of paths currently stored across all contents (memory proxy, Sec. 7.3).
    pub fn stored_paths(&self) -> usize {
        self.footprint.paths
    }

    fn deliver(
        content: &Content,
        state: &mut InstanceState,
        deliveries: &mut Vec<Delivery>,
        actions: &mut Vec<Action<DolevMessage>>,
    ) {
        if state.delivered {
            return;
        }
        state.delivered = true;
        let delivery = Delivery {
            id: content.id,
            payload: content.payload.clone(),
        };
        deliveries.push(delivery.clone());
        actions.push(Action::Deliver(delivery));
    }

    /// Shared body of [`Protocol::broadcast`] / [`Protocol::broadcast_into`].
    fn broadcast_inner(&mut self, payload: Payload, actions: &mut Vec<Action<DolevMessage>>) {
        let id = BroadcastId::new(self.id, self.next_seq);
        self.next_seq += 1;
        self.tracer
            .emit(self.id, id.source, id.seq, brb_trace::TraceEventKind::Injected);
        let content = Content::new(id, payload);
        for &q in &self.neighbors {
            actions.push(Action::send(
                q,
                DolevMessage {
                    content: content.clone(),
                    path: Vec::new(),
                },
            ));
        }
        // The source delivers its own message immediately (Algorithm 2, lines 12–13).
        let state = instance_entry(&mut self.instances, &mut self.footprint, &content);
        Self::deliver(&content, state, &mut self.deliveries, actions);
        state.relayed_empty = true;
        self.gc.on_delivered(id);
    }

    /// Shared body of [`Protocol::handle_message`] / [`Protocol::handle_message_into`].
    fn handle_message_inner(
        &mut self,
        from: ProcessId,
        message: DolevMessage,
        actions: &mut Vec<Action<DolevMessage>>,
    ) {
        let content = message.content.clone();
        let source = content.id.source;
        // A label outside `0..n` comes from a faulty neighbor: refuse the frame before it
        // can size a path set.
        if from >= self.n || source >= self.n || message.path.iter().any(|&p| p >= self.n) {
            self.tracer.frame_refused(
                self.id,
                source,
                content.id.seq,
                brb_trace::DropCause::Malformed,
            );
            return;
        }
        // Frames of a retired instance are dropped before they can recreate state.
        if self.gc.is_retired(content.id) {
            self.tracer.emit(
                self.id,
                content.id.source,
                content.id.seq,
                brb_trace::TraceEventKind::FrameDropped {
                    to: self.id,
                    cause: brb_trace::DropCause::GcRetired,
                },
            );
            return;
        }
        let state = instance_entry(&mut self.instances, &mut self.footprint, &content);
        // Late message: delivered and announced, so nothing can be absorbed, and nothing
        // is relayed: under MD.2 the empty path subsumes any further path, and MD.5 stops
        // relaying outright. It can only tell us that its sender delivered too
        // (MD.3/MD.4).
        if state.delivered && state.relayed_empty && (self.md.md2 || self.md.md5) {
            let announces_delivery = message.path.is_empty() && from != source;
            if announces_delivery && state.neighbors_delivered.insert(from) {
                self.footprint.bytes += 8;
            }
            return;
        }
        let before = state.footprint();
        // Everything that changes the instance's footprint happens in this block, so it
        // is settled once after it: yields whether the instance was already delivered, or
        // `None` when MD.4 discards the path.
        let absorbed = 'absorb: {
            // An empty path received from a process other than the source signals that
            // this neighbor has delivered the content (it applied MD.2).
            if message.path.is_empty() && from != source {
                state.neighbors_delivered.insert(from);
            }

            // MD.4: ignore paths that contain the label of a neighbor known to have
            // delivered.
            if self.md.md4
                && message
                    .path
                    .iter()
                    .any(|&p| state.neighbors_delivered.contains(p))
            {
                break 'absorb None;
            }

            // Intermediate nodes of the claimed route: traversed labels plus the relaying
            // neighbor, minus the source and ourselves.
            let mut intermediate = PathSet::from_iter_ids(message.path.iter().copied());
            intermediate.insert(from);
            intermediate.remove(source);
            intermediate.remove(self.id);
            let direct = from == source;

            let was_delivered = state.delivered;
            if !was_delivered {
                if direct {
                    state.tracker.record_direct();
                } else {
                    state.tracker.add_path(intermediate, from);
                }
                self.tracer.emit(
                    self.id,
                    content.id.source,
                    content.id.seq,
                    brb_trace::TraceEventKind::PathAccumulated {
                        paths: state.tracker.path_count(),
                    },
                );
                let threshold_met = state.tracker.reaches(self.f + 1);
                let md1_delivery = self.md.md1 && direct;
                if threshold_met {
                    self.tracer.emit(
                        self.id,
                        content.id.source,
                        content.id.seq,
                        brb_trace::TraceEventKind::DisjointReached {
                            disjoint: self.f + 1,
                        },
                    );
                }
                if threshold_met || md1_delivery {
                    Self::deliver(&content, state, &mut self.deliveries, actions);
                    if self.md.md2 {
                        state.tracker.clear_paths();
                    }
                }
            }
            Some(was_delivered)
        };
        self.footprint.settle(before, state.footprint());
        let Some(was_delivered) = absorbed else {
            return;
        };

        // Relay logic.
        let newly_delivered = state.delivered && !was_delivered;
        if newly_delivered {
            self.gc.on_delivered(content.id);
        }
        if state.delivered && self.md.md2 && !state.relayed_empty {
            // MD.2: forward the content with an empty path to all neighbors (skipping
            // the ones that already delivered when MD.3 is enabled).
            state.relayed_empty = true;
            for &q in &self.neighbors {
                if q == from && !newly_delivered {
                    continue;
                }
                if self.md.md3 && state.neighbors_delivered.contains(q) {
                    continue;
                }
                actions.push(Action::send(
                    q,
                    DolevMessage {
                        content: content.clone(),
                        path: Vec::new(),
                    },
                ));
            }
            return;
        }

        // Plain Dolev relay: forward the message with the extended path to every neighbor
        // not already on the path.
        let mut extended = message.path.clone();
        extended.push(from);
        for &q in &self.neighbors {
            if q == from || q == source || extended.contains(&q) {
                continue;
            }
            if self.md.md3 && state.neighbors_delivered.contains(q) {
                continue;
            }
            actions.push(Action::send(
                q,
                DolevMessage {
                    content: content.clone(),
                    path: extended.clone(),
                },
            ));
        }
    }
}

impl Protocol for DolevProcess {
    type Message = DolevMessage;

    fn process_id(&self) -> ProcessId {
        self.id
    }

    fn next_seq(&self) -> u32 {
        self.next_seq
    }

    fn set_next_seq(&mut self, seq: u32) {
        self.next_seq = seq;
    }

    fn broadcast(&mut self, payload: Payload) -> Vec<Action<DolevMessage>> {
        self.gc.on_event();
        let mut actions = Vec::new();
        self.broadcast_inner(payload, &mut actions);
        self.run_gc();
        actions
    }

    fn handle_message(
        &mut self,
        from: ProcessId,
        message: DolevMessage,
    ) -> Vec<Action<DolevMessage>> {
        self.gc.on_event();
        let mut actions = Vec::new();
        self.handle_message_inner(from, message, &mut actions);
        self.run_gc();
        actions
    }

    fn broadcast_into(&mut self, payload: Payload, out: &mut ActionBuf<DolevMessage>) {
        self.gc.on_event();
        self.broadcast_inner(payload, out.as_mut_vec());
        self.run_gc();
    }

    fn handle_message_into(
        &mut self,
        from: ProcessId,
        message: DolevMessage,
        out: &mut ActionBuf<DolevMessage>,
    ) {
        self.gc.on_event();
        self.handle_message_inner(from, message, out.as_mut_vec());
        self.run_gc();
    }

    fn deliveries(&self) -> &[Delivery] {
        &self.deliveries
    }

    fn message_size(message: &DolevMessage) -> usize {
        message.wire_size()
    }

    fn state_bytes(&self) -> usize {
        self.footprint.bytes
    }

    fn stored_paths(&self) -> usize {
        DolevProcess::stored_paths(self)
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
    use brb_graph::{generate, Graph};

    /// The walk the running totals replaced: every instance and every stored path.
    impl WalkState for DolevProcess {
        fn walk_state(&self) -> (usize, usize) {
            let bytes = self
                .instances
                .values()
                .map(|i| i.tracker.walk_memory_bytes() + 8 * i.neighbors_delivered.len())
                .sum();
            let paths = self
                .instances
                .values()
                .map(|i| i.tracker.path_count())
                .sum();
            (bytes, paths)
        }
    }

    /// Synchronously floods all messages between processes built on `graph`, starting from
    /// a broadcast by `source`, with no Byzantine processes.
    fn run_broadcast(graph: &Graph, f: usize, md: MdFlags, source: ProcessId) -> Vec<DolevProcess> {
        let n = graph.node_count();
        let mut processes: Vec<DolevProcess> = (0..n)
            .map(|i| DolevProcess::new(i, n, f, graph.neighbors_vec(i), md))
            .collect();
        let mut queue: Vec<(ProcessId, Action<DolevMessage>)> = processes[source]
            .broadcast_checked(Payload::from("payload"))
            .into_iter()
            .map(|a| (source, a))
            .collect();
        let mut steps = 0usize;
        while let Some((sender, action)) = queue.pop() {
            steps += 1;
            assert!(
                steps < 2_000_000,
                "message explosion: protocol did not quiesce"
            );
            if let Action::Send { to, message } = action {
                for a in processes[to].handle_checked(sender, message) {
                    queue.push((to, a));
                }
            }
        }
        for p in &processes {
            p.clone().assert_totals();
        }
        processes
    }

    fn everyone_delivered(processes: &[DolevProcess]) -> bool {
        processes.iter().all(|p| p.deliveries().len() == 1)
    }

    #[test]
    fn plain_dolev_delivers_on_a_ring_with_f0() {
        let g = generate::ring(5);
        let processes = run_broadcast(&g, 0, MdFlags::none(), 0);
        assert!(everyone_delivered(&processes));
    }

    #[test]
    fn plain_dolev_delivers_on_3_connected_graph_with_f1() {
        let g = generate::figure1_example();
        let processes = run_broadcast(&g, 1, MdFlags::none(), 0);
        assert!(everyone_delivered(&processes));
    }

    #[test]
    fn optimized_dolev_delivers_on_3_connected_graph_with_f1() {
        let g = generate::figure1_example();
        let processes = run_broadcast(&g, 1, MdFlags::all(), 3);
        assert!(everyone_delivered(&processes));
    }

    #[test]
    fn optimized_dolev_sends_fewer_messages_than_plain() {
        let g = generate::circulant(12, 2); // 4-regular, 4-connected
        let count = |md: MdFlags| {
            let n = g.node_count();
            let mut processes: Vec<DolevProcess> = (0..n)
                .map(|i| DolevProcess::new(i, g.node_count(), 1, g.neighbors_vec(i), md))
                .collect();
            let mut queue: Vec<(ProcessId, Action<DolevMessage>)> = processes[0]
                .broadcast_checked(Payload::from("m"))
                .into_iter()
                .map(|a| (0, a))
                .collect();
            let mut messages = 0usize;
            while let Some((sender, action)) = queue.pop() {
                if let Action::Send { to, message } = action {
                    messages += 1;
                    for a in processes[to].handle_checked(sender, message) {
                        queue.push((to, a));
                    }
                }
            }
            messages
        };
        let plain = count(MdFlags::none());
        let optimized = count(MdFlags::all());
        assert!(
            optimized < plain,
            "MD.1-5 should reduce messages: optimized = {optimized}, plain = {plain}"
        );
    }

    #[test]
    fn direct_reception_with_md1_delivers_immediately() {
        let mut p = DolevProcess::new(1, 10, 2, vec![0, 2], MdFlags::all());
        let content = Content::new(BroadcastId::new(0, 0), Payload::from("m"));
        let actions = p.handle_checked(
            0,
            DolevMessage {
                content: content.clone(),
                path: vec![],
            },
        );
        assert!(actions.iter().any(|a| a.as_delivery().is_some()));
        assert_eq!(p.deliveries().len(), 1);
    }

    #[test]
    fn direct_reception_without_md1_does_not_suffice_when_f_positive() {
        let mut p = DolevProcess::new(1, 10, 1, vec![0, 2, 3], MdFlags::none());
        let content = Content::new(BroadcastId::new(0, 0), Payload::from("m"));
        let actions = p.handle_checked(
            0,
            DolevMessage {
                content: content.clone(),
                path: vec![],
            },
        );
        assert!(actions.iter().all(|a| a.as_delivery().is_none()));
        // A second, disjoint path completes the f+1 = 2 requirement.
        let actions = p.handle_checked(
            2,
            DolevMessage {
                content,
                path: vec![0],
            },
        );
        assert!(actions.iter().any(|a| a.as_delivery().is_some()));
    }

    #[test]
    fn forged_paths_from_f_byzantine_neighbors_cannot_cause_spurious_delivery() {
        // f = 2: delivery needs 3 disjoint paths. Byzantine neighbors 5 and 6 forge many
        // paths, but all their paths go through themselves (the authenticated link appends
        // their label), so at most 2 disjoint paths can ever be formed.
        let mut p = DolevProcess::new(0, 10, 2, vec![5, 6], MdFlags::none());
        let content = Content::new(BroadcastId::new(9, 0), Payload::from("forged"));
        for fake in 0..20 {
            for byz in [5usize, 6] {
                p.handle_checked(
                    byz,
                    DolevMessage {
                        content: content.clone(),
                        path: vec![9, 10 + fake],
                    },
                );
            }
        }
        assert!(p.deliveries().is_empty());
    }

    #[test]
    fn md3_avoids_sending_to_delivered_neighbors() {
        let mut p = DolevProcess::new(1, 10, 1, vec![0, 2, 3], MdFlags::all());
        let content = Content::new(BroadcastId::new(0, 0), Payload::from("m"));
        // Neighbor 2 tells us it delivered (empty path, not the source).
        p.handle_checked(
            2,
            DolevMessage {
                content: content.clone(),
                path: vec![],
            },
        );
        // Now a relayed path arrives from 3; the relays must avoid neighbor 2.
        let actions = p.handle_checked(
            3,
            DolevMessage {
                content: content.clone(),
                path: vec![5],
            },
        );
        for a in &actions {
            if let Action::Send { to, .. } = a {
                assert_ne!(*to, 2, "MD.3 must skip neighbors that delivered");
            }
        }
    }

    #[test]
    fn md4_ignores_paths_containing_delivered_neighbors() {
        let mut p = DolevProcess::new(1, 10, 1, vec![0, 2, 3], MdFlags::all());
        let content = Content::new(BroadcastId::new(0, 0), Payload::from("m"));
        p.handle_checked(
            2,
            DolevMessage {
                content: content.clone(),
                path: vec![],
            },
        );
        let actions = p.handle_checked(
            3,
            DolevMessage {
                content,
                path: vec![2, 7],
            },
        );
        assert!(
            actions.is_empty(),
            "paths through a delivered neighbor are dropped"
        );
    }

    #[test]
    fn gc_retires_delivered_instances_and_drops_replayed_paths() {
        let mut p = DolevProcess::new(1, 10, 1, vec![0, 2, 3], MdFlags::all());
        <DolevProcess as Protocol>::set_gc_policy(&mut p, GcPolicy::after_events(2));
        let content = Content::new(BroadcastId::new(0, 0), Payload::from("m"));
        // MD.1 direct reception delivers immediately and opens the retention window.
        p.handle_checked(
            0,
            DolevMessage {
                content: content.clone(),
                path: vec![],
            },
        );
        assert_eq!(p.deliveries().len(), 1);
        // Unrelated traffic elapses the 2-event window and retires the instance.
        let other = Content::new(BroadcastId::new(2, 5), Payload::from("pad"));
        for _ in 0..2 {
            p.handle_checked(
                3,
                DolevMessage {
                    content: other.clone(),
                    path: vec![2],
                },
            );
        }
        assert_eq!(<DolevProcess as Protocol>::gc_retired(&p), 1);
        let baseline = <DolevProcess as Protocol>::state_bytes(&p);
        // Replayed frames for the retired instance are dropped without any effect.
        for from in [0usize, 2, 3] {
            let actions = p.handle_checked(
                from,
                DolevMessage {
                    content: content.clone(),
                    path: vec![],
                },
            );
            assert!(actions.is_empty(), "retired frames must be no-ops");
        }
        assert_eq!(p.deliveries().len(), 1, "no duplicate delivery");
        assert_eq!(
            <DolevProcess as Protocol>::state_bytes(&p),
            baseline,
            "replays must not resurrect retired state"
        );
    }

    #[test]
    fn md5_stops_relaying_after_delivery() {
        let g = generate::figure1_example();
        // Run an optimized broadcast, then poke a delivered process with a fresh path and
        // check it stays silent.
        let mut processes = run_broadcast(&g, 1, MdFlags::all(), 0);
        let content = Content::new(
            BroadcastId::new(0, 0),
            processes[0].deliveries()[0].payload.clone(),
        );
        let actions = processes[5].handle_checked(
            6,
            DolevMessage {
                content,
                path: vec![0, 7],
            },
        );
        assert!(actions.is_empty());
    }

    #[test]
    fn source_delivers_its_own_broadcast_once() {
        let mut p = DolevProcess::new(4, 10, 1, vec![0, 1], MdFlags::all());
        let a1 = p.broadcast_checked(Payload::from("a"));
        assert_eq!(a1.iter().filter(|a| a.as_delivery().is_some()).count(), 1);
        let a2 = p.broadcast_checked(Payload::from("b"));
        assert_eq!(a2.iter().filter(|a| a.as_delivery().is_some()).count(), 1);
        assert_eq!(p.deliveries().len(), 2);
        assert_eq!(p.deliveries()[0].id, BroadcastId::new(4, 0));
        assert_eq!(p.deliveries()[1].id, BroadcastId::new(4, 1));
    }

    #[test]
    fn wire_size_matches_table3() {
        let m = DolevMessage {
            content: Content::new(BroadcastId::new(0, 0), Payload::filled(0, 16)),
            path: vec![1, 2, 3],
        };
        // 1 + 4 + 4 + 4 + 16 + 2 + 12 = 43.
        assert_eq!(m.wire_size(), 43);
        assert_eq!(DolevProcess::message_size(&m), 43);
    }

    #[test]
    fn state_bytes_and_stored_paths_grow() {
        let mut p = DolevProcess::new(0, 30, 5, vec![1, 2, 3, 4, 5, 6, 7], MdFlags::none());
        assert_eq!(p.stored_paths(), 0);
        let content = Content::new(BroadcastId::new(9, 0), Payload::from("m"));
        for via in 1..6 {
            p.handle_checked(
                via,
                DolevMessage {
                    content: content.clone(),
                    path: vec![9, 20 + via],
                },
            );
        }
        assert!(p.stored_paths() >= 5);
        assert!(p.state_bytes() > 0);
    }

    #[test]
    fn labels_outside_the_system_are_refused_before_any_state_exists() {
        let mut p = DolevProcess::new(1, 10, 1, vec![0, 2, 3], MdFlags::all());
        let wild = 4_000_000_000usize;
        let content = Content::new(BroadcastId::new(0, 0), Payload::from("m"));
        let through = |path: Vec<ProcessId>| DolevMessage {
            content: content.clone(),
            path,
        };
        let forged_source = DolevMessage {
            content: Content::new(BroadcastId::new(wild, 0), Payload::from("m")),
            path: vec![],
        };
        for (from, message) in [
            (2, through(vec![0, wild])),
            (2, through(vec![10])),
            (wild, through(vec![0])),
            (2, forged_source),
        ] {
            assert!(p.handle_checked(from, message).is_empty());
            assert_eq!((p.state_bytes(), p.stored_paths()), (0, 0));
            assert!(p.instances.is_empty());
        }
        assert!(!p.handle_checked(2, through(vec![0, 9])).is_empty());
        assert_eq!(p.stored_paths(), 1);
    }
}
