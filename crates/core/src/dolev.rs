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
//! The per-instance rule lives in one place, `DolevInstance`: its `receive` applies the
//! late-message early-out, MD.1–4 and the disjoint-path test, its `relay` floods MD.2's
//! empty path or the extended path with MD.3's skips. Two engines drive it:
//!
//! * [`DolevProcess`], the standalone protocol, runs one instance per content;
//! * [`crate::bd`] runs one instance per Bracha-layer message and passes its cross-layer
//!   differences as arguments: direct delivery for single-hop Sends (MBD.2), the MBD.10
//!   superpath filter, and the MBD.8/9 destination exclusions.

use crate::config::Config;
use crate::disjoint::DisjointPathTracker;
use crate::footprint::Footprint;
use crate::gc::{GcPolicy, GcState};
use crate::hash::WordMap;
use crate::pathset::PathSet;
use crate::protocol::{ActionBuf, Protocol};
use crate::stack::WireCodec;
use crate::types::{Action, BroadcastId, Content, Delivery, Payload, ProcessId};
use crate::wire::{
    put_content_head, put_ids, read_ids, split_content_head, FIELD_BID, FIELD_MTYPE,
    FIELD_PATH_LEN, FIELD_PAYLOAD_SIZE, FIELD_PROCESS_ID,
};

/// A message of Dolev's protocol: a content and the path of process labels it traversed
/// (excluding the current sender, which the receiver learns from the authenticated link).
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// Frame: the content head, then `pathLen (2 B) | path (4 B per id)`.
impl WireCodec for DolevMessage {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_content_head(buf, self.content.id, &self.content.payload);
        buf.extend_from_slice(&(self.path.len() as u16).to_be_bytes());
        put_ids(buf, &self.path);
    }

    fn decode_wire(frame: &[u8]) -> Option<Self> {
        let (id, payload, rest) = split_content_head(frame)?;
        let (path_len, ids) = rest.split_first_chunk::<2>()?;
        let path = read_ids(ids, u16::from_be_bytes(*path_len) as usize)?;
        Some(DolevMessage {
            content: Content::new(id, Payload::new(payload)),
            path,
        })
    }

    fn peek_broadcast_id(frame: &[u8]) -> Option<BroadcastId> {
        Some(split_content_head(frame)?.0)
    }
}

/// The receiving process, as each of its Dolev instances sees it.
#[derive(Clone, Copy)]
pub(crate) struct Local<'a> {
    pub(crate) id: ProcessId,
    pub(crate) config: &'a Config,
    pub(crate) neighbors: &'a [ProcessId],
    pub(crate) tracer: &'a brb_trace::Tracer,
}

/// One received message of a Dolev instance.
#[derive(Clone, Copy)]
pub(crate) struct Hop<'a> {
    /// The broadcast the instance belongs to (it names the trace events).
    pub(crate) id: BroadcastId,
    /// The process whose message the instance disseminates: the content's source, or the
    /// Bracha-layer originator in [`crate::bd`].
    pub(crate) originator: ProcessId,
    /// The neighbor that relayed the message, authenticated by the link.
    pub(crate) from: ProcessId,
    /// Labels the message traversed before `from`.
    pub(crate) path: &'a [ProcessId],
}

/// State of one Dolev dissemination instance.
#[derive(Debug, Clone)]
pub(crate) struct DolevInstance {
    /// Disjoint-path tracker for this instance.
    pub(crate) tracker: DisjointPathTracker,
    /// Whether this process Dolev-delivered the instance.
    pub(crate) delivered: bool,
    /// Whether the empty path has already been forwarded after delivery (MD.2/MD.5).
    pub(crate) relayed_empty: bool,
    /// Neighbors that relayed this instance with an empty path, i.e. that Dolev-delivered
    /// it themselves (MD.3/MD.4).
    pub(crate) neighbors_delivered: PathSet,
}

impl DolevInstance {
    pub(crate) fn new(max_combinations: usize) -> Self {
        Self {
            tracker: DisjointPathTracker::with_max_combinations(max_combinations),
            delivered: false,
            relayed_empty: false,
            neighbors_delivered: PathSet::new(),
        }
    }

    /// Creates an instance for a message this process created itself (trivially delivered).
    pub(crate) fn self_delivered(max_combinations: usize) -> Self {
        Self {
            delivered: true,
            relayed_empty: true,
            ..Self::new(max_combinations)
        }
    }

    /// Memory proxy of this instance: the tracker's paths and combinations, the
    /// delivered-neighbor set and the two flags.
    pub(crate) fn footprint(&self) -> Footprint {
        Footprint::new(
            self.tracker.approx_memory_bytes() + 8 * self.neighbors_delivered.len() + 2,
            self.tracker.path_count(),
        )
    }

    /// Absorbs a received message and settles the instance's change of footprint into
    /// `total`. A message straight from the originator delivers at once when
    /// `direct_delivery` holds (MD.1, or `bd`'s single-hop Sends); `drop_superpaths`
    /// enables MBD.10.
    ///
    /// Returns `None` when the message ends here (late, or dropped by MD.4 / MBD.10), and
    /// otherwise whether it newly delivered the instance.
    pub(crate) fn receive(
        &mut self,
        at: Local<'_>,
        hop: Hop<'_>,
        direct_delivery: bool,
        drop_superpaths: bool,
        total: &mut Footprint,
    ) -> Option<bool> {
        let md = at.config.md;
        let announces_delivery = hop.path.is_empty() && hop.from != hop.originator;
        // Late message: delivered and announced, so nothing can be absorbed (no path is
        // tracked after delivery) and nothing is relayed: under MD.2 the empty path
        // subsumes any further path, and MD.5 stops relaying outright. All the message
        // can still tell us is that its sender delivered too (MD.3/MD.4).
        if self.delivered && self.relayed_empty && (md.md2 || md.md5) {
            if announces_delivery && self.neighbors_delivered.insert(hop.from) {
                total.bytes += 8;
            }
            return None;
        }
        let before = self.footprint();
        let absorbed = self.absorb(
            at,
            hop,
            announces_delivery,
            direct_delivery,
            drop_superpaths,
        );
        total.settle(before, self.footprint());
        absorbed
    }

    /// Everything of [`DolevInstance::receive`] that can change the footprint.
    fn absorb(
        &mut self,
        at: Local<'_>,
        hop: Hop<'_>,
        announces_delivery: bool,
        direct_delivery: bool,
        drop_superpaths: bool,
    ) -> Option<bool> {
        let md = at.config.md;
        // An empty path relayed by a process other than the originator signals that this
        // neighbor delivered (MD.2 on its side).
        if announces_delivery {
            self.neighbors_delivered.insert(hop.from);
        }
        // MD.4: drop paths going through a neighbor that already delivered.
        if md.md4
            && hop
                .path
                .iter()
                .any(|&p| self.neighbors_delivered.contains(p))
        {
            return None;
        }

        // Intermediate nodes of the claimed route: traversed labels plus the relaying
        // neighbor, minus the originator and ourselves.
        let mut intermediate = PathSet::from_iter_ids(hop.path.iter().copied());
        intermediate.insert(hop.from);
        intermediate.remove(hop.originator);
        intermediate.remove(at.id);
        let direct = hop.from == hop.originator;

        // MBD.10: ignore paths that are superpaths of an already received path.
        if drop_superpaths
            && !direct
            && !self.delivered
            && self.tracker.has_subpath_of(&intermediate)
        {
            return None;
        }
        if self.delivered {
            return Some(false);
        }
        if direct {
            self.tracker.record_direct();
        } else {
            self.tracker.add_path(intermediate, hop.from);
        }
        let trace = |kind| at.tracer.emit(at.id, hop.id.source, hop.id.seq, kind);
        trace(brb_trace::TraceEventKind::PathAccumulated {
            paths: self.tracker.path_count(),
        });
        let threshold = at.config.dolev_threshold();
        let threshold_met = self.tracker.reaches(threshold);
        if threshold_met {
            trace(brb_trace::TraceEventKind::DisjointReached {
                disjoint: threshold,
            });
        }
        if threshold_met || (direct && direct_delivery) {
            self.delivered = true;
            // MD.2: once delivered, the stored paths are no longer needed.
            if md.md2 {
                self.tracker.clear_paths();
            }
        }
        Some(self.delivered)
    }

    /// Relays a message [`DolevInstance::receive`] absorbed: once the instance is newly
    /// delivered under MD.2, the empty path to every neighbor but the originator;
    /// otherwise the path extended by `hop.from` to every neighbor not on it. MD.3 and
    /// `excluded` skip neighbors. `send` gets each target with its path; the extended
    /// path is built once, and only if some neighbor gets it.
    pub(crate) fn relay(
        &mut self,
        at: Local<'_>,
        hop: Hop<'_>,
        newly_delivered: bool,
        excluded: impl Fn(ProcessId) -> bool,
        mut send: impl FnMut(ProcessId, Vec<ProcessId>),
    ) {
        let md = at.config.md;
        let empty = newly_delivered && md.md2;
        self.relayed_empty |= empty;
        let delivered = &self.neighbors_delivered;
        let mut targets = at.neighbors.iter().copied().filter(|&q| {
            q != hop.originator
                && (empty || (q != hop.from && !hop.path.contains(&q)))
                && !(md.md3 && delivered.contains(q))
                && !excluded(q)
        });
        let Some(mut to) = targets.next() else {
            return;
        };
        let path = if empty {
            Vec::new()
        } else {
            let mut extended = Vec::with_capacity(hop.path.len() + 1);
            extended.extend_from_slice(hop.path);
            extended.push(hop.from);
            extended
        };
        for next in targets {
            send(to, path.clone());
            to = next;
        }
        send(to, path);
    }
}

/// One process running Dolev's reliable-communication protocol on an unknown topology.
#[derive(Debug, Clone)]
pub struct DolevProcess {
    id: ProcessId,
    /// `n` bounds the labels a well-formed message may carry (`0..n`), `f` sets the
    /// delivery threshold, `md` the modifications, `max_path_combinations` each memo and
    /// `gc` the initial retention policy; the MBD flags are unused.
    config: Config,
    neighbors: Vec<ProcessId>,
    instances: WordMap<Content, DolevInstance>,
    /// Running sum of [`DolevInstance::footprint`] over `instances`.
    footprint: Footprint,
    deliveries: Vec<Delivery>,
    next_seq: u32,
    gc: GcState,
    tracer: brb_trace::Tracer,
}

impl DolevProcess {
    /// Creates a Dolev process given its direct neighborhood (the rest of the topology
    /// stays unknown to it). The configuration is taken as given, not validated.
    pub fn new(id: ProcessId, config: Config, neighbors: Vec<ProcessId>) -> Self {
        Self {
            id,
            config,
            neighbors,
            instances: WordMap::default(),
            footprint: Footprint::ZERO,
            deliveries: Vec::new(),
            next_seq: 0,
            gc: GcState::new(config.gc),
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
            self.tracer.emit(
                self.id,
                id.source,
                id.seq,
                brb_trace::TraceEventKind::Retired,
            );
        }
    }

    /// Number of node-disjoint paths required for delivery (`f + 1`).
    pub fn delivery_threshold(&self) -> usize {
        self.config.dolev_threshold()
    }

    /// The neighbors of this process.
    pub fn neighbors(&self) -> &[ProcessId] {
        &self.neighbors
    }

    /// Number of paths currently stored across all contents (memory proxy, Sec. 7.3).
    pub fn stored_paths(&self) -> usize {
        self.footprint.paths
    }

    /// Body of [`Protocol::handle_message_into`], split out so the GC bookkeeping wraps
    /// every return path once.
    fn handle_message_inner(
        &mut self,
        from: ProcessId,
        message: DolevMessage,
        actions: &mut Vec<Action<DolevMessage>>,
    ) {
        let DolevMessage { content, path } = message;
        let id = content.id;
        // A label outside `0..n` comes from a faulty neighbor: refuse the frame before it
        // can size a path set.
        let n = self.config.n;
        if from >= n || id.source >= n || path.iter().any(|&p| p >= n) {
            self.tracer
                .frame_refused(self.id, id.source, id.seq, brb_trace::DropCause::Malformed);
            return;
        }
        // Frames of a retired instance are dropped before they can recreate state.
        if self.gc.is_retired(id) {
            self.tracer.emit(
                self.id,
                id.source,
                id.seq,
                brb_trace::TraceEventKind::FrameDropped {
                    to: self.id,
                    cause: brb_trace::DropCause::GcRetired,
                },
            );
            return;
        }
        let max_combinations = self.config.max_path_combinations;
        let total = &mut self.footprint;
        let instance = self.instances.entry(content.clone()).or_insert_with(|| {
            let fresh = DolevInstance::new(max_combinations);
            total.add(fresh.footprint());
            fresh
        });
        let at = Local {
            id: self.id,
            config: &self.config,
            neighbors: &self.neighbors,
            tracer: &self.tracer,
        };
        let hop = Hop {
            id,
            originator: id.source,
            from,
            path: &path,
        };
        let direct_delivery = self.config.md.md1;
        let Some(newly_delivered) =
            instance.receive(at, hop, direct_delivery, false, &mut self.footprint)
        else {
            return;
        };
        if newly_delivered {
            self.gc.on_delivered(id);
            log_delivery(&mut self.deliveries, &content, actions);
        }
        instance.relay(
            at,
            hop,
            newly_delivered,
            |_| false,
            |to, path| {
                actions.push(Action::send(
                    to,
                    DolevMessage {
                        content: content.clone(),
                        path,
                    },
                ));
            },
        );
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

    fn broadcast_into(&mut self, payload: Payload, out: &mut ActionBuf<DolevMessage>) {
        self.gc.on_event();
        let actions = out.as_mut_vec();
        let id = BroadcastId::new(self.id, self.next_seq);
        self.next_seq += 1;
        self.tracer.emit(
            self.id,
            id.source,
            id.seq,
            brb_trace::TraceEventKind::Injected,
        );
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
        // The source delivers its own message immediately (Algorithm 2, lines 12–13),
        // replacing whatever forged paths may have opened under its id.
        let own = DolevInstance::self_delivered(self.config.max_path_combinations);
        self.footprint.add(own.footprint());
        if let Some(forged) = self.instances.insert(content.clone(), own) {
            self.footprint.remove(forged.footprint());
        }
        self.gc.on_delivered(id);
        log_delivery(&mut self.deliveries, &content, actions);
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

/// Appends the delivery of `content` to the log and to the event's actions.
fn log_delivery(
    log: &mut Vec<Delivery>,
    content: &Content,
    actions: &mut Vec<Action<DolevMessage>>,
) {
    let delivery = Delivery {
        id: content.id,
        payload: content.payload.clone(),
    };
    log.push(delivery.clone());
    actions.push(Action::Deliver(delivery));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MdFlags;
    use crate::footprint::check::{Checked, WalkState};
    use brb_graph::{generate, Graph};

    /// The walk the running totals replaced: every instance and every stored path.
    impl WalkState for DolevProcess {
        fn walk_state(&self) -> (usize, usize) {
            let bytes = self
                .instances
                .values()
                .map(|i| i.tracker.walk_memory_bytes() + 8 * i.neighbors_delivered.len() + 2)
                .sum();
            let paths = self
                .instances
                .values()
                .map(|i| i.tracker.path_count())
                .sum();
            (bytes, paths)
        }
    }

    fn config(n: usize, f: usize, md: MdFlags) -> Config {
        Config::plain(n, f).with_md(md)
    }

    /// One process per node of `graph`, each knowing only its neighbors.
    fn system(graph: &Graph, f: usize, md: MdFlags) -> Vec<DolevProcess> {
        let n = graph.node_count();
        (0..n)
            .map(|i| DolevProcess::new(i, config(n, f, md), graph.neighbors_vec(i)))
            .collect()
    }

    /// Synchronously floods all messages between `processes`, starting from a broadcast
    /// by `source`, with no Byzantine processes. Returns every frame sent, as
    /// `(destination, message)`.
    fn flood(processes: &mut [DolevProcess], source: ProcessId) -> Vec<(ProcessId, DolevMessage)> {
        let mut queue: Vec<(ProcessId, Action<DolevMessage>)> = processes[source]
            .broadcast_checked(Payload::from("payload"))
            .into_iter()
            .map(|a| (source, a))
            .collect();
        let mut sent = Vec::new();
        while let Some((sender, action)) = queue.pop() {
            assert!(
                sent.len() < 2_000_000,
                "message explosion: protocol did not quiesce"
            );
            if let Action::Send { to, message } = action {
                sent.push((to, message.clone()));
                for a in processes[to].handle_checked(sender, message) {
                    queue.push((to, a));
                }
            }
        }
        for p in processes.iter() {
            p.clone().assert_totals();
        }
        sent
    }

    /// [`flood`] on a fresh [`system`].
    fn run_broadcast(graph: &Graph, f: usize, md: MdFlags, source: ProcessId) -> Vec<DolevProcess> {
        let mut processes = system(graph, f, md);
        flood(&mut processes, source);
        processes
    }

    fn everyone_delivered(processes: &[DolevProcess]) -> bool {
        processes.iter().all(|p| p.deliveries().len() == 1)
    }

    #[test]
    fn plain_dolev_delivers_on_a_ring_with_f0() {
        let g = generate::circulant(5, 1);
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
        let count = |md: MdFlags| flood(&mut system(&g, 1, md), 0).len();
        let plain = count(MdFlags::none());
        let optimized = count(MdFlags::all());
        assert!(
            optimized < plain,
            "MD.1-5 should reduce messages: optimized = {optimized}, plain = {plain}"
        );
    }

    #[test]
    fn direct_reception_with_md1_delivers_immediately() {
        let mut p = DolevProcess::new(1, config(10, 2, MdFlags::all()), vec![0, 2]);
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
        let mut p = DolevProcess::new(1, config(10, 1, MdFlags::none()), vec![0, 2, 3]);
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
        let mut p = DolevProcess::new(0, config(10, 2, MdFlags::none()), vec![5, 6]);
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
        let mut p = DolevProcess::new(1, config(10, 1, MdFlags::all()), vec![0, 2, 3]);
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
        let mut p = DolevProcess::new(1, config(10, 1, MdFlags::all()), vec![0, 2, 3]);
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
        let mut p = DolevProcess::new(1, config(10, 1, MdFlags::all()), vec![0, 2, 3]);
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
        let mut p = DolevProcess::new(4, config(10, 1, MdFlags::all()), vec![0, 1]);
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
        let mut p = DolevProcess::new(0, config(30, 5, MdFlags::none()), vec![1, 2, 3, 4, 5, 6, 7]);
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
        let mut p = DolevProcess::new(1, config(10, 1, MdFlags::all()), vec![0, 2, 3]);
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

    #[test]
    fn self_delivered_instance_is_marked_relayed() {
        let i = DolevInstance::self_delivered(8);
        assert!(i.delivered);
        assert!(i.relayed_empty);
        assert!(!DolevInstance::new(8).delivered);
    }

    /// The MD.2 flood skips the source. The source delivered first, so an empty path sent
    /// back to it could only be dropped as late. Every neighbor of the source delivers
    /// through that flood, and only that flood ever addressed the source, so this costs
    /// exactly deg(source) frames fewer per broadcast than a flood that includes it.
    #[test]
    fn md2_flood_never_sends_the_empty_path_back_to_the_source() {
        for graph in [generate::figure1_example(), generate::circulant(12, 2)] {
            for source in graph.nodes() {
                let mut processes = system(&graph, 1, MdFlags::all());
                let sent = flood(&mut processes, source);
                assert!(everyone_delivered(&processes), "source {source}");
                assert!(
                    !sent
                        .iter()
                        .any(|(to, message)| *to == source && message.path.is_empty()),
                    "source {source} got an empty path back"
                );
            }
        }
    }

    /// Liveness under a forged-path flood through one Byzantine neighbor (f = 4). The
    /// victim first receives the 43 795 paths `{1} ∪ S`, S a subset of {12..30} with 1–6
    /// members, all relayed by neighbor 1. Then five pairwise-disjoint honest paths
    /// {2,3} {4,5} {6,7} {8,9} {10,11} arrive, enough for f + 1 = 5.
    ///
    /// Every forged path contains neighbor 1, so at most one of them can count. Yet they
    /// fill the combination memo first, and once it is saturated the unions the honest
    /// paths need are dropped. Measured with the tracker driven directly (default bound,
    /// 2-core Xeon, release build):
    ///
    /// | forged paths | CPU for the forged part | memo at end | best after each honest path | delivers |
    /// |---|---|---|---|---|
    /// | 0 | 0 | 32 | 1 2 3 4 5 | yes |
    /// | 1 000 | 0.01 s | 32 032 | 2 3 4 5 6 | yes |
    /// | 10 000 | 0.62 s | 50 000 (saturated) | 2 3 4 5 5 | yes |
    /// | 43 795 | 9.4–11.1 s | 50 000 (saturated) | 2 3 3 3 3 | never |
    ///
    /// It is meant to pass once the delivery rule needs no memo that can saturate, such
    /// as: deliver once no f processes hit every received path.
    #[test]
    #[ignore = "the saturated memo stalls at 3 disjoint paths and the victim never delivers"]
    fn forged_path_flood_through_one_neighbor_cannot_block_delivery() {
        let (n, f, source) = (32, 4, 31);
        let mut victim = DolevProcess::new(0, config(n, f, MdFlags::none()), (1..=11).collect());
        let content = Content::new(BroadcastId::new(source, 0), Payload::from("m"));
        let relayed = |labels: &mut dyn Iterator<Item = ProcessId>| DolevMessage {
            content: content.clone(),
            path: std::iter::once(source).chain(labels).collect(),
        };
        let pool: Vec<ProcessId> = (12..=30).collect();
        let mut forged = 0;
        for subset in 1u32..1 << pool.len() {
            if subset.count_ones() <= 6 {
                let mut members = (0..pool.len())
                    .filter(|&bit| subset & (1 << bit) != 0)
                    .map(|bit| pool[bit]);
                victim.handle_message(1, relayed(&mut members));
                forged += 1;
            }
        }
        assert_eq!(forged, 43_795);
        assert!(victim.deliveries().is_empty());
        for (from, next) in [(2, 3), (4, 5), (6, 7), (8, 9), (10, 11)] {
            victim.handle_message(from, relayed(&mut std::iter::once(next)));
        }
        assert_eq!(victim.deliveries().len(), 1, "five disjoint honest paths");
    }
}
