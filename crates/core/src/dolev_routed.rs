//! Dolev's reliable communication protocol, **known-topology** variant.
//!
//! Dolev presented two variants of his protocol (Sec. 4.2 of the paper): the flooding
//! variant for unknown topologies — implemented in [`crate::dolev`] and used throughout the
//! paper's evaluation — and a variant for *known* topologies in which messages follow
//! **predefined routes**. This module implements the latter: the origin computes `2f+1`
//! internally node-disjoint routes to every destination (using
//! [`brb_graph::paths::k_disjoint_routes`]) and sends one copy of its content along each
//! route; intermediate processes forward along the fixed route; the destination delivers
//! once it has received identical content over `f+1` of its predefined disjoint routes, or
//! directly from the origin over the authenticated link.
//!
//! Compared to the flooding variant, the routed variant exchanges *topology knowledge* for
//! a dramatic reduction in message complexity: `O(N · (2f+1) · D)` link messages per
//! broadcast (where `D` is the average route length) instead of the flooding variant's
//! worst-case `O(N!)`, and no disjoint-path search at the receiver. The ablation benchmark
//! `routed_vs_flooding` quantifies this trade-off; the paper's protocols deliberately do
//! not assume topology knowledge, which is why the flooding variant remains the reference.
//!
//! [`RoutedDolev`] is a plain [`crate::protocol::Protocol`] engine: the simulator and the
//! deployments drive it directly, and [`crate::bracha_rc::BrachaOverRc`] drives it as the
//! RC substrate under a Bracha layer, reading its [`crate::types::Action::Deliver`]s as
//! RC deliveries.

use std::collections::BTreeSet;
use std::sync::Arc;

use brb_graph::paths::k_disjoint_routes;
use brb_graph::Graph;

use crate::footprint::Footprint;
use crate::gc::{GcPolicy, GcState};
use crate::hash::WordMap;
use crate::protocol::{ActionBuf, Protocol};
use crate::stack::WireCodec;
use crate::types::{BroadcastId, Delivery, Payload, ProcessId};
use crate::wire::{
    put_content_head, put_ids, read_ids, split_content_head, FIELD_BID, FIELD_MTYPE,
    FIELD_PATH_LEN, FIELD_PAYLOAD_SIZE, FIELD_PROCESS_ID,
};

/// A message of the routed Dolev protocol.
///
/// The route is fixed by the origin and carried in full so that every hop knows the next
/// one and the destination can recognise which of its predefined routes the copy used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutedDolevMessage {
    /// Process that originated the RC broadcast.
    pub origin: ProcessId,
    /// Per-origin RC sequence number.
    pub seq: u32,
    /// Opaque payload being reliably communicated.
    pub payload: Payload,
    /// The full route, from `origin` (inclusive) to the destination (inclusive).
    pub route: Vec<ProcessId>,
    /// Index in `route` of the process this copy is currently addressed to.
    pub position: usize,
}

impl RoutedDolevMessage {
    /// Wire size following the paper's Table 3 field sizes: message type, origin ID,
    /// sequence number, payload size and data, path length and one process ID per route
    /// entry (the position is derivable by the receiver and costs nothing on the wire).
    pub fn wire_size(&self) -> usize {
        FIELD_MTYPE
            + FIELD_PROCESS_ID
            + FIELD_BID
            + FIELD_PAYLOAD_SIZE
            + self.payload.len()
            + FIELD_PATH_LEN
            + FIELD_PROCESS_ID * self.route.len()
    }

    /// Whether the process at `position` is the final destination of the route.
    pub fn at_destination(&self) -> bool {
        self.position + 1 == self.route.len()
    }
}

/// Frame: the content head (`origin` as `s`, `seq` as `bid`), then `routeLen (2 B) |
/// position (2 B) | route (4 B per id)`. A position off the route is malformed.
impl WireCodec for RoutedDolevMessage {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_content_head(buf, BroadcastId::new(self.origin, self.seq), &self.payload);
        buf.extend_from_slice(&(self.route.len() as u16).to_be_bytes());
        buf.extend_from_slice(&(self.position as u16).to_be_bytes());
        put_ids(buf, &self.route);
    }

    fn decode_wire(frame: &[u8]) -> Option<Self> {
        let (id, payload, rest) = split_content_head(frame)?;
        let (&[r0, r1, p0, p1], ids) = rest.split_first_chunk::<4>()?;
        let route_len = u16::from_be_bytes([r0, r1]) as usize;
        let position = u16::from_be_bytes([p0, p1]) as usize;
        let route = read_ids(ids, route_len).filter(|_| position < route_len)?;
        Some(RoutedDolevMessage {
            origin: id.source,
            seq: id.seq,
            payload: Payload::new(payload),
            route,
            position,
        })
    }

    fn peek_broadcast_id(frame: &[u8]) -> Option<BroadcastId> {
        Some(split_content_head(frame)?.0)
    }
}

/// Per-(origin, seq) delivery state at a destination.
#[derive(Debug, Default, Clone)]
struct RouteInstance {
    /// For each candidate payload, the set of predefined-route indices that carried it.
    votes: WordMap<Payload, BTreeSet<usize>>,
    delivered: bool,
}

impl RouteInstance {
    /// Memory proxy of this instance: each candidate payload and, per route that
    /// carried it, one 8-byte vote (the routed analogue of a stored path).
    fn footprint(&self) -> Footprint {
        let votes: usize = self.votes.values().map(BTreeSet::len).sum();
        let payloads: usize = self.votes.keys().map(Payload::len).sum();
        Footprint::new(payloads + 8 * votes, votes)
    }
}

/// One process running the known-topology (routed) variant of Dolev's protocol.
#[derive(Debug, Clone)]
pub struct RoutedDolev {
    id: ProcessId,
    f: usize,
    /// The globally known topology, reference-counted so that instantiating one process
    /// per node shares a single copy of the adjacency structure.
    graph: Arc<Graph>,
    /// Routes from `origin` to `destination`, computed lazily and cached. Every process
    /// computes the same routes for a given pair because the route-selection algorithm is
    /// deterministic on the shared topology.
    routes: WordMap<(ProcessId, ProcessId), Vec<Vec<ProcessId>>>,
    instances: WordMap<(ProcessId, u32), RouteInstance>,
    /// Running memory proxy: [`RouteInstance::footprint`] over `instances`, plus 8 bytes
    /// per hop of every route cached in `routes`.
    footprint: Footprint,
    next_seq: u32,
    deliveries: Vec<Delivery>,
    gc: GcState,
}

impl RoutedDolev {
    /// Creates a routed-Dolev process from the globally known topology (accepts a plain
    /// [`Graph`] or an `Arc<Graph>` shared across the system's processes).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of `graph`.
    pub fn new(id: ProcessId, f: usize, graph: impl Into<Arc<Graph>>) -> Self {
        let graph = graph.into();
        assert!(id < graph.node_count(), "process id {id} out of range");
        Self {
            id,
            f,
            graph,
            routes: WordMap::default(),
            instances: WordMap::default(),
            footprint: Footprint::ZERO,
            next_seq: 0,
            deliveries: Vec::new(),
            gc: GcState::new(GcPolicy::DISABLED),
        }
    }

    /// Prunes the vote state of every instance whose retention window elapsed. The
    /// `routes` cache is topology-static (bounded by the node count), so it is kept.
    fn run_gc(&mut self) {
        for id in self.gc.due() {
            if let Some(retired) = self.instances.remove(&(id.source, id.seq)) {
                self.footprint.remove(retired.footprint());
            }
        }
    }

    /// Number of disjoint routes the origin uses per destination (`2f+1`).
    pub fn routes_per_destination(&self) -> usize {
        2 * self.f + 1
    }

    /// Number of identical disjoint-route copies required to deliver (`f+1`).
    pub fn delivery_threshold(&self) -> usize {
        self.f + 1
    }

    /// The predefined routes from `origin` to `destination` (computed on first use).
    fn routes_for(&mut self, origin: ProcessId, destination: ProcessId) -> Vec<Vec<ProcessId>> {
        let k = self.routes_per_destination();
        self.routes
            .entry((origin, destination))
            .or_insert_with(|| {
                let routes = k_disjoint_routes(&self.graph, origin, destination, k);
                self.footprint.bytes += routes.iter().map(|r| 8 * r.len()).sum::<usize>();
                routes
            })
            .clone()
    }

    /// Delivers `id` unless it already was (or was retired), pushing the delivery onto
    /// `out`.
    fn record_delivery(
        &mut self,
        id: BroadcastId,
        payload: Payload,
        out: &mut ActionBuf<RoutedDolevMessage>,
    ) {
        if self.gc.is_retired(id) {
            return;
        }
        let instance = self.instances.entry((id.source, id.seq)).or_default();
        if instance.delivered {
            return;
        }
        instance.delivered = true;
        let delivery = Delivery { id, payload };
        self.deliveries.push(delivery.clone());
        self.gc.on_delivered(id);
        out.deliver(delivery);
    }

    /// Validates the fields a relay or destination can check locally against the
    /// authenticated link: every hop of the route is a node of the topology, the route
    /// starts at the claimed origin, addresses this process at `position`, and the
    /// previous hop matches the link the message arrived on (which bounds `origin` and
    /// `from` too: both are hops of the route).
    fn plausible(&self, from: ProcessId, message: &RoutedDolevMessage) -> bool {
        let n = self.graph.node_count();
        message.route.iter().all(|&hop| hop < n)
            && message.position >= 1
            && message.position < message.route.len()
            && message.route[message.position] == self.id
            && message.route[message.position - 1] == from
            && message.route[0] == message.origin
    }

    /// Body of [`Protocol::handle_message_into`], split out so the GC bookkeeping wraps
    /// every return path once.
    fn receive(
        &mut self,
        from: ProcessId,
        message: RoutedDolevMessage,
        out: &mut ActionBuf<RoutedDolevMessage>,
    ) {
        if !self.plausible(from, &message) {
            return;
        }
        // Frames of a retired instance are dropped (not even relayed) before they can
        // recreate state.
        let id = BroadcastId::new(message.origin, message.seq);
        if self.gc.is_retired(id) {
            return;
        }
        if !message.at_destination() {
            // Relay to the next hop on the fixed route.
            let next = message.route[message.position + 1];
            let mut forwarded = message;
            forwarded.position += 1;
            out.send(next, forwarded);
            return;
        }
        // Destination: direct reception from the origin is certified by the authenticated
        // link (the analogue of MD.1); otherwise count predefined disjoint routes.
        if from == message.origin {
            self.record_delivery(id, message.payload, out);
            return;
        }
        let expected = self.routes_for(message.origin, self.id);
        let Some(route_index) = expected.iter().position(|r| *r == message.route) else {
            // Not one of the predefined routes: a forged or stale route, ignore it.
            return;
        };
        let threshold = self.delivery_threshold();
        let instance = self
            .instances
            .entry((message.origin, message.seq))
            .or_default();
        if instance.delivered {
            return;
        }
        let mut grown = Footprint::ZERO;
        let votes = instance
            .votes
            .entry(message.payload.clone())
            .or_insert_with(|| {
                grown.bytes += message.payload.len();
                BTreeSet::new()
            });
        if votes.insert(route_index) {
            grown.bytes += 8;
            grown.paths += 1;
        }
        self.footprint.add(grown);
        if votes.len() >= threshold {
            self.record_delivery(id, message.payload, out);
        }
    }
}

impl Protocol for RoutedDolev {
    type Message = RoutedDolevMessage;

    fn process_id(&self) -> ProcessId {
        self.id
    }

    fn next_seq(&self) -> u32 {
        self.next_seq
    }

    fn set_next_seq(&mut self, seq: u32) {
        self.next_seq = seq;
    }

    fn broadcast_into(&mut self, payload: Payload, out: &mut ActionBuf<RoutedDolevMessage>) {
        self.gc.on_event();
        let seq = self.next_seq;
        self.next_seq += 1;
        for destination in 0..self.graph.node_count() {
            if destination == self.id {
                continue;
            }
            for route in self.routes_for(self.id, destination) {
                if route.len() < 2 {
                    continue;
                }
                out.send(
                    route[1],
                    RoutedDolevMessage {
                        origin: self.id,
                        seq,
                        payload: payload.clone(),
                        route,
                        position: 1,
                    },
                );
            }
        }
        // An origin RC-delivers its own broadcast immediately (Algorithm 2, line 13).
        self.record_delivery(BroadcastId::new(self.id, seq), payload, out);
        self.run_gc();
    }

    fn handle_message_into(
        &mut self,
        from: ProcessId,
        message: RoutedDolevMessage,
        out: &mut ActionBuf<RoutedDolevMessage>,
    ) {
        self.gc.on_event();
        self.receive(from, message, out);
        self.run_gc();
    }

    fn deliveries(&self) -> &[Delivery] {
        &self.deliveries
    }

    fn message_size(message: &RoutedDolevMessage) -> usize {
        message.wire_size()
    }

    fn state_bytes(&self) -> usize {
        self.footprint.bytes
    }

    fn stored_paths(&self) -> usize {
        self.footprint.paths
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::check::{Checked, WalkState};
    use crate::types::Action;

    /// The walk the running totals replaced: every vote of every instance plus the
    /// cached route table.
    impl WalkState for RoutedDolev {
        fn walk_state(&self) -> (usize, usize) {
            let votes: usize = self
                .instances
                .values()
                .flat_map(|i| i.votes.iter())
                .map(|(payload, routes)| payload.len() + 8 * routes.len())
                .sum();
            let routes: usize = self
                .routes
                .values()
                .flat_map(|rs| rs.iter())
                .map(|r| 8 * r.len())
                .sum();
            let paths = self
                .instances
                .values()
                .flat_map(|i| i.votes.values())
                .map(BTreeSet::len)
                .sum();
            (votes + routes, paths)
        }
    }
    use brb_graph::generate;

    /// Synchronously drives a set of routed-Dolev processes to quiescence, dropping every
    /// message sent by or addressed to a process in `byzantine`.
    fn run_broadcast(
        graph: &Graph,
        f: usize,
        source: ProcessId,
        byzantine: &[ProcessId],
    ) -> Vec<RoutedDolev> {
        let n = graph.node_count();
        let mut processes: Vec<RoutedDolev> = (0..n)
            .map(|i| RoutedDolev::new(i, f, graph.clone()))
            .collect();
        drive(&mut processes, source, byzantine);
        processes
    }

    /// Broadcasts from `source` and floods to quiescence, checking every process's
    /// running totals against the walk after each event.
    fn drive(processes: &mut [RoutedDolev], source: ProcessId, byzantine: &[ProcessId]) {
        let mut queue: Vec<(ProcessId, Action<RoutedDolevMessage>)> = processes[source]
            .broadcast_checked(Payload::from("routed"))
            .into_iter()
            .map(|a| (source, a))
            .collect();
        while let Some((sender, action)) = queue.pop() {
            if let Action::Send { to, message } = action {
                if byzantine.contains(&sender) || byzantine.contains(&to) {
                    continue;
                }
                for a in processes[to].handle_checked(sender, message) {
                    queue.push((to, a));
                }
            }
        }
        for p in processes.iter() {
            p.clone().assert_totals();
        }
    }

    #[test]
    fn gc_retirement_returns_the_votes_of_the_retired_instance() {
        let g = generate::figure1_example();
        let mut processes: Vec<RoutedDolev> = (0..g.node_count())
            .map(|i| RoutedDolev::new(i, 1, g.clone()))
            .collect();
        for p in &mut processes {
            p.set_gc_policy(GcPolicy::after_events(4));
        }
        drive(&mut processes, 0, &[]);
        let votes_after_first: usize = processes.iter().map(Protocol::stored_paths).sum();
        assert!(
            votes_after_first > 0,
            "non-neighbors delivered through votes"
        );
        // The second broadcast's traffic elapses the first one's retention windows.
        drive(&mut processes, 3, &[]);
        assert!(processes.iter().all(|p| Protocol::gc_retired(p) >= 1));
        assert!(processes.iter().all(|p| p.deliveries().len() == 2));
    }

    #[test]
    fn fault_free_broadcast_reaches_every_process() {
        let g = generate::figure1_example();
        let processes = run_broadcast(&g, 1, 0, &[]);
        for p in &processes {
            assert_eq!(p.deliveries().len(), 1, "process {}", p.process_id());
            assert_eq!(p.deliveries()[0].id, BroadcastId::new(0, 0));
        }
    }

    #[test]
    fn silent_byzantine_relays_do_not_block_delivery() {
        // The Petersen graph is 3-connected, so f = 1 silent relay cannot block the f+1
        // disjoint-route threshold at any destination.
        let g = generate::figure1_example();
        let byzantine = [7usize];
        let processes = run_broadcast(&g, 1, 0, &byzantine);
        for p in &processes {
            if byzantine.contains(&p.process_id()) {
                continue;
            }
            assert_eq!(p.deliveries().len(), 1, "process {}", p.process_id());
        }
    }

    #[test]
    fn forged_route_copies_are_not_counted() {
        // Destination 2 in a complete graph over 5 nodes with f = 1; a Byzantine neighbor
        // replays content over routes that are not among the predefined ones.
        let g = generate::complete(5);
        let mut dest = RoutedDolev::new(2, 1, g);
        let forged = RoutedDolevMessage {
            origin: 0,
            seq: 0,
            payload: Payload::from("forged"),
            route: vec![0, 4, 3, 2], // a valid-looking path but not a predefined route
            position: 3,
        };
        assert!(dest.handle_message(3, forged).is_empty());
        assert!(dest.deliveries().is_empty());
        // Looking the route up cached (and counted) the predefined routes 0 -> 2.
        assert!(Protocol::state_bytes(&dest) > 0);
        dest.assert_totals();
    }

    #[test]
    fn implausible_messages_are_dropped() {
        let g = generate::complete(4);
        let mut p = RoutedDolev::new(1, 1, g);
        // Wrong position: route does not address this process at the claimed index.
        let bad_position = RoutedDolevMessage {
            origin: 0,
            seq: 0,
            payload: Payload::from("m"),
            route: vec![0, 2, 1],
            position: 1,
        };
        assert!(p.handle_message(0, bad_position).is_empty());
        // Previous hop does not match the authenticated link the message arrived on.
        let bad_prev = RoutedDolevMessage {
            origin: 0,
            seq: 0,
            payload: Payload::from("m"),
            route: vec![0, 2, 1],
            position: 2,
        };
        assert!(p.handle_message(3, bad_prev).is_empty());
        assert!(p.deliveries().is_empty());
    }

    #[test]
    fn relay_forwards_along_the_fixed_route_only() {
        let g = generate::circulant(6, 1);
        let mut relay = RoutedDolev::new(1, 1, g);
        let msg = RoutedDolevMessage {
            origin: 0,
            seq: 0,
            payload: Payload::from("m"),
            route: vec![0, 1, 2, 3],
            position: 1,
        };
        let actions = relay.handle_message(0, msg);
        assert_eq!(actions.len(), 1, "one relay, no delivery");
        match &actions[0] {
            Action::Send { to, message } => {
                assert_eq!(*to, 2);
                assert_eq!(message.position, 2);
                assert_eq!(message.route, vec![0, 1, 2, 3]);
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn direct_reception_from_origin_delivers_immediately() {
        let g = generate::complete(4);
        let mut p = RoutedDolev::new(1, 1, g);
        let msg = RoutedDolevMessage {
            origin: 0,
            seq: 3,
            payload: Payload::from("direct"),
            route: vec![0, 1],
            position: 1,
        };
        let actions = p.handle_message(0, msg);
        let delivered: Vec<_> = actions.iter().filter_map(Action::as_delivery).collect();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].id, BroadcastId::new(0, 3));
        assert_eq!(p.deliveries().len(), 1);
    }

    #[test]
    fn message_complexity_is_far_below_flooding() {
        // On the Petersen graph with f = 1, the origin emits 3 route copies per
        // destination; counting relays, the total number of link messages stays below
        // N * (2f+1) * diameter, orders of magnitude below the flooding variant.
        let g = generate::figure1_example();
        let n = g.node_count();
        let mut total_messages = 0usize;
        let mut processes: Vec<RoutedDolev> =
            (0..n).map(|i| RoutedDolev::new(i, 1, g.clone())).collect();
        let mut queue: Vec<(ProcessId, Action<RoutedDolevMessage>)> = processes[0]
            .broadcast_checked(Payload::filled(0, 16))
            .into_iter()
            .map(|a| (0, a))
            .collect();
        while let Some((sender, action)) = queue.pop() {
            if let Action::Send { to, message } = action {
                total_messages += 1;
                for a in processes[to].handle_checked(sender, message) {
                    queue.push((to, a));
                }
            }
        }
        assert!(processes.iter().all(|p| p.deliveries().len() == 1));
        // Each of the N-1 destinations receives 2f+1 = 3 route copies, each at most a
        // handful of hops long on a diameter-2 graph.
        assert!(
            total_messages <= n * 3 * 5,
            "routed Dolev sent {total_messages} messages"
        );
    }

    #[test]
    fn repeated_broadcasts_use_increasing_sequence_numbers() {
        let g = generate::complete(4);
        let mut p = RoutedDolev::new(0, 1, g);
        let _ = p.broadcast_checked(Payload::from("a"));
        let _ = p.broadcast_checked(Payload::from("b"));
        assert_eq!(p.deliveries()[0].id, BroadcastId::new(0, 0));
        assert_eq!(p.deliveries()[1].id, BroadcastId::new(0, 1));
    }

    #[test]
    fn wire_size_accounts_for_route_length() {
        let m = RoutedDolevMessage {
            origin: 0,
            seq: 0,
            payload: Payload::filled(0, 16),
            route: vec![0, 1, 2],
            position: 1,
        };
        assert_eq!(m.wire_size(), 1 + 4 + 4 + 4 + 16 + 2 + 4 * 3);
    }

    #[test]
    fn gc_retires_delivered_instances_and_drops_replayed_route_copies() {
        let g = generate::complete(4);
        let mut p = RoutedDolev::new(1, 1, g);
        p.set_gc_policy(GcPolicy::after_events(1));
        // Direct reception from the origin delivers and opens the retention window.
        let direct = RoutedDolevMessage {
            origin: 0,
            seq: 0,
            payload: Payload::from("m"),
            route: vec![0, 1],
            position: 1,
        };
        let actions = p.handle_message(0, direct.clone());
        assert_eq!(actions.iter().filter_map(Action::as_delivery).count(), 1);
        // One unrelated relay event elapses the window and retires the instance.
        let relay = RoutedDolevMessage {
            origin: 2,
            seq: 9,
            payload: Payload::from("pad"),
            route: vec![2, 1, 3],
            position: 1,
        };
        let _ = p.handle_message(2, relay);
        assert_eq!(p.gc_retired(), 1);
        let baseline = p.state_bytes();
        // Replays of the retired instance deliver nothing, relay nothing, create nothing.
        assert!(
            p.handle_message(0, direct).is_empty(),
            "retired frames are not delivered or relayed"
        );
        assert_eq!(p.deliveries().len(), 1, "no duplicate delivery");
        assert_eq!(p.state_bytes(), baseline);
        p.assert_totals();
    }

    #[test]
    fn thresholds_follow_the_fault_assumption() {
        let g = generate::complete(8);
        let p = RoutedDolev::new(0, 2, g);
        assert_eq!(p.routes_per_destination(), 5);
        assert_eq!(p.delivery_threshold(), 3);
    }

    #[test]
    fn routes_through_labels_outside_the_topology_are_dropped() {
        // A hop, an origin or a sender that is not a node of the known topology used to
        // index the adjacency structure (origin) or be handed to the host as a
        // destination (next hop).
        let g = generate::complete(4);
        let mut p = RoutedDolev::new(1, 1, g);
        let wild = 4_000_000_000usize;
        let via = |origin: ProcessId, route: Vec<ProcessId>, position: usize| RoutedDolevMessage {
            origin,
            seq: 0,
            payload: Payload::from("m"),
            route,
            position,
        };
        for (from, message) in [
            (0, via(0, vec![0, 1, wild], 1)),
            (wild, via(wild, vec![wild, 1], 1)),
            (0, via(4, vec![4, 0, 1], 2)),
        ] {
            assert!(p.handle_message(from, message).is_empty());
            assert_eq!(
                (Protocol::state_bytes(&p), Protocol::stored_paths(&p)),
                (0, 0)
            );
            p.assert_totals();
        }
    }
}
