//! CPA — the Certified Propagation Algorithm for the *local* fault model.
//!
//! The paper's related-work section (Sec. 2) and conclusion discuss the CPA line of work
//! (Koo; Pelc & Peleg) as the main alternative to Dolev's protocol for reliable
//! communication on partially connected networks: instead of the *global* bound of `f`
//! Byzantine processes anywhere in the network, CPA assumes the `t`-locally bounded model
//! where every process has at most `t` Byzantine neighbors. Considering this model is
//! listed as future work in the paper's conclusion; this module provides that extension so
//! that the repository covers both reliable-communication substrates.
//!
//! The algorithm is simple: the source sends its content to its neighbors and delivers
//! locally; a process delivers when it receives the content **directly from the source**
//! or from at least `t + 1` distinct neighbors; upon delivery it forwards the content to
//! all its neighbors (once). CPA solves reliable communication (honest dealer) whenever
//! the topology satisfies the corresponding graph condition (strictly stronger than
//! `2t+1`-connectivity in general); like Dolev's protocol it does **not** solve BRB by
//! itself, but it can replace Dolev's layer under a Bracha combination when the local
//! fault assumption holds.

use std::collections::BTreeSet;

use crate::footprint::Footprint;
use crate::gc::{GcPolicy, GcState};
use crate::hash::WordMap;
use crate::protocol::{ActionBuf, Protocol};
use crate::stack::WireCodec;
use crate::types::{Action, BroadcastId, Content, Delivery, Payload, ProcessId};
use crate::wire::{
    put_content_head, split_content_head, FIELD_BID, FIELD_MTYPE, FIELD_PAYLOAD_SIZE,
    FIELD_PROCESS_ID,
};

/// A CPA message: just the content, no path (CPA never needs paths, which is what makes it
/// cheap when its fault model applies).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpaMessage {
    /// The broadcast content.
    pub content: Content,
}

impl CpaMessage {
    /// Wire size following Table 3: `mtype + s + bid + payloadSize + payload`.
    pub fn wire_size(&self) -> usize {
        FIELD_MTYPE + FIELD_PROCESS_ID + FIELD_BID + FIELD_PAYLOAD_SIZE + self.content.payload.len()
    }
}

/// Frame: the content head alone, `s | bid | payloadSize | payload`.
impl WireCodec for CpaMessage {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_content_head(buf, self.content.id, &self.content.payload);
    }

    fn decode_wire(frame: &[u8]) -> Option<Self> {
        let (id, payload, rest) = split_content_head(frame)?;
        rest.is_empty().then(|| CpaMessage {
            content: Content::new(id, Payload::new(payload)),
        })
    }

    fn peek_broadcast_id(frame: &[u8]) -> Option<BroadcastId> {
        Some(split_content_head(frame)?.0)
    }
}

/// Per-content state.
#[derive(Debug, Default, Clone)]
struct CpaState {
    witnesses: BTreeSet<ProcessId>,
    delivered: bool,
    relayed: bool,
}

impl CpaState {
    /// Memory proxy of one tracked content — the CPA analogue of the Sec. 7.3 figures:
    /// the buffered payload bytes (held by the `Content` key), the witness set and the
    /// two booleans. CPA never stores multi-hop paths; each witness certifies one
    /// length-one transmission path from a neighbor, so the witnesses are what the path
    /// counter reports.
    fn footprint(&self, content: &Content) -> Footprint {
        Footprint::new(
            content.payload.len() + 8 * self.witnesses.len() + 2,
            self.witnesses.len(),
        )
    }
}

/// Looks up the state of `content`, creating (and counting) it on first sight.
fn state_entry<'a>(
    states: &'a mut WordMap<Content, CpaState>,
    total: &mut Footprint,
    content: &Content,
) -> &'a mut CpaState {
    states.entry(content.clone()).or_insert_with(|| {
        let fresh = CpaState::default();
        total.add(fresh.footprint(content));
        fresh
    })
}

/// One process running the Certified Propagation Algorithm in the `t`-locally bounded
/// fault model.
#[derive(Debug, Clone)]
pub struct CpaProcess {
    id: ProcessId,
    /// System size: the labels a well-formed message may carry are `0..n`.
    n: usize,
    /// Maximum number of Byzantine processes among any process's neighbors.
    t_local: usize,
    neighbors: Vec<ProcessId>,
    states: WordMap<Content, CpaState>,
    /// Running sum of [`CpaState::footprint`] over `states`.
    footprint: Footprint,
    deliveries: Vec<Delivery>,
    next_seq: u32,
    gc: GcState,
    tracer: brb_trace::Tracer,
}

impl CpaProcess {
    /// Creates a CPA process of a system of `n` processes given its locally bounded
    /// fault threshold and neighborhood.
    pub fn new(id: ProcessId, n: usize, t_local: usize, neighbors: Vec<ProcessId>) -> Self {
        Self {
            id,
            n,
            t_local,
            neighbors,
            states: WordMap::default(),
            footprint: Footprint::ZERO,
            deliveries: Vec::new(),
            next_seq: 0,
            gc: GcState::new(GcPolicy::DISABLED),
            tracer: brb_trace::Tracer::disabled(),
        }
    }

    /// Prunes every instance whose retention window elapsed. CPA has no separate
    /// delivered-id set: the per-state `delivered` flag goes with the state, so the GC
    /// marker alone keeps rejecting late frames for the retired id.
    fn run_gc(&mut self) {
        for id in self.gc.due() {
            self.states.retain(|content, state| {
                let keep = content.id != id;
                if !keep {
                    self.footprint.remove(state.footprint(content));
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

    /// The local fault threshold `t`.
    pub fn t_local(&self) -> usize {
        self.t_local
    }

    /// Number of distinct witnessing neighbors required for an indirect delivery (`t+1`).
    pub fn witness_threshold(&self) -> usize {
        self.t_local + 1
    }

    fn deliver_and_relay(&mut self, content: &Content, actions: &mut Vec<Action<CpaMessage>>) {
        if self.gc.is_retired(content.id) {
            return;
        }
        let state = state_entry(&mut self.states, &mut self.footprint, content);
        if !state.delivered {
            state.delivered = true;
            self.tracer.emit(
                self.id,
                content.id.source,
                content.id.seq,
                brb_trace::TraceEventKind::CpaAccepted {
                    witnesses: state.witnesses.len(),
                },
            );
            self.gc.on_delivered(content.id);
            let delivery = Delivery {
                id: content.id,
                payload: content.payload.clone(),
            };
            self.deliveries.push(delivery.clone());
            actions.push(Action::Deliver(delivery));
        }
        if !state.relayed {
            state.relayed = true;
            for &q in &self.neighbors {
                actions.push(Action::send(
                    q,
                    CpaMessage {
                        content: content.clone(),
                    },
                ));
            }
        }
    }

    /// Body of [`Protocol::handle_message_into`], split out so the GC bookkeeping wraps
    /// every return path once.
    fn handle_message_inner(
        &mut self,
        from: ProcessId,
        message: CpaMessage,
        actions: &mut Vec<Action<CpaMessage>>,
    ) {
        let content = message.content;
        // A label outside `0..n` comes from a faulty neighbor: refuse the frame before it
        // creates state for a process that does not exist.
        if from >= self.n || content.id.source >= self.n {
            self.tracer.frame_refused(
                self.id,
                content.id.source,
                content.id.seq,
                brb_trace::DropCause::Malformed,
            );
            return;
        }
        // Replayed frames for a retired instance must not recreate its witness state.
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
        let state = state_entry(&mut self.states, &mut self.footprint, &content);
        if state.delivered {
            return;
        }
        if from == content.id.source {
            // Direct reception over the authenticated link: certified.
            self.deliver_and_relay(&content, actions);
            return;
        }
        let before = state.footprint(&content);
        state.witnesses.insert(from);
        self.footprint.settle(before, state.footprint(&content));
        if state.witnesses.len() > self.t_local {
            self.deliver_and_relay(&content, actions);
        }
    }
}

impl Protocol for CpaProcess {
    type Message = CpaMessage;

    fn process_id(&self) -> ProcessId {
        self.id
    }

    fn next_seq(&self) -> u32 {
        self.next_seq
    }

    fn set_next_seq(&mut self, seq: u32) {
        self.next_seq = seq;
    }

    fn broadcast_into(&mut self, payload: Payload, out: &mut ActionBuf<CpaMessage>) {
        self.gc.on_event();
        let id = BroadcastId::new(self.id, self.next_seq);
        self.next_seq += 1;
        self.tracer.emit(
            self.id,
            id.source,
            id.seq,
            brb_trace::TraceEventKind::Injected,
        );
        self.deliver_and_relay(&Content::new(id, payload), out.as_mut_vec());
        self.run_gc();
    }

    fn handle_message_into(
        &mut self,
        from: ProcessId,
        message: CpaMessage,
        out: &mut ActionBuf<CpaMessage>,
    ) {
        self.gc.on_event();
        self.handle_message_inner(from, message, out.as_mut_vec());
        self.run_gc();
    }

    fn deliveries(&self) -> &[Delivery] {
        &self.deliveries
    }

    fn message_size(message: &CpaMessage) -> usize {
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

    fn set_tracer(&mut self, tracer: brb_trace::Tracer) {
        self.tracer = tracer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::check::{Checked, WalkState};

    /// The walk the running totals replaced: every tracked content and its witnesses.
    impl WalkState for CpaProcess {
        fn walk_state(&self) -> (usize, usize) {
            let bytes = self
                .states
                .iter()
                .map(|(content, s)| content.payload.len() + 8 * s.witnesses.len() + 2)
                .sum();
            let paths = self.states.values().map(|s| s.witnesses.len()).sum();
            (bytes, paths)
        }
    }
    use brb_graph::{generate, Graph};

    fn run_broadcast(
        graph: &Graph,
        t: usize,
        source: ProcessId,
        byzantine: &[ProcessId],
    ) -> Vec<CpaProcess> {
        let n = graph.node_count();
        let mut processes: Vec<CpaProcess> = (0..n)
            .map(|i| CpaProcess::new(i, graph.node_count(), t, graph.neighbors_vec(i)))
            .collect();
        let mut queue: Vec<(ProcessId, Action<CpaMessage>)> = processes[source]
            .broadcast_checked(Payload::from("cpa"))
            .into_iter()
            .map(|a| (source, a))
            .collect();
        while let Some((sender, action)) = queue.pop() {
            if let Action::Send { to, message } = action {
                if byzantine.contains(&to) || byzantine.contains(&sender) {
                    continue;
                }
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

    #[test]
    fn fault_free_flooding_delivers_everywhere() {
        let g = generate::figure1_example();
        let processes = run_broadcast(&g, 0, 0, &[]);
        assert!(processes.iter().all(|p| p.deliveries().len() == 1));
    }

    #[test]
    fn delivery_with_one_locally_bounded_fault_on_dense_graph() {
        // A complete graph trivially satisfies the CPA condition for t = 1 with one
        // silent Byzantine process.
        let g = generate::complete(6);
        let processes = run_broadcast(&g, 1, 0, &[4]);
        for (i, p) in processes.iter().enumerate() {
            if i == 4 {
                continue;
            }
            assert_eq!(p.deliveries().len(), 1, "process {i}");
        }
    }

    #[test]
    fn indirect_delivery_needs_t_plus_one_witnesses() {
        let mut p = CpaProcess::new(0, 10, 2, vec![1, 2, 3, 4]);
        let content = Content::new(BroadcastId::new(9, 0), Payload::from("m"));
        let msg = CpaMessage { content };
        assert!(p.handle_checked(1, msg.clone()).is_empty());
        assert!(p.handle_checked(2, msg.clone()).is_empty());
        // Repeated witness does not count twice.
        assert!(p.handle_checked(2, msg.clone()).is_empty());
        let actions = p.handle_checked(3, msg);
        assert!(actions.iter().any(|a| a.as_delivery().is_some()));
        assert_eq!(p.deliveries().len(), 1);
        assert_eq!(p.witness_threshold(), 3);
    }

    #[test]
    fn direct_reception_from_source_delivers_immediately() {
        let mut p = CpaProcess::new(1, 10, 3, vec![0, 2]);
        let content = Content::new(BroadcastId::new(0, 0), Payload::from("m"));
        let actions = p.handle_checked(0, CpaMessage { content });
        assert!(actions.iter().any(|a| a.as_delivery().is_some()));
        // Relays to all neighbors exactly once.
        let sends = actions.iter().filter(|a| a.as_delivery().is_none()).count();
        assert_eq!(sends, 2);
    }

    #[test]
    fn byzantine_neighbors_below_threshold_cannot_force_delivery() {
        let mut p = CpaProcess::new(0, 10, 2, vec![1, 2, 3, 4]);
        let content = Content::new(BroadcastId::new(9, 0), Payload::from("forged"));
        // Only t = 2 Byzantine neighbors vouch for a content the source never sent.
        p.handle_checked(
            1,
            CpaMessage {
                content: content.clone(),
            },
        );
        p.handle_checked(2, CpaMessage { content });
        assert!(p.deliveries().is_empty());
    }

    #[test]
    fn source_delivers_its_own_broadcast_and_relays_once() {
        let mut p = CpaProcess::new(3, 10, 1, vec![0, 1]);
        let actions = p.broadcast_checked(Payload::from("a"));
        assert_eq!(
            actions.iter().filter(|a| a.as_delivery().is_some()).count(),
            1
        );
        assert_eq!(
            actions.iter().filter(|a| a.as_delivery().is_none()).count(),
            2
        );
        assert_eq!(p.deliveries()[0].id, BroadcastId::new(3, 0));
    }

    #[test]
    fn wire_size_matches_table3() {
        let m = CpaMessage {
            content: Content::new(BroadcastId::new(0, 0), Payload::filled(0, 16)),
        };
        assert_eq!(m.wire_size(), 1 + 4 + 4 + 4 + 16);
        assert_eq!(CpaProcess::message_size(&m), 29);
    }

    #[test]
    fn gc_retired_instance_rejects_replayed_witnesses() {
        let mut p = CpaProcess::new(1, 10, 1, vec![0, 2, 3]);
        p.set_gc_policy(GcPolicy::after_events(1));
        let content = Content::new(BroadcastId::new(0, 0), Payload::from("m"));
        // Direct reception from the source: delivered, retention window opens.
        p.handle_checked(
            0,
            CpaMessage {
                content: content.clone(),
            },
        );
        assert_eq!(p.deliveries().len(), 1);
        // One further event elapses the window (the pad is an undelivered witness).
        let pad = Content::new(BroadcastId::new(2, 0), Payload::from("pad"));
        p.handle_checked(3, CpaMessage { content: pad });
        assert_eq!(p.gc_retired(), 1);
        let base = p.state_bytes();
        // A full witness quorum replayed for the retired id must not re-deliver or
        // recreate witness state.
        for from in [2, 3] {
            let actions = p.handle_checked(
                from,
                CpaMessage {
                    content: content.clone(),
                },
            );
            assert!(actions.is_empty());
        }
        assert_eq!(p.deliveries().len(), 1, "no duplicate delivery");
        assert_eq!(p.state_bytes(), base, "no state regrowth");
    }

    #[test]
    fn state_bytes_grow_with_witnesses() {
        let mut p = CpaProcess::new(0, 10, 5, vec![1, 2, 3]);
        let before = p.state_bytes();
        let content = Content::new(BroadcastId::new(9, 0), Payload::from("m"));
        p.handle_checked(1, CpaMessage { content });
        assert!(p.state_bytes() > before);
        assert_eq!(p.t_local(), 5);
    }

    #[test]
    fn labels_outside_the_system_are_refused_before_any_state_exists() {
        let mut p = CpaProcess::new(1, 10, 1, vec![0, 2, 3]);
        let wild = 4_000_000_000usize;
        let from_source = |source: ProcessId| CpaMessage {
            content: Content::new(BroadcastId::new(source, 0), Payload::from("m")),
        };
        for (from, message) in [
            (2, from_source(wild)),
            (2, from_source(10)),
            (wild, from_source(0)),
        ] {
            assert!(p.handle_checked(from, message).is_empty());
            assert_eq!((p.state_bytes(), p.stored_paths()), (0, 0));
            assert!(p.states.is_empty());
        }
        assert!(p.handle_checked(2, from_source(9)).is_empty());
        assert_eq!(p.stored_paths(), 1, "an in-range source gets its witness");
    }
}
