//! The reliable-communication (RC) transport abstraction.
//!
//! Sec. 4.3 of the paper observes that BRB on a partially connected network is obtained by
//! combining Bracha's protocol with *any* protocol providing reliable communication on the
//! given topology: Dolev's flooding protocol (the main subject of the paper), Dolev's
//! known-topology variant with predefined routes, CPA under the locally bounded fault
//! model, or topology-specific protocols. The [`RcTransport`] trait captures exactly what
//! the Bracha layer needs from such a substrate:
//!
//! * a way to **originate** an RC broadcast of an opaque payload, and
//! * a way to feed link-level messages in and receive **RC deliveries** out, where each
//!   delivery is tagged with the identity of the process that originated it (the paper
//!   embeds the originator in the payload because MD.2 erases paths; we surface it as a
//!   field of [`RcDelivery`]).
//!
//! [`crate::bracha_rc::BrachaOverRc`] is the generic combination built on this trait;
//! [`crate::dolev_routed::RoutedDolev`] and [`crate::cpa::CpaProcess`] are the two
//! substrates implementing it in this crate. The flooding Bracha–Dolev combination of the
//! paper, [`crate::bd`], is not built on the trait: it runs the same two rules (Dolev's
//! `dolev::DolevInstance`, Bracha's `bracha::BrachaInstance`) and adds the cross-layer
//! modifications between them. The tests hold it against `BrachaOverRc<DolevProcess>`, an
//! RC substrate only they build, which checks how `bd` wires the layers together; the
//! rules themselves are checked against their own references.

use crate::cpa::CpaProcess;
use crate::protocol::Protocol;
use crate::types::{Action, Payload, ProcessId};

/// An RC delivery: the transport certifies that process `origin` broadcast `payload` as its
/// `seq`-th RC broadcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RcDelivery {
    /// Process that originated the RC broadcast.
    pub origin: ProcessId,
    /// Per-origin sequence number of the RC broadcast.
    pub seq: u32,
    /// The opaque payload handed to [`RcTransport::originate`] by the origin.
    pub payload: Payload,
}

/// A reliable-communication substrate usable under a Bracha layer.
///
/// Implementations must guarantee the RC properties for correct origins (every correct
/// process eventually RC-delivers what a correct origin originated, and an RC delivery
/// attributed to a correct origin was indeed originated by it), under the fault and
/// connectivity assumptions of the concrete protocol.
pub trait RcTransport {
    /// Link-level message type of the substrate.
    type Message: Clone + std::fmt::Debug;

    /// Identifier of the local process.
    fn local_id(&self) -> ProcessId;

    /// Originates the RC broadcast of `payload`, pushing the link sends it requires onto
    /// `actions` and returning the RC deliveries it triggers locally (an origin always
    /// RC-delivers its own broadcast immediately).
    fn originate(
        &mut self,
        payload: Payload,
        actions: &mut Vec<Action<Self::Message>>,
    ) -> Vec<RcDelivery>;

    /// Handles a link-level message received from direct neighbor `from`, pushing the
    /// forwarding sends it requires onto `actions` and returning the RC deliveries the
    /// message triggers.
    fn on_message(
        &mut self,
        from: ProcessId,
        message: Self::Message,
        actions: &mut Vec<Action<Self::Message>>,
    ) -> Vec<RcDelivery>;

    /// Size of a link-level message on the wire, in bytes (Table 3 accounting).
    fn wire_size(message: &Self::Message) -> usize;

    /// Approximate number of bytes of transport state held (see
    /// [`Protocol::state_bytes`]).
    fn state_bytes(&self) -> usize {
        0
    }

    /// Number of transmission paths stored by the transport, if it tracks any.
    fn stored_paths(&self) -> usize {
        0
    }

    /// Installs an instance-GC retention policy on the substrate's own per-instance
    /// state (see [`crate::gc::GcPolicy`]). The substrate retires its RC instances
    /// independently of the Bracha layer above it, with the same policy. The default
    /// implementation ignores it.
    fn set_gc_policy(&mut self, _policy: crate::gc::GcPolicy) {}

    /// Feeds the host clock to the substrate for time-based retention windows. The
    /// default implementation ignores it.
    fn note_time(&mut self, _now_ms: u64) {}

    /// Number of RC instances the substrate has retired through GC so far.
    fn gc_retired(&self) -> u64 {
        0
    }
}

/// CPA is a reliable-communication protocol for the `t`-locally bounded fault model, so it
/// can directly serve as the RC substrate of a Bracha combination (the extension listed as
/// future work in the paper's conclusion).
impl RcTransport for CpaProcess {
    type Message = <CpaProcess as Protocol>::Message;

    fn local_id(&self) -> ProcessId {
        self.process_id()
    }

    fn originate(
        &mut self,
        payload: Payload,
        actions: &mut Vec<Action<Self::Message>>,
    ) -> Vec<RcDelivery> {
        split_protocol_actions(self.broadcast(payload), actions)
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        message: Self::Message,
        actions: &mut Vec<Action<Self::Message>>,
    ) -> Vec<RcDelivery> {
        split_protocol_actions(self.handle_message(from, message), actions)
    }

    fn wire_size(message: &Self::Message) -> usize {
        <CpaProcess as Protocol>::message_size(message)
    }

    fn state_bytes(&self) -> usize {
        <CpaProcess as Protocol>::state_bytes(self)
    }

    fn set_gc_policy(&mut self, policy: crate::gc::GcPolicy) {
        <CpaProcess as Protocol>::set_gc_policy(self, policy);
    }

    fn note_time(&mut self, now_ms: u64) {
        <CpaProcess as Protocol>::note_time(self, now_ms);
    }

    fn gc_retired(&self) -> u64 {
        <CpaProcess as Protocol>::gc_retired(self)
    }
}

/// Splits the action list of a [`Protocol`]-style RC implementation into link sends
/// (pushed onto `actions`) and RC deliveries (returned), mapping the protocol's
/// [`crate::types::Delivery`] onto [`RcDelivery`] via its broadcast identifier.
fn split_protocol_actions<M>(
    produced: Vec<Action<M>>,
    actions: &mut Vec<Action<M>>,
) -> Vec<RcDelivery> {
    let mut deliveries = Vec::new();
    for action in produced {
        match action {
            Action::Send { to, message } => actions.push(Action::send(to, message)),
            Action::Deliver(d) => deliveries.push(RcDelivery {
                origin: d.id.source,
                seq: d.id.seq,
                payload: d.payload,
            }),
        }
    }
    deliveries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bd::BdProcess;
    use crate::bracha::BrachaKind;
    use crate::bracha_rc::{decode_bracha, BrachaOverRc};
    use crate::config::{Config, MdFlags};
    use crate::dolev::{DolevMessage, DolevProcess};
    use crate::types::{BroadcastId, Content, Delivery};
    use crate::wire::{MessageKind, WireMessage};
    use brb_graph::{generate, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Dolev's flooding protocol as an RC substrate. `BrachaOverRc<DolevProcess>` is then
    /// the paper's unmodified Bracha–Dolev assembled by the generic template instead of
    /// [`crate::bd`]'s cross-layer engine: a second wiring to hold `bd` against, built by
    /// no stack.
    impl RcTransport for DolevProcess {
        type Message = <DolevProcess as Protocol>::Message;

        fn local_id(&self) -> ProcessId {
            self.process_id()
        }

        fn originate(
            &mut self,
            payload: Payload,
            actions: &mut Vec<Action<Self::Message>>,
        ) -> Vec<RcDelivery> {
            split_protocol_actions(self.broadcast(payload), actions)
        }

        fn on_message(
            &mut self,
            from: ProcessId,
            message: Self::Message,
            actions: &mut Vec<Action<Self::Message>>,
        ) -> Vec<RcDelivery> {
            split_protocol_actions(self.handle_message(from, message), actions)
        }

        fn wire_size(message: &Self::Message) -> usize {
            <DolevProcess as Protocol>::message_size(message)
        }

        fn state_bytes(&self) -> usize {
            <DolevProcess as Protocol>::state_bytes(self)
        }

        fn stored_paths(&self) -> usize {
            <DolevProcess as Protocol>::stored_paths(self)
        }

        fn set_gc_policy(&mut self, policy: crate::gc::GcPolicy) {
            <DolevProcess as Protocol>::set_gc_policy(self, policy);
        }

        fn note_time(&mut self, now_ms: u64) {
            <DolevProcess as Protocol>::note_time(self, now_ms);
        }

        fn gc_retired(&self) -> u64 {
            <DolevProcess as Protocol>::gc_retired(self)
        }
    }

    /// What frames of both implementations agree on: Bracha phase (0 Send, 1 Echo,
    /// 2 Ready), originator and path.
    type FrameKey = (u8, ProcessId, Vec<ProcessId>);

    /// One broadcast as [`lockstep`] saw it.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        /// Per process: its deliveries, and the round of the first one.
        deliveries: Vec<(Vec<Delivery>, Option<usize>)>,
        /// Frames sent in all rounds.
        frames: usize,
    }

    /// Runs one broadcast by `source` in lockstep rounds: the frames sent in round `r`
    /// are handled in round `r + 1`, in increasing `(receiver, sender, key)` order, so two
    /// implementations that send the same frames see the same schedule.
    fn lockstep<P: Protocol>(
        processes: &mut [P],
        source: ProcessId,
        key: impl Fn(&P::Message) -> FrameKey,
    ) -> Outcome {
        fn sends<M>(from: ProcessId, actions: Vec<Action<M>>, round: &mut Vec<(usize, usize, M)>) {
            for action in actions {
                if let Action::Send { to, message } = action {
                    round.push((to, from, message));
                }
            }
        }
        let mut first_delivery = vec![None; processes.len()];
        let mut frames = 0;
        let mut round = Vec::new();
        sends(
            source,
            processes[source].broadcast(Payload::from("differential")),
            &mut round,
        );
        for r in 0.. {
            for (p, first) in processes.iter().zip(&mut first_delivery) {
                if first.is_none() && !p.deliveries().is_empty() {
                    *first = Some(r);
                }
            }
            if round.is_empty() {
                break;
            }
            frames += round.len();
            round.sort_by_cached_key(|(to, from, message)| (*to, *from, key(message)));
            let mut next = Vec::new();
            for (to, from, message) in round {
                sends(to, processes[to].handle_message(from, message), &mut next);
            }
            round = next;
        }
        Outcome {
            deliveries: processes
                .iter()
                .zip(first_delivery)
                .map(|(p, first)| (p.deliveries().to_vec(), first))
                .collect(),
            frames,
        }
    }

    fn bd_key(message: &WireMessage) -> FrameKey {
        let phase = match message.kind {
            MessageKind::Send => 0,
            MessageKind::Echo => 1,
            MessageKind::Ready => 2,
            merged => panic!("{merged:?} needs MBD.3/4"),
        };
        (phase, message.originator, message.path.clone())
    }

    fn rc_key(message: &DolevMessage) -> FrameKey {
        let bracha = decode_bracha(&message.content.payload).expect("a Bracha message");
        let phase = match bracha.kind {
            BrachaKind::Send => 0,
            BrachaKind::Echo => 1,
            BrachaKind::Ready => 2,
        };
        (phase, message.content.id.source, message.path.clone())
    }

    /// Asserts that `bd` with every MBD modification off and `BrachaOverRc<DolevProcess>`
    /// deliver the same payloads at the same processes in the same rounds, sending the
    /// same number of frames.
    fn assert_same_broadcast(graph: &Graph, config: Config, source: ProcessId) {
        let neighbors = |i| graph.neighbors_vec(i);
        let mut bd: Vec<BdProcess> = graph
            .nodes()
            .map(|i| BdProcess::new(i, config, neighbors(i)))
            .collect();
        let mut rc: Vec<BrachaOverRc<DolevProcess>> = graph
            .nodes()
            .map(|i| {
                BrachaOverRc::new(
                    config.n,
                    config.f,
                    DolevProcess::new(i, config, neighbors(i)),
                )
            })
            .collect();
        let bd = lockstep(&mut bd, source, bd_key);
        let rc = lockstep(&mut rc, source, rc_key);
        assert!(
            bd.deliveries.iter().all(|(d, _)| d.len() == 1),
            "{:?}: not everyone delivered",
            config.md
        );
        assert_eq!(bd, rc, "{:?}, source {source}", config.md);
    }

    /// The oracle for how `bd` wires its Dolev and Bracha layers: the generic template
    /// over the same two rules must agree on who delivers, when, and at what frame cost.
    /// Both sides run the same `BrachaInstance`, so the quorum rule itself is checked by
    /// `bracha::tests::step_matches_algorithm_1_written_out`. Fig. 1
    /// with f = 1 from every source under all 32 MD subsets, and the paper's headline
    /// point (N = 31, k = 10, f = 4) under MD.1–5. The frame counts are equal for every subset: the Dolev layer
    /// is one code path, and both Bracha layers send each created message to every
    /// neighbor.
    #[test]
    fn bd_without_mbd_matches_bracha_over_standalone_dolev() {
        let figure1 = generate::figure1_example();
        for subset in 0..32u8 {
            let md = MdFlags {
                md1: subset & 1 != 0,
                md2: subset & 2 != 0,
                md3: subset & 4 != 0,
                md4: subset & 8 != 0,
                md5: subset & 16 != 0,
            };
            for source in figure1.nodes() {
                assert_same_broadcast(&figure1, Config::plain(10, 1).with_md(md), source);
            }
        }
        let mut rng = StdRng::seed_from_u64(31_010);
        let headline = generate::random_regular_connected(31, 10, 9, &mut rng).unwrap();
        assert_same_broadcast(&headline, Config::bdopt(31, 4), 0);
    }

    #[test]
    fn cpa_transport_originates_and_delivers_locally() {
        let mut cpa = CpaProcess::new(2, 10, 1, vec![0, 1, 3]);
        let mut actions = Vec::new();
        let deliveries = cpa.originate(Payload::from("x"), &mut actions);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].origin, 2);
        assert_eq!(deliveries[0].seq, 0);
        assert_eq!(actions.len(), 3, "one relay per neighbor");
        assert_eq!(cpa.local_id(), 2);
    }

    #[test]
    fn cpa_transport_delivers_direct_reception_from_origin() {
        let mut cpa = CpaProcess::new(1, 10, 1, vec![0, 2]);
        let mut actions = Vec::new();
        let msg = crate::cpa::CpaMessage {
            content: Content::new(BroadcastId::new(0, 7), Payload::from("m")),
        };
        let deliveries = cpa.on_message(0, msg, &mut actions);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].origin, 0);
        assert_eq!(deliveries[0].seq, 7);
        assert!(!actions.is_empty(), "delivered content is relayed");
    }

    #[test]
    fn cpa_transport_wire_size_matches_protocol() {
        let msg = crate::cpa::CpaMessage {
            content: Content::new(BroadcastId::new(0, 0), Payload::filled(0, 16)),
        };
        assert_eq!(
            <CpaProcess as RcTransport>::wire_size(&msg),
            <CpaProcess as Protocol>::message_size(&msg)
        );
    }
}
