//! Generic combination of Bracha's BRB protocol with a reliable-communication substrate.
//!
//! Sec. 4.3 of the paper explains that the state-of-the-art way to obtain BRB on a
//! partially connected network is to replace every *send-to-all* of Bracha's Algorithm 1 by
//! an RC broadcast, and to feed every RC delivery (tagged with its originator) back into
//! Bracha's handlers. The paper instantiates this template with Dolev's flooding protocol
//! and then cross-optimises the two layers ([`crate::bd`]); this module keeps the template
//! itself generic over the substrate, any [`Protocol`] engine, so that the repository also
//! provides:
//!
//! * [`BrachaRoutedDolev`] — BRB on **known** partially connected topologies in the global
//!   fault model, using Dolev's predefined-routes variant as the substrate;
//! * [`BrachaCpa`] — BRB under the **`t`-locally bounded** fault model, using CPA as the
//!   substrate (the extension listed as future work in the paper's conclusion; see
//!   footnote 2 of the paper for the stronger topology condition this requires).
//!
//! The substrate runs on the host's own output buffer. An RC broadcast is the
//! substrate's [`Protocol::broadcast_into`] of an encoded Bracha message, and an RC
//! delivery is an [`Action::Deliver`] it pushes: the template takes those out of the
//! output, reads the originator from the delivery's [`BroadcastId`], and hands the decoded
//! message to the Bracha layer. The substrate's link sends stay in the output in order.
//!
//! The Bracha side is the per-content layer [`crate::bracha`] shares with
//! [`crate::bracha::BrachaProcess`], RC origins playing the role of link-level senders;
//! this engine adds only its send primitive, an RC broadcast. The combination is
//! deliberately the *plain* one: none of the MBD.1–12 cross-layer optimisations apply here,
//! which also makes these stacks useful baselines when measuring how much the paper's
//! optimisations win.

use crate::bracha::{BrachaKind, BrachaLayer, BrachaMessage};
use crate::cpa::CpaProcess;
use crate::dolev_routed::RoutedDolev;
use crate::gc::GcPolicy;
use crate::protocol::{ActionBuf, Protocol};
use crate::types::{Action, BroadcastId, Delivery, Payload, ProcessId};

/// BRB on a known partially connected topology: Bracha over routed Dolev.
pub type BrachaRoutedDolev = BrachaOverRc<RoutedDolev>;

/// BRB in the `t`-locally bounded fault model: Bracha over CPA.
pub type BrachaCpa = BrachaOverRc<CpaProcess>;

/// Bracha's double-echo broadcast running on top of an arbitrary reliable-communication
/// substrate.
#[derive(Debug, Clone)]
pub struct BrachaOverRc<T> {
    /// The Bracha layer's own per-content state, retired by its own GC tracker; the
    /// substrate keeps its own tracker, retires its RC instances independently, and
    /// reports its state on top.
    layer: BrachaLayer,
    transport: T,
}

impl<T: Protocol> BrachaOverRc<T> {
    /// Creates the combination for a system of `n` processes with at most `f` Byzantine
    /// ones, on top of `transport`.
    ///
    /// # Panics
    ///
    /// Panics if `f >= n/3` or if the transport's local identity is not `< n`.
    pub fn new(n: usize, f: usize, transport: T) -> Self {
        Self {
            layer: BrachaLayer::new(transport.process_id(), n, f),
            transport,
        }
    }

    /// The underlying RC transport (for inspection in tests and experiments).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Runs one RC-delivered Bracha message: RC-broadcasts what it creates, then
    /// delivers.
    fn receive(
        &mut self,
        origin: ProcessId,
        message: BrachaMessage,
        out: &mut ActionBuf<T::Message>,
    ) {
        let transport = &mut self.transport;
        let delivery = self.layer.receive(origin, message, |created| {
            originate_bracha(transport, created, out);
        });
        out.extend(delivery.map(Action::Deliver));
    }
}

impl<T: Protocol> Protocol for BrachaOverRc<T> {
    type Message = T::Message;

    fn process_id(&self) -> ProcessId {
        self.layer.id
    }

    fn next_seq(&self) -> u32 {
        self.layer.next_seq
    }

    fn set_next_seq(&mut self, seq: u32) {
        self.layer.next_seq = seq;
    }

    fn broadcast_into(&mut self, payload: Payload, out: &mut ActionBuf<T::Message>) {
        self.layer.gc.on_event();
        let send = BrachaMessage {
            kind: BrachaKind::Send,
            id: self.layer.next_id(),
            payload,
        };
        originate_bracha(&mut self.transport, &send, out);
        self.receive(self.layer.id, send, out);
        self.layer.run_gc();
    }

    /// Feeds the RC deliveries a link message triggers to the Bracha layer, last one
    /// first (the order the goldens pin).
    fn handle_message_into(
        &mut self,
        from: ProcessId,
        message: T::Message,
        out: &mut ActionBuf<T::Message>,
    ) {
        self.layer.gc.on_event();
        let start = out.len();
        self.transport.handle_message_into(from, message, out);
        for delivery in take_deliveries(out, start).into_iter().rev() {
            if let Some(decoded) = decode_bracha(&delivery.payload) {
                self.receive(delivery.id.source, decoded, out);
            }
        }
        self.layer.run_gc();
    }

    fn deliveries(&self) -> &[Delivery] {
        &self.layer.deliveries
    }

    fn message_size(message: &T::Message) -> usize {
        T::message_size(message)
    }

    fn state_bytes(&self) -> usize {
        self.layer.bytes() + self.transport.state_bytes()
    }

    fn stored_paths(&self) -> usize {
        self.transport.stored_paths()
    }

    fn set_gc_policy(&mut self, policy: GcPolicy) {
        self.layer.gc.set_policy(policy);
        self.transport.set_gc_policy(policy);
    }

    fn note_time(&mut self, now_ms: u64) {
        self.layer.gc.note_time(now_ms);
        self.transport.note_time(now_ms);
    }

    fn gc_retired(&self) -> u64 {
        self.layer.gc.retired_count() + self.transport.gc_retired()
    }

    fn set_tracer(&mut self, tracer: brb_trace::Tracer) {
        self.layer.tracer = tracer;
    }
}

/// RC-broadcasts `message` over `transport`, the template's send primitive. The origin
/// RC-delivers its own broadcast at once; the step that created the message already
/// counted this process, so that delivery is dropped.
fn originate_bracha<T: Protocol>(
    transport: &mut T,
    message: &BrachaMessage,
    out: &mut ActionBuf<T::Message>,
) {
    let start = out.len();
    transport.broadcast_into(encode_bracha(message), out);
    take_deliveries(out, start);
}

/// Takes the deliveries pushed at or after `start` out of `out`, in push order; the
/// sends stay where they are, in order.
fn take_deliveries<M>(out: &mut ActionBuf<M>, start: usize) -> Vec<Delivery> {
    out.as_mut_vec()
        .extract_if(start.., |action| matches!(action, Action::Deliver(_)))
        .filter_map(|action| match action {
            Action::Deliver(delivery) => Some(delivery),
            Action::Send { .. } => None,
        })
        .collect()
}

/// Encodes a Bracha message as an opaque RC payload:
/// `kind (1 B) | source (4 B) | bid (4 B) | payloadSize (4 B) | payload`, mirroring the
/// Table 3 field sizes so that wire accounting stays comparable across stacks.
pub fn encode_bracha(message: &BrachaMessage) -> Payload {
    Payload::new(encode_bracha_frame(message))
}

/// Byte-level form of [`encode_bracha`], shared with the `BrachaMessage` wire codec in
/// [`crate::stack`] so neither path pays a second copy.
pub(crate) fn encode_bracha_frame(message: &BrachaMessage) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(13 + message.payload.len());
    encode_bracha_frame_into(message, &mut bytes);
    bytes
}

/// Appends the frame encoding to an existing buffer — the arena-backed encode path of
/// the `BrachaMessage` wire codec, which stages a whole burst of frames in one
/// allocation instead of one `Vec` per frame.
pub(crate) fn encode_bracha_frame_into(message: &BrachaMessage, bytes: &mut Vec<u8>) {
    bytes.push(match message.kind {
        BrachaKind::Send => 0u8,
        BrachaKind::Echo => 1,
        BrachaKind::Ready => 2,
    });
    bytes.extend_from_slice(&(message.id.source as u32).to_be_bytes());
    bytes.extend_from_slice(&message.id.seq.to_be_bytes());
    bytes.extend_from_slice(&(message.payload.len() as u32).to_be_bytes());
    bytes.extend_from_slice(message.payload.as_bytes());
}

/// Decodes an RC payload produced by [`encode_bracha`]. Returns `None` on any malformed
/// input (a Byzantine origin may RC-broadcast arbitrary bytes).
pub fn decode_bracha(payload: &Payload) -> Option<BrachaMessage> {
    decode_bracha_frame(payload.as_bytes())
}

/// Byte-level form of [`decode_bracha`], shared with the `BrachaMessage` wire codec.
pub(crate) fn decode_bracha_frame(bytes: &[u8]) -> Option<BrachaMessage> {
    if bytes.len() < 13 {
        return None;
    }
    let kind = match bytes[0] {
        0 => BrachaKind::Send,
        1 => BrachaKind::Echo,
        2 => BrachaKind::Ready,
        _ => return None,
    };
    let source = u32::from_be_bytes(bytes[1..5].try_into().ok()?) as ProcessId;
    let seq = u32::from_be_bytes(bytes[5..9].try_into().ok()?);
    let len = u32::from_be_bytes(bytes[9..13].try_into().ok()?) as usize;
    if bytes.len() != 13 + len {
        return None;
    }
    Some(BrachaMessage {
        kind,
        id: BroadcastId::new(source, seq),
        payload: Payload::new(bytes[13..].to_vec()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::check::{Checked, WalkState};

    /// The walk the running total replaced: every content the Bracha layer tracks, on
    /// top of the substrate's own walk (whose totals are checked on the way). Paths are
    /// the substrate's.
    impl<T: WalkState> WalkState for BrachaOverRc<T> {
        fn walk_state(&self) -> (usize, usize) {
            self.transport.assert_totals();
            let (bytes, paths) = self.transport.walk_state();
            (self.layer.walk_bytes() + bytes, paths)
        }
    }
    use brb_graph::{generate, Graph};

    fn routed_system(graph: &Graph, f: usize) -> Vec<BrachaRoutedDolev> {
        let n = graph.node_count();
        (0..n)
            .map(|i| BrachaOverRc::new(n, f, RoutedDolev::new(i, f, graph.clone())))
            .collect()
    }

    fn cpa_system(graph: &Graph, n: usize, f: usize, t_local: usize) -> Vec<BrachaCpa> {
        (0..n)
            .map(|i| {
                BrachaOverRc::new(n, f, CpaProcess::new(i, n, t_local, graph.neighbors_vec(i)))
            })
            .collect()
    }

    /// Synchronously drives processes to quiescence, dropping messages from/to `byzantine`.
    fn run<P: WalkState + Clone>(
        processes: &mut [P],
        source: ProcessId,
        payload: Payload,
        byzantine: &[ProcessId],
    ) {
        let mut queue: Vec<(ProcessId, Action<P::Message>)> = processes[source]
            .broadcast_checked(payload)
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
    fn bracha_routed_dolev_delivers_everywhere_without_faults() {
        let g = generate::figure1_example();
        let mut processes = routed_system(&g, 1);
        run(&mut processes, 0, Payload::from("hello"), &[]);
        for p in &processes {
            assert_eq!(p.deliveries().len(), 1, "process {}", p.process_id());
            assert_eq!(p.deliveries()[0].payload, Payload::from("hello"));
        }
    }

    #[test]
    fn bracha_routed_dolev_tolerates_silent_byzantine_processes() {
        // 4-connected circulant over 13 nodes, f = 1 (needs N > 3f and k >= 2f+1).
        let g = generate::circulant(13, 2);
        let mut processes = routed_system(&g, 1);
        let byzantine = [5usize];
        run(&mut processes, 0, Payload::from("m"), &byzantine);
        for p in &processes {
            if byzantine.contains(&p.process_id()) {
                continue;
            }
            assert_eq!(p.deliveries().len(), 1, "process {}", p.process_id());
        }
    }

    #[test]
    fn bracha_cpa_delivers_on_complete_graph_with_silent_fault() {
        // On a complete graph the CPA condition holds trivially for t = 1.
        let n = 7;
        let g = generate::complete(n);
        let mut processes = cpa_system(&g, n, 2, 2);
        let byzantine = [6usize];
        run(&mut processes, 0, Payload::from("sensor"), &byzantine);
        for p in &processes {
            if byzantine.contains(&p.process_id()) {
                continue;
            }
            assert_eq!(p.deliveries().len(), 1, "process {}", p.process_id());
        }
    }

    #[test]
    fn forged_send_from_non_source_origin_is_ignored() {
        let g = generate::complete(4);
        let mut p = BrachaOverRc::new(4, 1, RoutedDolev::new(1, 1, g));
        // Process 2 RC-broadcasts a SEND claiming source 0: the RC origin (2) does not
        // match, so process 1 must not echo.
        let forged = BrachaMessage {
            kind: BrachaKind::Send,
            id: BroadcastId::new(0, 0),
            payload: Payload::from("forged"),
        };
        let msg = crate::dolev_routed::RoutedDolevMessage {
            origin: 2,
            seq: 0,
            payload: encode_bracha(&forged),
            route: vec![2, 1],
            position: 1,
        };
        let actions = p.handle_checked(2, msg);
        // The RC layer delivers (origin 2 sent directly), but Bracha discards the SEND, so
        // no echo is originated and nothing is delivered.
        assert!(actions.iter().all(|a| a.as_delivery().is_none()));
        assert!(p.deliveries().is_empty());
    }

    #[test]
    fn malformed_rc_payloads_are_ignored() {
        let g = generate::complete(4);
        let mut p = BrachaOverRc::new(4, 1, RoutedDolev::new(1, 1, g));
        let msg = crate::dolev_routed::RoutedDolevMessage {
            origin: 0,
            seq: 0,
            payload: Payload::from("not a bracha message"),
            route: vec![0, 1],
            position: 1,
        };
        let actions = p.handle_checked(0, msg);
        assert!(actions.iter().all(|a| a.as_delivery().is_none()));
        assert!(p.deliveries().is_empty());
    }

    #[test]
    fn repeated_broadcasts_deliver_in_order() {
        let g = generate::figure1_example();
        let mut processes = routed_system(&g, 1);
        run(&mut processes, 3, Payload::from("first"), &[]);
        run(&mut processes, 3, Payload::from("second"), &[]);
        for p in &processes {
            assert_eq!(p.deliveries().len(), 2);
            assert_eq!(p.deliveries()[0].id, BroadcastId::new(3, 0));
            assert_eq!(p.deliveries()[1].id, BroadcastId::new(3, 1));
        }
    }

    #[test]
    fn routed_dolev_uses_2f_plus_1_routes_per_destination() {
        let g = generate::complete(10);
        let p = BrachaOverRc::new(10, 3, RoutedDolev::new(0, 3, g));
        assert_eq!(p.transport().routes_per_destination(), 7);
    }

    #[test]
    fn state_bytes_include_both_layers() {
        let g = generate::figure1_example();
        let mut processes = routed_system(&g, 1);
        run(&mut processes, 0, Payload::from("m"), &[]);
        assert!(processes[1].state_bytes() > 0);
    }

    #[test]
    fn gc_retires_both_layers_and_drops_replayed_ready_quorums() {
        let g = generate::complete(4);
        let mut p = BrachaOverRc::new(4, 1, RoutedDolev::new(1, 1, g));
        <BrachaOverRc<RoutedDolev> as Protocol>::set_gc_policy(&mut p, GcPolicy::after_events(2));
        let id = BroadcastId::new(0, 0);
        let ready = |origin: ProcessId, seq: u32| crate::dolev_routed::RoutedDolevMessage {
            origin,
            seq,
            payload: encode_bracha(&BrachaMessage {
                kind: BrachaKind::Ready,
                id,
                payload: Payload::from("m"),
            }),
            route: vec![origin, 1],
            position: 1,
        };
        // A full READY quorum (2f+1 = 3 origins) delivers at the Bracha layer.
        let replays: Vec<_> = [(0usize, 0u32), (2, 0), (3, 0)]
            .into_iter()
            .map(|(o, s)| ready(o, s))
            .collect();
        for m in replays.clone() {
            p.handle_checked(m.origin, m);
        }
        assert_eq!(p.deliveries().len(), 1);
        // Unrelated malformed RC traffic elapses the 2-event retention window.
        for seq in 10..12 {
            let pad = crate::dolev_routed::RoutedDolevMessage {
                origin: 2,
                seq,
                payload: Payload::from("not a bracha message"),
                route: vec![2, 1],
                position: 1,
            };
            p.handle_checked(2, pad);
        }
        assert!(
            <BrachaOverRc<RoutedDolev> as Protocol>::gc_retired(&p) >= 1,
            "the delivered instance must have retired in at least one layer"
        );
        let baseline = p.state_bytes();
        // Replaying the entire READY quorum resurrects nothing and re-delivers nothing.
        for m in replays {
            let actions = p.handle_checked(m.origin, m);
            assert!(actions.iter().all(|a| a.as_delivery().is_none()));
        }
        assert_eq!(p.deliveries().len(), 1, "no duplicate delivery");
        assert_eq!(p.state_bytes(), baseline);
    }

    #[test]
    #[should_panic(expected = "violates")]
    fn rejects_invalid_fault_threshold() {
        let g = generate::complete(6);
        let _ = BrachaOverRc::new(6, 2, RoutedDolev::new(0, 2, g));
    }

    #[test]
    fn bracha_codec_roundtrip() {
        for kind in [BrachaKind::Send, BrachaKind::Echo, BrachaKind::Ready] {
            let m = BrachaMessage {
                kind,
                id: BroadcastId::new(7, 42),
                payload: Payload::filled(0xAC, 100),
            };
            assert_eq!(decode_bracha(&encode_bracha(&m)), Some(m));
        }
    }

    #[test]
    fn bracha_codec_rejects_malformed_inputs() {
        assert_eq!(decode_bracha(&Payload::from("short")), None);
        // Wrong kind byte.
        let mut bytes = encode_bracha(&BrachaMessage {
            kind: BrachaKind::Send,
            id: BroadcastId::new(0, 0),
            payload: Payload::from("x"),
        })
        .as_bytes()
        .to_vec();
        bytes[0] = 9;
        assert_eq!(decode_bracha(&Payload::new(bytes)), None);
        // Truncated payload.
        let mut bytes = encode_bracha(&BrachaMessage {
            kind: BrachaKind::Echo,
            id: BroadcastId::new(0, 0),
            payload: Payload::filled(0, 10),
        })
        .as_bytes()
        .to_vec();
        bytes.pop();
        assert_eq!(decode_bracha(&Payload::new(bytes)), None);
    }

    #[test]
    fn bracha_labels_outside_the_system_are_refused_before_any_state_exists() {
        // The RC layer certifies the origin; the Bracha message inside the payload still
        // names whatever source its (Byzantine) origin wrote.
        let g = generate::complete(4);
        let mut p = BrachaOverRc::new(4, 1, RoutedDolev::new(1, 1, g));
        let echo_for = |source: ProcessId| crate::dolev_routed::RoutedDolevMessage {
            origin: 2,
            seq: source as u32,
            payload: encode_bracha(&BrachaMessage {
                kind: BrachaKind::Echo,
                id: BroadcastId::new(source, 0),
                payload: Payload::from("m"),
            }),
            route: vec![2, 1],
            position: 1,
        };
        for source in [4, u32::MAX as ProcessId] {
            let actions = p.handle_checked(2, echo_for(source));
            assert!(actions.is_empty());
            assert_eq!(p.layer.contents(), 0);
            assert_eq!(p.layer.bytes(), 0);
        }
        p.handle_checked(2, echo_for(3));
        assert_eq!(p.layer.contents(), 1);
    }
}
