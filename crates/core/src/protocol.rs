//! The [`Protocol`] trait: the event-driven interface every broadcast protocol in this
//! crate exposes, and that both the discrete-event simulator (`brb-sim`) and the threaded
//! runtime (`brb-runtime`) drive.
//!
//! Engines implement one event form: the sink methods [`Protocol::broadcast_into`] and
//! [`Protocol::handle_message_into`], which push into a caller-owned, reusable
//! [`ActionBuf`] so that hot loops (the simulator's dispatch path, the deployments' node
//! loops) process millions of events without one `Vec` allocation per event. The
//! `Vec`-returning [`Protocol::broadcast`] and [`Protocol::handle_message`] are provided
//! one-line shims over them, for tests and one-off drivers.

use crate::types::{Action, Delivery, Payload, ProcessId};

/// A reusable sink for the [`Action`]s produced by one protocol event.
///
/// Drivers keep one `ActionBuf` alive across events: the protocol pushes the actions of
/// the current event into it, the driver drains them, and the allocation is recycled for
/// the next event, so the hot path allocates no output `Vec` per event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionBuf<M> {
    actions: Vec<Action<M>>,
}

impl<M> ActionBuf<M> {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self {
            actions: Vec::new(),
        }
    }

    /// Creates an empty buffer with room for `capacity` actions.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            actions: Vec::with_capacity(capacity),
        }
    }

    /// Appends one action.
    pub fn push(&mut self, action: Action<M>) {
        self.actions.push(action);
    }

    /// Appends a send action.
    pub fn send(&mut self, to: ProcessId, message: M) {
        self.actions.push(Action::send(to, message));
    }

    /// Appends a delivery action.
    pub fn deliver(&mut self, delivery: Delivery) {
        self.actions.push(Action::Deliver(delivery));
    }

    /// Appends every action of `iter`.
    pub fn extend(&mut self, iter: impl IntoIterator<Item = Action<M>>) {
        self.actions.extend(iter);
    }

    /// Number of buffered actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Removes every buffered action, keeping the allocation.
    pub fn clear(&mut self) {
        self.actions.clear();
    }

    /// Drains the buffered actions in push order, keeping the allocation.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Action<M>> {
        self.actions.drain(..)
    }

    /// The buffered actions, in push order.
    pub fn as_slice(&self) -> &[Action<M>] {
        &self.actions
    }

    /// Mutable access to the underlying vector, for protocol internals that already
    /// thread a `&mut Vec<Action<M>>` through their layers.
    pub fn as_mut_vec(&mut self) -> &mut Vec<Action<M>> {
        &mut self.actions
    }

    /// Consumes the buffer and returns the actions.
    pub fn into_vec(self) -> Vec<Action<M>> {
        self.actions
    }
}

impl<M> Default for ActionBuf<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> IntoIterator for ActionBuf<M> {
    type Item = Action<M>;
    type IntoIter = std::vec::IntoIter<Action<M>>;

    fn into_iter(self) -> Self::IntoIter {
        self.actions.into_iter()
    }
}

/// An event-driven broadcast protocol instance running at one process.
///
/// A protocol instance is a deterministic state machine: it reacts to exactly two kinds of
/// events — the local application broadcasting a payload, and the arrival of a message on
/// an authenticated link — and produces a list of [`Action`]s (messages to send to direct
/// neighbors, payloads to deliver to the application).
///
/// Determinism is what makes the discrete-event simulation reproducible and the property
/// tests meaningful: for a fixed sequence of events, a protocol instance always produces
/// the same actions.
pub trait Protocol {
    /// Message type exchanged on the links.
    type Message: Clone + std::fmt::Debug;

    /// Identifier of the process running this instance.
    fn process_id(&self) -> ProcessId;

    /// Initiates the broadcast of `payload`, pushing the resulting actions into `out`.
    fn broadcast_into(&mut self, payload: Payload, out: &mut ActionBuf<Self::Message>);

    /// Handles a message received from direct neighbor `from` over the authenticated link,
    /// pushing the resulting actions into `out`.
    fn handle_message_into(
        &mut self,
        from: ProcessId,
        message: Self::Message,
        out: &mut ActionBuf<Self::Message>,
    );

    /// [`Protocol::broadcast_into`] into a fresh `Vec`.
    fn broadcast(&mut self, payload: Payload) -> Vec<Action<Self::Message>> {
        let mut out = ActionBuf::new();
        self.broadcast_into(payload, &mut out);
        out.into_vec()
    }

    /// [`Protocol::handle_message_into`] into a fresh `Vec`.
    fn handle_message(
        &mut self,
        from: ProcessId,
        message: Self::Message,
    ) -> Vec<Action<Self::Message>> {
        let mut out = ActionBuf::new();
        self.handle_message_into(from, message, &mut out);
        out.into_vec()
    }

    /// The sequence number the next plain [`Protocol::broadcast`] will mint.
    ///
    /// Repeatable-broadcast engines own a per-process counter; protocols without one
    /// report 0.
    fn next_seq(&self) -> crate::types::BroadcastSeq {
        0
    }

    /// Overrides the sequence number the next plain [`Protocol::broadcast`] will mint.
    ///
    /// The default implementation ignores it (single-shot protocols have no counter).
    fn set_next_seq(&mut self, _seq: crate::types::BroadcastSeq) {}

    /// Broadcasts `payload` under an explicitly chosen sequence number instead of the
    /// engine's own counter, leaving the counter unchanged.
    ///
    /// This is the hook layered clients use to mint ids in their own client-instance
    /// namespace (see [`crate::types::namespaced_seq`]): a consensus layer broadcasting
    /// round-messages picks `seq = namespaced_seq(NAMESPACE_CONSENSUS, local)` so its
    /// instances can never collide with the engine-counter ids
    /// ([`crate::types::NAMESPACE_CLIENT`]) a workload generator predicts.
    fn broadcast_with_seq_into(
        &mut self,
        seq: crate::types::BroadcastSeq,
        payload: Payload,
        out: &mut ActionBuf<Self::Message>,
    ) {
        let saved = self.next_seq();
        self.set_next_seq(seq);
        self.broadcast_into(payload, out);
        self.set_next_seq(saved);
    }

    /// All payloads delivered so far, in delivery order.
    fn deliveries(&self) -> &[Delivery];

    /// Size of a message on the wire, in bytes, following the paper's Table 3 accounting.
    fn message_size(message: &Self::Message) -> usize;

    /// Approximate number of bytes of protocol state currently held (stored paths,
    /// memoized path combinations, buffered payloads). Used as the memory-consumption
    /// proxy of Sec. 7.3.
    ///
    /// Hosts read this (and [`Protocol::stored_paths`]) after every event, so
    /// implementations answer from running totals in constant time rather than by
    /// walking their state.
    fn state_bytes(&self) -> usize {
        0
    }

    /// Number of transmission paths currently stored for disjoint-path verification.
    ///
    /// The paper attributes the memory growth of the protocol to this quantity
    /// (Sec. 7.3); the simulator tracks its peak over a run.
    fn stored_paths(&self) -> usize {
        0
    }

    /// Installs an instance-GC retention policy (see [`crate::gc::GcPolicy`]).
    ///
    /// The default implementation ignores it: protocols without per-broadcast state (or
    /// without GC support) simply keep their historical behavior.
    fn set_gc_policy(&mut self, _policy: crate::gc::GcPolicy) {}

    /// Feeds the host's clock to the engine for time-based retention windows: virtual
    /// milliseconds in the simulator, wall-clock milliseconds in the live deployments.
    /// The default implementation ignores it.
    fn note_time(&mut self, _now_ms: u64) {}

    /// Number of broadcast instances this engine has retired through GC so far.
    fn gc_retired(&self) -> u64 {
        0
    }

    /// Installs a structured-trace handle (see [`brb_trace::Tracer`]) through which
    /// the engine reports protocol phase transitions — Dolev path accumulation,
    /// Bracha echo/ready thresholds, CPA acceptance, GC retirement.
    ///
    /// The default implementation ignores it, so third-party protocols (and engines
    /// without interesting phases) stay source-compatible; a disabled tracer costs a
    /// single branch per would-be event.
    fn set_tracer(&mut self, _tracer: brb_trace::Tracer) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::BroadcastId;

    /// A trivial protocol used to check that default methods behave: a broadcast
    /// delivers at once, a message is echoed back to its sender.
    struct Loopback {
        id: ProcessId,
        deliveries: Vec<Delivery>,
    }

    impl Protocol for Loopback {
        type Message = Payload;

        fn process_id(&self) -> ProcessId {
            self.id
        }

        fn broadcast_into(&mut self, payload: Payload, out: &mut ActionBuf<Payload>) {
            let d = Delivery {
                id: BroadcastId::new(self.id, 0),
                payload,
            };
            self.deliveries.push(d.clone());
            out.deliver(d);
        }

        fn handle_message_into(
            &mut self,
            from: ProcessId,
            m: Payload,
            out: &mut ActionBuf<Payload>,
        ) {
            out.send(from, m);
        }

        fn deliveries(&self) -> &[Delivery] {
            &self.deliveries
        }

        fn message_size(message: &Payload) -> usize {
            message.len()
        }
    }

    #[test]
    fn default_state_bytes_is_zero() {
        let mut p = Loopback {
            id: 0,
            deliveries: vec![],
        };
        assert_eq!(p.state_bytes(), 0);
        let actions = p.broadcast(Payload::from("x"));
        assert_eq!(actions.len(), 1);
        assert_eq!(p.deliveries().len(), 1);
        assert_eq!(Loopback::message_size(&Payload::from("abc")), 3);
    }

    #[test]
    fn provided_vec_methods_return_what_the_sink_methods_push() {
        let loopback = || Loopback {
            id: 3,
            deliveries: vec![],
        };
        let (mut sink, mut vec) = (loopback(), loopback());
        // The sink appends after whatever the buffer already holds.
        let mut buf: ActionBuf<Payload> = ActionBuf::with_capacity(4);
        buf.send(9, Payload::from("earlier"));
        sink.broadcast_into(Payload::from("a"), &mut buf);
        sink.handle_message_into(0, Payload::from("b"), &mut buf);
        let pushed: Vec<_> = buf.drain().skip(1).collect();
        assert!(buf.is_empty());
        let mut returned = vec.broadcast(Payload::from("a"));
        returned.extend(vec.handle_message(0, Payload::from("b")));
        assert_eq!(pushed, returned);
        assert_eq!(
            returned,
            [
                Action::Deliver(vec.deliveries()[0].clone()),
                Action::send(0, Payload::from("b"))
            ]
        );
        assert_eq!(sink.deliveries(), vec.deliveries());
        // The allocation survives draining; pushing again reuses it.
        buf.send(1, Payload::from("m"));
        assert_eq!(buf.len(), 1);
        buf.clear();
        assert!(buf.is_empty());
    }

    #[test]
    fn action_buf_conversions() {
        let mut buf: ActionBuf<u8> = ActionBuf::default();
        buf.extend([Action::send(1, 9), Action::send(2, 7)]);
        assert_eq!(buf.as_mut_vec().len(), 2);
        let collected: Vec<_> = buf.clone().into_iter().collect();
        assert_eq!(collected.len(), 2);
        assert_eq!(buf.into_vec().len(), 2);
    }
}
