//! [`ConsensusEngine`] — a [`DynEngine`] decorator that runs binary consensus on top
//! of any BRB stack.
//!
//! The wrapper is transparent to the host: frames go to the inner engine unchanged,
//! plain client payloads broadcast through untouched (in
//! [`brb_core::types::NAMESPACE_CLIENT`]), and the host's delivery plumbing keeps
//! working — consensus round-messages surface there too, tagged by
//! [`brb_core::types::NAMESPACE_CONSENSUS`] in their instance ids. After every frame
//! the wrapper scans the inner engine's new deliveries, feeds the round-message ones
//! to the [`ConsensusNode`] state machine, and broadcasts whatever the rules dictate
//! through fresh BRB instances via
//! [`DynEngine::broadcast_wire_seq`], looping to a local fixpoint.

use std::sync::{Arc, Mutex};

use brb_core::gc::GcPolicy;
use brb_core::stack::{DynEngine, WireActionBuf};
use brb_core::types::{
    namespaced_seq, seq_namespace, BroadcastSeq, Payload, ProcessId, NAMESPACE_CONSENSUS,
};

use crate::codec::{ControlOp, RoundMsg};
use crate::node::ConsensusNode;
use crate::{ConsensusSpec, Decision};

/// Shared, cheaply clonable view of one process's consensus decision.
///
/// Clone it off the engine *before* boxing the engine into a deployment; the handle
/// keeps reporting after the engine is owned by another thread.
#[derive(Debug, Clone, Default)]
pub struct DecisionHandle(Arc<Mutex<Option<Decision>>>);

impl DecisionHandle {
    /// The decision reached so far, if any.
    pub fn get(&self) -> Option<Decision> {
        *self.0.lock().expect("decision handle poisoned")
    }

    fn set(&self, decision: Option<Decision>) {
        *self.0.lock().expect("decision handle poisoned") = decision;
    }
}

/// Binary Byzantine consensus over an arbitrary boxed BRB engine.
pub struct ConsensusEngine {
    inner: Box<dyn DynEngine>,
    node: ConsensusNode,
    /// Cursor into `inner.deliveries()`: everything before it has been fed to `node`.
    seen: usize,
    handle: DecisionHandle,
    /// Structured-trace handle for the consensus layer's own phase events (the inner
    /// engine holds its own copy for the BRB-level events).
    tracer: brb_trace::Tracer,
}

impl ConsensusEngine {
    /// Wraps `inner`, configuring the node from `spec` (proposal value and flipper
    /// status are derived from the inner engine's process id).
    pub fn new(inner: Box<dyn DynEngine>, n: usize, f: usize, spec: &ConsensusSpec) -> Self {
        let id = inner.process_id();
        let proposal = spec.proposal_for(id);
        let flip = spec.flippers.contains(&id);
        Self {
            inner,
            node: ConsensusNode::new(n, f, proposal, flip, spec.coin_seed, spec.max_rounds),
            seen: 0,
            handle: DecisionHandle::default(),
            tracer: brb_trace::Tracer::disabled(),
        }
    }

    /// A shared handle onto this process's decision (clone before boxing the engine).
    pub fn decision_handle(&self) -> DecisionHandle {
        self.handle.clone()
    }

    /// The decision reached so far, if any.
    pub fn decided(&self) -> Option<Decision> {
        self.node.decided()
    }

    /// The consensus round this process is currently in.
    pub fn round(&self) -> u32 {
        self.node.round()
    }

    /// Broadcasts the node's pending round-messages, each on a fresh BRB instance in
    /// the consensus namespace.
    fn send_round_msgs(&mut self, msgs: Vec<RoundMsg>, out: &mut WireActionBuf) {
        for msg in msgs {
            let seq = namespaced_seq(NAMESPACE_CONSENSUS, msg.local_seq());
            if self.tracer.is_enabled() {
                let id = self.inner.process_id();
                let kind = match msg {
                    RoundMsg::Est { round, value } => {
                        brb_trace::TraceEventKind::ConsensusBv { round, value }
                    }
                    RoundMsg::Aux { round, value } => {
                        brb_trace::TraceEventKind::ConsensusAux { round, value }
                    }
                };
                self.tracer.emit(id, id, seq, kind);
            }
            self.inner.broadcast_wire_seq(seq, msg.encode(), out);
        }
    }

    /// Feeds new inner deliveries to the state machine until no further progress,
    /// then publishes the (possibly new) decision.
    fn pump(&mut self, out: &mut WireActionBuf) {
        loop {
            let deliveries = self.inner.deliveries();
            if self.seen >= deliveries.len() {
                break;
            }
            let fresh: Vec<(ProcessId, BroadcastSeq, Payload)> = deliveries[self.seen..]
                .iter()
                .map(|d| (d.id.source, d.id.seq, d.payload.clone()))
                .collect();
            self.seen = deliveries.len();
            let mut pending = Vec::new();
            for (source, seq, payload) in fresh {
                if seq_namespace(seq) != NAMESPACE_CONSENSUS {
                    continue;
                }
                let Some(msg) = RoundMsg::decode(seq, payload.as_bytes()) else {
                    continue;
                };
                pending.extend(self.node.on_delivery(source, msg));
            }
            // New broadcasts may deliver locally at once (e.g. a Dolev source trusts
            // itself), so loop until the delivery log stops growing.
            self.send_round_msgs(pending, out);
        }
        let decided = self.node.decided();
        if let Some(decision) = decided {
            if self.handle.get().is_none() {
                let id = self.inner.process_id();
                self.tracer.emit(
                    id,
                    id,
                    namespaced_seq(NAMESPACE_CONSENSUS, 0),
                    brb_trace::TraceEventKind::ConsensusDecide {
                        round: decision.round,
                        value: decision.value,
                    },
                );
            }
        }
        self.handle.set(decided);
    }
}

impl DynEngine for ConsensusEngine {
    fn process_id(&self) -> ProcessId {
        self.inner.process_id()
    }

    fn broadcast_wire(&mut self, payload: Payload, out: &mut WireActionBuf) {
        // Control operations are intercepted locally; everything else is an ordinary
        // client broadcast and passes straight through to the inner engine.
        if let Some(op) = ControlOp::decode(payload.as_bytes()) {
            if let ControlOp::CloseRound(round) = op {
                let id = self.inner.process_id();
                self.tracer.emit(
                    id,
                    id,
                    namespaced_seq(NAMESPACE_CONSENSUS, 0),
                    brb_trace::TraceEventKind::ConsensusCoin { round },
                );
            }
            let msgs = self.node.on_control(op);
            self.send_round_msgs(msgs, out);
            self.pump(out);
        } else {
            self.inner.broadcast_wire(payload, out);
        }
    }

    fn broadcast_wire_seq(&mut self, seq: BroadcastSeq, payload: Payload, out: &mut WireActionBuf) {
        self.inner.broadcast_wire_seq(seq, payload, out);
    }

    fn handle_frame(&mut self, from: ProcessId, frame: &[u8], out: &mut WireActionBuf) {
        self.inner.handle_frame(from, frame, out);
        self.pump(out);
    }

    fn deliveries(&self) -> &[brb_core::types::Delivery] {
        self.inner.deliveries()
    }

    fn state_bytes(&self) -> usize {
        self.inner.state_bytes() + self.node.state_bytes()
    }

    fn stored_paths(&self) -> usize {
        self.inner.stored_paths()
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
        self.tracer = tracer.clone();
        self.inner.set_tracer(tracer);
    }
}
