//! Core identifiers and payload types shared by every protocol layer.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Identifier of a process. Re-exported from [`brb_graph`] so that protocol and topology
/// layers agree on the node namespace.
pub use brb_graph::ProcessId;

/// Sequence number that a source process attaches to each of its broadcasts
/// (the `bid` field of the paper, Sec. 5 "Repeatable broadcast").
pub type BroadcastSeq = u32;

/// Locally generated identifier a process associates to a payload for use with its direct
/// neighbors (modification MBD.1).
pub type LocalPayloadId = u32;

/// Number of low bits of a [`BroadcastSeq`] that carry the namespace-local sequence
/// number; the bits above them carry the client-instance namespace.
///
/// Layered clients (a consensus engine, a workload generator) that share one node's
/// engine each allocate broadcast sequence numbers independently, so without
/// coordination two clients would mint the same `(source, seq)` pair for different
/// payloads — indistinguishable, to every other process, from a Byzantine equivocation.
/// The namespace scheme partitions the 32-bit sequence space instead:
/// `seq = (namespace << 24) | local`, giving every client 2^24 collision-free
/// instances per node. [`NAMESPACE_CLIENT`] (0) is the default — engines allocate
/// their own counters there, so plain broadcasts and workload-generator schedules are
/// unchanged — and [`NAMESPACE_CONSENSUS`] (1) is reserved for `brb-consensus`
/// round-message instances.
pub const NAMESPACE_SHIFT: u32 = 24;

/// Mask selecting the namespace-local part of a [`BroadcastSeq`].
pub const NAMESPACE_LOCAL_MASK: BroadcastSeq = (1 << NAMESPACE_SHIFT) - 1;

/// The default client-instance namespace: engine-owned counters (plain `broadcast`
/// calls, workload-generator schedules) allocate here, starting at 0.
pub const NAMESPACE_CLIENT: u32 = 0;

/// The namespace reserved for consensus round-messages (`brb-consensus`): every
/// BV/aux broadcast is minted here, so consensus instances never collide with
/// workload-generator ids on the same node.
pub const NAMESPACE_CONSENSUS: u32 = 1;

/// Composes a [`BroadcastSeq`] from a client-instance namespace and a namespace-local
/// sequence number (`local` must fit in [`NAMESPACE_SHIFT`] bits).
pub fn namespaced_seq(namespace: u32, local: u32) -> BroadcastSeq {
    debug_assert!(
        local <= NAMESPACE_LOCAL_MASK,
        "local seq overflows namespace"
    );
    (namespace << NAMESPACE_SHIFT) | (local & NAMESPACE_LOCAL_MASK)
}

/// The client-instance namespace a [`BroadcastSeq`] was minted in.
pub fn seq_namespace(seq: BroadcastSeq) -> u32 {
    seq >> NAMESPACE_SHIFT
}

/// The namespace-local part of a [`BroadcastSeq`].
pub fn seq_local(seq: BroadcastSeq) -> u32 {
    seq & NAMESPACE_LOCAL_MASK
}

/// Identifier of a broadcast: the source process and its per-source sequence number.
///
/// If the source is correct, `(source, seq)` uniquely identifies a payload. A Byzantine
/// source may reuse a sequence number for several payloads, in which case the protocol
/// guarantees that correct processes deliver at most one of them (BRB-Agreement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BroadcastId {
    /// Source process that initiated the broadcast.
    pub source: ProcessId,
    /// Monotonically increasing per-source sequence number.
    pub seq: BroadcastSeq,
}

impl BroadcastId {
    /// Creates a new broadcast identifier.
    pub fn new(source: ProcessId, seq: BroadcastSeq) -> Self {
        Self { source, seq }
    }
}

impl fmt::Display for BroadcastId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.source, self.seq)
    }
}

/// Immutable, cheaply clonable payload data.
///
/// The protocols never interpret payload bytes; they only move them around and compare
/// them for equality (no cryptographic digests are used, matching the paper's goal of
/// tolerating computationally unbounded adversaries).
///
/// Every engine keys its per-broadcast state by [`Content`], so a payload is hashed on
/// every received message. The bytes are therefore digested **once**, at construction:
/// [`Hash`] writes the cached 64-bit digest and equality (and the ordering, which is by
/// digest first and is only good for set membership) looks at the digest before the
/// bytes. A lookup costs the same for a 16 B and a 1 KiB payload, and the payloads an
/// equivocating source attaches to one [`BroadcastId`] still spread over hash buckets.
/// The digest is a lookup accelerator only: equality is always decided by the bytes.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Payload {
    digest: u64,
    bytes: Arc<Vec<u8>>,
}

impl Payload {
    /// Creates a payload from raw bytes.
    pub fn new(bytes: impl Into<Vec<u8>>) -> Self {
        let bytes = bytes.into();
        // SipHash with the standard library's fixed keys: deterministic across runs,
        // and map hashers re-key it, so no table's bucket choice is predictable.
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        hasher.write(&bytes);
        Self {
            digest: hasher.finish(),
            bytes: Arc::new(bytes),
        }
    }

    /// Creates a payload of `len` identical bytes (handy for the 16 B / 1024 B workloads
    /// of the evaluation).
    pub fn filled(byte: u8, len: usize) -> Self {
        Self::new(vec![byte; len])
    }

    /// Payload length in bytes (the `payloadSize` wire field).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Raw bytes of the payload.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl Hash for Payload {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest);
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({} bytes)", self.bytes.len())
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload::new(v)
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Self {
        Payload::new(v.to_vec())
    }
}

impl From<&str> for Payload {
    fn from(v: &str) -> Self {
        Payload::new(v.as_bytes().to_vec())
    }
}

/// A broadcast *content*: the broadcast identifier together with the payload data.
///
/// Bracha's quorums are counted per content (a Byzantine source may attach different
/// payloads to the same [`BroadcastId`], and those are tracked independently).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Content {
    /// Broadcast identifier `(s, bid)`.
    pub id: BroadcastId,
    /// Payload data.
    pub payload: Payload,
}

impl Content {
    /// Creates a content record.
    pub fn new(id: BroadcastId, payload: Payload) -> Self {
        Self { id, payload }
    }
}

/// A delivery event produced by a protocol: the BRB (or RC) layer hands the payload of a
/// given broadcast to the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Broadcast identifier of the delivered message.
    pub id: BroadcastId,
    /// Delivered payload.
    pub payload: Payload,
}

/// Action produced by a protocol state machine in response to an event.
///
/// The discrete-event simulator and the threaded runtime both execute these actions:
/// `Send` puts a message on an authenticated link, `Deliver` hands a payload to the
/// application layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<M> {
    /// Send `message` to direct neighbor `to` over the authenticated link.
    Send {
        /// Destination (must be a direct neighbor).
        to: ProcessId,
        /// Message to transmit.
        message: M,
    },
    /// Deliver a broadcast to the local application.
    Deliver(Delivery),
}

impl<M> Action<M> {
    /// Convenience constructor for a send action.
    pub fn send(to: ProcessId, message: M) -> Self {
        Action::Send { to, message }
    }

    /// Returns the delivery if this action is a delivery.
    pub fn as_delivery(&self) -> Option<&Delivery> {
        match self {
            Action::Deliver(d) => Some(d),
            Action::Send { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_id_display() {
        assert_eq!(BroadcastId::new(3, 7).to_string(), "(3, 7)");
    }

    #[test]
    fn namespaced_seqs_round_trip_and_never_collide_across_namespaces() {
        let client = namespaced_seq(NAMESPACE_CLIENT, 42);
        let consensus = namespaced_seq(NAMESPACE_CONSENSUS, 42);
        assert_eq!(client, 42, "namespace 0 is the plain engine counter");
        assert_ne!(client, consensus);
        assert_eq!(seq_namespace(consensus), NAMESPACE_CONSENSUS);
        assert_eq!(seq_local(consensus), 42);
        assert_eq!(seq_namespace(client), NAMESPACE_CLIENT);
        assert_eq!(seq_local(client), 42);
    }

    #[test]
    fn payload_constructors() {
        let p = Payload::filled(0xAB, 16);
        assert_eq!(p.len(), 16);
        assert!(!p.is_empty());
        assert!(p.as_bytes().iter().all(|&b| b == 0xAB));
        let q = Payload::from("hello");
        assert_eq!(q.len(), 5);
        let r = Payload::from(vec![1, 2, 3]);
        assert_eq!(r.as_bytes(), &[1, 2, 3]);
        let s = Payload::from(&b"xy"[..]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn payload_equality_is_structural() {
        assert_eq!(Payload::new(vec![1, 2]), Payload::new(vec![1, 2]));
        assert_ne!(Payload::new(vec![1, 2]), Payload::new(vec![1, 3]));
    }

    #[test]
    fn payload_debug_shows_length_not_bytes() {
        let p = Payload::filled(0, 1024);
        assert_eq!(format!("{p:?}"), "Payload(1024 bytes)");
    }

    #[test]
    fn action_as_delivery() {
        let d = Delivery {
            id: BroadcastId::new(0, 0),
            payload: Payload::from("x"),
        };
        let a: Action<u8> = Action::Deliver(d.clone());
        assert_eq!(a.as_delivery(), Some(&d));
        let s: Action<u8> = Action::send(1, 9);
        assert_eq!(s.as_delivery(), None);
    }

    #[test]
    fn empty_payload() {
        let p = Payload::new(Vec::new());
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
    }
}
