//! Authenticated links backed by crossbeam channels.
//!
//! An authenticated link guarantees that the identity of the sender cannot be forged
//! (Sec. 3 of the paper). In the in-process deployments that guarantee is structural:
//! each process holds one dedicated sender handle per outgoing link, and the frame put on
//! the channel is tagged with the sending process identifier by the link itself, not by
//! the (possibly Byzantine) protocol layer.
//!
//! This module used to live in `brb-runtime`; it moved here when the node loops of the
//! channel and TCP deployments were unified into the shared [`crate::NodeDriver`], because
//! the [`Frame`] type is the common inbound currency of every [`crate::Transport`].

use brb_core::types::ProcessId;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};

/// A frame travelling on an authenticated link: the authenticated sender identity and the
/// binary-encoded wire message.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Identity of the sending process, set by the link (not forgeable by the sender's
    /// protocol layer).
    pub from: ProcessId,
    /// Encoded wire message of whichever stack the deployment runs (a
    /// [`brb_core::stack::WireCodec`] frame; the link treats it as opaque bytes), or —
    /// when [`Frame::batch`] is set — a coalesced burst of such messages.
    pub bytes: Bytes,
    /// Whether [`Frame::bytes`] is a coalesced batch in the
    /// [`brb_core::wire::encode_batch`] framing rather than a single encoded message:
    /// one channel op carrying a whole same-destination burst of the channel backend,
    /// or every frame one read of a TCP link brought in. Receivers split batches back
    /// into messages with [`brb_core::wire::split_batch`].
    pub batch: bool,
}

impl Frame {
    /// A frame carrying one encoded message.
    pub fn single(from: ProcessId, bytes: Bytes) -> Self {
        Self {
            from,
            bytes,
            batch: false,
        }
    }

    /// A frame carrying a coalesced batch buffer in the
    /// [`brb_core::wire::encode_batch`] layout.
    pub fn batched(from: ProcessId, bytes: Bytes) -> Self {
        Self {
            from,
            bytes,
            batch: true,
        }
    }
}

/// Sending half of an authenticated link from a fixed process to a fixed neighbor.
#[derive(Debug, Clone)]
pub struct AuthenticatedSender {
    from: ProcessId,
    to: ProcessId,
    tx: Sender<Frame>,
}

impl AuthenticatedSender {
    /// The neighbor this link leads to.
    pub fn peer(&self) -> ProcessId {
        self.to
    }

    /// Sends an encoded message. Returns `false` if the peer has shut down.
    pub fn send(&self, bytes: Bytes) -> bool {
        self.tx.send(Frame::single(self.from, bytes)).is_ok()
    }

    /// Sends a coalesced batch buffer (the [`brb_core::wire::encode_batch`] layout) as
    /// **one** channel op; the receiver splits it back into messages. Returns `false` if
    /// the peer has shut down.
    pub fn send_batch(&self, bytes: Bytes) -> bool {
        self.tx.send(Frame::batched(self.from, bytes)).is_ok()
    }
}

/// Receiving half of a process's mailbox: all inbound links are multiplexed into a single
/// channel (the sender identity travels inside each [`Frame`]).
#[derive(Debug)]
pub struct Mailbox {
    rx: Receiver<Frame>,
}

impl Mailbox {
    /// The underlying receiver (for use in `select!` loops).
    pub fn receiver(&self) -> &Receiver<Frame> {
        &self.rx
    }
}

/// Builds the full mesh of authenticated links for a set of processes: one mailbox per
/// process and, for each directed pair `(from, to)` that must be connected, one
/// [`AuthenticatedSender`].
///
/// `edges` lists undirected adjacencies; both directions are created.
pub fn build_links(
    n: usize,
    edges: &[(ProcessId, ProcessId)],
) -> (Vec<Mailbox>, Vec<Vec<AuthenticatedSender>>) {
    let mut txs = Vec::with_capacity(n);
    let mut mailboxes = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded();
        txs.push(tx);
        mailboxes.push(Mailbox { rx });
    }
    let mut senders: Vec<Vec<AuthenticatedSender>> = (0..n).map(|_| Vec::new()).collect();
    for &(u, v) in edges {
        senders[u].push(AuthenticatedSender {
            from: u,
            to: v,
            tx: txs[v].clone(),
        });
        senders[v].push(AuthenticatedSender {
            from: v,
            to: u,
            tx: txs[u].clone(),
        });
    }
    for s in &mut senders {
        s.sort_by_key(|l| l.peer());
    }
    (mailboxes, senders)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_carry_the_link_identity() {
        let (mailboxes, senders) = build_links(3, &[(0, 1), (1, 2)]);
        // Process 0 sends to its only neighbor, process 1.
        assert_eq!(senders[0].len(), 1);
        assert_eq!(senders[0][0].peer(), 1);
        assert!(senders[0][0].send(Bytes::from_static(b"hello")));
        let frame = mailboxes[1].receiver().recv().unwrap();
        assert_eq!(frame.from, 0);
        assert_eq!(&frame.bytes[..], b"hello");
    }

    #[test]
    fn both_directions_exist() {
        let (mailboxes, senders) = build_links(2, &[(0, 1)]);
        assert!(senders[1][0].send(Bytes::from_static(b"x")));
        assert_eq!(mailboxes[0].receiver().recv().unwrap().from, 1);
    }

    #[test]
    fn senders_are_sorted_by_peer() {
        let (_mailboxes, senders) = build_links(4, &[(0, 3), (0, 1), (0, 2)]);
        let peers: Vec<_> = senders[0].iter().map(|s| s.peer()).collect();
        assert_eq!(peers, vec![1, 2, 3]);
    }

    #[test]
    fn send_to_dropped_mailbox_reports_failure() {
        let (mailboxes, senders) = build_links(2, &[(0, 1)]);
        drop(mailboxes);
        assert!(!senders[0][0].send(Bytes::from_static(b"y")));
    }
}
