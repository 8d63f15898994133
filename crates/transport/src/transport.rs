//! The [`Transport`] abstraction: send/receive encoded frames over authenticated links.
//!
//! A transport is what a [`crate::NodeDriver`] plugs its protocol engine into. The
//! inbound side is uniform across every backend of this workspace — a crossbeam
//! [`Receiver`] of authenticated [`Frame`]s (the channel deployment's mailbox feeds it
//! directly, the TCP deployment's per-socket reader threads feed it from the wire) — so
//! the trait only abstracts the *outbound* side, which is where the backends genuinely
//! differ and where the [`crate::policy`] decorators interpose faults and delays.

use brb_core::types::ProcessId;
use brb_core::wire::encode_batch_into;
use bytes::Bytes;
use crossbeam::channel::Receiver;

use crate::link::{AuthenticatedSender, Frame, Mailbox};

/// One outbound frame of a same-destination burst handed to [`Transport::send_batch`]:
/// the encoded message and its Table 3 wire size (per-frame byte accounting must stay
/// exact through batching and through every decorator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutFrame {
    /// The encoded message, ready for the link.
    pub frame: Bytes,
    /// Size of the message under the paper's Table 3 accounting.
    pub wire_size: usize,
}

impl OutFrame {
    /// Pairs an encoded frame with its accounted wire size.
    pub fn new(frame: Bytes, wire_size: usize) -> Self {
        Self { frame, wire_size }
    }
}

/// What a [`Transport::send_batch`] call actually put on the wire: the total copy count
/// across the burst's frames and the total accounted bytes (each transmitted copy
/// contributes its own frame's `wire_size`). Batching changes the op count, never the
/// accounting: a burst reports what sending its frames one at a time would.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SendReceipt {
    /// Number of frame copies put on the wire.
    pub copies: usize,
    /// Total Table 3 bytes across those copies.
    pub bytes: usize,
}

impl SendReceipt {
    /// Adds `copies` transmissions of a frame of `wire_size` bytes.
    pub fn record(&mut self, copies: usize, wire_size: usize) {
        self.copies += copies;
        self.bytes += copies * wire_size;
    }

    /// Merges another receipt into this one.
    pub fn merge(&mut self, other: SendReceipt) {
        self.copies += other.copies;
        self.bytes += other.bytes;
    }
}

/// An authenticated point-to-point transport between one process and its neighbors.
///
/// [`Transport::send_batch`] is the one send path every implementation writes. A
/// receipt's copy count is the number of frames actually put on the wire: one per frame
/// for a plain transport with a link to `to`, zero when no such link exists (the engine
/// addressed a non-neighbor, which the deployments tolerate silently), and any other
/// count when a [`crate::policy`] decorator drops or amplifies frames. Drivers take
/// the receipt's bytes as the paper's Table 3 accounting.
pub trait Transport: Send {
    /// The multiplexed inbound frame stream (every neighbor's traffic, tagged with the
    /// authenticated sender identity by trusted infrastructure).
    fn inbound(&self) -> &Receiver<Frame>;

    /// The neighbors this transport holds an outbound link to, in ascending order.
    /// Static for the lifetime of a deployment; decorators forward to the transport
    /// they wrap (asynchronous ones snapshot it at construction), so the accounting of
    /// [`Transport::send_batch`] stays exact through any decorator stack.
    fn peers(&self) -> Vec<ProcessId>;

    /// Transmits a burst of frames to the same neighbor, coalescing the burst into as
    /// few channel ops / syscalls as the backend allows.
    ///
    /// Semantics are **per-frame**: decorators apply loss, gating, behavior copies and
    /// delay sampling frame by frame in burst order, drawing from the same RNG streams
    /// in the same order as a run of one-frame bursts would, and the returned receipt
    /// reports the same copy/byte totals.
    fn send_batch(&mut self, to: ProcessId, frames: &[OutFrame]) -> SendReceipt;

    /// Transmits one encoded frame to `to` as a one-frame burst; returns how many
    /// copies were put on the wire. A shim over [`Transport::send_batch`], kept only for
    /// the out-of-workspace benchmark package, which overrides and calls it.
    fn send(&mut self, to: ProcessId, frame: &Bytes, wire_size: usize) -> usize {
        self.send_batch(to, &[OutFrame::new(frame.clone(), wire_size)])
            .copies
    }
}

impl Transport for Box<dyn Transport> {
    fn inbound(&self) -> &Receiver<Frame> {
        (**self).inbound()
    }

    fn peers(&self) -> Vec<ProcessId> {
        (**self).peers()
    }

    fn send_batch(&mut self, to: ProcessId, frames: &[OutFrame]) -> SendReceipt {
        (**self).send_batch(to, frames)
    }

    fn send(&mut self, to: ProcessId, frame: &Bytes, wire_size: usize) -> usize {
        (**self).send(to, frame, wire_size)
    }
}

/// The in-process transport: crossbeam-channel authenticated links
/// (see [`crate::link::build_links`]). This is the backend `brb-runtime` deploys on.
pub struct ChannelTransport {
    mailbox: Mailbox,
    links: Vec<AuthenticatedSender>,
    /// Reusable batch buffer of [`Transport::send_batch`]: a burst is written here in the
    /// batch layout and frozen with one allocation.
    staging: Vec<u8>,
}

impl ChannelTransport {
    /// Wraps one process's mailbox and outgoing links.
    pub fn new(mailbox: Mailbox, links: Vec<AuthenticatedSender>) -> Self {
        Self {
            mailbox,
            links,
            staging: Vec::new(),
        }
    }
}

impl Transport for ChannelTransport {
    fn inbound(&self) -> &Receiver<Frame> {
        self.mailbox.receiver()
    }

    fn peers(&self) -> Vec<ProcessId> {
        // build_links sorts each process's senders by peer.
        self.links.iter().map(|l| l.peer()).collect()
    }

    fn send_batch(&mut self, to: ProcessId, frames: &[OutFrame]) -> SendReceipt {
        let mut receipt = SendReceipt::default();
        let Some(link) = self.links.iter().find(|l| l.peer() == to) else {
            return receipt;
        };
        // A failed send means the peer has shut down, which the protocols tolerate; the
        // frames still count as transmitted (they left this process).
        match frames {
            [] => {}
            [only] => {
                let _ = link.send(only.frame.clone());
                receipt.record(1, only.wire_size);
            }
            burst => {
                // One channel op and one allocation for the whole burst: coalesce into
                // the length-prefixed batch framing; the receiving driver splits it back
                // into messages.
                encode_batch_into(burst.iter().map(|f| &f.frame[..]), &mut self.staging);
                let _ = link.send_batch(Bytes::copy_from_slice(&self.staging));
                for f in burst {
                    receipt.record(1, f.wire_size);
                }
            }
        }
        receipt
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::link::build_links;

    /// Sends `bytes` to `to` as a one-frame burst of wire size `bytes.len()`; returns
    /// the copies put on the wire.
    pub(crate) fn send_one(
        transport: &mut impl Transport,
        to: ProcessId,
        bytes: &'static [u8],
    ) -> usize {
        let frame = OutFrame::new(Bytes::from_static(bytes), bytes.len());
        transport.send_batch(to, &[frame]).copies
    }

    #[test]
    fn batched_send_accounts_identically_to_frame_at_a_time() {
        // The same frames as one-frame bursts and as one burst must report the same
        // copy and byte totals, and the receiver must see the same messages.
        let frames: Vec<OutFrame> = (0..5)
            .map(|i| {
                let payload: Vec<u8> = vec![i as u8; 3 + i];
                OutFrame::new(Bytes::from(payload), 100 + i)
            })
            .collect();

        let (mut mailboxes, mut senders) = build_links(2, &[(0, 1)]);
        let _sink = mailboxes.pop().unwrap();
        let mut unbatched = ChannelTransport::new(mailboxes.pop().unwrap(), senders.remove(0));
        let mut per_frame = SendReceipt::default();
        for f in &frames {
            per_frame.merge(unbatched.send_batch(1, std::slice::from_ref(f)));
        }

        let (mut mailboxes, mut senders) = build_links(2, &[(0, 1)]);
        let sink = mailboxes.pop().unwrap();
        let mut batched = ChannelTransport::new(mailboxes.pop().unwrap(), senders.remove(0));
        let receipt = batched.send_batch(1, &frames);

        assert_eq!(receipt, per_frame, "identical copy/byte accounting");
        assert_eq!(receipt.copies, 5);
        assert_eq!(receipt.bytes, (100..105).sum::<usize>());
        // The whole burst travelled as ONE channel op carrying the batch framing.
        let frame = sink.receiver().recv().unwrap();
        assert!(frame.batch, "burst arrives as a coalesced batch frame");
        let parts = brb_core::wire::split_batch(&frame.bytes).expect("valid batch framing");
        assert_eq!(parts.len(), 5);
        for (part, original) in parts.iter().zip(&frames) {
            assert_eq!(part, &original.frame);
        }
        assert!(sink.receiver().is_empty(), "exactly one channel op");
    }

    #[test]
    fn single_frame_and_empty_batches_avoid_the_batch_framing() {
        let (mut mailboxes, mut senders) = build_links(2, &[(0, 1)]);
        let sink = mailboxes.pop().unwrap();
        let mut t0 = ChannelTransport::new(mailboxes.pop().unwrap(), senders.remove(0));
        assert_eq!(t0.send_batch(1, &[]), SendReceipt::default());
        let one = [OutFrame::new(Bytes::from_static(b"solo"), 42)];
        let receipt = t0.send_batch(1, &one);
        assert_eq!(
            receipt,
            SendReceipt {
                copies: 1,
                bytes: 42
            }
        );
        let frame = sink.receiver().recv().unwrap();
        assert!(!frame.batch, "a one-frame burst travels as a plain frame");
        assert_eq!(&frame.bytes[..], b"solo");
        // A batch to a non-neighbor is silently accounted as zero.
        assert_eq!(t0.send_batch(9, &one), SendReceipt::default());
    }

    #[test]
    fn channel_transport_routes_by_peer() {
        let (mut mailboxes, mut senders) = build_links(3, &[(0, 1), (0, 2)]);
        let mailbox2 = mailboxes.pop().unwrap();
        let mut t0 = ChannelTransport::new(mailboxes.swap_remove(0), senders.swap_remove(0));
        assert_eq!(send_one(&mut t0, 2, b"to two"), 1);
        assert_eq!(send_one(&mut t0, 9, b"nobody"), 0);
        let frame = mailbox2.receiver().recv().unwrap();
        assert_eq!(frame.from, 0);
        assert_eq!(&frame.bytes[..], b"to two");
        assert!(t0.inbound().is_empty());
    }

    #[test]
    fn send_shim_is_a_one_frame_burst() {
        let (mut mailboxes, mut senders) = build_links(2, &[(0, 1)]);
        let sink = mailboxes.pop().unwrap();
        let mut t0: Box<dyn Transport> = Box::new(ChannelTransport::new(
            mailboxes.pop().unwrap(),
            senders.remove(0),
        ));
        assert_eq!(t0.send(1, &Bytes::from_static(b"shim"), 4), 1);
        assert_eq!(t0.send(9, &Bytes::from_static(b"nobody"), 6), 0);
        let frame = sink.receiver().recv().unwrap();
        assert!(!frame.batch);
        assert_eq!(&frame.bytes[..], b"shim");
        assert!(sink.receiver().is_empty());
    }
}
