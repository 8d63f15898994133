//! The live link decorators: the simulator's scenario vocabulary on live transports.
//!
//! The discrete-event simulator (`brb-sim`) runs the paper's evaluation scenarios —
//! Byzantine [`Behavior`]s on chosen processes (Sec. 3's drop / duplicate / amplify
//! adversaries), churn schedules and the Sec. 7.1 delay regimes ([`DelayModel`]). Two
//! [`Transport`] decorators run the same scenarios on the live backends:
//!
//! * [`FaultyLink`] decides each outbound frame's fate with [`fate::outbound`], the very
//!   function the simulator calls per message: the churn gate and the per-link loss
//!   override of a [`ChurnHandle`], then the behavior's copy count (0 drops, 2 replays,
//!   `n` floods), all drawn from one RNG stream in the simulator's order. It counts
//!   each drop by cause and emits one `FrameSent` per copy the layers below accepted;
//! * [`DelayedLink`] applies a per-frame transmission delay through a background *delay
//!   line*: a [`DelayModel`] sampled per copy and scaled to wall-clock time —
//!   `Scaled { model, scale }` with `scale = 1.0` replays the paper's 50 ms / 50 ± 50 ms
//!   regimes in real time, without blocking the sending node (delays act on the links in
//!   parallel, as in the simulator). A wall-clock delay line is the one part of a
//!   frame's fate that only exists live.
//!
//! [`crate::DriverOptions::decorate`] is the one place that composes them, in the
//! simulator's frame-fate order (the fate outside the delay line, so dropped frames
//! incur no delay and amplified copies are delayed independently).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use brb_core::types::ProcessId;
use brb_sim::{fate, Behavior, DelayModel};
use brb_trace::{DropCause, NodeCounters, TraceEventKind, Tracer};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::churn::ChurnHandle;
use crate::link::Frame;
use crate::transport::{OutFrame, SendReceipt, Transport};

/// Observability handles threaded through one node's link decorators: the always-on
/// counter registry (drop accounting by cause, delay-line occupancy peaks) plus the
/// node's structured tracer (disabled unless the deployment attached a sink).
///
/// Cheap to clone — an [`Arc`] and a [`Tracer`] handle — so every decorator in a
/// node's stack shares the same registry.
#[derive(Debug, Clone)]
pub struct LinkObserver {
    /// The observed node: the sending process of every decorator it is handed to.
    pub(crate) node: ProcessId,
    counters: Arc<NodeCounters>,
    tracer: Tracer,
}

impl LinkObserver {
    /// Binds the observer for `node` to a shared counter registry and tracer.
    pub fn new(node: ProcessId, counters: Arc<NodeCounters>, tracer: Tracer) -> Self {
        Self {
            node,
            counters,
            tracer,
        }
    }

    /// A free-standing observer for `node`: fresh counters, tracing disabled (for a
    /// decorator built outside a [`crate::NodeDriver`]).
    pub fn detached(node: ProcessId) -> Self {
        Self::new(node, Arc::new(NodeCounters::default()), Tracer::disabled())
    }

    /// The shared counter registry.
    pub fn counters(&self) -> &Arc<NodeCounters> {
        &self.counters
    }

    /// Records one dropped frame: bumps the per-cause counter and emits a
    /// [`TraceEventKind::FrameDropped`] when tracing is attached.
    pub fn frame_dropped(&self, to: ProcessId, cause: DropCause) {
        self.counters.record_drop(cause);
        self.tracer
            .emit_frame(self.node, TraceEventKind::FrameDropped { to, cause });
    }

    /// Records the delay line's current occupancy (peak-tracked; also emitted as a
    /// [`TraceEventKind::QueueDepth`] event when tracing is attached).
    pub fn queue_depth(&self, depth: usize) {
        self.counters.note_queue_depth(depth as u64);
        self.tracer
            .emit_frame(self.node, TraceEventKind::QueueDepth { depth });
    }

    /// Emits one [`TraceEventKind::FrameSent`] per copy the link below accepted, with
    /// that copy's wire size, when tracing is attached. A node's `FrameSent` events
    /// therefore add up to its `NodeReport::messages_sent` / `bytes_sent` through any
    /// behavior.
    fn frames_sent<'a>(&self, to: ProcessId, copies: impl Iterator<Item = &'a OutFrame>) {
        if self.tracer.is_enabled() {
            for copy in copies {
                self.tracer.emit_frame(
                    self.node,
                    TraceEventKind::FrameSent {
                        to,
                        bytes: copy.wire_size,
                    },
                );
            }
        }
    }
}

/// Per-frame transmission delay applied by a [`DelayedLink`].
#[derive(Debug, Clone, PartialEq, Default)]
pub enum LinkDelay {
    /// Transmit immediately (the usual setting for tests).
    #[default]
    None,
    /// Sample a [`DelayModel`] per transmitted copy and sleep for the sampled virtual
    /// duration multiplied by `scale` — `1.0` replays the paper's regimes in real time,
    /// smaller factors compress them so CI-sized runs stay fast while keeping the
    /// *shape* of the delay distribution.
    Scaled {
        /// The simulator delay model to sample.
        model: DelayModel,
        /// Wall-clock scale factor applied to each sampled delay.
        scale: f64,
    },
}

impl LinkDelay {
    /// Whether this delay ever sleeps.
    pub fn is_none(&self) -> bool {
        matches!(self, LinkDelay::None)
    }
}

/// The live frame-fate decorator: decides per outbound frame, with [`fate::outbound`],
/// whether the churn gate, a loss override or the process's [`Behavior`] drops it and
/// how many copies reach the inner transport, in the order and with the draws the
/// simulator makes per message. It also reports each drop and each accepted copy
/// (`FrameSent`) to its [`LinkObserver`].
pub struct FaultyLink<T> {
    inner: T,
    behavior: Behavior,
    /// When the deployment runs a churn schedule: the shared link state that gates
    /// frames and holds the per-link loss overrides.
    churn: Option<ChurnHandle>,
    /// Frames that reached the behavior so far (the `attempted` counter of
    /// [`fate::outbound`], driving [`Behavior::FailsAfter`]).
    attempted: usize,
    /// The one stream of the loss-override and behavior draws.
    rng: StdRng,
    /// The sending process (the `from` of every gating decision), its drop accounting
    /// and its `FrameSent` tap.
    observer: LinkObserver,
    /// The copies of one burst that go on, reused across bursts.
    surviving: Vec<OutFrame>,
}

impl<T: Transport> FaultyLink<T> {
    /// Wraps `inner` with the given behavior; `seed` fixes the drop/copy decisions.
    /// Drops are counted on a detached observer of process 0 until
    /// [`FaultyLink::with_observer`] names the node.
    pub fn new(inner: T, behavior: Behavior, seed: u64) -> Self {
        Self {
            inner,
            behavior,
            churn: None,
            attempted: 0,
            rng: StdRng::seed_from_u64(seed),
            observer: LinkObserver::detached(0),
            surviving: Vec::new(),
        }
    }

    /// Reports this link's drops and sent copies to `observer`, whose node is the
    /// sending process.
    #[must_use]
    pub fn with_observer(mut self, observer: LinkObserver) -> Self {
        self.observer = observer;
        self
    }

    /// Gates this link's frames by the churn schedule behind `handle`: downed links and
    /// per-link loss overrides drop frames before the behavior sees them.
    #[must_use]
    pub fn with_churn(mut self, handle: ChurnHandle) -> Self {
        self.churn = Some(handle);
        self
    }
}

impl<T: Transport> Transport for FaultyLink<T> {
    fn inbound(&self) -> &Receiver<Frame> {
        self.inner.inbound()
    }

    fn peers(&self) -> Vec<ProcessId> {
        self.inner.peers()
    }

    fn send_batch(&mut self, to: ProcessId, frames: &[OutFrame]) -> SendReceipt {
        // The layers below take or refuse a burst whole (a destination has a link or not),
        // so the copies sent are the burst's first `receipt.copies`.
        if self.churn.is_none() && !self.behavior.is_byzantine() {
            // Every frame's fate is one copy: the burst goes on untouched.
            let receipt = self.inner.send_batch(to, frames);
            self.observer
                .frames_sent(to, frames.iter().take(receipt.copies));
            return receipt;
        }
        // Each frame meets its fate in burst order, dropped frames leave the burst,
        // amplified frames contribute extra copies, and the surviving copies go down as
        // one batch.
        let from = self.observer.node;
        for f in frames {
            // The shared link state stays locked for this one call.
            let fate = fate::outbound(
                self.churn.as_ref().map(ChurnHandle::link_state).as_deref(),
                &self.behavior,
                &mut self.attempted,
                from,
                to,
                &mut self.rng,
            );
            match fate {
                Ok(copies) => self
                    .surviving
                    .extend(std::iter::repeat_n(f, copies).cloned()),
                Err(cause) => self.observer.frame_dropped(to, cause),
            }
        }
        if self.surviving.is_empty() {
            return SendReceipt::default();
        }
        let receipt = self.inner.send_batch(to, &self.surviving);
        self.observer
            .frames_sent(to, self.surviving.iter().take(receipt.copies));
        self.surviving.clear();
        receipt
    }
}

/// Per-frame transmission delay: a *delay line*. Each outbound frame is stamped with a
/// deadline sampled from the [`LinkDelay`] and handed to a background forwarder thread
/// that owns the inner transport and transmits the frame once its deadline passes.
///
/// Delaying this way keeps the node's event loop free — like the simulator, where a
/// message in flight does not stop its sender from processing the next event — so a
/// wall-clock [`LinkDelay::Scaled`] regime measures *network* delay, not an artificial
/// serialization of the node's outbound frames. The forwarder holds queued frames in a
/// deadline-ordered priority queue and transmits each one when *its own* deadline
/// passes, so with jittered models a frame sampled short overtakes an earlier frame
/// sampled long — the reordering the paper's asynchronous regime is about, and exactly
/// what the simulator's event queue does. Frames sharing a deadline keep their enqueue
/// order. Frames still queued when the node shuts down are transmitted at their
/// deadlines before the forwarder exits, unless the whole deployment is being torn down.
pub struct DelayedLink {
    /// Clone of the inner transport's inbound stream (the inner transport itself moves
    /// into the forwarder thread).
    inbound: Receiver<Frame>,
    /// Snapshot of the inner transport's peer set, so `send_batch` can report the copy
    /// count exactly (the forwarder's own receipt arrives too late to count).
    peers: Vec<ProcessId>,
    line: Sender<Queued>,
    delay: LinkDelay,
    rng: StdRng,
    /// Monotone enqueue counter: the stable tie-break for frames due at the same
    /// instant, so equal-deadline frames transmit in send order.
    next_seq: u64,
    /// When the deployment runs a churn schedule: the shared handle, consulted per frame
    /// for the per-directed-link delay override (added on top of the sampled delay,
    /// exactly like the simulator adds the override to each copy's sampled delay).
    churn: Option<ChurnHandle>,
    /// The sending process and its drop accounting for non-neighbor sends
    /// ([`DropCause::NonNeighbor`]); the forwarder thread holds its own clone for the
    /// occupancy peaks.
    observer: LinkObserver,
}

/// One frame in flight on the delay line, ordered by `(due, seq)`.
#[derive(Debug)]
struct Queued {
    due: Instant,
    seq: u64,
    to: ProcessId,
    frame: OutFrame,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}

impl Eq for Queued {}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl DelayedLink {
    /// Wraps `inner` in a delay line for the process `observer` names, which also takes
    /// the line's non-neighbor drops and occupancy peaks. `seed` fixes the jitter stream
    /// (the driver uses `options.seed + process id`). With a churn `handle`, each frame
    /// additionally incurs the schedule's per-directed-link delay override (scaled to
    /// wall-clock time by the handle) on top of its sampled delay; with
    /// [`LinkDelay::None`] the line then carries *only* the overrides.
    pub fn new<T: Transport + 'static>(
        mut inner: T,
        delay: LinkDelay,
        seed: u64,
        churn: Option<ChurnHandle>,
        observer: LinkObserver,
    ) -> Self {
        let inbound = inner.inbound().clone();
        let peers = inner.peers();
        let (line, queue) = unbounded::<Queued>();
        let line_observer = observer.clone();
        std::thread::spawn(move || {
            // Earliest deadline first, enqueue order on ties; the forwarder sleeps only
            // until the *earliest* pending deadline, so a short-sampled frame never
            // waits behind a long-sampled one that entered the line before it.
            let mut pending: BinaryHeap<Reverse<Queued>> = BinaryHeap::new();
            // Peak occupancy of the line: measured on every enqueue, where the heap is
            // at its largest.
            let enqueue = |pending: &mut BinaryHeap<Reverse<Queued>>, item: Queued| {
                pending.push(Reverse(item));
                line_observer.queue_depth(pending.len());
            };
            loop {
                match pending.peek() {
                    Some(Reverse(next)) => {
                        let now = Instant::now();
                        if next.due <= now {
                            let Reverse(item) = pending.pop().expect("peeked item exists");
                            inner.send_batch(item.to, std::slice::from_ref(&item.frame));
                            continue;
                        }
                        match queue.recv_timeout(next.due - now) {
                            Ok(item) => enqueue(&mut pending, item),
                            Err(RecvTimeoutError::Timeout) => {}
                            Err(RecvTimeoutError::Disconnected) => break,
                        }
                    }
                    None => match queue.recv() {
                        Ok(item) => enqueue(&mut pending, item),
                        Err(_) => break,
                    },
                }
            }
            // The node dropped its handle: flush what is still in flight, each frame at
            // its own deadline.
            while let Some(Reverse(item)) = pending.pop() {
                let now = Instant::now();
                if item.due > now {
                    std::thread::sleep(item.due - now);
                }
                inner.send_batch(item.to, std::slice::from_ref(&item.frame));
            }
        });
        Self {
            inbound,
            peers,
            line,
            delay,
            rng: StdRng::seed_from_u64(seed),
            next_seq: 0,
            churn,
            observer,
        }
    }

    /// Samples one transmission delay.
    fn sample(&mut self) -> Duration {
        match &self.delay {
            LinkDelay::None => Duration::ZERO,
            LinkDelay::Scaled { model, scale } => {
                let sampled = model.sample(&mut self.rng);
                Duration::from_micros(sampled.as_micros()).mul_f64(*scale)
            }
        }
    }
}

impl Transport for DelayedLink {
    fn inbound(&self) -> &Receiver<Frame> {
        &self.inbound
    }

    fn peers(&self) -> Vec<ProcessId> {
        self.peers.clone()
    }

    fn send_batch(&mut self, to: ProcessId, frames: &[OutFrame]) -> SendReceipt {
        let mut receipt = SendReceipt::default();
        // Frames to non-neighbors are dropped (and not counted) here rather than in the
        // forwarder, whose receipt would arrive too late for the accounting — so a
        // delayed transport reports the same copy counts as an undelayed one.
        if !self.peers.contains(&to) {
            for _ in frames {
                self.observer.frame_dropped(to, DropCause::NonNeighbor);
            }
            return receipt;
        }
        // Each frame samples its own deadline, in burst order.
        for f in frames {
            let extra = match &self.churn {
                Some(handle) => handle.extra_delay(self.observer.node, to),
                None => Duration::ZERO,
            };
            let item = Queued {
                due: Instant::now() + self.sample() + extra,
                seq: self.next_seq,
                to,
                frame: f.clone(),
            };
            self.next_seq += 1;
            if self.line.send(item).is_ok() {
                receipt.record(1, f.wire_size);
            }
        }
        receipt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnHandle;
    use crate::link::build_links;
    use crate::transport::tests::send_one;
    use crate::transport::ChannelTransport;
    use crate::DriverOptions;
    use brb_sim::churn::{ChurnAction, ChurnSpec};
    use bytes::Bytes;

    fn pair() -> (ChannelTransport, ChannelTransport) {
        let (mut mailboxes, mut senders) = build_links(2, &[(0, 1)]);
        let t1 = ChannelTransport::new(mailboxes.pop().unwrap(), senders.pop().unwrap());
        let t0 = ChannelTransport::new(mailboxes.pop().unwrap(), senders.pop().unwrap());
        (t0, t1)
    }

    /// Every message waiting in `t`'s mailbox, batches split into their messages.
    fn received(t: &ChannelTransport) -> Vec<Bytes> {
        let mut messages = Vec::new();
        while let Ok(frame) = t.inbound().try_recv() {
            if frame.batch {
                messages.extend(brb_core::wire::split_batch(&frame.bytes).expect("valid batch"));
            } else {
                messages.push(frame.bytes);
            }
        }
        messages
    }

    #[test]
    fn faulty_link_batch_matches_frame_at_a_time_accounting() {
        // Same behavior, same seed: one burst must draw the exact per-frame decisions a
        // run of one-frame bursts draws, so receipts and the surviving message
        // sequences are identical.
        let frames: Vec<OutFrame> = (0..16)
            .map(|i| OutFrame::new(Bytes::from(vec![i as u8; 4]), 50 + i as usize))
            .collect();
        for behavior in [
            Behavior::Lossy(0.5),
            Behavior::Replayer,
            Behavior::FailsAfter(7),
            Behavior::Crash,
            Behavior::SilentTowards(vec![1]),
        ] {
            let (t0, t1) = pair();
            let mut reference = FaultyLink::new(t0, behavior.clone(), 99);
            let mut per_frame = SendReceipt::default();
            for f in &frames {
                per_frame.merge(reference.send_batch(1, std::slice::from_ref(f)));
            }
            let survived_ref = received(&t1);

            let (t0, t1) = pair();
            let mut batched = FaultyLink::new(t0, behavior.clone(), 99);
            let receipt = batched.send_batch(1, &frames);
            let survived = received(&t1);
            assert_eq!(receipt, per_frame, "{behavior:?} receipt identity");
            assert_eq!(survived, survived_ref, "{behavior:?} surviving frames");
        }
    }

    #[test]
    fn faulty_link_with_crash_sends_nothing() {
        let (t0, t1) = pair();
        let mut faulty = FaultyLink::new(t0, Behavior::Crash, 1);
        assert_eq!(send_one(&mut faulty, 1, b"x"), 0);
        assert!(t1.inbound().is_empty());
    }

    #[test]
    fn faulty_link_with_replayer_duplicates_frames() {
        let (t0, t1) = pair();
        let mut faulty = FaultyLink::new(t0, Behavior::Replayer, 1);
        assert_eq!(send_one(&mut faulty, 1, b"x"), 2);
        assert_eq!(received(&t1), vec![Bytes::from_static(b"x"); 2]);
    }

    #[test]
    fn faulty_link_fails_after_the_configured_count() {
        let (t0, t1) = pair();
        let mut faulty = FaultyLink::new(t0, Behavior::FailsAfter(2), 1);
        assert_eq!(send_one(&mut faulty, 1, b"a"), 1);
        assert_eq!(send_one(&mut faulty, 1, b"b"), 1);
        assert_eq!(send_one(&mut faulty, 1, b"c"), 0);
        assert_eq!(t1.inbound().len(), 2);
    }

    #[test]
    fn silent_towards_drops_only_the_victims() {
        let (mut mailboxes, mut senders) = build_links(3, &[(0, 1), (0, 2)]);
        let mailbox2 = mailboxes.pop().unwrap();
        let mailbox1 = mailboxes.pop().unwrap();
        let t0 = ChannelTransport::new(mailboxes.pop().unwrap(), senders.swap_remove(0));
        let mut faulty = FaultyLink::new(t0, Behavior::SilentTowards(vec![1]), 1);
        assert_eq!(send_one(&mut faulty, 1, b"x"), 0);
        assert_eq!(send_one(&mut faulty, 2, b"y"), 1);
        assert!(mailbox1.receiver().is_empty());
        assert_eq!(mailbox2.receiver().len(), 1);
    }

    #[test]
    fn lossy_link_drops_roughly_the_requested_fraction() {
        let (t0, t1) = pair();
        let mut faulty = FaultyLink::new(t0, Behavior::Lossy(0.5), 7);
        let sent: usize = (0..1000).map(|_| send_one(&mut faulty, 1, b"x")).sum();
        assert!((300..700).contains(&sent), "sent {sent} of 1000");
        assert_eq!(t1.inbound().len(), sent);
    }

    #[test]
    fn faulty_link_drops_frames_on_downed_links_without_counting_them() {
        let (t0, t1) = pair();
        let handle = ChurnHandle::new(&ChurnSpec::new(), 1, 1.0, &[(0, 1)]);
        let mut link = FaultyLink::new(t0, Behavior::Correct, 1).with_churn(handle.clone());
        assert_eq!(send_one(&mut link, 1, b"up"), 1);
        handle.apply(&ChurnAction::LinkDown { a: 0, b: 1 });
        assert_eq!(send_one(&mut link, 1, b"down"), 0);
        handle.apply(&ChurnAction::LinkUp { a: 0, b: 1 });
        assert_eq!(send_one(&mut link, 1, b"back"), 1);
        let mut frames: Vec<Frame> = Vec::new();
        while let Ok(frame) = t1.inbound().try_recv() {
            frames.push(frame);
        }
        assert_eq!(frames.len(), 2, "the downed-link frame never transmitted");
        assert_eq!(frames[0].bytes.as_ref(), b"up");
        assert_eq!(frames[1].bytes.as_ref(), b"back");
    }

    #[test]
    fn loss_override_drops_roughly_the_requested_fraction() {
        let (t0, t1) = pair();
        let handle = ChurnHandle::new(&ChurnSpec::new(), 1, 1.0, &[(0, 1)]);
        handle.apply(&ChurnAction::SetLinkLoss {
            from: 0,
            to: 1,
            probability: 0.5,
        });
        let mut link = FaultyLink::new(t0, Behavior::Correct, 7).with_churn(handle);
        let sent: usize = (0..1000).map(|_| send_one(&mut link, 1, b"x")).sum();
        assert!((300..700).contains(&sent), "sent {sent} of 1000");
        assert_eq!(t1.inbound().len(), sent);
    }

    #[test]
    fn scaled_delay_model_delays_frames_without_blocking_the_sender() {
        // 100 ms constant and 100-140 ms uniform virtual delays at scale 0.2 => at least
        // 20 ms wall-clock per frame.
        for model in [
            DelayModel::Constant { micros: 100_000 },
            DelayModel::Uniform {
                min_micros: 100_000,
                max_micros: 140_000,
            },
        ] {
            let (t0, t1) = pair();
            let delay = LinkDelay::Scaled { model, scale: 0.2 };
            let mut delayed = DelayedLink::new(t0, delay, 3, None, LinkObserver::detached(0));
            let start = Instant::now();
            for _ in 0..3 {
                assert_eq!(send_one(&mut delayed, 1, b"x"), 1);
            }
            assert!(
                start.elapsed() < Duration::from_millis(20),
                "{model:?}: the delay line must not block the sender"
            );
            for _ in 0..3 {
                t1.inbound().recv_timeout(Duration::from_secs(5)).unwrap();
                assert!(
                    start.elapsed() >= Duration::from_millis(20),
                    "{model:?}: frames arrive no earlier than their sampled delay"
                );
            }
        }
    }

    #[test]
    fn delay_line_does_not_count_frames_to_non_neighbors() {
        let (t0, t1) = pair();
        let delay = LinkDelay::Scaled {
            model: DelayModel::Constant { micros: 100 },
            scale: 1.0,
        };
        let mut delayed = DelayedLink::new(t0, delay, 3, None, LinkObserver::detached(0));
        assert_eq!(delayed.peers(), vec![1]);
        // Same accounting as the undelayed transport: a non-neighbor send is 0 copies.
        assert_eq!(send_one(&mut delayed, 9, b"nobody"), 0);
        assert_eq!(send_one(&mut delayed, 1, b"neighbor"), 1);
        assert_eq!(
            t1.inbound()
                .recv_timeout(Duration::from_secs(5))
                .unwrap()
                .from,
            0
        );
        assert!(t1.inbound().is_empty());
    }

    #[test]
    fn delay_line_reorders_by_deadline_not_enqueue_order() {
        let (t0, t1) = pair();
        let delayed = DelayedLink::new(t0, LinkDelay::None, 1, None, LinkObserver::detached(0));
        // Feed the line directly with explicit deadlines: a frame enqueued *first* with
        // a long delay must be overtaken by a later frame with a short delay.
        let now = Instant::now();
        delayed
            .line
            .send(Queued {
                due: now + Duration::from_millis(150),
                seq: 0,
                to: 1,
                frame: OutFrame::new(Bytes::from_static(b"slow"), 4),
            })
            .unwrap();
        delayed
            .line
            .send(Queued {
                due: now + Duration::from_millis(20),
                seq: 1,
                to: 1,
                frame: OutFrame::new(Bytes::from_static(b"fast"), 4),
            })
            .unwrap();
        let first = t1.inbound().recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            first.bytes.as_ref(),
            b"fast",
            "the short-deadline frame overtakes the earlier long one"
        );
        let second = t1.inbound().recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(second.bytes.as_ref(), b"slow");
    }

    #[test]
    fn queued_frames_order_by_deadline_then_enqueue_seq() {
        let base = Instant::now();
        let item = |due: Instant, seq: u64| Queued {
            due,
            seq,
            to: 1,
            frame: OutFrame::new(Bytes::from_static(b"x"), 1),
        };
        let early = base + Duration::from_millis(10);
        let late = base + Duration::from_millis(50);
        assert!(item(early, 9) < item(late, 0), "the deadline dominates");
        assert!(
            item(early, 0) < item(early, 1),
            "equal deadlines fall back to enqueue order"
        );
    }

    #[test]
    fn policy_composition_drops_before_delaying() {
        let (t0, _t1) = pair();
        let options = DriverOptions::default()
            .with_behaviors(vec![(0, Behavior::Crash)])
            .with_link_delay(LinkDelay::Scaled {
                model: DelayModel::Constant { micros: 500_000 },
                scale: 1.0,
            });
        let mut decorated = options.decorate(0, Box::new(t0), LinkObserver::detached(0));
        // A dropped frame must not pay the 500 ms delay: the behavior sits outside.
        let start = std::time::Instant::now();
        assert_eq!(send_one(&mut decorated, 1, b"x"), 0);
        assert!(start.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn correct_policy_adds_no_decorators_but_still_routes() {
        let (t0, t1) = pair();
        let mut decorated =
            DriverOptions::default().decorate(0, Box::new(t0), LinkObserver::detached(0));
        assert_eq!(send_one(&mut decorated, 1, b"plain"), 1);
        assert_eq!(t1.inbound().recv().unwrap().from, 0);
    }

    #[test]
    fn churn_gate_sits_outside_the_behavior() {
        // Link 0 -> 1 is down and process 0 fails after two frames. The frames sent
        // while the link is down are churn-gate drops that never reach the behavior, so
        // its attempt counter starts at the heal: the first two frames after it arrive.
        let (t0, t1) = pair();
        let handle = ChurnHandle::new(&ChurnSpec::new(), 1, 1.0, &[(0, 1)]);
        let options = DriverOptions::default()
            .with_behaviors(vec![(0, Behavior::FailsAfter(2))])
            .with_churn(handle.clone());
        let observer = LinkObserver::detached(0);
        let counters = observer.counters().clone();
        let mut decorated = options.decorate(0, Box::new(t0), observer);
        handle.apply(&ChurnAction::LinkDown { a: 0, b: 1 });
        for _ in 0..3 {
            assert_eq!(send_one(&mut decorated, 1, b"down"), 0);
        }
        assert_eq!(counters.drops().get(DropCause::ChurnGate), 3);
        assert_eq!(counters.drops().get(DropCause::Behavior), 0);
        handle.apply(&ChurnAction::LinkUp { a: 0, b: 1 });
        assert_eq!(send_one(&mut decorated, 1, b"a"), 1);
        assert_eq!(send_one(&mut decorated, 1, b"b"), 1);
        assert_eq!(send_one(&mut decorated, 1, b"c"), 0);
        assert_eq!(counters.drops().get(DropCause::Behavior), 1);
        for expected in [b"a", b"b"] {
            let frame = t1.inbound().recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(frame.bytes.as_ref(), expected);
        }
        assert!(t1
            .inbound()
            .recv_timeout(Duration::from_millis(50))
            .is_err());
    }
}
