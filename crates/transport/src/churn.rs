//! Live-backend replay of a [`ChurnSpec`]: the simulator's churn schedule on real links.
//!
//! The simulator interleaves compiled [`ChurnEvent`]s into its virtual-time heaps; the
//! live backends replay the *same* compiled schedule at wall-clock-scaled times. Three
//! pieces make the two sides agree:
//!
//! * [`ChurnHandle`] — one shared, thread-safe [`LinkState`] per deployment plus the
//!   compiled event list. Every node's decorated transport consults it at **send time**
//!   (exactly where the simulator consults its own copy), so a frame on a downed link is
//!   dropped before it enters the network while frames already in flight still arrive;
//! * [`ChurnLink`] — the outermost transport decorator: a synchronous gate that drops
//!   frames on downed links (not counted as sent, like the simulator) and applies the
//!   per-directed-link loss overrides. The per-link *delay* overrides ride on the
//!   [`crate::policy::DelayedLink`] delay line (built with the handle by
//!   [`crate::DriverOptions::decorate`]), which adds the scaled extra delay to each
//!   copy's own sampled delay — again matching the simulator's per-copy arithmetic;
//! * [`ChurnHandle::spawn_pacer`] — a detached scheduler thread that sleeps to each
//!   event's scaled deadline, mutates the shared link state, and routes
//!   [`ChurnAction::NodeRestart`] to the affected node's command channel as
//!   [`Command::Restart`] (the driver rebuilds its engine; see
//!   [`crate::NodeDriver::with_engine_factory`]).

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use brb_core::types::ProcessId;
use brb_sim::churn::{ChurnAction, ChurnEvent, ChurnSpec, LinkState};
use brb_trace::DropCause;
use crossbeam::channel::{Receiver, Sender};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::driver::Command;
use crate::link::Frame;
use crate::policy::LinkObserver;
use crate::transport::{OutFrame, SendReceipt, Transport};

/// The deployment-wide churn state every decorated transport consults.
#[derive(Debug)]
struct LiveChurn {
    /// The mutable link state, advanced by the pacer and read by every [`ChurnLink`].
    state: Mutex<LinkState>,
    /// The topology's undirected edge list (needed to expand a partition into its cut).
    edges: Vec<(ProcessId, ProcessId)>,
    /// The compiled schedule the pacer replays, in order.
    events: Vec<ChurnEvent>,
    /// Wall-clock seconds per virtual second (the same compression knob as
    /// [`crate::LinkDelay::Scaled`]): event times and delay overrides are multiplied
    /// by this factor.
    scale: f64,
}

/// Shared handle onto one deployment's churn schedule and its evolving link state.
///
/// Cheap to clone (an [`Arc`] inside); a deployment creates one from the scenario's
/// [`ChurnSpec`], installs it in [`crate::DriverOptions::with_churn`] so every node's
/// transport is gated by it, and spawns the pacer with the command senders.
#[derive(Debug, Clone)]
pub struct ChurnHandle {
    shared: Arc<LiveChurn>,
}

impl ChurnHandle {
    /// Compiles `spec` with `seed` (the same pure compilation the simulator uses, so
    /// both sides replay the identical event list) over the topology's undirected
    /// `edges`. `scale` converts virtual event times and delay overrides to wall-clock
    /// durations — `1.0` replays the schedule in real time.
    pub fn new(spec: &ChurnSpec, seed: u64, scale: f64, edges: &[(ProcessId, ProcessId)]) -> Self {
        Self {
            shared: Arc::new(LiveChurn {
                state: Mutex::new(LinkState::new()),
                edges: edges.to_vec(),
                events: spec.compile(seed),
                scale,
            }),
        }
    }

    /// The compiled schedule this handle replays.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.shared.events
    }

    /// Whether the schedule contains a [`ChurnAction::NodeRestart`] — deployments use
    /// this to decide whether the drivers need an engine factory.
    pub fn has_restarts(&self) -> bool {
        self.shared
            .events
            .iter()
            .any(|e| matches!(e.action, ChurnAction::NodeRestart { .. }))
    }

    /// Whether a frame `from -> to` may enter the network right now.
    pub fn allows(&self, from: ProcessId, to: ProcessId) -> bool {
        self.shared.state.lock().unwrap().allows(from, to)
    }

    /// The loss-probability override of the directed link `from -> to`, when set.
    pub fn loss_probability(&self, from: ProcessId, to: ProcessId) -> Option<f64> {
        self.shared.state.lock().unwrap().loss_probability(from, to)
    }

    /// The extra one-way delay of the directed link `from -> to` as a wall-clock
    /// duration (the virtual override scaled by the handle's scale factor; zero when no
    /// override is set).
    pub fn extra_delay(&self, from: ProcessId, to: ProcessId) -> Duration {
        let micros = self
            .shared
            .state
            .lock()
            .unwrap()
            .extra_delay_micros(from, to);
        if micros == 0 {
            Duration::ZERO
        } else {
            Duration::from_micros(micros).mul_f64(self.shared.scale)
        }
    }

    /// The directed links currently down (for assertions and diagnostics).
    pub fn down_links(&self) -> Vec<(ProcessId, ProcessId)> {
        self.shared.state.lock().unwrap().down_links()
    }

    /// Applies one action to the shared link state; returns the process to restart for
    /// [`ChurnAction::NodeRestart`] (which only the caller can carry out).
    pub fn apply(&self, action: &ChurnAction) -> Option<ProcessId> {
        self.shared
            .state
            .lock()
            .unwrap()
            .apply(action, &self.shared.edges)
    }

    /// Spawns the detached pacer thread: for each compiled event it sleeps until the
    /// event's scaled deadline (measured from the moment this method is called), applies
    /// the action to the shared link state, and sends [`Command::Restart`] on
    /// `commands[p]` for a restart of process `p`. Returns the join handle, which
    /// deployments may drop — the pacer exits once the schedule is exhausted.
    pub fn spawn_pacer(&self, commands: Vec<Sender<Command>>) -> std::thread::JoinHandle<()> {
        let handle = self.clone();
        std::thread::spawn(move || {
            let start = Instant::now();
            for event in handle.shared.events.clone() {
                let due =
                    start + Duration::from_micros(event.at_micros).mul_f64(handle.shared.scale);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                if let Some(process) = handle.apply(&event.action) {
                    if let Some(tx) = commands.get(process) {
                        let _ = tx.send(Command::Restart);
                    }
                }
            }
        })
    }
}

/// The outermost link decorator of a churned deployment: consults the shared
/// [`ChurnHandle`] per outbound frame, exactly like the simulator consults its
/// [`LinkState`] per `Send` action.
///
/// A frame on a downed link is dropped *before* any inner decorator sees it — it is not
/// counted as sent, does not advance a [`crate::FaultyLink`]'s attempt counter and never
/// enters a delay line, mirroring the simulator's ordering (churn gate, then loss
/// override, then behavior, then delay). Loss overrides draw from this decorator's own
/// seeded RNG stream, so enabling churn does not shift any other decorator's draws.
pub struct ChurnLink<T> {
    inner: T,
    handle: ChurnHandle,
    rng: StdRng,
    /// The sending process (the `from` side of every gating decision) and its drop
    /// accounting ([`DropCause::ChurnGate`] / `Loss`).
    observer: LinkObserver,
    /// The frames of one burst that pass the gate, reused across bursts.
    surviving: Vec<OutFrame>,
}

impl<T: Transport> ChurnLink<T> {
    /// Wraps `inner` as the outbound gate of the process `observer` names, which also
    /// takes the gate's drops; `seed` fixes the loss-override draws.
    pub fn new(inner: T, handle: ChurnHandle, seed: u64, observer: LinkObserver) -> Self {
        Self {
            inner,
            handle,
            rng: StdRng::seed_from_u64(seed),
            observer,
            surviving: Vec::new(),
        }
    }
}

impl<T: Transport> Transport for ChurnLink<T> {
    fn inbound(&self) -> &Receiver<Frame> {
        self.inner.inbound()
    }

    fn peers(&self) -> Vec<ProcessId> {
        self.inner.peers()
    }

    fn send_batch(&mut self, to: ProcessId, frames: &[OutFrame]) -> SendReceipt {
        // The gate is consulted and the loss override drawn for each frame in burst
        // order; only the survivors travel on, still as one batch.
        let from = self.observer.node;
        for f in frames {
            let cause = if !self.handle.allows(from, to) {
                DropCause::ChurnGate
            } else if self
                .handle
                .loss_probability(from, to)
                .is_some_and(|p| self.rng.gen_bool(p))
            {
                DropCause::Loss
            } else {
                self.surviving.push(f.clone());
                continue;
            };
            self.observer.frame_dropped(to, cause);
        }
        if self.surviving.is_empty() {
            return SendReceipt::default();
        }
        let receipt = self.inner.send_batch(to, &self.surviving);
        self.surviving.clear();
        receipt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::build_links;
    use crate::transport::tests::send_one;
    use crate::transport::ChannelTransport;

    fn pair() -> (ChannelTransport, ChannelTransport) {
        let (mut mailboxes, mut senders) = build_links(2, &[(0, 1)]);
        let t1 = ChannelTransport::new(mailboxes.pop().unwrap(), senders.pop().unwrap());
        let t0 = ChannelTransport::new(mailboxes.pop().unwrap(), senders.pop().unwrap());
        (t0, t1)
    }

    #[test]
    fn churn_link_drops_frames_on_downed_links_without_counting_them() {
        let (t0, t1) = pair();
        let handle = ChurnHandle::new(&ChurnSpec::new(), 1, 1.0, &[(0, 1)]);
        let mut link = ChurnLink::new(t0, handle.clone(), 1, LinkObserver::detached(0));
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
        let mut link = ChurnLink::new(t0, handle, 7, LinkObserver::detached(0));
        let sent: usize = (0..1000).map(|_| send_one(&mut link, 1, b"x")).sum();
        assert!((300..700).contains(&sent), "sent {sent} of 1000");
        assert_eq!(t1.inbound().len(), sent);
    }

    #[test]
    fn pacer_replays_the_schedule_and_routes_restarts() {
        let spec = ChurnSpec::new()
            .at(0, ChurnAction::LinkDown { a: 0, b: 1 })
            .at(20_000, ChurnAction::NodeRestart { process: 1 })
            .at(40_000, ChurnAction::LinkUp { a: 0, b: 1 });
        let handle = ChurnHandle::new(&spec, 9, 1.0, &[(0, 1)]);
        assert!(handle.has_restarts());
        assert_eq!(handle.events().len(), 3);
        let (tx0, _rx0) = crossbeam::channel::unbounded();
        let (tx1, rx1) = crossbeam::channel::unbounded();
        let pacer = handle.spawn_pacer(vec![tx0, tx1]);
        pacer.join().unwrap();
        assert!(
            matches!(rx1.try_recv(), Ok(Command::Restart)),
            "the restart event reaches node 1's command channel"
        );
        assert!(handle.allows(0, 1), "the final LinkUp restored the link");
        assert!(handle.down_links().is_empty());
    }

    #[test]
    fn extra_delay_is_scaled_and_asymmetric() {
        let handle = ChurnHandle::new(&ChurnSpec::new(), 1, 0.5, &[(0, 1)]);
        handle.apply(&ChurnAction::SetLinkDelay {
            from: 0,
            to: 1,
            extra_micros: 100_000,
        });
        assert_eq!(handle.extra_delay(0, 1), Duration::from_millis(50));
        assert_eq!(handle.extra_delay(1, 0), Duration::ZERO, "asymmetric");
    }
}
