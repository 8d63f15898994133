//! Live-backend replay of a [`ChurnSpec`]: the simulator's churn schedule on real links.
//!
//! The simulator interleaves compiled [`ChurnEvent`]s into its virtual-time heaps; the
//! live backends replay the *same* compiled schedule at wall-clock-scaled times. Two
//! pieces here and two decorators make the two sides agree:
//!
//! * [`ChurnHandle`] — one shared, thread-safe [`LinkState`] per deployment plus the
//!   compiled event list. Every node's [`crate::FaultyLink`] passes it, locked once per
//!   frame, to `brb_sim::fate::outbound`, the send-time decision the simulator makes per
//!   message: a frame on a downed link is dropped before it enters the network (not
//!   counted as sent), a per-link loss override draws from the node's one RNG stream,
//!   and frames already in flight still arrive. The per-link *delay* overrides ride on
//!   the [`crate::policy::DelayedLink`] delay line (built with the handle by
//!   [`crate::DriverOptions::decorate`]), which adds the scaled extra delay to each
//!   copy's own sampled delay, as the simulator does;
//! * [`ChurnHandle::spawn_pacer`] — a detached scheduler thread that sleeps to each
//!   event's scaled deadline, mutates the shared link state, and routes
//!   [`ChurnAction::NodeRestart`] to the affected node's command channel as
//!   [`Command::Restart`] (the driver rebuilds its engine; see
//!   [`crate::NodeDriver::with_engine_factory`]).

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use brb_core::types::ProcessId;
use brb_sim::churn::{ChurnAction, ChurnEvent, ChurnSpec, LinkState};
use crossbeam::channel::Sender;

use crate::driver::Command;

/// The deployment-wide churn state every decorated transport consults.
#[derive(Debug)]
struct LiveChurn {
    /// The mutable link state, advanced by the pacer and read by every node's
    /// [`crate::FaultyLink`].
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

    /// The shared link state, locked: what [`crate::FaultyLink`] consults per frame.
    pub(crate) fn link_state(&self) -> MutexGuard<'_, LinkState> {
        self.shared
            .state
            .lock()
            .expect("no thread panics while holding the churn link state")
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacer_replays_the_schedule_and_routes_restarts() {
        let spec = ChurnSpec::new()
            .at(0, ChurnAction::LinkDown { a: 0, b: 1 })
            .at(20_000, ChurnAction::NodeRestart { process: 1 })
            .at(40_000, ChurnAction::LinkUp { a: 0, b: 1 });
        let handle = ChurnHandle::new(&spec, 9, 1.0, &[(0, 1)]);
        assert_eq!(handle.events().len(), 3);
        let (tx0, _rx0) = crossbeam::channel::unbounded();
        let (tx1, rx1) = crossbeam::channel::unbounded();
        let pacer = handle.spawn_pacer(vec![tx0, tx1]);
        pacer.join().unwrap();
        assert!(
            matches!(rx1.try_recv(), Ok(Command::Restart)),
            "the restart event reaches node 1's command channel"
        );
        let state = handle.link_state();
        assert!(
            state.allows(0, 1) && state.allows(1, 0),
            "the final LinkUp restored the link"
        );
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
