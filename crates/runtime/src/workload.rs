//! The generator driver that firehoses a running deployment with a workload schedule.
//!
//! `brb-workload` expands a [`WorkloadSpec`](brb_workload::WorkloadSpec) into the same
//! backend-agnostic schedule of [`Injection`]s the simulator consumes; this module
//! replays that schedule against a *live* deployment. A dedicated **generator thread**
//! walks the schedule and fires broadcast commands into the node threads (optionally
//! pacing injections by their virtual arrival times), while the calling thread consumes
//! the deployment's delivery stream and tracks per-broadcast completion — which is what
//! closes the loop: in closed-loop mode the generator blocks whenever
//! `injected - completed` reaches the window, exactly like a bounded client pool.
//!
//! [`crate::Deployment::run_workload`] runs it on a deployment over any backend's links,
//! so "the same spec on every backend" is one code path.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use brb_core::types::{BroadcastId, Delivery, Payload, ProcessId};
use brb_workload::{predicted_ids, Injection, LoopMode};
use crossbeam::channel::{Receiver, RecvTimeoutError};

/// How the generator thread maps the schedule's virtual arrival times to wall-clock
/// injection times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Ignore arrival times: inject as fast as the loop mode allows (the usual setting
    /// for tests and cross-backend comparisons, where only the injection *order*
    /// matters).
    Unpaced,
    /// Sleep so that injection `i` happens no earlier than
    /// `start + at_micros[i] * scale` — `scale = 1.0` replays the schedule in real time.
    Scaled(f64),
}

/// What the driver observed: injection, completion and delivery counts, plus the
/// per-broadcast wall-clock latencies the paced deployment study compares against the
/// simulator's virtual-time predictions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadRun {
    /// Injections fired into the deployment (including no-op injections at crashed
    /// sources).
    pub injected: usize,
    /// Injections whose source is a correct process — the ones that can complete.
    pub effective: usize,
    /// Broadcasts delivered by every correct process before the timeout.
    pub completed: usize,
    /// Total delivery events observed.
    pub deliveries_seen: usize,
    /// Wall-clock time from a broadcast's injection until its delivery by every correct
    /// process, in microseconds, one entry per completed broadcast in completion order.
    pub broadcast_latencies: Vec<(BroadcastId, u64)>,
}

impl WorkloadRun {
    /// Whether every effective broadcast completed.
    pub fn all_completed(&self) -> bool {
        self.completed == self.effective
    }
}

/// Replays `schedule` against a live deployment: `inject` fires one broadcast command,
/// `deliveries` is the deployment's delivery stream, `correct` lists the processes that
/// must deliver for a broadcast to count as completed.
///
/// Returns when every effective broadcast completed or `timeout` elapsed. The generator
/// thread stops injecting at the deadline too, so a stalled closed-loop window cannot
/// hang the driver.
pub fn drive_workload<F>(
    inject: F,
    deliveries: &Receiver<(ProcessId, Delivery)>,
    schedule: &[Injection],
    mode: LoopMode,
    pacing: Pacing,
    correct: &[ProcessId],
    timeout: Duration,
) -> WorkloadRun
where
    F: Fn(ProcessId, Payload) + Sync,
{
    let ids = predicted_ids(schedule);
    let effective_ids: Vec<BroadcastId> = schedule
        .iter()
        .zip(&ids)
        .filter(|(injection, _)| correct.contains(&injection.source))
        .map(|(_, &id)| id)
        .collect();
    let effective = effective_ids.len();
    let window = mode.window() as usize;
    let completed = AtomicUsize::new(0);
    let injected = AtomicUsize::new(0);
    let deadline = Instant::now() + timeout;
    let start = Instant::now();
    // Injection wall-clock instants, recorded by the generator as it fires and read by
    // the completion tracker to compute per-broadcast latencies.
    let injection_instants: Mutex<HashMap<BroadcastId, Instant>> = Mutex::new(HashMap::new());

    let mut deliveries_seen = 0usize;
    let mut broadcast_latencies: Vec<(BroadcastId, u64)> = Vec::new();
    std::thread::scope(|scope| {
        // The generator driver thread: walks the schedule, paces, and honors the
        // closed-loop window by watching the shared completion counter.
        scope.spawn(|| {
            let mut effective_in_flight = 0usize;
            for (injection, &id) in schedule.iter().zip(&ids) {
                if let Pacing::Scaled(scale) = pacing {
                    let due = start + Duration::from_micros(injection.at_micros).mul_f64(scale);
                    while Instant::now() < due {
                        if Instant::now() >= deadline {
                            return;
                        }
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
                let counts = correct.contains(&injection.source);
                if counts {
                    while effective_in_flight - completed.load(Ordering::Acquire) >= window {
                        if Instant::now() >= deadline {
                            return;
                        }
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
                injection_instants
                    .lock()
                    .expect("no thread panics while holding the injection times")
                    .insert(id, Instant::now());
                inject(injection.source, injection.payload.clone());
                injected.fetch_add(1, Ordering::Release);
                if counts {
                    effective_in_flight += 1;
                }
            }
        });

        // The calling thread consumes deliveries and completes broadcasts; the counter
        // it bumps is what unblocks the generator's window.
        let mut per_broadcast: HashMap<BroadcastId, usize> = HashMap::new();
        let mut done = 0usize;
        while done < effective {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            match deliveries.recv_timeout(remaining.min(Duration::from_millis(50))) {
                Ok((process, delivery)) => {
                    deliveries_seen += 1;
                    if !correct.contains(&process) {
                        continue;
                    }
                    let count = per_broadcast.entry(delivery.id).or_insert(0);
                    *count += 1;
                    if *count == correct.len() && effective_ids.contains(&delivery.id) {
                        done += 1;
                        completed.fetch_add(1, Ordering::Release);
                        if let Some(injected_at) = injection_instants
                            .lock()
                            .expect("no thread panics while holding the injection times")
                            .get(&delivery.id)
                        {
                            let micros = injected_at.elapsed().as_micros() as u64;
                            broadcast_latencies.push((delivery.id, micros));
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
    });

    WorkloadRun {
        injected: injected.load(Ordering::Acquire),
        effective,
        completed: completed.load(Ordering::Acquire),
        deliveries_seen,
        broadcast_latencies,
    }
}
