//! The benchmark's own load generator for the live workloads: one generator thread that
//! injects, and the calling thread as the collector that watches the delivery stream.
//!
//! * **Closed loop**: `clients` callers, each broadcasting again only after its previous
//!   broadcast was delivered by every correct process. Latency runs from the injection
//!   instant.
//! * **Open loop**: broadcasts are due on a fixed schedule, whatever the system does.
//!   Latency runs from the instant a broadcast was **due**, so the wait a stall imposes
//!   on later arrivals is counted; how late the generator itself ran is reported.
//!
//! Sources are round-robin (`i mod n`), so broadcast `i` is `BroadcastId(i mod n, i / n)`
//! by the engines' own per-source numbering. Payloads are distinct and come from the seed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use brb_core::types::{BroadcastId, Delivery, Payload, ProcessId};
use brb_sim::invariants::BroadcastRecord;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError};

use crate::host::thread_sched;
use crate::seeds::splitmix64;
use crate::trace::{request_of, root_id, sampled, Span, TraceHub};

/// How the generator decides when to inject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// A fixed number of callers that each wait for their previous broadcast.
    Closed {
        /// Concurrent callers.
        clients: usize,
    },
    /// Independent arrivals on a fixed schedule.
    Open {
        /// Broadcasts due per second.
        rate_per_s: f64,
    },
}

/// One load phase against a running deployment.
#[derive(Debug, Clone, Copy)]
pub struct LoadPlan {
    /// Processes of the deployment; all are correct and all take turns as source.
    pub n: usize,
    /// Size of every payload.
    pub payload_bytes: usize,
    /// Seed of the payload contents.
    pub seed: u64,
    /// Closed or open loop.
    pub load: Load,
    /// How long the generator keeps injecting.
    pub phase: Duration,
    /// How long after the last injection an undelivered broadcast counts as failed.
    pub completion_timeout: Duration,
}

/// What one load phase observed.
#[derive(Debug, Default)]
pub struct LoadResult {
    /// Every broadcast injected, for the correctness gate.
    pub records: Vec<BroadcastRecord>,
    /// One latency per completed broadcast, in ms.
    pub latencies_ms: Vec<f64>,
    /// Broadcasts delivered by every correct process before the timeout.
    pub completed: u64,
    /// First injection (or due instant) to last completion, in seconds.
    pub wall_s: f64,
    /// Open loop: how late each injection ran against its due instant, in ms.
    pub lag_ms: Vec<f64>,
    /// Injections / time from the first to the last injection.
    pub achieved_rate_per_s: f64,
    /// Time the generator spent building payloads, in ms.
    pub schedule_ms: f64,
    /// Delivery events the collector consumed.
    pub deliveries_seen: u64,
    /// CPU seconds of the generator and collector threads.
    pub harness_cpu_s: f64,
    /// Root spans of the sampled broadcasts (traced runs).
    pub root_spans: Vec<Span>,
}

/// The payload of broadcast `index`: its index (so payloads are distinct) followed by
/// bytes drawn from the seed.
pub fn payload_for(seed: u64, index: u64, bytes: usize) -> Payload {
    let mut data = Vec::with_capacity(bytes);
    let mut state = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    data.extend_from_slice(&index.to_be_bytes()[..bytes.min(8)]);
    while data.len() < bytes {
        let word = splitmix64(&mut state).to_le_bytes();
        let take = (bytes - data.len()).min(8);
        data.extend_from_slice(&word[..take]);
    }
    Payload::new(data)
}

/// The id the engines will give broadcast `index` under round-robin sources.
pub fn id_of(index: u64, n: usize) -> BroadcastId {
    BroadcastId::new((index % n as u64) as usize, (index / n as u64) as u32)
}

/// Inverse of [`id_of`].
pub fn index_of(id: BroadcastId, n: usize) -> u64 {
    u64::from(id.seq) * n as u64 + id.source as u64
}

/// What the generator thread hands back when it is joined.
#[derive(Default)]
struct Generated {
    records: Vec<BroadcastRecord>,
    lag_ms: Vec<f64>,
    schedule_ms: f64,
    cpu_s: f64,
    first: Option<Instant>,
    last: Option<Instant>,
}

/// Runs one load phase: `inject` fires one broadcast command, `deliveries` is the
/// deployment's delivery stream. Returns once every injected broadcast completed or the
/// completion timeout expired.
pub fn drive<F>(
    inject: F,
    deliveries: &Receiver<(ProcessId, Delivery)>,
    plan: &LoadPlan,
    hub: Option<&TraceHub>,
) -> LoadResult
where
    F: Fn(ProcessId, Payload) + Sync,
{
    // Due instant of every injected broadcast, by index: written by the generator just
    // before it injects, read by the collector when the broadcast completes.
    let dues: Mutex<Vec<Instant>> = Mutex::new(Vec::new());
    let generator_done = AtomicBool::new(false);
    // Closed loop: one token per free caller; the collector returns a token per
    // completion.
    let (token_tx, token_rx) = unbounded::<()>();
    if let Load::Closed { clients } = plan.load {
        for _ in 0..clients {
            let _ = token_tx.send(());
        }
    }
    let collector_start = thread_sched();
    let mut result = LoadResult::default();
    let generated = std::thread::scope(|scope| {
        let generator = std::thread::Builder::new()
            .name("bn-gen".into())
            .spawn_scoped(scope, || {
                let cpu_start = thread_sched();
                let mut generated = Generated::default();
                let start = Instant::now();
                let deadline = start + plan.phase;
                for index in 0u64.. {
                    // Built before the wait, so that it delays neither the injection nor
                    // the closed-loop latency clock.
                    let building = Instant::now();
                    let payload = payload_for(plan.seed, index, plan.payload_bytes);
                    generated.schedule_ms += building.elapsed().as_secs_f64() * 1e3;
                    let due = match plan.load {
                        Load::Closed { .. } => {
                            let remaining = deadline.saturating_duration_since(Instant::now());
                            if remaining.is_zero() || token_rx.recv_timeout(remaining).is_err() {
                                break;
                            }
                            Instant::now()
                        }
                        Load::Open { rate_per_s } => {
                            let due = start + Duration::from_secs_f64(index as f64 / rate_per_s);
                            if due >= deadline {
                                break;
                            }
                            std::thread::sleep(due.saturating_duration_since(Instant::now()));
                            due
                        }
                    };
                    let id = id_of(index, plan.n);
                    generated
                        .records
                        .push(BroadcastRecord::new(id.source, id, payload.clone()));
                    dues.lock().expect("collector does not panic").push(due);
                    let injected_at = Instant::now();
                    inject(id.source, payload);
                    if matches!(plan.load, Load::Open { .. }) {
                        let lag = injected_at.saturating_duration_since(due);
                        generated.lag_ms.push(lag.as_secs_f64() * 1e3);
                    }
                    generated.first.get_or_insert(injected_at);
                    generated.last = Some(injected_at);
                }
                generated.cpu_s = thread_sched().run_s - cpu_start.run_s;
                // Release: the collector reads `dues.len()` after it sees the flag.
                generator_done.store(true, Ordering::Release);
                generated
            })
            .expect("spawning the generator thread");

        // The collector: this thread.
        let correct = plan.n as u32;
        let mut seen: HashMap<BroadcastId, u32> = HashMap::new();
        let mut last_completion: Option<Instant> = None;
        let mut done_since: Option<Instant> = None;
        loop {
            match deliveries.recv_timeout(Duration::from_millis(20)) {
                Ok((_, delivery)) => {
                    result.deliveries_seen += 1;
                    let count = seen.entry(delivery.id).or_insert(0);
                    *count += 1;
                    if *count == correct {
                        let now = Instant::now();
                        let index = index_of(delivery.id, plan.n) as usize;
                        let due = dues
                            .lock()
                            .expect("generator does not panic")
                            .get(index)
                            .copied();
                        if let Some(due) = due {
                            let latency = now.saturating_duration_since(due);
                            result.latencies_ms.push(latency.as_secs_f64() * 1e3);
                            result.completed += 1;
                            last_completion = Some(now);
                            let request = request_of(delivery.id);
                            if let Some(hub) = hub.filter(|_| sampled(request)) {
                                result.root_spans.push(Span {
                                    id: root_id(request),
                                    parent: 0,
                                    name: "broadcast",
                                    start_ns: hub.ns_of(due),
                                    end_ns: hub.ns_of(now),
                                    request,
                                });
                            }
                        }
                        if matches!(plan.load, Load::Closed { .. }) {
                            let _ = token_tx.send(());
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            if generator_done.load(Ordering::Acquire) {
                let injected = dues.lock().expect("generator does not panic").len() as u64;
                let waited = done_since.get_or_insert_with(Instant::now).elapsed();
                if result.completed >= injected || waited >= plan.completion_timeout {
                    break;
                }
            }
        }
        let generated = generator.join().expect("generator thread panicked");
        if let (Some(first), Some(last)) = (generated.first, last_completion) {
            // Open loop: the clock starts when the first broadcast was due.
            let origin = dues
                .lock()
                .expect("generator joined")
                .first()
                .copied()
                .map_or(first, |due| due.min(first));
            result.wall_s = last.saturating_duration_since(origin).as_secs_f64();
        }
        generated
    });
    if let (Some(first), Some(last)) = (generated.first, generated.last) {
        let span = last.saturating_duration_since(first).as_secs_f64();
        if span > 0.0 {
            result.achieved_rate_per_s = (generated.records.len() as f64 - 1.0) / span;
        }
    }
    result.harness_cpu_s = generated.cpu_s + thread_sched().run_s - collector_start.run_s;
    result.records = generated.records;
    result.lag_ms = generated.lag_ms;
    result.schedule_ms = generated.schedule_ms;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::Sender;

    /// A stand-in deployment of `n` processes: every injected broadcast is delivered by
    /// all of them after `service`, one broadcast at a time (a single-server queue).
    struct EchoSystem {
        work: Sender<(ProcessId, Payload)>,
        deliveries: Receiver<(ProcessId, Delivery)>,
        server: std::thread::JoinHandle<()>,
    }

    impl EchoSystem {
        fn start(n: usize, service: Duration) -> Self {
            let (work, work_rx) = unbounded::<(ProcessId, Payload)>();
            let (delivery_tx, deliveries) = unbounded();
            let server = std::thread::spawn(move || {
                let mut next_seq = vec![0u32; n];
                while let Ok((source, payload)) = work_rx.recv() {
                    std::thread::sleep(service);
                    let id = BroadcastId::new(source, next_seq[source]);
                    next_seq[source] += 1;
                    for process in 0..n {
                        let delivery = Delivery {
                            id,
                            payload: payload.clone(),
                        };
                        if delivery_tx.send((process, delivery)).is_err() {
                            return;
                        }
                    }
                }
            });
            Self {
                work,
                deliveries,
                server,
            }
        }

        fn inject(&self, source: ProcessId, payload: Payload) {
            let _ = self.work.send((source, payload));
        }

        /// Closes the work queue and waits for the server thread to end.
        fn stop(self) {
            drop(self.work);
            drop(self.deliveries);
            self.server.join().expect("the echo server does not panic");
        }
    }

    #[test]
    fn ids_and_indices_are_inverse_and_payloads_are_seeded() {
        for index in [0u64, 1, 9, 10, 11, 12_345] {
            assert_eq!(index_of(id_of(index, 10), 10), index);
        }
        assert_eq!(id_of(23, 10), BroadcastId::new(3, 2));
        assert_eq!(payload_for(7, 5, 64), payload_for(7, 5, 64));
        assert_ne!(payload_for(7, 5, 64), payload_for(7, 6, 64));
        assert_ne!(payload_for(7, 5, 64), payload_for(8, 5, 64));
        assert_eq!(payload_for(7, 5, 1024).len(), 1024);
        assert_eq!(payload_for(7, 5, 3).len(), 3);
    }

    #[test]
    fn open_loop_times_from_the_due_instant_when_an_injection_is_late() {
        // 100 broadcasts/s against a server that needs 30 ms each: from the second
        // broadcast on, everything queues behind its predecessor. Timed from the actual
        // hand-over to the system the wait would look like it belongs to the system
        // only from when the generator got round to injecting; timed from the due
        // instant, broadcast i waits for its i predecessors.
        let system = EchoSystem::start(3, Duration::from_millis(30));
        let slow_inject = |source, payload| {
            // The generator itself is late too: each hand-over blocks 15 ms, more than
            // the 10 ms between due instants.
            std::thread::sleep(Duration::from_millis(15));
            system.inject(source, payload);
        };
        let plan = LoadPlan {
            n: 3,
            payload_bytes: 16,
            seed: 1,
            load: Load::Open { rate_per_s: 100.0 },
            phase: Duration::from_millis(95),
            completion_timeout: Duration::from_secs(5),
        };
        let result = drive(slow_inject, &system.deliveries, &plan, None);
        assert_eq!(result.records.len(), 10, "due instants 0, 10, .., 90 ms");
        assert_eq!(result.completed, 10);
        // Broadcast 9 was due at 90 ms; the server finishes it no earlier than
        // 15 + 10 * 30 = 315 ms: at least 225 ms from its due instant. From its actual
        // injection (>= 9 * 15 = 135 ms late start, i.e. injected at >= 150 ms) the same
        // completion would read at most ~170 ms.
        let worst = result.latencies_ms.iter().cloned().fold(0.0, f64::max);
        assert!(
            worst >= 225.0,
            "latency must run from the due instant: {worst}"
        );
        // The generator's own lateness is reported: injection i cannot start before
        // i * 15 ms, its due instant is i * 10 ms.
        let lag_max = result.lag_ms.iter().cloned().fold(0.0, f64::max);
        assert!(lag_max >= 40.0, "generator lag is reported: {lag_max}");
        assert!(result.wall_s >= 0.3);
        system.stop();
    }

    #[test]
    fn closed_loop_keeps_exactly_the_clients_in_flight() {
        // Service 5 ms, one at a time: 2 clients complete ~one broadcast per 5 ms and
        // each sees ~10 ms (its own service plus the other client's).
        let system = EchoSystem::start(2, Duration::from_millis(5));
        let plan = LoadPlan {
            n: 2,
            payload_bytes: 8,
            seed: 3,
            load: Load::Closed { clients: 2 },
            phase: Duration::from_millis(200),
            completion_timeout: Duration::from_secs(5),
        };
        let hub = TraceHub::new();
        let inject = |source, payload| system.inject(source, payload);
        let result = drive(inject, &system.deliveries, &plan, Some(&hub));
        assert_eq!(result.completed as usize, result.records.len());
        assert!(
            result.completed >= 10 && result.completed <= 45,
            "{}",
            result.completed
        );
        let median = crate::stats::median(&result.latencies_ms);
        assert!(median >= 9.0, "two in flight share one server: {median}");
        assert!(
            result.lag_ms.is_empty(),
            "a closed loop has no schedule to lag behind"
        );
        assert_eq!(result.deliveries_seen, 2 * result.completed);
        // Broadcasts (0,0) and (1,0) have seq % 64 == 0: their root spans are recorded.
        assert_eq!(result.root_spans.len(), 2);
        assert!(result
            .root_spans
            .iter()
            .all(|s| s.parent == 0 && s.end_ns > s.start_ns));
        system.stop();
    }
}
