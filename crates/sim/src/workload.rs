//! Driving a [`WorkloadSpec`](brb_workload::WorkloadSpec) schedule through the
//! discrete-event simulator.
//!
//! The workload crate (`brb-workload`) expands a spec into a backend-agnostic schedule
//! of [`Injection`]s; this module is the simulator-side driver. Open-loop schedules are
//! handed to [`Simulation::schedule_broadcast`] wholesale and run to quiescence;
//! closed-loop schedules are admitted arrival by arrival, gated on an in-flight window
//! that frees when a broadcast has been delivered by every correct process. Both paths
//! are single-threaded and purely virtual-time, so a `(spec, seed)` pair replays
//! bit-identically — the property the workload golden snapshots and the worker-count
//! invariance tests pin.

use brb_core::protocol::Protocol;
use brb_core::types::BroadcastId;
use brb_workload::{predicted_ids, Injection, LoopMode, WorkloadStats};

use crate::metrics::RunMetrics;
use crate::sim::Simulation;
use crate::time::SimTime;

/// Runs a full injection schedule through the simulation until quiescence, honoring the
/// loop mode. Returns the number of injections plus message events processed.
///
/// In closed-loop mode, an arrival finding the window full is deferred to the instant a
/// slot frees (its arrival time is clamped forward); injections whose source ignores
/// the broadcast (a crashed source) do not occupy the window. If a broadcast never
/// completes — an adversarial run losing liveness — admission stalls and the remaining
/// arrivals are never injected, exactly as a blocked client pool would behave.
pub fn run_workload<P: Protocol>(
    sim: &mut Simulation<P>,
    schedule: &[Injection],
    mode: LoopMode,
) -> usize
where
    P::Message: Eq,
{
    match mode {
        LoopMode::Open => {
            for injection in schedule {
                sim.schedule_broadcast(
                    SimTime::from_micros(injection.at_micros),
                    injection.source,
                    injection.payload.clone(),
                );
            }
            sim.run_to_quiescence()
        }
        LoopMode::Closed { window } => run_closed_loop(sim, schedule, window as usize),
    }
}

fn run_closed_loop<P: Protocol>(
    sim: &mut Simulation<P>,
    schedule: &[Injection],
    window: usize,
) -> usize
where
    P::Message: Eq,
{
    let ids = predicted_ids(schedule);
    let correct = sim.correct_processes();
    let mut outstanding: Vec<BroadcastId> = Vec::new();
    let mut next = 0usize;
    let mut processed = 0usize;
    loop {
        // Admit arrivals while the window has room. Deferred arrivals inject at the
        // current instant (schedule_broadcast clamps past times forward).
        while next < schedule.len() && outstanding.len() < window {
            let injection = &schedule[next];
            sim.schedule_broadcast(
                SimTime::from_micros(injection.at_micros),
                injection.source,
                injection.payload.clone(),
            );
            if sim.behavior(injection.source).receives() {
                outstanding.push(ids[next]);
            }
            next += 1;
        }
        let step = sim.step_batch();
        if step == 0 {
            break;
        }
        processed += step;
        outstanding.retain(|id| sim.metrics().delivered_count(*id, &correct) < correct.len());
    }
    sim.collect_gc_metrics();
    processed
}

/// Folds the per-broadcast workload measurements out of a finished run's metrics: one
/// latency observation per completed broadcast (worst correct process, minus the
/// injection time), completion counts, and the injection-to-last-delivery duration.
pub fn workload_stats(
    metrics: &RunMetrics,
    correct: &[brb_core::types::ProcessId],
) -> WorkloadStats {
    let mut stats = WorkloadStats::default();
    let mut first_injection: Option<SimTime> = None;
    let mut last_delivery = SimTime::ZERO;
    for (&id, &injected_at) in &metrics.injection_times {
        stats.injected += 1;
        first_injection = Some(match first_injection {
            Some(t) => t.min(injected_at),
            None => injected_at,
        });
        if let Some(delivered_at) = metrics.latency(id, correct) {
            stats.completed += 1;
            last_delivery = last_delivery.max(delivered_at);
            let latency = delivered_at.saturating_sub(injected_at);
            stats.latency_histogram.record(latency.as_micros());
        }
    }
    if let Some(first) = first_injection {
        if stats.completed > 0 {
            stats.duration_ms = last_delivery.saturating_sub(first).as_millis_f64();
        }
    }
    stats.gc_retired = metrics.gc_retired;
    stats.retained_bytes = metrics.retained_bytes;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use brb_core::bd::BdProcess;
    use brb_core::config::Config;
    use brb_graph::{generate, NeighborIndex};
    use brb_workload::WorkloadSpec;

    use crate::behavior::Behavior;
    use crate::delay::DelayModel;

    fn bd_sim(seed: u64) -> Simulation<BdProcess> {
        let graph = generate::figure1_example();
        let index = NeighborIndex::new(&graph);
        let config = Config::bdopt_mbd1(10, 1);
        let processes: Vec<BdProcess> = (0..graph.node_count())
            .map(|i| BdProcess::new(i, config, index.neighbors(i).to_vec()))
            .collect();
        Simulation::new(processes, DelayModel::synchronous(), seed)
    }

    #[test]
    fn open_loop_workload_completes_and_measures() {
        let spec = WorkloadSpec::constant_rate(20_000, 12).with_payload_bytes(32);
        let schedule = spec.schedule(10, 7);
        let mut sim = bd_sim(7);
        run_workload(&mut sim, &schedule, spec.mode);
        let correct = sim.correct_processes();
        let stats = workload_stats(sim.metrics(), &correct);
        assert_eq!(stats.injected, 12);
        assert_eq!(stats.completed, 12);
        assert!(stats.all_completed());
        assert!(stats.duration_ms > 0.0);
        assert!(stats.throughput_per_sec() > 0.0);
        assert!(stats.p50_ms() >= 100.0, "two 50 ms hops minimum");
        assert!(stats.p99_ms() >= stats.p50_ms());
    }

    #[test]
    fn closed_loop_window_limits_in_flight_broadcasts() {
        // 12 arrivals all at t = 0, window 2: the run must serialize into waves, so the
        // last delivery happens much later than in the open-loop run.
        let spec = WorkloadSpec::constant_rate(0, 12).closed_loop(2);
        let schedule = spec.schedule(10, 3);
        let mut open_sim = bd_sim(3);
        run_workload(&mut open_sim, &schedule, LoopMode::Open);
        let mut closed_sim = bd_sim(3);
        run_workload(&mut closed_sim, &schedule, spec.mode);
        let correct: Vec<usize> = (0..10).collect();
        let open = workload_stats(open_sim.metrics(), &correct);
        let closed = workload_stats(closed_sim.metrics(), &correct);
        assert!(open.all_completed() && closed.all_completed());
        assert_eq!(closed.injected, 12);
        assert!(
            closed.duration_ms > open.duration_ms,
            "closed loop serializes: {} vs {}",
            closed.duration_ms,
            open.duration_ms
        );
        // With the window gating admission, per-broadcast latency stays near the
        // contention-free baseline instead of inflating with the backlog.
        assert!(closed.p50_ms() <= open.p50_ms() + 1.0);
    }

    #[test]
    fn closed_loop_skips_window_slots_for_crashed_sources() {
        let spec = WorkloadSpec::constant_rate(5_000, 10).closed_loop(1);
        let schedule = spec.schedule(10, 5);
        let mut sim = bd_sim(5);
        sim.set_behavior(3, Behavior::Crash);
        run_workload(&mut sim, &schedule, spec.mode);
        let correct = sim.correct_processes();
        let stats = workload_stats(sim.metrics(), &correct);
        // Round-robin sources 0..9: source 3's injection is a no-op; the other 9 all
        // complete despite the width-1 window.
        assert_eq!(stats.injected, 9);
        assert_eq!(stats.completed, 9);
    }

    #[test]
    fn workload_runs_are_deterministic() {
        let spec = WorkloadSpec::poisson(10_000, 16);
        let schedule = spec.schedule(10, 21);
        let render = |seed| {
            // Asynchronous delays, so the simulation seed actually matters.
            let graph = generate::figure1_example();
            let index = NeighborIndex::new(&graph);
            let config = Config::bdopt_mbd1(10, 1);
            let processes: Vec<BdProcess> = (0..graph.node_count())
                .map(|i| BdProcess::new(i, config, index.neighbors(i).to_vec()))
                .collect();
            let mut sim = Simulation::new(processes, DelayModel::asynchronous(), seed);
            run_workload(&mut sim, &schedule, spec.mode);
            sim.metrics().canonical_text()
        };
        assert_eq!(render(9), render(9));
        assert_ne!(render(9), render(10), "delay seed still matters");
    }

    #[test]
    fn workload_peaks_are_the_exact_per_event_maxima() {
        let spec = WorkloadSpec::poisson(10_000, 16).with_payload_bytes(32);
        let schedule = spec.schedule(10, 21);
        let build = || {
            let graph = generate::figure1_example();
            let index = NeighborIndex::new(&graph);
            let config =
                Config::bdopt_mbd1(10, 1).with_gc(brb_core::gc::GcPolicy::after_events(64));
            let processes: Vec<BdProcess> = (0..graph.node_count())
                .map(|i| BdProcess::new(i, config, index.neighbors(i).to_vec()))
                .collect();
            // Delays spread over a range wide enough that no two events share an instant.
            let delay = DelayModel::Uniform {
                min_micros: 1_000,
                max_micros: 100_000_000_000,
            };
            Simulation::new(processes, delay, 9)
        };
        let mut sim = build();
        run_workload(&mut sim, &schedule, spec.mode);
        assert!(sim.metrics().gc_retired > 0, "GC ran during the workload");

        // Twin run, stepped from outside: every batch is one event, so reading every
        // process after each batch observes the state after every single event.
        let mut twin = build();
        for injection in &schedule {
            twin.schedule_broadcast(
                SimTime::from_micros(injection.at_micros),
                injection.source,
                injection.payload.clone(),
            );
        }
        let (mut peak_bytes, mut peak_paths) = (0usize, 0usize);
        loop {
            let step = twin.step_batch();
            if step == 0 {
                break;
            }
            assert_eq!(step, 1, "one event per instant");
            for p in twin.processes() {
                peak_bytes = peak_bytes.max(p.state_bytes());
                peak_paths = peak_paths.max(p.stored_paths());
            }
        }
        assert_eq!(
            twin.metrics().events_processed,
            sim.metrics().events_processed
        );
        assert_eq!(sim.metrics().peak_state_bytes, peak_bytes);
        assert_eq!(sim.metrics().peak_stored_paths, peak_paths);
    }

    #[test]
    fn stats_of_an_unfinished_workload_report_partial_completion() {
        let spec = WorkloadSpec::constant_rate(10_000, 4);
        let schedule = spec.schedule(10, 1);
        let mut sim = bd_sim(1);
        for injection in &schedule {
            sim.schedule_broadcast(
                SimTime::from_micros(injection.at_micros),
                injection.source,
                injection.payload.clone(),
            );
        }
        // Stop after the first broadcast can complete but before the last one can.
        sim.run_until(SimTime::from_millis(101));
        let correct = sim.correct_processes();
        let stats = workload_stats(sim.metrics(), &correct);
        assert!(stats.injected >= 4 - 1, "all arrivals by 30 ms");
        assert!(stats.completed < stats.injected);
        assert!(!stats.all_completed());
    }
}
