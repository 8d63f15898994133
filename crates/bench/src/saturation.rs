//! The saturation-throughput axis: an open-loop arrival-rate ramp with knee detection.
//!
//! The batching/sharding/buffer-pool work on the live transports is motivated by one
//! question: *at what offered load does the system stop keeping up?* This module holds
//! the two halves of the answer:
//!
//! * [`run_saturation_sweep`] — the **deterministic** half: the same ramp replayed on
//!   the discrete-event simulator through the parallel sweep engine. Virtual time has
//!   no scheduling jitter and unbounded queues, so the simulator never collapses — the
//!   section exists to pin the *shape* of the ramp (throughput tracks the offered rate,
//!   latency stays flat) as a byte-identical CSV section that participates in the
//!   1-vs-4-worker diff of the CI smoke job.
//! * [`knee_index`] — the knee rule shared with the live `bench_saturation` binary,
//!   where wall-clock scheduling makes the ramp actually bend: the knee is the highest
//!   offered rate that still completes every broadcast with a bounded p99.

use brb_core::stack::StackSpec;
use brb_sim::{run_sweep, DelayModel, ExperimentSpec};
use brb_workload::{SourceSelection, WorkloadSpec, WorkloadStats};

use crate::{experiment, Scale};

/// One point of the saturation ramp: an offered arrival rate with its merged stats.
#[derive(Debug, Clone)]
pub struct SaturationPoint {
    /// Human-readable point label (the arrival/source shape of the ramp).
    pub label: String,
    /// Mean inter-arrival gap of the point, in microseconds (the ramp's x-axis,
    /// descending = load ascending).
    pub interval_micros: u64,
    /// The offered arrival rate, in broadcasts per second (`1e6 / interval`).
    pub offered_per_sec: f64,
    /// Stats merged over the point's seeds.
    pub stats: WorkloadStats,
    /// Whether this point is the detected knee of the ramp (see [`knee_index`]).
    pub knee: bool,
}

/// Topology seed base of the saturation ramp (disjoint from the other harnesses).
fn graph_seed_base(n: usize, k: usize) -> u64 {
    23_000 + (n * k) as u64
}

/// A saturation observation as the knee rule consumes it: did the point complete every
/// broadcast, and what p99 did it show.
#[derive(Debug, Clone, Copy)]
pub struct KneeObservation {
    /// Whether every effective broadcast of the point completed.
    pub all_completed: bool,
    /// The point's p99 completion latency in milliseconds.
    pub p99_ms: f64,
}

/// The knee of a ramp of observations ordered by ascending offered rate: the index of
/// the highest-rate point, *before the first collapsed point*, that still completed
/// every broadcast with `p99 <= p99_cap_ms`. Returns `None` when even the lowest rate
/// collapses.
///
/// Scanning stops at the first failure so a spuriously healthy point beyond the
/// collapse (timeout truncation can make a overloaded run look "complete") can never
/// be reported as the knee.
pub fn knee_index(points: &[KneeObservation], p99_cap_ms: f64) -> Option<usize> {
    let mut knee = None;
    for (i, p) in points.iter().enumerate() {
        if p.all_completed && p.p99_ms <= p99_cap_ms {
            knee = Some(i);
        } else {
            break;
        }
    }
    knee
}

/// The deterministic saturation ramp: a fixed descending-interval (ascending-rate)
/// open-loop constant-rate workload with Zipf sources, each point run through the
/// parallel sweep engine and merged across seeds. The CSV rows are a pure function of
/// the virtual clock, so they are byte-identical for every `--workers` value.
pub fn run_saturation_sweep(
    scale: Scale,
    asynchronous: bool,
    workers: usize,
    stack: StackSpec,
) -> Vec<SaturationPoint> {
    let (n, k, f, broadcasts, intervals): (usize, usize, usize, u32, &[u64]) = match scale {
        Scale::Quick => (16, 5, 2, 24, &[20_000, 10_000, 5_000, 2_500, 1_250]),
        Scale::Paper => (
            30,
            7,
            3,
            96,
            &[20_000, 10_000, 5_000, 2_500, 1_250, 625, 312],
        ),
    };
    let runs = scale.runs();
    let delay = if asynchronous {
        DelayModel::asynchronous()
    } else {
        DelayModel::synchronous()
    };

    let mut specs: Vec<ExperimentSpec> = Vec::new();
    for &interval in intervals {
        let workload = WorkloadSpec::constant_rate(interval, broadcasts)
            .with_sources(SourceSelection::Zipf { exponent: 1.1 });
        let config = brb_core::config::Config::bdopt_mbd1(n, f);
        let params = experiment(n, k, f, 64, config, delay, 1)
            .with_stack(stack)
            .with_workload(workload);
        for run in 0..runs {
            let mut p = params.clone();
            p.seed = 1 + run as u64;
            specs.push(ExperimentSpec::new(
                format!("open-loop/{interval}us"),
                graph_seed_base(n, k) + run as u64,
                p,
            ));
        }
    }

    let outcomes = run_sweep(&specs, workers);
    let mut points: Vec<SaturationPoint> = outcomes
        .chunks(runs)
        .zip(intervals)
        .map(|(chunk, &interval_micros)| {
            let mut stats = WorkloadStats::default();
            for outcome in chunk {
                let per_run = outcome
                    .record
                    .result
                    .workload
                    .as_ref()
                    .expect("saturation sweeps always fill workload stats");
                stats.merge(per_run);
            }
            SaturationPoint {
                label: "open-loop/zipf".to_string(),
                interval_micros,
                offered_per_sec: 1e6 / interval_micros as f64,
                stats,
                knee: false,
            }
        })
        .collect();

    // The knee rule, applied with the shared cap: 8x the lowest-rate point's p99. On
    // the simulator the ramp never bends, so this marks the last point — the live
    // binary is where the flag moves left.
    let cap = 8.0 * points.first().map_or(f64::INFINITY, |p| p.stats.p99_ms());
    let observations: Vec<KneeObservation> = points
        .iter()
        .map(|p| KneeObservation {
            all_completed: p.stats.all_completed(),
            p99_ms: p.stats.p99_ms(),
        })
        .collect();
    if let Some(i) = knee_index(&observations, cap) {
        points[i].knee = true;
    }

    print_points(
        &format!(
            "Saturation ramp — stack={stack}, N={n}, k={k}, f={f}, {broadcasts} broadcasts/point"
        ),
        &points,
    );
    points
}

fn print_points(title: &str, points: &[SaturationPoint]) {
    println!("# {title}");
    println!(
        "{:<18} {:>14} {:>12} {:>10} {:>10} {:>10} {:>6}",
        "interval (us)",
        "offered (bc/s)",
        "thr (bc/s)",
        "p50 (ms)",
        "p99 (ms)",
        "completed",
        "knee"
    );
    for p in points {
        println!(
            "{:<18} {:>14.1} {:>12.2} {:>10.1} {:>10.1} {:>10} {:>6}",
            p.interval_micros,
            p.offered_per_sec,
            p.stats.throughput_per_sec(),
            p.stats.p50_ms(),
            p.stats.p99_ms(),
            p.stats.completed,
            if p.knee { "*" } else { "" },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(all_completed: bool, p99_ms: f64) -> KneeObservation {
        KneeObservation {
            all_completed,
            p99_ms,
        }
    }

    #[test]
    fn knee_is_the_last_healthy_point_before_the_first_collapse() {
        let ramp = [
            obs(true, 10.0),
            obs(true, 12.0),
            obs(true, 40.0),
            obs(false, 900.0),
            // A timeout-truncated overloaded run can look "complete" again; the scan
            // must never reach it.
            obs(true, 11.0),
        ];
        assert_eq!(knee_index(&ramp, 80.0), Some(2));
        // A tighter p99 cap moves the knee left.
        assert_eq!(knee_index(&ramp, 15.0), Some(1));
        // A collapse at the lowest rate means no knee at all.
        assert_eq!(knee_index(&[obs(false, 5.0)], 80.0), None);
        assert_eq!(knee_index(&[], 80.0), None);
    }

    #[test]
    fn quick_saturation_sweep_is_worker_count_invariant() {
        let a = run_saturation_sweep(Scale::Quick, false, 1, StackSpec::Bd);
        let b = run_saturation_sweep(Scale::Quick, false, 4, StackSpec::Bd);
        assert_eq!(a.len(), 5, "one point per ramp interval");
        assert_eq!(a.len(), b.len());
        let knees = a.iter().filter(|p| p.knee).count();
        assert_eq!(knees, 1, "exactly one knee per ramp");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.interval_micros, y.interval_micros);
            assert_eq!(x.stats, y.stats, "{} differs across worker counts", x.label);
            assert_eq!(x.knee, y.knee);
            assert!(x.stats.all_completed(), "virtual time never collapses");
            assert!(x.offered_per_sec > 0.0);
        }
    }
}
