//! Machine-readable saturation study: the wall-clock knee of the live backends.
//!
//! For every `stack x backend` combination the binary ramps an open-loop constant-rate
//! workload (descending inter-arrival intervals, real-time paced) against a fresh
//! deployment with [`DriverOptions::default`] (one engine per node) and detects the
//! **knee**: the highest offered arrival rate that still completes every broadcast with
//! a p99 completion latency under the ramp's cap (8x its own lowest-rate p99, floored at
//! 25 ms against scheduler noise — the same [`brb_bench::saturation::knee_index`] rule
//! the deterministic simulator section uses). The first ramp point is deliberately far
//! below any stack's capacity (50 broadcasts/s) so the cap is anchored to a genuinely
//! unloaded baseline. The ramp stops at the first collapsed point, so an overload run
//! truncated by the timeout can never be mistaken for a healthy one.
//!
//! The combinations:
//!
//! * stacks — `bd` (the paper's Bracha–Dolev on the Fig. 1 topology) and `bracha`
//!   (plain double-echo on a complete graph, the fully-connected baseline);
//! * backends — the in-process channel runtime and the TCP socket deployment.
//!
//! Emits `BENCH_saturation.json` with the host it ran on and one
//! `knee_offered_per_sec` per combination, plus the per-point curves. Wall-clock
//! results vary with the host, so nothing here participates in byte-equality diffs;
//! the CI smoke job only greps the expected fields.
//!
//! Usage: `cargo run --release -p brb-bench --bin bench_saturation [-- --quick] [-- --out PATH]`

use std::time::{Duration, Instant};

use brb_bench::json::{host, out_path_from_args, write_and_echo, JsonObject};
use brb_bench::saturation::{knee_index, KneeObservation};
use brb_bench::Scale;
use brb_core::config::Config;
use brb_core::stack::StackSpec;
use brb_graph::{generate, Graph};
use brb_net::{Wiring, BACKENDS};
use brb_runtime::{Deployment, DriverOptions, Pacing};
use brb_workload::WorkloadSpec;

/// Knee rule: a point collapses when its p99 exceeds this multiple of the baseline p99.
const P99_CAP_FACTOR: f64 = 8.0;
/// Knee rule: absolute floor of the p99 cap, so a sub-millisecond baseline does not
/// turn scheduler jitter into a false knee.
const P99_CAP_FLOOR_MS: f64 = 25.0;

/// One measured point of a ramp.
struct Point {
    interval_micros: u64,
    offered_per_sec: f64,
    completed: usize,
    effective: usize,
    throughput_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Percentile over the run's per-broadcast completion latencies (microseconds in,
/// milliseconds out; nearest-rank on the sorted latencies).
fn percentile_ms(latencies_us: &mut [u64], q: f64) -> f64 {
    if latencies_us.is_empty() {
        return f64::NAN;
    }
    latencies_us.sort_unstable();
    let rank = ((q * latencies_us.len() as f64).ceil() as usize).clamp(1, latencies_us.len());
    latencies_us[rank - 1] as f64 / 1_000.0
}

/// One `stack x backend` combination of the study.
struct Combo<'a> {
    wire: Wiring,
    graph: &'a Graph,
    config: Config,
    stack: StackSpec,
}

/// Runs one ramp point on one backend: start a fresh deployment, replay the schedule in
/// real time, shut down. Returns the measured point.
fn run_point(combo: &Combo, interval_micros: u64, broadcasts: u32) -> Point {
    let Combo {
        wire,
        graph,
        config,
        stack,
    } = *combo;
    let n = graph.node_count();
    let correct: Vec<usize> = (0..n).collect();
    let spec = WorkloadSpec::constant_rate(interval_micros, broadcasts).with_payload_bytes(64);
    let schedule = spec.schedule(n, 7);
    // The schedule spans `interval * broadcasts` of injection time; completion of the
    // tail rides on top. The slack bounds the drain of an overloaded run.
    let timeout =
        Duration::from_micros(interval_micros * u64::from(broadcasts)) + Duration::from_secs(10);

    let started = Instant::now();
    let links = wire(graph, &[]).expect("live backend wires its links");
    let deployment = Deployment::start_on(links, graph, config, stack, DriverOptions::default());
    let run = deployment.run_workload(&schedule, spec.mode, Pacing::Scaled(1.0), &correct, timeout);
    deployment.shutdown();
    let elapsed = started.elapsed().as_secs_f64();

    let mut latencies: Vec<u64> = run.broadcast_latencies.iter().map(|&(_, us)| us).collect();
    let p50_ms = percentile_ms(&mut latencies, 0.50);
    let p99_ms = percentile_ms(&mut latencies, 0.99);
    Point {
        interval_micros,
        offered_per_sec: 1e6 / interval_micros as f64,
        completed: run.completed,
        effective: run.effective,
        throughput_per_sec: if elapsed > 0.0 {
            run.completed as f64 / elapsed
        } else {
            0.0
        },
        p50_ms,
        p99_ms,
    }
}

/// Runs one full ramp (stopping after the first collapsed point) and returns the
/// measured points, the knee index, and the p99 cap the ramp was judged against (derived
/// from the ramp's own baseline point).
fn run_ramp(combo: &Combo, intervals: &[u64], broadcasts: u32) -> (Vec<Point>, Option<usize>, f64) {
    let mut points: Vec<Point> = Vec::new();
    let mut cap = f64::INFINITY;
    for &interval in intervals {
        let point = run_point(combo, interval, broadcasts);
        if points.is_empty() {
            cap = (P99_CAP_FACTOR * point.p99_ms).max(P99_CAP_FLOOR_MS);
        }
        let collapsed =
            point.completed < point.effective || point.p99_ms.is_nan() || point.p99_ms > cap;
        println!(
            "#   {:>6} us  offered {:>8.1}/s  thr {:>8.1}/s  p50 {:>7.1} ms  p99 {:>7.1} ms  {}/{}{}",
            point.interval_micros,
            point.offered_per_sec,
            point.throughput_per_sec,
            point.p50_ms,
            point.p99_ms,
            point.completed,
            point.effective,
            if collapsed { "  << collapse" } else { "" },
        );
        points.push(point);
        if collapsed {
            break;
        }
    }
    let observations: Vec<KneeObservation> = points
        .iter()
        .map(|p| KneeObservation {
            all_completed: p.completed == p.effective,
            p99_ms: p.p99_ms,
        })
        .collect();
    (points, knee_index(&observations, cap), cap)
}

/// Renders one ramp as a JSON object: the knee summary plus the per-point curve.
fn ramp_json(points: &[Point], knee: Option<usize>, cap: f64) -> JsonObject {
    let mut obj = JsonObject::new();
    obj.f64("p99_cap_ms", cap, 3);
    match knee {
        Some(i) => {
            obj.f64("knee_offered_per_sec", points[i].offered_per_sec, 1)
                .f64("knee_throughput_per_sec", points[i].throughput_per_sec, 1)
                .f64("knee_p99_ms", points[i].p99_ms, 3);
        }
        None => {
            obj.f64("knee_offered_per_sec", 0.0, 1);
        }
    }
    // The ramp stops at the first collapsed point, so the ramp collapsed exactly when
    // the knee is not its last point.
    let collapsed = knee.map_or(!points.is_empty(), |i| i + 1 < points.len());
    obj.u64("points", points.len() as u64)
        .u64("collapsed", u64::from(collapsed));
    let mut curve = JsonObject::new();
    for p in points {
        let mut entry = JsonObject::new();
        entry
            .f64("offered_per_sec", p.offered_per_sec, 1)
            .f64("throughput_per_sec", p.throughput_per_sec, 1)
            .f64("p50_ms", p.p50_ms, 3)
            .f64("p99_ms", p.p99_ms, 3)
            .u64("completed", p.completed as u64)
            .u64("effective", p.effective as u64);
        curve.obj(&format!("interval_{}us", p.interval_micros), entry);
    }
    obj.obj("curve", curve);
    obj
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(&args);
    let out_path = out_path_from_args(&args, "BENCH_saturation.json");

    // Every ramp opens at 20 ms inter-arrival (50/s) — the unloaded baseline the p99
    // cap anchors to — then tightens with sub-2x steps so the knee lands within ~30%
    // of the true capacity instead of a coarse power-of-two bucket.
    let (broadcasts, intervals): (u32, &[u64]) = match scale {
        Scale::Quick => (
            128,
            &[20_000, 4_000, 2_000, 1_500, 1_000, 750, 500, 333, 250, 125],
        ),
        Scale::Paper => (
            256,
            &[
                20_000, 4_000, 2_000, 1_500, 1_000, 750, 500, 333, 250, 125, 60, 30,
            ],
        ),
    };

    // The two stacks the study compares: the paper's Bracha–Dolev on its Fig. 1
    // topology, and plain Bracha on the complete graph it requires.
    let stacks: Vec<(&str, StackSpec, Graph, Config)> = vec![
        (
            "bd",
            StackSpec::Bd,
            generate::figure1_example(),
            Config::bdopt_mbd1(10, 1),
        ),
        (
            "bracha",
            StackSpec::Bracha,
            generate::complete(10),
            Config::plain(10, 3),
        ),
    ];

    let mut doc = JsonObject::new();
    doc.str("bench", "saturation").obj("host", host()).str(
        "scale",
        if scale == Scale::Quick {
            "quick"
        } else {
            "paper"
        },
    );
    doc.u64("broadcasts_per_point", u64::from(broadcasts));

    for (stack_name, stack, graph, config) in &stacks {
        let mut stack_obj = JsonObject::new();
        for (backend, wire) in BACKENDS {
            println!("# saturation: stack={stack_name} backend={backend}");
            let combo = Combo {
                wire,
                graph,
                config: *config,
                stack: *stack,
            };
            let (points, knee, cap) = run_ramp(&combo, intervals, broadcasts);
            match knee {
                Some(i) => println!(
                    "#   knee: {:.1} broadcasts/s (p99 {:.1} ms, cap {:.1} ms)",
                    points[i].offered_per_sec, points[i].p99_ms, cap
                ),
                None => println!("#   knee: none (collapsed at the lowest rate)"),
            }
            stack_obj.obj(backend, ramp_json(&points, knee, cap));
        }
        doc.obj(stack_name, stack_obj);
    }

    write_and_echo(&out_path, &doc.render());
}
