//! Bounded-memory study: the same seeded closed-loop workload at two scales (`B` and
//! `2B` broadcasts) with instance GC off and on, on all three backends — the
//! discrete-event simulator, the thread-per-process channel runtime and the TCP
//! deployment.
//!
//! Without GC every engine keeps the full per-broadcast machinery (Dolev path sets,
//! echo/ready tallies, delivered markers) forever, so the residual `state_bytes` after
//! the run grows linearly in the broadcast count: doubling `B` doubles it. With a
//! retention window (`GcPolicy::after_events`) delivered-and-quiesced instances retire
//! behind per-source watermarks, so the residual state is a function of the in-flight
//! window only — doubling `B` leaves it flat.
//!
//! The numbers in the README's "Bounded memory" section come from `--full` (under two
//! minutes of wall clock, most of it the TCP backend); the default scale finishes in
//! seconds and shows the same shape.
//!
//! Run with: `cargo run --release --example gc_memory_study [-- --full]`

use std::time::{Duration, Instant};

use brb_core::config::Config;
use brb_core::gc::GcPolicy;
use brb_core::stack::{DynStack, StackSpec};
use brb_core::Protocol;
use brb_graph::generate;
use brb_net::BACKENDS;
use brb_sim::workload::run_workload;
use brb_sim::{DelayModel, Simulation};
use brb_workload::WorkloadSpec;

/// Event-count retention window: generous against in-flight relays, tiny against a run.
const WINDOW: u64 = 512;

/// One (backend, gc, scale) measurement.
struct Sample {
    backend: &'static str,
    gc: bool,
    broadcasts: u32,
    secs: f64,
    state_bytes: usize,
    gc_retired: u64,
}

fn spec_for(broadcasts: u32) -> WorkloadSpec {
    WorkloadSpec::constant_rate(1_000, broadcasts)
        .closed_loop(8)
        .with_payload_bytes(128)
}

fn main() -> std::io::Result<()> {
    let full = std::env::args().any(|a| a == "--full");
    let base: u32 = if full { 2_000 } else { 200 };
    let n = 10;
    let seed = 77;
    let graph = generate::figure1_example();

    let mut samples = Vec::new();
    for gc in [false, true] {
        let mut config = Config::bdopt_mbd1(n, 1);
        if gc {
            config = config.with_gc(GcPolicy::after_events(WINDOW));
        }
        for broadcasts in [base, 2 * base] {
            let spec = spec_for(broadcasts);
            let timeout = Duration::from_secs(1_800);

            // 1. Discrete-event simulator through the encoded-frame DynStack path.
            let start = Instant::now();
            let processes: Vec<DynStack> = (0..n)
                .map(|i| StackSpec::Bd.build_protocol(&config, &graph, i))
                .collect();
            let mut sim = Simulation::new(processes, DelayModel::synchronous(), 1);
            let schedule = spec.schedule(n, seed);
            run_workload(&mut sim, &schedule, spec.mode);
            samples.push(Sample {
                backend: "sim",
                gc,
                broadcasts,
                secs: start.elapsed().as_secs_f64(),
                state_bytes: sim.processes().iter().map(|p| p.state_bytes()).sum(),
                gc_retired: sim.processes().iter().map(|p| p.gc_retired()).sum(),
            });

            // 2. and 3. Channel runtime and TCP sockets over loopback.
            for (backend, wire) in BACKENDS {
                let start = Instant::now();
                let (report, run) = brb_runtime::run_workload(
                    wire(&graph, &[])?,
                    &graph,
                    config,
                    StackSpec::Bd,
                    &spec,
                    seed,
                    timeout,
                );
                assert!(run.all_completed(), "{backend} incomplete: {run:?}");
                samples.push(Sample {
                    backend,
                    gc,
                    broadcasts,
                    secs: start.elapsed().as_secs_f64(),
                    state_bytes: report.nodes.iter().map(|node| node.state_bytes).sum(),
                    gc_retired: report.nodes.iter().map(|node| node.gc_retired).sum(),
                });
            }
        }
    }

    println!("backend  gc   broadcasts  secs      state_bytes  gc_retired");
    for s in &samples {
        println!(
            "{:<8} {:<4} {:<11} {:<9.2} {:<12} {}",
            s.backend,
            if s.gc { "on" } else { "off" },
            s.broadcasts,
            s.secs,
            s.state_bytes,
            s.gc_retired
        );
    }

    // The claim, checked per backend: GC off doubles residual state when the broadcast
    // count doubles; GC on keeps it flat (and strictly below the GC-off endpoint).
    for backend in ["sim", "channel", "tcp"] {
        let grab = |gc: bool, b: u32| {
            samples
                .iter()
                .find(|s| s.backend == backend && s.gc == gc && s.broadcasts == b)
                .map(|s| s.state_bytes)
                .unwrap()
        };
        let (off_1x, off_2x) = (grab(false, base), grab(false, 2 * base));
        let (on_1x, on_2x) = (grab(true, base), grab(true, 2 * base));
        assert!(
            off_2x as f64 > 1.8 * off_1x as f64,
            "{backend}: GC-off state must grow linearly ({off_1x} -> {off_2x})"
        );
        assert!(
            (on_2x as f64) < 1.5 * on_1x as f64,
            "{backend}: GC-on state must stay flat ({on_1x} -> {on_2x})"
        );
        assert!(
            on_2x < off_2x / 4,
            "{backend}: GC must undercut the baseline"
        );
        println!(
            "{backend}: GC off grows {off_1x} -> {off_2x} B; GC on stays {on_1x} -> {on_2x} B"
        );
    }
    Ok(())
}
