//! One workload spec, three backends: the `brb-workload` traffic engine end to end.
//!
//! Expands a Poisson/Zipf [`WorkloadSpec`] into its deterministic injection schedule and
//! drives the *same* schedule through the discrete-event simulator, the channel runtime
//! and the TCP deployment, printing per-backend delivery totals plus the simulator's
//! throughput and latency percentiles (the deployments run unpaced, so their wall-clock
//! numbers are not comparable and only the delivery sets are checked).
//!
//! Run with: `cargo run --release --example firehose`

use std::time::Duration;

use brb_core::config::Config;
use brb_core::stack::{DynStack, StackSpec};
use brb_graph::generate;
use brb_net::BACKENDS;
use brb_sim::workload::{run_workload, workload_stats};
use brb_sim::{DelayModel, Simulation};
use brb_workload::{SourceSelection, WorkloadSpec};

fn main() -> std::io::Result<()> {
    let n = 10;
    let seed = 7;
    let stack = StackSpec::Bd;
    let graph = generate::figure1_example();
    let config = Config::bdopt_mbd1(n, 1);
    // 32 broadcasts, Poisson arrivals with a 5 ms mean gap (dozens in flight at once),
    // Zipf-skewed sources: a few hot processes carry most of the traffic.
    let spec = WorkloadSpec::poisson(5_000, 32)
        .with_sources(SourceSelection::Zipf { exponent: 1.2 })
        .with_payload_bytes(256);
    let expected = spec.schedule(n, seed).len();
    println!("firehose: {expected} broadcasts, stack={stack}, N={n} (Figure 1 topology)");
    println!();

    // 1. Discrete-event simulator: virtual time, full metrics.
    let processes: Vec<DynStack> = (0..n)
        .map(|i| stack.build_protocol(&config, &graph, i))
        .collect();
    let mut sim = Simulation::new(processes, DelayModel::synchronous(), seed);
    let schedule = spec.schedule(n, seed);
    run_workload(&mut sim, &schedule, spec.mode);
    let correct = sim.correct_processes();
    let stats = workload_stats(sim.metrics(), &correct);
    assert!(stats.all_completed(), "sim must complete the workload");
    println!(
        "sim      : {}/{} broadcasts completed, {:.1} bc/s, p50 {:.0} ms, p90 {:.0} ms, p99 {:.0} ms",
        stats.completed,
        stats.injected,
        stats.throughput_per_sec(),
        stats.p50_ms(),
        stats.p90_ms(),
        stats.p99_ms(),
    );

    // 2. and 3. Channel runtime and TCP sockets over loopback: real threads, the same
    //    schedule via the generator driver.
    for (backend, wire) in BACKENDS {
        let (report, run) = brb_runtime::run_workload(
            wire(&graph, &[])?,
            &graph,
            config,
            stack,
            &spec,
            seed,
            Duration::from_secs(60),
        );
        assert!(run.all_completed(), "{backend} must complete: {run:?}");
        println!(
            "{backend:<9}: {}/{} broadcasts completed, {} deliveries, {} messages, {} bytes",
            run.completed,
            run.effective,
            run.deliveries_seen,
            report.total_messages(),
            report.total_bytes()
        );
        // Every backend delivered the same broadcasts everywhere.
        for node in &report.nodes {
            assert_eq!(node.deliveries.len(), expected);
        }
    }
    println!();
    println!("all three backends delivered all {expected} broadcasts at every process");
    Ok(())
}
