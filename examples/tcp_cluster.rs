//! A miniature cluster over real TCP sockets.
//!
//! The paper benchmarks its C++ implementation with one node per Docker container and TCP
//! connections as authenticated channels. This example reproduces that deployment shape at
//! laptop scale: 13 protocol nodes in one OS process, one loopback TCP connection per edge
//! of a 4-regular communication graph, one crashed node, and one broadcast of a 1 KiB
//! payload with the paper's bandwidth-oriented configuration.
//!
//! Run with: `cargo run --release --example tcp_cluster`

use std::time::{Duration, Instant};

use brb_core::config::Config;
use brb_core::stack::StackSpec;
use brb_core::types::Payload;
use brb_graph::{connectivity, generate};
use brb_net::{tcp_links, DriverOptions, TcpDeployment};
use brb_runtime::run_broadcast;
use brb_sim::DelayModel;
use brb_transport::LinkDelay;

fn main() -> std::io::Result<()> {
    let (n, f) = (13, 1);
    let graph = generate::circulant(n, 2); // 4-regular, 4-connected
    println!(
        "Topology: circulant C_{n}(1,2), vertex connectivity {} (need {} for f = {f})",
        connectivity::vertex_connectivity(&graph),
        2 * f + 1
    );

    // One-shot convenience API.
    let crashed = [7usize];
    println!("\n[1] One broadcast with a crashed node (process 7), immediate links:");
    let start = Instant::now();
    let report = run_broadcast(
        tcp_links(&graph, &crashed)?,
        &graph,
        Config::bandwidth_preset(n, f),
        StackSpec::Bd,
        Payload::filled(0xAB, 1024),
        0,
        Duration::from_secs(30),
    );
    let elapsed = start.elapsed();
    let delivered = report
        .nodes
        .iter()
        .filter(|node| !node.deliveries.is_empty())
        .count();
    println!(
        "    delivered at {delivered}/{} correct nodes in {:.0} ms wall-clock",
        n - crashed.len(),
        elapsed.as_secs_f64() * 1000.0
    );
    println!(
        "    network consumption: {:.1} kB over {} messages",
        report.total_bytes() as f64 / 1000.0,
        report.total_messages()
    );

    // Long-lived deployment: several broadcasts from different sources over the same
    // sockets, with an artificial uniform 5-7 ms per-message delay to make the wall-clock
    // latency visible (the paper uses 50 ms; scaled down to keep the example fast).
    println!("\n[2] Long-lived deployment, three broadcasts, 5-7 ms per-message delay:");
    let options = DriverOptions::default().with_link_delay(LinkDelay::Scaled {
        model: DelayModel::Uniform {
            min_micros: 5_000,
            max_micros: 7_000,
        },
        scale: 1.0,
    });
    let deployment = TcpDeployment::start(
        &graph,
        Config::latency_preset(n, f),
        StackSpec::Bd,
        options,
        &[],
    )?;
    for source in [0usize, 4, 9] {
        let start = Instant::now();
        deployment.broadcast(source, Payload::filled(source as u8, 256));
        let seen = deployment.await_deliveries(n, Duration::from_secs(30));
        println!(
            "    broadcast from {source}: {seen}/{n} deliveries observed in {:.0} ms",
            start.elapsed().as_secs_f64() * 1000.0
        );
    }
    let report = deployment.shutdown();
    println!(
        "    totals: {:.1} kB, {} messages",
        report.total_bytes() as f64 / 1000.0,
        report.total_messages()
    );
    println!(
        "\nSame engine, same wire format, real sockets: the simulator's predictions carry over."
    );
    Ok(())
}
