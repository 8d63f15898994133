//! Any stack, any backend: the `brb_core::stack` API in one example.
//!
//! Picks a protocol stack by name (`--stack NAME`, or every stack when omitted) and runs
//! the *same* broadcast through the three execution back ends — the deterministic
//! discrete-event simulator, the thread-per-process channel runtime, and real TCP sockets
//! over loopback — printing the delivery count and Table 3 byte accounting of each.
//!
//! Run with: `cargo run --release --example any_stack -- --stack bracha-routed-dolev`

use std::time::Duration;

use brb_core::config::Config;
use brb_core::stack::{DynStack, StackSpec};
use brb_core::types::Payload;
use brb_graph::generate;
use brb_net::BACKENDS;
use brb_runtime::run_broadcast;
use brb_sim::{DelayModel, Simulation};

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let chosen: Vec<StackSpec> = match args.iter().position(|a| a == "--stack") {
        Some(i) => {
            let name = args.get(i + 1).expect("--stack takes a name");
            vec![name.parse().unwrap_or_else(|e| panic!("{e}"))]
        }
        None => StackSpec::ALL.to_vec(),
    };

    let n = 10;
    println!("stack                 backend   delivered   messages      bytes");
    println!("--------------------------------------------------------------");
    for stack in chosen {
        // Bracha's system model needs a fully connected topology; every other stack runs
        // on the paper's Figure 1 example graph (3-connected, 10 processes).
        let graph = if stack.requires_full_connectivity() {
            generate::complete(n)
        } else {
            generate::figure1_example()
        };
        // The CPA stacks reuse `f` as the local fault bound `t`; t = 0 floods.
        let config = match stack {
            StackSpec::Cpa | StackSpec::BrachaCpa => Config::plain(n, 0),
            StackSpec::Bracha => Config::plain(n, 3),
            _ => Config::bdopt_mbd1(n, 1),
        };
        let payload = Payload::filled(0x5A, 256);

        // Simulator: the boxed engine behind the Protocol adapter.
        let processes: Vec<DynStack> = (0..n)
            .map(|i| stack.build_protocol(&config, &graph, i))
            .collect();
        let mut sim = Simulation::new(processes, DelayModel::synchronous(), 1);
        sim.broadcast(0, payload.clone());
        sim.run_to_quiescence();
        let delivered = sim
            .processes()
            .iter()
            .filter(|p| !brb_core::Protocol::deliveries(*p).is_empty())
            .count();
        println!(
            "{:<21} {:<9} {:>9}   {:>8} {:>10}",
            stack.name(),
            "sim",
            delivered,
            sim.metrics().messages_sent,
            sim.metrics().bytes_sent
        );

        // Channel runtime and TCP deployment: one OS thread per process, over
        // crossbeam channels or real loopback sockets.
        for (backend, wire) in BACKENDS {
            let report = run_broadcast(
                wire(&graph, &[])?,
                &graph,
                config,
                stack,
                payload.clone(),
                0,
                Duration::from_secs(20),
            );
            println!(
                "{:<21} {:<9} {:>9}   {:>8} {:>10}",
                stack.name(),
                backend,
                report
                    .nodes
                    .iter()
                    .filter(|node| !node.deliveries.is_empty())
                    .count(),
                report.total_messages(),
                report.total_bytes()
            );
        }
    }
    println!("\nOne engine API, three backends: every stack is one flag away.");
    Ok(())
}
