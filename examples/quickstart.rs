//! Quickstart: Byzantine reliable broadcast on a partially connected network.
//!
//! Builds a random 7-regular communication graph over 30 processes (verified to be at
//! least 2f+1 = 7 vertex-connected for f = 3), runs one broadcast of a 1 KiB payload with
//! the paper's `BDopt + MBD.1` configuration under synchronous 50 ms links, and prints the
//! metrics the paper reports: latency, network consumption and message count.
//!
//! Run with: `cargo run --release --example quickstart`

use brb_core::config::Config;
use brb_core::stack::StackSpec;
use brb_graph::{connectivity, generate};
use brb_sim::{run_experiment, DelayModel, ExperimentParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let (n, k, f) = (30, 7, 3);
    println!("Generating a random {k}-regular graph over {n} processes...");
    let mut rng = StdRng::seed_from_u64(2024);
    let graph = generate::random_regular_connected(n, k, 2 * f + 1, &mut rng)
        .expect("a k-connected regular graph exists for these parameters");
    println!(
        "  vertex connectivity = {} (required: 2f+1 = {})",
        connectivity::vertex_connectivity(&graph),
        2 * f + 1
    );

    for (label, config) in [
        ("BDopt (state of the art)      ", Config::bdopt(n, f)),
        ("BDopt + MBD.1                 ", Config::bdopt_mbd1(n, f)),
        (
            "latency preset (MBD.1/2/7/8/9)",
            Config::latency_preset(n, f),
        ),
        (
            "bandwidth preset (1/7/8/9/11) ",
            Config::bandwidth_preset(n, f),
        ),
    ] {
        let params = ExperimentParams {
            n,
            connectivity: k,
            f,
            crashed: 0,
            payload_size: 1024,
            config,
            stack: StackSpec::Bd,
            delay: DelayModel::synchronous(),
            seed: 7,
            workload: None,
            behaviors: Vec::new(),
            churn: None,
            consensus: None,
        };
        let result = run_experiment(&params, &graph).result;
        println!(
            "{label}: latency = {:>8.1} ms | network = {:>9.1} kB | messages = {:>6} | delivered {}/{}",
            result.latency_ms.unwrap_or(f64::NAN),
            result.kilobytes(),
            result.messages,
            result.delivered,
            result.correct,
        );
    }
    println!("\nEvery correct process delivered the payload: BRB achieved on a partially connected network.");
}
