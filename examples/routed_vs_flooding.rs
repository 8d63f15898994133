//! Routed versus flooding reliable communication under a Bracha layer.
//!
//! The paper's protocols deliberately assume an *unknown* topology and therefore flood
//! (Dolev's flooding variant, made practical by MD.1–5 and MBD.1–12). When the topology is
//! known, Dolev's other variant routes every content along 2f+1 precomputed node-disjoint
//! paths instead. This example runs the same broadcast through three stacks on the same
//! random regular graph and compares simulated latency, network consumption and message
//! counts:
//!
//! * plain Bracha–Dolev (no optimisations) — the state of the art before Bonomi et al.;
//! * BDopt + MBD.1 — the paper's headline configuration;
//! * Bracha over routed Dolev — the known-topology alternative implemented in this
//!   repository as an extension.
//!
//! Run with: `cargo run --release --example routed_vs_flooding`

use brb_core::bracha_rc::BrachaOverRc;
use brb_core::config::Config;
use brb_core::dolev_routed::RoutedDolev;
use brb_core::types::{BroadcastId, Payload};
use brb_core::BdProcess;
use brb_graph::generate;
use brb_sim::{DelayModel, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // Small enough that the *unoptimised* flooding combination still terminates in
    // seconds; its growth with the number of simple paths is exactly the practicality
    // problem the paper addresses.
    let (n, k, f) = (12, 4, 1);
    let payload_size = 1024;
    let mut rng = StdRng::seed_from_u64(11);
    let graph = generate::random_regular_connected(n, k, 2 * f + 1, &mut rng)
        .expect("a k-connected regular graph exists for these parameters");
    println!("Topology: random {k}-regular graph, N = {n}, f = {f}, payload {payload_size} B\n");

    let id = BroadcastId::new(0, 0);
    let mut rows = Vec::new();

    for (label, config) in [
        ("flooding, plain Bracha-Dolev", Config::plain(n, f)),
        ("flooding, BDopt + MBD.1     ", Config::bdopt_mbd1(n, f)),
    ] {
        let processes: Vec<BdProcess> = (0..n)
            .map(|i| BdProcess::new(i, config, graph.neighbors_vec(i)))
            .collect();
        let mut sim = Simulation::new(processes, DelayModel::synchronous(), 3);
        sim.broadcast(0, Payload::filled(1, payload_size));
        sim.run_to_quiescence();
        let correct = sim.correct_processes();
        rows.push((
            label,
            sim.metrics()
                .latency(id, &correct)
                .map(|t| t.as_millis_f64()),
            sim.metrics().kilobytes_sent(),
            sim.metrics().messages_sent,
        ));
    }

    let routed: Vec<BrachaOverRc<RoutedDolev>> = (0..n)
        .map(|i| BrachaOverRc::new(n, f, RoutedDolev::new(i, f, graph.clone())))
        .collect();
    let mut sim = Simulation::new(routed, DelayModel::synchronous(), 3);
    sim.broadcast(0, Payload::filled(1, payload_size));
    sim.run_to_quiescence();
    let correct = sim.correct_processes();
    rows.push((
        "routed Dolev under Bracha   ",
        sim.metrics()
            .latency(id, &correct)
            .map(|t| t.as_millis_f64()),
        sim.metrics().kilobytes_sent(),
        sim.metrics().messages_sent,
    ));

    println!(
        "{:<30} {:>12} {:>14} {:>10}",
        "stack", "latency (ms)", "network (kB)", "messages"
    );
    let mut undelivered = Vec::new();
    for (label, latency, kilobytes, messages) in rows {
        let Some(latency) = latency else {
            println!("{label:<30} {:>12} {kilobytes:>14.1} {messages:>10}", "-");
            undelivered.push(label.trim_end());
            continue;
        };
        println!("{label:<30} {latency:>12.1} {kilobytes:>14.1} {messages:>10}");
    }
    println!(
        "\nThe unoptimised flooding stack pays for topology ignorance with message volume. \
         Topology knowledge alone (routed Dolev) removes that explosion without any of the \
         MD/MBD machinery, but it still carries the payload in every route copy; the \
         paper's MBD.1 payload elision is what wins on bytes. The two approaches are \
         complementary: MBD.1-style local IDs could be applied to the routed variant as \
         well."
    );
    if !undelivered.is_empty() {
        eprintln!("\nsome correct process did not deliver under: {undelivered:?}");
        std::process::exit(1);
    }
}
