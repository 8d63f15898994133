//! Ablation benchmark across protocol stacks: the same broadcast, on the same topology and
//! fault assumption, executed by
//!
//! * the plain Bracha–Dolev combination (no MD/MBD optimisations),
//! * BDopt (MD.1–5) and BDopt + MBD.1 (the paper's baseline and headline configuration),
//! * Bracha over routed (known-topology) Dolev, and
//! * Bracha over CPA (locally bounded fault model, on a topology where its condition holds).
//!
//! Wall-clock time here measures the *computational* cost of a full simulated broadcast
//! (message handling, path bookkeeping, quorum counting), complementing the harnesses that
//! report simulated latency and bandwidth.

use brb_core::bracha_rc::BrachaOverRc;
use brb_core::config::Config;
use brb_core::cpa::CpaProcess;
use brb_core::dolev_routed::RoutedDolev;
use brb_core::types::Payload;
use brb_core::BdProcess;
use brb_graph::{generate, Graph};
use brb_sim::{DelayModel, Simulation};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

// Kept deliberately small: the plain (unoptimised) Bracha–Dolev combination is part of the
// comparison, and its message count grows with the number of simple paths in the topology,
// which explodes beyond this size (that explosion is precisely the paper's motivation).
const N: usize = 12;
const K: usize = 4;
const F: usize = 1;
const PAYLOAD: usize = 256;

fn topology() -> Graph {
    let mut rng = StdRng::seed_from_u64(7);
    generate::random_regular_connected(N, K, 2 * F + 1, &mut rng).expect("topology exists")
}

fn run_bd(graph: &Graph, config: Config) -> usize {
    let processes: Vec<BdProcess> = (0..N)
        .map(|i| BdProcess::new(i, config, graph.neighbors_vec(i)))
        .collect();
    let mut sim = Simulation::new(processes, DelayModel::synchronous(), 1);
    sim.broadcast(0, Payload::filled(1, PAYLOAD));
    sim.run_to_quiescence();
    sim.metrics().messages_sent
}

fn bench_bd_configurations(c: &mut Criterion) {
    let graph = topology();
    let mut group = c.benchmark_group("stack_ablation_bd");
    for (label, config) in [
        ("plain_bracha_dolev", Config::plain(N, F)),
        ("bdopt_md1_5", Config::bdopt(N, F)),
        ("bdopt_mbd1", Config::bdopt_mbd1(N, F)),
        ("lat_bdw_preset", Config::latency_bandwidth_preset(N, F)),
    ] {
        group.bench_function(label, |b| b.iter(|| black_box(run_bd(&graph, config))));
    }
    group.finish();
}

fn bench_routed_stack(c: &mut Criterion) {
    let graph = topology();
    c.bench_function("stack_ablation_bracha_routed_dolev", |b| {
        b.iter(|| {
            let processes: Vec<BrachaOverRc<RoutedDolev>> = (0..N)
                .map(|i| BrachaOverRc::new(N, F, RoutedDolev::new(i, F, graph.clone())))
                .collect();
            let mut sim = Simulation::new(processes, DelayModel::synchronous(), 1);
            sim.broadcast(0, Payload::filled(1, PAYLOAD));
            sim.run_to_quiescence();
            black_box(sim.metrics().messages_sent)
        })
    });
}

fn bench_cpa_stack(c: &mut Criterion) {
    // CPA needs its local condition; run it on a complete graph of the same size, which is
    // its natural best case, as a lower-bound comparison point.
    let graph = generate::complete(N);
    c.bench_function("stack_ablation_bracha_cpa_complete", |b| {
        b.iter(|| {
            let processes: Vec<BrachaOverRc<CpaProcess>> = (0..N)
                .map(|i| BrachaOverRc::new(N, F, CpaProcess::new(i, N, F, graph.neighbors_vec(i))))
                .collect();
            let mut sim = Simulation::new(processes, DelayModel::synchronous(), 1);
            sim.broadcast(0, Payload::filled(1, PAYLOAD));
            sim.run_to_quiescence();
            black_box(sim.metrics().messages_sent)
        })
    });
}

fn fast_config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3))
}

criterion_group! {
    name = benches;
    config = fast_config();
    targets = bench_bd_configurations, bench_routed_stack, bench_cpa_stack
}
criterion_main!(benches);
