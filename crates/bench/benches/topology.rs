//! Criterion microbenchmarks of the topology substrate: the `k`-connectivity check (run
//! once per generated experiment graph to certify `k >= 2f+1`), vertex connectivity,
//! disjoint-route extraction (the planning step of the known-topology Dolev variant), and
//! the additional graph families used by the robustness tests.

use brb_graph::connectivity::{is_k_connected, vertex_connectivity};
use brb_graph::paths::{k_disjoint_routes, vertex_disjoint_paths};
use brb_graph::{families, generate};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `is_k_connected(g, k)`, the check that certifies experiment graphs, on the flagship
/// benchmark graph (100 nodes, 12-regular, `k = 2f + 1 = 11`) and on a sparse graph ten
/// times larger.
fn bench_k_connectivity_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("is_k_connected");
    for &(n, d, k, seed) in &[
        (100usize, 12usize, 11usize, 424_242u64),
        (1_000, 10, 9, 1_000),
    ] {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generate::random_regular_graph(n, d, &mut rng).expect("graph exists");
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_d{d}_k{k}")),
            &graph,
            |b, graph| b.iter(|| black_box(is_k_connected(graph, k))),
        );
    }
    group.finish();
}

/// `vertex_connectivity(g)`, the exact `κ` the examples and tests print.
fn bench_vertex_connectivity(c: &mut Criterion) {
    let mut group = c.benchmark_group("vertex_connectivity");
    for &(n, d) in &[(20usize, 5usize), (30, 7), (50, 9)] {
        let mut rng = StdRng::seed_from_u64(3);
        let graph = generate::random_regular_connected(n, d, 3, &mut rng).expect("graph exists");
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_d{d}")),
            &graph,
            |b, graph| b.iter(|| black_box(vertex_connectivity(graph))),
        );
    }
    group.finish();
}

fn bench_disjoint_route_extraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("disjoint_route_extraction");
    for &(n, d, f) in &[(20usize, 5usize, 2usize), (50, 9, 4)] {
        let mut rng = StdRng::seed_from_u64(11);
        let graph =
            generate::random_regular_connected(n, d, 2 * f + 1, &mut rng).expect("graph exists");
        group.bench_with_input(
            BenchmarkId::new("all_pairs_from_source", format!("n{n}_d{d}_f{f}")),
            &graph,
            |b, graph| {
                b.iter(|| {
                    // The planning work one origin performs under the routed Dolev variant.
                    let mut total_hops = 0usize;
                    for dest in 1..graph.node_count() {
                        for route in k_disjoint_routes(graph, 0, dest, 2 * f + 1) {
                            total_hops += route.len() - 1;
                        }
                    }
                    black_box(total_hops)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("single_pair_maximum_set", format!("n{n}_d{d}")),
            &graph,
            |b, graph| {
                b.iter(|| black_box(vertex_disjoint_paths(graph, 0, graph.node_count() - 1).len()))
            },
        );
    }
    group.finish();
}

fn bench_graph_families(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_families");
    group.bench_function("harary_5_50", |b| {
        b.iter(|| black_box(families::harary(5, 50).unwrap().edge_count()))
    });
    group.bench_function("generalized_wheel_3_47", |b| {
        b.iter(|| black_box(families::generalized_wheel(3, 47).edge_count()))
    });
    group.bench_function("watts_strogatz_50_6", |b| {
        b.iter_with_setup(
            || StdRng::seed_from_u64(5),
            |mut rng| {
                black_box(
                    families::watts_strogatz(50, 6, 0.1, &mut rng)
                        .unwrap()
                        .edge_count(),
                )
            },
        )
    });
    group.bench_function("barabasi_albert_50_3", |b| {
        b.iter_with_setup(
            || StdRng::seed_from_u64(5),
            |mut rng| {
                black_box(
                    families::barabasi_albert(50, 3, &mut rng)
                        .unwrap()
                        .edge_count(),
                )
            },
        )
    });
    group.finish();
}

fn fast_config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = fast_config();
    targets = bench_k_connectivity_check, bench_vertex_connectivity, bench_disjoint_route_extraction, bench_graph_families
}
criterion_main!(benches);
