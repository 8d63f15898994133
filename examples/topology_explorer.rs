//! Topology explorer: characterises candidate communication graphs and checks whether they
//! can support Byzantine reliable broadcast for a given fault budget.
//!
//! Dolev's protocol (and therefore the Bracha–Dolev combination) needs the communication
//! network to be at least `2f+1`-vertex-connected. This example builds a handful of
//! topology families — the paper's random regular graphs, minimum-edge Harary graphs,
//! wheels and hub-and-spoke generalized wheels, tori, planar grids, geometric random
//! graphs and bounded-degree expanders — and prints for each one its size and degree
//! range, its vertex connectivity, the largest fault budget it supports, and a sample of
//! the disjoint routes the known-topology Dolev variant would precompute. It exits
//! non-zero if a sampled pair has fewer than `k` disjoint routes (Menger's theorem says it
//! has at least `k`).
//!
//! Run with: `cargo run --release --example topology_explorer`

use brb_graph::paths::k_disjoint_routes;
use brb_graph::{connectivity, families, generate, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn report(label: &str, graph: &Graph) {
    let kappa = connectivity::vertex_connectivity(graph);
    let max_f = if kappa == 0 { 0 } else { (kappa - 1) / 2 };
    let quorum_f = if graph.node_count() == 0 {
        0
    } else {
        (graph.node_count() - 1) / 3
    };
    let supported_f = max_f.min(quorum_f);
    let degrees = || graph.nodes().map(|v| graph.degree(v));
    println!("== {label}");
    println!(
        "   n = {}, m = {}, degree {}..={}",
        graph.node_count(),
        graph.edge_count(),
        degrees().min().unwrap_or(0),
        degrees().max().unwrap_or(0)
    );
    println!(
        "   vertex connectivity k = {kappa}; supports f <= {supported_f} \
         (connectivity allows {max_f}, quorums allow {quorum_f})"
    );
    if kappa <= 1 {
        println!("   WARNING: k = {kappa} — a single Byzantine process can partition this network");
    }
    if graph.node_count() >= 2 && kappa > 0 {
        let routes = k_disjoint_routes(graph, 0, graph.node_count() - 1, kappa);
        // Menger: a k-connected graph joins every pair by k internally disjoint paths.
        assert_eq!(routes.len(), kappa, "{label}: fewer disjoint routes than k");
        println!(
            "   disjoint routes 0 -> {}: {:?}",
            graph.node_count() - 1,
            routes
        );
    }
    println!();
}

fn main() {
    let mut rng = StdRng::seed_from_u64(42);

    let random_regular = generate::random_regular_connected(20, 7, 7, &mut rng)
        .expect("a 7-connected 7-regular graph over 20 nodes exists");
    report(
        "Random 7-regular graph, N = 20 (the paper's family)",
        &random_regular,
    );

    report(
        "Petersen graph (Fig. 1 of the paper)",
        &generate::figure1_example(),
    );

    report(
        "Harary graph H_{5,20} (minimum edges for k = 5)",
        &families::harary(5, 20).expect("feasible"),
    );

    report(
        "Generalized wheel W(3, 17) (hub-and-spoke, k = 5)",
        &families::generalized_wheel(3, 17),
    );

    report("4x5 torus (k = 4)", &families::grid(4, 5, true));

    report("Wheel W_12 (k = 3)", &families::wheel(12));

    report(
        "5x5 planar grid (triangulated, k = 3)",
        &families::planar_grid(5, 5),
    );

    report(
        "Geometric random graph (N = 24, radius 0.55)",
        &families::geometric_random_graph(24, 0.55, 77),
    );

    report(
        "Bounded-degree expander (N = 24, d = 4)",
        &families::bounded_degree_expander(24, 4, 5).expect("feasible"),
    );

    report(
        "Star graph (unusable: hub is a single point of failure)",
        &families::star(20),
    );
}
