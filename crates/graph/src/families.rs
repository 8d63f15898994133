//! Additional topology families beyond the paper's random regular graphs.
//!
//! The paper's evaluation (Sec. 7.1) only uses random regular graphs, but a reusable
//! library for Byzantine reliable broadcast on partially connected networks needs a richer
//! set of topologies, for three reasons:
//!
//! * **Worst-case connectivity**: Harary graphs `H_{k,n}` are the `k`-vertex-connected
//!   graphs with the minimum possible number of edges, so they stress Dolev's disjoint-path
//!   verification far more than a random regular graph of the same connectivity.
//! * **Structured deployments**: grids, tori and (generalized) wheels model sensor fields
//!   and hub-and-spoke overlays, the kinds of deployments the paper's introduction
//!   motivates (e.g. temperature monitoring).
//! * **Sparse and loosely connected networks**: planar grids, geometric random graphs and
//!   bounded-degree expanders are the regimes of Maurer & Tixeuil's planar and loosely
//!   connected networks (PAPERS.md), where connectivity is local and degrees stay small.
//!
//! All generators produce simple undirected [`Graph`]s and are deterministic for a fixed
//! seed where randomness is involved.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::generate::GenerateError;
use crate::graph::{Graph, ProcessId};

/// Path graph `P_n`: nodes `0 — 1 — ... — n-1`. Vertex connectivity 1 for `n >= 2`.
pub fn path(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for u in 1..n {
        g.add_edge(u - 1, u);
    }
    g
}

/// Star graph `S_n`: node 0 is connected to every other node. Vertex connectivity 1.
///
/// The star is the canonical topology on which reliable communication with `f >= 1`
/// Byzantine processes is impossible (removing the hub disconnects the graph), which makes
/// it useful for negative tests.
pub fn star(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for u in 1..n {
        g.add_edge(0, u);
    }
    g
}

/// Wheel graph `W_n`: a hub (node 0) connected to every node of a cycle over nodes
/// `1..n`. Vertex connectivity 3 for `n >= 5`.
pub fn wheel(n: usize) -> Graph {
    assert!(n >= 4, "a wheel needs at least 4 nodes");
    let mut g = star(n);
    for i in 1..n {
        let next = if i + 1 < n { i + 1 } else { 1 };
        g.add_edge(i, next);
    }
    g
}

/// Generalized wheel `W(m, r)`: `m` hub nodes forming a clique, each connected to every
/// node of a rim cycle of length `r`.
///
/// Generalized wheels are the classic family of *minimally* `(m+2)`-vertex-connected
/// graphs used in the reliable-communication literature: the vertex connectivity is exactly
/// `m + 2` (for `r >= 4`), so a generalized wheel with `m = 2f - 1` hubs is a tight
/// `(2f+1)`-connected topology for Dolev's protocol.
///
/// Nodes `0..m` are the hubs; nodes `m..m+r` are the rim.
///
/// # Panics
///
/// Panics if `m == 0` or `r < 3`.
pub fn generalized_wheel(m: usize, r: usize) -> Graph {
    assert!(m >= 1, "a generalized wheel needs at least one hub");
    assert!(r >= 3, "the rim must be a cycle of length at least 3");
    let n = m + r;
    let mut g = Graph::new(n);
    // Hub clique.
    for u in 0..m {
        for v in (u + 1)..m {
            g.add_edge(u, v);
        }
    }
    // Rim cycle.
    for i in 0..r {
        g.add_edge(m + i, m + ((i + 1) % r));
    }
    // Spokes.
    for u in 0..m {
        for i in 0..r {
            g.add_edge(u, m + i);
        }
    }
    g
}

/// Two-dimensional grid of `rows x cols` nodes; with `wrap = true` the grid becomes a
/// torus (every node has degree 4, vertex connectivity 4 for large enough dimensions).
///
/// Node `(r, c)` has identifier `r * cols + c`.
pub fn grid(rows: usize, cols: usize, wrap: bool) -> Graph {
    let n = rows * cols;
    let mut g = Graph::new(n);
    let id = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(id(r, c), id(r, c + 1));
            } else if wrap && cols > 2 {
                g.add_edge(id(r, c), id(r, 0));
            }
            if r + 1 < rows {
                g.add_edge(id(r, c), id(r + 1, c));
            } else if wrap && rows > 2 {
                g.add_edge(id(r, c), id(0, c));
            }
        }
    }
    g
}

/// Planar grid: a `rows x cols` grid with one diagonal per face, alternating in
/// orientation like a checkerboard — still planar (each diagonal lies inside its own
/// face) but strictly better connected than the plain grid, whose connectivity 2 is
/// below the `f + 1` threshold any single-fault scenario needs.
///
/// Node `(r, c)` has identifier `r * cols + c`, like [`grid`]. The face at `(r, c)` gets
/// the diagonal `(r, c) — (r+1, c+1)` when `r + c` is even and `(r, c+1) — (r+1, c)`
/// when odd. Planar graphs are the sparsest family in "On Byzantine Broadcast in Planar
/// Graphs" (see PAPERS.md); this is the deterministic member used by the churn golden
/// scenarios.
///
/// # Panics
///
/// Panics if either dimension is smaller than 2 (no face to triangulate).
pub fn planar_grid(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 2 && cols >= 2, "a planar grid needs a face");
    let mut g = grid(rows, cols, false);
    let id = |r: usize, c: usize| r * cols + c;
    for r in 0..rows - 1 {
        for c in 0..cols - 1 {
            if (r + c).is_multiple_of(2) {
                g.add_edge(id(r, c), id(r + 1, c + 1));
            } else {
                g.add_edge(id(r, c + 1), id(r + 1, c));
            }
        }
    }
    g
}

/// Geometric random graph `G(n, radius)`: `n` points drawn uniformly in the unit square
/// (a pure function of `(n, radius, seed)`), with an edge between every pair at
/// Euclidean distance at most `radius`.
///
/// The standard model of ad-hoc wireless / sensor deployments — the "loosely connected
/// networks" regime of PAPERS.md, where connectivity is local and partitions are a
/// radius away. Connectivity is *not* guaranteed; callers needing a floor verify with
/// [`crate::connectivity::is_k_connected`] and re-seed.
pub fn geometric_random_graph(n: usize, radius: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    // Fixed draw order (x then y per node) makes the embedding part of the function.
    let points: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let mut g = Graph::new(n);
    let r2 = radius * radius;
    for u in 0..n {
        for v in (u + 1)..n {
            let dx = points[u].0 - points[v].0;
            let dy = points[u].1 - points[v].1;
            if dx * dx + dy * dy <= r2 {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// Bounded-degree expander: the union of `d/2` independent seeded Hamiltonian cycles
/// over `n` nodes (a pure function of `(n, d, seed)`).
///
/// Unions of random Hamiltonian cycles are expanders with high probability while keeping
/// every degree at most `d` — the bounded-degree regime of "Simulating Authenticated
/// Broadcast in Networks of Bounded Degree" (PAPERS.md), where broadcast must work
/// without the dense quorums of complete graphs. Coinciding cycle edges are merged (the
/// graph is simple), so degrees can fall slightly below `d`.
///
/// # Errors
///
/// Returns [`GenerateError::InfeasibleRegular`] if `d` is odd, zero, or `>= n`.
pub fn bounded_degree_expander(n: usize, d: usize, seed: u64) -> Result<Graph, GenerateError> {
    if d == 0 || !d.is_multiple_of(2) || d >= n {
        return Err(GenerateError::InfeasibleRegular { n, degree: d });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    let mut order: Vec<ProcessId> = (0..n).collect();
    for _ in 0..d / 2 {
        order.shuffle(&mut rng);
        for i in 0..n {
            g.add_edge(order[i], order[(i + 1) % n]);
        }
    }
    Ok(g)
}

/// Harary graph `H_{k,n}`: the `k`-vertex-connected graph over `n` nodes with the minimum
/// possible number of edges (`⌈k·n/2⌉`).
///
/// Harary graphs are the worst case for protocols whose cost decreases with spare
/// connectivity: they give exactly the `2f+1` disjoint paths Dolev's protocol needs and
/// not one more.
///
/// # Errors
///
/// Returns [`GenerateError::InfeasibleConnectivity`] if `k >= n` or `k == 0`.
pub fn harary(k: usize, n: usize) -> Result<Graph, GenerateError> {
    if k == 0 || k >= n {
        return Err(GenerateError::InfeasibleConnectivity { n, connectivity: k });
    }
    let mut g = Graph::new(n);
    let half = k / 2;
    // Circulant core with offsets 1..=⌊k/2⌋.
    for u in 0..n {
        for off in 1..=half {
            g.add_edge(u, (u + off) % n);
        }
    }
    if k % 2 == 1 {
        if n.is_multiple_of(2) {
            // Odd k, even n: add diameters i — i + n/2.
            for u in 0..n / 2 {
                g.add_edge(u, u + n / 2);
            }
        } else {
            // Odd k, odd n: add near-diameters i — i + (n+1)/2 for 0 <= i <= (n-1)/2.
            for u in 0..=(n - 1) / 2 {
                g.add_edge(u, (u + n.div_ceil(2)) % n);
            }
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::{is_k_connected, vertex_connectivity};
    use crate::traversal::is_connected;

    #[test]
    fn path_and_star_have_connectivity_one() {
        assert_eq!(vertex_connectivity(&path(6)), 1);
        assert_eq!(vertex_connectivity(&star(6)), 1);
        assert_eq!(path(6).edge_count(), 5);
        assert_eq!(star(6).edge_count(), 5);
    }

    #[test]
    fn wheel_is_three_connected() {
        let g = wheel(8);
        assert_eq!(vertex_connectivity(&g), 3);
        assert_eq!(g.degree(0), 7);
        assert_eq!(g.degree(1), 3);
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn wheel_too_small_panics() {
        let _ = wheel(3);
    }

    #[test]
    fn generalized_wheel_connectivity_is_hubs_plus_two() {
        for m in 1..=3 {
            let g = generalized_wheel(m, 6);
            assert_eq!(
                vertex_connectivity(&g),
                m + 2,
                "W({m}, 6) should be {}-connected",
                m + 2
            );
        }
    }

    #[test]
    fn generalized_wheel_suits_dolev_for_f() {
        // A generalized wheel with 2f-1 hubs is exactly (2f+1)-connected.
        let f = 2;
        let g = generalized_wheel(2 * f - 1, 8);
        assert_eq!(vertex_connectivity(&g), 2 * f + 1);
    }

    #[test]
    fn grid_without_wrap_has_connectivity_two() {
        let g = grid(4, 5, false);
        assert_eq!(g.node_count(), 20);
        assert_eq!(vertex_connectivity(&g), 2);
    }

    #[test]
    fn torus_has_connectivity_four() {
        let g = grid(4, 5, true);
        assert_eq!(vertex_connectivity(&g), 4);
        assert!(g.nodes().all(|u| g.degree(u) == 4));
    }

    #[test]
    fn small_grid_with_wrap_does_not_duplicate_edges() {
        // 2 columns with wrap would duplicate edges; the generator must not.
        let g = grid(2, 2, true);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn planar_grid_pins_counts_and_connectivity() {
        // rows*(cols-1) + cols*(rows-1) grid edges plus one diagonal per face.
        let g = planar_grid(4, 5);
        assert_eq!(g.node_count(), 20);
        assert_eq!(g.edge_count(), 31 + 12);
        // With an even row count the bottom-left corner keeps degree 2.
        assert_eq!(vertex_connectivity(&g), 2);
        // The 5x5 planar grid (the churn golden-scenario topology) is 3-connected:
        // every corner picks up a diagonal.
        let g = planar_grid(5, 5);
        assert_eq!(g.node_count(), 25);
        assert_eq!(g.edge_count(), 40 + 16);
        assert!(is_k_connected(&g, 3));
        assert_eq!(vertex_connectivity(&g), 3);
    }

    #[test]
    #[should_panic(expected = "needs a face")]
    fn planar_grid_needs_two_rows_and_columns() {
        let _ = planar_grid(1, 5);
    }

    #[test]
    fn geometric_random_graph_pins_fixed_seeds() {
        // A pure function of (n, radius, seed): the pinned values double as the
        // cross-platform determinism check for the vendored StdRng draws.
        let g = geometric_random_graph(24, 0.45, 77);
        assert_eq!(g.node_count(), 24);
        assert_eq!(g.edge_count(), 102);
        assert!(is_connected(&g));
        assert!(!is_k_connected(&g, 2), "radius 0.45 leaves a cut vertex");
        let g = geometric_random_graph(24, 0.55, 77);
        assert_eq!(g.edge_count(), 139);
        assert!(is_k_connected(&g, 3));
        assert!(!is_k_connected(&g, 4));
        let g = geometric_random_graph(24, 0.6, 77);
        assert_eq!(g.edge_count(), 155);
        assert!(is_k_connected(&g, 4), "a wider radius buys connectivity");
    }

    #[test]
    fn geometric_random_graph_is_a_pure_function_of_its_seed() {
        let a = geometric_random_graph(20, 0.5, 9);
        let b = geometric_random_graph(20, 0.5, 9);
        assert_eq!(a.edges(), b.edges());
        let c = geometric_random_graph(20, 0.5, 10);
        assert_ne!(a.edges(), c.edges(), "a different seed moves the points");
    }

    #[test]
    fn bounded_degree_expander_pins_fixed_seeds() {
        // d/2 Hamiltonian cycles: at most n*d/2 edges, fewer when cycle edges coincide.
        let g = bounded_degree_expander(24, 4, 5).unwrap();
        assert_eq!(g.node_count(), 24);
        assert_eq!(
            g.edge_count(),
            45,
            "three cycle edges coincide at this seed"
        );
        assert!(g.nodes().all(|u| g.degree(u) <= 4));
        assert!(is_k_connected(&g, 3));
        assert_eq!(vertex_connectivity(&g), 3);
        let g = bounded_degree_expander(24, 4, 9).unwrap();
        assert_eq!(g.edge_count(), 48, "disjoint cycles at this seed");
        assert_eq!(vertex_connectivity(&g), 4);
        let g = bounded_degree_expander(30, 6, 3).unwrap();
        assert_eq!(g.edge_count(), 85);
        assert_eq!(vertex_connectivity(&g), 4);
    }

    #[test]
    fn bounded_degree_expander_is_deterministic_and_validates() {
        let a = bounded_degree_expander(20, 4, 1).unwrap();
        let b = bounded_degree_expander(20, 4, 1).unwrap();
        assert_eq!(a.edges(), b.edges());
        assert!(bounded_degree_expander(20, 3, 1).is_err(), "odd degree");
        assert!(bounded_degree_expander(20, 0, 1).is_err());
        assert!(bounded_degree_expander(4, 4, 1).is_err(), "d must be < n");
    }

    #[test]
    fn harary_graphs_have_exact_connectivity_and_minimum_edges() {
        for &(k, n) in &[(2usize, 7usize), (3, 8), (3, 9), (4, 10), (5, 10), (5, 11)] {
            let g = harary(k, n).unwrap();
            assert_eq!(
                vertex_connectivity(&g),
                k,
                "H_{{{k},{n}}} must be exactly {k}-connected"
            );
            assert_eq!(
                g.edge_count(),
                (k * n).div_ceil(2),
                "H_{{{k},{n}}} must have ⌈k·n/2⌉ edges"
            );
        }
    }

    #[test]
    fn harary_rejects_infeasible_parameters() {
        assert!(harary(0, 5).is_err());
        assert!(harary(5, 5).is_err());
        assert!(harary(6, 5).is_err());
    }
}
