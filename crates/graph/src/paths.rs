//! Extraction of internally node-disjoint paths.
//!
//! [`crate::connectivity`] only *counts* disjoint paths (that is all Dolev's flooding
//! variant needs), but Dolev's **known-topology** variant routes every message along a
//! fixed set of `2f+1` internally node-disjoint routes computed in advance. This module
//! extracts those routes: [`vertex_disjoint_paths`] returns an explicit maximum set of
//! internally node-disjoint `s → t` paths by decomposing a unit-capacity node-split
//! max-flow.

use crate::connectivity::FlowNetwork;
use crate::graph::{Graph, ProcessId};

/// Returns a maximum-cardinality set of internally node-disjoint paths from `s` to `t`.
///
/// Each returned path starts with `s`, ends with `t`, and lists every intermediate node in
/// order. A direct edge `{s, t}` yields the two-node path `[s, t]`. Distinct paths share no
/// intermediate node. The number of returned paths equals
/// [`crate::connectivity::local_connectivity`]`(g, s, t)`.
///
/// Paths are returned sorted by their node sequence so the output is deterministic.
///
/// # Panics
///
/// Panics if `s == t` or either endpoint is out of range.
pub fn vertex_disjoint_paths(g: &Graph, s: ProcessId, t: ProcessId) -> Vec<Vec<ProcessId>> {
    assert!(s != t, "disjoint paths are undefined for s == t");
    assert!(
        s < g.node_count() && t < g.node_count(),
        "node out of range"
    );
    let mut net = FlowNetwork::node_split(g);
    net.max_flow(s, t, usize::MAX);
    let mut paths = net.decompose(s, t);
    paths.sort();
    paths
}

/// Returns up to `k` internally node-disjoint paths from `s` to `t`, preferring shorter
/// paths first.
///
/// This is the route-selection step of the known-topology Dolev variant: a source that
/// needs `2f+1` routes calls this with `k = 2f+1`. If the graph offers fewer than `k`
/// disjoint paths all of them are returned, so callers must check the length of the result
/// against their fault assumption.
pub fn k_disjoint_routes(g: &Graph, s: ProcessId, t: ProcessId, k: usize) -> Vec<Vec<ProcessId>> {
    let mut all = vertex_disjoint_paths(g, s, t);
    all.sort_by_key(|p| (p.len(), p.clone()));
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::local_connectivity;
    use crate::families;
    use crate::generate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Asserts the structural invariants of a disjoint path set.
    fn assert_valid_disjoint(g: &Graph, s: ProcessId, t: ProcessId, paths: &[Vec<ProcessId>]) {
        let mut seen_internal = std::collections::BTreeSet::new();
        for p in paths {
            assert!(p.len() >= 2, "a path has at least two nodes");
            assert_eq!(p[0], s);
            assert_eq!(*p.last().unwrap(), t);
            for w in p.windows(2) {
                assert!(g.has_edge(w[0], w[1]), "edge {:?} missing", w);
            }
            for &node in &p[1..p.len() - 1] {
                assert!(
                    seen_internal.insert(node),
                    "internal node {node} reused across paths"
                );
                assert!(node != s && node != t);
            }
        }
    }

    #[test]
    fn complete_graph_paths_match_connectivity() {
        let g = generate::complete(6);
        let paths = vertex_disjoint_paths(&g, 0, 5);
        assert_eq!(paths.len(), 5);
        assert_valid_disjoint(&g, 0, 5, &paths);
    }

    #[test]
    fn ring_has_exactly_two_paths() {
        let g = generate::circulant(8, 1);
        let paths = vertex_disjoint_paths(&g, 0, 4);
        assert_eq!(paths.len(), 2);
        assert_valid_disjoint(&g, 0, 4, &paths);
        // The two arcs of the ring.
        assert!(paths.contains(&vec![0, 1, 2, 3, 4]));
        assert!(paths.contains(&vec![0, 7, 6, 5, 4]));
    }

    #[test]
    fn direct_edge_is_a_two_node_path() {
        let g = generate::complete(3);
        let paths = vertex_disjoint_paths(&g, 0, 1);
        assert!(paths.contains(&vec![0, 1]));
        assert_eq!(paths.len(), 2);
    }

    #[test]
    fn petersen_graph_has_three_disjoint_paths_between_any_pair() {
        let g = generate::figure1_example();
        for s in 0..10 {
            for t in (s + 1)..10 {
                let paths = vertex_disjoint_paths(&g, s, t);
                assert_eq!(paths.len(), 3, "pair ({s}, {t})");
                assert_valid_disjoint(&g, s, t, &paths);
            }
        }
    }

    #[test]
    fn path_count_matches_local_connectivity_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(2024);
        for seed in 0..5u64 {
            let _ = seed;
            let g = generate::random_regular_connected(16, 5, 5, &mut rng).unwrap();
            for &(s, t) in &[(0usize, 8usize), (1, 15), (3, 12)] {
                let paths = vertex_disjoint_paths(&g, s, t);
                assert_eq!(paths.len(), local_connectivity(&g, s, t));
                assert_valid_disjoint(&g, s, t, &paths);
            }
        }
    }

    #[test]
    fn harary_graph_paths_are_tight() {
        let g = families::harary(5, 11).unwrap();
        let paths = vertex_disjoint_paths(&g, 0, 5);
        assert_eq!(paths.len(), 5);
        assert_valid_disjoint(&g, 0, 5, &paths);
    }

    #[test]
    fn disconnected_pair_has_no_paths() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        assert!(vertex_disjoint_paths(&g, 0, 3).is_empty());
    }

    #[test]
    fn k_disjoint_routes_truncates_and_prefers_short_paths() {
        let g = generate::complete(6);
        let routes = k_disjoint_routes(&g, 0, 5, 3);
        assert_eq!(routes.len(), 3);
        // The direct edge is the shortest possible route and must be kept.
        assert_eq!(routes[0], vec![0, 5]);
        let all = k_disjoint_routes(&g, 0, 5, 100);
        assert_eq!(all.len(), 5);
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn same_endpoints_panic() {
        let g = generate::complete(3);
        let _ = vertex_disjoint_paths(&g, 1, 1);
    }
}
