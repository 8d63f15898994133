//! Vertex connectivity and node-disjoint path counts.
//!
//! Dolev's reliable communication protocol requires the communication network to be at
//! least `(2f+1)`-vertex-connected: by Menger's theorem this guarantees `2f+1` internally
//! node-disjoint paths between every pair of processes, of which at least `f+1` traverse
//! only correct processes. This module provides the max-flow based machinery used to
//! *verify* these conditions on generated topologies:
//!
//! * [`local_connectivity`] — the maximum number of internally node-disjoint paths between
//!   two given nodes (Menger's local connectivity), computed with unit-capacity max-flow on
//!   the node-split graph;
//! * [`vertex_connectivity`] — the global vertex connectivity `κ(G)`;
//! * [`is_k_connected`] — a convenience predicate used by graph generators and tests.

use crate::graph::{Graph, ProcessId};

/// Maximum number of internally node-disjoint paths between `s` and `t` (local
/// connectivity `κ(s, t)` in Menger's sense).
///
/// A direct edge `{s, t}` counts as one path. Internal nodes of distinct paths must be
/// distinct; the endpoints are shared by construction.
///
/// # Panics
///
/// Panics if `s == t` or if either endpoint is out of range.
pub fn local_connectivity(g: &Graph, s: ProcessId, t: ProcessId) -> usize {
    assert!(s != t, "local connectivity is undefined for s == t");
    assert!(
        s < g.node_count() && t < g.node_count(),
        "node out of range"
    );
    FlowNetwork::node_split(g).max_flow(s, t, usize::MAX)
}

/// Global vertex connectivity `κ(G)`.
///
/// Conventions: graphs with at most one node have connectivity 0, the complete graph `K_n`
/// has connectivity `n - 1`, and disconnected graphs have connectivity 0.
///
/// The implementation uses the classic witness-set argument: since `κ(G) <= δ(G)` (the
/// minimum degree), any set of `δ(G) + 1` vertices contains at least one vertex that is
/// outside some minimum separator, so taking the minimum of `κ(v, u)` over those witnesses
/// `v` and all vertices `u` non-adjacent to them yields `κ(G)`.
pub fn vertex_connectivity(g: &Graph) -> usize {
    let n = g.node_count();
    if n <= 1 {
        return 0;
    }
    // Complete graph: κ = n - 1.
    if g.edge_count() == n * (n - 1) / 2 {
        return n - 1;
    }
    if !crate::traversal::is_connected(g) {
        return 0;
    }
    let delta = g.min_degree();
    let mut net = FlowNetwork::node_split(g);
    witness_pairs(g, delta + 1)
        .map(|(v, u)| net.max_flow(v, u, delta))
        .min()
        .unwrap_or(delta)
        .min(delta)
}

/// Returns whether the graph is at least `k`-vertex-connected.
///
/// Equivalent to `vertex_connectivity(g) >= k`, but cheaper. If `κ(G) < k`, a minimum
/// separator has fewer than `k` vertices, so the first `k` vertices (not `δ + 1`) already
/// contain a witness outside it, with a non-adjacent vertex across it; and each pair's
/// max-flow stops once `k` disjoint paths are found.
pub fn is_k_connected(g: &Graph, k: usize) -> bool {
    let n = g.node_count();
    if k == 0 {
        return true;
    }
    // κ <= n - 1, with equality exactly for complete graphs; κ <= δ.
    if n <= k || g.min_degree() < k {
        return false;
    }
    if g.edge_count() == n * (n - 1) / 2 {
        return true;
    }
    let mut net = FlowNetwork::node_split(g);
    witness_pairs(g, k).all(|(v, u)| net.max_flow(v, u, k) >= k)
}

/// The pairs `(v, u)` the witness-set argument checks: each of the first `witnesses`
/// vertices `v` with every non-adjacent `u`, each unordered pair once (`κ(v, u)` is
/// symmetric), in id order for determinism.
fn witness_pairs(g: &Graph, witnesses: usize) -> impl Iterator<Item = (ProcessId, ProcessId)> + '_ {
    let n = g.node_count();
    (0..witnesses.min(n))
        .flat_map(move |v| (v + 1..n).map(move |u| (v, u)))
        .filter(|&(v, u)| !g.has_edge(u, v))
}

/// Unit-capacity flow network obtained by node-splitting, used to compute node-disjoint
/// paths with Edmonds–Karp augmentation (capacities are tiny, so BFS augmentation is
/// more than fast enough for the paper's graph sizes).
///
/// The network does not depend on the pair it is queried for, so one network serves
/// every pair of a connectivity check: [`FlowNetwork::max_flow`] resets the capacities and
/// reuses the search buffers instead of rebuilding. [`FlowNetwork::decompose`] turns the
/// last flow into explicit paths ([`crate::paths::vertex_disjoint_paths`]).
pub(crate) struct FlowNetwork {
    /// `edges[i] = (to, cap)`; the reverse edge is at `i ^ 1`.
    edges: Vec<(usize, u32)>,
    /// Adjacency: indices into `edges` per node.
    adj: Vec<Vec<usize>>,
    /// Breadth-first search state, reused across augmentations and pairs.
    prev_edge: Vec<Option<usize>>,
    queue: std::collections::VecDeque<usize>,
}

impl FlowNetwork {
    /// Builds the node-split network: every node `v` becomes `v_in -> v_out` (`2v`,
    /// `2v + 1`) with capacity 1; every undirected edge `{u, v}` becomes `u_out -> v_in`
    /// and `v_out -> u_in` with capacity 1. A query from `s_out` to `t_in` never crosses
    /// `s`'s or `t`'s own split edge (it leaves the source side into `s_out`, or the sink
    /// side out of `t_in`), so the endpoints need no special capacity.
    pub(crate) fn node_split(g: &Graph) -> Self {
        let n = g.node_count();
        let mut net = FlowNetwork {
            edges: Vec::new(),
            adj: vec![Vec::new(); 2 * n],
            prev_edge: vec![None; 2 * n],
            queue: std::collections::VecDeque::new(),
        };
        for v in 0..n {
            net.add_edge(2 * v, 2 * v + 1);
        }
        for (u, v) in g.edges() {
            net.add_edge(2 * u + 1, 2 * v);
            net.add_edge(2 * v + 1, 2 * u);
        }
        net
    }

    fn add_edge(&mut self, from: usize, to: usize) {
        let idx = self.edges.len();
        self.edges.push((to, 1));
        self.edges.push((from, 0));
        self.adj[from].push(idx);
        self.adj[to].push(idx + 1);
    }

    /// Edmonds–Karp max flow from `s_out` to `t_in` — the number of internally
    /// node-disjoint `s`-`t` paths — stopping once it reaches `limit`.
    pub(crate) fn max_flow(&mut self, s: ProcessId, t: ProcessId, limit: usize) -> usize {
        for (i, edge) in self.edges.iter_mut().enumerate() {
            edge.1 = u32::from(i % 2 == 0);
        }
        let (source, sink) = (2 * s + 1, 2 * t);
        let mut total = 0usize;
        while total < limit {
            // BFS for an augmenting path; `prev_edge[source]` is a sentinel so the
            // source counts as reached.
            self.prev_edge.fill(None);
            self.prev_edge[source] = Some(usize::MAX);
            self.queue.clear();
            self.queue.push_back(source);
            while let Some(u) = self.queue.pop_front() {
                if u == sink {
                    break;
                }
                for &ei in &self.adj[u] {
                    let (to, cap) = self.edges[ei];
                    if cap > 0 && self.prev_edge[to].is_none() {
                        self.prev_edge[to] = Some(ei);
                        self.queue.push_back(to);
                    }
                }
            }
            if self.prev_edge[sink].is_none() {
                break;
            }
            // Unit capacities: every augmenting path carries exactly one unit.
            let mut v = sink;
            while v != source {
                let ei = self.prev_edge[v].expect("path reconstructed from reached sink");
                self.edges[ei].1 -= 1;
                self.edges[ei ^ 1].1 += 1;
                v = self.edges[ei ^ 1].0;
            }
            total += 1;
        }
        total
    }

    /// Follows the saturated inter-node edges of the last [`FlowNetwork::max_flow`]`(s,
    /// t, ..)` from `s_out`, yielding one node path per unit of flow. Cancelling flows
    /// cannot appear because every internal node has capacity 1.
    pub(crate) fn decompose(&self, s: ProcessId, t: ProcessId) -> Vec<Vec<ProcessId>> {
        // used[ei] marks forward inter-node edges already claimed by a path.
        let mut used = vec![false; self.edges.len()];
        let mut paths = Vec::new();
        loop {
            // Start a new path from the source if an unused saturated edge leaves it.
            let mut path = vec![s];
            let mut current = 2 * s + 1; // s_out
            let mut advanced = false;
            'walk: loop {
                for &ei in &self.adj[current] {
                    // Forward edges have even index; a saturated unit edge now has cap 0
                    // and its reverse has cap 1.
                    if ei % 2 != 0 || used[ei] {
                        continue;
                    }
                    let (to, cap) = self.edges[ei];
                    let reverse_cap = self.edges[ei ^ 1].1;
                    if cap == 0 && reverse_cap > 0 {
                        used[ei] = true;
                        let node = to / 2;
                        if node != *path.last().expect("path starts non-empty") {
                            path.push(node);
                        }
                        if node == t {
                            advanced = true;
                            break 'walk;
                        }
                        // Continue from node_out.
                        current = 2 * node + 1;
                        advanced = true;
                        continue 'walk;
                    }
                }
                break;
            }
            if !advanced || *path.last().expect("non-empty") != t {
                break;
            }
            debug_assert!(path.len() <= self.adj.len() / 2);
            paths.push(path);
        }
        paths
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn complete_graph_connectivity() {
        let g = generate::complete(6);
        assert_eq!(vertex_connectivity(&g), 5);
        assert!(is_k_connected(&g, 5));
        assert!(!is_k_connected(&g, 6));
    }

    #[test]
    fn ring_connectivity_is_two() {
        let g = generate::ring(8);
        assert_eq!(vertex_connectivity(&g), 2);
        assert!(is_k_connected(&g, 2));
        assert!(!is_k_connected(&g, 3));
    }

    #[test]
    fn path_graph_connectivity_is_one() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(vertex_connectivity(&g), 1);
    }

    #[test]
    fn disconnected_graph_connectivity_is_zero() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        assert_eq!(vertex_connectivity(&g), 0);
        assert!(is_k_connected(&g, 0));
        assert!(!is_k_connected(&g, 1));
    }

    #[test]
    fn singleton_and_empty_graphs() {
        assert_eq!(vertex_connectivity(&Graph::new(0)), 0);
        assert_eq!(vertex_connectivity(&Graph::new(1)), 0);
    }

    #[test]
    fn circulant_connectivity_matches_degree() {
        let g = generate::circulant(12, 2);
        assert_eq!(vertex_connectivity(&g), 4);
    }

    #[test]
    fn petersen_graph_is_three_connected() {
        let g = generate::figure1_example();
        assert_eq!(vertex_connectivity(&g), 3);
    }

    #[test]
    fn local_connectivity_adjacent_nodes_in_ring() {
        let g = generate::ring(6);
        // Adjacent nodes on a ring: the direct edge plus the long way round.
        assert_eq!(local_connectivity(&g, 0, 1), 2);
        // Opposite nodes: the two arcs.
        assert_eq!(local_connectivity(&g, 0, 3), 2);
    }

    #[test]
    fn local_connectivity_star_center_leaf() {
        // Star graph: center 0.
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(local_connectivity(&g, 0, 1), 1);
        assert_eq!(local_connectivity(&g, 1, 2), 1);
        assert_eq!(vertex_connectivity(&g), 1);
    }

    #[test]
    fn local_connectivity_complete_graph() {
        let g = generate::complete(5);
        assert_eq!(local_connectivity(&g, 0, 4), 4);
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn local_connectivity_same_node_panics() {
        let g = generate::complete(3);
        local_connectivity(&g, 1, 1);
    }

    #[test]
    fn local_connectivity_equals_menger_bound_on_cut() {
        // Two cliques of 4 joined by a 2-vertex cut {3, 4}.
        let mut g = generate::complete(4); // nodes 0..3
        let mut big = Graph::new(8);
        for (u, v) in g.edges() {
            big.add_edge(u, v);
        }
        for u in 4..8 {
            for v in (u + 1)..8 {
                big.add_edge(u, v);
            }
        }
        big.add_edge(3, 4);
        big.add_edge(2, 5);
        g = big;
        assert_eq!(local_connectivity(&g, 0, 7), 2);
        assert_eq!(vertex_connectivity(&g), 2);
    }

    /// κ by definition, by exhaustive search: the size of the smallest vertex set whose
    /// removal leaves the remaining vertices disconnected (`n - 1` when none does).
    fn connectivity_by_exhaustion(g: &Graph) -> usize {
        let n = g.node_count();
        let splits = |removed: u32| {
            let first = (0..n).find(|v| removed & (1 << v) == 0).expect("two kept");
            let mut seen = removed | (1 << first);
            let mut stack = vec![first];
            while let Some(u) = stack.pop() {
                for w in g.neighbors(u) {
                    if seen & (1 << w) == 0 {
                        seen |= 1 << w;
                        stack.push(w);
                    }
                }
            }
            seen != (1u32 << n) - 1
        };
        (0..n.saturating_sub(1))
            .find(|&size| (0u32..1 << n).any(|m| m.count_ones() as usize == size && splits(m)))
            .unwrap_or(n.saturating_sub(1))
    }

    fn family_graphs() -> Vec<(String, Graph)> {
        use crate::families::{bounded_degree_expander, geometric_random_graph, planar_grid};
        let mut graphs = vec![
            ("ring(10)".to_string(), generate::ring(10)),
            ("circulant(20, 3)".to_string(), generate::circulant(20, 3)),
            ("complete(7)".to_string(), generate::complete(7)),
            ("planar_grid(4, 5)".to_string(), planar_grid(4, 5)),
            ("planar_grid(5, 5)".to_string(), planar_grid(5, 5)),
        ];
        for radius in [0.45, 0.55, 0.6] {
            let g = geometric_random_graph(24, radius, 77);
            graphs.push((format!("geometric(24, {radius})"), g));
        }
        for (n, d, seed) in [(24, 4, 5), (24, 4, 9), (30, 6, 3)] {
            let g = bounded_degree_expander(n, d, seed).unwrap();
            graphs.push((format!("expander({n}, {d}, {seed})"), g));
        }
        graphs
    }

    #[test]
    fn is_k_connected_agrees_with_vertex_connectivity_on_every_family() {
        for (name, g) in family_graphs() {
            let kappa = vertex_connectivity(&g);
            for k in 0..=g.min_degree() + 1 {
                assert_eq!(is_k_connected(&g, k), kappa >= k, "{name}, k = {k}");
            }
        }
    }

    #[test]
    fn vertex_connectivity_is_the_minimum_separator_size() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut graphs = vec![
            generate::ring(8),
            generate::circulant(12, 2),
            generate::complete(6),
            generate::figure1_example(),
            crate::families::planar_grid(3, 4),
            crate::families::wheel(8),
            crate::families::star(6),
            Graph::from_edges(5, [(0, 1), (2, 3), (3, 4)]),
        ];
        for seed in 0..3 {
            graphs.push(crate::families::geometric_random_graph(12, 0.5, seed));
        }
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..40 {
            graphs.push(generate::gnp(11, 0.45, &mut rng));
        }
        // Cut vertex 6 behind the 2-cut {4, 5}: witness 0 meets the 2-cut first, so a
        // search that stops at the first pair below δ answers 2 here.
        let mut two_blocks = Graph::from_edges(
            12,
            [
                (0, 1),
                (0, 3),
                (0, 4),
                (0, 5),
                (1, 2),
                (1, 3),
                (1, 4),
                (1, 5),
            ],
        );
        for (u, v) in [(2, 3), (2, 4), (2, 5), (4, 5), (4, 6), (5, 6)] {
            two_blocks.add_edge(u, v);
        }
        for u in 6..12 {
            for v in u + 1..12 {
                two_blocks.add_edge(u, v);
            }
        }
        assert_eq!(vertex_connectivity(&two_blocks), 1);
        graphs.push(two_blocks);
        for g in &graphs {
            let kappa = connectivity_by_exhaustion(g);
            assert_eq!(vertex_connectivity(g), kappa, "{:?}", g.edges());
            for k in 0..=g.min_degree() + 1 {
                assert_eq!(is_k_connected(g, k), kappa >= k, "k = {k}: {:?}", g.edges());
            }
        }
    }

    #[test]
    fn random_regular_graphs_are_usually_degree_connected() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(123);
        let g = generate::random_regular_connected(20, 6, 6, &mut rng).unwrap();
        assert!(vertex_connectivity(&g) >= 6);
    }
}
