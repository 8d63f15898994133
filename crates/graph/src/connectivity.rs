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
//! * [`is_k_connected`] — whether `κ(G) >= k`, by Even's check below; generators and
//!   experiments certify `k >= 2f+1` with it;
//! * [`vertex_connectivity`] — the global vertex connectivity `κ(G)`, the largest `k` that
//!   passes [`is_k_connected`].
//!
//! # Even's check
//!
//! S. Even (SIAM J. Comput. 1975) decides `κ(G) >= k` for `n > k` with at most
//! `k(k-1)/2 + (n-k)` max-flows of at most `k` augmentations each, over the vertices in
//! id order `v_0, v_1, ...`:
//!
//! 1. `κ(v_i, v_j) >= k` for every non-adjacent pair among `v_0..v_{k-1}`;
//! 2. for each `j >= k`, `k` internally disjoint paths lead from `v_j` to the set
//!    `{v_0..v_{j-1}}`: a flow into one super-sink, joined to `v_i` as `j` passes `i`.
//!
//! A `k`-connected graph passes both (Menger; the fan lemma). Conversely, let `S`, with
//! `|S| < k`, separate `G`, let `A` be the component of `G - S` holding the first vertex
//! outside `S`, and let `v_j` be the first vertex outside `S ∪ A`. If `j < k`, `S`
//! separates `v_j` from a vertex of `A` before it, which phase 1 checks. If `j >= k`,
//! every `v_i` before `v_j` lies in `S ∪ A`, so each path from `v_j` to them meets `S`:
//! fewer than `k` are disjoint and phase 2 fails at `j`.
//!
//! Phase 2 searches from `v_j` towards the sink. Once most of `v_j`'s neighbours come
//! before it, an augmenting search reaches the sink in three hops (`v_j`, a neighbour,
//! the sink) instead of scanning the graph, so the late searches, most of them, are short.
//! The check is exact, so it answers as any other exact check would: the graphs that
//! generators and experiments accept do not depend on how it is computed.

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

/// Global vertex connectivity `κ(G)`: the largest `k` for which [`is_k_connected`] holds.
///
/// Conventions: graphs with at most one node have connectivity 0, the complete graph `K_n`
/// has connectivity `n - 1`, and disconnected graphs have connectivity 0.
///
/// `κ(G) <= δ(G)` and [`is_k_connected`] is monotone in `k`, so a binary search over
/// `0..=δ(G)` finds it.
pub fn vertex_connectivity(g: &Graph) -> usize {
    let (mut lo, mut hi) = (0, g.min_degree());
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if is_k_connected(g, mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// Returns whether the graph is at least `k`-vertex-connected, by Even's check (see the
/// [module docs](crate::connectivity)): phase 1 checks each non-adjacent pair among the
/// first `k` vertices, phase 2 the fan from each later vertex to a super-sink joined to
/// the vertices before it, which a late vertex reaches in a few hops. Each max-flow stops
/// at `k` paths. The answer is exactly `κ(G) >= k`.
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
    let phase1 = (0..k).all(|j| (0..j).all(|i| g.has_edge(i, j) || net.max_flow(i, j, k) >= k));
    if !phase1 {
        return false;
    }
    // The super-sink is a vertex `n` past the graph's, joined by `v_i_out -> sink_in`.
    net.adj.resize(2 * n + 2, Vec::new());
    net.prev_edge.resize(2 * n + 2, None);
    (0..k).for_each(|i| net.add_edge(2 * i + 1, 2 * n));
    (k..n).all(|j| {
        let fan = net.max_flow(j, n, k);
        net.add_edge(2 * j + 1, 2 * n);
        fan >= k
    })
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
        #[cfg(test)]
        tests::count_work(1, 0);
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
                #[cfg(test)]
                tests::count_work(0, 1);
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
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;

    #[test]
    fn complete_graph_connectivity() {
        let g = generate::complete(6);
        assert_eq!(vertex_connectivity(&g), 5);
        assert!(is_k_connected(&g, 5));
        assert!(!is_k_connected(&g, 6));
    }

    #[test]
    fn ring_connectivity_is_two() {
        let g = generate::circulant(8, 1);
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
        let g = generate::circulant(6, 1);
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

    thread_local! {
        /// `(max_flow calls, BFS pops)` made on this thread.
        static WORK: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
    }

    pub(super) fn count_work(flows: usize, pops: usize) {
        WORK.with(|w| {
            let (f, p) = w.get();
            w.set((f + flows, p + pops));
        });
    }

    /// `check`'s answer with the `(max_flow calls, BFS pops)` it made.
    fn counted(check: impl FnOnce() -> bool) -> (bool, usize, usize) {
        WORK.with(|w| w.set((0, 0)));
        let answer = check();
        let (flows, pops) = WORK.with(Cell::get);
        (answer, flows, pops)
    }

    /// κ by definition, by exhaustive search: the size of the smallest vertex set whose
    /// removal leaves the remaining vertices disconnected. Only sets smaller than `δ` are
    /// tried: `κ <= δ`, as removing a vertex's neighbours cuts it off unless the graph is
    /// complete, where `κ = n - 1 = δ`.
    fn connectivity_by_exhaustion(g: &Graph) -> usize {
        let n = g.node_count();
        assert!(n < 32, "vertex sets are u32 masks");
        let delta = g.min_degree();
        let adj: Vec<u32> = (0..n)
            .map(|v| g.neighbors(v).fold(0, |m, w| m | 1 << w))
            .collect();
        let splits = |removed: u32| {
            let mut reach = 1u32 << (!removed).trailing_zeros();
            loop {
                let (mut next, mut frontier) = (reach, reach);
                while frontier != 0 {
                    next |= adj[frontier.trailing_zeros() as usize];
                    frontier &= frontier - 1;
                }
                next &= !removed;
                if next == reach {
                    return reach | removed != (1u32 << n) - 1;
                }
                reach = next;
            }
        };
        (0u32..1 << n)
            .filter(|m| (m.count_ones() as usize) < delta && splits(*m))
            .map(|m| m.count_ones() as usize)
            .min()
            .unwrap_or(delta)
    }

    fn family_graphs() -> Vec<(String, Graph)> {
        use crate::families::{bounded_degree_expander, geometric_random_graph, planar_grid};
        let mut graphs = vec![
            ("circulant(10, 1)".to_string(), generate::circulant(10, 1)),
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
        let mut graphs = vec![
            generate::circulant(8, 1),
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
        let mut rng = StdRng::seed_from_u64(123);
        let g = generate::random_regular_connected(20, 6, 6, &mut rng).unwrap();
        assert!(vertex_connectivity(&g) >= 6);
    }

    /// `g` with vertex `v` renamed `perm[v]`.
    fn relabel(g: &Graph, perm: &[ProcessId]) -> Graph {
        Graph::from_edges(
            g.node_count(),
            g.edges().into_iter().map(|(u, v)| (perm[u], perm[v])),
        )
    }

    /// Cliques `A` (the first `a` of `ids`) and `B` (the rest after `S`) joined through a
    /// clique `S` of the next `k - 1` ids, adjacent to all: `κ = k - 1`, by `S` alone.
    fn two_cliques_through(k: usize, a: usize, ids: &[ProcessId]) -> Graph {
        let (a, rest) = ids.split_at(a);
        let (sep, b) = rest.split_at(k - 1);
        let mut g = Graph::new(ids.len());
        for part in [a, b] {
            for (i, &u) in part.iter().enumerate() {
                part[i + 1..].iter().for_each(|&v| g.add_edge(u, v));
                sep.iter().for_each(|&v| g.add_edge(u, v));
            }
        }
        for (i, &u) in sep.iter().enumerate() {
            sep[i + 1..].iter().for_each(|&v| g.add_edge(u, v));
        }
        g
    }

    #[test]
    fn is_k_connected_matches_exhaustion_under_any_labelling() {
        let mut rng = StdRng::seed_from_u64(45);
        let mut graphs = Vec::new();
        for n in 10..=14 {
            for p in [0.3, 0.45, 0.6, 0.75] {
                graphs.extend((0..14).map(|_| generate::gnp(n, p, &mut rng)));
            }
        }
        for d in 3..=6 {
            for _ in 0..40 {
                graphs.push(generate::random_regular_graph(16, d, &mut rng).unwrap());
            }
        }
        // Disjoint unions of two dense random graphs.
        for _ in 0..60 {
            let (left, right): (usize, usize) = (rng.gen_range(4..8), rng.gen_range(4..8));
            let mut g = generate::gnp(left + right, 0.8, &mut rng);
            for u in 0..left {
                for v in left..left + right {
                    g.remove_edge(u, v);
                }
            }
            graphs.push(g);
        }
        for k in 2..=5 {
            for side in 2..=4 {
                let n = 2 * side + k - 1;
                // Only phase 1 sees this `S`: `v_0` is in `A`, `v_1` in `B`, then comes
                // `S`, so each later vertex has direct edges to `v_0` or `v_1` and to all
                // of `S`, `k` disjoint paths in phase 2.
                let mut ids: Vec<ProcessId> = vec![0];
                ids.extend(k + 1..k + side);
                ids.extend(2..=k);
                ids.push(1);
                ids.extend(k + side..n);
                graphs.push(two_cliques_through(k, side, &ids));
                // Only phase 2 sees this `S`: it cuts off the highest ids, and the first
                // `k` ids form the clique `A`.
                let ids: Vec<ProcessId> = (0..2 * k - 1 + side).collect();
                graphs.push(two_cliques_through(k, k, &ids));
            }
        }
        assert!(graphs.len() >= 500, "{} graphs", graphs.len());
        for g in &graphs {
            let kappa = connectivity_by_exhaustion(g);
            assert_eq!(vertex_connectivity(g), kappa, "{:?}", g.edges());
            let mut perm: Vec<ProcessId> = (0..g.node_count()).collect();
            perm.shuffle(&mut rng);
            for h in [g.clone(), relabel(g, &perm)] {
                for k in 0..=h.min_degree() + 1 {
                    assert_eq!(
                        is_k_connected(&h, k),
                        kappa >= k,
                        "k = {k}: {:?}",
                        h.edges()
                    );
                }
            }
        }
    }

    #[test]
    fn even_check_work_is_bounded_on_the_flagship_graph() {
        // The flagship benchmark graph: 12-regular on 100 nodes from its historical graph
        // seed, certified 11-connected (f = 5).
        let g =
            generate::random_regular_graph(100, 12, &mut StdRng::seed_from_u64(424_242)).unwrap();
        let (n, k) = (100, 11);
        let (connected, flows, pops) = counted(|| is_k_connected(&g, k));
        assert!(connected);
        // Even's check makes 136 max-flows and 140 166 pops here.
        assert!(flows <= k * (k - 1) / 2 + (n - k), "{flows} max-flows");
        assert!(pops <= 150_000, "{pops} BFS pops");
    }

    #[test]
    fn even_check_work_is_bounded_at_a_thousand_nodes() {
        // A sparse graph ten times the flagship's size: 10-regular, certified 9-connected.
        let g =
            generate::random_regular_graph(1_000, 10, &mut StdRng::seed_from_u64(1_000)).unwrap();
        let (n, k) = (1_000, 9);
        let (connected, flows, pops) = counted(|| is_k_connected(&g, k));
        assert!(connected);
        // Even's check makes 1 027 max-flows and 1 569 593 pops here.
        assert!(flows <= k * (k - 1) / 2 + (n - k), "{flows} max-flows");
        assert!(pops <= 1_700_000, "{pops} BFS pops");
    }
}
