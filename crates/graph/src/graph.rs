//! Undirected graph representation used as the communication topology.

use std::collections::BTreeSet;
use std::fmt;

/// Identifier of a process (a node of the communication graph).
///
/// Processes are identified by dense indices `0..N`, mirroring the paper's
/// `Π = {p_1, ..., p_N}` with globally known IDs.
pub type ProcessId = usize;

/// An undirected, simple communication graph.
///
/// Nodes are processes, edges are authenticated point-to-point channels. Two processes can
/// directly exchange messages if and only if an edge connects them; all other communication
/// must be relayed by intermediary (possibly Byzantine) processes.
///
/// The representation keeps a sorted adjacency set per node so that neighbor iteration is
/// deterministic, which keeps the discrete-event simulation reproducible for a fixed seed.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    adjacency: Vec<BTreeSet<ProcessId>>,
}

impl Graph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Self {
            adjacency: vec![BTreeSet::new(); n],
        }
    }

    /// Creates a graph with `n` nodes from an edge list.
    ///
    /// Self-loops are ignored; duplicate edges are collapsed.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (ProcessId, ProcessId)>) -> Self {
        let mut g = Self::new(n);
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Number of nodes (processes) in the graph.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of undirected edges in the graph.
    pub fn edge_count(&self) -> usize {
        self.adjacency.iter().map(BTreeSet::len).sum::<usize>() / 2
    }

    /// Iterator over all node identifiers, in increasing order.
    pub fn nodes(&self) -> impl Iterator<Item = ProcessId> + '_ {
        0..self.node_count()
    }

    /// Adds the undirected edge `{u, v}`. Adding an existing edge or a self-loop is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is not a valid node.
    pub fn add_edge(&mut self, u: ProcessId, v: ProcessId) {
        assert!(u < self.node_count(), "node {u} out of range");
        assert!(v < self.node_count(), "node {v} out of range");
        if u == v {
            return;
        }
        self.adjacency[u].insert(v);
        self.adjacency[v].insert(u);
    }

    /// Removes the undirected edge `{u, v}` if present. Returns whether an edge was removed.
    pub fn remove_edge(&mut self, u: ProcessId, v: ProcessId) -> bool {
        if u >= self.node_count() || v >= self.node_count() {
            return false;
        }
        let removed = self.adjacency[u].remove(&v);
        self.adjacency[v].remove(&u);
        removed
    }

    /// Returns whether the undirected edge `{u, v}` is present.
    pub fn has_edge(&self, u: ProcessId, v: ProcessId) -> bool {
        self.adjacency
            .get(u)
            .map(|s| s.contains(&v))
            .unwrap_or(false)
    }

    /// Neighbors of `u`, in increasing order of identifier.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a valid node.
    pub fn neighbors(&self, u: ProcessId) -> impl Iterator<Item = ProcessId> + '_ {
        self.adjacency[u].iter().copied()
    }

    /// Neighbors of `u` collected into a vector (convenience for protocol layers).
    pub fn neighbors_vec(&self, u: ProcessId) -> Vec<ProcessId> {
        self.adjacency[u].iter().copied().collect()
    }

    /// Degree (number of direct neighbors) of `u`.
    pub fn degree(&self, u: ProcessId) -> usize {
        self.adjacency[u].len()
    }

    /// Minimum degree over all nodes, or 0 for an empty graph.
    ///
    /// The vertex connectivity of a graph never exceeds its minimum degree, which makes
    /// this a cheap upper bound used by [`crate::connectivity::vertex_connectivity`].
    pub fn min_degree(&self) -> usize {
        self.adjacency.iter().map(BTreeSet::len).min().unwrap_or(0)
    }

    /// All undirected edges `(u, v)` with `u < v`, in lexicographic order.
    pub fn edges(&self) -> Vec<(ProcessId, ProcessId)> {
        let mut out = Vec::with_capacity(self.edge_count());
        for u in self.nodes() {
            for &v in &self.adjacency[u] {
                if u < v {
                    out.push((u, v));
                }
            }
        }
        out
    }

    /// Returns the subgraph induced by removing the given nodes (used when checking
    /// separators during connectivity certification in tests).
    pub fn without_nodes(&self, removed: &BTreeSet<ProcessId>) -> Graph {
        let mut g = Graph::new(self.node_count());
        for (u, v) in self.edges() {
            if !removed.contains(&u) && !removed.contains(&v) {
                g.add_edge(u, v);
            }
        }
        g
    }
}

/// A compressed (CSR-style) snapshot of a graph's adjacency, built **once per run**.
///
/// [`Graph`] stores one `BTreeSet` per node, which is convenient while a topology is being
/// generated or mutated but costs a tree walk every time a neighbor list is materialised.
/// Simulation runs query neighbor lists for every process of every run of a sweep, so the
/// experiment runner flattens the adjacency into a single `targets` array with per-node
/// `offsets` and hands out `&[ProcessId]` slices instead of walking the sets again.
///
/// Neighbor slices preserve the deterministic increasing order of [`Graph::neighbors`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborIndex {
    offsets: Vec<usize>,
    targets: Vec<ProcessId>,
}

impl NeighborIndex {
    /// Builds the index from a graph in one pass over its adjacency.
    pub fn new(graph: &Graph) -> Self {
        let n = graph.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(2 * graph.edge_count());
        offsets.push(0);
        for u in 0..n {
            targets.extend(graph.adjacency[u].iter().copied());
            offsets.push(targets.len());
        }
        Self { offsets, targets }
    }

    /// Number of nodes indexed.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Neighbors of `u` in increasing order, as a borrowed slice.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a valid node.
    pub fn neighbors(&self, u: ProcessId) -> &[ProcessId] {
        &self.targets[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Degree of `u`.
    pub fn degree(&self, u: ProcessId) -> usize {
        self.offsets[u + 1] - self.offsets[u]
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count())
            .finish()
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "graph with {} nodes:", self.node_count())?;
        for u in self.nodes() {
            let ns: Vec<String> = self.neighbors(u).map(|v| v.to_string()).collect();
            writeln!(f, "  {} -- [{}]", u, ns.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_no_edges() {
        let g = Graph::new(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.min_degree(), 0);
        assert!(g.edges().is_empty());
    }

    #[test]
    fn add_and_query_edges() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors_vec(1), vec![0, 2]);
    }

    #[test]
    fn duplicate_edges_and_self_loops_are_ignored() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(2, 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn remove_edge_works() {
        let mut g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn from_edges_builds_expected_graph() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3), (1, 2)]);
        assert_eq!(g.edges(), vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn without_nodes_removes_incident_edges() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let removed: BTreeSet<_> = [1].into_iter().collect();
        let h = g.without_nodes(&removed);
        assert!(!h.has_edge(0, 1));
        assert!(!h.has_edge(1, 2));
        assert!(h.has_edge(2, 3));
        assert!(h.has_edge(3, 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_out_of_range_panics() {
        let mut g = Graph::new(2);
        g.add_edge(0, 5);
    }

    #[test]
    fn debug_and_display_are_nonempty() {
        let g = Graph::from_edges(2, [(0, 1)]);
        assert!(!format!("{g:?}").is_empty());
        assert!(format!("{g}").contains("0 -- [1]"));
    }

    #[test]
    fn neighbor_index_matches_graph_adjacency() {
        let g = Graph::from_edges(5, [(0, 1), (0, 3), (1, 2), (2, 3), (3, 4)]);
        let index = NeighborIndex::new(&g);
        assert_eq!(index.node_count(), 5);
        for u in g.nodes() {
            assert_eq!(index.neighbors(u), g.neighbors_vec(u).as_slice());
            assert_eq!(index.degree(u), g.degree(u));
        }
    }

    #[test]
    fn neighbor_index_of_isolated_nodes_is_empty() {
        let g = Graph::new(3);
        let index = NeighborIndex::new(&g);
        for u in 0..3 {
            assert!(index.neighbors(u).is_empty());
        }
    }
}
