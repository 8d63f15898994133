//! Breadth-first traversal helpers: distances and connectedness.

use std::collections::VecDeque;

use crate::graph::{Graph, ProcessId};

/// BFS distances (in hops) from `source` to every node.
///
/// Unreachable nodes are reported as `None`.
pub fn bfs_distances(g: &Graph, source: ProcessId) -> Vec<Option<usize>> {
    let mut dist = vec![None; g.node_count()];
    if source >= g.node_count() {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist[source] = Some(0);
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u].expect("queued nodes have a distance");
        for v in g.neighbors(u) {
            if dist[v].is_none() {
                dist[v] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Returns whether the graph is connected (every node reachable from node 0).
///
/// The empty graph is considered connected.
pub fn is_connected(g: &Graph) -> bool {
    if g.node_count() == 0 {
        return true;
    }
    bfs_distances(g, 0).iter().all(Option::is_some)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_on_a_path_graph() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn unreachable_nodes_have_no_distance() {
        let g = Graph::from_edges(4, [(0, 1)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[2], None);
        assert_eq!(d[3], None);
        assert!(!is_connected(&g));
    }

    #[test]
    fn empty_graph_is_connected() {
        assert!(is_connected(&Graph::new(0)));
    }
}
