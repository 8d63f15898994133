//! Topology generators used by the paper's evaluation.
//!
//! The evaluation of the paper generates one **random regular graph** per `(N, k, f)`
//! tuple (Sec. 7.1, using NetworkX's implementation of Steger–Wormald). We reproduce that
//! family with a pairing-model generator with rejection and retries, plus a few classic
//! deterministic topologies used in unit tests and examples.

use std::collections::BTreeSet;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::connectivity::is_k_connected;
use crate::graph::{Graph, ProcessId};
use crate::traversal::is_connected;

/// Error returned by graph generators when the requested parameters are infeasible or when
/// random generation repeatedly failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenerateError {
    /// `n * d` must be even and `d < n` for a `d`-regular graph over `n` nodes to exist.
    InfeasibleRegular {
        /// Requested number of nodes.
        n: usize,
        /// Requested degree.
        degree: usize,
    },
    /// The generator did not produce a valid graph within its retry budget.
    RetriesExhausted {
        /// Number of attempts performed.
        attempts: usize,
    },
    /// The requested connectivity cannot be achieved with the given parameters.
    InfeasibleConnectivity {
        /// Requested number of nodes.
        n: usize,
        /// Requested vertex connectivity.
        connectivity: usize,
    },
}

impl std::fmt::Display for GenerateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenerateError::InfeasibleRegular { n, degree } => {
                write!(f, "no {degree}-regular graph exists over {n} nodes")
            }
            GenerateError::RetriesExhausted { attempts } => {
                write!(f, "graph generation failed after {attempts} attempts")
            }
            GenerateError::InfeasibleConnectivity { n, connectivity } => {
                write!(
                    f,
                    "cannot build a {connectivity}-vertex-connected graph over {n} nodes"
                )
            }
        }
    }
}

impl std::error::Error for GenerateError {}

/// Complete graph over `n` nodes (the topology assumed by Bracha's original protocol).
pub fn complete(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            g.add_edge(u, v);
        }
    }
    g
}

/// Circulant graph: node `i` is connected to `i ± 1, ..., i ± width (mod n)`.
///
/// For `n > 2 * width` this is a `2*width`-regular, `2*width`-vertex-connected graph, a
/// convenient deterministic family for tests that need a prescribed connectivity;
/// `circulant(n, 1)` is the ring (cycle) over `n` nodes.
pub fn circulant(n: usize, width: usize) -> Graph {
    let mut g = Graph::new(n);
    for u in 0..n {
        for off in 1..=width {
            g.add_edge(u, (u + off) % n);
        }
    }
    g
}

/// The 10-node, 3-connected example topology of Fig. 1 in the paper.
///
/// The exact drawing is not fully specified in the text, so we use the circulant graph
/// `C_10(1, 2)` minus nothing — a 4-regular graph — reduced to a 3-regular, 3-connected
/// graph: the Petersen graph, the canonical 3-regular 3-connected graph on 10 vertices.
pub fn figure1_example() -> Graph {
    // Petersen graph: outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5.
    let mut g = Graph::new(10);
    for i in 0..5 {
        g.add_edge(i, (i + 1) % 5); // outer cycle
        g.add_edge(5 + i, 5 + ((i + 2) % 5)); // inner pentagram
        g.add_edge(i, i + 5); // spokes
    }
    g
}

/// Generates a random `degree`-regular graph over `n` nodes using the pairing
/// (configuration) model with rejection of self-loops and multi-edges, retrying until a
/// simple connected graph is produced.
///
/// This mirrors the Steger–Wormald style generation used (through NetworkX) in the paper's
/// evaluation (Sec. 7.1).
///
/// # Errors
///
/// Returns [`GenerateError::InfeasibleRegular`] when `n * degree` is odd or `degree >= n`,
/// and [`GenerateError::RetriesExhausted`] if no simple connected graph was found within
/// the retry budget (practically unreachable for the parameter ranges of the paper).
pub fn random_regular_graph<R: Rng + ?Sized>(
    n: usize,
    degree: usize,
    rng: &mut R,
) -> Result<Graph, GenerateError> {
    if degree >= n || !(n * degree).is_multiple_of(2) {
        return Err(GenerateError::InfeasibleRegular { n, degree });
    }
    if degree == 0 {
        return Ok(Graph::new(n));
    }
    const MAX_ATTEMPTS: usize = 200;
    for _ in 0..MAX_ATTEMPTS {
        if let Some(g) = try_pairing(n, degree, rng) {
            if is_connected(&g) {
                return Ok(g);
            }
        }
    }
    Err(GenerateError::RetriesExhausted {
        attempts: MAX_ATTEMPTS,
    })
}

/// One attempt of the Steger–Wormald style pairing: instead of rejecting the whole
/// matching on the first collision, unsuitable pairs (self-loops, duplicate edges) are
/// put back into the stub pool and re-paired, restarting only when the remaining stubs
/// admit no suitable pair at all. This is the strategy used by NetworkX's
/// `random_regular_graph`, which the paper's evaluation relies on.
fn try_pairing<R: Rng + ?Sized>(n: usize, degree: usize, rng: &mut R) -> Option<Graph> {
    // Stubs: each node appears `degree` times.
    let mut stubs: Vec<ProcessId> = (0..n)
        .flat_map(|u| std::iter::repeat_n(u, degree))
        .collect();
    let mut g = Graph::new(n);
    while !stubs.is_empty() {
        stubs.shuffle(rng);
        let mut leftover: Vec<ProcessId> = Vec::new();
        let mut progress = false;
        for pair in stubs.chunks(2) {
            let (u, v) = (pair[0], pair[1]);
            if u != v && !g.has_edge(u, v) {
                g.add_edge(u, v);
                progress = true;
            } else {
                leftover.push(u);
                leftover.push(v);
            }
        }
        if !progress && !has_suitable_pair(&leftover, &g) {
            return None;
        }
        stubs = leftover;
    }
    Some(g)
}

/// Whether some pair of remaining stubs can still legally be joined.
fn has_suitable_pair(stubs: &[ProcessId], g: &Graph) -> bool {
    let distinct: BTreeSet<ProcessId> = stubs.iter().copied().collect();
    for &u in &distinct {
        for &v in &distinct {
            if u < v && !g.has_edge(u, v) {
                return true;
            }
        }
    }
    false
}

/// Generates a random regular graph whose **vertex connectivity is verified** to be at
/// least `min_connectivity`, as required by the paper's experiments (`k >= 2f+1`).
///
/// The generator draws random `degree`-regular graphs until one with sufficient verified
/// connectivity is found. Random regular graphs of degree `d` are asymptotically almost
/// surely `d`-connected, so very few retries are needed in practice.
///
/// # Errors
///
/// Returns an error if the parameters are infeasible (e.g. `min_connectivity >= n` or
/// `degree < min_connectivity`) or if the retry budget is exhausted.
pub fn random_regular_connected<R: Rng + ?Sized>(
    n: usize,
    degree: usize,
    min_connectivity: usize,
    rng: &mut R,
) -> Result<Graph, GenerateError> {
    if min_connectivity >= n || degree < min_connectivity {
        return Err(GenerateError::InfeasibleConnectivity {
            n,
            connectivity: min_connectivity,
        });
    }
    const MAX_ATTEMPTS: usize = 64;
    for _ in 0..MAX_ATTEMPTS {
        let g = random_regular_graph(n, degree, rng)?;
        if is_k_connected(&g, min_connectivity) {
            return Ok(g);
        }
    }
    Err(GenerateError::RetriesExhausted {
        attempts: MAX_ATTEMPTS,
    })
}

/// Erdős–Rényi `G(n, p)` random graph (used for robustness tests; the paper itself uses
/// regular graphs).
pub fn gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::vertex_connectivity;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn complete_graph_counts() {
        let g = complete(6);
        assert_eq!(g.edge_count(), 15);
        assert!(g.nodes().all(|u| g.degree(u) == 5));
    }

    #[test]
    fn ring_is_two_regular() {
        let g = circulant(7, 1);
        assert!(g.nodes().all(|u| g.degree(u) == 2));
        assert_eq!(g.edge_count(), 7);
    }

    #[test]
    fn ring_of_two_is_single_edge() {
        let g = circulant(2, 1);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn circulant_degree() {
        let g = circulant(11, 3);
        assert!(g.nodes().all(|u| g.degree(u) == 6));
    }

    #[test]
    fn figure1_is_three_regular_three_connected() {
        let g = figure1_example();
        assert_eq!(g.node_count(), 10);
        assert!(g.nodes().all(|u| g.degree(u) == 3));
        assert_eq!(vertex_connectivity(&g), 3);
    }

    #[test]
    fn random_regular_has_requested_degree() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = random_regular_graph(20, 5, &mut rng).unwrap();
        assert_eq!(g.node_count(), 20);
        assert!(g.nodes().all(|u| g.degree(u) == 5));
        assert!(is_connected(&g));
    }

    #[test]
    fn random_regular_rejects_infeasible_parameters() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            random_regular_graph(5, 3, &mut rng),
            Err(GenerateError::InfeasibleRegular { .. })
        ));
        assert!(matches!(
            random_regular_graph(4, 4, &mut rng),
            Err(GenerateError::InfeasibleRegular { .. })
        ));
    }

    #[test]
    fn random_regular_zero_degree() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = random_regular_graph(4, 0, &mut rng).unwrap();
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn random_regular_connected_meets_connectivity() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = random_regular_connected(16, 5, 5, &mut rng).unwrap();
        assert!(vertex_connectivity(&g) >= 5);
    }

    #[test]
    fn random_regular_connected_rejects_bad_parameters() {
        let mut rng = StdRng::seed_from_u64(9);
        assert!(random_regular_connected(10, 3, 5, &mut rng).is_err());
        assert!(random_regular_connected(4, 3, 4, &mut rng).is_err());
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = StdRng::seed_from_u64(11);
        assert_eq!(gnp(8, 0.0, &mut rng).edge_count(), 0);
        assert_eq!(gnp(8, 1.0, &mut rng).edge_count(), 28);
    }

    #[test]
    fn generate_error_display() {
        let e = GenerateError::InfeasibleRegular { n: 5, degree: 3 };
        assert!(e.to_string().contains("5"));
        let e = GenerateError::RetriesExhausted { attempts: 3 };
        assert!(e.to_string().contains("3"));
        let e = GenerateError::InfeasibleConnectivity {
            n: 4,
            connectivity: 9,
        };
        assert!(e.to_string().contains("9"));
    }
}
