//! Communication-graph substrate for Byzantine reliable broadcast experiments.
//!
//! The evaluation of *Practical Byzantine Reliable Broadcast on Partially Connected
//! Networks* (ICDCS 2021) runs the Bracha–Dolev protocol combination on **random regular
//! graphs** whose vertex connectivity `k` satisfies `k >= 2f + 1`, where `f` is the number
//! of Byzantine processes. This crate provides everything the protocol layers and the
//! experiment harnesses need from the topology side:
//!
//! * [`Graph`] — a small, dense, undirected graph representation indexed by
//!   [`ProcessId`]s, with neighborhood queries;
//! * [`generate`] — graph generators: complete graphs, circulants (rings among them),
//!   random regular graphs (the family used throughout the paper's evaluation) and
//!   k-connected random graphs;
//! * [`families`] — additional deterministic and random topology families (Harary graphs,
//!   grids/tori, generalized wheels, planar grids, geometric random graphs and
//!   bounded-degree expanders) used by the sparse-graph experiments and the stack tests;
//! * [`connectivity`] — Menger's local connectivity by unit-capacity max-flow, and Even's
//!   `k`-connectivity check, which certifies that generated topologies satisfy the
//!   `k >= 2f+1` requirement of Dolev's protocol in `O(k² + n)` short max-flows;
//! * [`paths`] — extraction of explicit internally node-disjoint paths, the route-planning
//!   step of the known-topology variant of Dolev's protocol;
//! * [`traversal`] — BFS distances and connectedness.
//!
//! # Example
//!
//! ```
//! use brb_graph::{generate, connectivity};
//!
//! // A 3-regular random graph over 10 processes, as in Fig. 1 of the paper.
//! let mut rng = rand::thread_rng();
//! let g = generate::random_regular_graph(10, 3, &mut rng).expect("graph exists");
//! assert_eq!(g.node_count(), 10);
//! assert!(g.nodes().all(|v| g.degree(v) == 3));
//! // Vertex connectivity is at most the degree.
//! assert!(connectivity::vertex_connectivity(&g) <= 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod connectivity;
pub mod families;
pub mod generate;
pub mod graph;
pub mod paths;
pub mod traversal;

pub use graph::{Graph, NeighborIndex, ProcessId};
