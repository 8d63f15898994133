//! TCP socket deployment of Byzantine reliable broadcast on partially connected networks.
//!
//! The evaluation of *Practical Byzantine Reliable Broadcast on Partially Connected
//! Networks* (ICDCS 2021) runs its C++ implementation with one node per Docker container
//! on a single desktop, connected by TCP sockets that act as the authenticated channels of
//! the system model (Sec. 7.1). This crate is the corresponding deployment back end of the
//! Rust reproduction: one protocol thread per process inside a single OS process, and one
//! real TCP connection over the loopback interface per edge of the communication graph.
//!
//! This crate is only that wiring: [`tcp_links`] connects the mesh and wraps each
//! process's sockets in a [`TcpTransport`], which the one [`brb_runtime::Deployment`]
//! runs its node drivers over; [`TcpDeployment`] is that deployment.
//!
//! * [`frame`] — length-prefixed framing and the connection handshake;
//! * [`endpoint`] — listener/connection establishment and per-link reader threads;
//! * [`deployment`] — [`TcpTransport`], [`tcp_links`], [`TcpDeployment`] and the
//!   [`BACKENDS`] table both live backends are looped over.
//!
//! # Example
//!
//! ```no_run
//! use std::time::Duration;
//! use brb_core::{config::Config, stack::StackSpec, types::Payload};
//! use brb_graph::generate;
//! use brb_net::tcp_links;
//! use brb_runtime::run_broadcast;
//!
//! # fn main() -> std::io::Result<()> {
//! let graph = generate::figure1_example();
//! let report = run_broadcast(
//!     tcp_links(&graph, &[])?,
//!     &graph,
//!     Config::bdopt_mbd1(10, 1),
//!     StackSpec::Bd,
//!     Payload::from("over real sockets"),
//!     0,
//!     Duration::from_secs(10),
//! );
//! assert!(report.all_delivered(&(0..10).collect::<Vec<_>>(), 1));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deployment;
pub mod endpoint;
pub mod frame;

pub use brb_transport::DriverOptions;
pub use deployment::{tcp_links, TcpDeployment, TcpTransport, Wiring, BACKENDS};
pub use endpoint::{bind_endpoints, connect_mesh, Endpoint, NodeLinks};
