//! The live deployment of the PBRB protocols: one thread per process, over any backend.
//!
//! The paper evaluates a real C++ deployment in which every process runs in its own Docker
//! container and communicates over TCP sockets acting as authenticated channels. Here
//! every process runs the shared [`brb_transport::NodeDriver`] in its own OS thread,
//! exchanging **binary-encoded** wire messages over authenticated point-to-point links,
//! with the engines the deterministic simulator (`brb-sim`) drives — which is what lets
//! the integration tests compare the backends event for event.
//!
//! There is one [`Deployment`]; a backend only wires its [`Links`]. [`Links::channels`]
//! wires crossbeam channels (what [`Deployment::start`] uses); `brb-net` wires loopback
//! TCP sockets. [`run_broadcast`], [`run_workload`] and [`run_consensus`] run one
//! scenario on a deployment over the links they are given.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod consensus;
pub mod deployment;
pub mod workload;

pub use brb_transport::link;
pub use brb_transport::DriverOptions;
pub use consensus::{drive_consensus, run_consensus, ConsensusRun};
pub use deployment::{
    run_broadcast, run_workload, Deployment, DeploymentReport, Links, NodeReport,
};
pub use workload::{drive_workload, Pacing, WorkloadRun};
