//! Deterministic discrete-event network simulator for the PBRB protocols.
//!
//! The paper's evaluation deploys a C++ implementation in Docker containers with
//! netem-controlled delays; this crate plays the equivalent role for the Rust
//! reproduction. It provides:
//!
//! * [`sim::Simulation`] — an event-driven simulator that runs any
//!   [`brb_core::protocol::Protocol`] implementation on a virtual clock, with per-message
//!   link delays and full byte accounting;
//! * [`delay::DelayModel`] — the paper's synchronous (50 ms) and asynchronous (50 ± 50 ms
//!   normal) link regimes;
//! * [`behavior::Behavior`] — node-level Byzantine behaviours (crash, message dropping,
//!   replay, mid-broadcast failure, targeted silence, flooding);
//! * [`fate::outbound`] — the send-time fate of one frame (churn gate, loss override,
//!   behavior copies), shared with the live links of `brb-transport`;
//! * [`churn::ChurnSpec`] — seeded churn timelines (link flaps,
//!   partition/heal, node restart with state loss, per-link asymmetric delay and loss
//!   overrides) compiled to ordered event lists shared with the live backends;
//! * [`metrics::RunMetrics`] — latency, network consumption and memory proxies (the
//!   Sec. 7.3 peaks are exact: engines answer `state_bytes()` / `stored_paths()` in
//!   constant time, so the simulator reads them after every handled event);
//! * [`invariants`] — checkers for the four BRB properties over finished executions, used
//!   by the integration and property tests of every protocol stack;
//! * [`experiment`] — the high-level runner the benchmark harnesses use to regenerate the
//!   paper's tables and figures point by point;
//! * [`sweep`] — the parallel sweep engine: shards a `Vec<ExperimentSpec>` across worker
//!   threads with deterministic, worker-count-independent results.
//!
//! # Example: one experiment
//!
//! ```
//! use brb_core::config::Config;
//! use brb_sim::experiment::{experiment_graph, run_experiment, ExperimentParams};
//!
//! let mut params = ExperimentParams::new(16, 5, 2, Config::bdopt_mbd1(16, 2));
//! params.crashed = 1;
//! params.seed = 42;
//! let result = run_experiment(&params, &experiment_graph(16, 5, params.seed)).result;
//! assert!(result.complete());
//! println!("latency = {:?} ms, bytes = {}", result.latency_ms, result.bytes);
//! ```
//!
//! # Example: any stack in the simulator
//!
//! [`experiment::ExperimentParams::stack`] selects the protocol stack; the default is
//! the paper's Bracha–Dolev combination, and every other [`brb_core::stack::StackSpec`]
//! runs through the boxed engine + wire codec path of `brb_core::stack`:
//!
//! ```
//! use brb_core::{config::Config, stack::StackSpec};
//! use brb_sim::experiment::{experiment_graph, run_experiment, ExperimentParams};
//!
//! let params = ExperimentParams::new(16, 5, 2, Config::bdopt_mbd1(16, 2))
//!     .with_stack(StackSpec::BrachaRoutedDolev);
//! let graph = experiment_graph(16, 5, params.seed);
//! assert!(run_experiment(&params, &graph).result.complete());
//! ```
//!
//! # Example: a parallel sweep
//!
//! A sweep is a list of labelled [`sweep::ExperimentSpec`]s. Specs sharing the same
//! `(n, connectivity, graph_seed)` run on the same generated topology, and the outcome
//! vector is bit-identical whatever the worker count:
//!
//! ```
//! use brb_core::config::Config;
//! use brb_sim::experiment::ExperimentParams;
//! use brb_sim::sweep::{run_sweep, summarize, ExperimentSpec};
//!
//! let specs: Vec<ExperimentSpec> = (0..4u64)
//!     .map(|run| {
//!         let mut params = ExperimentParams::new(12, 5, 2, Config::bdopt_mbd1(12, 2));
//!         params.seed = 100 + run;
//!         ExperimentSpec::new(format!("demo/run={run}"), 9_000 + run, params)
//!     })
//!     .collect();
//! let serial = run_sweep(&specs, 1);
//! let parallel = run_sweep(&specs, 2);
//! assert_eq!(serial, parallel, "outcomes never depend on the worker count");
//! let summary = summarize(&parallel);
//! assert_eq!(summary.completed, 4);
//! assert!(summary.latency_ms.mean() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behavior;
pub mod churn;
pub mod consensus;
pub mod delay;
pub mod experiment;
pub mod fate;
pub mod invariants;
pub mod metrics;
mod queue;
pub mod sim;
pub mod sweep;
pub mod time;
pub mod workload;

pub use behavior::Behavior;
pub use churn::{ChurnAction, ChurnClause, ChurnEvent, ChurnSpec, LinkState, RestartMemory};
pub use consensus::{
    build_consensus_sim, honest_decisions, honest_processes, run_consensus, ConsensusStats,
};
pub use delay::DelayModel;
pub use experiment::{
    run_experiment, run_experiment_traced, ExperimentParams, ExperimentRecord, ExperimentResult,
    TracedRecord,
};
pub use invariants::{check_brb, check_brb_processes, BroadcastRecord, Violation};
pub use metrics::RunMetrics;
pub use sim::Simulation;
pub use sweep::{run_sweep, summarize, ExperimentSpec, SweepOutcome, SweepSummary};
pub use time::SimTime;
pub use workload::{run_workload, workload_stats};
