//! The repository's benchmark: five workloads, one command, end-to-end metrics from
//! untraced repetitions and per-layer metrics from repetitions run through
//! benchmark-owned `Timed*` wrappers. Everything is measured from outside, through the
//! public functions of the `brb-*` crates. See `README.md` next to this crate's manifest.

#![warn(missing_docs)]

pub mod check;
pub mod compare;
pub mod contract;
pub mod gen;
pub mod host;
pub mod json;
pub mod metrics;
pub mod replay;
pub mod run;
pub mod seeds;
pub mod stats;
pub mod timed;
pub mod trace;
pub mod workloads;

/// How long one workload measures when `--seconds` is not given: `run_seconds` of
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 15.0;
