//! Experiment harnesses reproducing the paper's evaluation (Sec. 7).
//!
//! Every table and figure of the paper has a corresponding harness function in this crate
//! that prints the same rows/series the paper reports. The `all_experiments` binary runs
//! them all and tags each row of its CSV output with the harness's `section` name:
//!
//! | paper artifact | harness |
//! |---|---|
//! | Table 1 (+ Sec. 7.6 asynchronous variant) — per-modification impact | [`table1::run_table1`] |
//! | Fig. 4a/4b — latency & bandwidth vs connectivity, MBD.1/7/8/9/11 | [`figures::run_fig4`] |
//! | Fig. 5a/5b — latency & bandwidth vs connectivity, lat./bdw./lat.&bdw. | [`figures::run_fig5`] |
//! | Fig. 6a/6b — relative improvement vs connectivity, N = 30/50 | [`figures::run_fig6`] |
//! | Figs. 7–10 — per-modification impact distributions (box plots) | [`figures::run_fig7_to_10`] |
//! | Sec. 7.3 — memory consumption | [`figures::run_memory`] |
//!
//! The absolute numbers differ from the paper (different implementation language, machine
//! and network substrate), but the harnesses reproduce the *shape* of the results: which
//! modification wins, by roughly what factor, and how trends evolve with the connectivity,
//! the payload size and the synchrony assumption.
//!
//! Because a single paper-scale sweep involves hundreds of simulated broadcasts, every
//! harness takes a [`Scale`] parameter: [`Scale::Quick`] (`--quick`) runs a reduced sweep
//! suitable for CI, [`Scale::Paper`] runs dimensions close to the paper's
//! (N = 50, connectivity sweeps, several seeds per point).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behaviors;
pub mod churn;
pub mod consensus;
pub mod figures;
pub mod json;
pub mod saturation;
pub mod table1;
pub mod trace;
pub mod workload;

use brb_core::config::Config;
use brb_core::stack::StackSpec;
use brb_graph::Graph;
use brb_sim::{run_experiment, DelayModel, ExperimentParams, ExperimentSpec, SweepOutcome};
use brb_stats::Accumulator;

/// Sweep size of a harness run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced dimensions (small N, few seeds) for CI.
    Quick,
    /// Dimensions close to the paper's evaluation.
    Paper,
}

impl Scale {
    /// Parses `--quick` / `--paper` style command-line arguments (defaults to `Paper`).
    pub fn from_args(args: &[String]) -> Scale {
        if args.iter().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Paper
        }
    }

    /// Number of runs (seeds) averaged per data point.
    pub fn runs(self) -> usize {
        match self {
            Scale::Quick => 1,
            Scale::Paper => 3,
        }
    }
}

/// Whether the asynchronous delay model was requested on the command line.
pub fn async_from_args(args: &[String]) -> bool {
    args.iter().any(|a| a == "--async")
}

/// Whether the multi-broadcast workload sweep was requested on the command line
/// (`--workload`; see [`workload::run_workload_sweep`]).
pub fn workload_from_args(args: &[String]) -> bool {
    args.iter().any(|a| a == "--workload")
}

/// Whether the Byzantine behavior matrix was requested on the command line
/// (`--behaviors`; see [`behaviors::run_behavior_matrix`]).
pub fn behaviors_from_args(args: &[String]) -> bool {
    args.iter().any(|a| a == "--behaviors")
}

/// Whether the churn scenario matrix was requested on the command line
/// (`--churn`; see [`churn::run_churn_matrix`]).
pub fn churn_from_args(args: &[String]) -> bool {
    args.iter().any(|a| a == "--churn")
}

/// Whether the consensus-over-BRB matrix was requested on the command line
/// (`--consensus`; see [`consensus::run_consensus_matrix`]).
pub fn consensus_from_args(args: &[String]) -> bool {
    args.iter().any(|a| a == "--consensus")
}

/// Whether the structured-trace matrix was requested on the command line
/// (`--trace`; see [`trace::run_trace_matrix`]).
pub fn trace_from_args(args: &[String]) -> bool {
    args.iter().any(|a| a == "--trace")
}

/// Whether the saturation ramp was requested on the command line
/// (`--saturation`; see [`saturation::run_saturation_sweep`]).
pub fn saturation_from_args(args: &[String]) -> bool {
    args.iter().any(|a| a == "--saturation")
}

/// Parses the `--stack NAME` / `--stack=NAME` command-line option (defaults to the
/// paper's Bracha–Dolev stack).
///
/// Every harness threads the chosen [`StackSpec`] into its sweep specs, so table/figure
/// baselines can be regenerated per stack. Note that the MD/MBD ablation axes only move
/// the needle for the stacks that read those flags (`bd`, `dolev`); for the other stacks
/// the harnesses still sweep `(N, k, f, payload)` but the configuration rows coincide.
///
/// # Panics
///
/// Panics with the list of known stacks if the name does not parse, or if `--stack` is
/// given without a value (a silent fallback to `bd` would mislabel a whole sweep).
pub fn stack_from_args(args: &[String]) -> StackSpec {
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let value = if arg == "--stack" {
            Some(
                iter.next()
                    .unwrap_or_else(|| panic!("--stack requires a value"))
                    .clone(),
            )
        } else {
            arg.strip_prefix("--stack=").map(str::to_string)
        };
        if let Some(name) = value {
            return name.parse::<StackSpec>().unwrap_or_else(|e| panic!("{e}"));
        }
    }
    StackSpec::Bd
}

/// Parses the `--workers N` / `--workers=N` command-line option.
///
/// Defaults to the host parallelism. Results are bit-identical for every worker count
/// (see `brb_sim::sweep`), so the flag only trades wall-clock time for CPU.
pub fn workers_from_args(args: &[String]) -> usize {
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--workers" {
            if let Some(n) = iter.next().and_then(|v| v.parse::<usize>().ok()) {
                return n.max(1);
            }
        } else if let Some(v) = arg.strip_prefix("--workers=") {
            if let Ok(n) = v.parse::<usize>() {
                return n.max(1);
            }
        }
    }
    brb_sim::sweep::default_workers()
}

/// Builds the `runs` sweep specs of one data point: run `i` uses topology seed
/// `graph_seed_base + i` and run seed `params.seed + i`, the same seeding scheme as
/// [`averaged_on_graphs`], so sweep-based harnesses run the exact same simulations.
pub fn point_specs(
    label: &str,
    params: &ExperimentParams,
    graph_seed_base: u64,
    runs: usize,
) -> Vec<ExperimentSpec> {
    (0..runs)
        .map(|i| {
            let mut p = params.clone();
            p.seed = params.seed.wrapping_add(i as u64);
            ExperimentSpec::new(label.to_string(), graph_seed_base + i as u64, p)
        })
        .collect()
}

/// Averages the outcomes of one data point's runs (the sweep-based counterpart of
/// [`averaged_on_graphs`]), aggregating with the `brb-stats` accumulators.
pub fn averaged_of_outcomes(outcomes: &[SweepOutcome]) -> AveragedResult {
    let mut latency = Accumulator::new();
    let mut bytes = Accumulator::new();
    let mut messages = Accumulator::new();
    let mut state = Accumulator::new();
    let mut paths = Accumulator::new();
    for outcome in outcomes {
        let r = &outcome.record.result;
        if let Some(l) = r.latency_ms {
            latency.push(l);
        }
        bytes.push(r.bytes as f64);
        messages.push(r.messages as f64);
        state.push(r.peak_state_bytes as f64);
        paths.push(r.peak_stored_paths as f64);
    }
    AveragedResult {
        latency_ms: if latency.count() > 0 {
            latency.mean()
        } else {
            f64::NAN
        },
        bytes: bytes.mean(),
        messages: messages.mean(),
        peak_state_bytes: state.mean(),
        peak_stored_paths: paths.mean(),
    }
}

/// Averaged metrics of an experiment repeated over several seeds.
#[derive(Debug, Clone, Copy)]
pub struct AveragedResult {
    /// Mean latency (ms) over the completed runs.
    pub latency_ms: f64,
    /// Mean network consumption (bytes).
    pub bytes: f64,
    /// Mean number of messages.
    pub messages: f64,
    /// Mean peak protocol-state bytes (Sec. 7.3 proxy).
    pub peak_state_bytes: f64,
    /// Mean peak number of stored paths.
    pub peak_stored_paths: f64,
}

/// Runs the configuration once per provided graph and averages the metrics. Using the same
/// graphs for every configuration compared in a table/figure removes topology noise from
/// the comparison, as the paper does by reusing one generated graph per `(N, k, f)` tuple.
pub fn averaged_on_graphs(params: &ExperimentParams, graphs: &[Graph]) -> AveragedResult {
    let mut latency = 0.0;
    let mut bytes = 0.0;
    let mut messages = 0.0;
    let mut state = 0.0;
    let mut paths = 0.0;
    let mut completed = 0usize;
    for (i, graph) in graphs.iter().enumerate() {
        let mut p = params.clone();
        p.seed = params.seed.wrapping_add(i as u64);
        let r = run_experiment(&p, graph).result;
        if let Some(l) = r.latency_ms {
            latency += l;
            completed += 1;
        }
        bytes += r.bytes as f64;
        messages += r.messages as f64;
        state += r.peak_state_bytes as f64;
        paths += r.peak_stored_paths as f64;
    }
    let n = graphs.len().max(1) as f64;
    AveragedResult {
        latency_ms: if completed > 0 {
            latency / completed as f64
        } else {
            f64::NAN
        },
        bytes: bytes / n,
        messages: messages / n,
        peak_state_bytes: state / n,
        peak_stored_paths: paths / n,
    }
}

/// Builds the experiment parameters shared by all harnesses (on the default Bd stack;
/// callers override [`ExperimentParams::stack`] via `with_stack`).
pub fn experiment(
    n: usize,
    k: usize,
    f: usize,
    payload: usize,
    config: Config,
    delay: DelayModel,
    seed: u64,
) -> ExperimentParams {
    ExperimentParams {
        n,
        connectivity: k,
        f,
        crashed: 0,
        payload_size: payload,
        config,
        stack: StackSpec::Bd,
        delay,
        seed,
        workload: None,
        behaviors: Vec::new(),
        churn: None,
        consensus: None,
    }
}

/// Relative variation in percent, as reported throughout the paper's tables and figures.
pub fn variation_pct(baseline: f64, value: f64) -> f64 {
    brb_stats::relative_variation(baseline, value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::from_args(&["--quick".to_string()]), Scale::Quick);
        assert_eq!(Scale::from_args(&[]), Scale::Paper);
        assert_eq!(Scale::Quick.runs(), 1);
        assert!(Scale::Paper.runs() >= 2);
        assert!(async_from_args(&["--async".to_string()]));
        assert!(!async_from_args(&[]));
    }

    #[test]
    fn stack_parsing() {
        assert_eq!(stack_from_args(&[]), StackSpec::Bd);
        assert_eq!(
            stack_from_args(&["--stack".to_string(), "bracha-cpa".to_string()]),
            StackSpec::BrachaCpa
        );
        assert_eq!(
            stack_from_args(&["--stack=routed-dolev".to_string()]),
            StackSpec::RoutedDolev
        );
    }

    #[test]
    #[should_panic(expected = "unknown stack")]
    fn stack_parsing_rejects_unknown_names() {
        stack_from_args(&["--stack=quantum".to_string()]);
    }

    #[test]
    fn averaged_runs_complete() {
        let params = experiment(
            12,
            4,
            1,
            64,
            Config::bdopt_mbd1(12, 1),
            DelayModel::synchronous(),
            3,
        );
        let graphs: Vec<Graph> = (0..2)
            .map(|i| brb_sim::experiment::experiment_graph(12, 4, 3 + i))
            .collect();
        let avg = averaged_on_graphs(&params, &graphs);
        assert!(avg.latency_ms.is_finite());
        assert!(avg.bytes > 0.0);
        assert!(avg.messages > 0.0);
    }

    #[test]
    fn variation_matches_stats_crate() {
        assert_eq!(variation_pct(200.0, 100.0), -50.0);
    }
}
