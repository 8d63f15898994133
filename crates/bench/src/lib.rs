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
pub mod saturation;
pub mod table1;
pub mod trace;
pub mod workload;

use std::fmt::Display;
use std::str::FromStr;

use brb_core::config::Config;
use brb_core::stack::StackSpec;
use brb_graph::Graph;
use brb_sim::{run_experiment, DelayModel, ExperimentParams, ExperimentSpec, SweepOutcome};
use brb_stats::Accumulator;
use brb_trace::JsonValue;

/// Sweep size of a harness run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced dimensions (small N, few seeds) for CI.
    Quick,
    /// Dimensions close to the paper's evaluation.
    Paper,
}

impl Scale {
    /// Parses the `--quick` flag (defaults to `Paper`).
    pub fn from_args(args: &[String]) -> Scale {
        if flag(args, "--quick") {
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

/// Whether the bare flag `name` (such as `--async`) is on the command line.
pub fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// The value of the first `name VALUE` or `name=VALUE` on the command line, parsed.
///
/// # Panics
///
/// Panics when `name` ends the command line or its value does not parse: a silent
/// default (say, `bd` for a misspelt `--stack`) would mislabel a whole run.
pub fn flag_value<T: FromStr>(args: &[String], name: &str) -> Option<T>
where
    T::Err: Display,
{
    let value = args
        .iter()
        .enumerate()
        .find_map(|(i, arg)| match arg.strip_prefix(name)? {
            "" => args
                .get(i + 1)
                .map(String::as_str)
                .or_else(|| panic!("{name} requires a value")),
            rest => rest.strip_prefix('='),
        })?;
    Some(value.parse().unwrap_or_else(|e| panic!("{name}: {e}")))
}

/// The host a snapshot was taken on — available cores and CPU model — so a committed
/// `BENCH_*.json` says what its wall-clock numbers are relative to.
pub fn host() -> JsonValue {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    object([
        ("nproc", JsonValue::Number(nproc as f64)),
        ("cpu_model", JsonValue::String(cpu_model)),
    ])
}

/// A JSON object of the given members.
pub fn object<'a>(members: impl IntoIterator<Item = (&'a str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        members
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// `value` rounded to `places` decimals, so a snapshot does not claim digits of noise.
pub fn rounded(value: f64, places: i32) -> JsonValue {
    let scale = 10f64.powi(places);
    JsonValue::Number((value * scale).round() / scale)
}

/// Writes `doc` to the `--out` path in `args` (else `default`), echoes it to stdout and
/// prints the `# written to` marker the smoke script greps for.
///
/// # Panics
///
/// Panics when the path is not writable — benchmark binaries want the hard failure.
pub fn write_json(args: &[String], default: &str, doc: &JsonValue) {
    let path = flag_value(args, "--out").unwrap_or_else(|| default.to_string());
    let json = doc.pretty() + "\n";
    std::fs::write(&path, &json).expect("JSON output path must be writable");
    print!("{json}");
    println!("# written to {path}");
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

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::from_args(&args(&["--quick"])), Scale::Quick);
        assert_eq!(Scale::from_args(&[]), Scale::Paper);
        assert_eq!(Scale::Quick.runs(), 1);
        assert!(Scale::Paper.runs() >= 2);
        assert!(flag(&args(&["--async"]), "--async"));
        assert!(!flag(&args(&["--async=1"]), "--async"));
        assert!(!flag(&[], "--async"));
    }

    #[test]
    fn stack_parsing() {
        assert_eq!(flag_value::<StackSpec>(&[], "--stack"), None);
        assert_eq!(
            flag_value(&args(&["--stack", "bracha-cpa"]), "--stack"),
            Some(StackSpec::BrachaCpa)
        );
        assert_eq!(
            flag_value(&args(&["--stacks=bd", "--stack=routed-dolev"]), "--stack"),
            Some(StackSpec::RoutedDolev)
        );
        assert_eq!(flag_value(&args(&["--workers", "4"]), "--workers"), Some(4));
    }

    #[test]
    #[should_panic(expected = "unknown stack")]
    fn stack_parsing_rejects_unknown_names() {
        flag_value::<StackSpec>(&args(&["--stack=quantum"]), "--stack");
    }

    #[test]
    #[should_panic(expected = "--stack requires a value")]
    fn stack_parsing_rejects_a_missing_value() {
        flag_value::<StackSpec>(&args(&["--quick", "--stack"]), "--stack");
    }

    #[test]
    fn out_path_parsing() {
        let out = |v: &[&str]| flag_value::<String>(&args(v), "--out");
        assert_eq!(out(&[]), None);
        assert_eq!(out(&["--out", "a.json"]).as_deref(), Some("a.json"));
        assert_eq!(out(&["--out=b.json"]).as_deref(), Some("b.json"));
    }

    #[test]
    fn host_records_cores_and_cpu_model() {
        let parsed = brb_trace::parse_json(&host().pretty()).expect("parses");
        assert!(parsed.get("nproc").and_then(|v| v.as_u64()).is_some());
        assert!(parsed
            .get("cpu_model")
            .and_then(|v| v.as_str())
            .is_some_and(|model| !model.is_empty()));
    }

    #[test]
    fn rounded_numbers_print_their_decimals_only() {
        let doc = object([
            ("mean_ms", rounded(84.529_6, 3)),
            ("p99_ms", rounded(f64::NAN, 3)),
        ]);
        assert_eq!(
            doc.pretty(),
            "{\n  \"mean_ms\": 84.53,\n  \"p99_ms\": null\n}"
        );
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
