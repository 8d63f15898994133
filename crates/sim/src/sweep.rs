//! Parallel, deterministic experiment sweeps.
//!
//! The paper's evaluation (Table 1, Figs. 4–10) is a large parameter sweep: topology
//! family × `N` × `f` × modification ablations, each point averaged over several seeds.
//! Every sweep point is an independent, fully seeded simulation, which makes the sweep
//! embarrassingly parallel — this module shards a `Vec<ExperimentSpec>` across worker
//! threads connected by the crossbeam channels.
//!
//! # Determinism
//!
//! Results are **bit-identical regardless of the worker count**:
//!
//! * every spec is self-contained — the topology is regenerated from `graph_seed` and the
//!   simulation owns its own `StdRng` seeded from `params.seed`, so no state is shared
//!   between sweep points;
//! * outcomes are reassembled in spec order (workers tag each outcome with its input
//!   index), so the output vector never depends on scheduling;
//! * aggregation ([`summarize`]) folds the *ordered* outcome vector, so even
//!   floating-point reductions associate identically for 1 and N workers.
//!
//! The golden-snapshot suite in `tests/determinism.rs` locks this property down by
//! comparing the canonical metrics rendering of 1-, 2- and 8-worker sweeps byte for byte.

use std::collections::HashMap;
use std::thread;

use crossbeam::channel;

use brb_graph::Graph;
use brb_stats::Accumulator;

use crate::experiment::{experiment_graph, run_experiment, ExperimentParams, ExperimentRecord};

/// One sweep point: a labelled experiment plus the seed of the topology it runs on.
///
/// Two specs with the same `(n, connectivity, graph_seed)` run on the *same* generated
/// graph (workers cache generated topologies), which is how ablation sweeps compare
/// several configurations on one topology without shipping `Graph` values around.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Free-form label used to group and report outcomes (e.g. `"fig4/BDopt+MBD.1/k=7"`).
    pub label: String,
    /// Seed of the random regular topology this point runs on.
    pub graph_seed: u64,
    /// The experiment parameters (protocol configuration, delays, run seed, …).
    pub params: ExperimentParams,
}

impl ExperimentSpec {
    /// Creates a spec.
    pub fn new(label: impl Into<String>, graph_seed: u64, params: ExperimentParams) -> Self {
        Self {
            label: label.into(),
            graph_seed,
            params,
        }
    }
}

/// The outcome of one sweep point, in the order the specs were submitted.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// Label of the spec that produced this outcome.
    pub label: String,
    /// Aggregated result and full run metrics.
    pub record: ExperimentRecord,
}

/// Graphs already generated by one worker, keyed by `(n, connectivity, graph_seed)`.
type GraphCache = HashMap<(usize, usize, u64), Graph>;

fn run_one(spec: &ExperimentSpec, cache: &mut GraphCache) -> SweepOutcome {
    let key = (spec.params.n, spec.params.connectivity, spec.graph_seed);
    let graph = cache.entry(key).or_insert_with(|| {
        experiment_graph(spec.params.n, spec.params.connectivity, spec.graph_seed)
    });
    SweepOutcome {
        label: spec.label.clone(),
        record: run_experiment(&spec.params, graph),
    }
}

/// Number of worker threads the host offers (at least 1).
pub fn default_workers() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs every spec and returns the outcomes **in spec order**.
///
/// With `workers <= 1` the sweep runs inline on the calling thread; otherwise the specs
/// are sharded across `workers` threads over crossbeam channels. Either way the returned
/// vector is bit-identical (see the module documentation).
pub fn run_sweep(specs: &[ExperimentSpec], workers: usize) -> Vec<SweepOutcome> {
    let workers = workers.max(1).min(specs.len().max(1));
    if workers <= 1 {
        let mut cache = GraphCache::new();
        return specs.iter().map(|spec| run_one(spec, &mut cache)).collect();
    }

    let (job_tx, job_rx) = channel::unbounded::<(usize, ExperimentSpec)>();
    let (result_tx, result_rx) = channel::unbounded::<(usize, SweepOutcome)>();
    for (index, spec) in specs.iter().enumerate() {
        job_tx
            .send((index, spec.clone()))
            .expect("job receiver is alive");
    }
    // Dropping the last sender lets workers observe end-of-queue via `recv()` errors.
    drop(job_tx);

    let handles: Vec<_> = (0..workers)
        .map(|_| {
            let jobs = job_rx.clone();
            let results = result_tx.clone();
            thread::spawn(move || {
                // Each worker owns its graph cache; generation is a pure function of the
                // seed, so two workers materialising the same key build equal graphs.
                let mut cache = GraphCache::new();
                while let Ok((index, spec)) = jobs.recv() {
                    let outcome = run_one(&spec, &mut cache);
                    if results.send((index, outcome)).is_err() {
                        return;
                    }
                }
            })
        })
        .collect();
    drop(result_tx);

    let mut outcomes: Vec<Option<SweepOutcome>> = vec![None; specs.len()];
    while let Ok((index, outcome)) = result_rx.recv() {
        outcomes[index] = Some(outcome);
    }
    for handle in handles {
        handle.join().expect("sweep worker panicked");
    }
    outcomes
        .into_iter()
        .map(|slot| slot.expect("every spec produced an outcome"))
        .collect()
}

/// Aggregate view of a sweep, built with the `brb-stats` accumulators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepSummary {
    /// Number of sweep points.
    pub total: usize,
    /// Number of points where every correct process delivered.
    pub completed: usize,
    /// Latency distribution (ms) over the completed points.
    pub latency_ms: Accumulator,
    /// Network-consumption distribution (bytes) over all points.
    pub bytes: Accumulator,
    /// Message-count distribution over all points.
    pub messages: Accumulator,
}

/// Summarises a sweep by folding partial accumulators over the ordered outcome vector.
///
/// Partials are merged in chunk order, so the floating-point reduction tree is a pure
/// function of the outcome order — never of the worker count that produced the outcomes.
pub fn summarize(outcomes: &[SweepOutcome]) -> SweepSummary {
    const CHUNK: usize = 16;
    let mut latency = Accumulator::default();
    let mut bytes = Accumulator::default();
    let mut messages = Accumulator::default();
    let mut completed = 0usize;
    for chunk in outcomes.chunks(CHUNK) {
        let mut part_latency = Accumulator::default();
        let mut part_bytes = Accumulator::default();
        let mut part_messages = Accumulator::default();
        for outcome in chunk {
            let r = &outcome.record.result;
            if let Some(l) = r.latency_ms {
                part_latency.push(l);
            }
            if r.complete() {
                completed += 1;
            }
            part_bytes.push(r.bytes as f64);
            part_messages.push(r.messages as f64);
        }
        latency.merge(&part_latency);
        bytes.merge(&part_bytes);
        messages.merge(&part_messages);
    }
    SweepSummary {
        total: outcomes.len(),
        completed,
        latency_ms: latency,
        bytes,
        messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brb_core::config::Config;

    fn spec(n: usize, k: usize, f: usize, seed: u64, graph_seed: u64) -> ExperimentSpec {
        let mut params = ExperimentParams::new(n, k, f, Config::bdopt_mbd1(n, f));
        params.payload_size = 64;
        params.seed = seed;
        ExperimentSpec::new(format!("n{n}k{k}s{seed}"), graph_seed, params)
    }

    fn small_matrix() -> Vec<ExperimentSpec> {
        let mut specs = Vec::new();
        for (n, k, f) in [(10usize, 4usize, 1usize), (12, 5, 2), (16, 5, 2)] {
            for run in 0..3u64 {
                specs.push(spec(n, k, f, 100 + run, 9_000 + run));
            }
        }
        specs
    }

    #[test]
    fn sweep_preserves_spec_order_and_labels() {
        let specs = small_matrix();
        let outcomes = run_sweep(&specs, 4);
        assert_eq!(outcomes.len(), specs.len());
        for (spec, outcome) in specs.iter().zip(&outcomes) {
            assert_eq!(spec.label, outcome.label);
            assert!(
                outcome.record.result.complete(),
                "{} must complete",
                spec.label
            );
        }
    }

    #[test]
    fn worker_count_does_not_change_outcomes() {
        let specs = small_matrix();
        let serial = run_sweep(&specs, 1);
        for workers in [2, 3, 8] {
            let parallel = run_sweep(&specs, workers);
            assert_eq!(serial, parallel, "sweep differs with {workers} workers");
        }
    }

    #[test]
    fn shared_graph_seed_reuses_the_topology() {
        // Two configs on the same (n, k, graph_seed) must see the same bytes ordering
        // relationship as running them on an explicitly shared graph.
        let n = 16;
        let (k, f) = (5, 2);
        let mut base = ExperimentParams::new(n, k, f, Config::bdopt(n, f));
        base.seed = 7;
        let mut opt = ExperimentParams::new(n, k, f, Config::bdopt_mbd1(n, f));
        opt.seed = 7;
        let specs = vec![
            ExperimentSpec::new("base", 42, base),
            ExperimentSpec::new("mbd1", 42, opt),
        ];
        let outcomes = run_sweep(&specs, 2);
        assert!(outcomes[1].record.result.bytes < outcomes[0].record.result.bytes);
    }

    #[test]
    fn summarize_counts_and_averages() {
        let specs = small_matrix();
        let outcomes = run_sweep(&specs, 2);
        let summary = summarize(&outcomes);
        assert_eq!(summary.total, specs.len());
        assert_eq!(summary.completed, specs.len());
        assert_eq!(summary.latency_ms.count(), specs.len());
        assert!(summary.latency_ms.mean() > 0.0);
        assert!(summary.bytes.min() <= summary.bytes.max());
    }

    #[test]
    fn summarize_is_identical_for_any_worker_count() {
        let specs = small_matrix();
        let s1 = summarize(&run_sweep(&specs, 1));
        let s8 = summarize(&run_sweep(&specs, 8));
        assert_eq!(s1, s8);
    }

    #[test]
    fn empty_sweep_is_empty() {
        let outcomes = run_sweep(&[], 4);
        assert!(outcomes.is_empty());
        let summary = summarize(&outcomes);
        assert_eq!(summary.total, 0);
        assert_eq!(summary.completed, 0);
        assert_eq!(summary.latency_ms.count(), 0);
    }
}
