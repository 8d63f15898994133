//! Running one workload: repetitions, aggregation, the result file and the result line.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::host::{host_facts, peak_rss_mb};
use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::replay::replay;
use crate::stats::{median, quartiles};
use crate::trace::{span_summary, spans_jsonl, TraceHub};
use crate::workloads::{Kind, Rep, RepRequest, Workload};

/// `setup_s` samples a run aims for (repetitions plus set-up-only cycles) ...
const SETUP_SAMPLES: usize = 41;
/// ... within this much extra wall time.
const SETUP_BUDGET: Duration = Duration::from_millis(1_500);

/// What `run` was asked.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// `--seed`: `None` runs every workload at its historical seeds.
    pub seed: Option<u64>,
    /// `--seconds`: how long a workload measures.
    pub seconds: f64,
    /// `--trace 1` / `--traced`: report the per-layer metrics from wrapped repetitions.
    pub traced: bool,
    /// Where result files and traces go.
    pub out_dir: PathBuf,
}

/// One reported metric: its value (the median of its samples) and the samples.
pub struct Reading {
    /// The metric.
    pub def: &'static MetricDef,
    /// Median of `samples` (0 for a per-layer metric whose layer did nothing).
    pub value: f64,
    /// One sample per repetition (or per set-up cycle for `setup_s`).
    pub samples: Vec<f64>,
}

/// What one workload run produced.
pub struct Outcome {
    /// The last line of standard output.
    pub result_line: String,
    /// The metrics reported, in registry order.
    pub readings: Vec<Reading>,
    /// Broadcasts not delivered by every correct process before the timeout.
    pub failed: u64,
}

fn reading(def: &'static MetricDef, samples: Vec<f64>) -> Reading {
    Reading {
        def,
        value: if samples.is_empty() {
            0.0
        } else {
            median(&samples)
        },
        samples,
    }
}

fn per_broadcast(reps: &[&Rep], value: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter()
        .filter(|rep| rep.completed > 0)
        .map(|rep| value(rep) / rep.completed as f64)
        .collect()
}

/// The end-to-end readings of a set of untraced repetitions.
fn end_to_end(reps: &[&Rep], setup_samples: Vec<f64>) -> Vec<Reading> {
    END_TO_END
        .iter()
        .map(|def| {
            let samples = match def.name {
                "setup_s" => setup_samples.clone(),
                "broadcasts_per_s" => reps
                    .iter()
                    .filter(|rep| rep.wall_s > 0.0)
                    .map(|rep| rep.completed as f64 / rep.wall_s)
                    .collect(),
                "cpu_ms_per_broadcast" => per_broadcast(reps, |rep| rep.cpu_s * 1e3),
                "latency_p50_ms" => reps.iter().map(|rep| rep.latency_p50_ms).collect(),
                "bytes_per_broadcast" => per_broadcast(reps, |rep| rep.bytes as f64),
                "messages_per_broadcast" => per_broadcast(reps, |rep| rep.messages as f64),
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            reading(def, samples)
        })
        .collect()
}

/// The per-layer readings: medians over the traced repetitions, the replays of the last
/// one, and the tracing overhead against the untraced reference repetition.
fn per_layer(
    traced: &[&Rep],
    reference: &Rep,
    reference_rss_mb: f64,
    replayed: &BTreeMap<&'static str, f64>,
) -> Vec<Reading> {
    let cpu_ms = |reps: &[&Rep]| {
        let samples = per_broadcast(reps, |rep| rep.cpu_s * 1e3);
        if samples.is_empty() {
            0.0
        } else {
            median(&samples)
        }
    };
    let (traced_ms, untraced_ms) = (cpu_ms(traced), cpu_ms(&[reference]));
    PER_LAYER
        .iter()
        .map(|def| {
            let samples: Vec<f64> = match def.name {
                "bench.trace_overhead_pct" if untraced_ms > 0.0 => {
                    vec![(traced_ms / untraced_ms - 1.0) * 100.0]
                }
                "runtime.peak_rss_mb" => vec![reference_rss_mb],
                name => match replayed.get(name) {
                    Some(&value) => vec![value],
                    None => traced
                        .iter()
                        .filter_map(|rep| rep.layers.get(name).copied())
                        .collect(),
                },
            };
            reading(def, samples)
        })
        .collect()
}

fn reading_json(reading: &Reading) -> Json {
    let def = reading.def;
    let mut entry = Json::obj();
    entry
        .set("value", Json::Num(reading.value))
        .set("unit", Json::str(def.unit))
        .set("layer", Json::str(def.layer))
        .set("better", Json::str(def.better.as_str()));
    if let Some(bound) = def.bound {
        entry.set("bound", Json::Num(bound));
    }
    if let Some((q1, _, q3)) = quartiles(&reading.samples) {
        entry.set("q1", Json::Num(q1)).set("q3", Json::Num(q3));
    }
    entry
        .set("n", Json::Int(reading.samples.len() as u64))
        .set("samples", Json::nums(&reading.samples));
    entry
}

/// Runs `workload` as `options` asks and writes its result file (and, traced, its spans).
///
/// # Errors
///
/// Returns the failed precondition, BRB violation, count mismatch or I/O error.
pub fn run_workload(workload: &Workload, options: &RunOptions) -> Result<Outcome, String> {
    let run_started = Instant::now();
    let seeds = workload.seeds(options.seed);
    let phase = workload.phase(options.seconds);
    let live = matches!(workload.kind, Kind::Live(_));

    // A traced run opens with one untraced repetition: the reference its overhead is
    // measured against.
    let mut reps: Vec<(bool, Rep)> = Vec::new();
    let mut measured_s = 0.0;
    let mut first_rep_rss_mb = 0.0;
    loop {
        let traced = options.traced && !reps.is_empty();
        let request = RepRequest {
            seeds: &seeds,
            phase,
            hub: traced.then(|| Arc::new(TraceHub::new())),
        };
        let rep = workload.repetition(&request)?;
        measured_s += rep.wall_s;
        if reps.is_empty() {
            // Before any wrapper has allocated anything: the system's own peak.
            first_rep_rss_mb = peak_rss_mb();
        }
        // Only the last traced repetition keeps its recording, for the replays.
        if let Some((_, previous)) = reps.last_mut() {
            previous.recorded = None;
        }
        reps.push((traced, rep));
        let enough = if live {
            reps.len() >= crate::workloads::live::REPETITIONS
        } else {
            measured_s >= options.seconds
        };
        if enough && (!options.traced || reps.len() >= 2) {
            break;
        }
    }

    let attempted: u64 = reps.iter().map(|(_, rep)| rep.attempted).sum();
    let completed: u64 = reps.iter().map(|(_, rep)| rep.completed).sum();
    let failed = attempted - completed;
    let untraced: Vec<&Rep> = reps
        .iter()
        .filter(|(t, _)| !t)
        .map(|(_, rep)| rep)
        .collect();

    let mut span_report = None;
    let readings = if options.traced {
        let traced: Vec<&Rep> = reps
            .iter()
            .filter(|(t, _)| *t)
            .map(|(_, rep)| rep)
            .collect();
        let last = traced.last().expect("a traced run has a traced repetition");
        let recorded = last
            .recorded
            .as_ref()
            .expect("the last repetition keeps its recording");
        let (stack, config) = match workload.kind {
            Kind::Sim(spec) => (brb_core::stack::StackSpec::Bd, (spec.config)()),
            Kind::Live(spec) => (spec.stack, (spec.config)()),
        };
        let replayed = replay(recorded, stack, &config);
        write_file(
            &options
                .out_dir
                .join(format!("{}.trace.jsonl", workload.name)),
            &spans_jsonl(&recorded.spans),
        )?;
        span_report = Some(span_summary(&recorded.spans));
        per_layer(&traced, untraced[0], first_rep_rss_mb, &replayed)
    } else {
        let mut setup_samples: Vec<f64> = untraced.iter().map(|rep| rep.setup_s).collect();
        let extras_started = Instant::now();
        while setup_samples.len() < SETUP_SAMPLES && extras_started.elapsed() < SETUP_BUDGET {
            setup_samples.push(workload.setup_only(&seeds)?);
        }
        end_to_end(&untraced, setup_samples)
    };

    let mut metrics = Json::obj();
    let mut line_metrics = Json::obj();
    for reading in &readings {
        metrics.set(reading.def.name, reading_json(reading));
        let mut brief = Json::obj();
        brief
            .set("value", Json::Num(reading.value))
            .set("unit", Json::str(reading.def.unit));
        line_metrics.set(reading.def.name, brief);
    }
    let mut document = Json::obj();
    document
        .set("workload", Json::str(workload.name))
        .set("why", Json::str(workload.why))
        .set("traced", Json::Bool(options.traced))
        .set("seed", options.seed.map_or(Json::Null, Json::Int))
        .set("seconds", Json::Num(options.seconds))
        .set("host", host_facts())
        .set("repetitions", Json::Int(reps.len() as u64))
        .set("correct", Json::Bool(true))
        .set("attempted", Json::Int(attempted))
        .set("failed", Json::Int(failed))
        .set(
            "failed_share",
            Json::Num(failed as f64 / attempted.max(1) as f64),
        )
        .set("peak_rss_mb", Json::Num(peak_rss_mb()))
        .set("metrics", metrics);
    if let Some(summary) = span_report {
        document.set("span_summary", summary);
    }
    document.set("wall_s", Json::Num(run_started.elapsed().as_secs_f64()));
    write_file(
        &result_path(&options.out_dir, workload.name, options.traced),
        &document.render(),
    )?;

    let mut line = Json::obj();
    line.set("correct", Json::Bool(true))
        .set("attempted", Json::Int(attempted.max(1)))
        .set("failed", Json::Int(failed))
        .set("metrics", line_metrics);
    Ok(Outcome {
        result_line: line.render(),
        readings,
        failed,
    })
}

/// Where a workload's result file goes.
pub fn result_path(out_dir: &Path, workload: &str, traced: bool) -> PathBuf {
    out_dir.join(format!(
        "{workload}{}.json",
        if traced { ".traced" } else { "" }
    ))
}

/// Writes `content` (plus a final newline) to `path`, creating its directory.
///
/// # Errors
///
/// Returns the I/O error with the path it concerns.
pub fn write_file(path: &Path, content: &str) -> Result<(), String> {
    let describe = |e: std::io::Error| format!("{}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(describe)?;
    }
    std::fs::write(path, format!("{content}\n")).map_err(describe)
}
