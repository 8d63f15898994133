//! `BENCHMARK.json`, generated from the registries: the file at the repository root is
//! `brb-benchmark list --benchmark-json`, and `tests/contract.rs` fails when the two
//! differ, so the metric and workload lists have one source.

use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;
use crate::DEFAULT_SECONDS;

/// The command the benchmark is run by, from the root of a checkout; the driver appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// The directories that hold the benchmark and nothing else.
pub const PATHS: &[&str] = &["benchmark"];

fn metric(def: &MetricDef) -> Json {
    let mut entry = Json::obj();
    entry
        .set("name", Json::str(def.name))
        .set("unit", Json::str(def.unit))
        .set("better", Json::str(def.better.as_str()));
    if let Some(bound) = def.bound {
        entry.set("bound", Json::Num(bound));
    }
    entry
}

/// One top-level key with its list, one list element per line.
fn list_block(key: &str, items: Vec<Json>) -> String {
    let lines: Vec<String> = items
        .iter()
        .map(|item| format!("    {}", item.render()))
        .collect();
    format!("  \"{key}\": [\n{}\n  ]", lines.join(",\n"))
}

/// The content of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(s)).collect()).render();
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            let mut entry = Json::obj();
            entry
                .set("name", Json::str(w.name))
                .set("why", Json::str(w.why));
            entry
        })
        .collect();
    [
        "{".to_string(),
        format!("  \"command\": {},", strings(COMMAND)),
        format!("  \"paths\": {},", strings(PATHS)),
        format!("  \"run_seconds\": {},", DEFAULT_SECONDS as u64),
        format!("{},", list_block("workloads", workloads)),
        format!(
            "{},",
            list_block("end_to_end", END_TO_END.iter().map(metric).collect())
        ),
        list_block("per_layer", PER_LAYER.iter().map(metric).collect()),
        "}".to_string(),
    ]
    .join("\n")
        + "\n"
}
