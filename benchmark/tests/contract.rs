//! `BENCHMARK.json` at the repository root against the benchmark's registries and the
//! limits of the contract it is written to.

use std::path::Path;

use brb_benchmark::contract::{benchmark_json, COMMAND, PATHS};
use brb_benchmark::metrics::{END_TO_END, PER_LAYER};
use brb_benchmark::workloads::WORKLOADS;
use brb_trace::json::{parse_json, JsonValue};

fn committed() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn the_committed_file_is_what_the_registries_generate() {
    assert_eq!(
        committed(),
        benchmark_json(),
        "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- list --benchmark-json > BENCHMARK.json"
    );
}

fn names(doc: &JsonValue, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("{key} must be a list"))
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn the_file_stays_within_the_contract() {
    let text = benchmark_json();
    assert!(text.len() <= 64 * 1024);
    let doc = parse_json(&text).expect("BENCHMARK.json is JSON");
    let JsonValue::Object(top) = &doc else {
        panic!("an object")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );

    let run_seconds = doc
        .get("run_seconds")
        .and_then(JsonValue::as_u64)
        .expect("whole seconds");
    assert!((1..=60).contains(&run_seconds));
    assert_eq!(run_seconds as f64, brb_benchmark::DEFAULT_SECONDS);

    assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|part| part.len() <= 200));
    for part in COMMAND {
        assert!(!part.starts_with('/') && !part.contains(".."), "{part}");
        if part.contains('/') {
            assert!(
                PATHS.iter().any(|p| part.starts_with(&format!("{p}/"))),
                "{part} is outside paths"
            );
        }
    }
    assert!((1..=16).contains(&PATHS.len()));

    let allowed = |s: &str, extra: &str| {
        s.chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    };
    let mut all_names = names(&doc, "workloads");
    assert!((2..=8).contains(&all_names.len()));
    for workload in WORKLOADS {
        assert!(
            workload.why.len() <= 200 && !workload.why.contains('\n'),
            "{}",
            workload.name
        );
    }
    let (e2e, layers) = (names(&doc, "end_to_end"), names(&doc, "per_layer"));
    assert!((1..=16).contains(&e2e.len()) && (1..=128).contains(&layers.len()));
    all_names.extend(e2e);
    all_names.extend(layers);
    for name in &all_names {
        assert!(name.len() <= 64 && allowed(name, "_.-"), "{name}");
        assert!(
            name.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "{name}"
        );
    }
    for metric in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            metric.unit.len() <= 16 && allowed(metric.unit, "_/%.-"),
            "{}",
            metric.name
        );
    }
    for metric in END_TO_END {
        let bound = metric.bound.expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}", metric.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    let largest = END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
}
