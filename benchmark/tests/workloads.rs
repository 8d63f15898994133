//! The harness end to end, on runs short enough for `cargo test`: every live workload,
//! untraced and traced.

use brb_benchmark::metrics::{END_TO_END, PER_LAYER};
use brb_benchmark::run::{run_workload, RunOptions};
use brb_benchmark::workloads::{Kind, WORKLOADS};
use brb_trace::json::{parse_json, JsonValue};
use std::path::PathBuf;

fn out_dir(test: &str) -> PathBuf {
    // Inside the target directory, so that tests leave nothing behind in the sources.
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

fn metric_names(line: &str) -> Vec<String> {
    let parsed = parse_json(line).expect("the result line is JSON");
    let JsonValue::Object(top) = &parsed else {
        panic!("an object")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(parsed.get("failed").and_then(JsonValue::as_u64), Some(0));
    assert!(
        parsed
            .get("attempted")
            .and_then(JsonValue::as_u64)
            .expect("attempted")
            >= 1
    );
    let JsonValue::Object(metrics) = parsed.get("metrics").expect("metrics") else {
        panic!("an object")
    };
    for (name, entry) in metrics {
        assert!(
            entry.get("value").and_then(JsonValue::as_f64).is_some(),
            "{name} has no number"
        );
        assert!(
            entry.get("unit").and_then(JsonValue::as_str).is_some(),
            "{name} has no unit"
        );
    }
    metrics.keys().cloned().collect()
}

#[test]
fn live_workloads_report_every_metric_of_their_pass() {
    for workload in WORKLOADS.iter().filter(|w| matches!(w.kind, Kind::Live(_))) {
        for traced in [false, true] {
            let options = RunOptions {
                seed: Some(7),
                seconds: 0.9,
                traced,
                out_dir: out_dir("live"),
            };
            let outcome = run_workload(workload, &options)
                .unwrap_or_else(|e| panic!("{} (traced: {traced}): {e}", workload.name));
            assert_eq!(outcome.failed, 0, "{}", workload.name);
            let mut expected: Vec<&str> = if traced { PER_LAYER } else { END_TO_END }
                .iter()
                .map(|m| m.name)
                .collect();
            expected.sort_unstable();
            assert_eq!(
                metric_names(&outcome.result_line),
                expected,
                "{}",
                workload.name
            );
            if traced {
                let value = |name: &str| {
                    outcome
                        .readings
                        .iter()
                        .find(|r| r.def.name == name)
                        .expect(name)
                        .value
                };
                assert!(
                    value("bench.unattributed_share") < 0.10,
                    "{}",
                    workload.name
                );
                assert!(value("core.engine.calls") > 0.0 && value("bench.spans_recorded") > 0.0);
                assert!(value("transport.driver.thread_cpu_s") > 0.0);
                let spans = out_dir("live").join(format!("{}.trace.jsonl", workload.name));
                let text = std::fs::read_to_string(spans).expect("spans are written out");
                assert!(
                    text.lines().any(|line| line.contains("\"broadcast\"")),
                    "root spans"
                );
            } else {
                for reading in &outcome.readings {
                    assert!(
                        reading.value > 0.0,
                        "{} of {} is never 0",
                        reading.def.name,
                        workload.name
                    );
                }
            }
        }
    }
}
