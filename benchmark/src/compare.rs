//! `compare A.json B.json`: one row per workload x end-to-end metric with both medians,
//! their quartiles, the fixed bound and a verdict.

use brb_trace::json::{parse_json, JsonValue};

use crate::metrics::{Better, END_TO_END};
use crate::stats::quartiles;

/// What `compare` concludes for one workload x metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than the bound (or, where the spread
    /// exceeds the bound, every run of B reads better than every run of A).
    Better,
    /// The medians differ by no more than the bound.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    /// The word printed in the verdict column.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B's samples against A's for a metric that improves towards `better` and may
/// worsen by `bound` (a share of A's median).
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (Some((a1, a2, a3)), Some((b1, b2, b3))) = (quartiles(a), quartiles(b)) else {
        return Verdict::Unresolved;
    };
    if a2 == 0.0 {
        return if b2 == 0.0 {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = match better {
        Better::Lower => (b2 - a2) / a2.abs(),
        Better::Higher => (a2 - b2) / a2.abs(),
    };
    let spread = ((a3 - a1) / a2.abs()).max(if b2 == 0.0 { 0.0 } else { (b3 - b1) / b2.abs() });
    if spread > bound {
        let every_b_beats_every_a = match better {
            Better::Lower => max(b) < min(a),
            Better::Higher => min(b) > max(a),
        };
        return if every_b_beats_every_a {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// The workloads of a result file: a merged file lists them under `workloads`, a
/// single-workload file is its own only entry.
fn workloads(doc: &JsonValue) -> Vec<(String, &JsonValue)> {
    match doc.get("workloads") {
        Some(JsonValue::Object(map)) => map.iter().map(|(name, w)| (name.clone(), w)).collect(),
        _ => doc
            .get("workload")
            .and_then(JsonValue::as_str)
            .map(|name| vec![(name.to_string(), doc)])
            .unwrap_or_default(),
    }
}

fn samples(workload: &JsonValue, metric: &str) -> Option<Vec<f64>> {
    let values = workload
        .get("metrics")?
        .get(metric)?
        .get("samples")?
        .as_array()?;
    values.iter().map(JsonValue::as_f64).collect()
}

fn host_line(doc: &JsonValue) -> String {
    let host = doc
        .get("host")
        .or_else(|| workloads(doc).first().and_then(|(_, w)| w.get("host")));
    let field = |key: &str| {
        host.and_then(|h| h.get(key))
            .map(|v| match v {
                JsonValue::String(s) => s.clone(),
                JsonValue::Number(n) => n.to_string(),
                _ => "?".to_string(),
            })
            .unwrap_or_else(|| "?".to_string())
    };
    format!(
        "{} x {} / kernel {} / {}",
        field("nproc"),
        field("cpu_model"),
        field("kernel"),
        field("rustc")
    )
}

/// The comparison table of two result files and whether any row reads `worse`.
///
/// # Errors
///
/// Returns what is wrong with a file that is not a result file.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let a = parse_json(a_text).map_err(|e| format!("A: {e}"))?;
    let b = parse_json(b_text).map_err(|e| format!("B: {e}"))?;
    let mut out = String::new();
    let (host_a, host_b) = (host_line(&a), host_line(&b));
    out.push_str(&format!("A host: {host_a}\nB host: {host_b}\n"));
    if host_a != host_b {
        out.push_str("WARNING: the two files come from different hosts or toolchains; timings are not comparable\n");
    }
    out.push_str(&format!(
        "{:<28} {:<24} {:>12} {:>25} {:>12} {:>25} {:>6}  {}\n",
        "workload",
        "metric",
        "A median",
        "A [q1, q3]",
        "B median",
        "B [q1, q3]",
        "bound",
        "verdict"
    ));
    let b_workloads = workloads(&b);
    let mut any_worse = false;
    let mut rows = 0usize;
    for (name, a_workload) in workloads(&a) {
        let Some((_, b_workload)) = b_workloads.iter().find(|(other, _)| *other == name) else {
            continue;
        };
        for def in END_TO_END {
            let (Some(a_samples), Some(b_samples)) =
                (samples(a_workload, def.name), samples(b_workload, def.name))
            else {
                continue;
            };
            let bound = def.bound.expect("end-to-end metrics have bounds");
            let verdict = verdict(&a_samples, &b_samples, def.better, bound);
            any_worse |= verdict == Verdict::Worse;
            let cell = |s: &[f64]| match quartiles(s) {
                Some((q1, q2, q3)) => (format!("{q2:.4}"), format!("[{q1:.4}, {q3:.4}]")),
                None => ("-".to_string(), "-".to_string()),
            };
            let ((a_median, a_quartiles), (b_median, b_quartiles)) =
                (cell(&a_samples), cell(&b_samples));
            out.push_str(&format!(
                "{:<28} {:<24} {:>12} {:>25} {:>12} {:>25} {:>5.0}%  {}\n",
                name,
                def.name,
                a_median,
                a_quartiles,
                b_median,
                b_quartiles,
                bound * 100.0,
                verdict.as_str()
            ));
            rows += 1;
        }
    }
    if rows == 0 {
        return Err("the two files share no workload with end-to-end metrics".to_string());
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0];
        // Within the bound either way.
        assert_eq!(
            verdict(&a, &[104.0, 105.0, 103.0], Better::Lower, 0.10),
            Verdict::Same
        );
        // Lower-is-better metric that rose by 20 %.
        assert_eq!(
            verdict(&a, &[120.0, 121.0, 119.0], Better::Lower, 0.10),
            Verdict::Worse
        );
        // The same rise on a higher-is-better metric is a gain.
        assert_eq!(
            verdict(&a, &[120.0, 121.0, 119.0], Better::Higher, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(&a, &[80.0, 81.0, 79.0], Better::Higher, 0.10),
            Verdict::Worse
        );
        // Spread wider than the bound: unresolved ...
        let noisy = [100.0, 140.0, 60.0];
        assert_eq!(
            verdict(&noisy, &[100.0, 101.0, 99.0], Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // ... unless every run of B beats every run of A.
        assert_eq!(
            verdict(&noisy, &[50.0, 51.0, 49.0], Better::Lower, 0.10),
            Verdict::Better
        );
        assert_eq!(verdict(&[], &a, Better::Lower, 0.10), Verdict::Unresolved);
    }

    fn file(host: &str, latency: &[f64]) -> String {
        format!(
            r#"{{"host": {{"nproc": 2, "cpu_model": "{host}", "kernel": "k", "rustc": "r"}},
                "workloads": {{"w": {{"metrics": {{"latency_p50_ms": {{"value": 1, "samples": {latency:?}}}}}}}}}}}"#
        )
    }

    #[test]
    fn compare_prints_a_row_per_shared_metric_and_flags_worse() {
        let (table, worse) = compare(
            &file("x", &[1.0, 1.01, 0.99]),
            &file("x", &[2.0, 2.01, 1.99]),
        )
        .unwrap();
        assert!(worse);
        assert!(table.contains("latency_p50_ms") && table.contains("worse"));
        assert!(!table.contains("WARNING"));
        let (table, worse) =
            compare(&file("x", &[1.0, 1.01, 0.99]), &file("y", &[1.0, 1.0, 1.0])).unwrap();
        assert!(!worse);
        assert!(
            table.contains("WARNING"),
            "different hosts are never compared silently"
        );
        assert!(compare("{}", "{}").is_err());
    }
}
