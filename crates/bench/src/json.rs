//! Minimal hand-rolled JSON emission shared by the machine-readable benchmark binaries.
//!
//! The workspace deliberately carries no JSON dependency, so `bench_quiescence` and
//! `bench_consensus` used to each format their `BENCH_*.json` snapshot with ad-hoc
//! `format!` strings. This module is that formatting written once: an insertion-ordered
//! [`JsonObject`] builder that renders pretty-printed two-space-indented JSON, plus the
//! `--out PATH` argument parsing and the write-echo epilogue both binaries share.
//!
//! The emitted documents parse under `brb_trace::parse_json`, which the round-trip test
//! below pins.

use std::fmt::Write as _;

/// One JSON value as the benchmark emitters need it: numbers are pre-formatted strings
/// (so callers control float precision), objects nest.
#[derive(Debug, Clone)]
enum JsonField {
    /// A pre-rendered literal: number or boolean.
    Raw(String),
    /// A string value (escaped on render).
    Str(String),
    /// A nested object.
    Obj(JsonObject),
}

/// An insertion-ordered JSON object builder.
///
/// ```
/// use brb_bench::json::JsonObject;
///
/// let mut obj = JsonObject::new();
/// obj.str("bench", "demo").u64("iters", 3).f64("mean_ms", 1.5, 3);
/// assert!(obj.render().contains("\"mean_ms\": 1.500"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    fields: Vec<(String, JsonField)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.fields
            .push((key.to_string(), JsonField::Str(value.to_string())));
        self
    }

    /// Appends an unsigned integer field.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.fields
            .push((key.to_string(), JsonField::Raw(value.to_string())));
        self
    }

    /// Appends a float field rendered with the given number of decimal places.
    pub fn f64(&mut self, key: &str, value: f64, places: usize) -> &mut Self {
        self.fields
            .push((key.to_string(), JsonField::Raw(format!("{value:.places$}"))));
        self
    }

    /// Appends a nested object field.
    pub fn obj(&mut self, key: &str, value: JsonObject) -> &mut Self {
        self.fields.push((key.to_string(), JsonField::Obj(value)));
        self
    }

    /// Renders the object as pretty-printed JSON (two-space indent, trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        if self.fields.is_empty() {
            out.push_str("{}");
            return;
        }
        let pad = "  ".repeat(depth + 1);
        out.push_str("{\n");
        for (i, (key, field)) in self.fields.iter().enumerate() {
            let _ = write!(out, "{pad}\"{}\": ", brb_trace::escape_json(key));
            match field {
                JsonField::Raw(raw) => out.push_str(raw),
                JsonField::Str(s) => {
                    let _ = write!(out, "\"{}\"", brb_trace::escape_json(s));
                }
                JsonField::Obj(obj) => obj.render_into(out, depth + 1),
            }
            if i + 1 < self.fields.len() {
                out.push(',');
            }
            out.push('\n');
        }
        let _ = write!(out, "{}}}", "  ".repeat(depth));
    }
}

/// Parses the `--out PATH` / `--out=PATH` option every benchmark binary supports,
/// defaulting to `default` when absent.
pub fn out_path_from_args(args: &[String], default: &str) -> String {
    args.iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| {
            args.iter()
                .find_map(|a| a.strip_prefix("--out=").map(str::to_string))
        })
        .unwrap_or_else(|| default.to_string())
}

/// The host a snapshot was taken on — available cores and CPU model — so a committed
/// `BENCH_*.json` says what its wall-clock numbers are relative to.
pub fn host() -> JsonObject {
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
    let mut obj = JsonObject::new();
    obj.u64("nproc", nproc as u64).str("cpu_model", &cpu_model);
    obj
}

/// The shared epilogue: writes `json` to `path`, echoes it to stdout, and prints the
/// `# written to` marker the smoke script greps for.
///
/// # Panics
///
/// Panics when the path is not writable — benchmark binaries want the hard failure.
pub fn write_and_echo(path: &str, json: &str) {
    std::fs::write(path, json).expect("JSON output path must be writable");
    print!("{json}");
    println!("# written to {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_parseable_nested_json() {
        let mut inner = JsonObject::new();
        inner.u64("first_bytes", 100).u64("last_bytes", 400);
        let mut obj = JsonObject::new();
        obj.str("bench", "demo \"quoted\"")
            .f64("mean_ms", 12.3456, 3)
            .obj("curve", inner)
            .obj("empty", JsonObject::new());
        let rendered = obj.render();
        assert!(rendered.contains("\"mean_ms\": 12.346"));
        assert!(rendered.ends_with("}\n"));
        let parsed = brb_trace::parse_json(&rendered).expect("round-trips");
        let brb_trace::JsonValue::Object(fields) = &parsed else {
            panic!("top level must be an object");
        };
        assert_eq!(fields.len(), 4);
        assert_eq!(
            parsed.get("bench").and_then(|v| v.as_str()),
            Some("demo \"quoted\"")
        );
        assert_eq!(
            parsed
                .get("curve")
                .and_then(|c| c.get("last_bytes"))
                .and_then(|v| v.as_u64()),
            Some(400)
        );
    }

    #[test]
    fn host_records_cores_and_cpu_model() {
        let rendered = host().render();
        let parsed = brb_trace::parse_json(&rendered).expect("parses");
        assert!(parsed.get("nproc").and_then(|v| v.as_u64()).is_some());
        assert!(parsed
            .get("cpu_model")
            .and_then(|v| v.as_str())
            .is_some_and(|model| !model.is_empty()));
    }

    #[test]
    fn out_path_parsing() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(out_path_from_args(&args(&[]), "d.json"), "d.json");
        assert_eq!(
            out_path_from_args(&args(&["--out", "a.json"]), "d.json"),
            "a.json"
        );
        assert_eq!(
            out_path_from_args(&args(&["--out=b.json"]), "d.json"),
            "b.json"
        );
    }
}
