//! Validates emitted trace artifacts against the `brb-trace` event schema.
//!
//! CI runs `trace_study` (which writes a JSONL event stream and a Chrome trace-event
//! JSON file) and then this binary on the artifacts: every JSONL line must parse and
//! carry the typed event fields (`backend`, `node`, `source`, `seq`, `time_us`,
//! `kind`), and the Chrome trace must be a well-formed event array Perfetto accepts.
//! Exit code 1 with a diagnostic on the first violation.
//!
//! Usage: `cargo run --release -p brb-bench --bin trace_validate -- \
//!     --jsonl PATH [--chrome PATH]`

use brb_trace::{validate_chrome_trace, validate_jsonl};

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    let prefixed = format!("{flag}=");
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| {
            args.iter()
                .find_map(|a| a.strip_prefix(&prefixed).map(str::to_string))
        })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jsonl_path = arg_value(&args, "--jsonl");
    let chrome_path = arg_value(&args, "--chrome");
    if jsonl_path.is_none() && chrome_path.is_none() {
        eprintln!("usage: trace_validate --jsonl PATH [--chrome PATH]");
        std::process::exit(2);
    }

    if let Some(path) = jsonl_path {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        match validate_jsonl(&text) {
            Ok(events) => println!("OK: {path}: {events} events validate against the schema"),
            Err(e) => {
                eprintln!("FAIL: {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = chrome_path {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        match validate_chrome_trace(&text) {
            Ok(entries) => println!("OK: {path}: {entries} well-formed trace entries"),
            Err(e) => {
                eprintln!("FAIL: {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
