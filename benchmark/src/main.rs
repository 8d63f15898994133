//! `brb-benchmark run | compare | noise | list` — see `README.md`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use brb_benchmark::compare::compare;
use brb_benchmark::host::host_facts;
use brb_benchmark::json::Json;
use brb_benchmark::metrics::{END_TO_END, PER_LAYER};
use brb_benchmark::run::{result_path, run_workload, write_file, RunOptions};
use brb_benchmark::workloads::{self, WORKLOADS};
use brb_benchmark::DEFAULT_SECONDS;

const USAGE: &str = "usage:
  brb-benchmark run [--workload NAME] [--seed S] [--seconds N] [--trace 0|1 | --traced] [--out DIR]
  brb-benchmark compare A.json B.json
  brb-benchmark noise [--seed S] [--seconds N] [--out DIR]
  brb-benchmark list [--benchmark-json]";

/// The value following `flag`, if the flag is there.
fn value_of<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn parse<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    value_of(args, flag)?
        .map(|v| v.parse().map_err(|_| format!("{flag}: cannot read {v:?}")))
        .transpose()
}

fn options(args: &[String]) -> Result<RunOptions, String> {
    let traced = args.iter().any(|a| a == "--traced")
        || match value_of(args, "--trace")? {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        };
    let seconds = parse::<f64>(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    Ok(RunOptions {
        seed: parse(args, "--seed")?,
        seconds,
        traced,
        out_dir: value_of(args, "--out")?.map_or_else(
            || Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
            PathBuf::from,
        ),
    })
}

/// Runs one workload in this process and prints its metrics; the result line is last.
fn run_one(name: &str, options: &RunOptions) -> Result<ExitCode, String> {
    let workload = workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name:?}; expected one of: {}",
            names.join(", ")
        )
    })?;
    let outcome = run_workload(workload, options)?;
    println!(
        "# {} ({})",
        workload.name,
        if options.traced { "traced" } else { "untraced" }
    );
    for reading in &outcome.readings {
        println!(
            "{:<44} {:>18.6} {:<8} n={}",
            reading.def.name,
            reading.value,
            reading.def.unit,
            reading.samples.len()
        );
    }
    println!("{}", outcome.result_line);
    if outcome.failed > 0 {
        eprintln!(
            "{}: {} broadcasts were not delivered by every correct process",
            name, outcome.failed
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs every workload, each in a child process of its own (so that peak memory and
/// CPU are the workload's alone), and merges their result files.
fn run_all(options: &RunOptions) -> Result<ExitCode, String> {
    let started = Instant::now();
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut merged = Json::obj();
    let mut failures = Vec::new();
    for workload in WORKLOADS {
        let mut child = Command::new(&exe);
        child
            .args(["run", "--workload", workload.name])
            .args(["--seconds", &options.seconds.to_string()])
            .args(["--trace", if options.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&options.out_dir);
        if let Some(seed) = options.seed {
            child.args(["--seed", &seed.to_string()]);
        }
        // `status` waits for the child to end.
        let status = child
            .status()
            .map_err(|e| format!("{}: {e}", workload.name))?;
        if !status.success() {
            failures.push(workload.name);
            continue;
        }
        let path = result_path(&options.out_dir, workload.name, options.traced);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        merged.set(workload.name, Json::Raw(text.trim_end().to_string()));
    }
    let mut document = Json::obj();
    document
        .set("host", host_facts())
        .set("seed", options.seed.map_or(Json::Null, Json::Int))
        .set("seconds", Json::Num(options.seconds))
        .set("traced", Json::Bool(options.traced))
        .set("wall_s", Json::Num(started.elapsed().as_secs_f64()))
        .set("workloads", merged);
    let path = result_path(&options.out_dir, "results", options.traced);
    write_file(&path, &document.render())?;
    println!(
        "# all workloads: {:.1} s, results in {}",
        started.elapsed().as_secs_f64(),
        path.display()
    );
    if failures.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("failed workloads: {}", failures.join(", "));
        Ok(ExitCode::FAILURE)
    }
}

fn compare_files(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let (table, any_worse) = compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Two full sets of runs of the same code, fed to `compare`: the benchmark's own bounds
/// must hold between them.
fn noise(args: &[String]) -> Result<ExitCode, String> {
    let base = options(args)?;
    let mut files = Vec::new();
    for set in ["noise_a", "noise_b"] {
        let set_options = RunOptions {
            out_dir: base.out_dir.join(set),
            traced: false,
            ..base.clone()
        };
        if run_all(&set_options)? != ExitCode::SUCCESS {
            return Ok(ExitCode::FAILURE);
        }
        files.push(result_path(&set_options.out_dir, "results", false));
    }
    compare_files(&files[0], &files[1])
}

fn list() {
    println!("workloads:");
    for workload in WORKLOADS {
        println!("  {:<30} {}", workload.name, workload.why);
    }
    println!("metrics:");
    for metric in END_TO_END.iter().chain(PER_LAYER) {
        let bound = metric
            .bound
            .map_or(String::new(), |b| format!(" bound {:.0}%", b * 100.0));
        println!(
            "  {:<44} {:<8} {:<18} {} is better{bound} - {}",
            metric.name,
            metric.unit,
            metric.layer,
            metric.better.as_str(),
            metric.what
        );
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => {
            let options = options(args)?;
            match value_of(args, "--workload")? {
                Some(name) => run_one(name, &options),
                None => run_all(&options),
            }
        }
        Some("compare") => match args {
            [_, a, b] => compare_files(Path::new(a), Path::new(b)),
            _ => Err(USAGE.to_string()),
        },
        Some("noise") => noise(args),
        Some("list") => {
            if args.iter().any(|a| a == "--benchmark-json") {
                print!("{}", brb_benchmark::contract::benchmark_json());
            } else {
                list();
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("brb-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
