//! Runs every experiment harness in sequence (Table 1, Figs. 4–10, memory) and prints all
//! results — the one way to reproduce the paper's evaluation section. Each harness's
//! rows carry its name in the first (`section`) CSV column: `table1`, `fig4`, `fig5`,
//! `fig6`, `fig7_to_10` and `memory`.
//!
//! Usage: `cargo run --release -p brb-bench --bin all_experiments [-- --quick] [-- --async]
//! [-- --workers N] [-- --stack NAME] [-- --csv PATH] [-- --workload] [-- --behaviors]
//! [-- --churn] [-- --consensus] [-- --trace] [-- --saturation]`
//!
//! The unconditional run also sweeps the non-regular topology families (planar grid,
//! geometric random graph, bounded-degree expander) across the paper's
//! `k >= 2f + 1` connectivity thresholds (see `brb_bench::figures::run_topology_families`),
//! emitting rows in the `families` CSV section.
//!
//! `--consensus` additionally runs the consensus-over-BRB matrix (seeded binary
//! Byzantine consensus where every round message rides a fresh BRB instance of the
//! selected stack; see `brb_bench::consensus`), emitting per-scenario decision round,
//! rounds-to-decide `p50`/`p99`, BRB instances spawned and instance-GC retirement
//! columns in the `consensus` CSV section.
//!
//! `--workload` additionally runs the multi-broadcast workload sweep (arrival process ×
//! source selection; see `brb_bench::workload`), emitting per-point throughput,
//! `p50`/`p90`/`p99` latency, and instance-GC (`gc_retired`, `retained_bytes`) columns
//! in the `workload` CSV section.
//!
//! `--behaviors` additionally runs the Byzantine behavior matrix (every
//! `brb_sim::Behavior` scenario on the simulator, the channel runtime and the TCP
//! deployment; see `brb_bench::behaviors`), emitting rows tagged in the `behavior` CSV
//! column — the live-backend rows report the deterministic delivery counts, the
//! simulator rows additionally their exact message/byte totals.
//!
//! `--churn` additionally runs the churn scenario matrix (scheduled link flaps,
//! partitions, restarts and per-link delay overrides on the simulator, plus the mixed
//! schedule on the planar-grid/geometric/expander topology families; see
//! `brb_bench::churn`), emitting rows tagged in the `behavior` CSV column with the
//! scenario name and the number of applied churn events.
//!
//! `--trace` additionally runs the structured-trace matrix (seeded scenarios on the
//! simulator with a `brb-trace` sink attached; see `brb_bench::trace`), emitting the
//! per-broadcast causal latency breakdown (`injection → first hop → threshold →
//! delivery`, virtual microseconds) in the `trace` CSV section and the per-cause
//! frame-drop totals in the `trace_drops` section. Both are functions of the virtual
//! clock, so they participate in the 1-vs-4-worker byte-equality diff.
//!
//! `--saturation` additionally runs the open-loop saturation ramp (descending
//! inter-arrival intervals on the simulator; see `brb_bench::saturation`), emitting
//! per-point offered rate, throughput, `p50`/`p99` latency, completion counts and the
//! knee flag in the `saturation` CSV section. Virtual time never collapses, so the
//! section pins the ramp's shape deterministically; the wall-clock knee of the live
//! backends lives in the `bench_saturation` binary.
//!
//! `--stack NAME` selects the protocol stack every harness sweeps (default `bd`, the
//! paper's Bracha–Dolev combination; see `brb_core::stack::StackSpec` for the other
//! names), so table/figure baselines can be regenerated per stack. The chosen stack is
//! recorded in the `stack` column of the CSV output. The MD/MBD ablation axes only move
//! the stacks that read those flags (`bd`, `dolev`); for the others the configuration
//! rows coincide. A `--stack` without a value, or with an unknown name, panics rather
//! than mislabel a whole sweep.
//!
//! `--workers N` sets the sweep's worker threads (default: the host parallelism).
//! Results are bit-identical for every worker count (see `brb_sim::sweep`), so the flag
//! only trades wall-clock time for CPU.
//!
//! With `--csv PATH` every data point is also written to a CSV file with fixed formatting.
//! Because the sweep engine is deterministic regardless of the worker count, the CSV
//! written with `--workers 1` and `--workers 4` is byte-identical — the CI smoke job
//! relies on exactly this by diffing the two files.

use std::fmt::Write as _;

use brb_bench::{
    behaviors, churn, consensus, figures, flag, flag_value, saturation, table1, trace, workload,
    Scale,
};
use brb_core::stack::StackSpec;

/// Fixed-format float rendering used for every CSV cell, so the file is a pure function
/// of the computed values.
fn cell(value: f64) -> String {
    if value.is_nan() {
        "NaN".to_string()
    } else {
        format!("{value:.6}")
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(&args);
    let asynchronous = flag(&args, "--async");
    let workers = flag_value(&args, "--workers")
        .map_or_else(brb_sim::sweep::default_workers, |n: usize| n.max(1));
    let stack = flag_value(&args, "--stack").unwrap_or(StackSpec::Bd);
    let csv_path: Option<String> = flag_value(&args, "--csv");

    let mut csv = String::from("section,stack,behavior,label,x,v1,v2,v3,v4,v5,v6,v7\n");

    println!("==============================================================");
    for row in table1::run_table1(scale, asynchronous, workers, stack) {
        let (lmin, lmax) = row.latency_range();
        let (bmin, bmax) = row.bytes_range();
        let _ = writeln!(
            csv,
            "table1,{stack},,MBD.{},{},{},{},{},{},,,",
            row.mbd,
            row.payload,
            cell(lmin),
            cell(lmax),
            cell(bmin),
            cell(bmax)
        );
    }
    println!("==============================================================");
    for p in figures::run_fig4(scale, asynchronous, workers, stack) {
        let _ = writeln!(
            csv,
            "fig4,{stack},,{},{},{},{},{},,,,",
            p.label,
            p.k,
            cell(p.result.latency_ms),
            cell(p.result.bytes),
            cell(p.result.messages)
        );
    }
    println!("==============================================================");
    for p in figures::run_fig5(scale, asynchronous, workers, stack) {
        let _ = writeln!(
            csv,
            "fig5,{stack},,{},{},{},{},{},,,,",
            p.label,
            p.k,
            cell(p.result.latency_ms),
            cell(p.result.bytes),
            cell(p.result.messages)
        );
    }
    println!("==============================================================");
    for (label, k, bytes_var, latency_var) in figures::run_fig6(scale, asynchronous, workers, stack)
    {
        let _ = writeln!(
            csv,
            "fig6,{stack},,\"{label}\",{k},{},{},,,,,",
            cell(bytes_var),
            cell(latency_var)
        );
    }
    println!("==============================================================");
    for (mbd, bytes, latency) in figures::run_fig7_to_10(scale, asynchronous, workers, stack) {
        let _ = writeln!(
            csv,
            "fig7_to_10,{stack},,MBD.{mbd},,{},{},{},{},{},,",
            cell(bytes.p2_5),
            cell(bytes.median),
            cell(bytes.p97_5),
            cell(latency.median),
            cell(latency.p97_5)
        );
    }
    println!("==============================================================");
    for (n, paths, state) in figures::run_memory(scale, workers, stack) {
        let _ = writeln!(
            csv,
            "memory,{stack},,N={n},,{},{},,,,,",
            cell(paths),
            cell(state)
        );
    }
    println!("==============================================================");
    for p in figures::run_topology_families(scale, asynchronous, stack) {
        let _ = writeln!(
            csv,
            "families,{stack},,{},{},{},{},{},{},{},,",
            p.family,
            p.k,
            cell(p.result.latency_ms),
            cell(p.result.bytes),
            cell(p.result.messages),
            p.n,
            p.f
        );
    }
    if flag(&args, "--workload") {
        println!("==============================================================");
        for p in workload::run_workload_sweep(scale, asynchronous, workers, stack) {
            let _ = writeln!(
                csv,
                "workload,{stack},,{},{},{},{},{},{},{},{},{}",
                p.label,
                p.interval_micros,
                cell(p.stats.throughput_per_sec()),
                cell(p.stats.p50_ms()),
                cell(p.stats.p90_ms()),
                cell(p.stats.p99_ms()),
                p.stats.completed,
                p.stats.gc_retired,
                p.stats.retained_bytes
            );
        }
    }

    if flag(&args, "--saturation") {
        println!("==============================================================");
        for p in saturation::run_saturation_sweep(scale, asynchronous, workers, stack) {
            let _ = writeln!(
                csv,
                "saturation,{stack},,{},{},{},{},{},{},{},{},{}",
                p.label,
                p.interval_micros,
                cell(p.offered_per_sec),
                cell(p.stats.throughput_per_sec()),
                cell(p.stats.p50_ms()),
                cell(p.stats.p99_ms()),
                p.stats.completed,
                p.stats.injected,
                u64::from(p.knee),
            );
        }
    }

    if flag(&args, "--behaviors") {
        println!("==============================================================");
        let fmt_opt = |v: Option<usize>| v.map_or(String::new(), |v| v.to_string());
        for p in behaviors::run_behavior_matrix(scale, asynchronous, workers, stack) {
            let _ = writeln!(
                csv,
                "behavior,{stack},{},{},{},{},{},{},{},,,",
                p.scenario,
                p.backend,
                p.n,
                p.delivered,
                p.correct,
                fmt_opt(p.messages),
                fmt_opt(p.bytes),
            );
        }
    }

    if flag(&args, "--churn") {
        println!("==============================================================");
        for p in churn::run_churn_matrix(scale, asynchronous, workers, stack) {
            let _ = writeln!(
                csv,
                "churn,{stack},{},{},{},{},{},{},{},{},,",
                p.scenario,
                p.label,
                p.n,
                p.delivered,
                p.correct,
                p.messages,
                p.bytes,
                p.churn_events,
            );
        }
    }

    if flag(&args, "--consensus") {
        println!("==============================================================");
        for p in consensus::run_consensus_matrix(scale, asynchronous, workers, stack) {
            let _ = writeln!(
                csv,
                "consensus,{stack},{},N={}/k={}/f={},{},{},{},{},{},{},{},{}",
                p.scenario,
                p.n,
                p.k,
                p.f,
                cell(p.decision_round),
                cell(p.rounds_p50),
                cell(p.rounds_p99),
                cell(p.instances),
                cell(p.gc_retired),
                cell(p.latency_ms),
                p.decided,
                p.honest
            );
        }
    }

    if flag(&args, "--trace") {
        println!("==============================================================");
        let fmt_us = |v: Option<u64>| v.map_or(String::new(), |v| v.to_string());
        let (breakdowns, drops) = trace::run_trace_matrix(scale, asynchronous, stack);
        for p in &breakdowns {
            let _ = writeln!(
                csv,
                "trace,{stack},{},bc{}_{},{},{},{},{},{},,,",
                p.scenario,
                p.source,
                p.seq,
                p.injection_us,
                fmt_us(p.first_hop_us),
                fmt_us(p.threshold_us),
                fmt_us(p.delivery_us),
                p.deliveries,
            );
        }
        for p in &drops {
            let _ = writeln!(
                csv,
                "trace_drops,{stack},{},{},{},,,,,,,",
                p.scenario, p.cause, p.dropped,
            );
        }
    }

    if let Some(path) = csv_path {
        std::fs::write(&path, csv).expect("CSV output path must be writable");
        println!("# CSV written to {path}");
    }
}
