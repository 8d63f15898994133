#!/usr/bin/env bash
# Emits every machine-readable BENCH_*.json snapshot in one invocation.
#
# bench_consensus asserts consensus termination, agreement and GC retirement and exits
# non-zero on a regression; bench_saturation records the live knee of both backends.
# This script is the one command that refreshes both snapshots: the artifacts land in
# the output directory (default the repo root). The saturation study runs at quick
# scale, the scale the committed `BENCH_saturation.json` records. Both are committed
# and record the host's nproc / CPU model; refresh them from the reference host only.
# (The engine's quiescence time is the benchmark ledger's `sim_bd_n100_k12_1k`
# workload, and the GC memory curve is asserted by `examples/gc_memory_study.rs`.)
#
# Usage: scripts/bench_all.sh [output-dir]
set -euo pipefail

out="${1:-.}"
mkdir -p "$out"

echo "== bench_consensus -> $out/BENCH_consensus.json"
cargo run --release -p brb-bench --bin bench_consensus -- \
    --out "$out/BENCH_consensus.json"

echo "== bench_saturation -> $out/BENCH_saturation.json"
cargo run --release -p brb-bench --bin bench_saturation -- \
    --quick --out "$out/BENCH_saturation.json"

echo "== all BENCH snapshots written to $out"
ls -l "$out"/BENCH_*.json
