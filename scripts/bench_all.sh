#!/usr/bin/env bash
# Emits every machine-readable BENCH_*.json snapshot in one invocation.
#
# Each benchmark binary asserts its own invariants (quiescence guard band inputs,
# GC-curve boundedness, consensus termination/agreement) and exits non-zero on
# regression, so this script is the one command CI or a developer runs to refresh
# all snapshots: the artifacts land in the output directory (default the repo root,
# where the nightly comparison jobs expect them). All three are committed and record the
# host's nproc / CPU model; refresh them from the reference host only.
#
# Usage: scripts/bench_all.sh [output-dir]
set -euo pipefail

out="${1:-.}"
mkdir -p "$out"

echo "== bench_quiescence -> $out/BENCH_quiescence.json"
cargo run --release -p brb-bench --bin bench_quiescence -- \
    --out "$out/BENCH_quiescence.json"

echo "== bench_consensus -> $out/BENCH_consensus.json"
cargo run --release -p brb-bench --bin bench_consensus -- \
    --out "$out/BENCH_consensus.json"

echo "== bench_saturation -> $out/BENCH_saturation.json"
cargo run --release -p brb-bench --bin bench_saturation -- \
    --out "$out/BENCH_saturation.json"

echo "== all BENCH snapshots written to $out"
ls -l "$out"/BENCH_*.json
