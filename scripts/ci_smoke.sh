#!/usr/bin/env bash
# Sweep-determinism smoke check: runs the full quick-scale experiment suite (N <= 20)
# with 1 worker and with 4 workers, and requires the two CSV outputs to be byte-identical.
# This is the end-to-end guard for the parallel sweep engine's worker-count invariance
# (the unit/integration-level guards live in tests/determinism.rs).
#
# It then sweeps a second protocol stack (--stack bracha-routed-dolev, exercising the
# brb_core::stack boxed-engine path through the same harnesses) and checks the two
# stacks' CSVs tag their rows with the right stack name and actually differ.
#
# The 1-vs-4-worker runs include the quick-scale multi-broadcast workload sweep
# (--workload), so the byte-equality check also covers the workload engine's
# throughput + latency-percentile rows (merged latency histograms across workers),
# and the Byzantine behavior matrix (--behaviors), so it also covers the lossy /
# silent-towards / flooder scenario rows measured on the simulator, the channel
# runtime and the TCP deployment (sim rows go through the sweep engine and must be
# worker-invariant; live-backend rows report the deterministic delivery counts),
# and the churn scenario matrix (--churn), so it also covers the scheduled link
# flap / partition-heal / restart / per-link delay rows and the planar-grid /
# geometric / expander topology-family rows, and the consensus-over-BRB matrix
# (--consensus), so it also covers the binary-consensus decision-round /
# rounds-percentile / BRB-instance / instance-GC rows driven through the same
# deterministic sweep engine, and the structured-trace matrix (--trace), so it also
# covers the per-broadcast causal latency breakdown and drops-by-cause rows computed
# from the brb-trace event stream on the simulator's virtual clock, and the open-loop
# saturation ramp (--saturation), so it also covers the offered-rate / throughput /
# latency-percentile / knee rows of the deterministic simulator ramp (the wall-clock
# knee study of the live backends is the separate bench_saturation binary checked
# below).
#
# Last, it builds the out-of-workspace benchmark package (benchmark/, BENCHMARK.json)
# against the working tree and runs its contract / count / observer tests, so a crate
# API change that breaks the benchmark fails here rather than in the benchmark pipeline,
# and then runs both simulated workloads at their historical seeds, which fail on a
# drift of the flagship's pinned counts or on a BRB violation.
#
# Before any of that it runs the host-independent gates: the
# allocations-per-event budget (tests/alloc_budget.rs, a count, not a timing),
# and the three lint steps of the CI `build-and-test` job, verbatim: `cargo fmt --all
# --check`, workspace-wide `clippy -D warnings` and `RUSTDOCFLAGS="-D warnings" cargo
# doc --workspace --no-deps`.
#
# Usage: scripts/ci_smoke.sh [output-dir]
set -euo pipefail

out="${1:-target/smoke}"
mkdir -p "$out"

timeout 600 cargo test -q -p brb --test alloc_budget > "$out/stdout_alloc_budget.txt"
timeout 300 cargo fmt --all --check
timeout 900 cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" timeout 900 cargo doc --workspace --no-deps

echo "OK: allocations per handled event within budget; workspace rustfmt-clean, clippy-clean and rustdoc-clean"

# Time-box each run: the quick preset finishes in well under a minute on CI hardware,
# so ten minutes signals a hang rather than a slow machine.
timeout 600 cargo run --release -p brb-bench --bin all_experiments -- \
    --quick --workload --behaviors --churn --consensus --trace --saturation --workers 1 \
    --csv "$out/sweep_w1.csv" > "$out/stdout_w1.txt"
timeout 600 cargo run --release -p brb-bench --bin all_experiments -- \
    --quick --workload --behaviors --churn --consensus --trace --saturation --workers 4 \
    --csv "$out/sweep_w4.csv" > "$out/stdout_w4.txt"

if ! diff -u "$out/sweep_w1.csv" "$out/sweep_w4.csv"; then
    echo "FAIL: sweep output differs between 1 and 4 workers" >&2
    exit 1
fi

rows=$(wc -l < "$out/sweep_w1.csv")
if [ "$rows" -lt 10 ]; then
    echo "FAIL: suspiciously small CSV ($rows rows) — did the sweep run?" >&2
    exit 1
fi

workload_rows=$(grep -c "^workload," "$out/sweep_w1.csv" || true)
if [ "$workload_rows" -lt 10 ]; then
    echo "FAIL: expected >= 10 workload rows, found $workload_rows — did --workload run?" >&2
    exit 1
fi

behavior_rows=$(grep -c "^behavior," "$out/sweep_w1.csv" || true)
if [ "$behavior_rows" -lt 21 ]; then
    echo "FAIL: expected >= 21 behavior rows (7 scenarios x 3 backends), found $behavior_rows — did --behaviors run?" >&2
    exit 1
fi
for backend in sim runtime tcp; do
    if ! grep -q "^behavior,.*,lossy-0.2,$backend," "$out/sweep_w1.csv"; then
        echo "FAIL: no lossy-0.2 behavior row for backend $backend" >&2
        exit 1
    fi
done

churn_rows=$(grep -c "^churn," "$out/sweep_w1.csv" || true)
if [ "$churn_rows" -lt 8 ]; then
    echo "FAIL: expected >= 8 churn rows (5 scenarios + 3 topology families), found $churn_rows — did --churn run?" >&2
    exit 1
fi
for scenario in flap partition-heal restart link-delay mixed; do
    if ! grep -q "^churn,.*,$scenario," "$out/sweep_w1.csv"; then
        echo "FAIL: no churn row for scenario $scenario" >&2
        exit 1
    fi
done

families_rows=$(grep -c "^families," "$out/sweep_w1.csv" || true)
if [ "$families_rows" -lt 5 ]; then
    echo "FAIL: expected >= 5 topology-family rows (3 families at k=3 + 2 at k=5), found $families_rows" >&2
    exit 1
fi
for family in planar-grid geometric expander; do
    if ! grep -q "^families,.*,$family," "$out/sweep_w1.csv"; then
        echo "FAIL: no topology-family row for $family" >&2
        exit 1
    fi
done

consensus_rows=$(grep -c "^consensus," "$out/sweep_w1.csv" || true)
if [ "$consensus_rows" -lt 4 ]; then
    echo "FAIL: expected >= 4 consensus rows (proposal/flipper scenarios), found $consensus_rows — did --consensus run?" >&2
    exit 1
fi
for scenario in unanimous1 split random split-flip; do
    if ! grep -q "^consensus,.*,$scenario," "$out/sweep_w1.csv"; then
        echo "FAIL: no consensus row for scenario $scenario" >&2
        exit 1
    fi
done

trace_rows=$(grep -c "^trace," "$out/sweep_w1.csv" || true)
trace_drop_rows=$(grep -c "^trace_drops," "$out/sweep_w1.csv" || true)
if [ "$trace_rows" -lt 3 ]; then
    echo "FAIL: expected >= 3 trace breakdown rows (one per scenario), found $trace_rows — did --trace run?" >&2
    exit 1
fi
if [ "$trace_drop_rows" -lt 18 ]; then
    echo "FAIL: expected >= 18 trace_drops rows (3 scenarios x 6 causes), found $trace_drop_rows" >&2
    exit 1
fi
for cause in loss churn_gate behavior gc_retired non_neighbor malformed; do
    if ! grep -q "^trace_drops,.*,$cause," "$out/sweep_w1.csv"; then
        echo "FAIL: no trace_drops row for cause $cause" >&2
        exit 1
    fi
done

saturation_rows=$(grep -c "^saturation," "$out/sweep_w1.csv" || true)
if [ "$saturation_rows" -lt 5 ]; then
    echo "FAIL: expected >= 5 saturation rows (one per ramp interval), found $saturation_rows — did --saturation run?" >&2
    exit 1
fi
if ! grep -q "^saturation,.*,open-loop/zipf," "$out/sweep_w1.csv"; then
    echo "FAIL: no open-loop/zipf saturation row" >&2
    exit 1
fi
knee_rows=$(grep -c "^saturation,.*,1$" "$out/sweep_w1.csv" || true)
if [ "$knee_rows" != 1 ]; then
    echo "FAIL: expected exactly 1 knee-flagged saturation row, found $knee_rows" >&2
    exit 1
fi

echo "OK: 1-worker and 4-worker sweeps produced identical CSVs ($rows rows, $workload_rows workload rows, $behavior_rows behavior rows incl. the lossy runs, $churn_rows churn rows, $families_rows topology-family rows, $consensus_rows consensus rows, $trace_rows trace + $trace_drop_rows trace_drops rows, $saturation_rows saturation rows incl. the knee)"

# Second stack: the same harnesses, parameters and topologies, but running the plain
# Bracha-over-routed-Dolev stack through the boxed DynEngine path.
timeout 600 cargo run --release -p brb-bench --bin all_experiments -- \
    --quick --workers 4 --stack bracha-routed-dolev \
    --csv "$out/sweep_brd.csv" > "$out/stdout_brd.txt"

if ! grep -q ",bd," "$out/sweep_w1.csv"; then
    echo "FAIL: default sweep CSV does not tag its rows with the bd stack" >&2
    exit 1
fi
if ! grep -q ",bracha-routed-dolev," "$out/sweep_brd.csv"; then
    echo "FAIL: second sweep CSV does not tag its rows with bracha-routed-dolev" >&2
    exit 1
fi
if diff -q "$out/sweep_w1.csv" "$out/sweep_brd.csv" > /dev/null; then
    echo "FAIL: the two stacks produced identical CSVs — the --stack flag is inert" >&2
    exit 1
fi
# The second stack runs without --workload/--behaviors/--churn/--consensus/--trace/
# --saturation; compare only the shared rows (the topology-family rows are
# unconditional, so they appear in both runs).
base_rows=$((rows - workload_rows - behavior_rows - churn_rows - consensus_rows - trace_rows - trace_drop_rows - saturation_rows))
if [ "$(wc -l < "$out/sweep_brd.csv")" != "$base_rows" ]; then
    echo "FAIL: the two stacks swept a different number of data points" >&2
    exit 1
fi

echo "OK: bd and bracha-routed-dolev sweeps ran the same $base_rows-row matrix with per-stack results"

# Bounded-memory benchmark: machine-readable quiescence timing plus the GC-off/GC-on
# memory-curve endpoints. The binary itself asserts the boundedness invariants (linear
# growth without GC, flat with GC) and exits non-zero on regression; here we only check
# the JSON artifact exists and carries the expected fields.
timeout 600 cargo run --release -p brb-bench --bin bench_quiescence -- \
    --out "$out/BENCH_quiescence.json" > "$out/stdout_bench_quiescence.txt"
for field in mean_ms gc_off gc_on first_bytes last_bytes gc_retired; do
    if ! grep -q "\"$field\"" "$out/BENCH_quiescence.json"; then
        echo "FAIL: BENCH_quiescence.json is missing field \"$field\"" >&2
        exit 1
    fi
done

echo "OK: BENCH_quiescence.json written (boundedness asserted by the benchmark binary)"

# Consensus-over-BRB benchmark: mean wall-clock decision latency, decided round and
# BRB-instance/GC counts per proposal scenario at a fixed seed. The binary asserts the
# termination/agreement/GC invariants itself and exits non-zero on regression; here we
# only check the JSON artifact exists and carries the expected fields.
timeout 600 cargo run --release -p brb-bench --bin bench_consensus -- \
    --out "$out/BENCH_consensus.json" > "$out/stdout_bench_consensus.txt"
for field in mean_ms decision_value decision_round rounds_driven instances gc_retired \
    unanimous1 split split_flip; do
    if ! grep -q "\"$field\"" "$out/BENCH_consensus.json"; then
        echo "FAIL: BENCH_consensus.json is missing field \"$field\"" >&2
        exit 1
    fi
done

echo "OK: BENCH_consensus.json written (consensus invariants asserted by the benchmark binary)"

# Saturation study: the wall-clock knee of the live backends (bd + bracha stacks,
# channel + TCP, one engine per node). Wall-clock numbers vary with the host, so no
# byte-diff here — only that the quick-scale ramp runs and the JSON carries the host
# and every combination's knee fields.
timeout 600 cargo run --release -p brb-bench --bin bench_saturation -- \
    --quick --out "$out/BENCH_saturation.json" > "$out/stdout_bench_saturation.txt"
for field in host nproc cpu_model knee_offered_per_sec knee_throughput_per_sec knee_p99_ms \
    curve channel tcp bd bracha; do
    if ! grep -q "\"$field\"" "$out/BENCH_saturation.json"; then
        echo "FAIL: BENCH_saturation.json is missing field \"$field\"" >&2
        exit 1
    fi
done

echo "OK: BENCH_saturation.json written (live knee study of both backends)"

# Structured-trace study: the same seeded adversarial scenario on the simulator, the
# channel runtime and TCP must produce identical order-normalized causal event
# sequences (asserted inside the example), and the emitted JSONL + Chrome trace-event
# artifacts must validate against the brb-trace event schema.
timeout 600 cargo run --release --example trace_study -- "$out" > "$out/stdout_trace_study.txt"
timeout 600 cargo run --release -p brb-bench --bin trace_validate -- \
    --jsonl "$out/trace_study.jsonl" --chrome "$out/trace_study_chrome.json" \
    > "$out/stdout_trace_validate.txt"

echo "OK: trace_study causal sequences identical across backends; emitted trace artifacts validate"

# The benchmark package lives outside the workspace (tier-1 neither builds nor tests it)
# but path-depends on crates/*: build it against the working tree and run the tests that
# pin BENCHMARK.json to its registries, the simulated workloads' exact counts and the
# observer-effect freedom of its Timed* wrappers (which implement Protocol / DynEngine
# by hand, so a changed trait breaks them first).
timeout 900 cargo build --release --offline --manifest-path benchmark/Cargo.toml
timeout 900 cargo test --offline --manifest-path benchmark/Cargo.toml \
    --test contract --test sim_counts --test observer > "$out/stdout_benchmark_tests.txt"

echo "OK: benchmark package builds against the working tree; contract, sim_counts and observer tests pass"

# The two simulated workloads as the benchmark runs them, at their historical seeds (no
# --seed). The flagship's run fails on any drift from its pinned (events, messages,
# bytes, peak_state_bytes) = (591 134, 591 134, 16 172 362, 143 982); both fail on a BRB
# violation or a broadcast a correct process did not deliver.
for workload in sim_bd_n100_k12_1k sim_bd_n31_k10_16b_x24; do
    timeout 600 benchmark/target/release/brb-benchmark run --workload "$workload" \
        --seconds 1 --trace 0 --out "$out/benchmark" > "$out/stdout_$workload.txt"
done

echo "OK: both simulated workloads reproduce their historical counts and keep every BRB property"
