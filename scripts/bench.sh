#!/usr/bin/env bash
# Benchmark driver around the avfs-bench harness.
#
#   scripts/bench.sh                  run the criterion suites + the
#                                     throughput harness, print the report
#   scripts/bench.sh --write          same, then refresh the committed
#                                     BENCH_9.json baseline at the repo root
#   scripts/bench.sh --smoke          throughput harness only, quick single
#                                     repetition, gated against BENCH_9.json:
#                                     any throughput metric more than 20%
#                                     below the baseline fails the run
#   scripts/bench.sh --alloc-gate     counting-allocator steady-state gate:
#                                     asserts zero allocations per event,
#                                     and one per trace record with a
#                                     telemetry hub attached
#   scripts/bench.sh --compare FILE   A/B mode: measure, then print
#                                     per-metric deltas vs FILE (a report
#                                     written earlier with --write)
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-}"

case "$mode" in
  --smoke)
    echo "==> throughput smoke gate (vs BENCH_9.json, 20% tolerance)"
    cargo bench -q -p avfs-bench --bench throughput -- --smoke
    ;;
  --alloc-gate)
    echo "==> counting-allocator steady-state gate"
    cargo bench -q -p avfs-bench --bench alloc_gate
    ;;
  --compare)
    baseline="${2:?usage: scripts/bench.sh --compare <baseline.json>}"
    echo "==> throughput A/B vs $baseline"
    cargo bench -q -p avfs-bench --bench throughput -- --compare "$baseline"
    ;;
  --write)
    echo "==> criterion suites"
    cargo bench -q -p avfs-bench --bench characterization
    cargo bench -q -p avfs-bench --bench tradeoffs
    cargo bench -q -p avfs-bench --bench daemon
    cargo bench -q -p avfs-bench --bench fleet
    echo "==> throughput harness (writing BENCH_9.json)"
    cargo bench -q -p avfs-bench --bench throughput -- --write
    ;;
  "")
    echo "==> criterion suites"
    cargo bench -q -p avfs-bench --bench characterization
    cargo bench -q -p avfs-bench --bench tradeoffs
    cargo bench -q -p avfs-bench --bench daemon
    cargo bench -q -p avfs-bench --bench fleet
    echo "==> throughput harness"
    cargo bench -q -p avfs-bench --bench throughput
    ;;
  *)
    echo "usage: scripts/bench.sh [--write|--smoke|--alloc-gate|--compare <baseline.json>]" >&2
    exit 2
    ;;
esac
