#!/usr/bin/env bash
# Refresh BENCH_baseline.json — the medians the CI perf-regression gate
# compares against. Run this from the repo root on the machine class CI
# uses, whenever a deliberate perf change (or a new gated bench) lands:
#
#   scripts/refresh_bench_baseline.sh [bench [filter]]
#
# With no argument every gated bench is re-measured and the baseline is
# rewritten from scratch. With a bench name, and optionally a substring
# filter on its ids, only the matching entries are measured and merged
# into the existing baseline — how a change adds new entries without
# re-baselining the others.
#
# The gated benches are scan, scan_swar, morsel_scan, query_engine,
# dict_merge, merge_pipeline, shard_scale, governor, contended_writers
# and wal_append; the gate fails CI when any median regresses more than 25% — except
# entries with a per-entry override (crates/bench/src/gate.rs
# TOLERANCE_OVERRIDES): wal_append/fsync is gated at a widened 50%,
# because its median tracks the runner's device sync latency.
set -euo pipefail
cd "$(dirname "$0")/.."

out="$(mktemp)"
trap 'rm -f "$out"' EXIT

if [ $# -gt 0 ]; then
    cargo bench -p hyrise-bench --bench "$1" -- ${2:+"$2"} | tee -a "$out"
else
    for bench in scan scan_swar morsel_scan query_engine dict_merge merge_pipeline shard_scale governor contended_writers wal_append; do
        cargo bench -p hyrise-bench --bench "$bench" | tee -a "$out"
    done
    rm -f BENCH_baseline.json
fi

cargo run --release -p hyrise-bench --bin bench_gate -- update "$out" \
    --baseline BENCH_baseline.json
echo "refreshed BENCH_baseline.json — commit it with your change"
