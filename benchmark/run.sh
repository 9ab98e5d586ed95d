#!/usr/bin/env bash
# Build the benchmark crate and run it.
#
#   benchmark/run.sh [--workload W]... [--seed N] [--seconds S] [--trace 0|1]
#                    [--repeat N] [--quick]
#   benchmark/run.sh compare a.json b.json
#
# Without --workload all four run. Results go to benchmark/out/result.json,
# trace files to benchmark/out/trace-<workload>.json. Unknown flags are
# errors. The build goes to $CARGO_TARGET_DIR when set, else to the
# repository's own target/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
case "$CARGO_TARGET_DIR" in
    /*) ;;
    *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac

# Build output goes to stderr so stdout ends with the result line.
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml" >&2

export BENCH_ROOT="$root"
export BENCH_RUSTC="$(rustc --version)"
export BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$CARGO_TARGET_DIR/release/hyrise-benchmark" "$@"
