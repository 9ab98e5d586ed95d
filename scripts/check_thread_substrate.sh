#!/usr/bin/env bash
# One thread substrate: outside test code, the engine crates create
# threads only where this script says so. Everything else — query morsels,
# merge columns, dictionary partitions, Stage 2 regions — runs on
# core::Pool.
#
#   scripts/check_thread_substrate.sh
#
# Scans crates/{bitpack,storage,core,query}/src, each file up to its first
# `#[cfg(test)]`, for thread::scope / thread::spawn / thread::Builder and
# fails on any hit outside the allow-list. Bench bins that play clients
# and the server's accept/worker threads are out of scope.
set -euo pipefail
cd "$(dirname "$0")/.."

# file : why it may create threads
allowed=(
    crates/core/src/pool.rs       # the pool's workers
    crates/core/src/scheduler.rs  # the two merge threads: they park between merges
    crates/core/src/model.rs      # calibrate() probes raw hardware threads
)

status=0
for file in $(find crates/{bitpack,storage,core,query}/src -name '*.rs' | sort); do
    hits="$(sed '/#\[cfg(test)\]/,$d' "$file" \
        | grep -nE 'thread::(scope|spawn|Builder)' | grep -vE '^[0-9]+:\s*//' || true)"
    [ -z "$hits" ] && continue
    if printf '%s\n' "${allowed[@]}" | grep -qx "$file"; then
        continue
    fi
    echo "$file creates threads outside core::Pool:" >&2
    echo "$hits" | sed 's/^/    /' >&2
    status=1
done
if [ "$status" -ne 0 ]; then
    echo "run it on Pool::global().run_indexed instead (or extend the allow-list, with a reason)" >&2
fi
exit "$status"
