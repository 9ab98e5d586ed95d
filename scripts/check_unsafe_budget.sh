#!/usr/bin/env bash
# Unsafe budget: outside test code, `unsafe` lives in five files, and the
# number of lines that mention it is pinned per file. A change that needs
# more raises the number here, in the same diff, where a reviewer sees it
# (ROADMAP item 4 keeps the inventory these counts came from).
#
#   scripts/check_unsafe_budget.sh
#
# Scans every crates/*/src/**/*.rs up to its test module (the first
# `#[cfg(test)]` in column 0) with a plain `grep -c unsafe` and fails when
# a file exceeds its budget — zero for any file not listed, so a new file
# with `unsafe` fails too.
set -euo pipefail
cd "$(dirname "$0")/.."

# file : budget : what the unsafe code is
budget=(
    "crates/bitpack/src/swar.rs 13"   # unaligned window loads, predicated row-id writes
    "crates/core/src/epoch.rs 5"      # generation pointers behind epoch pins
    "crates/storage/src/tail.rs 4"    # write-once tail slots
    "crates/core/src/pool.rs 4"       # lifetime erasure of scoped pool tasks
    "crates/core/src/wal.rs 2"        # the SSE4.2 CRC32C intrinsic
)

status=0
for file in $(find crates/*/src -name '*.rs' | sort); do
    count="$(sed '/^#\[cfg(test)\]/,$d' "$file" | grep -c 'unsafe' || true)"
    allowed=0
    for entry in "${budget[@]}"; do
        [ "${entry% *}" = "$file" ] && allowed="${entry#* }"
    done
    if [ "$count" -gt "$allowed" ]; then
        echo "$file: $count lines mention unsafe outside tests, budget is $allowed" >&2
        status=1
    elif [ "$count" -lt "$allowed" ]; then
        echo "$file: $count lines mention unsafe, budget is $allowed — lower it in $0"
    fi
done
if [ "$status" -ne 0 ]; then
    echo "remove the unsafe code, or raise the budget in $0 and say why in the change" >&2
fi
exit "$status"
