#!/usr/bin/env bash
# Line budget: the engine's non-test source has a ceiling, and the
# duplicate stack deleted to reach it stays deleted. A change that needs
# more lines raises the ceiling here, in the same diff, where a reviewer
# sees it (ROADMAP item 3 lists what is still to be removed).
#
#   scripts/check_line_budget.sh
#
# Counts every crates/*/src/**/*.rs and src/**/*.rs up to its test module
# (the first `#[cfg(test)]` in column 0 — the same cut as
# check_unsafe_budget.sh), prints the count per crate and in total, and
# fails when the total exceeds the ceiling or when a name of the deleted
# offline table stack, its operators, the per-strategy merge wrappers,
# the second merge input, the deleted governor rows, the polling
# scheduler, the second and third merge loops with their entry points or
# the wire swarm and sharded in-process load generators, the CSB+ tree
# crate, the merge log with its staged-column files or the second table
# construction surface (single-table builder and manifest, try_ mutators,
# process-wide cut clock) or the governor layer between the merge policy
# and the scheduler (with the strategy tag beside MergeStrategy) or the
# merge rollback and its cancel error or the per-shard log with its
# recovery fold and flip gate or the mid-merge query fallback and the
# merge step observer reappears under crates/*/src or src.
set -euo pipefail
cd "$(dirname "$0")/.."

# 19566, raised by 274 for the per-block zone maps (storage), their carry
# through the merge (core, and bitpack's block-aligned region split) and
# zone-map pruning with work-sized fan-out (query); then lowered by 413 when
# the merge took one input, the frozen delta: the raw-value DeltaPartition
# with its CSB+ Stage 1a (storage), the DeltaView fork in every pipeline
# stage and the parallel Stage 1a scatter (core) left the engine; then
# lowered by 259 when the governor kept only the rows served traffic
# reaches: its read-contention, queue-depth, write-burst and read-idle
# rows, their four config knobs, the per-shard write-rate boost, the
# multi-shard width clamp and the recovery-only resume grant left (core),
# and the server's catalog states the grant they produced as its policy;
# then lowered when writes started the merges they make due: the
# per-table polling daemons with their poll interval and per-table merge
# slots, the MergeSource trait, the governor's sampling window (LoadView,
# LoadSignals, RoundPlan, MergeOutcome) and the round barrier left (core,
# server), for one process-wide queue drained by two merge threads, a
# shutdown lock every merge holds, and an adoption slot whose floor lets
# an insert far below the trigger skip the scheduler (19168 -> 19099);
# then lowered when one MergeSession loop became the only merge driver:
# the budgeted merge_with loop, the resume-only merge loop, the three
# incremental-session entry points, the dead MergeCancelled error and the
# governor profile tables carried for a resume grant no caller asked for
# left (core, facade), for one begin_merge / step / finish path whose
# steps are the SAGA steps on a durable table (19099 -> 18953); then
# raised when the server moved to the paper's linear merge and the merge
# stopped rewriting what the delta does not move: Stage 1b's copied
# dictionary prefix shared by the serial and three-phase unions (core),
# Stage 2's block copy with its first-moved-code search, the region
# primitive that copies whole blocks between generated runs (bitpack),
# and the copied rows and entries in the merge stats and the cost model
# (core) (18953 -> 19126); then lowered when the load generators the
# end-to-end benchmark replaced left: the wire client swarm with its
# workload and bin (server, workload, facade), the sharded in-process
# driver and its workload (facade, workload), less the CreateTable spec
# bounds the catalog gained (19126 -> 18401); then lowered when the CSB+
# tree crate that only the figures' Update-Delta timing reached left and
# that timing became the engine's own tail append (bench) (18401 -> 17530);
# then lowered when a durable merge persisted each column once, as a
# generation-named column file, and checkpoint.bin became a small manifest:
# the whole-table image, the staged-column files and the merge log with its
# records left (core), less the crash harness's count of resumed column
# files (facade) (17530 -> 17386); then lowered when a durable table got
# one layout and one way in: the single-table TableBuilder and TableConfig,
# the per-shard TABLE manifest, the public single-table recover, the
# try_ mutators with their expect twins and the table-level update left
# (core, facade), and the process-wide cut clock became each sharded
# table's own (core), less the layout check on SHARDS, now the only
# schema record (17386 -> 17188); then lowered when the governor layer
# folded into the policy it wrapped: ResourceGovernor, GovernorConfig with
# its pressure-budget knob and GrantSignal left, MergePolicy states the
# trigger and the memory row and the scheduler keeps the grant ring
# (core, server), MergeAlgo left for MergeStrategy, MergeScratch's local
# spare queues left for its SpareBank (core), less the figure binaries'
# refusal of unknown keys (bench) (17188 -> 16961); then lowered when a
# merge only went forward: the pending row region with its reads, fold and
# snapshot region, the rollback on a cancel, a failed step or a dropped
# session, the cancel token and its error left (core, server), for
# a begin_merge that resumes frozen columns, column files written before
# their commit, a rotation that cuts its seal back off when the next
# segment cannot be created, recovery's drop of an empty segment above an
# unsealed one and the scheduler's failed-merge count (core)
# (16961 -> 16861); then lowered when a durable table got one log shared
# by its shards, one frame per client operation: the per-shard Wal with
# its insert and flip records, recovery's per-shard segment chaining,
# sort and live-prefix fold, the table rebuilt from recovered parts, the
# flip gate beside the log's mutex, the empty-segment repair, the image
# checkpoint check and the crash harness's per-shard slack left (core,
# facade), for the table log with its coverage rule, one write path for
# batches, updates and delete batches, and a poisoned log (16861 -> 16849);
# then lowered when a mid-merge snapshot got the one query path: the
# shared-main check, the row-id refinement and the stepped fallback of
# count, rows, sum and min/max left (query), the merge pipeline's step
# observer with its stage records left (core), for a row range on the one
# packed tail region (storage) and an engine-side bounds check of delete
# and update row ids that replaced the server's (core, server)
# (16849 -> 16743); then raised when a pool caller stopped computing beside
# busy workers: the parked-worker count and the claim rule with its
# deadlock argument, a push that refuses work once the pool shuts down
# (core, and the docs of the query fan-out), the scheduler's last merge
# error, and an arity check that returns a typed error instead of
# panicking before a sharded write routes or logs a row (core)
# (16743 -> 16819).
ceiling=16819

# A bare `Contended` would match an unrelated comment, hence the prefix.
gone='Attribute<|AnyValue|merge_table_parallel|merge_column_naive|merge_column_optimized|merge_column_parallel|group_by_sum|table_select|DeltaPartition|DeltaView|CompressedDelta|compress_delta|merge_column_frozen|GrantSignal::(Contended|QueueDeep|WriteBurst|ReadIdle|Resume)|busy_reads_per_sec|idle_reads_per_sec|deep_queue_depth|with_read_thresholds|with_max_threads|resume_grant|classify_update_rate|WriteLoad|global_queue_depth|MergeSource|LoadView|LoadSignals|RoundPlan|MergeOutcome|scheduler_poll|max_concurrent_merges|record_outcome|resume_merge_with|begin_incremental_merge|try_begin_incremental_merge_with|set_governor_config|governor_config|recover_with|MergeCancelled|drive_swarm|SwarmWorkload|SwarmReport|swarm_row|ShardedWorkload|drive_sharded|preload_sharded|sharded_table_for|CsbTree|hyrise_csb|MergeLog|MergeCkpt|read_merge_log|write_staged_column|read_staged_column|STAGED_DIR|\bTableBuilder\b|TableConfig|try_insert_row|try_update_row|try_delete_row|CUT_CLOCK|CUT_PAUSE|MANIFEST_MAGIC|ResourceGovernor|GovernorConfig|spawn_governed|GrantSignal|MergeAlgo|rollback_frozen|roll_back|Cancelled|fold_segment_rows|from_recovered_parts|seal_and_rotate|truncate_absorbed|flip_gate|recover_shard\b|shared_main_len|refine_col|StepSink|merge_column_observed|Stage2Progress'

total=0
for dir in crates/*/src src; do
    lines=0
    for file in $(find "$dir" -name '*.rs' | sort); do
        lines=$((lines + $(sed '/^#\[cfg(test)\]/,$d' "$file" | wc -l)))
    done
    printf '%-20s %6d\n' "$dir" "$lines"
    total=$((total + lines))
done
printf '%-20s %6d  (ceiling %d)\n' total "$total" "$ceiling"

status=0
if [ "$total" -gt "$ceiling" ]; then
    echo "non-test lines exceed the ceiling: delete something, or raise it in $0 and say why in the change" >&2
    status=1
fi
if grep -rnE "$gone" crates/*/src src >&2; then
    echo "a deleted name is back under crates/*/src or src (see the list in $0)" >&2
    status=1
fi
exit "$status"
