//! The paper's contribution: the delta-merge algorithms and their
//! surroundings.
//!
//! * [`naive`] — the unoptimized merge of Sections 5.1–5.2: Step 1 extracts
//!   and merges dictionaries, Step 2(b) re-encodes every tuple with a binary
//!   search into the merged dictionary, `O((N_M + N_D) log |U'_M|)`
//!   (Equation 5). This is the baseline the paper beats by ~30x.
//! * [`optimized`] — Section 5.3: auxiliary translation tables `X_M`/`X_D`
//!   built during the dictionary merge turn Step 2(b) into a table lookup,
//!   making the whole merge linear (Equation 6).
//! * [`parallel`] — Section 6.2: the multi-core version. Step 1(b) merges the
//!   two sorted dictionaries with duplicate removal in three phases
//!   (merge-path partitioning, counter array + prefix sum, re-merge at final
//!   offsets); Step 2 partitions tuples over threads on 64-tuple boundaries
//!   so each thread writes its own words of the bit-packed output.
//! * [`model`] — Section 6.1/7.4: the analytical compute & memory-traffic
//!   model (Equations 8–15) with machine calibration micro-benchmarks.
//! * [`pipeline`] — the unified merge pipeline every path above runs
//!   through: explicit Stages 1a/1b/2 behind a [`pipeline::MergeStrategy`],
//!   one shared Step 2 re-encode kernel, a reusable
//!   [`pipeline::MergeScratch`] arena (steady-state merges allocate
//!   nothing), and a [`pipeline::MergeBudget`] that bounds peak extra
//!   memory by merging/committing K columns at a time (Section 4's
//!   partial-column strategy).
//! * [`manager`] — Section 3/4: the online merge — second delta during the
//!   merge, brief table locks only at the beginning and end, atomic commit,
//!   cancellation that leaves the table untouched, and the merge trigger
//!   policy (`N_D > fraction * N_M`).
//! * [`shard`] — the scale-out layer beyond the paper's single-table
//!   evaluation: [`shard::ShardedTable`] hash- or range-partitions rows
//!   across N online tables.
//! * [`scheduler`] — the one background [`scheduler::MergeScheduler`]: a
//!   single table or a sharded table's shards, at most K concurrent merges,
//!   worst delta fraction first.
//! * [`pool`] — the one thread substrate: every parallel query and every
//!   merge fan-out (shards, columns, dictionary partitions, Stage 2
//!   regions) runs on the shared work-stealing [`pool::Pool`].
//! * [`governor`] — Section 9's scheduling hook as a feedback loop: the
//!   [`governor::ResourceGovernor`] samples read pressure (process-wide
//!   query counters), write pressure (delta growth vs the Section 4
//!   targets) and memory pressure ([`hyrise_storage::MemoryReport`]) and
//!   emits the adaptive [`pipeline::MergeGrant`] the scheduler runs merges
//!   under.
//! * [`rate`] — Equations 1 and 16: update-rate accounting, plus the
//!   write-load classification the governor feeds from.
//! * `wal` (private)/[`recovery`]/[`config`]/[`error`] — crash durability beyond
//!   the paper's in-memory evaluation (its Section 3 design assumes a
//!   recoverable differential buffer): an append-only, CRC-checked
//!   per-shard delta WAL, SAGA-style resumable merge checkpoints, and
//!   [`recovery::recover`], behind the [`config::TableBuilder`] /
//!   [`config::Durability`] construction surface and the typed
//!   [`error::Error`] that makes the mutation paths honestly fallible.
//!
//! All three algorithms produce bit-identical merged main partitions; the
//! property tests assert this equivalence.

pub mod config;
pub mod epoch;
pub mod error;
pub mod governor;
pub mod manager;
pub mod model;
pub mod naive;
pub mod optimized;
pub mod parallel;
pub mod partition;
pub mod pipeline;
pub mod pool;
pub mod rate;
pub mod recovery;
pub mod scheduler;
pub mod shard;
pub mod stats;
mod step1;
mod wal;

pub use config::{Durability, ShardedTableBuilder, TableBuilder, TableConfig};
pub use epoch::{EpochCell, EpochGuard};
pub use error::{Error, Result};
pub use governor::{
    begin_read, read_load, GovernorConfig, GrantRecord, GrantSignal, LoadSignals, LoadView,
    ResourceGovernor, RoundPlan,
};
pub use manager::{
    ColumnSnapshot, MergeCancelled, MergePolicy, MergeSession, OnlineTable, TableSnapshot,
};
pub use model::{calibrate, MachineProfile, MergeScenario, ModelPrediction};
pub use naive::merge_column_naive;
pub use optimized::merge_column_optimized;
pub use parallel::{merge_column_parallel, merge_table_parallel};
pub use pipeline::{
    merge_column_with, MergeBudget, MergeGrant, MergePipeline, MergeScratch, MergeStep,
    MergeStrategy, SpareBank, StepSink,
};
pub use pool::Pool;
pub use rate::{classify_update_rate, update_rate, updates_per_second, WriteLoad};
pub use recovery::{recover, recover_sharded, recover_with};
pub use scheduler::{MergeOutcome, MergeScheduler, MergeSource, SchedulerStats, SourceMergeStats};
pub use shard::{ShardBy, ShardRowId, ShardedTable};
pub use stats::{ColumnMergeStats, MergeAlgo, MergeOutput, StageTimings, TableMergeStats};
pub use step1::{merge_dictionaries, merge_dictionaries_into, DictMerge};
