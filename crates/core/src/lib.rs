//! The paper's contribution: the delta-merge algorithms and their
//! surroundings.
//!
//! * [`pipeline`] — the one merge every path runs through: explicit Stages
//!   1a/1b/2 behind a [`pipeline::MergeStrategy`] whose three variants are
//!   the paper's three algorithms — `Naive` (Sections 5.1–5.2: per-tuple
//!   binary search into the merged dictionary, Equation 5; the baseline the
//!   paper beats by ~30x), `Optimized` (Section 5.3: auxiliary translation
//!   tables `X_M`/`X_D` turn Step 2(b) into a table lookup, Equation 6) and
//!   `Parallel` (Section 6.2) — with one shared Step 2 re-encode kernel, a
//!   reusable [`pipeline::MergeScratch`] arena (steady-state merges
//!   allocate nothing), and a [`pipeline::MergeBudget`] that bounds peak
//!   extra memory by merging/committing K columns at a time (Section 4's
//!   partial-column strategy). [`pipeline::MergePipeline::merge_column`]
//!   is the one way to merge a delta into a main partition; it reads the
//!   bit-packed [`hyrise_storage::FrozenDelta`] the freeze encodes (Stage
//!   1a).
//! * [`parallel`] — Section 6.2's multi-core stages. Step 1(b) merges the
//!   two sorted dictionaries with duplicate removal in three phases
//!   (merge-path partitioning, counter array + prefix sum, re-merge at final
//!   offsets); Step 2 partitions tuples over threads on 4 096-tuple
//!   (zone-block) boundaries so each thread writes its own words of the
//!   bit-packed output and its own blocks of the zone map.
//! * [`model`] — Section 6.1/7.4: the analytical compute & memory-traffic
//!   model (Equations 8–15) with machine calibration micro-benchmarks.
//! * [`manager`] — Section 3/4: the one table type,
//!   [`manager::OnlineTable`], and its online merge — second delta during
//!   the merge, brief table locks only at the beginning and end, atomic
//!   commit, and the merge trigger policy (`N_D > fraction * N_M`). One
//!   driver, [`manager::MergeSession`], runs every table merge: a
//!   whole-table merge, Section 4's column-budgeted merge, Section 9's
//!   incremental merge (one column per step) and recovery's resume; on a
//!   durable table each step writes its columns' files.
//! * [`shard`] — the scale-out layer beyond the paper's single-table
//!   evaluation: [`shard::ShardedTable`] hash- or range-partitions rows
//!   across N online tables.
//! * [`scheduler`] — write-triggered background merging, Section 9's
//!   scheduling hook: a [`scheduler::MergeScheduler`] adopts a single table
//!   or a sharded table's shards and applies one [`manager::MergePolicy`]
//!   to them. The write that makes a table due
//!   ([`manager::MergePolicy::is_due`], more eager as the write rate
//!   grows) queues it, two process-wide merge threads drain the queue, and
//!   each merge runs the policy's grant, its budget shrunk under memory
//!   pressure ([`manager::MergePolicy::grant_at`]).
//! * [`pool`] — the one thread substrate: every parallel query and every
//!   merge fan-out (shards, columns, dictionary partitions, Stage 2
//!   regions) runs on the shared work-stealing [`pool::Pool`].
//! * [`rate`] — Equations 1 and 16: update-rate accounting and the
//!   Section 4 target rates.
//! * `wal` (private)/[`recovery`]/[`config`]/[`error`] — crash durability beyond
//!   the paper's in-memory evaluation (its Section 3 design assumes a
//!   recoverable differential buffer): an append-only, CRC-checked
//!   per-shard delta WAL, one generation-named file per merged column that
//!   a crashed merge resumes from, and [`recovery::recover_sharded`],
//!   behind the [`config::ShardedTableBuilder`] / [`config::Durability`]
//!   construction surface and the typed [`error::Error`] that makes every
//!   mutator honestly fallible.
//!
//! All three algorithms produce bit-identical merged main partitions; the
//! property tests assert this equivalence.

pub mod config;
pub mod epoch;
pub mod error;
pub mod manager;
pub mod model;
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

pub use config::{Durability, ShardedTableBuilder};
pub use epoch::{EpochCell, EpochGuard};
pub use error::{Error, Result};
pub use manager::{ColumnSnapshot, MergePolicy, MergeSession, OnlineTable, TableSnapshot};
pub use model::{calibrate, MachineProfile, MergeScenario, ModelPrediction};
pub use pipeline::{
    MergeBudget, MergeGrant, MergePipeline, MergeScratch, MergeStep, MergeStrategy, SpareBank,
    StepSink,
};
pub use pool::Pool;
pub use rate::{update_rate, updates_per_second};
pub use recovery::recover_sharded;
pub use scheduler::{GrantRecord, MergeScheduler, SchedulerStats, SourceMergeStats};
pub use shard::{ShardBy, ShardRowId, ShardedTable};
pub use stats::{
    begin_read, read_load, ColumnMergeStats, MergeOutput, StageTimings, TableMergeStats,
};
pub use step1::{merge_dictionaries, merge_dictionaries_into, DictMerge};

// Unit tests that outlived their modules. `naive` and `optimized` hold the
// walk-throughs of the two deleted wrapper modules, now one block run under
// every [`MergeStrategy`]; `attribute`, `column` and `table` hold what the
// offline storage stack's tests checked and the live [`OnlineTable`] still
// does; `governor` holds the governor layer's checks of what [`MergePolicy`]
// and the scheduler's grant ring state. The module names survive (test-only,
// at the crate root) so each test keeps the path the CI floor list knows it by.
#[cfg(test)]
mod naive {
    pub(crate) mod tests {
        use crate::pipeline::{MergePipeline, MergeScratch, MergeStrategy};
        use crate::stats::MergeOutput;
        use hyrise_storage::{FrozenDelta, MainPartition, Value};

        pub(crate) fn values_of<V: Value>(main: &MainPartition<V>) -> Vec<V> {
            (0..main.len()).map(|i| main.get(i)).collect()
        }

        /// Merge `delta` into `main` under every strategy at `threads`.
        pub(crate) fn each_strategy<V: Value>(
            main: &MainPartition<V>,
            delta: &[V],
            threads: usize,
            mut check: impl FnMut(MergeOutput<MainPartition<V>>, MergeStrategy),
        ) {
            let delta = FrozenDelta::from_values(delta);
            let mut scratch = MergeScratch::new();
            for strategy in [
                MergeStrategy::Naive,
                MergeStrategy::Optimized,
                MergeStrategy::Parallel,
            ] {
                let out =
                    MergePipeline::new(strategy, threads).merge_column(main, &delta, &mut scratch);
                check(out, strategy);
            }
        }

        /// The full Figure 5 example: main [hotel delta frank delta] over the
        /// 6-value dictionary, delta [bravo charlie golf charlie young].
        #[test]
        fn figure5_end_to_end() {
            // Encode words as integers keeping lexicographic order:
            // apple=1 bravo=2 charlie=3 delta=4 frank=6 golf=7 hotel=8 inbox=9 young=25
            // Figure 5 shows the column fragment [hotel delta frank delta]
            // with dictionary {apple charlie delta frank hotel inbox}, so we
            // load a main whose value set is exactly that dictionary.
            let main = MainPartition::from_values(&[8u64, 4, 6, 4, 1, 3, 9]);
            each_strategy(&main, &[2, 3, 7, 3, 25], 2, |out, s| {
                // Merged dictionary has 9 values -> 4 bits (Figure 5).
                assert_eq!(out.main.dictionary().len(), 9, "{s:?}");
                assert_eq!(out.main.code_bits(), 4, "{s:?}");
                // "the encoded value for hotel was 4 before merging and 6 after".
                assert_eq!(main.code(0), 4);
                assert_eq!(out.main.code(0), 6, "{s:?}");
                // Concatenation order: main tuples then delta tuples.
                assert_eq!(
                    values_of(&out.main),
                    vec![8, 4, 6, 4, 1, 3, 9, 2, 3, 7, 3, 25],
                    "{s:?}"
                );
                assert_eq!((out.stats.n_m, out.stats.n_d), (7, 5));
                assert_eq!(out.stats.u_merged, 9);
            });
        }

        #[test]
        fn empty_delta_is_identity_reencoding() {
            let main = MainPartition::from_values(&[5u64, 1, 5, 9]);
            each_strategy(&main, &[], 1, |out, s| {
                assert_eq!(values_of(&out.main), vec![5, 1, 5, 9], "{s:?}");
                assert_eq!(out.stats.u_d, 0);
            });
        }

        #[test]
        fn empty_main_bulk_loads_delta() {
            each_strategy(
                &MainPartition::<u64>::empty(),
                &[3, 1, 3, 2],
                1,
                |out, s| {
                    assert_eq!(values_of(&out.main), vec![3, 1, 3, 2], "{s:?}");
                    assert_eq!(out.main.dictionary().len(), 3, "{s:?}");
                },
            );
        }

        #[test]
        fn code_width_grows_when_dictionary_grows() {
            // 2 values (1 bit) + 3 new ones -> 5 values (3 bits).
            let main = MainPartition::from_values(&[1u64, 2]);
            assert_eq!(main.code_bits(), 1);
            each_strategy(&main, &[10, 11, 12], 1, |out, s| {
                assert_eq!(out.main.code_bits(), 3, "{s:?}");
            });
        }

        #[test]
        fn multithreaded_matches_single_threaded() {
            let values: Vec<u64> = (0..5000).map(|i| (i * 31) % 500).collect();
            let main = MainPartition::from_values(&values);
            let delta: Vec<u64> = (0..1000).map(|i| (i * 17) % 800).collect();
            each_strategy(&main, &delta, 1, |a, s| {
                let b = MergePipeline::new(s, 8).merge_column(
                    &main,
                    &FrozenDelta::from_values(&delta),
                    &mut MergeScratch::new(),
                );
                assert_eq!(a.main.dictionary().values(), b.main.dictionary().values());
                assert_eq!(values_of(&a.main), values_of(&b.main), "{s:?}");
            });
        }
    }
}

#[cfg(test)]
mod optimized {
    mod tests {
        use crate::naive::tests::{each_strategy, values_of};
        use hyrise_storage::{MainPartition, Value, V16};

        #[test]
        fn figure6_lookup_example() {
            // "the first compressed value in the main partition has a compressed
            // value of 4 (100 in binary). ... we look up the value stored at
            // index 4 in the auxiliary structure that corresponds to 6 (0110)."
            let main = MainPartition::from_values(&[8u64, 4, 6, 4, 1, 3, 9]);
            each_strategy(&main, &[2, 3, 7, 3, 25], 1, |out, s| {
                assert_eq!(main.code(0), 4);
                assert_eq!(out.main.code(0), 6, "{s:?}");
                assert_eq!(out.main.code_bits(), 4, "{s:?}");
                assert_eq!(
                    values_of(&out.main),
                    vec![8, 4, 6, 4, 1, 3, 9, 2, 3, 7, 3, 25],
                    "{s:?}"
                );
            });
        }

        #[test]
        fn agrees_with_naive_on_random_data() {
            let mut x = 0x1234_5678_9abc_def0u64;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            for trial in 0..5 {
                let main_vals: Vec<u64> = (0..2000).map(|_| next() % 300).collect();
                let delta_vals: Vec<u64> = (0..500).map(|_| next() % 400).collect();
                let main = MainPartition::from_values(&main_vals);
                // `each_strategy` runs Naive first: it is the reference.
                let mut naive = None;
                each_strategy(&main, &delta_vals, 1, |out, s| {
                    let a = naive.get_or_insert_with(|| out.main.clone());
                    assert_eq!(
                        a.dictionary().values(),
                        out.main.dictionary().values(),
                        "trial {trial}: {s:?} dictionary differs"
                    );
                    assert_eq!(a.code_bits(), out.main.code_bits());
                    assert_eq!(
                        a.codes().collect::<Vec<_>>(),
                        out.main.codes().collect::<Vec<_>>(),
                        "trial {trial}: {s:?} codes differ"
                    );
                });
            }
        }

        #[test]
        fn empty_inputs() {
            each_strategy(&MainPartition::<u64>::empty(), &[], 1, |out, s| {
                assert_eq!(out.main.len(), 0, "{s:?}");
                assert_eq!(out.stats.u_merged, 0, "{s:?}");
            });
            each_strategy(&MainPartition::from_values(&[1u64]), &[], 1, |out, s| {
                assert_eq!(values_of(&out.main), vec![1], "{s:?}");
            });
            each_strategy(&MainPartition::<u64>::empty(), &[4, 4, 2], 1, |out, s| {
                assert_eq!(values_of(&out.main), vec![4, 4, 2], "{s:?}");
            });
        }

        #[test]
        fn repeated_merges_accumulate() {
            // Merge three waves of deltas; the main must always equal the
            // concatenation of everything inserted so far.
            let mut main = MainPartition::<u64>::empty();
            let mut expected: Vec<u64> = Vec::new();
            for wave in 0..3u64 {
                let delta: Vec<u64> = (0..100).map(|i| (wave * 1000 + i * 7) % 260).collect();
                expected.extend_from_slice(&delta);
                let mut next = None;
                each_strategy(&main, &delta, 1, |out, s| {
                    assert_eq!(values_of(&out.main), expected, "{s:?} after wave {wave}");
                    next = Some(out.main);
                });
                main = next.expect("three strategies ran");
            }
        }

        #[test]
        fn works_for_all_value_widths() {
            each_strategy(
                &MainPartition::from_values(&[3u32, 1]),
                &[2],
                1,
                |out, s| {
                    assert_eq!(values_of(&out.main), vec![3, 1, 2], "{s:?}");
                },
            );
            let main = MainPartition::from_values(&[V16::from_seed(3)]);
            each_strategy(&main, &[V16::from_seed(1)], 1, |out, s| {
                assert_eq!(out.main.get(1), V16::from_seed(1), "{s:?}");
                assert_eq!(out.main.dictionary().len(), 2, "{s:?}");
            });
        }
    }
}

#[cfg(test)]
mod attribute {
    mod tests {
        use crate::OnlineTable;
        use hyrise_storage::MainPartition;

        #[test]
        fn global_tuple_ids_span_main_and_delta() {
            let t = OnlineTable::from_mains(vec![MainPartition::from_values(&[10u64, 20, 30])]);
            assert_eq!(t.row_count(), 3);
            assert_eq!(t.insert_row(&[40]).unwrap(), 3);
            assert_eq!(t.insert_row(&[50]).unwrap(), 4);
            let got: Vec<u64> = (0..t.row_count()).map(|r| t.get(0, r)).collect();
            assert_eq!(got, vec![10, 20, 30, 40, 50]);
        }

        #[test]
        fn empty_attribute_appends_to_delta() {
            let t = OnlineTable::<u32>::new(1);
            assert_eq!(t.insert_row(&[7]).unwrap(), 0);
            assert_eq!(t.get(0, 0), 7);
            assert_eq!((t.main_len(), t.delta_len()), (0, 1));
        }

        #[test]
        fn delta_fraction_drives_merge_trigger() {
            let main = MainPartition::from_values(&(0u64..100).collect::<Vec<_>>());
            let t = OnlineTable::from_mains(vec![main]);
            assert_eq!(t.delta_fraction(), 0.0);
            for i in 0..5 {
                t.insert_row(&[i]).unwrap();
            }
            assert!((t.delta_fraction() - 0.05).abs() < 1e-12);
        }

        #[test]
        fn replace_swaps_partitions() {
            // The merge installs the new main and leaves a fresh delta.
            let t = OnlineTable::from_mains(vec![MainPartition::from_values(&[1u64, 2])]);
            t.insert_row(&[3]).unwrap();
            t.merge(1).unwrap();
            assert_eq!((t.main_len(), t.delta_len()), (3, 0));
            t.insert_row(&[99]).unwrap();
            assert_eq!((t.row_count(), t.delta_len()), (4, 1));
            assert_eq!((t.get(0, 2), t.get(0, 3)), (3, 99));
        }
    }
}

#[cfg(test)]
mod column {
    mod tests {
        use crate::OnlineTable;
        use hyrise_storage::{Value, V16};

        fn append_and_get<V: Value>() {
            let t = OnlineTable::<V>::new(1);
            assert_eq!(t.insert_row(&[V::from_seed(7)]).unwrap(), 0);
            assert_eq!(t.get(0, 0), V::from_seed(7));
        }

        #[test]
        fn append_and_get_all_types() {
            append_and_get::<u32>();
            append_and_get::<u64>();
            append_and_get::<V16>();
        }

        #[test]
        fn value_bytes_match_paper_lengths() {
            // Section 7's value lengths E_j.
            assert_eq!((u32::BYTES, u64::BYTES, V16::BYTES), (4, 8, 16));
        }
    }
}

#[cfg(test)]
mod table {
    mod tests {
        use crate::OnlineTable;
        use hyrise_storage::{Value, V16};

        /// (order_id, qty, doc) at the widest value length.
        fn row(order: u64, qty: u64, doc: u64) -> Vec<V16> {
            [order, qty, doc].map(V16::from_seed).to_vec()
        }

        #[test]
        fn insert_and_read_rows() {
            let t = OnlineTable::new(3);
            let r0 = t.insert_row(&row(100, 5, 1)).unwrap();
            let r1 = t.insert_row(&row(101, 7, 2)).unwrap();
            assert_eq!((r0, r1), (0, 1));
            assert_eq!(t.row_count(), 2);
            assert_eq!(t.row(1), row(101, 7, 2));
            assert!(t.is_valid(0) && t.is_valid(1));
        }

        #[test]
        fn update_keeps_history_and_flips_validity() {
            let t = crate::ShardedTable::builder().columns(3).build().unwrap();
            let r0 = t.insert_row(&row(100, 5, 1)).unwrap();
            let r1 = t.update_row(r0, &row(100, 6, 1)).unwrap();
            assert_eq!(t.row_count(), 2, "insert-only: old version retained");
            assert!(!t.is_valid(r0), "old version invalidated");
            assert!(t.is_valid(r1));
            assert_eq!(t.row(r0), row(100, 5, 1), "history still readable");
            assert_eq!(t.valid_row_count(), 1);
        }

        #[test]
        fn delete_only_invalidates() {
            let t = OnlineTable::new(3);
            let r = t.insert_row(&row(1, 1, 1)).unwrap();
            t.delete_row(r).unwrap();
            assert_eq!(t.row_count(), 1);
            assert_eq!(t.valid_row_count(), 0);
            assert_eq!(t.row(r), row(1, 1, 1));
        }

        #[test]
        fn arity_and_type_errors() {
            // A value of the wrong type does not compile; a row of the wrong
            // arity is refused before any column is written.
            let t = OnlineTable::<V16>::new(3);
            let short = std::panic::catch_unwind(|| t.insert_row(&row(1, 2, 3)[..1]));
            assert!(short.is_err());
            assert_eq!(t.row_count(), 0, "failed inserts must not partially apply");
        }

        #[test]
        fn row_out_of_range() {
            let t = OnlineTable::<V16>::new(3);
            assert!(std::panic::catch_unwind(|| t.is_valid(0)).is_err());
        }

        #[test]
        fn all_inserts_land_in_delta() {
            let t = OnlineTable::new(3);
            for i in 0..10 {
                t.insert_row(&row(i, i, i)).unwrap();
            }
            assert_eq!((t.main_len(), t.delta_len()), (0, 10));
            assert_eq!(
                t.delta_fraction(),
                10.0,
                "empty main reads as N_D / 1 (finite)"
            );
        }
    }
}

#[cfg(test)]
mod governor {
    mod tests {
        use crate::pipeline::MergeStrategy;
        use crate::rate::HIGH_TARGET_UPDATES_PER_SEC;
        use crate::scheduler::{GrantRecord, GrantTrace, GRANT_TRACE};
        use crate::stats::{begin_read, read_load};
        use crate::MergePolicy;

        fn policy() -> MergePolicy {
            MergePolicy {
                delta_fraction: 0.05,
                threads: 4,
                strategy: MergeStrategy::Naive,
                ..MergePolicy::default()
            }
        }

        #[test]
        fn decision_table_rows_fire_in_priority_order() {
            let p = MergePolicy {
                memory_soft_limit: 1 << 20,
                ..policy()
            };
            // Memory pressure shrinks the budget and keeps the rest of the
            // policy's grant.
            let (g, pressured) = p.grant_at((1 << 20) + 1);
            assert!(pressured);
            assert_eq!(g, p.grant().budget(MergePolicy::PRESSURE_BUDGET));
            assert_eq!(g.threads, 4, "memory pressure keeps the policy threads");
            assert_eq!(g.strategy, MergeStrategy::Naive);

            // Otherwise the policy's own grant.
            assert_eq!(p.grant_at(1 << 20), (p.grant(), false));
        }

        #[test]
        fn pressure_factor_eligibility_boundaries() {
            // Due iff fraction > trigger / (1 + min(r / 18 000, 4)). Each
            // case probes just below and just above that threshold; memory
            // pressure acts on the grant, never on the trigger.
            for memory_soft_limit in [usize::MAX, 0] {
                let p = MergePolicy {
                    memory_soft_limit,
                    ..policy()
                };
                // The trigger 0.05 over 1 + min(rate / 18 000, 4).
                for (rate, threshold) in [
                    (0.0, 0.05),
                    (18_000.0, 0.025),
                    (72_000.0, 0.01),
                    (1e6, 0.01),
                ] {
                    let case = format!("rate {rate}, soft limit {memory_soft_limit}");
                    assert!(
                        !p.is_due(threshold * (1.0 - 1e-9), rate),
                        "just below the threshold is not due: {case}"
                    );
                    assert!(
                        p.is_due(threshold * (1.0 + 1e-9), rate),
                        "just above the threshold is due: {case}"
                    );
                }
                // The floor writes skip the scheduler below: no rate makes
                // it due, and the top rate makes anything above it due.
                let floor = p.due_floor();
                assert!(!p.is_due(floor, f64::MAX));
                assert!(p.is_due(floor * (1.0 + 1e-9), f64::MAX));
            }
        }

        #[test]
        fn plan_detects_memory_pressure_and_shrinks_the_budget() {
            let p = MergePolicy {
                memory_soft_limit: 1_000,
                ..policy()
            };
            let trace = GrantTrace::default();
            for (memory, fraction) in [(1_000, 0.5), (4_000, 0.5)] {
                let (g, pressured) = p.grant_at(memory);
                trace.record(GrantRecord {
                    strategy: g.strategy,
                    threads: g.threads,
                    budget_columns: g.budget.max_columns(),
                    pressured,
                    delta_fraction: fraction,
                });
            }
            let trace = trace.recent();
            assert_eq!(trace.len(), 2);
            assert!(!trace[0].pressured);
            assert_eq!(trace[0].budget_columns, p.budget.max_columns());
            assert!(trace[1].pressured);
            assert_eq!(
                trace[1].budget_columns,
                MergePolicy::PRESSURE_BUDGET.max_columns()
            );
        }

        #[test]
        fn write_pressure_makes_the_trigger_more_eager() {
            // fraction 0.04 < trigger 0.05: an idle table waits, a heavily
            // written one is due.
            let p = policy();
            assert!(!p.is_due(0.04, 0.0));
            assert!(p.is_due(0.04, HIGH_TARGET_UPDATES_PER_SEC));
            // The factor is capped at 5: the floor is the trigger over 5.
            assert!((p.due_floor() - 0.01).abs() < 1e-15);
            assert!(!p.is_due(p.due_floor(), 1e9), "capped at 5x");
        }

        #[test]
        fn trace_ring_is_bounded() {
            let trace = GrantTrace::default();
            let g = policy().grant();
            for i in 0..(GRANT_TRACE + 20) {
                trace.record(GrantRecord {
                    strategy: g.strategy,
                    threads: g.threads,
                    budget_columns: g.budget.max_columns(),
                    pressured: false,
                    delta_fraction: i as f64,
                });
            }
            let trace = trace.recent();
            assert_eq!(trace.len(), GRANT_TRACE);
            assert_eq!(trace[0].delta_fraction, 20.0, "the oldest are dropped");
            // Display is stable enough to print in harnesses.
            let line = trace[0].to_string();
            assert_eq!(line, "naive/t4/K∞ baseline f=20.000");
        }

        #[test]
        fn read_guard_counts_start_and_finish() {
            let before = read_load();
            let g = begin_read();
            let during = read_load();
            assert!(during.started > before.started);
            drop(g);
            let after = read_load();
            assert!(after.finished > before.finished);
            assert!(after.finished <= after.started);
        }
    }
}
