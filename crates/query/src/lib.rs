//! The unified query layer over main+delta storage (the query side of
//! Section 2's mixed workload: key lookups, table scans, range selects,
//! aggregation).
//!
//! One typed logical-query API serves every backend:
//!
//! * [`Query`] — the builder: `Query::scan(col).eq(v)` / `.between(lo, hi)`
//!   / `.and(col)` for conjunctions, plus `.project(cols)` / `.sum(col)` /
//!   `.min_max(col)` / `.count()` outputs.
//! * [`Executor`] — the one trait backends implement:
//!   [`hyrise_core::TableSnapshot`] (the canonical engine),
//!   [`hyrise_core::OnlineTable`] (snapshot-then-execute) and
//!   [`hyrise_core::shard::ShardedTable`] (fan-out + merge partial
//!   results).
//!
//! The engine makes the paper's read-path trade-offs concrete: on the
//! **main partition** an equality or range predicate is rewritten to a
//! dictionary **value-id range**
//! ([`hyrise_storage::Dictionary::value_id_range`], O(log |U_M|)) and
//! evaluated as a sequential scan over the bit-packed codes — no tuple is
//! ever decoded; the order-preserving encoding makes code comparisons agree
//! with value comparisons. On the **delta partition** predicates fall back
//! to value comparisons over the uncompressed tail, which "consume\[s\]
//! more compute resources and memory bandwidth" — this is why delta size
//! must be bounded by merging (Section 4), and it is exactly what the
//! `query_engine` bench measures.
//!
//! Row ids are global: main rows first, delta rows appended. There is
//! exactly one read path: the legacy free functions (`scan_eq`,
//! `snapshot_scan_*`, `sharded_*`, `sum_lossy*`, …) that once wrapped the
//! engine are gone — every caller drives the [`Query`] builder directly.

mod exec;
mod morsel;
mod plan;

pub use exec::{Executor, Output};
pub use plan::{Action, CompiledPredicate, Query};

// Unit tests of the deleted offline operators (`scan`, `aggregate`,
// `table_ops`), re-pointed at the live table: the same fixtures and expected
// answers, asked through [`Query`] on an [`hyrise_core::OnlineTable`]. The
// module names survive (test-only, at the crate root) so that each test
// keeps the path the CI floor list knows it by.
#[cfg(test)]
mod scan {
    mod tests {
        use crate::Query;
        use hyrise_core::OnlineTable;
        use hyrise_storage::MainPartition;

        /// One column with main [10 20 30 20 10] and delta [20 40 10].
        fn table() -> OnlineTable<u64> {
            let t =
                OnlineTable::from_mains(vec![MainPartition::from_values(&[10u64, 20, 30, 20, 10])]);
            for v in [20, 40, 10] {
                t.insert_row(&[v]).unwrap();
            }
            t
        }

        #[test]
        fn key_lookup_spans_partitions() {
            let t = table();
            assert_eq!((t.get(0, 0), t.get(0, 4), t.get(0, 6)), (10, 10, 40));
        }

        #[test]
        fn engine_scan_eq_finds_all_occurrences() {
            let t = table();
            let eq = |v: u64| Query::scan(0).eq(v).run(&t).into_rows();
            assert_eq!(eq(20), vec![1, 3, 5]);
            assert_eq!(eq(10), vec![0, 4, 7]);
            assert_eq!(eq(40), vec![6]);
            assert_eq!(eq(99), Vec::<usize>::new());
        }

        #[test]
        fn engine_scan_value_only_in_delta() {
            let t = table();
            // 40 is not in the main dictionary at all.
            assert!(t
                .snapshot()
                .col(0)
                .main()
                .dictionary()
                .code_of(&40)
                .is_none());
            assert_eq!(Query::scan(0).eq(40u64).run(&t).into_rows(), vec![6]);
        }

        #[test]
        fn engine_scan_range_inclusive_bounds() {
            let t = table();
            let range = |lo: u64, hi: u64| Query::scan(0).between(lo, hi).run(&t).into_rows();
            // Ascending global row order, main rows first then delta rows.
            assert_eq!(range(10, 20), vec![0, 1, 3, 4, 5, 7]);
            assert_eq!(range(20, 30), vec![1, 2, 3, 5]);
            assert_eq!(range(35, 50), vec![6]);
            assert_eq!(range(41, 100), Vec::<usize>::new());
            // Full range returns everything.
            assert_eq!(range(0, u64::MAX).len(), 8);
        }

        #[test]
        fn materialize_preserves_row_order() {
            let t = table();
            let project = |lo: u64, hi: u64| {
                Query::scan(0)
                    .between(lo, hi)
                    .project(&[0])
                    .run(&t)
                    .into_projected()
            };
            assert_eq!(project(20, 40), [[20], [30], [20], [20], [40]]);
            assert!(project(41, 100).is_empty());
        }

        #[test]
        fn empty_attribute_scans() {
            let t = OnlineTable::<u64>::new(1);
            assert!(Query::scan(0).eq(1u64).run(&t).into_rows().is_empty());
            assert!(Query::scan(0)
                .between(0u64, 100)
                .run(&t)
                .into_rows()
                .is_empty());
        }
    }
}

#[cfg(test)]
mod aggregate {
    mod tests {
        use crate::Query;
        use hyrise_core::OnlineTable;
        use hyrise_storage::MainPartition;

        /// One column with main [5 1 9] and delta [100 3].
        fn setup() -> OnlineTable<u64> {
            let t = OnlineTable::from_mains(vec![MainPartition::from_values(&[5u64, 1, 9])]);
            t.insert_row(&[100]).unwrap();
            t.insert_row(&[3]).unwrap();
            t
        }

        fn sum(t: &OnlineTable<u64>) -> u128 {
            Query::scan(0).sum(0).run(t).sum()
        }

        fn min_max(t: &OnlineTable<u64>) -> Option<(u64, u64)> {
            Query::scan(0).min_max(0).run(t).min_max()
        }

        #[test]
        fn sum_over_all_valid() {
            assert_eq!(sum(&setup()), 5 + 1 + 9 + 100 + 3);
        }

        #[test]
        fn sum_skips_invalidated_rows() {
            let t = setup();
            t.delete_row(3).unwrap(); // the 100 in the delta
            t.delete_row(0).unwrap(); // the 5 in main
            assert_eq!(sum(&t), 1 + 9 + 3);
            assert_eq!(Query::scan(0).count().run(&t).count(), 3);
        }

        #[test]
        fn min_max_spans_partitions() {
            assert_eq!(min_max(&setup()), Some((1, 100)));
        }

        #[test]
        fn min_max_respects_validity() {
            let t = setup();
            t.delete_row(3).unwrap(); // remove max (delta)
            t.delete_row(1).unwrap(); // remove min (main)
            assert_eq!(min_max(&t), Some((3, 9)));
        }

        #[test]
        fn all_invalid_yields_none() {
            let t = setup();
            for r in 0..5 {
                t.delete_row(r).unwrap();
            }
            assert_eq!(min_max(&t), None);
            assert_eq!(sum(&t), 0);
        }

        #[test]
        fn parallel_sum_matches_serial_over_all_rows() {
            let t = OnlineTable::from_mains(vec![MainPartition::from_values(
                &(0..10_000u64).map(|i| (i * 31) % 977).collect::<Vec<_>>(),
            )]);
            for i in 0..3_000u64 {
                t.insert_row(&[(i * 7) % 501]).unwrap();
            }
            let serial = sum(&t);
            for threads in [1usize, 2, 7, 16] {
                assert_eq!(
                    Query::scan(0).sum(0).with_threads(threads).run(&t).sum(),
                    serial,
                    "threads={threads}"
                );
            }
        }

        #[test]
        fn parallel_sum_edge_shapes() {
            // Empty table.
            let t = OnlineTable::<u64>::new(1);
            assert_eq!(Query::scan(0).sum(0).with_threads(4).run(&t).sum(), 0);
            // Delta-only.
            for i in 0..100 {
                t.insert_row(&[i]).unwrap();
            }
            assert_eq!(
                Query::scan(0).sum(0).with_threads(8).run(&t).sum(),
                (0..100u128).sum()
            );
            // Main-only, more threads than rows.
            let t = OnlineTable::from_mains(vec![MainPartition::from_values(&[1u64, 2, 3])]);
            assert_eq!(Query::scan(0).sum(0).with_threads(64).run(&t).sum(), 6);
        }

        #[test]
        fn overflow_safe_sum() {
            let t = OnlineTable::<u64>::new(1);
            for _ in 0..4 {
                t.insert_row(&[u64::MAX]).unwrap();
            }
            assert_eq!(sum(&t), (u64::MAX as u128) * 4);
        }
    }
}

#[cfg(test)]
mod table_ops {
    mod tests {
        use crate::Query;
        use hyrise_core::OnlineTable;
        use hyrise_storage::{Value, V16};

        /// (customer, qty) orders, generic over the value type.
        fn table<V: Value>() -> OnlineTable<V> {
            let t = OnlineTable::new(2);
            for (cust, qty) in [(7u64, 1u64), (8, 2), (7, 3), (9, 4), (7, 5)] {
                t.insert_row(&[V::from_seed(cust), V::from_seed(qty)])
                    .unwrap();
            }
            t
        }

        fn customer_rows(t: &OnlineTable<u64>, customer: u64) -> Vec<usize> {
            Query::scan(0).eq(customer).run(t).into_rows()
        }

        #[test]
        fn eq_scan_filters_validity() {
            let t = table::<u64>();
            assert_eq!(customer_rows(&t, 7), vec![0, 2, 4]);
            t.delete_row(2).unwrap();
            assert_eq!(customer_rows(&t, 7), vec![0, 4]);
        }

        #[test]
        fn eq_scan_after_update_sees_only_new_version() {
            let t = table::<u64>();
            let new_row = t.insert_row(&[7, 10]).unwrap();
            t.delete_row(0).unwrap();
            let rows = customer_rows(&t, 7);
            assert!(rows.contains(&new_row));
            assert!(!rows.contains(&0));
        }

        /// Every value length runs the same typed kernels: the `u64` answers
        /// above, re-asked on a `u32` and a 16-byte table.
        fn predicates_on<V: Value>() {
            let t = table::<V>();
            let v = V::from_seed;
            t.delete_row(1).unwrap();
            assert_eq!(
                Query::scan(1).between(v(2), v(4)).run(&t).into_rows(),
                vec![2, 3],
                "range predicate (row 1 invalidated)"
            );
            assert_eq!(
                Query::scan(0)
                    .eq(v(7))
                    .and(1)
                    .between(v(3), v(9))
                    .run(&t)
                    .into_rows(),
                vec![2, 4]
            );
            assert_eq!(Query::scan(0).eq(v(7)).sum(1).run(&t).sum(), 1 + 3 + 5);
            assert_eq!(
                Query::scan(0).min_max(1).run(&t).min_max(),
                Some((v(1), v(5)))
            );
            assert_eq!(
                Query::scan(0)
                    .eq(v(9))
                    .project(&[1, 0])
                    .run(&t)
                    .into_projected(),
                vec![vec![v(4), v(9)]]
            );
        }

        #[test]
        fn any_value_predicates_on_non_u64_columns() {
            predicates_on::<u32>();
            predicates_on::<V16>();
        }

        #[test]
        fn generic_select_multi_column_predicate() {
            // The conjunction against a row-at-a-time filter.
            let t = table::<u64>();
            let want: Vec<usize> = (0..t.row_count())
                .filter(|&r| t.get(0, r) == 7 && t.get(1, r) >= 3)
                .collect();
            let got = Query::scan(0).eq(7).and(1).between(3, u64::MAX).run(&t);
            assert_eq!(got.into_rows(), want);
            assert_eq!(want, vec![2, 4]);
        }
    }
}
