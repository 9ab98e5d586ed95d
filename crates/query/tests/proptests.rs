//! Property tests on the one table shape `query_engine_proptests.rs` does
//! not draw: a main partition that was **bulk-loaded** (never produced by a
//! merge, possibly empty) under a raw append-only tail, with arbitrary
//! deletes. The [`Query`] operators must agree with a brute-force
//! evaluation over the materialized column.

use hyrise_core::OnlineTable;
use hyrise_query::Query;
use hyrise_storage::MainPartition;
use proptest::prelude::*;

/// One column: `main_vals` bulk-loaded, `delta_vals` appended, then every
/// `invalid[i] % rows` deleted. Returns the table and its valid rows.
fn table(
    main_vals: &[u64],
    delta_vals: &[u64],
    invalid: &[u16],
) -> (OnlineTable<u64>, Vec<(usize, u64)>) {
    let t = OnlineTable::from_mains(vec![MainPartition::from_values(main_vals)]);
    for &v in delta_vals {
        t.insert_row(&[v]).unwrap();
    }
    let mut rows: Vec<Option<u64>> = main_vals
        .iter()
        .chain(delta_vals)
        .copied()
        .map(Some)
        .collect();
    for &i in invalid {
        if !rows.is_empty() {
            let victim = i as usize % rows.len();
            t.delete_row(victim).unwrap();
            rows[victim] = None;
        }
    }
    let valid = rows
        .into_iter()
        .enumerate()
        .filter_map(|(i, v)| Some((i, v?)))
        .collect();
    (t, valid)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scan_eq_equals_brute_force(
        main_vals in prop::collection::vec(0u64..50, 0..400),
        delta_vals in prop::collection::vec(0u64..60, 0..200),
        invalid in prop::collection::vec(any::<u16>(), 0..40),
        probe in 0u64..70,
    ) {
        let (t, valid) = table(&main_vals, &delta_vals, &invalid);
        let want: Vec<usize> = valid.iter().filter(|(_, v)| *v == probe).map(|(i, _)| *i).collect();
        prop_assert_eq!(Query::scan(0).eq(probe).run(&t).into_rows(), want);
    }

    #[test]
    fn scan_range_equals_brute_force(
        main_vals in prop::collection::vec(0u64..50, 0..400),
        delta_vals in prop::collection::vec(0u64..60, 0..200),
        invalid in prop::collection::vec(any::<u16>(), 0..40),
        lo in 0u64..70,
        span in 0u64..30,
    ) {
        let (t, valid) = table(&main_vals, &delta_vals, &invalid);
        let hi = lo + span;
        let want: Vec<usize> =
            valid.iter().filter(|(_, v)| (lo..=hi).contains(v)).map(|(i, _)| *i).collect();
        prop_assert_eq!(Query::scan(0).between(lo, hi).run(&t).into_rows(), want);
    }

    #[test]
    fn aggregates_respect_validity(
        main_vals in prop::collection::vec(0u64..1000, 0..300),
        delta_vals in prop::collection::vec(0u64..1000, 0..150),
        invalid in prop::collection::vec(any::<u16>(), 0..40),
        threads in 1usize..8,
    ) {
        let (t, valid) = table(&main_vals, &delta_vals, &invalid);
        let values = || valid.iter().map(|(_, v)| *v);
        let want_sum: u128 = values().map(u128::from).sum();
        for hint in [1, threads] {
            let q = Query::scan(0).with_threads(hint);
            prop_assert_eq!(q.clone().count().run(&t).count(), valid.len());
            prop_assert_eq!(q.clone().sum(0).run(&t).sum(), want_sum);
            prop_assert_eq!(q.min_max(0).run(&t).min_max(), values().min().zip(values().max()));
        }
    }
}
