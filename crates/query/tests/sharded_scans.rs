//! Sharded fan-out scans and aggregates through the unified [`Query`]
//! engine, checked against brute-force evaluation across merge states —
//! the coverage the removed legacy `sharded_*`/`snapshot_*` wrappers used
//! to carry, now pinned directly on the one remaining read path.

use hyrise_core::shard::{ShardRowId, ShardedTable};
use hyrise_query::Query;

/// 4 hash shards, 2 columns; column 1 = key * 3.
fn table(rows: u64) -> ShardedTable<u64> {
    let t = ShardedTable::builder()
        .shards(4)
        .columns(2)
        .build()
        .unwrap();
    t.insert_rows(
        &(0..rows)
            .map(|i| vec![i % 50, (i % 50) * 3])
            .collect::<Vec<_>>(),
    )
    .unwrap();
    t
}

fn brute_eq(t: &ShardedTable<u64>, col: usize, v: u64) -> Vec<ShardRowId> {
    let mut out = Vec::new();
    for (shard, s) in t.shards().iter().enumerate() {
        for row in 0..s.row_count() {
            if s.is_valid(row) && s.get(col, row) == v {
                out.push(ShardRowId { shard, row });
            }
        }
    }
    out
}

fn scan_eq(t: &ShardedTable<u64>, col: usize, v: u64) -> Vec<ShardRowId> {
    Query::scan(col).eq(v).run(t).into_rows()
}

#[test]
fn sharded_scan_eq_matches_brute_force_across_merge_states() {
    let t = table(400);
    for probe in [0u64, 7, 49, 99] {
        assert_eq!(scan_eq(&t, 0, probe), brute_eq(&t, 0, probe));
    }
    // Merge two shards only: scans must span main, frozen and active.
    t.shard(0).merge(1, None).unwrap();
    t.shard(2).merge(1, None).unwrap();
    t.insert_rows(
        &(0..100u64)
            .map(|i| vec![i % 50, (i % 50) * 3])
            .collect::<Vec<_>>(),
    )
    .unwrap();
    for probe in [0u64, 7, 49] {
        let mut got = scan_eq(&t, 0, probe);
        got.sort_unstable();
        let mut want = brute_eq(&t, 0, probe);
        want.sort_unstable();
        assert_eq!(got, want, "probe {probe}");
    }
    // Second column scans too.
    assert_eq!(scan_eq(&t, 1, 21).len(), brute_eq(&t, 1, 21).len());
}

#[test]
fn sharded_scan_range_matches_brute_force() {
    let t = table(300);
    t.shard(1).merge(1, None).unwrap();
    for (lo, hi) in [(0u64, 10u64), (25, 49), (40, 200), (60, 80)] {
        let got: std::collections::BTreeSet<ShardRowId> = Query::scan(0)
            .between(lo, hi)
            .run(&t)
            .into_rows()
            .into_iter()
            .collect();
        let want: std::collections::BTreeSet<ShardRowId> =
            (lo..=hi.min(49)).flat_map(|v| brute_eq(&t, 0, v)).collect();
        assert_eq!(got, want, "range {lo}..={hi}");
    }
}

#[test]
fn scans_filter_invalidated_rows() {
    let t = table(200);
    let hits = scan_eq(&t, 0, 13);
    assert!(!hits.is_empty());
    for id in &hits {
        t.delete_row(*id).unwrap();
    }
    assert_eq!(scan_eq(&t, 0, 13), Vec::new());
    assert_eq!(
        Query::scan(0).count().run(&t).count(),
        200 - hits.len(),
        "valid-row count drops by the invalidated hits"
    );
}

#[test]
fn sharded_aggregates_match_brute_force() {
    let t = table(500);
    t.shard(3).merge(1, None).unwrap();
    let mut want_sum: u128 = 0;
    let mut want_mm: Option<(u64, u64)> = None;
    for s in t.shards() {
        for row in 0..s.row_count() {
            if s.is_valid(row) {
                let v = s.get(1, row);
                want_sum += v as u128;
                want_mm = Some(match want_mm {
                    None => (v, v),
                    Some((lo, hi)) => (lo.min(v), hi.max(v)),
                });
            }
        }
    }
    assert_eq!(Query::scan(0).sum(1).run(&t).sum(), want_sum);
    assert_eq!(Query::scan(0).min_max(1).run(&t).min_max(), want_mm);
    assert_eq!(
        Query::scan(0).min_max(1).run(&t).min_max(),
        Some((0, 49 * 3))
    );
}

#[test]
fn snapshot_queries_agree_with_sharded_fanout() {
    let t = table(300);
    t.shard(2).merge(1, None).unwrap();
    t.insert_rows(
        &(0..50u64)
            .map(|i| vec![i % 50, (i % 50) * 3])
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let snaps = t.snapshots();
    let stitched: Vec<ShardRowId> = snaps
        .iter()
        .enumerate()
        .flat_map(|(shard, s)| {
            Query::scan(0)
                .eq(7u64)
                .run(s)
                .into_rows()
                .into_iter()
                .map(move |row| ShardRowId { shard, row })
        })
        .collect();
    assert_eq!(stitched, scan_eq(&t, 0, 7));
    let sum: u128 = snaps
        .iter()
        .map(|s| Query::scan(0).sum(1).run(s).sum())
        .sum();
    assert_eq!(sum, Query::scan(0).sum(1).run(&t).sum());
    let mm = snaps
        .iter()
        .filter_map(|s| Query::scan(0).min_max(1).run(s).min_max())
        .reduce(|(alo, ahi), (blo, bhi)| (alo.min(blo), ahi.max(bhi)));
    assert_eq!(mm, Query::scan(0).min_max(1).run(&t).min_max());
    assert_eq!(
        snaps
            .iter()
            .map(|s| Query::scan(0).between(5u64, 9).run(s).into_rows().len())
            .sum::<usize>(),
        Query::scan(0).between(5u64, 9).run(&t).into_rows().len()
    );
}

#[test]
fn empty_table_aggregates() {
    let t = ShardedTable::<u64>::builder()
        .shards(2)
        .columns(1)
        .build()
        .unwrap();
    assert_eq!(Query::scan(0).sum(0).run(&t).sum(), 0);
    assert_eq!(Query::scan(0).count().run(&t).count(), 0);
    assert_eq!(Query::scan(0).min_max(0).run(&t).min_max(), None);
    assert_eq!(scan_eq(&t, 0, 1), Vec::new());
    assert_eq!(
        Query::scan(0).between(0u64, 10).run(&t).into_rows(),
        Vec::new()
    );
}

#[test]
fn scans_are_stable_while_merges_run() {
    // The lock-free property: scans against snapshots keep returning
    // correct results while every shard merges concurrently.
    let t = std::sync::Arc::new(table(2_000));
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        let (t2, stop2) = (std::sync::Arc::clone(&t), std::sync::Arc::clone(&stop));
        s.spawn(move || {
            while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
                t2.merge_all(1).unwrap();
                t2.insert_rows(
                    &(0..40u64)
                        .map(|i| vec![i % 50, (i % 50) * 3])
                        .collect::<Vec<_>>(),
                )
                .unwrap();
            }
        });
        // Invariant: every scan hit really holds the probed value.
        for _ in 0..200 {
            for id in scan_eq(&t, 0, 7) {
                assert_eq!(t.get(id, 0), 7);
                assert_eq!(t.get(id, 1), 21);
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
}
