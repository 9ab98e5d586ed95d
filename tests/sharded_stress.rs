//! System-level stress for the sharding layer: concurrent routed inserts
//! and cross-shard fan-out scans must stay correct while the
//! [`MergeScheduler`] runs per-shard merges underneath — the acceptance
//! bar for the scale-out layer.

use hyrise::merge::{MergePolicy, MergeScheduler};
use hyrise::query::Query;
use hyrise::shard::ShardedTable;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const COLS: usize = 2;
const KEY_DOMAIN: u64 = 500;

/// Rows keep an invariant scans can check mid-flight: col1 = col0 * 7 + 1.
fn linked_row(i: u64) -> [u64; 2] {
    let key = i % KEY_DOMAIN;
    [key, key * 7 + 1]
}

#[test]
fn concurrent_inserts_and_scans_survive_per_shard_merges() {
    const SHARDS: usize = 4;
    let table = Arc::new(
        ShardedTable::<u64>::builder()
            .shards(SHARDS)
            .columns(COLS)
            .build()
            .unwrap(),
    );
    table
        .insert_rows(&(0..20_000u64).map(linked_row).collect::<Vec<_>>())
        .unwrap();
    table.merge_all(2).unwrap();

    let policy = MergePolicy {
        delta_fraction: 0.02,
        threads: 1,
        ..MergePolicy::default()
    };
    let sched = MergeScheduler::spawn(table.shards().to_vec(), policy);

    let stop = Arc::new(AtomicBool::new(false));
    let inserted = Arc::new(AtomicU64::new(20_000));
    let scans_run = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        // Two writers: one batched, one row-at-a-time.
        for w in 0..2u64 {
            let (table, stop, inserted) =
                (Arc::clone(&table), Arc::clone(&stop), Arc::clone(&inserted));
            s.spawn(move || {
                let mut i = 1_000_000 * (w + 1);
                while !stop.load(Ordering::Relaxed) {
                    if w == 0 {
                        let batch: Vec<[u64; 2]> = (0..64).map(|k| linked_row(i + k)).collect();
                        table.insert_rows(&batch).unwrap();
                        inserted.fetch_add(64, Ordering::Relaxed);
                        i += 64;
                    } else {
                        table.insert_row(&linked_row(i)).unwrap();
                        inserted.fetch_add(1, Ordering::Relaxed);
                        i += 1;
                    }
                }
            });
        }
        // Two fan-out readers verifying invariants while merges run.
        for r in 0..2u64 {
            let (table, stop, scans_run) = (
                Arc::clone(&table),
                Arc::clone(&stop),
                Arc::clone(&scans_run),
            );
            s.spawn(move || {
                let mut probe = r * 31;
                while !stop.load(Ordering::Relaxed) {
                    let key = probe % KEY_DOMAIN;
                    let hits = Query::scan(0).eq(key).run(&*table).into_rows();
                    assert!(
                        hits.len() >= (20_000 / KEY_DOMAIN) as usize,
                        "preloaded occurrences of key {key} must stay visible"
                    );
                    for id in hits {
                        assert_eq!(table.get(id, 0), key, "scan hit holds probed key");
                        assert_eq!(table.get(id, 1), key * 7 + 1, "row invariant");
                    }
                    assert!(Query::scan(0).count().run(&*table).count() >= 20_000);
                    scans_run.fetch_add(1, Ordering::Relaxed);
                    probe += 1;
                }
            });
        }
        std::thread::sleep(Duration::from_millis(500));
        stop.store(true, Ordering::Relaxed);
    });

    // Drain, then check global accounting.
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    while table.max_delta_fraction() > policy.delta_fraction && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    sched.shutdown();
    let stats = sched.stats();

    assert_eq!(
        table.row_count() as u64,
        inserted.load(Ordering::Relaxed),
        "no rows lost across routed inserts and per-shard merges"
    );
    assert!(
        scans_run.load(Ordering::Relaxed) > 0,
        "readers made progress"
    );
    assert!(stats.merges >= 2, "merges ran during the stress window");
    assert!(
        stats.per_source.iter().filter(|s| s.merges > 0).count() >= 2,
        "merges spread across shards: {:?}",
        stats.per_source
    );
    assert!(
        table.max_delta_fraction() <= policy.delta_fraction,
        "every shard's delta bounded after drain"
    );
    // Aggregate cross-check after quiescing: sum(col1) = 7*sum(col0) + N.
    table.merge_all(2).unwrap();
    let keys_sum = Query::scan(0).sum(0).run(&*table).sum();
    let linked_sum = Query::scan(0).sum(1).run(&*table).sum();
    assert_eq!(
        linked_sum,
        keys_sum * 7 + Query::scan(0).count().run(&*table).count() as u128,
        "column invariant holds in aggregate across all shards"
    );
}

#[test]
fn sharded_mix_with_scheduler_stays_consistent() {
    const WORKERS: u64 = 3;
    const OPS: u64 = 5_000;
    let table = ShardedTable::<u64>::builder()
        .shards(3)
        .columns(3)
        .build()
        .unwrap();
    let initial_rows = 4_000 * WORKERS;
    let row = |k: u64| [k, k % 97, k % 13];
    let ids = table
        .insert_rows(&(0..initial_rows).map(row).collect::<Vec<_>>())
        .unwrap();
    table.merge_all(2).unwrap();
    assert_eq!(ids.len() as u64, initial_rows);

    let table = Arc::new(table);
    let policy = MergePolicy {
        delta_fraction: 0.05,
        threads: 1,
        ..MergePolicy::default()
    };
    let sched = MergeScheduler::spawn(table.shards().to_vec(), policy);
    // Each worker runs a fixed mix against the facade: one op in four
    // writes (insert, update of a preloaded row, delete of its own newest
    // row), the rest are routed lookups and cross-shard range counts.
    // Returns (appended rows, invalidating writes).
    let counts: Vec<(u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let (table, ids) = (&table, &ids);
                s.spawn(move || {
                    let (mut appended, mut invalidated) = (0, 0);
                    let mut own = Vec::new();
                    for i in 0..OPS {
                        let id = ids[((i * 7_919 + w) % initial_rows) as usize];
                        match i % 12 {
                            0 => {
                                own.push(table.insert_row(&row((w + 1) << 32 | i)).unwrap());
                                appended += 1;
                            }
                            4 => {
                                own.push(table.update_row(id, &row((w + 1) << 32 | i)).unwrap());
                                appended += 1;
                                invalidated += 1;
                            }
                            8 => {
                                if let Some(mine) = own.pop() {
                                    table.delete_row(mine).unwrap();
                                    invalidated += 1;
                                }
                            }
                            k if k % 2 == 1 => {
                                table.get(id, 0);
                            }
                            _ => {
                                let lo = i % initial_rows;
                                Query::scan(0).between(lo, lo + 100).count().run(&**table);
                            }
                        }
                    }
                    (appended, invalidated)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    while table.max_delta_fraction() > policy.delta_fraction && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    sched.shutdown();

    let appended: u64 = counts.iter().map(|c| c.0).sum();
    assert_eq!(
        table.row_count() as u64,
        initial_rows + appended,
        "exact accounting under the full mix + background merging"
    );
    let invalidated: u64 = counts.iter().map(|c| c.1).sum();
    let valid = table.valid_row_count() as u64;
    assert!(valid <= table.row_count() as u64);
    assert!(valid >= table.row_count() as u64 - invalidated);
    assert_eq!(valid as usize, Query::scan(0).count().run(&*table).count());
    assert!(
        sched.stats().merges >= 1,
        "the mix's writes must have triggered background merges"
    );
    assert!(
        table.max_delta_fraction() <= policy.delta_fraction,
        "delta bounded after drain: {}",
        table.max_delta_fraction()
    );
}
