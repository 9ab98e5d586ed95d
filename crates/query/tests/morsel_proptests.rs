//! The morsel-parallel oracle: for **arbitrary morsel hints** the engine
//! must be **byte-identical to its own serial run** — same row order, same
//! counts, sums, min/max and projections — on every backend
//! ([`OnlineTable`], its [`TableSnapshot`], and sharded tables), over
//! arbitrary insert/update/delete/merge interleavings. The hint only
//! changes *where* morsels execute (the shared worker pool), never *what*
//! the query returns: per-morsel results combine strictly in morsel order.
//!
//! Merges interleave with the workload, so parallel runs hit every
//! physical split — merged mains (value-id pushdown per morsel), frozen
//! deltas and active tails (serial value fallback after the morsels).

use hyrise_core::shard::{ShardBy, ShardedTable};
use hyrise_core::{OnlineTable, Pool};
use hyrise_query::Query;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const COLS: usize = 3;
/// Small value domain so predicates hit often and dictionaries stay dense.
const DOMAIN: u64 = 48;

fn row(seed: u64) -> Vec<u64> {
    (0..COLS as u64)
        .map(|c| seed.wrapping_mul(2 * c + 7).wrapping_add(c * 13) % DOMAIN)
        .collect()
}

/// Apply one op stream to both tables. Inserts come in small batches so
/// the row space grows past single-morsel sizes; updates and deletes
/// punch validity holes; merges move rows between the physical regions.
fn apply_all(single: &OnlineTable<u64>, sharded: &ShardedTable<u64>, ops: &[(u8, u64, u64)]) {
    let mut n_rows = 0usize;
    for &(code, a, b) in ops {
        match code % 8 {
            0..=3 => {
                for s in 0..(a % 24) + 1 {
                    let r = row(b.wrapping_add(s));
                    single.insert_row(&r);
                    sharded.insert_row(&r);
                    n_rows += 1;
                }
            }
            4 => {
                if n_rows > 0 {
                    // Update by global id on the single table; the sharded
                    // side inserts the same values (ids differ, outputs are
                    // compared per backend against its own serial run).
                    let r = row(b);
                    single.update_row(a as usize % n_rows, &r);
                    sharded.insert_row(&r);
                    n_rows += 1;
                }
            }
            5 => {
                if n_rows > 0 {
                    single.delete_row(a as usize % n_rows);
                }
            }
            _ => {
                let _ = sharded
                    .shard(a as usize % sharded.num_shards())
                    .merge(1, None);
                if b.is_multiple_of(2) {
                    let _ = single.merge(1, None);
                }
            }
        }
    }
}

/// The query shapes under test: rows, projection, count, sum, min/max —
/// with whatever conjunction `preds` encodes (possibly none).
fn shapes(preds: &[(usize, u64, u64)], agg_col: usize) -> Vec<Query<u64>> {
    let mut q = Query::scan(0);
    for (i, &(c, lo, hi)) in preds.iter().enumerate() {
        q = if i == 0 { Query::scan(c) } else { q.and(c) }.between(lo, hi);
    }
    vec![
        q.clone(),
        q.clone().project(&[agg_col, 0]),
        q.clone().count(),
        q.clone().sum(agg_col),
        q.min_max(agg_col),
    ]
}

fn normalize(preds: &[(u8, u64, u64)]) -> Vec<(usize, u64, u64)> {
    preds
        .iter()
        .map(|&(c, lo, span)| {
            let col = (c as usize) % COLS;
            let lo = lo % (DOMAIN + 8);
            let hi = if span.is_multiple_of(3) {
                lo
            } else {
                lo + span % 16
            };
            (col, lo, hi)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_morsel_hint_is_byte_identical_to_serial(
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..80),
        raw_preds in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..4),
        num_shards in 1usize..5,
        range_routing in any::<bool>(),
        agg_col in 0usize..COLS,
    ) {
        let single = OnlineTable::<u64>::new(COLS);
        let sharded = if range_routing {
            let step = (DOMAIN / num_shards as u64).max(1);
            let bounds: Vec<u64> = (1..num_shards as u64).map(|i| i * step).collect();
            ShardedTable::<u64>::builder()
                .partitioning(ShardBy::Range(bounds))
                .columns(COLS)
                .build()
                .unwrap()
        } else {
            ShardedTable::<u64>::builder()
                .shards(num_shards)
                .columns(COLS)
                .build()
                .unwrap()
        };
        apply_all(&single, &sharded, &ops);
        let snap = single.snapshot();

        for q in shapes(&normalize(&raw_preds), agg_col) {
            let serial_single = q.run(&single);
            let serial_snap = q.run(&snap);
            let serial_sharded = q.run(&sharded);
            for hint in 2..=8usize {
                let hq = q.clone().with_threads(hint);
                prop_assert_eq!(&hq.run(&single), &serial_single, "online, hint {}", hint);
                prop_assert_eq!(&hq.run(&snap), &serial_snap, "snapshot, hint {}", hint);
                prop_assert_eq!(&hq.run(&sharded), &serial_sharded, "sharded, hint {}", hint);
            }
        }
    }
}

/// Deterministic many-morsel workload: enough rows that every hint splits
/// the main partition into several morsels (and hits the 64K-row morsel
/// cap), with a delta tail and deleted rows on top.
#[test]
fn large_scans_split_into_many_morsels_and_stay_identical() {
    let t = OnlineTable::<u64>::new(2);
    let mut x = 0x9e3779b97f4a7c15u64;
    let mut rows = Vec::with_capacity(200_000);
    for _ in 0..200_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        rows.push([x % 1009, x % 65_537]);
    }
    for r in &rows {
        t.insert_row(r);
    }
    let _ = t.merge(1, None);
    // Tail past the merged main, plus validity holes.
    for r in rows.iter().take(3000) {
        t.insert_row(r);
    }
    for i in (0..200_000).step_by(97) {
        t.delete_row(i);
    }
    let snap = t.snapshot();

    let queries = vec![
        Query::scan(0).eq(500),
        Query::scan(0).between(100, 600),
        Query::scan(0).between(100, 600).and(1).between(0, 40_000),
        Query::scan(0).sum(1),
        Query::scan(0).between(200, 800).min_max(1),
        Query::scan(0).count(),
        Query::scan(0).eq(13).project(&[0, 1]),
    ];
    for q in queries {
        let serial = q.run(&snap);
        for hint in 2..=8usize {
            assert_eq!(q.clone().with_threads(hint).run(&snap), serial);
        }
    }

    // The serial run itself walks several capped morsels here, so pin the
    // aggregates to a naive fold too: valid rows of main and tail that
    // satisfy both predicates.
    let live = |i: usize| i >= 200_000 || !i.is_multiple_of(97);
    let matching: Vec<u64> = rows
        .iter()
        .chain(rows.iter().take(3000))
        .enumerate()
        .filter(|&(i, r)| live(i) && (100..=600).contains(&r[0]) && r[1] <= 40_000)
        .map(|(_, r)| r[1])
        .collect();
    let fused = Query::scan(0).between(100, 600).and(1).between(0, 40_000);
    for hint in [1usize, 2, 5] {
        let q = fused.clone().with_threads(hint);
        assert_eq!(q.clone().count().run(&snap).count(), matching.len());
        assert_eq!(
            q.clone().sum(1).run(&snap).sum(),
            matching.iter().map(|&v| v as u128).sum::<u128>()
        );
        assert_eq!(
            q.min_max(1).run(&snap).min_max(),
            matching
                .iter()
                .copied()
                .min()
                .zip(matching.iter().copied().max())
        );
    }
}

/// An owned pool drains queued work and joins on shutdown and on drop,
/// even with a parallel-for in flight from another thread.
#[test]
fn pool_shutdown_and_drop_do_not_hang_or_lose_work() {
    let pool = Arc::new(Pool::new(2));
    let hits = Arc::new(AtomicU64::new(0));
    for _ in 0..64 {
        let h = Arc::clone(&hits);
        pool.spawn(move || {
            h.fetch_add(1, Ordering::Relaxed);
        });
    }
    let runner = {
        let pool = Arc::clone(&pool);
        let hits = Arc::clone(&hits);
        std::thread::spawn(move || {
            pool.run_indexed(256, 2, &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        })
    };
    runner.join().unwrap();
    pool.shutdown();
    assert_eq!(hits.load(Ordering::Relaxed), 64 + 256, "no task lost");
    assert_eq!(pool.queue_depth(), 0);
    drop(pool); // second shutdown via Drop is idempotent
}
