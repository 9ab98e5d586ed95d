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
                    single.insert_row(&r).unwrap();
                    sharded.insert_row(&r).unwrap();
                    n_rows += 1;
                }
            }
            4 => {
                if n_rows > 0 {
                    // Update by global id on the single table; the sharded
                    // side inserts the same values (ids differ, outputs are
                    // compared per backend against its own serial run).
                    let r = row(b);
                    single.insert_row(&r).unwrap();
                    single.delete_row(a as usize % n_rows).unwrap();
                    sharded.insert_row(&r).unwrap();
                    n_rows += 1;
                }
            }
            5 => {
                if n_rows > 0 {
                    single.delete_row(a as usize % n_rows).unwrap();
                }
            }
            _ => {
                let _ = sharded.shard(a as usize % sharded.num_shards()).merge(1);
                if b.is_multiple_of(2) {
                    let _ = single.merge(1);
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
/// cap), with a delta tail and deleted rows on top. Then the same checks
/// over three key layouts the zone maps treat differently (see
/// [`check_key_layouts`]).
#[test]
fn large_scans_split_into_many_morsels_and_stay_identical() {
    check_key_layouts();

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
        t.insert_row(r).unwrap();
    }
    let _ = t.merge(1);
    // Tail past the merged main, plus validity holes.
    for r in rows.iter().take(3000) {
        t.insert_row(r).unwrap();
    }
    for i in (0..200_000).step_by(97) {
        t.delete_row(i).unwrap();
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

/// Rows per layout table: 25 zone blocks, the last one short.
const LAYOUT_ROWS: u64 = 100_000;

/// The key of main row `i`.
type KeyOf = fn(u64) -> u64;

/// Key layouts: ascending keys leave one zone block per lookup, a
/// shuffled permutation leaves every block (nothing prunes), and clustered
/// runs of 3 000 keys, placed out of order, prune some blocks and leave
/// others covered only in part.
const LAYOUTS: [(&str, KeyOf); 3] = [
    ("ascending", |i| i),
    ("shuffled", |i| (i * 7_919) % LAYOUT_ROWS),
    ("clustered", |i| {
        (i / 3_000 * 13 % 34) * 3_000 + i * 7 % 3_000
    }),
];

/// Per layout: a merged main of [`LAYOUT_ROWS`] rows `[key, value]`, a
/// tail repeating its first 2 000 rows, and every 97th main row deleted
/// (deletes land in pruned and in surviving blocks). Present and absent
/// lookups, a range inside one block, one straddling two blocks, one
/// covering exactly two whole blocks and a wide one, each as rows, count
/// and a fused key ∧ value sum and min/max, must equal a naive fold at
/// every hint 1–8.
fn check_key_layouts() {
    for (name, key) in LAYOUTS {
        let t = OnlineTable::<u64>::new(2);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let main: Vec<[u64; 2]> = (0..LAYOUT_ROWS)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                [key(i), x % 65_537]
            })
            .collect();
        t.insert_rows(&main).unwrap();
        t.merge(1).unwrap();
        t.insert_rows(&main[..2_000]).unwrap();
        for i in (0..LAYOUT_ROWS as usize).step_by(97) {
            t.delete_row(i).unwrap();
        }
        let all: Vec<[u64; 2]> = main.iter().chain(&main[..2_000]).copied().collect();
        let live = |i: usize| i >= LAYOUT_ROWS as usize || !i.is_multiple_of(97);
        let snap = t.snapshot();

        let ranges = [
            (key(12_345), key(12_345)),
            (LAYOUT_ROWS + 5_000, LAYOUT_ROWS + 5_000),
            (5_000, 5_100),
            (4_000, 4_200),
            (4_096, 3 * 4_096 - 1),
            (1_000, 40_000),
        ];
        for (lo, hi) in ranges {
            let keyed: Vec<usize> = (0..all.len())
                .filter(|&i| live(i) && (lo..=hi).contains(&all[i][0]))
                .collect();
            let fused: Vec<u64> = keyed
                .iter()
                .map(|&i| all[i][1])
                .filter(|&v| v <= 30_000)
                .collect();
            let q = Query::scan(0).between(lo, hi);
            let fq = q.clone().and(1).between(0, 30_000);
            for hint in 1..=8usize {
                let what = format!("{name} [{lo}, {hi}] hint {hint}");
                let (q, fq) = (q.clone().with_threads(hint), fq.clone().with_threads(hint));
                assert_eq!(q.run(&snap).into_rows(), keyed, "{what}: rows");
                assert_eq!(q.count().run(&snap).count(), keyed.len(), "{what}");
                assert_eq!(fq.clone().count().run(&snap).count(), fused.len(), "{what}");
                assert_eq!(
                    fq.clone().sum(1).run(&snap).sum(),
                    fused.iter().map(|&v| v as u128).sum::<u128>(),
                    "{what}: fused sum"
                );
                assert_eq!(
                    fq.min_max(1).run(&snap).min_max(),
                    fused.iter().copied().min().zip(fused.iter().copied().max()),
                    "{what}: fused min/max"
                );
            }
        }
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
