//! The oversubscription clamp: an N-shard fan-out combined with an
//! N-morsel hint must never queue more pool tasks than the pool has
//! workers. The sharded executor divides the pool between the shards
//! (per-shard hint = `threads / shards`, at least 1) and `run_indexed`
//! bounds each fan-out's helper tasks by the pool size, so the peak
//! queue depth stays at or below `pool.threads()`. Both fan-outs are
//! further capped by the rows the zone maps leave — one claimant per whole
//! morsel of surviving rows — so the tables here hold several morsels'
//! worth, and a pruned lookup queues nothing at all.
//!
//! These tests live in their own binary and take turns under
//! [`MEASURING`]: the peak-depth counter is a property of the
//! process-global pool, and nothing else in this process may touch it
//! while one of them measures.

use hyrise_core::shard::ShardedTable;
use hyrise_core::{MergePolicy, MergeScheduler, Pool};
use hyrise_query::Query;
use std::sync::Mutex;
use std::time::{Duration, Instant};

static MEASURING: Mutex<()> = Mutex::new(());

/// Wait until every queued task has been claimed — leftover helper tasks
/// from a previous parallel run would inflate the next peak reading.
fn settle(pool: &Pool) {
    while pool.queue_depth() > 0 {
        std::thread::yield_now();
    }
}

#[test]
fn shard_fanout_times_morsel_hint_stays_within_the_pool() {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let t = ShardedTable::<u64>::builder()
        .shards(8)
        .columns(2)
        .build()
        .unwrap();
    let rows: Vec<[u64; 2]> = (0..640_000u64).map(|i| [i % 977, i]).collect();
    t.insert_rows(&rows).unwrap();
    t.merge_all(1).unwrap();

    let pool = Pool::global();
    let q = Query::scan(0).between(100u64, 700).count().with_threads(8);
    let expected = q.clone().with_threads(1).run(&t).count();

    for _ in 0..5 {
        settle(pool);
        pool.reset_peak_depth();
        let got = q.clone().run(&t).count();
        assert_eq!(got, expected, "clamped parallel run stays correct");
        assert!(
            pool.peak_queue_depth() <= pool.threads(),
            "8 shards x hint 8 queued {} tasks on a {}-thread pool",
            pool.peak_queue_depth(),
            pool.threads()
        );
    }

    // Every output shape obeys the clamp, not just counts.
    for q in [
        Query::scan(0).between(100u64, 700).with_threads(8),
        Query::scan(1).sum(1).with_threads(8),
        Query::scan(0).min_max(1).with_threads(8),
    ] {
        settle(pool);
        pool.reset_peak_depth();
        let _ = q.run(&t);
        assert!(pool.peak_queue_depth() <= pool.threads());
    }
}

/// Merges share the pool with the scans: the merge threads draining an
/// 8-shard table at the policy's default width while 8-wide queries run
/// must leave the answers equal to
/// serial and keep the queue below the admission gate's default
/// `pool_queue_limit` (4 x pool size) — merge helpers alone must never
/// make the gate queue reads.
#[test]
fn scheduler_merges_beside_wide_queries_stay_below_the_admission_limit() {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let t = ShardedTable::<u64>::builder()
        .shards(8)
        .columns(2)
        .build()
        .unwrap();
    let rows: Vec<[u64; 2]> = (0..640_000u64).map(|i| [i % 977, i]).collect();
    t.insert_rows(&rows).unwrap();

    let queries = [
        Query::scan(0).between(100u64, 700).count(),
        Query::scan(1).sum(1),
        Query::scan(0).min_max(1),
    ];
    let expected: Vec<_> = queries
        .iter()
        .map(|q| q.clone().with_threads(1).run(&t))
        .collect();

    let pool = Pool::global();
    settle(pool);
    pool.reset_peak_depth();
    let policy = MergePolicy {
        delta_fraction: 0.02,
        ..MergePolicy::default()
    };
    let sched = MergeScheduler::spawn(t.shards().to_vec(), policy);
    let deadline = Instant::now() + Duration::from_secs(30);
    while t.delta_len() > 0 && Instant::now() < deadline {
        for (q, want) in queries.iter().zip(&expected) {
            assert_eq!(&q.clone().with_threads(8).run(&t), want);
        }
    }
    sched.shutdown();
    assert_eq!(t.delta_len(), 0, "every shard merged");
    assert!(sched.stats().merges >= 8);
    for (q, want) in queries.iter().zip(&expected) {
        assert_eq!(&q.clone().with_threads(8).run(&t), want);
    }
    assert!(
        pool.peak_queue_depth() <= 4 * pool.threads(),
        "merges + 8-wide queries queued {} tasks on a {}-thread pool",
        pool.peak_queue_depth(),
        pool.threads()
    );
}

/// Work-sized fan-out: a key lookup on a 2-shard table of 1 M ascending
/// keys leaves one zone block of one shard — less than a morsel — so it
/// runs on the calling thread and queues no pool task, whatever its hint.
/// An eq-count on a column whose every block survives still fans out.
#[test]
fn pruned_lookups_queue_nothing_while_unpruned_counts_fan_out() {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let t = ShardedTable::<u64>::builder()
        .shards(2)
        .columns(2)
        .build()
        .unwrap();
    let rows: Vec<[u64; 2]> = (0..1_000_000u64).map(|i| [i, i % 1_009]).collect();
    t.insert_rows(&rows).unwrap();
    t.merge_all(1).unwrap();

    let pool = Pool::global();
    for key in [0u64, 123_456, 999_999, 2_000_000] {
        for hint in [1usize, 4] {
            settle(pool);
            pool.reset_peak_depth();
            let q = Query::scan(0).eq(key).count().with_threads(hint);
            assert_eq!(q.run(&t).count(), (key < 1_000_000) as usize);
            assert_eq!(
                pool.peak_queue_depth(),
                0,
                "lookup of {key} at hint {hint} queued pool tasks"
            );
        }
    }
    settle(pool);
    pool.reset_peak_depth();
    let hits = Query::scan(1).eq(500u64).count().run(&t).count();
    assert_eq!(hits, rows.iter().filter(|r| r[1] == 500).count());
    assert!(
        pool.peak_queue_depth() >= 1,
        "an eq-count over every block fans the shards out"
    );
}
