//! Time-bounded concurrency stress: many writers, continuous lock-free
//! readers, and a merger, all racing on the same table. The default run
//! is ~a second so the suite stays fast; CI's stress job scales it up in
//! release mode via environment knobs:
//!
//! * `STRESS_SECS`    — seconds per scenario (default 1)
//! * `STRESS_WRITERS` — concurrent writer threads (default 8)
//!
//! Invariants checked on every observation (same contracts as the
//! `epoch_watermark` and `consistent_cut` proptests, at full contention):
//! single-table snapshots expose only whole published batches with fully
//! written rows, and sharded fan-out reads never observe a cross-shard
//! batch torn in half — all while merges churn generations underneath.

use hyrise_core::shard::ShardedTable;
use hyrise_core::OnlineTable;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

const BATCH: usize = 16;

fn knob(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn deadline() -> Instant {
    Instant::now() + Duration::from_secs(knob("STRESS_SECS", 1))
}

fn writers() -> usize {
    knob("STRESS_WRITERS", 8) as usize
}

/// Column-1 payload of the `k`-th row of the batch tagged `tag`.
fn payload(tag: u64, k: u64) -> u64 {
    tag.wrapping_mul(1_000_003).wrapping_add(k)
}

#[test]
fn single_table_snapshots_stay_batch_atomic_under_contention() {
    let table = OnlineTable::<u64>::new(2);
    let stop = AtomicBool::new(false);
    let next_tag = AtomicU64::new(1);
    let until = deadline();
    std::thread::scope(|s| {
        for _ in 0..writers() {
            let (table, stop, next_tag) = (&table, &stop, &next_tag);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let tag = next_tag.fetch_add(1, Ordering::Relaxed);
                    let rows: Vec<[u64; 2]> =
                        (0..BATCH as u64).map(|k| [tag, payload(tag, k)]).collect();
                    table.insert_rows(&rows).unwrap();
                }
            });
        }
        let (table, stop) = (&table, &stop);
        s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let _ = table.merge(2);
                std::thread::yield_now();
            }
        });
        // Two readers: one here, one spawned, so reads race each other too.
        let read_loop = move || {
            let mut last = 0usize;
            let mut observations = 0u64;
            while Instant::now() < until {
                let snap = table.snapshot();
                let n = snap.row_count();
                assert_eq!(n % BATCH, 0, "visible rows are whole batches");
                assert!(n >= last, "visible prefix only grows");
                last = n;
                // Spot-check a stride of blocks for fully-written rows.
                let blocks = n / BATCH;
                let mut block = observations as usize % blocks.max(1);
                while block < blocks {
                    let tag = snap.col(0).get(block * BATCH);
                    for k in 0..BATCH {
                        assert_eq!(snap.col(0).get(block * BATCH + k), tag);
                        assert_eq!(
                            snap.col(1).get(block * BATCH + k),
                            payload(tag, k as u64),
                            "a visible row is never half-written"
                        );
                    }
                    block += 97;
                }
                observations += 1;
            }
            observations
        };
        let other = s.spawn(read_loop);
        let seen = read_loop();
        assert!(seen > 0, "reader made progress");
        assert!(other.join().unwrap() > 0);
        stop.store(true, Ordering::Relaxed);
    });
    let snap = table.snapshot();
    assert_eq!(snap.row_count() % BATCH, 0);
    assert_eq!(snap.row_count(), table.row_count());
}

#[test]
fn sharded_cuts_stay_batch_atomic_under_contention() {
    let table = ShardedTable::<u64>::builder()
        .shards(4)
        .columns(2)
        .build()
        .unwrap();
    let stop = AtomicBool::new(false);
    let next_tag = AtomicU64::new(1);
    let until = deadline();
    std::thread::scope(|s| {
        for _ in 0..writers() {
            let (table, stop, next_tag) = (&table, &stop, &next_tag);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let tag = next_tag.fetch_add(1, Ordering::Relaxed);
                    // Hash routing scatters the batch across shards.
                    let rows: Vec<[u64; 2]> = (0..BATCH as u64)
                        .map(|k| [tag.wrapping_mul(31).wrapping_add(k), payload(tag, k)])
                        .collect();
                    table.insert_rows(&rows).unwrap();
                }
            });
        }
        let (table, stop) = (&table, &stop);
        s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                table.merge_all(1).unwrap();
                std::thread::yield_now();
            }
        });
        let cut_loop = move || {
            let mut last = 0usize;
            let mut observations = 0u64;
            while Instant::now() < until {
                let total: usize = table
                    .consistent_snapshots()
                    .iter()
                    .map(|snap| snap.row_count())
                    .sum();
                assert_eq!(
                    total % BATCH,
                    0,
                    "a cross-shard cut never tears a write batch"
                );
                assert!(total >= last, "cuts are monotone");
                last = total;
                observations += 1;
            }
            observations
        };
        let other = s.spawn(cut_loop);
        assert!(cut_loop() > 0, "cutter made progress");
        assert!(other.join().unwrap() > 0);
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(table.row_count() % BATCH, 0);
}
