//! Property tests for the epoch-published write path: concurrent batched
//! writers against lock-free snapshot readers.
//!
//! The watermark contract under test: a reader's snapshot exposes exactly
//! the rows below the published watermark at pin time — every multi-row
//! batch appears **atomically** (all rows or none), batch rows are
//! contiguous and in insertion order, and no snapshot ever exposes a slot
//! a writer is still filling. Because the tail publishes strictly in
//! reservation order, an observed row count is always a sum of whole
//! batches, and row contents below it are fully written.

use hyrise_core::OnlineTable;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

/// Column-1 payload of the `k`-th row of the batch tagged `tag`.
fn payload(tag: u64, k: u64) -> u64 {
    tag.wrapping_mul(1_000_003).wrapping_add(k)
}

/// One writer's batches: each is `batch` rows of `[tag, payload(tag, k)]`.
fn writer_batches(writer: u64, batches: u64, batch: u64) -> Vec<Vec<Vec<u64>>> {
    (0..batches)
        .map(|b| {
            let tag = writer * batches + b + 1;
            (0..batch).map(|k| vec![tag, payload(tag, k)]).collect()
        })
        .collect()
}

/// Check one snapshot against the watermark contract: the visible row
/// count is a whole number of batches, and every `batch`-aligned block
/// holds one batch's rows, in order, fully written.
fn check_snapshot(snap: &hyrise_core::TableSnapshot<u64>, batch: usize) {
    let n = snap.row_count();
    assert_eq!(
        n % batch,
        0,
        "visible rows must be whole batches (saw {n}, batch size {batch})"
    );
    for block in 0..n / batch {
        let tag = snap.col(0).get(block * batch);
        assert_ne!(tag, 0, "a visible row is never an unwritten slot");
        for k in 0..batch {
            let row = block * batch + k;
            assert_eq!(snap.col(0).get(row), tag, "batch rows are contiguous");
            assert_eq!(
                snap.col(1).get(row),
                payload(tag, k as u64),
                "batch rows appear in insertion order, fully written"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Writers race batched inserts while readers snapshot continuously:
    /// no reader may ever observe a torn batch or a half-written row.
    #[test]
    fn readers_never_observe_rows_above_the_published_watermark(
        writers in 1u64..4,
        batches in 4u64..24,
        batch in 1u64..8,
        merge_mid_run in any::<bool>(),
    ) {
        let table = OnlineTable::<u64>::new(2);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            for w in 0..writers {
                let table = &table;
                let work = writer_batches(w, batches, batch);
                s.spawn(move || {
                    for rows in &work {
                        let range = table.insert_rows(rows).unwrap();
                        assert_eq!(range.len(), rows.len());
                    }
                });
            }
            if merge_mid_run {
                let table = &table;
                let done = &done;
                s.spawn(move || {
                    while !done.load(Ordering::Relaxed) {
                        let _ = table.merge(1);
                        std::thread::yield_now();
                    }
                });
            }
            // Reader on this thread: watermark-aligned, monotone snapshots.
            let mut last = 0usize;
            let total = (writers * batches * batch) as usize;
            loop {
                let snap = table.snapshot();
                check_snapshot(&snap, batch as usize);
                assert!(
                    snap.row_count() >= last,
                    "visible prefix only grows ({last} -> {})",
                    snap.row_count()
                );
                last = snap.row_count();
                if last == total {
                    break;
                }
            }
            done.store(true, Ordering::Relaxed);
        });

        // Quiesced: the final snapshot holds every batch exactly once.
        let snap = table.snapshot();
        prop_assert_eq!(snap.row_count(), (writers * batches * batch) as usize);
        check_snapshot(&snap, batch as usize);
        let mut seen = std::collections::HashSet::new();
        for block in 0..(writers * batches) as usize {
            prop_assert!(
                seen.insert(snap.col(0).get(block * batch as usize)),
                "each batch lands exactly once"
            );
        }
    }
}
