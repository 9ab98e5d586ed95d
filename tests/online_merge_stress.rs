//! Concurrency tests for the online merge protocol: inserts, reads and
//! merges racing; cancellation atomicity; trigger-policy loops.

use hyrise::merge::{MergePolicy, OnlineTable};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn seeded_row(i: u64, cols: usize) -> Vec<u64> {
    (0..cols as u64)
        .map(|c| i.wrapping_mul(2654435761).wrapping_add(c) % 100_000)
        .collect()
}

#[test]
fn writers_and_mergers_race_without_losing_rows() {
    const COLS: usize = 3;
    let table = Arc::new(OnlineTable::<u64>::new(COLS));
    for i in 0..5_000 {
        table.insert_row(&seeded_row(i, COLS)).unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let inserted = Arc::new(AtomicU64::new(5_000));
    let merges_done = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        // Two writers.
        for w in 0..2u64 {
            let (table, stop, inserted) =
                (Arc::clone(&table), Arc::clone(&stop), Arc::clone(&inserted));
            s.spawn(move || {
                let mut i = 1_000_000 * (w + 1);
                while !stop.load(Ordering::Relaxed) {
                    table.insert_row(&seeded_row(i, COLS)).unwrap();
                    inserted.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }
        // One reader verifying rows it knows exist.
        {
            let (table, stop) = (Arc::clone(&table), Arc::clone(&stop));
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for r in (0..5_000).step_by(431) {
                        assert_eq!(
                            table.row(r),
                            seeded_row(r as u64, COLS),
                            "pre-loaded rows stable"
                        );
                    }
                }
            });
        }
        // One merger hammering merges.
        {
            let (table, stop, merges_done) = (
                Arc::clone(&table),
                Arc::clone(&stop),
                Arc::clone(&merges_done),
            );
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if table.delta_len() > 0 {
                        table.merge(2, None).unwrap();
                        merges_done.fetch_add(1, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
        std::thread::sleep(Duration::from_millis(400));
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(
        table.row_count() as u64,
        inserted.load(Ordering::Relaxed),
        "no lost rows"
    );
    assert!(
        merges_done.load(Ordering::Relaxed) > 0,
        "merges actually ran"
    );
    // Everything still readable and correct after the dust settles.
    for r in (0..5_000).step_by(97) {
        assert_eq!(table.row(r), seeded_row(r as u64, 3));
    }
}

#[test]
fn cancellation_under_concurrent_inserts_is_atomic() {
    const COLS: usize = 2;
    let table = Arc::new(OnlineTable::<u64>::new(COLS));
    for i in 0..50_000 {
        table.insert_row(&seeded_row(i, COLS)).unwrap();
    }

    // Run several cancel-racing merges; each either commits fully or not at
    // all; rows are never lost either way.
    for round in 0..5 {
        let cancel = Arc::new(AtomicBool::new(false));
        let before_rows = table.row_count();
        let handle = {
            let (table, cancel) = (Arc::clone(&table), Arc::clone(&cancel));
            std::thread::spawn(move || table.merge(2, Some(&cancel)))
        };
        // Insert while the merge may be running.
        for i in 0..500 {
            table
                .insert_row(&seeded_row(10_000_000 + round * 1000 + i, COLS))
                .unwrap();
        }
        cancel.store(true, Ordering::Relaxed);
        let result = handle.join().unwrap();
        assert_eq!(
            table.row_count(),
            before_rows + 500,
            "round {round}: rows conserved"
        );
        match result {
            Ok(_) => assert_eq!(
                table.delta_len(),
                500,
                "committed: only the racing inserts remain"
            ),
            Err(_) => assert!(table.delta_len() >= 500, "cancelled: frozen delta restored"),
        }
        // Spot-check content integrity.
        for r in (0..50_000).step_by(9973) {
            assert_eq!(table.row(r), seeded_row(r as u64, COLS), "round {round}");
        }
    }
    // Final merge to quiesce.
    table.merge(4, None).unwrap();
    assert_eq!(table.delta_len(), 0);
}

#[test]
fn trigger_policy_keeps_delta_bounded() {
    let table = OnlineTable::<u64>::new(2);
    for i in 0..20_000 {
        table.insert_row(&seeded_row(i, 2)).unwrap();
    }
    table.merge(4, None).unwrap();

    let policy = MergePolicy {
        delta_fraction: 0.02,
        threads: 4,
        ..MergePolicy::default()
    };
    let mut merges = 0;
    for i in 0..20_000u64 {
        table.insert_row(&seeded_row(100_000 + i, 2)).unwrap();
        if table.maybe_merge(&policy).unwrap().is_some() {
            merges += 1;
            // Post-merge the delta is empty; fraction resets.
            assert_eq!(table.delta_len(), 0);
        }
        assert!(
            table.delta_fraction() <= policy.delta_fraction + 1e-4,
            "delta must never exceed the trigger by more than one insert"
        );
    }
    assert!(
        merges >= 10,
        "2% trigger on a growing 20K..40K main: many merges, got {merges}"
    );
    assert_eq!(table.row_count(), 40_000);
}

#[test]
fn update_rate_accounting_on_online_table() {
    // Measure Equation 1 on a real insert+merge cycle.
    let table = OnlineTable::<u64>::new(4);
    let n = 30_000u64;
    let t0 = std::time::Instant::now();
    for i in 0..n {
        table.insert_row(&seeded_row(i, 4)).unwrap();
    }
    let t_u = t0.elapsed();
    let stats = table.merge(4, None).unwrap();
    let rate = hyrise::merge::update_rate(n as usize, t_u, stats.t_wall);
    assert!(rate.is_finite() && rate > 0.0);
    // Sanity: a laptop-class machine does much better than the paper's
    // 1,000 upd/s naive floor on a 4-column table.
    assert!(rate > 1_000.0, "measured {rate} updates/sec");
}
