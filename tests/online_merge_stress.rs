//! Concurrency tests for the online merge protocol: inserts, reads and
//! merges racing; interrupted merges resumed; trigger-policy loops.

use hyrise::merge::{MergeBudget, MergeGrant, MergePolicy, OnlineTable};
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
                        table.merge(2).unwrap();
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
    let mut rows: Vec<Vec<u64>> = (0..50_000).map(|i| seeded_row(i, COLS)).collect();
    table.insert_rows(&rows).unwrap();

    // Interrupt several merges while inserts race them: each round's
    // session commits one column and is dropped, leaving the rest frozen
    // for the next round to resume. Rows are never lost either way.
    let grant = MergeGrant::with_threads(2).budget(MergeBudget::columns(1));
    for round in 0..5 {
        let before_rows = table.row_count();
        let handle = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                let mut session = table.begin_merge(grant).unwrap();
                session.step().unwrap()
            })
        };
        // Insert while the merge may be running.
        for i in 0..500 {
            let row = seeded_row(10_000_000 + round * 1000 + i, COLS);
            table.insert_row(&row).unwrap();
            rows.push(row);
        }
        assert!(handle.join().unwrap(), "round {round}: a column committed");
        assert_eq!(
            table.row_count(),
            before_rows + 500,
            "round {round}: rows conserved"
        );
        assert!(
            table.delta_len() >= 500,
            "round {round}: racing inserts wait"
        );
        // Spot-check content integrity.
        for r in (0..50_000).step_by(9973) {
            assert_eq!(table.row(r), seeded_row(r as u64, COLS), "round {round}");
        }
    }
    // The final merge resumes the last interrupted one and reaches the
    // bytes of a merge that was never interrupted.
    table.merge(4).unwrap();
    assert_eq!(table.delta_len(), 0);
    let reference = OnlineTable::<u64>::new(COLS);
    reference.insert_rows(&rows).unwrap();
    reference.merge(4).unwrap();
    let (got, want) = (table.snapshot(), reference.snapshot());
    for c in 0..COLS {
        let (g, w) = (got.col(c).main(), want.col(c).main());
        assert_eq!(
            g.dictionary().values(),
            w.dictionary().values(),
            "column {c}"
        );
        assert_eq!(
            g.packed_codes().words(),
            w.packed_codes().words(),
            "column {c}"
        );
    }
}

#[test]
fn trigger_policy_keeps_delta_bounded() {
    let table = OnlineTable::<u64>::new(2);
    for i in 0..20_000 {
        table.insert_row(&seeded_row(i, 2)).unwrap();
    }
    table.merge(4).unwrap();

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
    let stats = table.merge(4).unwrap();
    let rate = hyrise::merge::update_rate(n as usize, t_u, stats.t_wall);
    assert!(rate.is_finite() && rate > 0.0);
    // Sanity: a laptop-class machine does much better than the paper's
    // 1,000 upd/s naive floor on a 4-column table.
    assert!(rate > 1_000.0, "measured {rate} updates/sec");
}
