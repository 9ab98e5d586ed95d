//! Merge scheduling (Sections 3 and 9): pausing/cancelling a merge under
//! load and throttling its thread budget.
//!
//! Run with: `cargo run --release --example merge_scheduling`
//!
//! The paper treats scheduling as orthogonal but sketches the hooks: "a
//! scheduling algorithm can detect a good point in time to start and even
//! pause and resume the merge process" and "depending on the current system
//! load it can be advisable to prolong the merge process in favor to
//! increase the current insert throughput". This example demonstrates both:
//!
//! 1. A merge cancelled mid-flight leaves the table untouched (atomic
//!    commit) and can be retried later.
//! 2. The same merge run with 1 thread vs all threads shows the resource
//!    trade-off a scheduler would arbitrate.

use hyrise::merge::OnlineTable;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let threads = hyrise::merge::pool::default_threads();
    let table = Arc::new(OnlineTable::<u64>::new(8));
    println!("loading 600K rows x 8 columns into the delta...");
    for i in 0..600_000u64 {
        let row: Vec<u64> = (0..8u64).map(|c| (i * 131 + c * 17) % 50_000).collect();
        table.insert_row(&row).expect("in-memory insert");
    }

    // --- 1. Cancellation: the scheduler changes its mind. ---
    println!("\n[1] start a merge, cancel it almost immediately:");
    let cancel = Arc::new(AtomicBool::new(false));
    let before_rows = table.row_count();
    let handle = {
        let (table, cancel) = (Arc::clone(&table), Arc::clone(&cancel));
        std::thread::spawn(move || table.merge(2, Some(&cancel)))
    };
    std::thread::sleep(Duration::from_millis(2));
    cancel.store(true, Ordering::Relaxed);
    match handle.join().unwrap() {
        Err(e) => println!("    merge returned: {e}"),
        Ok(_) => println!("    merge finished before the cancel landed (also fine)"),
    }
    assert_eq!(table.row_count(), before_rows, "no rows may be lost");
    println!(
        "    table intact: {} rows, {} still in delta",
        table.row_count(),
        table.delta_len()
    );

    // --- 2. Throttled vs full-resource merge. ---
    if table.delta_len() > 0 {
        println!("\n[2] the scheduler's trade-off — same merge, different thread budgets:");
        // Duplicate the table state for a fair comparison.
        let rows: Vec<Vec<u64>> = (0..table.row_count()).map(|r| table.row(r)).collect();
        let build = || {
            let t = OnlineTable::<u64>::new(8);
            for r in &rows {
                t.insert_row(r).expect("in-memory insert");
            }
            t
        };

        let throttled = build();
        let t0 = Instant::now();
        throttled.merge(1, None).unwrap();
        let t_throttled = t0.elapsed();

        let full = build();
        let t0 = Instant::now();
        full.merge(threads, None).unwrap();
        let t_full = t0.elapsed();

        println!(
            "    1 thread   : {:>8.1} ms  (strategy (b): minimize resource footprint)",
            t_throttled.as_secs_f64() * 1e3
        );
        println!(
            "    {threads:>2} threads : {:>8.1} ms  (strategy (a): merge with all resources)",
            t_full.as_secs_f64() * 1e3
        );
        println!(
            "    speedup    : {:>8.1}x",
            t_throttled.as_secs_f64() / t_full.as_secs_f64().max(1e-12)
        );
    }

    // --- 3. And the retried merge commits. ---
    println!("\n[3] retry the cancelled merge to completion:");
    let stats = table.merge(threads, None).unwrap();
    println!(
        "    merged {} columns, {} tuples, in {:.1} ms; delta now {}",
        stats.columns.len(),
        stats.total_tuples(),
        stats.t_wall.as_secs_f64() * 1e3,
        table.delta_len()
    );
}
