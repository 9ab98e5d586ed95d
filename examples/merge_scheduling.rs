//! Merge scheduling (Sections 3 and 9): pausing and resuming a merge under
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
//! 1. A one-column-per-step merge paused mid-way ([1]): the session is
//!    dropped, the table is read and written meanwhile, and the next merge
//!    resumes the columns the first one left frozen ([3]).
//! 2. The same merge run with 1 thread vs all threads ([2]) shows the
//!    resource trade-off a scheduler would arbitrate.

use hyrise::merge::{MergeBudget, MergeGrant, OnlineTable};
use std::time::Instant;

fn main() {
    let threads = hyrise::merge::pool::default_threads();
    let table = OnlineTable::<u64>::new(8);
    println!("loading 600K rows x 8 columns into the delta...");
    let row_of = |i: u64| -> Vec<u64> { (0..8u64).map(|c| (i * 131 + c * 17) % 50_000).collect() };
    for i in 0..600_000u64 {
        table.insert_row(&row_of(i)).expect("in-memory insert");
    }

    // --- 1. Pause: the scheduler stops the merge after three columns. ---
    println!("\n[1] merge one column per step, pause after three:");
    let grant = MergeGrant::with_threads(threads).budget(MergeBudget::columns(1));
    {
        let mut session = table.begin_merge(grant).expect("in-memory merge");
        for _ in 0..3 {
            session.step().expect("in-memory step");
        }
        println!(
            "    paused with {} columns still frozen",
            session.remaining()
        );
    }
    // The table serves reads and writes while the merge is paused.
    assert_eq!(
        table.row(123_456),
        row_of(123_456),
        "frozen rows stay readable"
    );
    table
        .insert_row(&row_of(600_000))
        .expect("in-memory insert");
    println!(
        "    table live: {} rows, {} awaiting a merge, row 600000 readable: {}",
        table.row_count(),
        table.delta_len(),
        table.row(600_000) == row_of(600_000)
    );
    // --- 2. Throttled vs full-resource merge. ---
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
    throttled.merge(1).unwrap();
    let t_throttled = t0.elapsed();

    let full = build();
    let t0 = Instant::now();
    full.merge(threads).unwrap();
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

    // --- 3. Resume: the next merge takes up the frozen columns. ---
    println!("\n[3] resume the paused merge:");
    let session = table.begin_merge(grant).expect("in-memory merge");
    println!("    resumed with {} columns left", session.remaining());
    let resumed = session.finish().expect("in-memory merge");
    println!(
        "    merged {} columns, {} tuples, in {:.1} ms",
        resumed.columns.len(),
        resumed.total_tuples(),
        resumed.t_wall.as_secs_f64() * 1e3,
    );
    // The row written while paused waits for the merge after it.
    table.merge(threads).unwrap();
    println!(
        "    then merged the row written while paused; delta now {}",
        table.delta_len()
    );
    assert_eq!(table.delta_len(), 0);
}
