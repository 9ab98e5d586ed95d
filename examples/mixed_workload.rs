//! The paper's thesis in motion: one read-optimized store serving an
//! OLTP-style mixed workload (Figure 1's distribution) while the merge runs
//! online in the background.
//!
//! Run with: `cargo run --release --example mixed_workload -- [seconds]`
//!
//! Spawns reader/writer threads sampling query types from the Figure 1 OLTP
//! mix against a one-shard [`ShardedTable`], plus a background merge thread driven by
//! the Section 4 trigger policy (merge when N_D > 5% N_M). Reports
//! sustained query and update throughput and the number of merges that ran
//! — updates keep flowing *during* merges, which is the point.

use hyrise::merge::MergePolicy;
use hyrise::shard::{ShardRowId, ShardedTable};
use hyrise::workload::{QueryMix, QueryType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const COLS: usize = 4;

fn main() {
    let seconds: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let workers = 4usize;

    // Bulk-load 200K rows, merge them into main as the starting state.
    let table = Arc::new(
        ShardedTable::<u64>::builder()
            .columns(COLS)
            .build()
            .expect("in-memory table"),
    );
    let rows: Vec<Vec<u64>> = (0..200_000u64)
        .map(|i| (0..COLS as u64).map(|c| (i * 31 + c) % 10_000).collect())
        .collect();
    table.insert_rows(&rows).expect("in-memory insert");
    table.merge_all(8).expect("initial merge");
    println!(
        "loaded {} rows into main; running the Figure-1 OLTP mix for {seconds}s...",
        table.main_len()
    );

    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let writes = Arc::new(AtomicU64::new(0));
    let merges = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        // Background merge scheduler: the Section 3 strategy (b), constantly
        // merging in the background when the trigger fires.
        {
            let (table, stop, merges) =
                (Arc::clone(&table), Arc::clone(&stop), Arc::clone(&merges));
            s.spawn(move || {
                let policy = MergePolicy {
                    delta_fraction: 0.05,
                    threads: 4,
                    ..MergePolicy::default()
                };
                while !stop.load(Ordering::Relaxed) {
                    if table
                        .shard(0)
                        .maybe_merge(&policy)
                        .expect("in-memory merge")
                        .is_some()
                    {
                        merges.fetch_add(1, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            });
        }
        // Mixed-workload workers.
        for w in 0..workers {
            let (table, stop, reads, writes) = (
                Arc::clone(&table),
                Arc::clone(&stop),
                Arc::clone(&reads),
                Arc::clone(&writes),
            );
            s.spawn(move || {
                let mix = QueryMix::oltp();
                let mut rng = StdRng::seed_from_u64(1000 + w as u64);
                while !stop.load(Ordering::Relaxed) {
                    let rows = table.row_count();
                    let id = |row| ShardRowId { shard: 0, row };
                    match mix.sample(&mut rng) {
                        QueryType::Lookup => {
                            let r = rng.gen_range(0..rows);
                            std::hint::black_box(table.get(id(r), rng.gen_range(0..COLS)));
                            reads.fetch_add(1, Ordering::Relaxed);
                        }
                        QueryType::TableScan | QueryType::RangeSelect => {
                            // Sampled scan: touch a window of rows in one column.
                            let col = rng.gen_range(0..COLS);
                            let start = rng.gen_range(0..rows.max(2) - 1);
                            let end = (start + 512).min(rows);
                            let mut acc = 0u64;
                            for r in start..end {
                                acc = acc.wrapping_add(table.get(id(r), col));
                            }
                            std::hint::black_box(acc);
                            reads.fetch_add(1, Ordering::Relaxed);
                        }
                        QueryType::Insert => {
                            let i = writes.fetch_add(1, Ordering::Relaxed);
                            let row: Vec<u64> =
                                (0..COLS as u64).map(|c| (i * 7 + c) % 10_000).collect();
                            table.insert_row(&row).expect("in-memory insert");
                        }
                        QueryType::Modification => {
                            let i = writes.fetch_add(1, Ordering::Relaxed);
                            let old = rng.gen_range(0..rows);
                            let row: Vec<u64> =
                                (0..COLS as u64).map(|c| (i * 11 + c) % 10_000).collect();
                            table.update_row(id(old), &row).expect("in-memory update");
                        }
                        QueryType::Delete => {
                            writes.fetch_add(1, Ordering::Relaxed);
                            let r = rng.gen_range(0..rows);
                            table.delete_row(id(r)).expect("in-memory delete");
                        }
                    }
                }
            });
        }
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_secs(seconds));
        stop.store(true, Ordering::Relaxed);
        let elapsed = t0.elapsed().as_secs_f64();
        // Wait for workers to wind down (scope join), then report.
        let _ = elapsed;
    });

    let elapsed = seconds as f64;
    let r = reads.load(Ordering::Relaxed);
    let w = writes.load(Ordering::Relaxed);
    let m = merges.load(Ordering::Relaxed);
    println!("\nresults over {elapsed:.0}s with {workers} workers:");
    println!(
        "  read queries : {:>10}  ({:>9.0}/s)",
        r,
        r as f64 / elapsed
    );
    println!(
        "  writes       : {:>10}  ({:>9.0}/s)",
        w,
        w as f64 / elapsed
    );
    println!("  merges run   : {:>10}  (online, in the background)", m);
    println!(
        "  final state  : {} rows in main, {} awaiting merge, {} valid",
        table.main_len(),
        table.delta_len(),
        table.valid_row_count()
    );
    println!("\npaper context: the analyzed customer systems required 3,000-18,000");
    println!("updates/second sustained; writes above landed in the delta without ever");
    println!("blocking on the {m} merges that ran concurrently.");
}
