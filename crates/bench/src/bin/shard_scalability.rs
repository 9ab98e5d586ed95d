//! Shard-count scalability sweep (the Table-2 exercise lifted to the
//! sharded layer): one logical table partitioned over 1/2/4/8 shards,
//! serving concurrent routed inserts and cross-shard scans while a
//! [`MergeScheduler`] queues each shard's merge as the writes make it due.
//!
//! The paper stops at one table on one box; this harness measures what the
//! ROADMAP's scale-out step buys: per-shard merges touch `1/N`-th of the
//! data, writers to different shards do not contend on one table lock, and
//! scans fan out. On a single-core container expect flat write throughput
//! and growing merge counts (merges get smaller and cheaper as N grows);
//! on multi-core hardware expect write throughput to climb with N.
//!
//! ```text
//! cargo run --release -p hyrise-bench --bin shard_scalability -- \
//!     --rows 200000 --writes 50000 --max-shards 8
//! ```

use hyrise_bench::{banner, default_threads, fmt_count, Args, TablePrinter};
use hyrise_core::shard::ShardedTable;
use hyrise_core::{GrantRecord, MergePolicy, MergeScheduler};
use hyrise_query::Query;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const KEY_DOMAIN: u64 = 10_000;

fn row(i: u64) -> [u64; 2] {
    [i % KEY_DOMAIN, i.wrapping_mul(2654435761) % 1_000_000]
}

/// One sweep point: returns (preload ms, write upd/s, scans/s, merges,
/// max delta fraction at end, total rows at end, per-stage merge micros
/// summed over shards: step1a/step1b/step2, grant trace).
#[allow(clippy::type_complexity)]
fn sweep(
    shards: usize,
    rows: usize,
    writes: usize,
    trigger: f64,
    threads: usize,
) -> (u128, f64, f64, u64, f64, usize, [u64; 3], Vec<GrantRecord>) {
    let table = Arc::new(
        ShardedTable::<u64>::builder()
            .shards(shards)
            .columns(2)
            .build()
            .unwrap(),
    );
    let t0 = Instant::now();
    let preload: Vec<[u64; 2]> = (0..rows as u64).map(row).collect();
    table.insert_rows(&preload).unwrap();
    table.merge_all(threads).unwrap();
    let preload_ms = t0.elapsed().as_millis();

    let policy = MergePolicy {
        delta_fraction: trigger,
        threads: 1,
        ..MergePolicy::default()
    };
    let sched = MergeScheduler::spawn(table.shards().to_vec(), policy);

    // One writer per shard plus one fan-out scanner, racing.
    let stop = Arc::new(AtomicBool::new(false));
    let scans = Arc::new(AtomicU64::new(0));
    let t1 = Instant::now();
    let mut write_secs = 0f64;
    std::thread::scope(|s| {
        let writers: Vec<_> = (0..shards)
            .map(|w| {
                let table = Arc::clone(&table);
                s.spawn(move || {
                    let base = (rows + w * writes) as u64;
                    for chunk in (0..writes as u64).collect::<Vec<_>>().chunks(256) {
                        let batch: Vec<[u64; 2]> = chunk.iter().map(|i| row(base + i)).collect();
                        table.insert_rows(&batch).unwrap();
                    }
                })
            })
            .collect();
        {
            let (table, stop, scans) = (Arc::clone(&table), Arc::clone(&stop), Arc::clone(&scans));
            s.spawn(move || {
                let mut probe = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    std::hint::black_box(
                        Query::scan(0)
                            .eq(probe % KEY_DOMAIN)
                            .run(&*table)
                            .into_rows(),
                    );
                    std::hint::black_box(Query::scan(0).sum(1).run(&*table).sum());
                    scans.fetch_add(2, Ordering::Relaxed);
                    probe += 1;
                }
            });
        }
        for h in writers {
            h.join().expect("writer");
        }
        write_secs = t1.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
    });

    // Drain to the trigger bound, then release the shards and read the
    // scheduler's counters.
    let deadline = Instant::now() + Duration::from_secs(30);
    while table.max_delta_fraction() > trigger && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    sched.shutdown();
    let stats = sched.stats();
    let stages = stats.per_source.iter().fold([0u64; 3], |acc, s| {
        [
            acc[0] + s.step1a_micros,
            acc[1] + s.step1b_micros,
            acc[2] + s.step2_micros,
        ]
    });
    (
        preload_ms,
        (shards * writes) as f64 / write_secs,
        scans.load(Ordering::Relaxed) as f64 / write_secs,
        stats.merges,
        table.max_delta_fraction(),
        table.row_count(),
        stages,
        stats.grants,
    )
}

/// Compress a grant trace into a summary column: the share of
/// memory-pressured merges, plus the most recent grant shape.
fn grant_column(grants: &[GrantRecord]) -> String {
    let Some(last) = grants.last() else {
        return "-".into();
    };
    let pressured = grants.iter().filter(|g| g.pressured).count();
    format!(
        "pressured {pressured}/{} · {}/t{}",
        grants.len(),
        last.strategy,
        last.threads
    )
}

fn main() {
    let args = Args::from_env(&["rows", "writes", "max-shards", "trigger", "threads"]);
    let rows = args.usize("rows", 200_000);
    let writes = args.usize("writes", 50_000);
    let max_shards = args.usize("max-shards", 8);
    let trigger = args.f64("trigger", 0.02);
    let threads = args.usize("threads", default_threads());

    banner(
        "Shard scalability — concurrent inserts + fan-out scans + write-triggered merges",
        "no paper reference: the paper evaluates one table on one box (Secs 3/9)",
        &format!(
            "preload {} rows, {} writes per writer (one writer per shard), trigger {trigger}, \
             {threads} HW threads",
            fmt_count(rows),
            fmt_count(writes),
        ),
    );

    let t = TablePrinter::new(&[
        "shards",
        "preload ms",
        "write upd/s",
        "scan/s",
        "merges",
        "s1a ms",
        "s1b ms",
        "s2 ms",
        "end frac",
        "end rows",
        "grants",
    ]);

    let mut last_trace = Vec::new();
    let mut shards = 1usize;
    while shards <= max_shards {
        let (pre_ms, upd_s, scan_s, merges, frac, end_rows, stages, grants) =
            sweep(shards, rows, writes, trigger, threads);
        t.row(&[
            &shards.to_string(),
            &pre_ms.to_string(),
            &format!("{upd_s:.0}"),
            &format!("{scan_s:.1}"),
            &merges.to_string(),
            &format!("{:.1}", stages[0] as f64 / 1e3),
            &format!("{:.1}", stages[1] as f64 / 1e3),
            &format!("{:.1}", stages[2] as f64 / 1e3),
            &format!("{frac:.4}"),
            &fmt_count(end_rows),
            &grant_column(&grants),
        ]);
        last_trace = grants;
        shards *= 2;
    }
    println!();
    println!("grant trace of the last sweep point (strategy/threads/budget K,");
    println!("memory pressure, merged shard's delta fraction; newest last):");
    let tail = last_trace.len().saturating_sub(8);
    for (i, g) in last_trace.iter().enumerate().skip(tail) {
        println!("  merge {:>3}: {g}", i + 1);
    }
    if last_trace.is_empty() {
        println!("  (no merges ran)");
    }
    println!();
    println!("expected shape: merges grow with shard count (each merge covers 1/N of the");
    println!("data); write throughput grows with cores available, flat on one core.");
    println!("s1a/s1b/s2 stack like the paper's Figure 7/8 stage bars (per-shard");
    println!("SourceMergeStats summed): Step 2 dominates, Step 1b grows with |U|.");
    println!("the grants column is memory-pressured share · last grant; with no");
    println!("memory soft limit every merge is baseline, the policy's own grant.");
}
