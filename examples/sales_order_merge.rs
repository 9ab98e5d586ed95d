//! The Section 2 story as an application: a month of sales orders lands in
//! the delta of a VBAP-like table and must be merged without downtime.
//!
//! Run with: `cargo run --release --example sales_order_merge -- [scale] [cols]`
//! (defaults: scale 0.002 => 66K rows, 12 columns).
//!
//! Compares the naive merge (the paper's "current systems would merge
//! approx. 20 hours every month") against the optimized parallel merge on
//! the same data, and extrapolates both to the paper's full table size.

use hyrise::merge::{MergePipeline, MergeScratch, MergeStrategy};
use hyrise::storage::{FrozenDelta, MainPartition};
use hyrise::workload::VbapScenario;
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale: f64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(0.002);
    let cols: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(12);
    let threads = hyrise::merge::pool::default_threads();

    let full = VbapScenario::paper();
    let s = full.scaled(scale).with_cols(cols);
    println!(
        "VBAP scenario: {} rows x {} cols, merging {} new rows ({}x scale of the paper's",
        s.rows, s.cols, s.merge_rows, scale
    );
    println!("33M x 230 with 750K-row delta); {threads} threads\n");

    let distinct = s.column_distinct_counts();
    let mut t_naive = Duration::ZERO;
    let mut t_opt = Duration::ZERO;
    for (c, &dc) in distinct.iter().enumerate() {
        let main = MainPartition::from_values(&s.generate_main_column(c, dc));
        let delta_vals = s.generate_delta_column(c, dc);
        // Stage 1a: freezing the delta into its compressed form, paid by
        // either merge.
        let t0 = Instant::now();
        let delta = FrozenDelta::from_values(&delta_vals);
        let t_freeze = t0.elapsed();
        let naive = MergePipeline::new(MergeStrategy::Naive, threads).merge_column(
            &main,
            &delta,
            &mut MergeScratch::new(),
        );
        let opt = MergePipeline::new(MergeStrategy::Parallel, threads).merge_column(
            &main,
            &delta,
            &mut MergeScratch::new(),
        );
        assert_eq!(
            naive.main.dictionary().values(),
            opt.main.dictionary().values(),
            "both merges must agree"
        );
        t_naive += t_freeze + naive.stats.t_total();
        t_opt += t_freeze + opt.stats.t_total();
    }

    println!("measured at this scale ({} columns):", s.cols);
    println!(
        "  naive merge     : {:>10.1} ms",
        t_naive.as_secs_f64() * 1e3
    );
    println!("  optimized merge : {:>10.1} ms", t_opt.as_secs_f64() * 1e3);
    println!(
        "  speedup         : {:>10.1}x",
        t_naive.as_secs_f64() / t_opt.as_secs_f64().max(1e-12)
    );

    let factor = (full.rows as f64 / s.rows as f64) * (full.cols as f64 / s.cols as f64);
    println!("\nextrapolated to the full VBAP table (33M rows x 230 columns):");
    println!(
        "  naive merge     : {:>10.1} min   (paper measured 12 min on their machine)",
        t_naive.as_secs_f64() * factor / 60.0
    );
    println!(
        "  optimized merge : {:>10.1} min",
        t_opt.as_secs_f64() * factor / 60.0
    );
    println!(
        "  merged updates/s: {:>10.0}      (paper: ~1,000 naive)",
        full.merge_rows as f64 / (t_opt.as_secs_f64() * factor)
    );
}
