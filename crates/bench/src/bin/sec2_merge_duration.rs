//! Section 2 "Merge Duration": the VBAP sales-order scenario.
//!
//! Paper measurement: merging one month of sales orders (750K rows) into the
//! VBAP table (33M rows x 230 columns) took 1.8 trillion CPU cycles = 12
//! minutes with the naive implementation — ~1,000 merged updates/second,
//! extrapolating to ~20 hours of merging per month for a 1.5 TB system.
//!
//! This harness replays the scenario at `--scale` (default 1% of rows) over
//! `--cols` sampled columns (default 16 of the 230), measures both the naive
//! and the optimized parallel merge, and extrapolates linearly to the
//! paper's full size (the merge is embarrassingly parallel across columns
//! and linear in rows, so per-column-per-tuple cost is the invariant).

use hyrise_bench::{
    banner, default_threads, fmt_count, freeze_and_merge, quick_hz, Args, TablePrinter,
};
use hyrise_core::{MergePipeline, MergeScratch, MergeStrategy};
use hyrise_storage::MainPartition;
use hyrise_workload::VbapScenario;
use std::time::Duration;

fn main() {
    let args = Args::from_env(&["scale", "cols", "threads"]);
    let scale = args.f64("scale", 0.01);
    let cols = args.usize("cols", 16);
    let threads = args.usize("threads", default_threads());
    let hz = quick_hz();

    let full = VbapScenario::paper();
    let s = full.scaled(scale).with_cols(cols);
    banner(
        "Section 2 — VBAP merge duration",
        "VBAP: 33M rows x 230 cols, merge 750K rows; naive merge = 12 min (~1,000 upd/s)",
        &format!(
            "scale={scale} => {} rows x {} cols, merge {} rows, {} threads, {:.2} GHz",
            fmt_count(s.rows),
            s.cols,
            fmt_count(s.merge_rows),
            threads,
            hz / 1e9
        ),
    );

    let distinct = s.column_distinct_counts();
    let mut t_naive = Duration::ZERO;
    let mut t_opt = Duration::ZERO;
    let t = TablePrinter::new(&["column", "distinct", "naive ms", "optimized ms", "speedup"]);
    for (c, &dc) in distinct.iter().enumerate() {
        let main_vals = s.generate_main_column(c, dc);
        let delta_vals = s.generate_delta_column(c, dc);
        let main = MainPartition::from_values(&main_vals);
        drop(main_vals);
        let naive = freeze_and_merge(
            &MergePipeline::new(MergeStrategy::Naive, threads),
            &main,
            &delta_vals,
            &mut MergeScratch::new(),
        );
        let opt = freeze_and_merge(
            &MergePipeline::new(MergeStrategy::Parallel, threads),
            &main,
            &delta_vals,
            &mut MergeScratch::new(),
        );
        t_naive += naive.stats.t_total();
        t_opt += opt.stats.t_total();
        if c < 8 {
            t.row(&[
                &format!("c{c}"),
                &fmt_count(dc),
                &format!("{:.1}", naive.stats.t_total().as_secs_f64() * 1e3),
                &format!("{:.1}", opt.stats.t_total().as_secs_f64() * 1e3),
                &format!(
                    "{:.1}x",
                    naive.stats.t_total().as_secs_f64()
                        / opt.stats.t_total().as_secs_f64().max(1e-12)
                ),
            ]);
        }
    }
    println!("  ... ({} columns measured in total)", s.cols);
    println!();

    // Extrapolate: scale rows back up and multiply columns out to 230.
    let row_factor = full.rows as f64 / s.rows as f64;
    let col_factor = full.cols as f64 / s.cols as f64;
    let naive_full = t_naive.as_secs_f64() * row_factor * col_factor;
    let opt_full = t_opt.as_secs_f64() * row_factor * col_factor;
    let naive_rate = full.merge_rows as f64 / naive_full;
    let opt_rate = full.merge_rows as f64 / opt_full;

    let t = TablePrinter::new(&["quantity", "naive", "optimized", "paper (naive)"]);
    t.row(&[
        "VBAP merge (extrapolated)",
        &format!("{:.1} min", naive_full / 60.0),
        &format!("{:.1} min", opt_full / 60.0),
        "12 min",
    ]);
    t.row(&[
        "merged updates/second",
        &format!("{naive_rate:.0}"),
        &format!("{opt_rate:.0}"),
        "~1,000",
    ]);
    t.row(&[
        "monthly merge, 1.5TB system",
        &format!("{:.1} h", naive_full / 60.0 / 60.0 * 100.0), // paper: VBAP is ~1% of 1.5TB
        &format!("{:.1} h", opt_full / 60.0 / 60.0 * 100.0),
        "~20 h",
    ]);
    println!();
    println!("expected shape: optimized is an order of magnitude faster than naive, turning");
    println!("the ~20 h/month merge burden into low single-digit hours (the paper's 30x");
    println!("headline combines algorithm + parallelization vs unoptimized serial code).");
}
