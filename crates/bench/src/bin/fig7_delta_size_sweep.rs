//! Figure 7: update cost (cycles per tuple) for various delta partition
//! sizes — unoptimized vs optimized merge, broken into Update-Delta, Step 1
//! and Step 2.
//!
//! Paper setup: N_M = 100M tuples, lambda_M = lambda_D = 10%, E_j = 8 bytes,
//! N_C = 300 columns, N_D from 500K (0.5%) to 8M (8%), both implementations
//! parallelized on a 2x6-core Xeon.
//!
//! Default here: N_M = 10M on all cores (override with `--nm`, `--threads`;
//! the y-axis is already normalized per tuple, so the shape is comparable).
//! Expected shape (paper): optimized Step 2 is ~9-10x cheaper than
//! unoptimized Step 2, which dominates the unoptimized bar and is flat in
//! N_D; the delta update share grows to 30-55% of the optimized total as
//! N_D grows. This build does not reproduce that share, by design: its
//! Update-Delta bar (`T_U`) is the engine's tail append per tuple, not the
//! paper's append + CSB+ insert (the delta is sorted at freeze, in Step 1).

use hyrise_bench::{
    banner, build_column, cpt, default_threads, delta_values, fmt_count, freeze_and_merge,
    quick_hz, time_delta_updates, Args, TablePrinter,
};
use hyrise_core::{MergePipeline, MergeScratch, MergeStrategy};

fn main() {
    let args = Args::from_env(&["nm", "lambda", "threads", "quick"]);
    let n_m = args.usize("nm", 10_000_000);
    let lambda = args.f64("lambda", 0.10);
    let threads = args.usize("threads", default_threads());
    let hz = quick_hz();
    let fractions: Vec<f64> = if args.flag("quick") {
        vec![0.005, 0.02, 0.08]
    } else {
        vec![0.005, 0.01, 0.02, 0.04, 0.08]
    };

    banner(
        "Figure 7 — update cost vs delta partition size (UnOpt vs Opt)",
        "N_M=100M, lambda=10%, E_j=8B, N_D=0.5%..8%, both merges parallelized",
        &format!(
            "N_M={}, lambda={:.0}%, E_j=8B, {} threads, {:.2} GHz",
            fmt_count(n_m),
            lambda * 100.0,
            threads,
            hz / 1e9
        ),
    );

    let t = TablePrinter::new(&[
        "N_D",
        "updDelta cpt",
        "unopt S1",
        "unopt S2",
        "opt S1",
        "opt S2",
        "unopt total",
        "opt total",
        "S2 speedup",
        "merge speedup",
    ]);

    // Main partition is reused across delta sizes (same as the paper's
    // fixed 100M-tuple main).
    let (main, _) = build_column::<u64>(n_m, 1, lambda, lambda, 7);
    let u_m = main.dictionary().len();

    for f in fractions {
        let n_d = ((n_m as f64) * f) as usize;
        let vals = delta_values::<u64>(n_d, lambda, u_m, 1000 + (f * 1e4) as u64);
        let (_, t_u) = time_delta_updates(&vals);
        let total = n_m + n_d;

        let naive = freeze_and_merge(
            &MergePipeline::new(MergeStrategy::Naive, threads),
            &main,
            &vals,
            &mut MergeScratch::new(),
        );
        let opt = freeze_and_merge(
            &MergePipeline::new(MergeStrategy::Parallel, threads),
            &main,
            &vals,
            &mut MergeScratch::new(),
        );
        debug_assert_eq!(naive.main.dictionary().len(), opt.main.dictionary().len());

        let upd = cpt(t_u, total, hz);
        let n1 = naive.stats.step1_cycles_per_tuple(hz);
        let n2 = naive.stats.step2_cycles_per_tuple(hz);
        let o1 = opt.stats.step1_cycles_per_tuple(hz);
        let o2 = opt.stats.step2_cycles_per_tuple(hz);
        t.row(&[
            &fmt_count(n_d),
            &format!("{upd:.2}"),
            &format!("{n1:.2}"),
            &format!("{n2:.2}"),
            &format!("{o1:.2}"),
            &format!("{o2:.2}"),
            &format!("{:.2}", upd + n1 + n2),
            &format!("{:.2}", upd + o1 + o2),
            &format!("{:.1}x", n2 / o2.max(1e-12)),
            &format!("{:.1}x", (n1 + n2) / (o1 + o2).max(1e-12)),
        ]);
    }
    println!();
    println!("paper reference: optimized Step 2 is 9-10x cheaper than unoptimized; the");
    println!("unoptimized Step 2 dominates its total and is ~flat per tuple across N_D;");
    println!("Update-Delta grows to 30-55% of the optimized total at larger deltas (not");
    println!("here, by design: updDelta is the engine's tail append, no CSB+ insert).");
}
