//! Section 7.4: comparison with the analytical model.
//!
//! The paper validates that measured per-step merge costs land within 1–10%
//! of the model's compute/bandwidth bounds (Equations 8–15) when fed the
//! machine's measured streaming bandwidth, random-access bandwidth and LLC
//! size. This harness calibrates those constants with micro-benchmarks
//! (`hyrise_core::model::calibrate`), runs the parallel merge at the
//! Table-2 operating points, and prints measured vs predicted.

use hyrise_bench::{
    banner, build_column, default_threads, delta_values, fmt_count, freeze_and_merge, Args,
    TablePrinter,
};
use hyrise_core::model::{calibrate, MergeScenario};
use hyrise_core::{MergePipeline, MergeScratch, MergeStrategy};

fn main() {
    let args = Args::from_env(&["nm", "nd", "threads"]);
    let n_m = args.usize("nm", 10_000_000);
    let n_d = args.usize("nd", n_m / 100);
    let threads = args.usize("threads", default_threads());

    println!("calibrating machine profile ({threads} threads)...");
    let m = calibrate(threads);
    println!(
        "  hz={:.2} GHz  streaming={:.1} B/cyc  random={:.1} B/cyc  LLC={}",
        m.hz / 1e9,
        m.streaming_bytes_per_cycle,
        m.random_bytes_per_cycle,
        fmt_count(m.llc_bytes)
    );
    println!();

    banner(
        "Section 7.4 — analytical model vs measurement",
        "N_M=100M, N_D=1M, E_j=8B; model within 1-10% of measured per-step cost",
        &format!(
            "N_M={}, N_D={}, {} threads, calibrated constants above",
            fmt_count(n_m),
            fmt_count(n_d),
            threads
        ),
    );

    let t = TablePrinter::new(&[
        "unique",
        "step",
        "measured cpt",
        "model cpt",
        "error",
        "regime",
    ]);
    for lambda in [0.01f64, 1.0] {
        let (main, _) = build_column::<u64>(n_m, 1, lambda, lambda, 55);
        let vals = delta_values::<u64>(n_d, lambda, main.dictionary().len(), 56);
        let out = freeze_and_merge(
            &MergePipeline::new(MergeStrategy::Parallel, threads),
            &main,
            &vals,
            &mut MergeScratch::new(),
        );
        let scenario = MergeScenario::from_stats(&out.stats, 8);
        let pred = m.predict(&scenario);

        let rows = [
            (
                "Step 1",
                out.stats.step1_cycles_per_tuple(m.hz),
                pred.step1a_cpt + pred.step1b_cpt,
                if pred.step1b_compute_bound {
                    "compute"
                } else {
                    "bandwidth"
                },
            ),
            (
                "Step 2",
                out.stats.step2_cycles_per_tuple(m.hz),
                pred.step2_cpt,
                if pred.aux_fits_cache {
                    "aux-in-cache"
                } else {
                    "aux-in-memory"
                },
            ),
        ];
        for (name, measured, model, regime) in rows {
            let err = (measured - model).abs() / model.max(1e-12) * 100.0;
            t.row(&[
                &format!("{:.0}%", lambda * 100.0),
                name,
                &format!("{measured:.2}"),
                &format!("{model:.2}"),
                &format!("{err:.0}%"),
                regime,
            ]);
        }
    }
    println!();
    println!("paper reference (their machine): Step 1 predicted 6.9 vs measured ~6.97 cpt");
    println!("(<1%); Step 2 predicted 14.2 vs measured 15.0 cpt (5.5%) at 100% unique;");
    println!("Step 2 predicted 1.73 vs measured 1.85 cpt (7%) at 1% unique. Agreement");
    println!("within a few tens of percent on other machines still validates the model's");
    println!("regime predictions (which bound is active and where the cache cliff sits).");
}
