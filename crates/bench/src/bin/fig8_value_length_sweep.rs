//! Figure 8: update cost for value-lengths of 4, 8 and 16 bytes, delta
//! sizes of 1% and 3% of main, at 1% and 100% unique values.
//!
//! Paper setup: N_M = 100M, N_D in {1M, 3M}, N_C = 300, optimized parallel
//! merge. Default here: N_M = 10M, N_D in {1%, 3%} of N_M (`--nm` to scale
//! up). Expected shape (paper): the delta-update bar grows with E_j and with
//! N_D and dominates at 16 bytes; Step 2 is insensitive to E_j (it moves
//! compressed codes) but jumps when the unique fraction moves the auxiliary
//! tables out of cache; Step 1 grows with unique fraction. The Update-Delta
//! bar (`T_U`) here is the engine's tail append, not append + CSB+ insert.

use hyrise_bench::{
    banner, build_column, cpt, default_threads, delta_values, fmt_count, freeze_and_merge,
    quick_hz, time_delta_updates, Args, TablePrinter,
};
use hyrise_core::{MergePipeline, MergeScratch, MergeStrategy};
use hyrise_storage::{Value, V16};

fn run_case<V: Value>(
    t: &TablePrinter,
    n_m: usize,
    frac: f64,
    lambda: f64,
    threads: usize,
    hz: f64,
) {
    let n_d = (n_m as f64 * frac) as usize;
    let (main, _) = build_column::<V>(n_m, 1, lambda, lambda, 31);
    let vals = delta_values::<V>(n_d, lambda, main.dictionary().len(), 77);
    let (_, t_u) = time_delta_updates(&vals);
    let total = n_m + n_d;
    let out = freeze_and_merge(
        &MergePipeline::new(MergeStrategy::Parallel, threads),
        &main,
        &vals,
        &mut MergeScratch::new(),
    );
    let upd = cpt(t_u, total, hz);
    let s1 = out.stats.step1_cycles_per_tuple(hz);
    let s2 = out.stats.step2_cycles_per_tuple(hz);
    t.row(&[
        &format!("{}B", V::BYTES),
        &fmt_count(n_d),
        &format!("{:.0}%", lambda * 100.0),
        &format!("{upd:.2}"),
        &format!("{s1:.2}"),
        &format!("{s2:.2}"),
        &format!("{:.2}", upd + s1 + s2),
    ]);
}

fn main() {
    let args = Args::from_env(&["nm", "threads", "quick"]);
    let n_m = args.usize("nm", 10_000_000);
    let threads = args.usize("threads", default_threads());
    let hz = quick_hz();
    let fracs: &[f64] = if args.flag("quick") {
        &[0.01]
    } else {
        &[0.01, 0.03]
    };

    banner(
        "Figure 8 — update cost vs value-length (4/8/16B), delta size, uniqueness",
        "N_M=100M, N_D in {1M,3M}, lambda in {1%,100%}, optimized parallel merge",
        &format!(
            "N_M={}, N_D in {{1%,3%}} of N_M, {} threads, {:.2} GHz",
            fmt_count(n_m),
            threads,
            hz / 1e9
        ),
    );

    for lambda in [0.01, 1.0] {
        println!(
            "--- ({}) {}% unique values ---",
            if lambda < 0.5 { "a" } else { "b" },
            lambda * 100.0
        );
        let t = TablePrinter::new(&[
            "E_j",
            "N_D",
            "unique",
            "updDelta cpt",
            "step1 cpt",
            "step2 cpt",
            "total cpt",
        ]);
        for &frac in fracs {
            run_case::<u32>(&t, n_m, frac, lambda, threads, hz);
            run_case::<u64>(&t, n_m, frac, lambda, threads, hz);
            run_case::<V16>(&t, n_m, frac, lambda, threads, hz);
        }
        println!();
    }
    println!("paper reference (100M main): at 1% unique, 16B values raise the delta-update");
    println!("cost from ~1.0 cpt (N_D=1M) to ~3.3 cpt (N_D=3M); at 100% unique the same");
    println!("cells read ~5.1 and ~12.9 cpt. Step 2 is ~1.0 cpt when the auxiliary tables");
    println!("fit in cache and ~8.3 cpt when they do not; Step 1 grows from ~0.1 cpt (1%)");
    println!("to ~3.3 cpt (100%) for 8B values at N_D=1M. Here updDelta is the engine's");
    println!("tail append, not the paper's append + CSB+ insert, so it sits well below.");
}
