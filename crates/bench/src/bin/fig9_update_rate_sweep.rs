//! Figure 9: sustainable update rate (K updates/second) for main partition
//! sizes from 1M to 1B tuples and unique fractions from 0.1% to 100%, with
//! N_D = 1% of N_M, E_j = 8 bytes, N_C = 300.
//!
//! The paper's headline operational result: >81K updates/s when the
//! auxiliary structures are cache-resident, stabilizing around ~7.1K when
//! they are not — always above the 3K low target; above the 18K high target
//! up to 100M rows at <=1% unique.
//!
//! Default here: N_M in {1M, 10M, 100M} (use `--nm-list 1000000,...` or
//! `--full` for the 1B point if you have the RAM: the 1B x 8B column alone
//! is 8 GB before encoding). The update rate is computed per Equation 16
//! from the measured per-column update cost, normalized to N_C = 300
//! (`--cols` to change); its `T_U` is the engine's tail append per tuple,
//! not the paper's append + CSB+ insert.

use hyrise_bench::{
    banner, build_column, cpt, default_threads, delta_values, fmt_count, freeze_and_merge,
    quick_hz, time_delta_updates, Args, TablePrinter,
};
use hyrise_core::rate::{
    updates_per_second, HIGH_TARGET_UPDATES_PER_SEC, LOW_TARGET_UPDATES_PER_SEC,
};
use hyrise_core::{MergePipeline, MergeScratch, MergeStrategy};

fn main() {
    let args = Args::from_env(&["threads", "cols", "full", "quick"]);
    let threads = args.usize("threads", default_threads());
    let n_c = args.usize("cols", 300);
    let hz = quick_hz();
    let mains: Vec<usize> = if args.flag("full") {
        vec![1_000_000, 10_000_000, 100_000_000, 1_000_000_000]
    } else if args.flag("quick") {
        vec![1_000_000, 10_000_000]
    } else {
        vec![1_000_000, 10_000_000, 100_000_000]
    };
    let lambdas = [0.001, 0.01, 0.10, 1.0];

    banner(
        "Figure 9 — update rate vs main size and unique fraction",
        "N_M=1M..1B, lambda=0.1%..100%, N_D=1% N_M, E_j=8B, N_C=300, 12 cores",
        &format!(
            "N_M in {:?}, N_C={} (Eq. 16 normalization), {} threads, {:.2} GHz",
            mains.iter().map(|n| fmt_count(*n)).collect::<Vec<_>>(),
            n_c,
            threads,
            hz / 1e9
        ),
    );

    let t = TablePrinter::new(&[
        "lambda",
        "N_M",
        "N_D",
        "updDelta cpt",
        "merge cpt",
        "total cpt",
        "aux bytes",
        "K upd/s",
        "vs targets",
    ]);
    for &lambda in &lambdas {
        for &n_m in &mains {
            let n_d = n_m / 100;
            let (main, _) = build_column::<u64>(n_m, 1, lambda, lambda, 9);
            let vals = delta_values::<u64>(n_d, lambda, main.dictionary().len(), 17);
            let (_, t_u) = time_delta_updates(&vals);
            let total = n_m + n_d;
            let out = freeze_and_merge(
                &MergePipeline::new(MergeStrategy::Parallel, threads),
                &main,
                &vals,
                &mut MergeScratch::new(),
            );
            let upd = cpt(t_u, total, hz);
            let merge_cpt = out.stats.cycles_per_tuple(hz);
            let total_cpt = upd + merge_cpt;
            let rate = updates_per_second(total_cpt, hz, n_d, total, n_c);
            let aux_bytes = (out.stats.u_m + out.stats.u_d) * 4;
            let vs = if rate >= HIGH_TARGET_UPDATES_PER_SEC {
                ">high(18K)"
            } else if rate >= LOW_TARGET_UPDATES_PER_SEC {
                ">low(3K)"
            } else {
                "BELOW 3K"
            };
            t.row(&[
                &format!("{:.1}%", lambda * 100.0),
                &fmt_count(n_m),
                &fmt_count(n_d),
                &format!("{upd:.2}"),
                &format!("{merge_cpt:.2}"),
                &format!("{total_cpt:.2}"),
                &fmt_count(aux_bytes),
                &format!("{:.1}", rate / 1e3),
                vs,
            ]);
        }
    }
    println!();
    println!("paper reference: >81K upd/s while X_M/X_D fit in LLC; a sharp drop when the");
    println!("aux structures cross the cache size (paper: 2.5MB fits, 30MB does not, 24MB");
    println!("LLC); ~7.1K upd/s floor at bandwidth-bound sizes — above the 3K low target");
    println!("even at 1B tuples; the 18K high target holds to 100M rows at <=1% unique.");
    println!("here the Eq. 16 rate uses the tail-append updDelta (no CSB+ insert).");
}
