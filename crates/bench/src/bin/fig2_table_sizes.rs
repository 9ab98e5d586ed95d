//! Figure 2: all 73,979 tables clustered by number of rows.
//!
//! Emits the reconstructed histogram and validates that sampling table sizes
//! from the model reproduces it.

use hyrise_bench::{banner, Args, TablePrinter};
use hyrise_workload::TableSizeModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::from_env(&["samples"]);
    let samples = args.usize("samples", 200_000);
    banner(
        "Figure 2 — tables clustered by number of rows",
        "73,979 tables of one SAP Business Suite installation",
        &format!("reconstructed bucket counts + {samples} sampled table sizes"),
    );

    let t = TablePrinter::new(&[
        "rows",
        "tables (paper)",
        "sampled fraction",
        "model fraction",
    ]);
    let total = TableSizeModel::total_tables() as f64;

    // Sample and bucket.
    let mut rng = StdRng::seed_from_u64(2);
    let mut sampled = [0usize; 8];
    for _ in 0..samples {
        let rows = TableSizeModel::sample_rows(&mut rng);
        let bucket = TableSizeModel::BUCKETS
            .iter()
            .position(|(_, hi, _)| rows <= *hi)
            .expect("buckets cover the domain");
        sampled[bucket] += 1;
    }

    for (i, (label, _, count)) in TableSizeModel::BUCKETS.iter().enumerate() {
        t.row(&[
            label,
            &count.to_string(),
            &format!("{:.2}%", sampled[i] as f64 / samples as f64 * 100.0),
            &format!("{:.2}%", *count as f64 / total * 100.0),
        ]);
    }
    println!();
    println!(
        "total tables: {} (paper: 73,979; counts reconstructed from the arXiv",
        TableSizeModel::total_tables()
    );
    println!("text — they sum exactly and 144 tables exceed 10M rows as stated).");
}
