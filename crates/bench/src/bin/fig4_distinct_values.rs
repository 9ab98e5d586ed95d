//! Figure 4: distinct values per column in Inventory Management and
//! Financial Accounting.

use hyrise_bench::{banner, Args, TablePrinter};
use hyrise_workload::DistinctValueModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::from_env(&["samples"]);
    let samples = args.usize("samples", 100_000);
    banner(
        "Figure 4 — distinct values per column by application domain",
        "21 most active tables per customer; 32B records, 400M distinct values inspected",
        &format!("calibrated bucket model, verified by sampling {samples} columns per domain"),
    );

    let domains = [
        DistinctValueModel::inventory_management(),
        DistinctValueModel::financial_accounting(),
    ];
    let t = TablePrinter::new(&[
        "domain",
        "1-32 (paper)",
        "sampled",
        "33-1023 (paper)",
        "sampled",
        "1024+ (paper)",
        "sampled",
    ]);
    let mut rng = StdRng::seed_from_u64(4);
    for d in domains {
        let mut buckets = [0usize; 3];
        for _ in 0..samples {
            let v = d.sample_distinct(&mut rng, u64::MAX);
            let b = if v <= 32 {
                0
            } else if v <= 1023 {
                1
            } else {
                2
            };
            buckets[b] += 1;
        }
        let pct = |b: usize| format!("{:.1}%", buckets[b] as f64 / samples as f64 * 100.0);
        t.row(&[
            d.name,
            &format!("{:.0}%", d.pct_small),
            &pct(0),
            &format!("{:.0}%", d.pct_medium),
            &pct(1),
            &format!("{:.0}%", d.pct_large),
            &pct(2),
        ]);
    }
    println!();
    println!("\"Most of the columns in financial accounting and inventory management work");
    println!("with a very limited set of distinct values\" — the dictionary-encoding premise.");
}
