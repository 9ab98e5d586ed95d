//! Figure 1: query-type distribution of OLTP and OLAP customer systems vs
//! TPC-C.
//!
//! The paper derives these from customer database statistics; we re-emit the
//! calibrated model and verify, by sampling, that a generated workload
//! reproduces it (which is what the mixed-workload example consumes).

use hyrise_bench::{banner, Args, TablePrinter};
use hyrise_workload::{QueryMix, QueryType};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::from_env(&["samples"]);
    let samples = args.usize("samples", 1_000_000);
    banner(
        "Figure 1 — workload query-type distribution",
        "query statistics from 12 SAP Business Suite customer systems + TPC-C",
        &format!("calibrated mix model, verified by sampling {samples} queries per workload"),
    );

    let mixes = [QueryMix::oltp(), QueryMix::olap(), QueryMix::tpcc()];
    let t = TablePrinter::new(&[
        "workload",
        "lookup%",
        "scan%",
        "range%",
        "insert%",
        "modif%",
        "delete%",
        "writes%",
        "sampled-writes%",
    ]);
    let mut rng = StdRng::seed_from_u64(1);
    for mix in mixes {
        let writes = (0..samples)
            .filter(|_| mix.sample(&mut rng).is_write())
            .count();
        let sampled = writes as f64 / samples as f64 * 100.0;
        let p = mix.percent;
        t.row(&[
            mix.name,
            &format!("{:.1}", p[0]),
            &format!("{:.1}", p[1]),
            &format!("{:.1}", p[2]),
            &format!("{:.1}", p[3]),
            &format!("{:.1}", p[4]),
            &format!("{:.1}", p[5]),
            &format!("{:.1}", mix.write_fraction() * 100.0),
            &format!("{sampled:.1}"),
        ]);
    }
    println!();
    println!("paper-stated constraints: OLTP ~17% writes (>80% reads), OLAP ~7% writes");
    println!("(>90% reads), TPC-C 46% writes. Per-category splits estimated from the");
    println!("figure; the stated aggregates hold exactly (see workload::enterprise tests).");

    let _ = QueryType::ALL; // silence unused when samples == 0
}
