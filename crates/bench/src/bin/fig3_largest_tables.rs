//! Figure 3: the 144 tables with more than 10 million rows — rows and
//! columns per table, sorted by row count.

use hyrise_bench::{banner, fmt_count, Args, TablePrinter};
use hyrise_workload::LargeTableModel;

fn main() {
    let args = Args::from_env(&["show"]);
    let show = args.usize("show", 20);
    banner(
        "Figure 3 — the 144 largest tables (rows & columns)",
        "rows 10M..1.6B avg 65M; columns 2..399 avg 70 (one customer system)",
        &format!(
            "deterministic reconstruction matching those statistics; showing every {}th",
            144 / show.max(1)
        ),
    );

    let model = LargeTableModel::new();
    let t = TablePrinter::new(&["position", "rows", "columns"]);
    let step = (LargeTableModel::COUNT / show.max(1)).max(1);
    for (i, (rows, cols)) in model.tables().iter().enumerate() {
        if i % step == 0 || i == LargeTableModel::COUNT - 1 {
            t.row(&[
                &(i + 1).to_string(),
                &fmt_count(*rows as usize),
                &cols.to_string(),
            ]);
        }
    }
    println!();
    let (max_rows, _) = model.tables()[0];
    let (min_rows, _) = model.tables()[LargeTableModel::COUNT - 1];
    println!(
        "stats: rows {}..{} avg {} (paper: 10M..1.6B avg 65M); columns avg {:.0} (paper: 70)",
        fmt_count(min_rows as usize),
        fmt_count(max_rows as usize),
        fmt_count(model.avg_rows() as usize),
        model.avg_cols(),
    );
}
