//! Criterion: read operators vs delta size (the Section 4 read-overhead
//! trade-off at micro scale; the full sweep is `ablation_read_overhead`).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hyrise_bench::{build_column, delta_values};
use hyrise_core::OnlineTable;
use hyrise_query::Query;

fn bench_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("scan");
    g.sample_size(15);
    let n_m = 1_000_000usize;
    let lambda = 0.01f64;
    let (main, _) = build_column::<u64>(n_m, 1, lambda, lambda, 19);
    let probe = main
        .dictionary()
        .value_at((main.dictionary().len() / 2) as u32);
    let lo = main.dictionary().value_at(10);
    let hi = main.dictionary().value_at(60);

    for delta_pct in [0usize, 2, 8] {
        let n_d = n_m * delta_pct / 100;
        let table = OnlineTable::from_mains(vec![main.clone()]);
        let delta: Vec<[u64; 1]> = delta_values::<u64>(n_d, lambda, main.dictionary().len(), 23)
            .into_iter()
            .map(|v| [v])
            .collect();
        table.insert_rows(&delta).expect("in-memory insert");
        let snap = table.snapshot();
        g.throughput(Throughput::Elements(snap.row_count() as u64));
        let eq = Query::scan(0).eq(probe);
        g.bench_with_input(BenchmarkId::new("scan_eq", delta_pct), &snap, |b, snap| {
            b.iter(|| black_box(eq.run(snap).into_rows()).len())
        });
        let range = Query::scan(0).between(lo, hi);
        g.bench_with_input(
            BenchmarkId::new("scan_range", delta_pct),
            &snap,
            |b, snap| b.iter(|| black_box(range.run(snap).into_rows()).len()),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_scan);
criterion_main!(benches);
