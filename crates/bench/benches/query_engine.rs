//! Criterion: dictionary value-id pushdown vs naive decode scan.
//!
//! The unified `Query` engine rewrites equality/range predicates into
//! dictionary value-id ranges and scans the bit-packed main partition in
//! code space (`value_id` series); the `decode` series is the strawman the
//! paper argues against — materialize every tuple through the dictionary
//! and compare values. Both run over 1M main rows (lambda = 1%) with a
//! 0/2/8% uncompressed delta tail, the range selecting ~5% of the
//! dictionary. The pushdown win is the whole point of scanning compressed
//! data (Section 3); the delta sweep shows the value-comparison fallback's
//! growing share.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hyrise_bench::{build_column, delta_values};
use hyrise_core::{OnlineTable, TableSnapshot};
use hyrise_query::Query;
use hyrise_storage::MainPartition;

/// One column: `main` bulk-loaded, `delta` appended to the raw tail.
fn snapshot_of(main: MainPartition<u64>, delta: &[u64]) -> TableSnapshot<u64> {
    let table = OnlineTable::from_mains(vec![main]);
    let rows: Vec<[u64; 1]> = delta.iter().map(|&v| [v]).collect();
    table.insert_rows(&rows).expect("in-memory insert");
    table.snapshot()
}

/// The naive path: decode every tuple (code -> dictionary -> value on
/// main, raw value on delta) and compare in value space.
fn naive_decode_scan(snap: &TableSnapshot<u64>, lo: u64, hi: u64) -> Vec<usize> {
    let col = snap.col(0);
    let main = col.main();
    let mut out = Vec::new();
    for i in 0..col.len() {
        let v = if i < main.len() {
            main.get(i)
        } else {
            col.get(i)
        };
        if v >= lo && v <= hi {
            out.push(i);
        }
    }
    out
}

fn bench_query_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("query_engine");
    g.sample_size(15);
    let n_m = 1_000_000usize;
    let lambda = 0.01f64;
    let (main, _) = build_column::<u64>(n_m, 1, lambda, lambda, 19);
    let u_m = main.dictionary().len();
    let lo = main.dictionary().value_at((u_m / 3) as u32);
    let hi = main.dictionary().value_at((u_m / 3 + u_m / 20) as u32);

    for delta_pct in [0usize, 2, 8] {
        let n_d = n_m * delta_pct / 100;
        let snap = snapshot_of(main.clone(), &delta_values::<u64>(n_d, lambda, u_m, 23));
        g.throughput(Throughput::Elements(snap.row_count() as u64));
        let q = Query::scan(0).between(lo, hi);
        g.bench_with_input(BenchmarkId::new("value_id", delta_pct), &snap, |b, snap| {
            b.iter(|| black_box(q.run(snap).into_rows()).len())
        });
        g.bench_with_input(BenchmarkId::new("decode", delta_pct), &snap, |b, snap| {
            b.iter(|| black_box(naive_decode_scan(snap, lo, hi)).len())
        });
    }

    // Both paths must agree — a bench that silently diverges measures
    // nothing.
    let q = Query::scan(0).between(lo, hi);
    let snap = snapshot_of(main, &delta_values::<u64>(10_000, lambda, u_m, 23));
    assert_eq!(q.run(&snap).into_rows(), naive_decode_scan(&snap, lo, hi));
    g.finish();
}

criterion_group!(benches, bench_query_engine);
criterion_main!(benches);
