//! Criterion: the `T_U` path — delta inserts (raw append + CSB+ insert)
//! across value widths and duplicate ratios (the "Update Delta" bars of
//! Figures 7/8).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hyrise_bench::{delta_values, time_delta_updates};
use hyrise_storage::{Value, V16};

fn bench_insert<V: Value>(
    g: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>,
    lambda: f64,
) {
    let n = 100_000usize;
    let vals: Vec<V> = delta_values(n, lambda, 0, 13);
    g.throughput(Throughput::Elements(n as u64));
    let label = format!("{}B/lambda{}", V::BYTES, (lambda * 100.0) as u32);
    g.bench_with_input(BenchmarkId::new("insert", label), &vals, |b, vals| {
        b.iter(|| black_box(time_delta_updates(vals).0.unique_len()))
    });
}

fn bench_delta(c: &mut Criterion) {
    let mut g = c.benchmark_group("delta_insert");
    g.sample_size(15);
    for lambda in [0.01f64, 1.0] {
        bench_insert::<u32>(&mut g, lambda);
        bench_insert::<u64>(&mut g, lambda);
        bench_insert::<V16>(&mut g, lambda);
    }
    g.finish();
}

criterion_group!(benches, bench_delta);
criterion_main!(benches);
