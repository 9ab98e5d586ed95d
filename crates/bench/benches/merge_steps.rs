//! Criterion: full column merges — naive vs optimized vs parallel (the
//! micro-scale backing of Figure 7), each timed from the freeze (Stage 1a)
//! through Stage 2.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hyrise_bench::{build_column, freeze_and_merge};
use hyrise_core::{MergePipeline, MergeScratch, MergeStrategy};

fn bench_merge(c: &mut Criterion) {
    let mut g = c.benchmark_group("merge_column");
    g.sample_size(10);
    let n_m = 1_000_000usize;
    let n_d = 50_000usize;
    for lambda in [0.01f64, 0.5] {
        let (main, delta) = build_column::<u64>(n_m, n_d, lambda, lambda, 11);
        g.throughput(Throughput::Elements((n_m + n_d) as u64));
        let label = format!("lambda{}", (lambda * 100.0) as u32);
        for (name, strategy, threads) in [
            ("naive_1t", MergeStrategy::Naive, 1usize),
            ("optimized_1t", MergeStrategy::Optimized, 1),
            ("parallel_4t", MergeStrategy::Parallel, 4),
            ("parallel_8t", MergeStrategy::Parallel, 8),
        ] {
            let pipeline = MergePipeline::new(strategy, threads);
            g.bench_with_input(BenchmarkId::new(name, &label), &(), |b, _| {
                b.iter(|| {
                    black_box(freeze_and_merge(
                        &pipeline,
                        &main,
                        &delta,
                        &mut MergeScratch::new(),
                    ))
                    .main
                    .len()
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_merge);
criterion_main!(benches);
