//! Criterion: sharded fan-out scaling — the same logical table partitioned
//! over 1/2/4/8 shards, measuring cross-shard scan/aggregate fan-out and
//! batched routed inserts. On a single core the fan-out threads only add
//! coordination overhead (flat-to-slower curves are expected, as with the
//! parallel dict-merge bench); on multi-core hardware throughput should
//! grow with the shard count until memory bandwidth saturates.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hyrise_core::shard::ShardedTable;
use hyrise_query::Query;

const TOTAL_ROWS: usize = 200_000;
const KEY_DOMAIN: u64 = 1_000;

fn loaded(shards: usize) -> ShardedTable<u64> {
    let t = ShardedTable::builder()
        .shards(shards)
        .columns(2)
        .build()
        .unwrap();
    let rows: Vec<[u64; 2]> = (0..TOTAL_ROWS as u64)
        .map(|i| [i % KEY_DOMAIN, i.wrapping_mul(2654435761) % 100_000])
        .collect();
    t.insert_rows(&rows).unwrap();
    t.merge_all(1).unwrap();
    t
}

fn bench_shard_scale(c: &mut Criterion) {
    let mut g = c.benchmark_group("shard_scale");
    g.sample_size(10);

    for shards in [1usize, 2, 4, 8] {
        let t = loaded(shards);
        g.throughput(Throughput::Elements(TOTAL_ROWS as u64));
        let scan = Query::scan(0).eq(7);
        g.bench_with_input(BenchmarkId::new("scan_eq", shards), &t, |b, t| {
            b.iter(|| black_box(scan.run(t).into_rows()).len())
        });
        let sum = Query::scan(0).sum(1);
        g.bench_with_input(BenchmarkId::new("sum", shards), &t, |b, t| {
            b.iter(|| black_box(sum.run(t).sum()))
        });
    }

    // Routed batched insert: a fresh (empty-shard) table per iteration so
    // the delta does not grow across samples; table construction is cheap
    // next to 5K routed tail appends.
    let batch: Vec<[u64; 2]> = (0..5_000u64).map(|i| [i % KEY_DOMAIN, i]).collect();
    for shards in [1usize, 2, 4, 8] {
        g.throughput(Throughput::Elements(batch.len() as u64));
        g.bench_with_input(
            BenchmarkId::new("insert_batch", shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let t = ShardedTable::<u64>::builder()
                        .shards(shards)
                        .columns(2)
                        .build()
                        .unwrap();
                    let ids = t.insert_rows(&batch).unwrap();
                    black_box(ids.len())
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_shard_scale);
criterion_main!(benches);
