//! Criterion: morsel-driven parallel query execution vs the serial engine
//! (the ISSUE-10 tentpole). Three shapes at 1M rows — an eq scan, a fused
//! 2-column conjunction, and the predicate-free sum — each as `serial`
//! (no hint: the inline path that never touches the pool) and `poolN`
//! (`with_threads(N)`: morsels claimed by the shared worker pool).
//!
//! Every pool timing is preceded by an equivalence assert against the
//! serial output, so the gate can never reward a wrong parallel combine.
//!
//! Two more shapes time zone-map pruning on a second 1M-row table: a key
//! `lookup` and a 1 000-key `range1k` count, each over an `ascending` key
//! column (one zone block survives, so the read stays on the calling
//! thread) and over a `shuffled` permutation of the same keys (every block
//! survives — the no-prune control), each as `serial` and `pool2`. Every
//! answer is asserted against a naive fold over the generated rows before
//! timing.
//!
//! Interpreting the numbers: on the 1-core CI container the pool adds a
//! helper task on the caller's only core, so `poolN` gates *parity plus
//! bounded scheduling overhead*, not speedup — `pool1` in particular is
//! the serial code path and must track `serial` within noise. Speedup
//! only appears on multi-core hosts.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hyrise_core::OnlineTable;
use hyrise_query::Query;

const N: usize = 1_000_000;
const COLS: usize = 2;

/// 1M deterministic rows (xorshift64): col 0 in a ~1000-value domain so
/// predicates are selective, col 1 wide for the sum.
fn table() -> OnlineTable<u64> {
    let t = OnlineTable::new(COLS);
    let mut x = 0x5EED_0F3A_7B1C_55AAu64;
    for _ in 0..N {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        t.insert_row(&[x % 1009, x % 65_537]).unwrap();
    }
    let _ = t.merge(1, None);
    // A short raw tail on top of the merged main, like a live table.
    let mut y = 0xDEC0DEu64;
    for _ in 0..4096 {
        y ^= y << 13;
        y ^= y >> 7;
        y ^= y << 17;
        t.insert_row(&[y % 1009, y % 65_537]).unwrap();
    }
    t
}

/// 1M rows: col 0 the ascending keys `0..N`, col 1 the same keys shuffled
/// (`i * 7919 mod N`, a permutation since 7919 is coprime to `N`).
fn keyed_rows() -> Vec<[u64; 2]> {
    (0..N as u64).map(|i| [i, i * 7_919 % N as u64]).collect()
}

fn bench_zone_pruning(c: &mut Criterion) {
    let rows = keyed_rows();
    let t = OnlineTable::new(COLS);
    t.insert_rows(&rows).expect("in-memory insert");
    let _ = t.merge(1, None);
    let snap = t.snapshot();
    let mut g = c.benchmark_group("morsel_scan");
    g.sample_size(15);
    let key = 654_321u64;
    for (layout, col) in [("ascending", 0usize), ("shuffled", 1)] {
        for (shape, hi) in [("lookup", key), ("range1k", key + 999)] {
            let q = Query::scan(col).between(key, hi).count();
            let want = rows.iter().filter(|r| (key..=hi).contains(&r[col])).count();
            for (hint, label) in [(1usize, "serial"), (2, "pool2")] {
                let hq = q.clone().with_threads(hint);
                assert_eq!(hq.run(&snap).count(), want, "{shape}/{layout}/{label}");
                g.bench_with_input(
                    BenchmarkId::new(format!("{shape}/{layout}"), label),
                    &hq,
                    |b, q| b.iter(|| black_box(q.run(&snap))),
                );
            }
        }
    }
    g.finish();
}

fn bench_morsel_scan(c: &mut Criterion) {
    let t = table();
    let snap = t.snapshot();
    let mut g = c.benchmark_group("morsel_scan");
    g.sample_size(15);
    g.throughput(Throughput::Elements(N as u64));

    let shapes: Vec<(&str, Query<u64>)> = vec![
        ("eq", Query::scan(0).eq(500)),
        (
            "fused",
            Query::scan(0).between(100, 600).and(1).between(0, 40_000),
        ),
        ("sum", Query::scan(0).sum(1)),
    ];
    for (name, q) in shapes {
        let serial = q.run(&snap);
        for hint in [1usize, 2, 4] {
            // The gate must never reward a wrong parallel combine.
            assert_eq!(
                q.clone().with_threads(hint).run(&snap),
                serial,
                "{name} diverges at hint {hint}"
            );
        }
        g.bench_with_input(BenchmarkId::new(name, "serial"), &q, |b, q| {
            b.iter(|| black_box(q.run(&snap)))
        });
        for hint in [1usize, 2, 4] {
            let hq = q.clone().with_threads(hint);
            g.bench_with_input(
                BenchmarkId::new(name, format!("pool{hint}")),
                &hq,
                |b, q| b.iter(|| black_box(q.run(&snap))),
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_morsel_scan, bench_zone_pruning);
criterion_main!(benches);
