//! Criterion: the unified merge pipeline's two memory knobs.
//!
//! * **cold vs scratch** — the same 1M-row column merge with a fresh
//!   [`MergeScratch`] every iteration (every buffer heap-allocated) vs a
//!   warmed scratch whose caller recycles the retired output (steady-state
//!   zero allocation for dictionary/aux/output buffers).
//! * **unbudgeted vs budget1** — a 4-column, 1M-tuple table merged holding
//!   all four outputs before retiring them (the unbudgeted ~2x peak) vs
//!   merging and retiring column by column (a [`MergeBudget`] of one —
//!   the paper's Section 4 partial-column strategy), same total work.
//!
//! * **append** — the served shape: 1M ascending keys absorb 2% / 8% keys
//!   above them, so Stage 1b copies the whole main dictionary as its
//!   prefix. At 2% the codes keep their 20 bits and Stage 2 copies every
//!   full main block; at 8% the dictionary passes 2^20 entries, the width
//!   grows and every row is re-encoded. An in-bench check pins the output
//!   to `Naive`'s bytes and the copied rows to that split.
//!
//! Every axis at 2% and 8% delta. Inputs are immutable frozen deltas (the
//! freeze, Stage 1a, runs before timing), so iterations are repeatable; an
//! equivalence check pins cold and scratch outputs to the same bytes
//! before timing starts.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hyrise_bench::build_column;
use hyrise_core::{MergePipeline, MergeScratch, MergeStrategy};
use hyrise_storage::{FrozenDelta, MainPartition, ZONE_ROWS};

const N_M: usize = 1_000_000;
const LAMBDA: f64 = 0.1;
const TABLE_COLS: usize = 4;

fn bench_merge_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("merge_pipeline");
    g.sample_size(10);
    let pipe = MergePipeline::new(MergeStrategy::Optimized, 1);

    for delta_pct in [2usize, 8] {
        let n_d = N_M * delta_pct / 100;
        let (main, vals) = build_column::<u64>(N_M, n_d, LAMBDA, LAMBDA, 11);
        let delta = FrozenDelta::from_values(&vals);
        g.throughput(Throughput::Elements((N_M + n_d) as u64));

        // Equivalence: a cold and a warmed merge must produce identical bytes.
        {
            let cold = pipe.merge_column(&main, &delta, &mut MergeScratch::new());
            let mut scratch = MergeScratch::new();
            let a = pipe.merge_column(&main, &delta, &mut scratch);
            scratch.recycle_main(a.main);
            let b = pipe.merge_column(&main, &delta, &mut scratch);
            assert_eq!(
                cold.main.dictionary().values(),
                b.main.dictionary().values()
            );
            assert_eq!(
                cold.main.packed_codes().words(),
                b.main.packed_codes().words()
            );
        }

        g.bench_with_input(BenchmarkId::new("cold", delta_pct), &(), |b, _| {
            b.iter(|| {
                // Fresh arena each merge: dictionary, aux tables and output
                // words are all newly heap-allocated, output freed on drop.
                black_box(pipe.merge_column(&main, &delta, &mut MergeScratch::new()))
                    .main
                    .len()
            })
        });

        g.bench_with_input(BenchmarkId::new("scratch", delta_pct), &(), |b, _| {
            let mut scratch = MergeScratch::new();
            // Warm the arena to its fixed point before timing.
            for _ in 0..2 {
                let out = pipe.merge_column(&main, &delta, &mut scratch);
                scratch.recycle_main(out.main);
            }
            b.iter(|| {
                let out = pipe.merge_column(&main, &delta, &mut scratch);
                let n = out.main.len();
                scratch.recycle_main(out.main);
                black_box(n)
            })
        });

        // Table-shaped inputs: 4 columns splitting the same 1M tuples.
        let cols: Vec<(MainPartition<u64>, FrozenDelta<u64>)> = (0..TABLE_COLS as u64)
            .map(|i| {
                let (m, d) =
                    build_column::<u64>(N_M / TABLE_COLS, n_d / TABLE_COLS, LAMBDA, LAMBDA, 23 + i);
                (m, FrozenDelta::from_values(&d))
            })
            .collect();

        g.bench_with_input(BenchmarkId::new("unbudgeted", delta_pct), &(), |b, _| {
            let mut scratch = MergeScratch::new();
            for _ in 0..2 {
                let outs: Vec<_> = cols
                    .iter()
                    .map(|(m, d)| pipe.merge_column(m, d, &mut scratch))
                    .collect();
                for o in outs {
                    scratch.recycle_main(o.main);
                }
            }
            b.iter(|| {
                // All four outputs live until the table-wide commit point —
                // the unbudgeted peak working set.
                let outs: Vec<_> = cols
                    .iter()
                    .map(|(m, d)| pipe.merge_column(m, d, &mut scratch))
                    .collect();
                let n: usize = outs.iter().map(|o| o.main.len()).sum();
                for o in outs {
                    scratch.recycle_main(o.main);
                }
                black_box(n)
            })
        });

        g.bench_with_input(BenchmarkId::new("budget1", delta_pct), &(), |b, _| {
            let mut scratch = MergeScratch::new();
            for _ in 0..2 {
                for (m, d) in &cols {
                    let out = pipe.merge_column(m, d, &mut scratch);
                    scratch.recycle_main(out.main);
                }
            }
            b.iter(|| {
                // One column in flight at a time — the budget-of-1 peak.
                let mut n = 0usize;
                for (m, d) in &cols {
                    let out = pipe.merge_column(m, d, &mut scratch);
                    n += out.main.len();
                    scratch.recycle_main(out.main);
                }
                black_box(n)
            })
        });

        // The served shape: ascending keys, the delta's keys above them.
        let keys = MainPartition::from_values(&(0..N_M as u64).collect::<Vec<_>>());
        let appended =
            FrozenDelta::from_values(&(N_M as u64..(N_M + n_d) as u64).collect::<Vec<_>>());
        {
            let naive = MergePipeline::new(MergeStrategy::Naive, 1).merge_column(
                &keys,
                &appended,
                &mut MergeScratch::new(),
            );
            let out = pipe.merge_column(&keys, &appended, &mut MergeScratch::new());
            let copied = if out.stats.bits_after == keys.code_bits() {
                N_M / ZONE_ROWS * ZONE_ROWS
            } else {
                0
            };
            assert_eq!(out.stats.rows_copied, copied);
            assert_eq!(out.stats.rows_copied > 0, delta_pct == 2);
            assert_eq!(
                naive.main.dictionary().values(),
                out.main.dictionary().values()
            );
            assert_eq!(
                naive.main.packed_codes().words(),
                out.main.packed_codes().words()
            );
            assert_eq!(naive.main.zones(), out.main.zones());
        }

        g.bench_with_input(BenchmarkId::new("append", delta_pct), &(), |b, _| {
            let mut scratch = MergeScratch::new();
            for _ in 0..2 {
                let out = pipe.merge_column(&keys, &appended, &mut scratch);
                scratch.recycle_main(out.main);
            }
            b.iter(|| {
                let out = pipe.merge_column(&keys, &appended, &mut scratch);
                let n = out.main.len();
                scratch.recycle_main(out.main);
                black_box(n)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_merge_pipeline);
criterion_main!(benches);
