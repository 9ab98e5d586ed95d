//! Ablations of the design choices DESIGN.md calls out.
//!
//! 1. **Auxiliary-table entry width** — the paper's model charges auxiliary
//!    entries at `E'_C` bits (Eqs. 9/10); this implementation stores them as
//!    plain `u32`. Packed entries shrink the table (better cache residency at
//!    the Figure-9 cliff) but add an unpack to every Step-2 lookup. This
//!    ablation measures both variants of Step 2.
//! 2. **Three-phase dictionary merge thread sweep** — the cost of the
//!    "twice as many comparisons" overhead vs thread count.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hyrise_bench::build_column;
use hyrise_bitpack::{bits_for, BitPackedVec};
use hyrise_core::merge_dictionaries;
use hyrise_core::parallel::merge_dictionaries_parallel_exact;
use hyrise_storage::{FrozenDelta, MainPartition};

/// Step 2 with plain `u32` auxiliary tables (the shipped implementation).
fn step2_u32_aux(main: &MainPartition<u64>, x_m: &[u32], bits_after: u8) -> BitPackedVec {
    let mut out = BitPackedVec::zeroed(bits_after, main.len());
    let mut regions = out.split_mut(1).into_regions();
    let region = regions.first_mut().expect("non-empty");
    let mut cur = main.packed_codes().cursor_at(0);
    region.fill_sequential(|_| x_m[cur.next_value() as usize] as u64);
    drop(regions);
    out
}

/// Step 2 with the auxiliary table bit-packed at `E'_C` bits (the paper's
/// accounting): 4x smaller aux for 20-bit codes, one extra unpack per tuple.
fn step2_packed_aux(
    main: &MainPartition<u64>,
    x_m_packed: &BitPackedVec,
    bits_after: u8,
) -> BitPackedVec {
    let mut out = BitPackedVec::zeroed(bits_after, main.len());
    let mut regions = out.split_mut(1).into_regions();
    let region = regions.first_mut().expect("non-empty");
    let mut cur = main.packed_codes().cursor_at(0);
    region.fill_sequential(|_| x_m_packed.get(cur.next_value() as usize));
    drop(regions);
    out
}

fn bench_aux_width(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_aux_width");
    g.sample_size(10);
    let n_m = 2_000_000usize;
    for lambda in [0.05f64, 0.5] {
        let (main, delta) = build_column::<u64>(n_m, n_m / 20, lambda, lambda, 41);
        let frozen = FrozenDelta::from_values(&delta);
        let dm = merge_dictionaries(main.dictionary().values(), frozen.dict().values());
        let bits_after = bits_for(dm.merged.len());
        let packed: BitPackedVec = BitPackedVec::from_slice(
            bits_after,
            &dm.x_m.iter().map(|x| *x as u64).collect::<Vec<_>>(),
        );
        let label = format!("lambda{}", (lambda * 100.0) as u32);
        g.throughput(Throughput::Elements(n_m as u64));
        g.bench_with_input(BenchmarkId::new("u32_aux", &label), &(), |b, _| {
            b.iter(|| black_box(step2_u32_aux(&main, &dm.x_m, bits_after)).len())
        });
        g.bench_with_input(BenchmarkId::new("packed_aux", &label), &(), |b, _| {
            b.iter(|| black_box(step2_packed_aux(&main, &packed, bits_after)).len())
        });
    }
    g.finish();
}

fn bench_three_phase_threads(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_three_phase_threads");
    g.sample_size(10);
    let (main, delta) = build_column::<u64>(4_000_000, 4_000_000, 1.0, 1.0, 77);
    let u_m = main.dictionary().values();
    let frozen = FrozenDelta::from_values(&delta);
    let u_d = frozen.dict().values();
    g.throughput(Throughput::Elements((u_m.len() + u_d.len()) as u64));
    for threads in [1usize, 2, 4, 8, 16] {
        g.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    black_box(merge_dictionaries_parallel_exact(u_m, u_d, threads))
                        .merged
                        .len()
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_aux_width, bench_three_phase_threads);
criterion_main!(benches);
