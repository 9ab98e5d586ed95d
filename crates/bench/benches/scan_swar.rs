//! Criterion: word-parallel SWAR scan kernels vs the scalar cursor
//! reference (the ISSUE-9 tentpole's perf claim: SWAR >= 2x scalar medians
//! at 1M rows). Every SWAR timing is preceded by an equivalence assert
//! against the scalar path, so the gate can never pass on a wrong answer.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hyrise_bitpack::{mask_words, rows_from_mask, BitPackedVec};

const N: usize = 1_000_000;

/// 1M codes in `[0, 2^bits)`, deterministic, with enough repetition that
/// eq probes hit (~N / 2^min(bits,16) matches).
fn codes(bits: u8, seed: u64) -> BitPackedVec {
    let mask = hyrise_bitpack::max_value_for_bits(bits);
    let mut v = BitPackedVec::with_capacity(bits, N);
    let mut x = seed | 1;
    for _ in 0..N {
        // xorshift64: cheap, full-period, no dependency on the rand crate's
        // distribution details staying stable across refreshes.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v.push(x & mask);
    }
    v
}

/// `(label, lo, hi)`: the code ranges [`skewed_codes`] loads with a fixed
/// share of the rows.
const DENSITY_RANGES: [(&str, u64, u64); 3] = [("0.1pct", 1, 2), ("10pct", 4, 5), ("50pct", 8, 9)];

/// 1M codes of which 0.1 % fall in `[1, 2]`, 10 % in `[4, 5]`, 50 % in
/// `[8, 9]` and the rest uniformly in `[16, 2^bits)` — a match density
/// that does not depend on the width.
fn skewed_codes(bits: u8, seed: u64) -> BitPackedVec {
    let mask = hyrise_bitpack::max_value_for_bits(bits);
    let mut v = BitPackedVec::with_capacity(bits, N);
    let mut x = seed | 1;
    for _ in 0..N {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let pick = (x >> 32) % 1000;
        let low = x & 1;
        v.push(match pick {
            0 => 1 + low,
            1..=100 => 4 + low,
            101..=600 => 8 + low,
            _ => 16 + (x >> 8) % (mask - 15),
        });
    }
    v
}

fn bench_scan_swar(c: &mut Criterion) {
    let mut g = c.benchmark_group("scan_swar");
    g.sample_size(15);
    g.throughput(Throughput::Elements(N as u64));

    for bits in [4u8, 12, 24] {
        let v = codes(bits, 0x5EED_0000 + bits as u64);
        let max = hyrise_bitpack::max_value_for_bits(bits);
        let probe = max / 3;
        // A ~10% selective range: wide enough to exercise the mask-to-row
        // materialization, narrow enough that it isn't the whole column.
        let (lo, hi) = (max / 4, max / 4 + max / 10);

        // Equivalence asserts — the gate must never reward a wrong kernel.
        let mut swar = Vec::new();
        let mut scalar = Vec::new();
        v.select_eq_into(probe, 0, &mut swar);
        v.select_eq_scalar_into(probe, 0, &mut scalar);
        assert_eq!(swar, scalar, "select_eq diverges at {bits} bits");
        swar.clear();
        scalar.clear();
        v.select_in_range_into(lo, hi, 0, &mut swar);
        v.select_in_range_scalar_into(lo, hi, 0, &mut scalar);
        assert_eq!(swar, scalar, "select_in_range diverges at {bits} bits");
        assert_eq!(v.count_eq(probe), v.count_eq_scalar(probe));
        assert_eq!(v.count_in_range(lo, hi), v.count_in_range_scalar(lo, hi));
        assert_eq!(v.sum(), v.sum_scalar());

        let mut out = Vec::with_capacity(N);
        g.bench_with_input(BenchmarkId::new("eq_swar", bits), &v, |b, v| {
            b.iter(|| {
                out.clear();
                v.select_eq_into(probe, 0, &mut out);
                black_box(out.len())
            })
        });
        g.bench_with_input(BenchmarkId::new("eq_scalar", bits), &v, |b, v| {
            b.iter(|| {
                out.clear();
                v.select_eq_scalar_into(probe, 0, &mut out);
                black_box(out.len())
            })
        });
        g.bench_with_input(BenchmarkId::new("range_swar", bits), &v, |b, v| {
            b.iter(|| {
                out.clear();
                v.select_in_range_into(lo, hi, 0, &mut out);
                black_box(out.len())
            })
        });
        g.bench_with_input(BenchmarkId::new("range_scalar", bits), &v, |b, v| {
            b.iter(|| {
                out.clear();
                v.select_in_range_scalar_into(lo, hi, 0, &mut out);
                black_box(out.len())
            })
        });

        // Fused 3-column conjunction: AND per-word masks, then materialize
        // once — vs the scan-then-refine loop the executor used before.
        let cols: Vec<BitPackedVec> = (0..3u64)
            .map(|k| codes(bits, 0xC0_FFEE + 31 * k + bits as u64))
            .collect();
        // ~40% selective per column => ~6% conjunction.
        let (flo, fhi) = (max / 5, max / 5 + 2 * (max / 5).max(1));
        let mut masks = vec![0u64; mask_words(N)];
        let fused = |masks: &mut Vec<u64>, out: &mut Vec<usize>| {
            cols[0].fill_range_mask(flo, fhi, masks);
            cols[1].and_range_mask(flo, fhi, masks);
            cols[2].and_range_mask(flo, fhi, masks);
            out.clear();
            rows_from_mask(masks, N, 0, out);
        };
        let refine = |out: &mut Vec<usize>| {
            out.clear();
            cols[0].select_in_range_scalar_into(flo, fhi, 0, out);
            for col in &cols[1..] {
                out.retain(|&r| {
                    let c = col.get(r);
                    (flo..=fhi).contains(&c)
                });
            }
        };
        fused(&mut masks, &mut swar);
        refine(&mut scalar);
        assert_eq!(swar, scalar, "fused conjunction diverges at {bits} bits");

        g.bench_with_input(BenchmarkId::new("fused_swar", bits), &cols, |b, _| {
            b.iter(|| {
                fused(&mut masks, &mut out);
                black_box(out.len())
            })
        });
        g.bench_with_input(BenchmarkId::new("fused_scalar", bits), &cols, |b, _| {
            b.iter(|| {
                refine(&mut out);
                black_box(out.len())
            })
        });
    }

    // Dense mask production at fixed match densities. The data is skewed
    // so three disjoint two-code ranges hold 0.1 %, 10 % and 50 % of the
    // rows at every width; the AND pass refines a ~50 % random seed mask
    // (no zero words, so every block is read).
    for bits in [7u8, 10, 20] {
        let v = skewed_codes(bits, 0xD15E_0000 + bits as u64);
        let seed = {
            let other = codes(bits, 0x5EED_A2D0 + bits as u64);
            let max = hyrise_bitpack::max_value_for_bits(bits);
            let mut m = vec![0u64; mask_words(N)];
            other.fill_range_mask(0, max / 2, &mut m);
            m
        };
        let mut masks = vec![0u64; mask_words(N)];
        for (label, lo, hi) in DENSITY_RANGES {
            let want = v.count_in_range_scalar(lo, hi);
            v.fill_range_mask(lo, hi, &mut masks);
            let mut rows = Vec::new();
            rows_from_mask(&masks, N, 0, &mut rows);
            let mut scalar = Vec::new();
            v.select_in_range_scalar_into(lo, hi, 0, &mut scalar);
            assert_eq!(rows, scalar, "mask_fill diverges at {bits} bits, {label}");
            assert_eq!(rows.len(), want);
            masks.copy_from_slice(&seed);
            v.and_range_mask(lo, hi, &mut masks);
            rows.clear();
            rows_from_mask(&masks, N, 0, &mut rows);
            scalar.retain(|&r| seed[r / 64] >> (r % 64) & 1 == 1);
            assert_eq!(rows, scalar, "mask_and diverges at {bits} bits, {label}");

            g.bench_with_input(
                BenchmarkId::new(format!("mask_fill/{bits}"), label),
                &v,
                |b, v| {
                    b.iter(|| {
                        v.fill_range_mask(lo, hi, &mut masks);
                        black_box(masks[N / 128])
                    })
                },
            );
            g.bench_with_input(
                BenchmarkId::new(format!("mask_and/{bits}"), label),
                &v,
                |b, v| {
                    b.iter(|| {
                        masks.copy_from_slice(&seed);
                        v.and_range_mask(lo, hi, &mut masks);
                        black_box(masks[N / 128])
                    })
                },
            );
        }
    }

    // The executor's unfiltered aggregate: decode every code and gather
    // its dictionary value. `visitor` is the masked code visitor over an
    // all-ones mask; `cursor` is the per-row loop it replaced (sequential
    // cursor, one validity probe and one bounds-checked gather per row).
    {
        let bits = 17u8;
        let v = codes(bits, 0xA66_0000);
        let dict: Vec<u64> = (0..1u64 << bits).map(|i| i * 3 + 1).collect();
        let valid = vec![u64::MAX; mask_words(N)];
        let cursor_sum = || {
            let mut cur = v.cursor_at(0);
            let mut acc = 0u128;
            for row in 0..N {
                let code = cur.next_value();
                if valid[row / 64] >> (row % 64) & 1 == 1 {
                    acc += dict[code as usize] as u128;
                }
            }
            acc
        };
        let visitor_sum = || {
            let mut acc = 0u128;
            v.for_each_masked_at(0, N, &valid, |code| acc += dict[code as usize] as u128);
            acc
        };
        assert_eq!(visitor_sum(), cursor_sum(), "agg_sum diverges");
        g.bench_function(BenchmarkId::new("agg_sum/17", "visitor"), |b| {
            b.iter(|| black_box(visitor_sum()))
        });
        g.bench_function(BenchmarkId::new("agg_sum/17", "cursor"), |b| {
            b.iter(|| black_box(cursor_sum()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_scan_swar);
criterion_main!(benches);
