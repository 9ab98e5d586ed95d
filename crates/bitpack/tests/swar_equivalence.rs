//! Kernel-equivalence suite: for every width 1..=64 and arbitrary
//! data/ranges, the SWAR kernels must match the scalar `SeqCursor`
//! reference exactly — positions, counts, and sums — including codes that
//! straddle a word boundary and the final partial window.
//!
//! Two layers:
//!
//! * `proptest!` cases draw a width, data, and predicate bounds together,
//!   so the word-boundary phases exercised follow the width distribution.
//! * An exhaustive deterministic sweep runs *every* width (the proptest
//!   sampler is not guaranteed to visit all 64) against data shaped to hit
//!   the straddle cases: lengths chosen off multiples of `floor(64/bits)`
//!   so the last window is partial.

use hyrise_bitpack::{mask_count, mask_words, max_value_for_bits, rows_from_mask, BitPackedVec};
use proptest::prelude::*;

fn width_data_and_bounds() -> impl Strategy<Value = (u8, Vec<u64>, u64, u64)> {
    (1u8..=64).prop_flat_map(|bits| {
        let mask = max_value_for_bits(bits);
        (
            Just(bits),
            prop::collection::vec(0..=mask, 0..400),
            0..=mask,
            0..=mask,
        )
    })
}

proptest! {
    #[test]
    fn select_kernels_match_scalar((bits, values, a, b) in width_data_and_bounds()) {
        let v = BitPackedVec::from_slice(bits, &values);
        let (lo, hi) = (a.min(b), a.max(b));

        let (mut swar, mut scalar) = (Vec::new(), Vec::new());
        v.select_in_range_into(lo, hi, 7, &mut swar);
        v.select_in_range_scalar_into(lo, hi, 7, &mut scalar);
        prop_assert_eq!(&swar, &scalar);

        // The inverted range matches nothing on both paths.
        let (mut swar, mut scalar) = (Vec::new(), Vec::new());
        v.select_in_range_into(hi.wrapping_add(1).max(1), 0, 0, &mut swar);
        v.select_in_range_scalar_into(hi.wrapping_add(1).max(1), 0, 0, &mut scalar);
        prop_assert_eq!(&swar, &scalar);

        let code = values.first().copied().unwrap_or(0);
        let (mut swar, mut scalar) = (Vec::new(), Vec::new());
        v.select_eq_into(code, 0, &mut swar);
        v.select_eq_scalar_into(code, 0, &mut scalar);
        prop_assert_eq!(&swar, &scalar);
    }

    #[test]
    fn count_and_sum_match_scalar((bits, values, a, b) in width_data_and_bounds()) {
        let v = BitPackedVec::from_slice(bits, &values);
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert_eq!(v.count_in_range(lo, hi), v.count_in_range_scalar(lo, hi));
        let code = values.last().copied().unwrap_or(0);
        prop_assert_eq!(v.count_eq(code), v.count_eq_scalar(code));
        prop_assert_eq!(v.sum(), v.sum_scalar());
    }

    #[test]
    fn masks_match_select((bits, values, a, b) in width_data_and_bounds()) {
        let v = BitPackedVec::from_slice(bits, &values);
        let (lo, hi) = (a.min(b), a.max(b));
        let mut masks = vec![0u64; mask_words(v.len())];
        v.fill_range_mask(lo, hi, &mut masks);
        let mut from_mask = Vec::new();
        rows_from_mask(&masks, v.len(), 0, &mut from_mask);
        let mut direct = Vec::new();
        v.select_in_range_scalar_into(lo, hi, 0, &mut direct);
        prop_assert_eq!(&from_mask, &direct);
        prop_assert_eq!(mask_count(&masks), direct.len());

        // AND-ing the same predicate into its own fill is idempotent.
        let before = masks.clone();
        v.and_range_mask(lo, hi, &mut masks);
        prop_assert_eq!(masks, before);
    }

    #[test]
    fn and_mask_is_intersection(
        (bits, values, a, b) in width_data_and_bounds(),
        c in 0u64..,
        d in 0u64..,
    ) {
        let v = BitPackedVec::from_slice(bits, &values);
        let mask = max_value_for_bits(bits);
        let (lo1, hi1) = (a.min(b), a.max(b));
        let (lo2, hi2) = ((c & mask).min(d & mask), (c & mask).max(d & mask));
        let mut masks = vec![0u64; mask_words(v.len())];
        v.fill_range_mask(lo1, hi1, &mut masks);
        v.and_range_mask(lo2, hi2, &mut masks);
        let mut rows = Vec::new();
        rows_from_mask(&masks, v.len(), 0, &mut rows);
        let want: Vec<usize> = values
            .iter()
            .enumerate()
            .filter(|(_, x)| **x >= lo1 && **x <= hi1 && **x >= lo2 && **x <= hi2)
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(rows, want);
    }
}

/// Deterministic pseudo-random data, reproducible across runs.
fn sample(bits: u8, n: usize, seed: u64) -> (BitPackedVec, Vec<u64>) {
    let mask = max_value_for_bits(bits);
    let data: Vec<u64> = (0..n as u64)
        .map(|i| (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask)
        .collect();
    (BitPackedVec::from_slice(bits, &data), data)
}

#[test]
fn every_width_exhaustive_sweep() {
    for bits in 1..=64u8 {
        let m = 64 / bits as usize;
        // Lengths that leave a partial final window (and one empty vector).
        for n in [0usize, 1, m, m + 1, 5 * m + m.saturating_sub(1).max(1), 257] {
            let (v, data) = sample(bits, n, bits as u64);
            let mask = max_value_for_bits(bits);
            let code = data.get(n / 2).copied().unwrap_or(0);
            let bounds = [
                (0u64, mask),
                (mask / 3, 2 * (mask / 3).max(1)),
                (code, code),
                (mask, mask),
                (1, 0), // inverted
            ];
            for (lo, hi) in bounds {
                let (mut swar, mut scalar) = (Vec::new(), Vec::new());
                v.select_in_range_into(lo, hi, 0, &mut swar);
                v.select_in_range_scalar_into(lo, hi, 0, &mut scalar);
                assert_eq!(swar, scalar, "width {bits}, n {n}, range {lo}..={hi}");
                assert_eq!(
                    v.count_in_range(lo, hi),
                    v.count_in_range_scalar(lo, hi),
                    "width {bits}, n {n}, range {lo}..={hi}"
                );
            }
            let (mut swar, mut scalar) = (Vec::new(), Vec::new());
            v.select_eq_into(code, 11, &mut swar);
            v.select_eq_scalar_into(code, 11, &mut scalar);
            assert_eq!(swar, scalar, "width {bits}, n {n}, eq {code}");
            assert_eq!(
                v.count_eq(code),
                v.count_eq_scalar(code),
                "width {bits}, n {n}"
            );
            assert_eq!(v.sum(), v.sum_scalar(), "width {bits}, n {n}");
        }
    }
}

#[test]
fn every_width_all_extremes() {
    // All-zero and all-max data stress the eq/ge boundary lanes and the
    // sum fold's worst-case magnitudes at every width.
    for bits in 1..=64u8 {
        let mask = max_value_for_bits(bits);
        for fill in [0u64, mask] {
            let data = vec![fill; 193];
            let v = BitPackedVec::from_slice(bits, &data);
            assert_eq!(v.count_eq(fill), 193, "width {bits}, fill {fill}");
            let other = (fill ^ 1) & mask;
            assert_eq!(
                v.count_eq(other),
                v.count_eq_scalar(other),
                "width {bits}, fill {fill}, other {other}"
            );
            assert_eq!(v.sum(), 193 * fill as u128, "width {bits}, fill {fill}");
            let mut rows = Vec::new();
            v.select_in_range_into(fill, fill, 0, &mut rows);
            assert_eq!(rows.len(), 193, "width {bits}, fill {fill}");
        }
    }
}

/// SplitMix-style row hash for reproducible match patterns.
fn row_hash(i: usize, salt: u64) -> u64 {
    let mut z = (i as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 29)
}

/// How many rows of a vector the predicate under test should match.
#[derive(Clone, Copy, Debug)]
enum Density {
    None,
    OneRow,
    Tenth,
    Half,
    All,
}

impl Density {
    fn hits(self, i: usize, n: usize) -> bool {
        match self {
            Density::None => false,
            Density::OneRow => i == (2 * n) / 3,
            Density::Tenth => row_hash(i, 10).is_multiple_of(10),
            Density::Half => row_hash(i, 2).is_multiple_of(2),
            Density::All => true,
        }
    }
}

/// `n` codes of which exactly the rows `density` picks lie in `[lo, hi]`
/// (cycling through the range's endpoints and the codes just outside it),
/// or `None` when the width has no code outside the range to miss with.
fn data_with_density(bits: u8, n: usize, lo: u64, hi: u64, density: Density) -> Option<Vec<u64>> {
    let max = max_value_for_bits(bits);
    let inside = [lo, hi, lo + (hi - lo) / 2];
    let mut outside = Vec::new();
    if lo > 0 {
        outside.extend([lo - 1, 0]);
    }
    if hi < max {
        outside.extend([hi + 1, max]);
    }
    (0..n)
        .map(|i| {
            if density.hits(i, n) {
                Some(inside[i % 3])
            } else {
                outside.get(i % outside.len().max(1)).copied()
            }
        })
        .collect()
}

/// The scalar reference: codes of rows `start..end` decoded by the
/// sequential cursor.
fn cursor_codes(v: &BitPackedVec, start: usize, end: usize) -> Vec<u64> {
    let mut cur = v.cursor_at(start);
    (start..end).map(|_| cur.next_value()).collect()
}

fn mask_of(rows: usize, set: impl Fn(usize) -> bool) -> Vec<u64> {
    let mut m = vec![0u64; mask_words(rows)];
    for r in (0..rows).filter(|&r| set(r)) {
        m[r / 64] |= 1 << (r % 64);
    }
    m
}

/// The dense mask producer (`fill` / `and`) and the masked code visitor are
/// pinned to the scalar cursor for every width, match density and range
/// shape: the whole vector, a 64-aligned `_at` start whose last block is
/// partial, a start in the vector's last blocks, and a vector shorter than
/// one block — with AND seeds that hold zero words, all-ones words and
/// mixed words.
#[test]
fn dense_masks_and_masked_visitor_match_the_cursor_for_every_width_density_and_shape() {
    const SENTINEL: u64 = 0xA5A5_5A5A_A5A5_5A5A;
    let shapes = [
        (517usize, 0usize, 517usize),
        (517, 64, 517),
        (517, 384, 500),
        (40, 0, 40),
    ];
    let densities = [
        Density::None,
        Density::OneRow,
        Density::Tenth,
        Density::Half,
        Density::All,
    ];
    for bits in 1..=64u8 {
        let max = max_value_for_bits(bits);
        // An equality probe, a proper range and (width permitting) a range
        // touching the top of the domain.
        let ranges = [
            (max / 2, max / 2),
            (max / 3, max / 3 + max / 4),
            (max - max / 5, max),
        ];
        for (lo, hi) in ranges {
            for density in densities {
                for (n, start, end) in shapes {
                    let Some(data) = data_with_density(bits, n, lo, hi, density) else {
                        continue;
                    };
                    let ctx = format!(
                        "width {bits}, {lo}..={hi}, {density:?}, rows {start}..{end} of {n}"
                    );
                    let v = BitPackedVec::from_slice(bits, &data);
                    let codes = cursor_codes(&v, start, end);
                    let rows = end - start;
                    let words = mask_words(rows);
                    let want = mask_of(rows, |r| (lo..=hi).contains(&codes[r]));

                    // Fill: exact mask, nothing written past it.
                    let mut got = vec![SENTINEL; words + 1];
                    v.fill_range_mask_at(lo, hi, start, end, &mut got);
                    assert_eq!(&got[..words], &want[..], "fill: {ctx}");
                    assert_eq!(got[words], SENTINEL, "fill wrote past the mask: {ctx}");

                    // AND over seeds with zero, all-ones and mixed words.
                    let seeds = [
                        mask_of(rows, |_| true),
                        mask_of(rows, |_| false),
                        mask_of(rows, |r| (r / 64).is_multiple_of(2)),
                        mask_of(rows, |r| row_hash(r, bits as u64).is_multiple_of(3)),
                        mask_of(rows, |r| {
                            (r / 64) % 3 == 1 || row_hash(r, 7).is_multiple_of(2)
                        }),
                    ];
                    for seed in &seeds {
                        let mut got = seed.clone();
                        got.push(SENTINEL);
                        v.and_range_mask_at(lo, hi, start, end, &mut got);
                        let both: Vec<u64> = seed.iter().zip(&want).map(|(s, w)| s & w).collect();
                        assert_eq!(&got[..words], &both[..], "and: {ctx}");
                        assert_eq!(got[words], SENTINEL, "and wrote past the mask: {ctx}");
                    }

                    // Visitor: the predicate's own mask and every seed.
                    for mask in seeds.iter().chain([&want]) {
                        let mut seen = Vec::new();
                        v.for_each_masked_at(start, end, mask, |code| seen.push(code));
                        let expect: Vec<u64> = (0..rows)
                            .filter(|r| mask[r / 64] >> (r % 64) & 1 == 1)
                            .map(|r| codes[r])
                            .collect();
                        assert_eq!(seen, expect, "visitor: {ctx}");
                    }
                }
            }
        }
    }
}

proptest! {
    /// Arbitrary data and arbitrary masks: the visitor hands out exactly the
    /// cursor's codes of the set rows, in row order.
    #[test]
    fn masked_visitor_matches_cursor(
        (bits, values, _, _) in width_data_and_bounds(),
        mask_seed in any::<u64>(),
        shape in 0u8..4,
    ) {
        let v = BitPackedVec::from_slice(bits, &values);
        let n = v.len();
        let mask = mask_of(n, |r| match shape {
            0 => true,
            1 => (r / 64).is_multiple_of(2),
            2 => row_hash(r, mask_seed).is_multiple_of(2),
            _ => row_hash(r / 64, mask_seed).is_multiple_of(3) || row_hash(r, mask_seed).is_multiple_of(5),
        });
        let mut seen = Vec::new();
        v.for_each_masked_at(0, n, &mask, |code| seen.push(code));
        let expect: Vec<u64> = (0..n)
            .filter(|r| mask[r / 64] >> (r % 64) & 1 == 1)
            .map(|r| values[r])
            .collect();
        prop_assert_eq!(seen, expect);
    }
}
