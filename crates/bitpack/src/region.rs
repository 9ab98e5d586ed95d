//! Word-aligned mutable regions for the parallel Step 2 (Section 6.2.2).
//!
//! The parallel merge assigns each thread `N'_M / N_T` tuples; each thread
//! writes the bit-packed codes of its tuple range. Two threads must never
//! touch the same `u64` word, so ranges are cut at indices that are multiples
//! of 64: the bit offset `i * bits` of such an index is a multiple of 64 for
//! every width, hence every region begins exactly at a word boundary and the
//! underlying buffer can be handed out as disjoint `&mut [u64]` slices.

use crate::vec::{set_in_words, BitPackedVec};
use crate::width::max_value_for_bits;

/// A disjoint writable window of a [`BitPackedVec`], covering logical indices
/// `[start_index, start_index + len)`. Produced by [`BitPackedVec::split_mut`].
pub struct BitRegion<'a> {
    words: &'a mut [u64],
    bits: u8,
    start_index: usize,
    len: usize,
}

impl BitRegion<'_> {
    /// Global index of the first value in this region.
    #[inline]
    pub fn start_index(&self) -> usize {
        self.start_index
    }

    /// Number of values in this region.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the region contains no values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Write `value` at *local* index `i` (i.e. global `start_index + i`).
    ///
    /// # Panics
    /// If `i >= len()` or `value` does not fit the width.
    #[inline]
    pub fn set(&mut self, i: usize, value: u64) {
        assert!(
            i < self.len,
            "local index {i} out of region bounds (len {})",
            self.len
        );
        let mask = max_value_for_bits(self.bits);
        assert!(
            value <= mask,
            "value {value} does not fit in {} bits",
            self.bits
        );
        set_in_words(self.words, self.bits, i, value);
    }

    /// Fill the whole region front to back with `next(global_index)`, using
    /// an incremental cursor (one shift-add per element, OR-only stores).
    /// This is the parallel Step 2 write path.
    ///
    /// Requires the region's words to be zero (as produced by
    /// [`BitPackedVec::zeroed`](crate::BitPackedVec::zeroed)): values are
    /// OR-ed in without clearing.
    ///
    /// # Panics
    /// If any produced value does not fit the width (debug builds check
    /// every value; release builds mask).
    pub fn fill_sequential(&mut self, next: impl FnMut(usize) -> u64) {
        self.fill_span(self.start_index, self.start_index + self.len, next);
    }

    /// [`Self::fill_sequential`], except that the values `src` already
    /// holds are copied instead of generated. The region is walked in
    /// `block`-value blocks aligned to global index 0: a whole block (one
    /// that lies inside the region) for which `copy(first index)` holds
    /// takes `src`'s words for the same indices verbatim, and every maximal
    /// run of other blocks is filled by a fresh generator `run(first
    /// index)`, called with each index of the run in order.
    ///
    /// Requires zeroed words, like [`Self::fill_sequential`].
    ///
    /// # Panics
    /// If `block` is not a positive multiple of 64 (a block must start on a
    /// word boundary), or a copied block lies outside `src` or `src` has
    /// another width.
    pub fn fill_or_copy<G: FnMut(usize) -> u64>(
        &mut self,
        src: &BitPackedVec,
        block: usize,
        copy: impl Fn(usize) -> bool,
        mut run: impl FnMut(usize) -> G,
    ) {
        assert!(
            block > 0 && block.is_multiple_of(64),
            "block {block} is not a positive multiple of 64"
        );
        let bits = self.bits as usize;
        let end = self.start_index + self.len;
        let whole = |b: usize| b.is_multiple_of(block) && b + block <= end && copy(b);
        let mut at = self.start_index;
        while at < end {
            // The run [at, to): blocks that all copy, or all do not.
            let copying = whole(at);
            let mut to = at - at % block + block;
            while to < end && whole(to) == copying {
                to += block;
            }
            let to = to.min(end);
            if copying {
                assert!(
                    src.bits() == self.bits && to <= src.len(),
                    "copied blocks must lie in a source of the same width"
                );
                let (w0, w1, base) = (at * bits / 64, to * bits / 64, self.start_index * bits / 64);
                self.words[w0 - base..w1 - base].copy_from_slice(&src.words()[w0..w1]);
            } else {
                self.fill_span(at, to, run(at));
            }
            at = to;
        }
    }

    /// Fill global indices `[from, to)` in order with `next(index)`; `from`
    /// lies a multiple of 64 values into the region, so it starts a word.
    fn fill_span(&mut self, from: usize, to: usize, mut next: impl FnMut(usize) -> u64) {
        let bits = self.bits as usize;
        let mask = max_value_for_bits(self.bits);
        debug_assert!((from - self.start_index).is_multiple_of(64));
        let mut word = (from - self.start_index) * bits / 64;
        let mut shift = 0usize;
        for i in from..to {
            let v = next(i);
            debug_assert!(v <= mask, "value {v} does not fit in {bits} bits");
            let v = v & mask;
            self.words[word] |= v << shift;
            if shift + bits > 64 {
                self.words[word + 1] |= v >> (64 - shift);
            }
            shift += bits;
            if shift >= 64 {
                shift -= 64;
                word += 1;
            }
        }
    }
}

/// Split plan over a [`BitPackedVec`]; see [`BitPackedVec::split_mut`].
pub struct RegionSplit<'a> {
    regions: Vec<BitRegion<'a>>,
}

impl<'a> RegionSplit<'a> {
    /// The disjoint regions, in index order.
    pub fn into_regions(self) -> Vec<BitRegion<'a>> {
        self.regions
    }
}

impl BitPackedVec {
    /// Split the vector into `pieces` disjoint mutable regions of (nearly)
    /// equal size whose boundaries are multiples of 64 values, so each region
    /// starts on a `u64` word boundary and the regions can be written from
    /// different threads without synchronization.
    ///
    /// The final region absorbs the remainder. Fewer than `pieces` regions are
    /// returned when the vector is too short to give every piece a non-empty
    /// 64-aligned range.
    ///
    /// # Panics
    /// If `pieces == 0`.
    pub fn split_mut(&mut self, pieces: usize) -> RegionSplit<'_> {
        self.split_mut_aligned(pieces, 64)
    }

    /// [`Self::split_mut`] with every region boundary a multiple of
    /// `align` values, so a caller keeping per-block state over
    /// `align`-value blocks hands each region whole blocks.
    ///
    /// # Panics
    /// If `pieces == 0` or `align` is not a positive multiple of 64.
    pub fn split_mut_aligned(&mut self, pieces: usize, align: usize) -> RegionSplit<'_> {
        assert!(pieces > 0, "cannot split into zero pieces");
        assert!(
            align > 0 && align.is_multiple_of(64),
            "alignment {align} is not a positive multiple of 64"
        );
        let len = self.len();
        let bits = self.bits();

        // Chunk size: multiple of `align` values, at least `align`,
        // covering len/pieces.
        let raw = len.div_ceil(pieces).max(1);
        let chunk = raw.div_ceil(align) * align;

        let mut regions = Vec::with_capacity(pieces);
        let mut start = 0usize;
        let mut words = self.words_mut().as_mut_slice();
        let mut words_consumed = 0usize;
        while start < len {
            let end = (start + chunk).min(len);
            let n = end - start;
            // First bit of this region is start*bits, a multiple of 64.
            let first_word = (start * bits as usize) / 64;
            let last_word = ((end * bits as usize).div_ceil(64)).max(first_word);
            debug_assert_eq!((start * bits as usize) % 64, 0);
            let take = last_word - words_consumed;
            let (mine, rest) = words.split_at_mut(take.min(words.len()));
            words = rest;
            words_consumed += mine.len();
            regions.push(BitRegion {
                words: mine,
                bits,
                start_index: start,
                len: n,
            });
            start = end;
        }
        RegionSplit { regions }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill_parallel_style(len: usize, bits: u8, pieces: usize) -> BitPackedVec {
        let mask = max_value_for_bits(bits);
        let mut v = BitPackedVec::zeroed(bits, len);
        let regions = v.split_mut(pieces).into_regions();
        // Simulate what threads do: each fills its own region.
        std::thread::scope(|s| {
            for mut r in regions {
                s.spawn(move || {
                    for i in 0..r.len() {
                        let global = r.start_index() + i;
                        r.set(i, (global as u64).wrapping_mul(0x9E37_79B9) & mask);
                    }
                });
            }
        });
        v
    }

    #[test]
    fn regions_cover_exactly_once() {
        for &(len, pieces) in &[
            (0usize, 4usize),
            (1, 4),
            (63, 4),
            (64, 4),
            (65, 4),
            (1000, 7),
            (4096, 16),
            (100, 1),
        ] {
            let mut v = BitPackedVec::zeroed(5, len);
            let regions = v.split_mut(pieces).into_regions();
            let mut covered = 0usize;
            for r in &regions {
                assert_eq!(r.start_index(), covered, "regions must be contiguous");
                assert_eq!(r.start_index() % 64, 0, "region start must be 64-aligned");
                covered += r.len();
            }
            assert_eq!(covered, len, "regions must cover the vector (len={len})");
        }
    }

    #[test]
    fn aligned_regions_start_on_block_boundaries() {
        for &(len, pieces) in &[(0usize, 3usize), (1, 3), (4095, 2), (4097, 2), (100_000, 7)] {
            let mut v = BitPackedVec::zeroed(11, len);
            let regions = v.split_mut_aligned(pieces, 4096).into_regions();
            assert!(regions.len() <= pieces);
            let mut covered = 0usize;
            for r in &regions {
                assert_eq!(r.start_index(), covered, "regions must be contiguous");
                assert_eq!(r.start_index() % 4096, 0, "len={len}");
                covered += r.len();
            }
            assert_eq!(covered, len, "regions must cover the vector (len={len})");
        }
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn unaligned_alignment_panics() {
        let mut v = BitPackedVec::zeroed(4, 10);
        let _ = v.split_mut_aligned(2, 100);
    }

    #[test]
    fn threaded_fill_matches_serial_for_many_widths() {
        for &bits in &[1u8, 3, 7, 8, 13, 17, 31, 32, 33, 48, 63, 64] {
            let len = 1543;
            let mask = max_value_for_bits(bits);
            let par = fill_parallel_style(len, bits, 6);
            let mut ser = BitPackedVec::zeroed(bits, len);
            for i in 0..len {
                ser.set(i, (i as u64).wrapping_mul(0x9E37_79B9) & mask);
            }
            assert_eq!(par.to_vec(), ser.to_vec(), "width {bits}");
        }
    }

    #[test]
    fn single_piece_is_whole_vector() {
        let mut v = BitPackedVec::zeroed(9, 500);
        let regions = v.split_mut(1).into_regions();
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].len(), 500);
        assert_eq!(regions[0].start_index(), 0);
    }

    #[test]
    fn more_pieces_than_chunks_collapses() {
        let mut v = BitPackedVec::zeroed(4, 100);
        // chunk = ceil(ceil(100/64)/64)*64 => 64; two regions: 64 + 36.
        let regions = v.split_mut(64).into_regions();
        assert_eq!(regions.len(), 2);
        assert_eq!(regions[0].len(), 64);
        assert_eq!(regions[1].len(), 36);
    }

    #[test]
    fn empty_vector_yields_no_regions() {
        let mut v = BitPackedVec::zeroed(4, 0);
        assert!(v.split_mut(8).into_regions().is_empty());
    }

    #[test]
    #[should_panic(expected = "zero pieces")]
    fn zero_pieces_panics() {
        let mut v = BitPackedVec::zeroed(4, 10);
        let _ = v.split_mut(0);
    }

    #[test]
    fn fill_sequential_matches_set_for_many_widths() {
        for &bits in &[1u8, 3, 7, 13, 21, 31, 33, 48, 63, 64] {
            let len = 1111;
            let mask = max_value_for_bits(bits);
            let gen = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask;

            let mut a = BitPackedVec::zeroed(bits, len);
            for mut r in a.split_mut(5).into_regions() {
                r.fill_sequential(gen);
            }
            let mut b = BitPackedVec::zeroed(bits, len);
            for i in 0..len {
                b.set(i, gen(i));
            }
            assert_eq!(a.to_vec(), b.to_vec(), "width {bits}");
        }
    }

    #[test]
    fn fill_or_copy_equals_a_fill_of_the_copied_values() {
        // Source and expected output agree on the copied blocks only; the
        // generated runs write other values, so a block taken from the
        // wrong side shows.
        for &bits in &[1u8, 5, 13, 31, 64] {
            let mask = max_value_for_bits(bits);
            let old = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask;
            let new = |i: usize| (i as u64 ^ 0x55) & mask;
            let len = 5 * 256 + 70;
            let src = BitPackedVec::from_slice(bits, &(0..5 * 256).map(old).collect::<Vec<_>>());
            // Blocks 1, 2 and 4 copy; block 5 is partial (and beyond the
            // source), so it is generated although the predicate holds.
            let copy = |b: usize| [1, 2, 4, 5].contains(&(b / 256));
            let want: Vec<u64> = (0..len)
                .map(|i| {
                    if copy(i) && i < 5 * 256 {
                        old(i)
                    } else {
                        new(i)
                    }
                })
                .collect();
            for pieces in [1usize, 2, 3] {
                let mut out = BitPackedVec::zeroed(bits, len);
                let mut starts = Vec::new();
                for mut r in out.split_mut_aligned(pieces, 128).into_regions() {
                    r.fill_or_copy(&src, 256, copy, |first| {
                        starts.push(first);
                        let mut expect = first;
                        move |i| {
                            assert_eq!(i, expect, "runs visit their indices in order");
                            expect += 1;
                            new(i)
                        }
                    });
                }
                assert_eq!(out.to_vec(), want, "width {bits}, {pieces} pieces");
                if pieces == 1 {
                    assert_eq!(starts, vec![0, 3 * 256, 5 * 256], "one generator per run");
                }
            }
        }
    }

    #[test]
    fn fill_sequential_threaded() {
        let len = 100_000;
        let bits = 17u8;
        let mask = max_value_for_bits(bits);
        let mut v = BitPackedVec::zeroed(bits, len);
        std::thread::scope(|s| {
            for mut r in v.split_mut(8).into_regions() {
                s.spawn(move || r.fill_sequential(|i| (i as u64 * 7) & mask));
            }
        });
        for i in (0..len).step_by(997) {
            assert_eq!(v.get(i), (i as u64 * 7) & mask);
        }
    }

    #[test]
    fn region_set_rejects_out_of_bounds() {
        let mut v = BitPackedVec::zeroed(4, 128);
        let mut regions = v.split_mut(2).into_regions();
        let r = &mut regions[0];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.set(64, 1);
        }));
        assert!(result.is_err());
    }
}
