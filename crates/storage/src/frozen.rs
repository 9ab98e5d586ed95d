//! The bit-packed frozen delta: the read-only snapshot of a sealed delta,
//! compressed through a per-column local dictionary.
//!
//! While a merge is in flight the engine holds the sealed delta *twice* —
//! once as merge input, once for readers — which is exactly the "second
//! memory term" of the paper's Section 6.1 merge model. Freezing into a
//! local [`Dictionary`] plus a [`BitPackedVec`] of codes cuts that term
//! from `N_D * E_j` raw bytes to `N_D * ceil(log2 |U_D|)` bits (plus the
//! small local dictionary), and lets the frozen side of a scan run the
//! same word-parallel SWAR kernels as the main partition instead of a
//! value-compare fallback.
//!
//! The representation is deliberately *insertion-ordered*: code `i` is the
//! `i`-th sealed row, so merge Stage 2 can stream the codes with a
//! [`SeqCursor`](hyrise_bitpack::SeqCursor) and the local dictionary (which
//! is sorted and unique by construction) doubles as merge Stage 1a's delta
//! dictionary — the frozen delta arrives at the merge *already compressed*.

use crate::dictionary::Dictionary;
use crate::value::Value;
use hyrise_bitpack::{bits_for, BitPackedVec};
use std::ops::Range;

/// A sealed, read-only delta stored dictionary-compressed: a sorted local
/// [`Dictionary`] of the delta's distinct values plus bit-packed codes in
/// insertion order.
#[derive(Clone, Debug)]
pub struct FrozenDelta<V: Value> {
    dict: Dictionary<V>,
    codes: BitPackedVec,
}

impl<V: Value> FrozenDelta<V> {
    /// An empty frozen delta (the shape of a freeze with nothing sealed).
    pub fn empty() -> Self {
        Self {
            dict: Dictionary::empty(),
            codes: BitPackedVec::new(1),
        }
    }

    /// Freeze `values` (insertion order): build the sorted local dictionary
    /// and encode every value against it. This is the merge's Stage 1a,
    /// the paper's modified Step 1(a) (Section 5.3): the sorted `U_D` plus
    /// the delta rewritten as fixed-width codes into it.
    pub fn from_values(values: &[V]) -> Self {
        if values.is_empty() {
            return Self::empty();
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let dict = Dictionary::from_sorted_unique(sorted);
        let bits = bits_for(dict.len());
        let mut codes = BitPackedVec::with_capacity(bits, values.len());
        for v in values {
            let code = dict.code_of(v).expect("frozen value is in its dictionary");
            codes.push(code as u64);
        }
        Self { dict, codes }
    }

    /// Number of sealed rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if nothing was sealed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The sorted local dictionary (merge Stage 1a's delta dictionary,
    /// ready-made).
    #[inline]
    pub fn dict(&self) -> &Dictionary<V> {
        &self.dict
    }

    /// The bit-packed codes in insertion order (scan them with the SWAR
    /// kernels; stream them with a cursor in merge Stage 2).
    #[inline]
    pub fn codes(&self) -> &BitPackedVec {
        &self.codes
    }

    /// Decode row `i`.
    ///
    /// # Panics
    /// If `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> V {
        self.dict.value_at(self.codes.get(i) as u32)
    }

    /// Decode every row, in insertion order.
    pub fn to_vec(&self) -> Vec<V> {
        self.codes
            .iter()
            .map(|c| self.dict.value_at(c as u32))
            .collect()
    }

    /// The whole delta as one packed [`TailRegion`].
    pub fn region(&self) -> TailRegion<'_, V> {
        TailRegion::Packed {
            dict: &self.dict,
            codes: &self.codes,
            rows: 0..self.len(),
        }
    }

    /// Heap bytes of the compressed representation — the quantity
    /// `MemoryReport` charges for a frozen delta.
    pub fn memory_bytes(&self) -> usize {
        self.dict.memory_bytes() + self.codes.packed_bytes()
    }
}

impl<V: Value> Default for FrozenDelta<V> {
    fn default() -> Self {
        Self::empty()
    }
}

/// One region of a column past the rows a scan reads from main, as seen by
/// the scan: either bit-packed codes over a sorted dictionary (scanned with
/// the SWAR kernels in value-id space) or a raw value slice (the active
/// tail, scanned by value comparison). A packed region is a sealed
/// [`FrozenDelta`] ([`FrozenDelta::region`]) or the rows a merged main
/// partition holds past a shorter one — both bit-packed alike.
#[derive(Clone)]
pub enum TailRegion<'a, V: Value> {
    /// Rows `rows` of `codes`, dictionary-compressed through `dict`.
    Packed {
        /// The sorted dictionary the codes index.
        dict: &'a Dictionary<V>,
        /// The packed codes; the region reads only `rows` of them.
        codes: &'a BitPackedVec,
        /// The region's rows, as indices into `codes`.
        rows: Range<usize>,
    },
    /// Raw values in insertion order.
    Raw(&'a [V]),
}

impl<'a, V: Value> TailRegion<'a, V> {
    /// Rows in this region.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            TailRegion::Packed { rows, .. } => rows.len(),
            TailRegion::Raw(s) => s.len(),
        }
    }

    /// True if the region holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value at region-local row `i`.
    ///
    /// # Panics
    /// If `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> V {
        match self {
            TailRegion::Packed { dict, codes, rows } => {
                assert!(i < rows.len(), "region row {i} out of range");
                dict.value_at(codes.get(rows.start + i) as u32)
            }
            TailRegion::Raw(s) => s[i],
        }
    }

    /// Decode every row in insertion order.
    pub fn iter(self) -> impl Iterator<Item = V> + 'a {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Append `base + i` to `out` for every region-local row `i` whose
    /// value lies in `[lo, hi]`. Packed regions rewrite the bounds into
    /// their dictionary's value-id space and run the SWAR range kernel over
    /// their rows; raw regions compare values.
    ///
    /// # Panics
    /// If a packed region's `rows.start` exceeds `base` (a region sits at
    /// or past its first code's index).
    pub fn select_in_range_into(&self, lo: &V, hi: &V, base: usize, out: &mut Vec<usize>) {
        match self {
            TailRegion::Packed { dict, codes, rows } => {
                if let Some(ids) = dict.value_id_range(lo, hi) {
                    codes.select_in_range_into_at(
                        *ids.start() as u64,
                        *ids.end() as u64,
                        rows.start,
                        rows.end,
                        base - rows.start,
                        out,
                    );
                }
            }
            TailRegion::Raw(s) => {
                for (i, v) in s.iter().enumerate() {
                    if v >= lo && v <= hi {
                        out.push(base + i);
                    }
                }
            }
        }
    }

    /// Number of region rows whose value lies in `[lo, hi]` (no row ids
    /// materialized; packed regions use the popcount kernel).
    pub fn count_in_range(&self, lo: &V, hi: &V) -> usize {
        match self {
            TailRegion::Packed { dict, codes, rows } => match dict.value_id_range(lo, hi) {
                Some(ids) => codes.count_in_range_at(
                    *ids.start() as u64,
                    *ids.end() as u64,
                    rows.start,
                    rows.end,
                ),
                None => 0,
            },
            TailRegion::Raw(s) => s.iter().filter(|v| *v >= lo && *v <= hi).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freeze_round_trips_and_compresses() {
        let values: Vec<u64> = (0..10_000).map(|i| i % 37).collect();
        let f = FrozenDelta::from_values(&values);
        assert_eq!(f.len(), values.len());
        assert_eq!(f.dict().len(), 37);
        assert_eq!(f.codes().bits(), 6);
        assert_eq!(f.to_vec(), values);
        for i in [0usize, 1, 36, 37, 9_999] {
            assert_eq!(f.get(i), values[i]);
        }
        // 6 bits/row + a 37-entry dictionary vs 8 raw bytes/row: > 10x.
        let raw = values.len() * <u64 as Value>::BYTES;
        assert!(f.memory_bytes() * 10 < raw, "{} vs {raw}", f.memory_bytes());
    }

    #[test]
    fn empty_freeze() {
        let f = FrozenDelta::<u64>::from_values(&[]);
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
        assert_eq!(f.to_vec(), Vec::<u64>::new());
        assert_eq!(f.dict().len(), 0);
    }

    #[test]
    fn dictionary_is_sorted_unique_regardless_of_insertion_order() {
        let values = [9u64, 3, 9, 1, 3, 7];
        let f = FrozenDelta::from_values(&values);
        assert_eq!(f.dict().values(), &[1, 3, 7, 9]);
        assert_eq!(f.to_vec(), values);
    }

    #[test]
    fn tail_region_select_agrees_across_representations() {
        let values: Vec<u64> = (0..500).map(|i| (i * 17) % 101).collect();
        let f = FrozenDelta::from_values(&values);
        // The whole delta, and a row range of its codes (the shape of a
        // main partition's rows past a shorter main).
        let suffix = TailRegion::Packed {
            dict: f.dict(),
            codes: f.codes(),
            rows: 130..500,
        };
        let pairs = [
            (f.region(), TailRegion::Raw(&values)),
            (suffix, TailRegion::Raw(&values[130..])),
        ];
        for (packed, raw) in pairs {
            assert_eq!(packed.len(), raw.len());
            for (lo, hi) in [(0u64, 100u64), (10, 40), (50, 50), (40, 10), (200, 300)] {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                packed.select_in_range_into(&lo, &hi, 1000, &mut a);
                raw.select_in_range_into(&lo, &hi, 1000, &mut b);
                assert_eq!(a, b, "range {lo}..={hi}");
                assert_eq!(
                    packed.count_in_range(&lo, &hi),
                    raw.count_in_range(&lo, &hi),
                    "range {lo}..={hi}"
                );
            }
            for i in (0..raw.len()).step_by(37) {
                assert_eq!(packed.get(i), raw.get(i));
            }
        }
    }

    #[test]
    fn v16_values_freeze() {
        use crate::value::V16;
        let values: Vec<V16> = (0..200u64).map(|i| V16::from_seed(i % 9)).collect();
        let f = FrozenDelta::from_values(&values);
        assert_eq!(f.dict().len(), 9);
        assert_eq!(f.to_vec(), values);
    }
}
