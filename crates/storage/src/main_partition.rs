//! The read-optimized, dictionary-compressed main partition (`M^j`).

use crate::dictionary::Dictionary;
use crate::value::Value;
use hyrise_bitpack::{bits_for, BitPackedVec};

/// Rows per zone-map block: 64 words of a dense row mask, and a divisor
/// of the query engine's morsel size, so a block never straddles a morsel
/// boundary.
pub const ZONE_ROWS: usize = 4096;

/// One column's main partition: a sorted [`Dictionary`] plus the per-tuple
/// codes bit-packed at `E_C = max(1, ceil(log2 |U_M|))` bits.
///
/// "Values in the tuples are replaced by encoded values from the dictionary
/// ... the compressed value for a given value is its position in the
/// dictionary, stored using the appropriate number of bits." (Sections 3, 4.1)
///
/// Beside the codes it keeps a **zone map**: the smallest and largest code
/// of every [`ZONE_ROWS`]-row block (the last block may be shorter). Codes
/// are order-preserving, so a predicate's value-id range that misses a
/// block's `[min, max]` cannot match any row in it, and one that covers it
/// matches every row — the query engine decides both without touching the
/// block's codes.
#[derive(Clone, Debug)]
pub struct MainPartition<V> {
    dict: Dictionary<V>,
    codes: BitPackedVec,
    zones: Vec<(u32, u32)>,
}

impl<V: Value> Default for MainPartition<V> {
    fn default() -> Self {
        Self::empty()
    }
}

/// The zone map of `codes`: the `(min, max)` code of every block, in one
/// pass.
fn scan_zones(codes: &BitPackedVec) -> Vec<(u32, u32)> {
    let n = codes.len();
    let mut cur = codes.cursor_at(0);
    (0..n.div_ceil(ZONE_ROWS))
        .map(|b| {
            let (mut lo, mut hi) = (u64::MAX, 0);
            for _ in b * ZONE_ROWS..n.min((b + 1) * ZONE_ROWS) {
                let code = cur.next_value();
                lo = lo.min(code);
                hi = hi.max(code);
            }
            (lo as u32, hi as u32)
        })
        .collect()
}

impl<V: Value> MainPartition<V> {
    /// An empty main partition (fresh tables start with everything in delta).
    pub fn empty() -> Self {
        Self {
            dict: Dictionary::empty(),
            codes: BitPackedVec::new(1),
            zones: Vec::new(),
        }
    }

    /// Bulk-load from raw values: builds the dictionary (sort + dedup),
    /// encodes every tuple, and builds the zone map in one pass over the
    /// codes. This models the initial population of the read-optimized
    /// store; steady-state growth goes through the merge.
    pub fn from_values(values: &[V]) -> Self {
        let dict = Dictionary::from_unsorted(values.to_vec());
        let bits = bits_for(dict.len());
        let mut codes = BitPackedVec::with_capacity(bits, values.len());
        for v in values {
            let code = dict
                .code_of(v)
                .expect("value must be in freshly built dictionary");
            codes.push(code as u64);
        }
        Self::from_parts(dict, codes).expect("codes index their own fresh dictionary")
    }

    /// Assemble from a dictionary and packed codes read back from storage
    /// (the checkpoint loader), building the zone map in one pass over the
    /// codes. Returns `None` when a code does not index into `dict` — the
    /// input is corrupt, and a read decoding that code would panic.
    pub fn from_parts(dict: Dictionary<V>, codes: BitPackedVec) -> Option<Self> {
        let zones = scan_zones(&codes);
        let in_dict = zones.iter().all(|z| (z.1 as usize) < dict.len());
        in_dict.then_some(Self { dict, codes, zones })
    }

    /// Assemble from parts whose zone map the caller already holds — the
    /// merge's output, whose Stage 2 carries the old main's zones and
    /// derives the rest while it writes the codes.
    ///
    /// # Panics
    /// In debug builds, if `zones` differs from the codes' per-block
    /// `(min, max)` or a code is out of dictionary range.
    pub fn with_zones(dict: Dictionary<V>, codes: BitPackedVec, zones: Vec<(u32, u32)>) -> Self {
        debug_assert_eq!(zones, scan_zones(&codes), "zones are the codes' min/max");
        debug_assert!(
            zones.iter().all(|z| (z.1 as usize) < dict.len()),
            "all codes must be valid dictionary indices"
        );
        Self { dict, codes, zones }
    }

    /// Dissolve into dictionary, packed codes and zone map — the
    /// buffer-recycling hook: a retired main partition's allocations
    /// (sorted value vector, packed word buffer, zone map) can be fed back
    /// into the next merge's scratch arena instead of being freed.
    pub fn into_parts(self) -> (Dictionary<V>, BitPackedVec, Vec<(u32, u32)>) {
        (self.dict, self.codes, self.zones)
    }

    /// Number of tuples — the paper's `N_M`.
    #[inline]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if the partition holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The dictionary `U_M`.
    #[inline]
    pub fn dictionary(&self) -> &Dictionary<V> {
        &self.dict
    }

    /// The zone map: `(min code, max code)` of rows
    /// `[b * ZONE_ROWS, (b + 1) * ZONE_ROWS)` at index `b`, one entry per
    /// block, `len().div_ceil(ZONE_ROWS)` in all.
    #[inline]
    pub fn zones(&self) -> &[(u32, u32)] {
        &self.zones
    }

    /// The compressed value-length `E_C` in bits.
    #[inline]
    pub fn code_bits(&self) -> u8 {
        self.codes.bits()
    }

    /// The bit-packed code of tuple `i`.
    #[inline]
    pub fn code(&self, i: usize) -> u32 {
        self.codes.get(i) as u32
    }

    /// The uncompressed (materialized) value of tuple `i`: a code read plus a
    /// dictionary array access.
    #[inline]
    pub fn get(&self, i: usize) -> V {
        self.dict.value_at(self.codes.get(i) as u32)
    }

    /// Iterate the raw codes in tuple order (the sequential scan path).
    pub fn codes(&self) -> impl Iterator<Item = u64> + '_ {
        self.codes.iter()
    }

    /// Borrow the underlying bit-packed vector (merge input).
    pub fn packed_codes(&self) -> &BitPackedVec {
        &self.codes
    }

    /// Fraction of unique values, the paper's `lambda_M = |U_M| / N_M`
    /// (0 for an empty partition).
    pub fn unique_fraction(&self) -> f64 {
        if self.codes.is_empty() {
            0.0
        } else {
            self.dict.len() as f64 / self.codes.len() as f64
        }
    }

    /// Heap bytes of the zone map (8 B per block).
    pub(crate) fn zone_bytes(&self) -> usize {
        std::mem::size_of_val(self.zones.as_slice())
    }

    /// Heap bytes: packed codes, zone map and dictionary.
    pub fn memory_bytes(&self) -> usize {
        self.codes.packed_bytes() + self.zone_bytes() + self.dict.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 5 main partition:
    /// values hotel delta frank delta (as integers), dictionary of 6.
    fn figure5_main() -> MainPartition<u64> {
        // dictionary: apple=1 charlie=3 delta=4 frank=6 hotel=8 inbox=9
        // partition rows: hotel delta frank delta + the remaining dict values
        // so all 6 dictionary entries are referenced.
        MainPartition::from_values(&[8, 4, 6, 4, 1, 3, 9])
    }

    #[test]
    fn bulk_load_encodes_correctly() {
        let m = figure5_main();
        assert_eq!(m.len(), 7);
        assert_eq!(m.dictionary().len(), 6);
        assert_eq!(m.code_bits(), 3, "6 unique values need 3 bits (Figure 5)");
        assert_eq!(m.get(0), 8);
        assert_eq!(m.get(1), 4);
        assert_eq!(m.get(3), 4);
        // hotel is the 5th of 6 sorted values -> code 4, as in Figure 5/6.
        assert_eq!(m.code(0), 4);
    }

    #[test]
    fn empty_partition() {
        let m: MainPartition<u32> = MainPartition::empty();
        assert!(m.is_empty());
        assert_eq!(m.dictionary().len(), 0);
        assert_eq!(m.unique_fraction(), 0.0);
        assert_eq!(m.memory_bytes(), 0);
    }

    #[test]
    fn roundtrip_get_matches_source() {
        let vals: Vec<u64> = (0..500).map(|i| (i * 37) % 101).collect();
        let m = MainPartition::from_values(&vals);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(m.get(i), *v, "tuple {i}");
        }
        assert_eq!(m.dictionary().len(), 101);
        assert_eq!(m.code_bits(), 7);
    }

    #[test]
    fn unique_fraction_lambda() {
        let vals: Vec<u64> = (0..1000).map(|i| i % 100).collect();
        let m = MainPartition::from_values(&vals);
        assert!((m.unique_fraction() - 0.1).abs() < 1e-9, "lambda_M = 10%");
    }

    #[test]
    fn codes_iterator_streams_in_order() {
        let vals: Vec<u64> = vec![5, 1, 5, 9];
        let m = MainPartition::from_values(&vals);
        let codes: Vec<u64> = m.codes().collect();
        assert_eq!(codes, vec![1, 0, 1, 2]);
    }

    #[test]
    fn memory_accounting() {
        let vals: Vec<u64> = (0..1024).collect(); // 1024 unique, 10-bit codes
        let m = MainPartition::from_values(&vals);
        assert_eq!(m.code_bits(), 10);
        // 1024 * 10 bits = 10240 bits = 160 words = 1280 bytes, one 8-byte
        // zone, dict 8192.
        assert_eq!(m.memory_bytes(), 1280 + 8 + 8192);
    }

    #[test]
    fn single_value_column_uses_one_bit() {
        let vals = vec![7u64; 100];
        let m = MainPartition::from_values(&vals);
        assert_eq!(m.dictionary().len(), 1);
        assert_eq!(m.code_bits(), 1, "|U|=1 clamps to one bit");
        assert!(m.codes().all(|c| c == 0));
    }

    #[test]
    fn works_with_all_value_widths() {
        use crate::value::{Value, V16};
        let m32 = MainPartition::from_values(&[3u32, 1, 2]);
        assert_eq!(m32.get(0), 3);
        let m16 = MainPartition::from_values(&[V16::from_seed(9), V16::from_seed(2)]);
        assert_eq!(m16.get(1), V16::from_seed(2));
    }

    /// Per-block min/max recomputed from the codes, block by block.
    fn brute_zones<V: Value>(m: &MainPartition<V>) -> Vec<(u32, u32)> {
        let codes: Vec<u32> = (0..m.len()).map(|i| m.code(i)).collect();
        codes
            .chunks(ZONE_ROWS)
            .map(|b| (*b.iter().min().unwrap(), *b.iter().max().unwrap()))
            .collect()
    }

    #[test]
    fn zone_map_covers_every_block_at_the_boundaries() {
        // 0, 1, one short of a block, exactly one, one past, and a length
        // whose last block straddles (is shorter than ZONE_ROWS).
        for n in [0usize, 1, 4095, 4096, 4097, 3 * ZONE_ROWS + 1000] {
            for (name, vals) in [
                ("ascending", (0..n as u64).collect::<Vec<_>>()),
                ("cycled", (0..n as u64).map(|i| (i * 7919) % 1000).collect()),
            ] {
                let m = MainPartition::from_values(&vals);
                assert_eq!(m.zones().len(), n.div_ceil(ZONE_ROWS), "{name} {n}");
                assert_eq!(m.zones(), &brute_zones(&m)[..], "{name} {n}");
                // Reassembling from the parts rebuilds the same map.
                let (dict, codes, _) = m.clone().into_parts();
                let again = MainPartition::from_parts(dict, codes).expect("codes are in range");
                assert_eq!(again.zones(), m.zones(), "{name} {n}");
                assert_eq!(m.zone_bytes(), 8 * n.div_ceil(ZONE_ROWS));
            }
        }
        // Ascending codes give disjoint zones, one block after another;
        // the straddling block ends at the last code.
        let m = MainPartition::from_values(&(0..2 * ZONE_ROWS as u64 + 5).collect::<Vec<_>>());
        assert_eq!(
            m.zones(),
            &[(0, 4095), (4096, 2 * 4096 - 1), (2 * 4096, 2 * 4096 + 4)]
        );
    }

    #[test]
    fn zone_map_at_exact_powers_of_two_distinct_values() {
        // 2^k distinct values fill k-bit codes exactly; 2^k + 1 need k + 1.
        for k in 1..=12u32 {
            for distinct in [1u64 << k, (1u64 << k) + 1] {
                let vals: Vec<u64> = (0..2 * ZONE_ROWS as u64 + 77)
                    .map(|i| (i * 31) % distinct)
                    .collect();
                let m = MainPartition::from_values(&vals);
                assert_eq!(m.code_bits(), bits_for(distinct as usize), "{distinct}");
                assert_eq!(m.zones(), &brute_zones(&m)[..], "{distinct}");
                let top = m.zones().iter().map(|z| z.1).max().unwrap();
                assert_eq!(top as u64, distinct - 1, "the largest code is in a zone");
            }
        }
    }

    #[test]
    fn single_value_column_has_point_zones() {
        let m = MainPartition::from_values(&vec![7u64; ZONE_ROWS + 1]);
        assert_eq!(m.zones(), &[(0, 0), (0, 0)]);
    }

    #[test]
    fn from_parts_rejects_codes_outside_the_dictionary() {
        // Three dictionary values, 2-bit codes: code 3 fits the width but
        // indexes past the dictionary — in a block after the first, too.
        let dict = || Dictionary::from_sorted_unique(vec![10u64, 20, 30]);
        let mut codes: Vec<u64> = (0..ZONE_ROWS as u64 + 10).map(|i| i % 3).collect();
        let good = BitPackedVec::from_slice(2, &codes);
        assert!(MainPartition::from_parts(dict(), good).is_some());
        codes[ZONE_ROWS + 3] = 3;
        let bad = BitPackedVec::from_slice(2, &codes);
        assert!(MainPartition::from_parts(dict(), bad).is_none());
        // An empty dictionary admits no code at all.
        let one = BitPackedVec::from_slice(1, &[0]);
        assert!(MainPartition::from_parts(Dictionary::<u64>::empty(), one).is_none());
    }
}
