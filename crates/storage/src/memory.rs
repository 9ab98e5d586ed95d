//! Memory accounting: where the bytes live, per partition component.
//!
//! Section 2's case for dictionary compression ("columns with a small number
//! of distinct values and a large value size heavily profit") and Section 4's
//! case against large deltas ("memory consumption increases") are both
//! statements about this breakdown, so the substrate can report it.

use crate::frozen::FrozenDelta;
use crate::main_partition::MainPartition;
use crate::value::Value;

/// Byte breakdown of one attribute.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryReport {
    /// Bit-packed code vector of the main partition, with its zone map
    /// (8 B per 4 096 rows).
    pub main_codes: usize,
    /// Main dictionary values.
    pub main_dict: usize,
    /// Uncompressed delta values (the live tail).
    pub delta_values: usize,
    /// Local dictionaries of bit-packed frozen deltas (sealed mid-merge
    /// snapshots), counted at their compressed size.
    pub frozen_dict: usize,
    /// Bit-packed code vectors of frozen deltas.
    pub frozen_codes: usize,
}

impl MemoryReport {
    /// Measure a main partition — the read-optimized side of one column.
    /// The live table adds its frozen deltas ([`Self::of_frozen`]) and the
    /// raw tail (`delta_values`) on top, component by component.
    pub fn of_main<V: Value>(main: &MainPartition<V>) -> Self {
        Self {
            main_codes: main.packed_codes().packed_bytes() + main.zone_bytes(),
            main_dict: main.dictionary().memory_bytes(),
            ..Self::default()
        }
    }

    /// Measure a bit-packed frozen delta at its *compressed* size — the
    /// footprint the merge scheduler and the admission gate should see while a
    /// merge is in flight, not the raw bytes the delta once occupied.
    pub fn of_frozen<V: Value>(frozen: &FrozenDelta<V>) -> Self {
        Self {
            frozen_dict: frozen.dict().memory_bytes(),
            frozen_codes: frozen.codes().packed_bytes(),
            ..Self::default()
        }
    }

    /// Total bytes.
    pub fn total(&self) -> usize {
        self.main_codes + self.main_dict + self.delta_values + self.frozen_dict + self.frozen_codes
    }

    /// Bytes attributable to the read-optimized side.
    pub fn main_total(&self) -> usize {
        self.main_codes + self.main_dict
    }

    /// Bytes attributable to the write-optimized side — what the merge
    /// reclaims. Frozen deltas count here (at compressed size): they are
    /// sealed write-side rows a completed merge absorbs.
    pub fn delta_total(&self) -> usize {
        self.delta_values + self.frozen_dict + self.frozen_codes
    }

    /// Compression factor of the main partition vs storing `n_main` raw
    /// values of `value_bytes` each (> 1 means compressed is smaller).
    pub fn main_compression_factor(&self, n_main: usize, value_bytes: usize) -> f64 {
        if self.main_total() == 0 {
            return 1.0;
        }
        (n_main * value_bytes) as f64 / self.main_total() as f64
    }
}

impl std::ops::Add for MemoryReport {
    type Output = MemoryReport;

    fn add(self, rhs: MemoryReport) -> MemoryReport {
        MemoryReport {
            main_codes: self.main_codes + rhs.main_codes,
            main_dict: self.main_dict + rhs.main_dict,
            delta_values: self.delta_values + rhs.delta_values,
            frozen_dict: self.frozen_dict + rhs.frozen_dict,
            frozen_codes: self.frozen_codes + rhs.frozen_codes,
        }
    }
}

impl std::fmt::Display for MemoryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "main codes {} B + dict {} B | delta values {} B | \
             frozen codes {} B + dict {} B = {} B",
            self.main_codes,
            self.main_dict,
            self.delta_values,
            self.frozen_codes,
            self.frozen_dict,
            self.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::V16;

    /// The raw tail's charge, as the live table reports it.
    fn tail_of(rows: usize) -> MemoryReport {
        MemoryReport {
            delta_values: rows * <u64 as Value>::BYTES,
            ..MemoryReport::default()
        }
    }

    #[test]
    fn breakdown_of_mixed_attribute() {
        let main = MainPartition::from_values(&(0..10_000u64).map(|i| i % 8).collect::<Vec<_>>());
        let r = MemoryReport::of_main(&main) + tail_of(1_000);
        // 10K tuples at 3 bits = 3750 bytes rounded to words, plus three
        // 8-byte zones.
        assert_eq!(r.main_codes, (10_000 * 3usize).div_ceil(64) * 8 + 3 * 8);
        assert_eq!(r.main_dict, 8 * 8);
        assert_eq!(r.delta_values, 1_000 * 8);
        assert_eq!(r.total(), r.main_total() + r.delta_total());
        assert_eq!(MemoryReport::of_main(&main).delta_total(), 0);
    }

    #[test]
    fn low_cardinality_wide_values_compress_heavily() {
        // The Figure 4 premise: 8 distinct 16-byte values over 50K rows.
        let vals: Vec<V16> = (0..50_000u64).map(|i| V16::from_seed(i % 8)).collect();
        let r = MemoryReport::of_main(&MainPartition::from_values(&vals));
        let factor = r.main_compression_factor(50_000, V16::BYTES);
        // 16 B -> 3 bits: ~42x. Allow word-rounding slack.
        assert!(factor > 30.0, "compression factor {factor}");
    }

    #[test]
    fn of_partitions_matches_attribute_accounting() {
        // The report of an attribute's partitions agrees with the byte
        // accounting each partition keeps itself.
        let values: Vec<u64> = (0..5_000).map(|i| i % 37).collect();
        let main = MainPartition::from_values(&values);
        let frozen = FrozenDelta::from_values(&values[..300]);
        let r = MemoryReport::of_main(&main) + MemoryReport::of_frozen(&frozen);
        assert_eq!(r.main_total(), main.memory_bytes());
        assert_eq!(r.delta_total(), frozen.memory_bytes());
    }

    #[test]
    fn delta_total_is_what_merging_reclaims() {
        let main = MemoryReport::of_main(&MainPartition::from_values(&[1u64, 2, 3]));
        let frozen =
            MemoryReport::of_frozen(&FrozenDelta::from_values(&(0..100u64).collect::<Vec<_>>()));
        let r = main + frozen + tail_of(100);
        assert!(r.delta_total() > r.main_total());
        assert_eq!(
            r.delta_total(),
            r.delta_values + r.frozen_dict + r.frozen_codes
        );
    }

    #[test]
    fn table_report_sums_columns() {
        // A table's report is the component-wise sum over its columns.
        let a = MemoryReport::of_main(&MainPartition::from_values(
            &(0..500u64).map(|i| i % 10).collect::<Vec<_>>(),
        ));
        let b = MemoryReport::of_main(&MainPartition::from_values(
            &(0..500u32).map(|i| i % 3).collect::<Vec<_>>(),
        ));
        let r = a + b + tail_of(7);
        assert_eq!(r.main_codes, a.main_codes + b.main_codes);
        assert_eq!(r.main_dict, 10 * 8 + 3 * 4);
        assert_eq!(r.total(), a.total() + b.total() + 7 * 8);
    }
    #[test]
    fn freezing_a_compressible_tail_strictly_reduces_reported_bytes() {
        // A compressible sealed tail: 20K rows, 50 distinct values. Raw
        // accounting charges 8 B/row; frozen accounting charges 6 bits/row
        // plus a 50-entry dictionary.
        let values: Vec<u64> = (0..20_000).map(|i| i % 50).collect();
        let raw = MemoryReport {
            delta_values: values.len() * <u64 as Value>::BYTES,
            ..MemoryReport::default()
        };
        let frozen = MemoryReport::of_frozen(&FrozenDelta::from_values(&values));
        assert!(
            frozen.total() < raw.total(),
            "compressed {} must be below raw {}",
            frozen.total(),
            raw.total()
        );
        assert_eq!(frozen.delta_total(), frozen.total(), "frozen is write-side");
        assert_eq!(frozen.main_total(), 0);
        assert_eq!(
            frozen.frozen_codes,
            (20_000usize * 6).div_ceil(64) * 8,
            "codes charged at bit-packed size"
        );
        assert_eq!(frozen.frozen_dict, 50 * 8);
    }

    #[test]
    fn display_is_informative() {
        let s = MemoryReport::default().to_string();
        assert!(s.contains("main codes"), "{s}");
        assert!(s.contains("= 0 B"), "{s}");
    }
}
