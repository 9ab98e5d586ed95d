//! Property tests: the three merge implementations must agree with each
//! other and with an oracle built from plain sorted vectors, for arbitrary
//! main/delta contents and thread counts — down to the merged main's zone
//! map, which must equal a brute-force per-block min/max of its codes.

use hyrise_core::{
    merge_dictionaries, parallel::merge_dictionaries_parallel, partition::corank, MergePipeline,
    MergeScratch, MergeStrategy,
};
use hyrise_storage::{FrozenDelta, MainPartition, ZONE_ROWS};
use proptest::prelude::*;

fn delta_from(values: &[u64]) -> FrozenDelta<u64> {
    FrozenDelta::from_values(values)
}

/// Oracle: the merged column must contain main values then delta values, and
/// its dictionary must be the sorted union.
fn oracle(main_vals: &[u64], delta_vals: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let mut dict: Vec<u64> = main_vals.iter().chain(delta_vals).copied().collect();
    dict.sort_unstable();
    dict.dedup();
    let concat: Vec<u64> = main_vals.iter().chain(delta_vals).copied().collect();
    (dict, concat)
}

/// The zone map recomputed from scratch: per block of `ZONE_ROWS` rows,
/// the smallest and largest code.
fn brute_zones(main: &MainPartition<u64>) -> Vec<(u32, u32)> {
    let codes: Vec<u32> = (0..main.len()).map(|i| main.code(i)).collect();
    codes
        .chunks(ZONE_ROWS)
        .map(|b| (*b.iter().min().unwrap(), *b.iter().max().unwrap()))
        .collect()
}

fn sorted_unique(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v.dedup();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_three_algorithms_agree_with_oracle(
        main_vals in prop::collection::vec(0u64..500, 0..800),
        delta_vals in prop::collection::vec(0u64..700, 0..400),
        threads in 1usize..9,
        // Repeat main up to 11 times (past several zone blocks, ending
        // anywhere inside one), sorted or not (narrow zones or wide ones).
        tile in 1usize..12,
        sorted in any::<bool>(),
    ) {
        let mut main_vals = main_vals.repeat(tile);
        if sorted {
            main_vals.sort_unstable();
        }
        let main = MainPartition::from_values(&main_vals);
        prop_assert_eq!(main.zones(), &brute_zones(&main)[..], "bulk-load zones");
        let delta = delta_from(&delta_vals);
        let (dict, concat) = oracle(&main_vals, &delta_vals);

        let outs = [
            (MergeStrategy::Naive, threads),
            (MergeStrategy::Optimized, 1),
            (MergeStrategy::Parallel, threads),
        ]
        .map(|(strategy, threads)| {
            MergePipeline::new(strategy, threads)
                .merge_column(&main, &delta, &mut MergeScratch::new())
                .main
        });
        for (k, out) in outs.iter().enumerate() {
            prop_assert_eq!(out.dictionary().values(), &dict[..], "algo {} dictionary", k);
            let got: Vec<u64> = (0..out.len()).map(|i| out.get(i)).collect();
            prop_assert_eq!(&got, &concat, "algo {} contents", k);
            prop_assert_eq!(out.code_bits(), hyrise_bitpack::bits_for(dict.len()), "algo {} width", k);
            prop_assert_eq!(out.zones(), &brute_zones(out)[..], "algo {} zones", k);
        }
    }

    #[test]
    fn parallel_dict_merge_equals_serial(
        a in prop::collection::vec(0u64..10_000, 0..6_000),
        b in prop::collection::vec(0u64..10_000, 0..6_000),
        threads in 1usize..17,
    ) {
        let a = sorted_unique(a);
        let b = sorted_unique(b);
        let serial = merge_dictionaries(&a, &b);
        let par = merge_dictionaries_parallel(&a, &b, threads);
        prop_assert_eq!(par, serial);
    }

    #[test]
    fn aux_tables_translate_correctly(
        a in prop::collection::vec(0u64..2_000, 1..2_000),
        b in prop::collection::vec(0u64..2_000, 1..2_000),
    ) {
        let a = sorted_unique(a);
        let b = sorted_unique(b);
        let dm = merge_dictionaries(&a, &b);
        // X translates every old code to the position of the same value.
        for (i, v) in a.iter().enumerate() {
            prop_assert_eq!(dm.merged[dm.x_m[i] as usize], *v);
        }
        for (j, v) in b.iter().enumerate() {
            prop_assert_eq!(dm.merged[dm.x_d[j] as usize], *v);
        }
        // Merged dictionary is the sorted union.
        let mut want: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        want.sort_unstable();
        want.dedup();
        prop_assert_eq!(dm.merged, want);
    }

    #[test]
    fn corank_is_always_a_valid_split(
        a in prop::collection::vec(0u64..300, 0..400),
        b in prop::collection::vec(0u64..300, 0..400),
        kfrac in 0.0f64..=1.0,
    ) {
        let a = sorted_unique(a);
        let b = sorted_unique(b);
        let k = ((a.len() + b.len()) as f64 * kfrac) as usize;
        let (i, j) = corank(k, &a, &b);
        prop_assert_eq!(i + j, k);
        if i > 0 && j < b.len() {
            prop_assert!(a[i - 1] <= b[j]);
        }
        if j > 0 && i < a.len() {
            prop_assert!(b[j - 1] <= a[i]);
        }
    }

    #[test]
    fn merge_then_reencode_preserves_every_tuple(
        main_vals in prop::collection::vec(any::<u64>(), 0..300),
        delta_vals in prop::collection::vec(any::<u64>(), 0..300),
    ) {
        // Full-width values: stress dictionary sizes close to tuple counts.
        let main = MainPartition::from_values(&main_vals);
        let delta = delta_from(&delta_vals);
        let out = MergePipeline::new(MergeStrategy::Optimized, 1)
            .merge_column(&main, &delta, &mut MergeScratch::new())
            .main;
        for (i, v) in main_vals.iter().enumerate() {
            prop_assert_eq!(out.get(i), *v);
        }
        for (k, v) in delta_vals.iter().enumerate() {
            prop_assert_eq!(out.get(main_vals.len() + k), *v);
        }
    }
}
