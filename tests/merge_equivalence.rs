//! Cross-algorithm equivalence at integration scale: naive, optimized and
//! parallel merges must produce bit-identical partitions across value types,
//! uniqueness regimes and repeated merge generations — each equal to a bulk
//! load of the concatenated rows.

use hyrise::merge::{MergePipeline, MergeScratch, MergeStrategy};
use hyrise::storage::{FrozenDelta, MainPartition, Value, V16};
use hyrise::workload::values::{values_with_unique, UniqueSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn delta_from<V: Value>(values: &[V]) -> FrozenDelta<V> {
    FrozenDelta::from_values(values)
}

/// Merge `delta_vals` into a bulk-loaded `main_vals` under every strategy:
/// each output must equal the bulk load of `main_vals ++ delta_vals` in
/// dictionary, code width, every code and zone map.
fn assert_all_equal<V: Value>(main_vals: &[V], delta_vals: &[V], threads: usize) {
    let main = MainPartition::from_values(main_vals);
    let delta = delta_from(delta_vals);
    let all: Vec<V> = main_vals.iter().chain(delta_vals).copied().collect();
    let oracle = MainPartition::from_values(&all);
    let want: Vec<u64> = oracle.codes().collect();
    for (strategy, threads) in [
        (MergeStrategy::Naive, threads),
        (MergeStrategy::Optimized, 1),
        (MergeStrategy::Parallel, threads),
    ] {
        let out = MergePipeline::new(strategy, threads)
            .merge_column(&main, &delta, &mut MergeScratch::new())
            .main;
        assert_eq!(
            out.dictionary().values(),
            oracle.dictionary().values(),
            "{strategy:?}"
        );
        assert_eq!(out.code_bits(), oracle.code_bits(), "{strategy:?}");
        assert_eq!(out.codes().collect::<Vec<_>>(), want, "{strategy:?}");
        assert_eq!(out.zones(), oracle.zones(), "{strategy:?}");
    }
}

fn scenario<V: Value>(n_m: usize, n_d: usize, lambda_m: f64, lambda_d: f64, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let main_vals: Vec<V> = values_with_unique(&mut rng, UniqueSpec::from_lambda(n_m, lambda_m));
    let main_unique = MainPartition::from_values(&main_vals).dictionary().len();
    // Delta half-overlaps the main's domain.
    let spec = UniqueSpec::from_lambda(n_d, lambda_d).offset((main_unique / 2) as u64);
    let delta_vals: Vec<V> = values_with_unique(&mut rng, spec);
    for threads in [1, 4, 13] {
        assert_all_equal(&main_vals, &delta_vals, threads);
    }
}

#[test]
fn equivalence_u64_low_uniqueness() {
    scenario::<u64>(60_000, 6_000, 0.01, 0.02, 1);
}

#[test]
fn equivalence_u64_full_uniqueness() {
    scenario::<u64>(40_000, 8_000, 1.0, 1.0, 2);
}

#[test]
fn equivalence_u32_narrow_values() {
    scenario::<u32>(50_000, 5_000, 0.1, 0.1, 3);
}

#[test]
fn equivalence_v16_wide_values() {
    scenario::<V16>(30_000, 3_000, 0.5, 0.5, 4);
}

#[test]
fn equivalence_degenerate_shapes() {
    // Empty delta.
    let main = (0u64..10_000).map(|i| i % 37).collect::<Vec<_>>();
    assert_all_equal(&main, &[], 8);
    // Empty main.
    let delta = (0u64..5_000).map(|i| i % 91).collect::<Vec<_>>();
    assert_all_equal(&[], &delta, 8);
    // Single-value column.
    assert_all_equal(&[42u64; 10_000], &[42u64; 1_000], 8);
    // Delta entirely new values.
    let main = (0u64..5_000).collect::<Vec<_>>();
    assert_all_equal(&main, &(1_000_000u64..1_003_000).collect::<Vec<_>>(), 8);
    // Delta entirely duplicate values.
    assert_all_equal(&main, &(0u64..3_000).collect::<Vec<_>>(), 8);
    // Width growth at exactly 2^k distinct values: 255 values (8 bits)
    // plus one new value is 256 values, 9 bits.
    let main = (0u64..20_000).map(|i| i % 255).collect::<Vec<_>>();
    assert_all_equal(&main, &[1_000], 8);
}

#[test]
fn five_merge_generations_stay_consistent() {
    // Repeatedly merge successive deltas with the *parallel* algorithm and
    // verify the final column against a from-scratch bulk load of all data.
    let mut rng = StdRng::seed_from_u64(55);
    let mut all: Vec<u64> = values_with_unique(&mut rng, UniqueSpec::from_lambda(20_000, 0.05));
    let mut main = MainPartition::from_values(&all);
    for gen in 0..5u64 {
        let spec = UniqueSpec::from_lambda(4_000, 0.2).offset(gen * 300);
        let delta_vals: Vec<u64> = values_with_unique(&mut rng, spec);
        all.extend_from_slice(&delta_vals);
        main = MergePipeline::new(MergeStrategy::Parallel, 6)
            .merge_column(&main, &delta_from(&delta_vals), &mut MergeScratch::new())
            .main;

        let reference = MainPartition::from_values(&all);
        assert_eq!(
            main.dictionary().values(),
            reference.dictionary().values(),
            "gen {gen}"
        );
        assert_eq!(
            main.codes().collect::<Vec<_>>(),
            reference.codes().collect::<Vec<_>>(),
            "gen {gen}: incremental merges must equal a bulk rebuild"
        );
    }
}

#[test]
fn code_width_growth_across_generations() {
    // Dictionary growth across merges must widen codes exactly per Eq. 4.
    let mut main = MainPartition::from_values(&[0u64, 1]); // 2 values, 1 bit
    assert_eq!(main.code_bits(), 1);
    let mut next_value = 2u64;
    for expected_bits in [2u8, 3, 4, 5, 6, 7, 8] {
        // Double the dictionary by adding as many new values as it holds.
        let add = main.dictionary().len();
        let delta = delta_from(&(next_value..next_value + add as u64).collect::<Vec<_>>());
        next_value += add as u64;
        main = MergePipeline::new(MergeStrategy::Parallel, 4)
            .merge_column(&main, &delta, &mut MergeScratch::new())
            .main;
        assert_eq!(
            main.code_bits(),
            expected_bits,
            "after growing to {} values",
            main.dictionary().len()
        );
    }
}
