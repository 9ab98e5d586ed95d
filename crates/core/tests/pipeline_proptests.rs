//! Cross-strategy merge-pipeline property test: for **arbitrary**
//! insert/update/delete/merge interleavings, every merge configuration —
//! naive, optimized, parallel; 1–4 threads; with and without a
//! [`MergeBudget`] — must leave **byte-identical** state: the same merged
//! main partitions (dictionary values and packed code words), the same
//! validity, the same visible rows. On a single [`OnlineTable`] and on
//! 1–4-shard hash- and range-partitioned [`ShardedTable`]s.
//!
//! Every compared main partition's zone map — carried through the merge's
//! code map, never rescanned for full old blocks — must also equal a
//! brute-force per-block min/max of its codes; an ascending bulk prefix
//! gives the mains several narrow-zoned blocks for the carry to get wrong.
//!
//! A column-level property drives the inputs that reach the merge's copy
//! paths — appended keys, saturated few-valued columns, new values
//! interleaved mid-dictionary, and a code width that crosses a power of
//! two — and holds every strategy and thread count to `Naive`'s bytes.

use hyrise_core::shard::{ShardBy, ShardRowId, ShardedTable};
use hyrise_core::{
    MergeBudget, MergeGrant, MergePipeline, MergePolicy, MergeScratch, MergeStrategy, OnlineTable,
};
use hyrise_storage::{FrozenDelta, MainPartition, ZONE_ROWS};
use proptest::prelude::*;

const COLS: usize = 3;

/// Deterministic row payload for a value seed.
fn row(seed: u64) -> Vec<u64> {
    (0..COLS as u64)
        .map(|c| seed.wrapping_mul(0x9E37).wrapping_add(c * 1_000_003) % 100_000)
        .collect()
}

/// Row `i` of the ascending bulk prefix: a monotonic key, a clustered
/// column and a short cycle.
fn bulk_row(i: u64) -> Vec<u64> {
    vec![i, i / 700, i % 97]
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

/// The merge configurations under test; index 0 is the reference. Threads
/// beyond the host's cores are legal (the pipeline clamps them).
fn configs(t1: usize, t2: usize, t3: usize) -> Vec<MergeGrant> {
    vec![
        MergeGrant::with_threads(1).strategy(MergeStrategy::Optimized),
        MergeGrant::with_threads(t1).strategy(MergeStrategy::Naive),
        MergeGrant::with_threads(t2)
            .strategy(MergeStrategy::Naive)
            .budget(MergeBudget::columns(1)),
        MergeGrant::with_threads(1)
            .strategy(MergeStrategy::Optimized)
            .budget(MergeBudget::columns(2)),
        MergeGrant::with_threads(t3).strategy(MergeStrategy::Parallel),
        MergeGrant::with_threads(t1)
            .strategy(MergeStrategy::Parallel)
            .budget(MergeBudget::columns(1)),
    ]
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert { seed: u64 },
    Update { target: u64, seed: u64 },
    Delete { target: u64 },
    Merge,
}

fn decode(code: u8, a: u64, b: u64) -> Op {
    match code % 8 {
        0..=3 => Op::Insert { seed: a },
        4 => Op::Update { target: a, seed: b },
        5 => Op::Delete { target: a },
        _ => Op::Merge,
    }
}

/// Byte-level equality of two online tables' main partitions + validity,
/// and both zone maps equal to the brute-force one.
fn assert_tables_identical(a: &OnlineTable<u64>, b: &OnlineTable<u64>, what: &str) {
    let (sa, sb) = (a.snapshot(), b.snapshot());
    assert_eq!(sa.row_count(), sb.row_count(), "{what}: row counts");
    for c in 0..COLS {
        let want = brute_zones(sa.col(c).main());
        assert_eq!(
            sa.col(c).main().zones(),
            &want[..],
            "{what}: column {c} reference zones"
        );
        assert_eq!(
            sb.col(c).main().zones(),
            &want[..],
            "{what}: column {c} zones"
        );
        assert_eq!(
            sa.col(c).main().dictionary().values(),
            sb.col(c).main().dictionary().values(),
            "{what}: column {c} dictionary"
        );
        assert_eq!(
            sa.col(c).main().packed_codes().words(),
            sb.col(c).main().packed_codes().words(),
            "{what}: column {c} packed words"
        );
        assert_eq!(
            sa.col(c).main().code_bits(),
            sb.col(c).main().code_bits(),
            "{what}: column {c} code width"
        );
    }
    for r in 0..sa.row_count() {
        assert_eq!(sa.is_valid(r), sb.is_valid(r), "{what}: validity row {r}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn all_strategies_and_budgets_agree_on_online_table(
        t1 in 1usize..5,
        t2 in 1usize..5,
        t3 in 1usize..5,
        bulk in 0u64..3,
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..180),
    ) {
        let grants = configs(t1, t2, t3);
        // One table per grant, plus one merged column by column through a
        // stepped `MergeSession` (last).
        let tables: Vec<OnlineTable<u64>> =
            (0..=grants.len()).map(|_| OnlineTable::new(COLS)).collect();
        let stepped = &tables[grants.len()];
        let step_merge = || {
            let grant = MergeGrant::with_threads(t2).budget(MergeBudget::columns(1));
            let mut session = stepped.begin_merge(grant).unwrap();
            while session.step().unwrap() {}
            session.finish().unwrap();
        };
        let prefix: Vec<Vec<u64>> = (0..bulk * 2_500).map(bulk_row).collect();
        let mut ids: Vec<usize> = Vec::new();
        for t in &tables {
            ids = t.insert_rows(&prefix).unwrap().collect();
        }
        for &(code, a, b) in &ops {
            match decode(code, a, b) {
                Op::Insert { seed } => {
                    let r = row(seed);
                    let mut last = 0;
                    for t in &tables {
                        last = t.insert_row(&r).unwrap();
                    }
                    ids.push(last);
                }
                Op::Update { target, seed } => {
                    if ids.is_empty() {
                        continue;
                    }
                    let i = ids[(target as usize) % ids.len()];
                    let r = row(seed);
                    let mut last = 0;
                    for t in &tables {
                        last = t.insert_row(&r).unwrap();
                        t.delete_row(i).unwrap();
                    }
                    ids.push(last);
                }
                Op::Delete { target } => {
                    if ids.is_empty() {
                        continue;
                    }
                    let i = ids[(target as usize) % ids.len()];
                    for t in &tables {
                        t.delete_row(i).unwrap();
                    }
                }
                Op::Merge => {
                    for (t, g) in tables.iter().zip(&grants) {
                        t.merge_with(*g).unwrap();
                    }
                    step_merge();
                }
            }
        }
        // Quiesce every config, then compare byte-for-byte.
        for (t, g) in tables.iter().zip(&grants) {
            t.merge_with(*g).unwrap();
            prop_assert_eq!(t.delta_len(), 0);
        }
        step_merge();
        prop_assert_eq!(stepped.delta_len(), 0);
        assert_tables_identical(&tables[0], stepped, "stepped merge session");
        for (k, t) in tables[..grants.len()].iter().enumerate().skip(1) {
            assert_tables_identical(&tables[0], t, &format!("grant {:?}", grants[k]));
        }
    }

    #[test]
    fn all_strategies_and_budgets_agree_on_sharded_table(
        shards in 1usize..5,
        range_partitioned in any::<bool>(),
        t1 in 1usize..5,
        t2 in 1usize..5,
        t3 in 1usize..5,
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..140),
    ) {
        let grants = configs(t1, t2, t3);
        let make = || {
            if range_partitioned {
                let bounds: Vec<u64> =
                    (1..shards as u64).map(|i| i * 100_000 / shards as u64).collect();
                ShardedTable::<u64>::builder()
                    .partitioning(ShardBy::Range(bounds))
                    .columns(COLS)
                    .build()
                    .unwrap()
            } else {
                ShardedTable::<u64>::builder()
                    .shards(shards)
                    .columns(COLS)
                    .build()
                    .unwrap()
            }
        };
        let tables: Vec<ShardedTable<u64>> = (0..grants.len()).map(|_| make()).collect();
        let mut ids: Vec<ShardRowId> = Vec::new();
        for &(code, a, b) in &ops {
            match decode(code, a, b) {
                Op::Insert { seed } => {
                    let r = row(seed);
                    let mut last = ShardRowId { shard: 0, row: 0 };
                    for t in &tables {
                        last = t.insert_row(&r).unwrap();
                    }
                    ids.push(last);
                }
                Op::Update { target, seed } => {
                    if ids.is_empty() {
                        continue;
                    }
                    let i = ids[(target as usize) % ids.len()];
                    let r = row(seed);
                    let mut last = ShardRowId { shard: 0, row: 0 };
                    for t in &tables {
                        last = t.update_row(i, &r).unwrap();
                    }
                    ids.push(last);
                }
                Op::Delete { target } => {
                    if ids.is_empty() {
                        continue;
                    }
                    let i = ids[(target as usize) % ids.len()];
                    for t in &tables {
                        t.delete_row(i).unwrap();
                    }
                }
                Op::Merge => {
                    // Merge the same shard in every config.
                    let s = (a as usize) % shards;
                    for (t, g) in tables.iter().zip(&grants) {
                        let _ = t.shard(s).merge_with(*g);
                    }
                }
            }
        }
        for (t, g) in tables.iter().zip(&grants) {
            t.merge_all_with(*g).unwrap();
            prop_assert_eq!(t.delta_len(), 0);
        }
        // Byte-compare shard by shard against the reference config.
        for (k, t) in tables.iter().enumerate().skip(1) {
            for s in 0..shards {
                assert_tables_identical(
                    tables[0].shard(s),
                    t.shard(s),
                    &format!("shard {s}, grant {:?}", grants[k]),
                );
            }
        }
        // And the logical rows agree through the global id list.
        for id in ids.iter().step_by(7) {
            for t in tables.iter().skip(1) {
                prop_assert_eq!(tables[0].row(*id), t.row(*id));
                prop_assert_eq!(tables[0].is_valid(*id), t.is_valid(*id));
            }
        }
    }

    /// Whatever a policy grants — any soft limit, policy budget, strategy
    /// and width, hence either row of [`MergePolicy::grant_at`] — the
    /// grants must leave the table byte-identical to the reference
    /// configuration. Adaptivity tunes cost, never results.
    #[test]
    fn governor_driven_grants_preserve_byte_identity(
        // 64 is the "no limit" sentinel (the vendored proptest stub has no
        // Option strategy).
        soft_limit_kb in 0usize..65,
        // COLS + 1 is the unbounded sentinel.
        budget_cols in 1usize..(COLS + 2),
        threads in 1usize..8,
        strategy in 0usize..3,
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..160),
    ) {
        let reference = OnlineTable::<u64>::new(COLS);
        let governed = OnlineTable::<u64>::new(COLS);
        // Policy knobs drawn by proptest: a kilobyte-scale soft limit (or
        // none) flips memory pressure on and off mid-run as the table grows
        // and merges; unpressured merges run the drawn budget, so budgets
        // 1..=COLS and the unbounded one stay covered.
        let policy = MergePolicy {
            delta_fraction: 0.05,
            threads,
            strategy: [MergeStrategy::Naive, MergeStrategy::Optimized, MergeStrategy::Parallel]
                [strategy],
            budget: if budget_cols > COLS {
                MergeBudget::UNBOUNDED
            } else {
                MergeBudget::columns(budget_cols)
            },
            memory_soft_limit: if soft_limit_kb == 64 {
                usize::MAX
            } else {
                soft_limit_kb * 1024
            },
        };
        let reference_grant = MergeGrant::with_threads(1).strategy(MergeStrategy::Optimized);
        let mut ids: Vec<usize> = Vec::new();
        for &(code, a, b) in &ops {
            match decode(code, a, b) {
                Op::Insert { seed } => {
                    let r = row(seed);
                    reference.insert_row(&r).unwrap();
                    ids.push(governed.insert_row(&r).unwrap());
                }
                Op::Update { target, seed } => {
                    if ids.is_empty() {
                        continue;
                    }
                    let i = ids[(target as usize) % ids.len()];
                    let r = row(seed);
                    reference.insert_row(&r).unwrap();
                    reference.delete_row(i).unwrap();
                    ids.push(governed.insert_row(&r).unwrap());
                    governed.delete_row(i).unwrap();
                }
                Op::Delete { target } => {
                    if ids.is_empty() {
                        continue;
                    }
                    let i = ids[(target as usize) % ids.len()];
                    reference.delete_row(i).unwrap();
                    governed.delete_row(i).unwrap();
                }
                Op::Merge => {
                    reference.merge_with(reference_grant).unwrap();
                    // Merge unconditionally (selection gates *when*, the
                    // property is about *what* the grant produces) with
                    // whatever grant the policy states for the live memory.
                    let (grant, _) = policy.grant_at(governed.memory_report().total());
                    governed.merge_with(grant).unwrap();
                }
            }
        }
        reference.merge_with(reference_grant).unwrap();
        let (final_grant, _) = policy.grant_at(governed.memory_report().total());
        governed.merge_with(final_grant).unwrap();
        prop_assert_eq!(governed.delta_len(), 0);
        assert_tables_identical(
            &reference,
            &governed,
            &format!("policy grants, last = {final_grant:?}"),
        );
    }
}

/// One column's main and delta values for the copy-path property, by
/// `shape`:
///
/// * 0 — ascending even keys absorb `appended` keys above them plus one
///   odd key per `new` value, each between two main keys, so the first
///   code `X_M` moves lands mid-table, often on a block edge;
/// * 1 — a saturated column of `2^k_bits` even values absorbs repeats of
///   them plus one odd value per `new` value between two of them;
/// * 2 — a column of `2^k_bits - 1 + grow` values absorbs `1 + new.len()`
///   values above them: the union reaches exactly `2^k_bits` distinct values
///   (same width) when `grow` is 0 and nothing is new, and crosses to
///   `k_bits + 1` bits otherwise.
fn copy_shape(
    shape: usize,
    n_m: usize,
    appended: usize,
    k_bits: u32,
    grow: bool,
    new: &[u64],
) -> (Vec<u64>, Vec<u64>) {
    let n = n_m as u64;
    let card = 1u64 << k_bits;
    match shape {
        0 => {
            let main = (0..n).map(|i| 2 * i).collect();
            // Half the new keys land just below a block's last key, where
            // the copy's `max < F` bound decides that block.
            let blocks = n / ZONE_ROWS as u64;
            let below = |v: u64| match v & 2 {
                0 => v % n,
                _ => ((v >> 2) % blocks + 1) * ZONE_ROWS as u64 - 1 - (v & 1),
            };
            let delta = (0..appended as u64)
                .map(|i| 2 * (n + i))
                .chain(new.iter().map(|&v| 2 * below(v) + 1))
                .collect();
            (main, delta)
        }
        1 => {
            let main = (0..n).map(|i| 2 * (i * 7 % card)).collect();
            let delta = (0..appended as u64)
                .map(|i| 2 * (i % card))
                .chain(new.iter().map(|v| 2 * (v % card) + 1))
                .collect();
            (main, delta)
        }
        _ => {
            let distinct = card - 1 + grow as u64;
            let main = (0..n).map(|i| i * distinct / n).collect();
            let delta = (0..=new.len() as u64).map(|i| card + i).collect();
            (main, delta)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn copy_paths_equal_naive_bytewise(
        shape in 0usize..3,
        blocks in 1usize..6,
        extra in 0usize..ZONE_ROWS,
        appended in 0usize..3_000,
        k_bits in 1u32..11,
        grow in any::<bool>(),
        new in prop::collection::vec(any::<u64>(), 0..4),
    ) {
        let n_m = blocks * ZONE_ROWS + extra;
        let (main_vals, delta_vals) = copy_shape(shape, n_m, appended, k_bits, grow, &new);
        let main = MainPartition::from_values(&main_vals);
        let delta = FrozenDelta::from_values(&delta_vals);
        let mut scratch = MergeScratch::new();
        let reference =
            MergePipeline::new(MergeStrategy::Naive, 1).merge_column(&main, &delta, &mut scratch);
        let reference = reference.main;
        prop_assert_eq!(reference.zones(), &brute_zones(&reference)[..]);
        let widened = reference.code_bits() != main.code_bits();
        for strategy in [MergeStrategy::Naive, MergeStrategy::Optimized, MergeStrategy::Parallel] {
            for threads in 1usize..5 {
                for pipe in [
                    MergePipeline::new(strategy, threads),
                    MergePipeline::exact(strategy, threads),
                ] {
                    let out = pipe.merge_column(&main, &delta, &mut scratch);
                    let what = format!("{pipe:?}, shape {shape}, {n_m}+{}", delta_vals.len());
                    prop_assert_eq!(
                        out.main.dictionary().values(),
                        reference.dictionary().values(),
                        "{}: dictionary",
                        &what
                    );
                    prop_assert_eq!(out.main.code_bits(), reference.code_bits(), "{}", &what);
                    prop_assert_eq!(
                        out.main.packed_codes().words(),
                        reference.packed_codes().words(),
                        "{}: packed words",
                        &what
                    );
                    prop_assert_eq!(out.main.zones(), reference.zones(), "{}: zones", &what);
                    if widened || strategy == MergeStrategy::Naive {
                        prop_assert_eq!(out.stats.rows_copied, 0, "{}", &what);
                    } else if new.is_empty() {
                        // Nothing moves: every full main block is copied.
                        prop_assert_eq!(out.stats.rows_copied, blocks * ZONE_ROWS, "{}", &what);
                    }
                    scratch.recycle_main(out.main);
                }
            }
        }
    }
}
