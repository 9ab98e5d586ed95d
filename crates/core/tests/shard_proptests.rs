//! Property test: sharding is transparent. Any interleaving of inserts,
//! updates, deletes and merges applied to a [`ShardedTable`] and to a
//! single [`OnlineTable`] must leave the *same logical table*: identical
//! visible rows (position by position), identical validity, identical
//! aggregates — regardless of shard count, routing scheme, or when each
//! side chose to merge which shard.

use hyrise_core::shard::{ShardBy, ShardRowId, ShardedTable};
use hyrise_core::OnlineTable;
use proptest::prelude::*;

const COLS: usize = 2;

/// Deterministic row payload for a value seed.
fn row(seed: u64) -> Vec<u64> {
    (0..COLS as u64)
        .map(|c| seed.wrapping_mul(0x9E37).wrapping_add(c * 1_000_003) % 100_000)
        .collect()
}

/// One logical operation, encoded from raw proptest integers.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert {
        seed: u64,
    },
    Update {
        target: u64,
        seed: u64,
    },
    Delete {
        target: u64,
    },
    /// Merge one shard on the sharded side, and (independently) the single
    /// table — equivalence must hold no matter which side merged when.
    Merge {
        shard: u64,
        single_too: bool,
    },
}

fn decode(code: u8, a: u64, b: u64) -> Op {
    match code % 8 {
        0..=3 => Op::Insert { seed: a },
        4 => Op::Update { target: a, seed: b },
        5 => Op::Delete { target: a },
        _ => Op::Merge {
            shard: a,
            single_too: b.is_multiple_of(2),
        },
    }
}

fn apply_all(
    sharded: &ShardedTable<u64>,
    single: &OnlineTable<u64>,
    ops: &[(u8, u64, u64)],
) -> (Vec<ShardRowId>, Vec<usize>) {
    // Logical id `i` = the i-th appended row on either side.
    let mut sharded_ids: Vec<ShardRowId> = Vec::new();
    let mut single_ids: Vec<usize> = Vec::new();
    for &(code, a, b) in ops {
        match decode(code, a, b) {
            Op::Insert { seed } => {
                let r = row(seed);
                sharded_ids.push(sharded.insert_row(&r).unwrap());
                single_ids.push(single.insert_row(&r).unwrap());
            }
            Op::Update { target, seed } => {
                if sharded_ids.is_empty() {
                    continue;
                }
                let i = (target as usize) % sharded_ids.len();
                let r = row(seed);
                sharded_ids.push(sharded.update_row(sharded_ids[i], &r).unwrap());
                single_ids.push(single.insert_row(&r).unwrap());
                single.delete_row(single_ids[i]).unwrap();
            }
            Op::Delete { target } => {
                if sharded_ids.is_empty() {
                    continue;
                }
                let i = (target as usize) % sharded_ids.len();
                sharded.delete_row(sharded_ids[i]).unwrap();
                single.delete_row(single_ids[i]).unwrap();
            }
            Op::Merge { shard, single_too } => {
                let s = (shard as usize) % sharded.num_shards();
                let _ = sharded.shard(s).merge(1);
                if single_too {
                    let _ = single.merge(1);
                }
            }
        }
    }
    (sharded_ids, single_ids)
}

/// Assert both sides describe the same logical table.
fn assert_equivalent(
    sharded: &ShardedTable<u64>,
    single: &OnlineTable<u64>,
    sharded_ids: &[ShardRowId],
    single_ids: &[usize],
) {
    assert_eq!(sharded.row_count(), single.row_count(), "total rows");
    assert_eq!(
        sharded.valid_row_count(),
        single.valid_row_count(),
        "visible rows"
    );
    let mut sum = [0u128; COLS];
    let mut valid_rows = 0usize;
    for (sid, uid) in sharded_ids.iter().zip(single_ids) {
        assert_eq!(
            sharded.is_valid(*sid),
            single.is_valid(*uid),
            "visibility of logical row must match"
        );
        assert_eq!(sharded.row(*sid), single.row(*uid), "row payload");
        if single.is_valid(*uid) {
            valid_rows += 1;
            for (c, acc) in sum.iter_mut().enumerate() {
                *acc += single.get(c, *uid) as u128;
            }
        }
    }
    assert_eq!(valid_rows, single.valid_row_count(), "id list covers table");
    // The same aggregates, recomputed from the sharded side's snapshots
    // (exercises the fan-out read path rather than trusting the id list).
    for (c, want) in sum.iter().enumerate() {
        let got: u128 = sharded
            .snapshots()
            .iter()
            .map(|snap| {
                (0..snap.row_count())
                    .filter(|&r| snap.is_valid(r))
                    .map(|r| snap.col(c).get(r) as u128)
                    .sum::<u128>()
            })
            .sum();
        assert_eq!(got, *want, "column {c} aggregate via snapshots");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_equals_single_table_under_any_interleaving(
        shards in 1usize..5,
        range_partitioned in any::<bool>(),
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..250),
    ) {
        let sharded = if range_partitioned {
            // Bounds quarter the 0..100_000 key domain produced by `row`.
            let bounds: Vec<u64> = (1..shards as u64).map(|i| i * 100_000 / shards as u64).collect();
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
        };
        let single = OnlineTable::<u64>::new(COLS);
        let (sharded_ids, single_ids) = apply_all(&sharded, &single, &ops);
        assert_equivalent(&sharded, &single, &sharded_ids, &single_ids);

        // Quiescing both sides afterwards must change nothing visible.
        sharded.merge_all(1).unwrap();
        let _ = single.merge(1);
        assert_equivalent(&sharded, &single, &sharded_ids, &single_ids);
        prop_assert_eq!(sharded.delta_len(), 0);
    }
}
