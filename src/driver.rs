//! Mixed-workload driver: executes a [`workload`](crate::workload) operation
//! stream against an [`OnlineTable`], closing the
//! loop between the Section 2 workload characterization and the merge
//! machinery — the "single system for both transactional and analytical
//! workloads" the paper argues for, in miniature.
//!
//! [`drive_sharded`] is the scale-out version: one worker thread per shard
//! replays a [`ShardedWorkload`] stream against a [`ShardedTable`] facade —
//! lookups and updates address rows by global `(shard, row)` id, range
//! selects fan out across shards, and window scans read per-shard
//! snapshots, all while a `MergeScheduler` (owned by the caller) keeps
//! each shard's delta bounded.

use crate::merge::{OnlineTable, Result, TableConfig};
use crate::shard::{ShardRowId, ShardedTable};
use crate::workload::{Operation, ShardedWorkload, UpdateStream};
use hyrise_query::Query;
use hyrise_storage::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Execution counters for a driven workload.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DriverStats {
    /// Point lookups executed.
    pub lookups: u64,
    /// Scan windows executed (and tuples touched).
    pub scans: u64,
    /// Tuples touched by scans.
    pub scanned_tuples: u64,
    /// Range selects executed.
    pub ranges: u64,
    /// Rows inserted.
    pub inserts: u64,
    /// Rows updated (new version + invalidation).
    pub updates: u64,
    /// Rows deleted (invalidated).
    pub deletes: u64,
    /// Checksum accumulated from reads (prevents dead-code elimination and
    /// doubles as a determinism probe).
    pub checksum: u64,
}

impl DriverStats {
    /// Total write operations.
    pub fn writes(&self) -> u64 {
        self.inserts + self.updates + self.deletes
    }

    /// Total read operations.
    pub fn reads(&self) -> u64 {
        self.lookups + self.scans + self.ranges
    }
}

/// Build the row written for value seed `seed` (deterministic, one value per
/// column derived from the seed).
pub fn row_for_seed<V: Value>(seed: u64, cols: usize) -> Vec<V> {
    (0..cols as u64)
        .map(|c| V::from_seed((seed.wrapping_mul(31).wrapping_add(c)) & 0xFFFF_FFFF))
        .collect()
}

/// Execute `n` operations from `stream` against `table`. Row indices from
/// the stream are clamped to the live table (the stream's logical row count
/// tracks inserts but the driver is authoritative).
pub fn drive<V: Value, R: Rng>(
    table: &OnlineTable<V>,
    stream: &mut UpdateStream,
    rng: &mut R,
    n: usize,
) -> DriverStats {
    let cols = table.num_columns();
    let mut stats = DriverStats::default();
    for _ in 0..n {
        match stream.next_op(rng) {
            Operation::Lookup { row } => {
                let rows = table.row_count();
                if rows > 0 {
                    let r = (row as usize).min(rows - 1);
                    stats.checksum = stats
                        .checksum
                        .wrapping_add(table.get(r % cols.max(1) % cols, r).to_u64_lossy());
                    stats.lookups += 1;
                }
            }
            Operation::Scan { start, len } => {
                let rows = table.row_count();
                if rows > 0 {
                    let s = (start as usize).min(rows - 1);
                    let e = (s + len as usize).min(rows);
                    let mut acc = 0u64;
                    for r in s..e {
                        acc = acc.wrapping_add(table.get(0, r).to_u64_lossy());
                    }
                    stats.checksum = stats.checksum.wrapping_add(acc);
                    stats.scans += 1;
                    stats.scanned_tuples += (e - s) as u64;
                }
            }
            Operation::RangeSelect { lo, hi } => {
                // One engine call against the table's snapshot executor:
                // the predicate is pushed down to dictionary value-id space
                // on the merged main partition, and the scan itself runs
                // without the table lock.
                let hits = Query::scan(0)
                    .between(V::from_seed(lo), V::from_seed(hi))
                    .count()
                    .run(table)
                    .count();
                stats.checksum = stats.checksum.wrapping_add(hits as u64);
                stats.ranges += 1;
            }
            Operation::Insert { seed } => {
                table.insert_row(&row_for_seed::<V>(seed, cols));
                stats.inserts += 1;
            }
            Operation::Update { row, seed } => {
                let rows = table.row_count();
                if rows > 0 {
                    table.update_row((row as usize).min(rows - 1), &row_for_seed::<V>(seed, cols));
                    stats.updates += 1;
                }
            }
            Operation::Delete { row } => {
                let rows = table.row_count();
                if rows > 0 {
                    table.delete_row((row as usize).min(rows - 1));
                    stats.deletes += 1;
                }
            }
        }
    }
    stats
}

/// Build the hash-sharded table a [`ShardedWorkload`] scenario runs
/// against, from one [`TableConfig`]: shard count from the workload,
/// columns and durability from the config. With
/// [`crate::merge::Durability::Wal`] each shard logs into its own
/// sub-directory under the configured root.
pub fn sharded_table_for<V: Value>(
    workload: &ShardedWorkload,
    config: TableConfig,
) -> Result<ShardedTable<V>> {
    ShardedTable::<V>::builder()
        .shards(workload.shards)
        .columns(config.columns)
        .durability(config.durability)
        .build()
}

/// Preload a [`ShardedTable`] with the scenario's initial rows (batched
/// routing, then a quiescing merge of every shard) and return their global
/// ids in seed order. Merges run under the default
/// [`crate::merge::MergeGrant`]; use [`preload_sharded_with`] to pick a
/// strategy or cap the merge's peak memory. Fails only on a durable
/// table whose WAL append or merge checkpoint fails.
pub fn preload_sharded<V: Value>(
    table: &ShardedTable<V>,
    workload: &ShardedWorkload,
) -> Result<Vec<ShardRowId>> {
    preload_sharded_with(table, workload, crate::merge::MergeGrant::default())
}

/// As [`preload_sharded`], with an explicit merge grant: the strategy,
/// thread count and [`crate::merge::MergeBudget`] apply to every shard's
/// quiescing merge, so a budget of K columns bounds the preload's peak
/// extra memory to the largest K-column working set per shard.
pub fn preload_sharded_with<V: Value>(
    table: &ShardedTable<V>,
    workload: &ShardedWorkload,
    grant: crate::merge::MergeGrant,
) -> Result<Vec<ShardRowId>> {
    let cols = table.num_columns();
    let rows: Vec<Vec<V>> = (0..workload.initial_rows())
        .map(|i| row_for_seed(i, cols))
        .collect();
    let ids = table.insert_rows(&rows)?;
    table.merge_all_with(grant)?;
    Ok(ids)
}

/// Execute the sharded scenario: `workload.shards` worker threads, each
/// replaying its own deterministic stream against the shared facade.
/// `preloaded` are the ids returned by [`preload_sharded`]; workers address
/// reads/updates against them plus their own appended rows. Returns one
/// [`DriverStats`] per worker.
pub fn drive_sharded<V: Value>(
    table: &ShardedTable<V>,
    workload: &ShardedWorkload,
    preloaded: &[ShardRowId],
) -> Vec<DriverStats> {
    let cols = table.num_columns();
    let base: Arc<Vec<ShardRowId>> = Arc::new(preloaded.to_vec());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workload.shards)
            .map(|w| {
                let base = Arc::clone(&base);
                s.spawn(move || {
                    let mut stream = workload.stream(w);
                    let mut rng = StdRng::seed_from_u64(workload.shard_seed(w));
                    let mut stats = DriverStats::default();
                    // Rows this worker appended (readable without races; other
                    // workers' appends are invisible to its id space).
                    let mut own: Vec<ShardRowId> = Vec::new();
                    // Worker-unique value seeds: mix the worker index into
                    // the low bits (`row_for_seed` masks to 32 bits, so a
                    // high-bit tag would vanish).
                    let tag = (w as u64 + 1).wrapping_mul(0x9E37_79B9) << 16;
                    // None until this worker knows at least one row (empty
                    // preload and no own inserts yet): row-addressed ops are
                    // skipped rather than underflowing.
                    let pick = |row: u64, own: &[ShardRowId]| -> Option<ShardRowId> {
                        let n = base.len() + own.len();
                        let idx = (row as usize).min(n.checked_sub(1)?);
                        Some(if idx < base.len() {
                            base[idx]
                        } else {
                            own[idx - base.len()]
                        })
                    };
                    for _ in 0..workload.ops_per_shard {
                        match stream.next_op(&mut rng) {
                            Operation::Lookup { row } => {
                                let Some(id) = pick(row, &own) else { continue };
                                stats.checksum =
                                    stats.checksum.wrapping_add(table.get(id, 0).to_u64_lossy());
                                stats.lookups += 1;
                            }
                            Operation::Scan { start, len } => {
                                // Window scan over one shard's snapshot: reads
                                // are lock-free and consistent mid-merge.
                                let shard = (start as usize) % table.num_shards();
                                let snap = table.shard(shard).snapshot();
                                let rows = snap.row_count();
                                if rows > 0 {
                                    let s0 = (start as usize) % rows;
                                    let e = (s0 + len as usize).min(rows);
                                    let mut acc = 0u64;
                                    for r in s0..e {
                                        acc = acc.wrapping_add(snap.col(0).get(r).to_u64_lossy());
                                    }
                                    stats.checksum = stats.checksum.wrapping_add(acc);
                                    stats.scanned_tuples += (e - s0) as u64;
                                }
                                stats.scans += 1;
                            }
                            Operation::RangeSelect { lo, hi } => {
                                // Cross-shard fan-out on the key column —
                                // one query, executed per-shard and merged.
                                let hits = Query::scan(table.key_col())
                                    .between(V::from_seed(lo), V::from_seed(hi))
                                    .count()
                                    .run(table)
                                    .count();
                                stats.checksum = stats.checksum.wrapping_add(hits as u64);
                                stats.ranges += 1;
                            }
                            Operation::Insert { seed } => {
                                own.push(table.insert_row(&row_for_seed::<V>(tag | seed, cols)));
                                stats.inserts += 1;
                            }
                            Operation::Update { row, seed } => {
                                let Some(old) = pick(row, &own) else { continue };
                                own.push(
                                    table.update_row(old, &row_for_seed::<V>(tag | seed, cols)),
                                );
                                stats.updates += 1;
                            }
                            Operation::Delete { row } => {
                                let Some(id) = pick(row, &own) else { continue };
                                table.delete_row(id);
                                stats.deletes += 1;
                            }
                        }
                    }
                    stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::QueryMix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn driven_table(ops: usize) -> (OnlineTable<u64>, DriverStats) {
        let table = OnlineTable::<u64>::new(3);
        for i in 0..2_000u64 {
            table.insert_row(&row_for_seed(i, 3));
        }
        let mut stream = UpdateStream::new(QueryMix::oltp(), 2_000);
        let mut rng = StdRng::seed_from_u64(5);
        let stats = drive(&table, &mut stream, &mut rng, ops);
        (table, stats)
    }

    #[test]
    fn driver_executes_the_mix() {
        let (table, stats) = driven_table(20_000);
        assert_eq!(stats.reads() + stats.writes(), 20_000);
        let write_frac = stats.writes() as f64 / 20_000.0;
        assert!(
            (write_frac - 0.17).abs() < 0.02,
            "OLTP mix write fraction, got {write_frac}"
        );
        assert_eq!(
            table.row_count() as u64,
            2_000 + stats.inserts + stats.updates
        );
        assert!(stats.scanned_tuples > 0);
    }

    #[test]
    fn driver_is_deterministic() {
        let (_, a) = driven_table(5_000);
        let (_, b) = driven_table(5_000);
        assert_eq!(a, b, "same seeds, same execution");
    }

    #[test]
    fn sharded_driver_executes_the_mix_with_exact_accounting() {
        let w = ShardedWorkload::oltp(4).with_volumes(2_000, 3_000);
        let table = sharded_table_for::<u64>(
            &w,
            TableConfig {
                columns: 3,
                ..TableConfig::default()
            },
        )
        .unwrap();
        let ids = preload_sharded(&table, &w).unwrap();
        assert_eq!(ids.len(), 8_000);
        assert_eq!(table.main_len(), 8_000, "preload quiesces into main");

        let stats = drive_sharded(&table, &w, &ids);
        assert_eq!(stats.len(), 4);
        let ops: u64 = stats.iter().map(|s| s.reads() + s.writes()).sum();
        assert_eq!(ops, 12_000);
        let appended: u64 = stats.iter().map(|s| s.inserts + s.updates).sum();
        assert_eq!(
            table.row_count() as u64,
            8_000 + appended,
            "every insert/update appended exactly one row"
        );
        let invalidated: u64 = stats.iter().map(|s| s.updates + s.deletes).sum();
        let valid = table.valid_row_count() as u64;
        assert!(valid <= table.row_count() as u64);
        assert!(valid >= table.row_count() as u64 - invalidated);
        assert!(stats.iter().any(|s| s.ranges > 0), "fan-out ranges ran");
        assert!(stats.iter().any(|s| s.scanned_tuples > 0));
    }

    #[test]
    fn preload_with_budget_and_strategy_matches_default() {
        use crate::merge::{MergeBudget, MergeGrant, MergeStrategy};
        let a = ShardedTable::<u64>::builder()
            .shards(2)
            .columns(3)
            .build()
            .unwrap();
        let b = ShardedTable::<u64>::builder()
            .shards(2)
            .columns(3)
            .build()
            .unwrap();
        let w = ShardedWorkload::oltp(2).with_volumes(500, 0);
        let ids_a = preload_sharded(&a, &w).unwrap();
        let ids_b = preload_sharded_with(
            &b,
            &w,
            MergeGrant::with_threads(2)
                .strategy(MergeStrategy::Optimized)
                .budget(MergeBudget::columns(1)),
        )
        .unwrap();
        assert_eq!(ids_a, ids_b, "grant must not change routing or ids");
        assert_eq!(a.main_len(), b.main_len(), "both preloads fully quiesced");
        for id in ids_a.iter().step_by(37) {
            assert_eq!(a.row(*id), b.row(*id));
        }
    }

    #[test]
    fn sharded_driver_tolerates_empty_preload() {
        let table = ShardedTable::<u64>::builder()
            .shards(2)
            .columns(2)
            .build()
            .unwrap();
        let w = ShardedWorkload::oltp(2).with_volumes(0, 500);
        let ids = preload_sharded(&table, &w).unwrap();
        assert!(ids.is_empty());
        let stats = drive_sharded(&table, &w, &ids);
        // Row-addressed ops before the first insert are skipped, not panics;
        // inserts still execute and later reads can proceed.
        assert!(stats.iter().map(|s| s.inserts).sum::<u64>() > 0);
        assert_eq!(
            table.row_count() as u64,
            stats.iter().map(|s| s.inserts + s.updates).sum::<u64>()
        );
    }

    #[test]
    fn sharded_driver_op_counts_are_deterministic() {
        // Checksums may vary with cross-worker interleavings (scans see other
        // workers' fresh rows), but each worker's op sequence is seeded, so
        // the per-kind counts must reproduce exactly.
        let run = || {
            let table = ShardedTable::<u64>::builder()
                .shards(3)
                .columns(2)
                .build()
                .unwrap();
            let w = ShardedWorkload::oltp(3).with_volumes(1_000, 2_000);
            let ids = preload_sharded(&table, &w).unwrap();
            drive_sharded(&table, &w, &ids)
                .into_iter()
                .map(|s| {
                    (
                        s.lookups, s.scans, s.ranges, s.inserts, s.updates, s.deletes,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn driving_across_merges_preserves_results() {
        let table = OnlineTable::<u64>::new(3);
        for i in 0..2_000u64 {
            table.insert_row(&row_for_seed(i, 3));
        }
        let mut stream = UpdateStream::new(QueryMix::oltp(), 2_000);
        let mut rng = StdRng::seed_from_u64(5);
        // Interleave driving and merging; final row count must balance.
        let mut total = DriverStats::default();
        for _ in 0..4 {
            let s = drive(&table, &mut stream, &mut rng, 2_500);
            total.inserts += s.inserts;
            total.updates += s.updates;
            table.merge(2, None).unwrap();
            assert_eq!(table.delta_len(), 0);
        }
        assert_eq!(
            table.row_count() as u64,
            2_000 + total.inserts + total.updates
        );
        assert_eq!(table.main_len(), table.row_count(), "everything merged");
    }
}
