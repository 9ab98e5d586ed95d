//! Mixed-workload driver: executes a [`workload`](crate::workload) operation
//! stream against a [`ShardedTable`], closing the
//! loop between the Section 2 workload characterization and the merge
//! machinery — the "single system for both transactional and analytical
//! workloads" the paper argues for, in miniature.

use crate::shard::{ShardRowId, ShardedTable};
use crate::workload::{Operation, UpdateStream};
use hyrise_query::Query;
use hyrise_storage::Value;
use rand::Rng;

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

/// Execute `n` operations from `stream` against `table`, typically a
/// one-shard table (the paper's single table). Row indices from the
/// stream address shard 0 and are clamped to its live rows (the stream's
/// logical row count tracks inserts but the driver is authoritative).
/// The first failed write ends the run with its error.
pub fn drive<V: Value, R: Rng>(
    table: &ShardedTable<V>,
    stream: &mut UpdateStream,
    rng: &mut R,
    n: usize,
) -> crate::Result<DriverStats> {
    let cols = table.num_columns();
    let home = table.shard(0);
    let id = |row: usize| ShardRowId { shard: 0, row };
    let mut stats = DriverStats::default();
    for _ in 0..n {
        match stream.next_op(rng) {
            Operation::Lookup { row } => {
                let rows = home.row_count();
                if rows > 0 {
                    let r = (row as usize).min(rows - 1);
                    stats.checksum = stats
                        .checksum
                        .wrapping_add(home.get(r % cols.max(1) % cols, r).to_u64_lossy());
                    stats.lookups += 1;
                }
            }
            Operation::Scan { start, len } => {
                let rows = home.row_count();
                if rows > 0 {
                    let s = (start as usize).min(rows - 1);
                    let e = (s + len as usize).min(rows);
                    let mut acc = 0u64;
                    for r in s..e {
                        acc = acc.wrapping_add(home.get(0, r).to_u64_lossy());
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
                table.insert_row(&row_for_seed::<V>(seed, cols))?;
                stats.inserts += 1;
            }
            Operation::Update { row, seed } => {
                let rows = home.row_count();
                if rows > 0 {
                    let old = id((row as usize).min(rows - 1));
                    table.update_row(old, &row_for_seed::<V>(seed, cols))?;
                    stats.updates += 1;
                }
            }
            Operation::Delete { row } => {
                let rows = home.row_count();
                if rows > 0 {
                    table.delete_row(id((row as usize).min(rows - 1)))?;
                    stats.deletes += 1;
                }
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::QueryMix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn one_shard(rows: u64) -> ShardedTable<u64> {
        let table = ShardedTable::builder().columns(3).build().unwrap();
        let rows: Vec<Vec<u64>> = (0..rows).map(|i| row_for_seed(i, 3)).collect();
        table.insert_rows(&rows).unwrap();
        table
    }

    fn driven_table(ops: usize) -> (ShardedTable<u64>, DriverStats) {
        let table = one_shard(2_000);
        let mut stream = UpdateStream::new(QueryMix::oltp(), 2_000);
        let mut rng = StdRng::seed_from_u64(5);
        let stats = drive(&table, &mut stream, &mut rng, ops).unwrap();
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
    fn driving_across_merges_preserves_results() {
        let table = one_shard(2_000);
        let mut stream = UpdateStream::new(QueryMix::oltp(), 2_000);
        let mut rng = StdRng::seed_from_u64(5);
        // Interleave driving and merging; final row count must balance.
        let mut total = DriverStats::default();
        for _ in 0..4 {
            let s = drive(&table, &mut stream, &mut rng, 2_500).unwrap();
            total.inserts += s.inserts;
            total.updates += s.updates;
            table.merge_all(2).unwrap();
            assert_eq!(table.delta_len(), 0);
        }
        assert_eq!(
            table.row_count() as u64,
            2_000 + total.inserts + total.updates
        );
        assert_eq!(table.main_len(), table.row_count(), "everything merged");
    }
}
