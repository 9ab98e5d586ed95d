//! Table construction: [`Durability`] and [`ShardedTableBuilder`].
//!
//! Durability made construction configuration-heavy — columns, a WAL
//! directory and fsync policy, sharding layout — so one builder is the
//! construction surface of every table. A one-shard table is the paper's
//! single table (Section 3); more shards partition its rows. Merge policy
//! is not the builder's, it belongs to the
//! [`crate::scheduler::MergeScheduler`] that adopts the table:
//!
//! ```
//! use hyrise_core::{Durability, ShardedTable};
//! # fn main() -> hyrise_core::Result<()> {
//! let table: ShardedTable<u64> = ShardedTable::builder()
//!     .columns(3)
//!     .durability(Durability::None)
//!     .build()?;
//! table.insert_row(&[1, 2, 3])?;
//! # Ok(())
//! # }
//! ```
//!
//! A durable table writes one directory per shard, opens the first
//! segment of the table log at the root and then writes the root's
//! `SHARDS` manifest; building over a root that already holds one is a
//! [`Error::Config`] — re-open those with
//! [`crate::recovery::recover_sharded`].

use crate::error::{Error, Result};
use crate::manager::OnlineTable;
use crate::pipeline::SpareBank;
use crate::shard::{ShardBy, ShardedTable};
use crate::wal::{self, LogReplay, TableLog};
use hyrise_storage::Value;
use std::path::PathBuf;
use std::sync::Arc;

/// Whether (and how) a table's delta survives a crash.
#[derive(Clone, Debug, Default)]
pub enum Durability {
    /// In-memory only — the existing zero-I/O path, byte-for-byte. A
    /// crash loses the delta (and everything else).
    #[default]
    None,
    /// Append one write-ahead frame per client operation (insert batch,
    /// update, delete or delete batch) to the table log under `dir`, so
    /// [`crate::recovery::recover_sharded`] rebuilds the table after a
    /// crash.
    Wal {
        /// The table's root directory: the `SHARDS` manifest, the table
        /// log's segments and one `shard-<i>/` directory per shard holding
        /// its checkpoint manifest and merged column files. One table per
        /// root.
        dir: PathBuf,
        /// `true`: records are fdatasync'd before the rows become
        /// visible — durable against power loss, at a large insert
        /// latency cost. `false` (*buffered*): records reach the OS
        /// page cache before the rows become visible — durable against
        /// process death (`kill -9`), not against kernel panic or power
        /// loss.
        fsync: bool,
    },
}

/// Builder for [`ShardedTable`]: shard count or range bounds, routing key
/// column, columns and durability.
///
/// With [`Durability::Wal`] the directory becomes the *root*: a sharded
/// manifest, one table log shared by every shard, and one `shard-<i>/`
/// directory per shard with its checkpoint and column files.
#[derive(Debug)]
pub struct ShardedTableBuilder<V> {
    shards: Option<usize>,
    by: ShardBy<V>,
    key_col: usize,
    columns: usize,
    durability: Durability,
}

impl<V: Value> ShardedTableBuilder<V> {
    /// An empty builder: 1 hash shard, 1 column, key column 0,
    /// [`Durability::None`].
    pub fn new() -> Self {
        Self {
            shards: None,
            by: ShardBy::Hash,
            key_col: 0,
            columns: 1,
            durability: Durability::None,
        }
    }

    /// Number of shards (hash partitioning only; range partitioning
    /// derives the count from its bounds).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = Some(n);
        self
    }

    /// Routing scheme. [`ShardBy::Range`] bounds must be strictly
    /// ascending and imply `bounds.len() + 1` shards.
    pub fn partitioning(mut self, by: ShardBy<V>) -> Self {
        self.by = by;
        self
    }

    /// Route on `col` instead of column 0.
    pub fn key_col(mut self, col: usize) -> Self {
        self.key_col = col;
        self
    }

    /// Number of columns per shard.
    pub fn columns(mut self, n: usize) -> Self {
        self.columns = n;
        self
    }

    /// Crash-durability policy (one log for all shards, under one root
    /// directory).
    pub fn durability(mut self, d: Durability) -> Self {
        self.durability = d;
        self
    }

    /// Build the sharded table, validating the layout first
    /// ([`Error::Config`] on unsorted range bounds, a shard-count
    /// mismatch, zero shards/columns, or a key column out of range).
    pub fn build(self) -> Result<ShardedTable<V>> {
        if self.columns == 0 {
            return Err(Error::config("a table needs at least one column"));
        }
        if self.key_col >= self.columns {
            return Err(Error::config(format!(
                "key column {} out of range for {} columns",
                self.key_col, self.columns
            )));
        }
        let num_shards = match &self.by {
            ShardBy::Hash => {
                let n = self.shards.unwrap_or(1);
                if n == 0 {
                    return Err(Error::config("a sharded table needs at least one shard"));
                }
                n
            }
            ShardBy::Range(bounds) => {
                if !bounds.windows(2).all(|w| w[0] < w[1]) {
                    return Err(Error::config("range bounds must be strictly ascending"));
                }
                let implied = bounds.len() + 1;
                if self.shards.is_some_and(|n| n != implied) {
                    return Err(Error::config(format!(
                        "{} range bounds imply {implied} shards, but .shards() asked for {}",
                        bounds.len(),
                        self.shards.unwrap_or(0)
                    )));
                }
                implied
            }
        };
        // The shard directories and the log's first segment exist before
        // the manifest that makes the root a table.
        let log = match &self.durability {
            Durability::Wal { dir, fsync } => {
                if wal::sharded_manifest_exists(dir) {
                    return Err(Error::config(format!(
                        "{} already holds a table; re-open it with hyrise_core::recover_sharded",
                        dir.display()
                    )));
                }
                for i in 0..num_shards {
                    std::fs::create_dir_all(wal::shard_dir(dir, i))
                        .map_err(|e| Error::io("create shard directory", e))?;
                }
                let log = TableLog::open(dir, *fsync, None, LogReplay::new(num_shards))?;
                let manifest = wal::ShardedManifest {
                    n_shards: num_shards,
                    n_cols: self.columns,
                    fsync: *fsync,
                    key_col: self.key_col,
                    by: self.by.clone(),
                };
                wal::write_sharded_manifest(dir, &manifest)?;
                Some((dir, Arc::new(log)))
            }
            Durability::None => None,
        };
        let bank = Arc::new(SpareBank::new());
        let mut shards = Vec::with_capacity(num_shards);
        for i in 0..num_shards {
            let mut shard = OnlineTable::new(self.columns).with_spare_bank(Arc::clone(&bank));
            if let Some((dir, log)) = &log {
                shard.set_wal(log, dir, i);
            }
            shards.push(shard);
        }
        Ok(ShardedTable::from_parts(shards, self.by, self.key_col))
    }
}

impl<V: Value> Default for ShardedTableBuilder<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_new() {
        let t: ShardedTable<u64> = ShardedTable::builder().columns(3).build().unwrap();
        assert_eq!((t.num_shards(), t.key_col()), (1, 0));
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.row_count(), 0);
        assert!(!t.shard(0).is_durable());
    }

    #[test]
    fn zero_columns_is_a_config_error() {
        let err = ShardedTable::<u64>::builder()
            .columns(0)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, Error::Config { .. }));
    }

    #[test]
    fn unsorted_range_bounds_are_a_config_error() {
        let err = ShardedTable::<u64>::builder()
            .partitioning(ShardBy::Range(vec![200, 100]))
            .columns(1)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, Error::Config { .. }));
    }

    #[test]
    fn shard_count_mismatch_is_a_config_error() {
        let err = ShardedTable::<u64>::builder()
            .shards(5)
            .partitioning(ShardBy::Range(vec![100]))
            .columns(1)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, Error::Config { .. }));
    }

    #[test]
    fn key_col_out_of_range_is_a_config_error() {
        let err = ShardedTable::<u64>::builder()
            .shards(2)
            .columns(2)
            .key_col(2)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, Error::Config { .. }));
    }

    #[test]
    fn building_over_an_existing_table_is_refused() {
        let dir = std::env::temp_dir().join(format!(
            "hyrise-config-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = || {
            ShardedTable::<u64>::builder()
                .columns(2)
                .durability(Durability::Wal {
                    dir: dir.clone(),
                    fsync: false,
                })
                .build()
        };
        drop(durable().unwrap());
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(
            names,
            [
                "SHARDS".to_string(),
                format!("seg-{:016x}.wal", 0),
                "shard-0".into()
            ]
        );
        let shard = std::fs::read_dir(wal::shard_dir(&dir, 0)).unwrap().count();
        assert_eq!(shard, 0, "no TABLE file, no segment");
        let err = durable().map(|_| ()).unwrap_err();
        assert!(matches!(err, Error::Config { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
