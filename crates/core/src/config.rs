//! Unified table construction: [`TableConfig`], [`TableBuilder`], and
//! [`ShardedTableBuilder`].
//!
//! Durability made construction configuration-heavy — columns, a WAL
//! directory and fsync policy, sharding layout — and the scattered
//! positional constructors (`OnlineTable::new` and the since-removed
//! `ShardedTable::hash`/`range`) don't scale to that. The builders are
//! the one construction surface; merge policy is not theirs, it belongs
//! to the [`crate::scheduler::MergeScheduler`] that adopts the table:
//!
//! ```
//! use hyrise_core::{Durability, OnlineTable};
//! # fn main() -> hyrise_core::Result<()> {
//! let table: OnlineTable<u64> = OnlineTable::builder()
//!     .columns(3)
//!     .durability(Durability::None)
//!     .build()?;
//! # Ok(())
//! # }
//! ```
//!
//! A durable table writes its manifest and opens its first WAL segment at
//! build time; building over a directory that already holds a table is a
//! [`Error::Config`] — re-open those with [`crate::recovery::recover`].

use crate::error::{Error, Result};
use crate::manager::OnlineTable;
use crate::pipeline::SpareBank;
use crate::shard::{ShardBy, ShardedTable};
use crate::wal::{self, Wal};
use hyrise_storage::Value;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Whether (and how) a table's delta survives a crash.
#[derive(Clone, Debug, Default)]
pub enum Durability {
    /// In-memory only — the existing zero-I/O path, byte-for-byte. A
    /// crash loses the delta (and everything else).
    #[default]
    None,
    /// Append a write-ahead record per insert batch / validity flip to
    /// `dir`, so [`crate::recovery::recover`] rebuilds the table after a
    /// crash.
    Wal {
        /// The table's directory: manifest, WAL segments, checkpoint
        /// manifest, merged column files. One table per directory.
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

/// The resolved configuration a [`TableBuilder`] accumulates. Public so
/// callers can build configs programmatically and hand them around (the
/// workload driver threads one through its scenario set-up).
#[derive(Clone, Debug)]
pub struct TableConfig {
    /// Number of columns (must be ≥ 1).
    pub columns: usize,
    /// Crash-durability policy.
    pub durability: Durability,
}

impl Default for TableConfig {
    fn default() -> Self {
        Self {
            columns: 1,
            durability: Durability::None,
        }
    }
}

/// Builder for [`OnlineTable`] — see the module docs.
#[derive(Default)]
pub struct TableBuilder<V> {
    config: TableConfig,
    bank: Option<Arc<SpareBank<V>>>,
}

impl<V: Value> TableBuilder<V> {
    /// An empty builder: 1 column, [`Durability::None`].
    pub fn new() -> Self {
        Self {
            config: TableConfig::default(),
            bank: None,
        }
    }

    /// Start from an existing [`TableConfig`].
    pub fn from_config(config: TableConfig) -> Self {
        Self { config, bank: None }
    }

    /// Number of columns.
    pub fn columns(mut self, n: usize) -> Self {
        self.config.columns = n;
        self
    }

    /// Crash-durability policy.
    pub fn durability(mut self, d: Durability) -> Self {
        self.config.durability = d;
        self
    }

    /// Share a [`SpareBank`] (e.g. across the shards of one table).
    pub fn spare_bank(mut self, bank: Arc<SpareBank<V>>) -> Self {
        self.bank = Some(bank);
        self
    }

    /// Build the table. Fails with [`Error::Config`] on zero columns or a
    /// WAL directory that already holds a table, and with [`Error::Io`]
    /// when the directory/manifest/segment cannot be created.
    pub fn build(self) -> Result<OnlineTable<V>> {
        if self.config.columns == 0 {
            return Err(Error::config("a table needs at least one column"));
        }
        let mut table = OnlineTable::new(self.config.columns);
        if let Some(bank) = self.bank {
            table = table.with_spare_bank(bank);
        }
        if let Durability::Wal { dir, fsync } = &self.config.durability {
            table.set_wal(Some(open_fresh_wal::<V>(dir, *fsync, self.config.columns)?));
        }
        Ok(table)
    }
}

/// Create `dir`, refuse it if it already holds a table, write the
/// manifest, and open segment 0.
fn open_fresh_wal<V: Value>(dir: &Path, fsync: bool, n_cols: usize) -> Result<Wal<V>> {
    std::fs::create_dir_all(dir).map_err(|e| Error::io("create table directory", e))?;
    if wal::manifest_exists(dir) || !wal::list_segments(dir)?.is_empty() {
        return Err(Error::config(format!(
            "{} already holds a table; re-open it with hyrise_core::recovery::recover",
            dir.display()
        )));
    }
    wal::write_manifest(
        dir,
        &wal::Manifest {
            n_cols,
            value_bytes: V::BYTES,
            fsync,
        },
    )?;
    Wal::create(dir, fsync, 0)
}

/// Builder for [`ShardedTable`]: shard count or range bounds, routing key
/// column, and the same column and durability knobs as
/// [`TableBuilder`] applied per shard.
///
/// With [`Durability::Wal`] the directory becomes the *root*: a sharded
/// manifest plus one `shard-<i>/` table directory per shard, each with
/// its own segments and checkpoint (the per-shard WAL of the tentpole).
#[derive(Debug)]
pub struct ShardedTableBuilder<V> {
    shards: Option<usize>,
    by: ShardBy<V>,
    key_col: usize,
    config: TableConfig,
}

impl<V: Value> ShardedTableBuilder<V> {
    /// An empty builder: 1 hash shard, 1 column, key column 0,
    /// [`Durability::None`].
    pub fn new() -> Self {
        Self {
            shards: None,
            by: ShardBy::Hash,
            key_col: 0,
            config: TableConfig::default(),
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
        self.config.columns = n;
        self
    }

    /// Crash-durability policy (per shard, under one root directory).
    pub fn durability(mut self, d: Durability) -> Self {
        self.config.durability = d;
        self
    }

    /// Build the sharded table, validating the layout first
    /// ([`Error::Config`] on unsorted range bounds, a shard-count
    /// mismatch, zero shards/columns, or a key column out of range).
    pub fn build(self) -> Result<ShardedTable<V>> {
        if self.config.columns == 0 {
            return Err(Error::config("a table needs at least one column"));
        }
        if self.key_col >= self.config.columns {
            return Err(Error::config(format!(
                "key column {} out of range for {} columns",
                self.key_col, self.config.columns
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
        let bank = Arc::new(SpareBank::new());
        let mut shards = Vec::with_capacity(num_shards);
        for i in 0..num_shards {
            let mut builder = TableBuilder::new()
                .columns(self.config.columns)
                .spare_bank(Arc::clone(&bank));
            if let Durability::Wal { dir, fsync } = &self.config.durability {
                builder = builder.durability(Durability::Wal {
                    dir: wal::shard_dir(dir, i),
                    fsync: *fsync,
                });
            }
            shards.push(builder.build()?);
        }
        if let Durability::Wal { dir, fsync } = &self.config.durability {
            wal::write_sharded_manifest(
                dir,
                &wal::ShardedManifest {
                    n_shards: num_shards,
                    n_cols: self.config.columns,
                    value_bytes: V::BYTES,
                    fsync: *fsync,
                    key_col: self.key_col,
                    by: self.by.clone(),
                },
            )?;
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
        let t: OnlineTable<u64> = OnlineTable::builder().columns(3).build().unwrap();
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    fn zero_columns_is_a_config_error() {
        let err = OnlineTable::<u64>::builder()
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
        let t: OnlineTable<u64> = OnlineTable::builder()
            .columns(2)
            .durability(Durability::Wal {
                dir: dir.clone(),
                fsync: false,
            })
            .build()
            .unwrap();
        drop(t);
        let err = OnlineTable::<u64>::builder()
            .columns(2)
            .durability(Durability::Wal {
                dir: dir.clone(),
                fsync: false,
            })
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, Error::Config { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
