//! The multi-tenant table catalog: named durable-or-volatile
//! [`ShardedTable`]s, each merged in the background under one policy.
//!
//! Every entry owns the full per-table machinery: the table itself (built
//! through the PR-7 `ShardedTableBuilder` so durability is just a spec
//! flag), the [`MergeScheduler`] that adopted its shards under the
//! catalog's [`MergePolicy`], and the [`RateWindow`] the admission gate
//! samples its write valve from. Creating a table adopts its shards, so the
//! writes that make a shard due queue its merge on the process-wide merge
//! queue; dropping the table (or shutting the catalog down) releases them
//! before the entry is released. Durable tables live under
//! `data_dir/<name>/`; dropping one leaves its files on disk, so a later
//! server can [`hyrise_core::recover_sharded`] it.

use crate::admission::RateWindow;
use crate::protocol::TableSpec;
use hyrise_core::{
    pool, Durability, MergePolicy, MergeScheduler, MergeStrategy, Pool, ShardedTable,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Widest table a `CreateTable` may ask for. The spec arrives as a wire
/// `u32`, and the table's per-column state is allocated up front, so an
/// unbounded width aborts the process on allocation; Fig 3's widest
/// table has 399 columns.
const MAX_COLUMNS: u32 = 1_024;

/// Most shards a `CreateTable` may ask for, bounded for the same reason
/// as [`MAX_COLUMNS`].
const MAX_SHARDS: u32 = 64;

/// Why a catalog operation failed.
#[derive(Debug)]
pub enum CatalogError {
    /// `create` for a name already present.
    AlreadyExists(String),
    /// Lookup / drop of a name not present.
    NoSuchTable(String),
    /// The spec is invalid (bad name, zero or too many columns/shards,
    /// durable table on a server without a data directory).
    InvalidSpec(String),
    /// The engine failed underneath (I/O on a durable create, …).
    Engine(hyrise_core::Error),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::AlreadyExists(n) => write!(f, "table '{n}' already exists"),
            CatalogError::NoSuchTable(n) => write!(f, "no such table '{n}'"),
            CatalogError::InvalidSpec(d) => write!(f, "invalid table spec: {d}"),
            CatalogError::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<hyrise_core::Error> for CatalogError {
    fn from(e: hyrise_core::Error) -> Self {
        CatalogError::Engine(e)
    }
}

/// Catalog-wide knobs, shared by every table it creates.
#[derive(Clone, Debug)]
pub struct CatalogConfig {
    /// Root directory for durable tables (`<data_dir>/<name>/`). `None`
    /// makes durable specs an [`CatalogError::InvalidSpec`].
    pub data_dir: Option<PathBuf>,
    /// The policy every table's scheduler applies: when a shard merges and
    /// under which grant.
    pub policy: MergePolicy,
}

impl Default for CatalogConfig {
    /// Merges trigger at 2 % and run the paper's linear merge,
    /// [`MergeStrategy::Parallel`], at half the pool's width — the width
    /// served merges always had, so they leave half the cores to queries.
    /// On 2 cores that is the single-threaded `Optimized` merge. Served
    /// tables take appended keys and few-valued columns, so most of a
    /// merge's main blocks keep their codes and Stage 2 copies them
    /// (see [`hyrise_core::pipeline`]).
    fn default() -> Self {
        Self {
            data_dir: None,
            policy: MergePolicy {
                delta_fraction: 0.02,
                strategy: MergeStrategy::Parallel,
                threads: (pool::default_threads() / 2).max(1),
                ..MergePolicy::default()
            },
        }
    }
}

/// One catalog entry: table + scheduler + the write valve's rate window.
pub struct TableEntry {
    table: Arc<ShardedTable<u64>>,
    scheduler: MergeScheduler<u64>,
    spec: TableSpec,
    write_window: Mutex<RateWindow>,
}

impl TableEntry {
    /// The table.
    pub fn table(&self) -> &Arc<ShardedTable<u64>> {
        &self.table
    }

    /// The merge scheduler that adopted the table's shards.
    pub fn scheduler(&self) -> &MergeScheduler<u64> {
        &self.scheduler
    }

    /// The spec the table was created from.
    pub fn spec(&self) -> &TableSpec {
        &self.spec
    }

    /// The write valve's sampling window (the admission gate locks it per
    /// write batch).
    pub fn write_window(&self) -> &Mutex<RateWindow> {
        &self.write_window
    }

    /// Cumulative rows ever inserted, across shards.
    pub fn inserted_rows(&self) -> u64 {
        self.table().inserted_per_shard().iter().sum()
    }
}

/// Validate a table name: it doubles as a directory name for durable
/// tables, so only `[A-Za-z0-9_-]` up to 64 bytes is accepted.
fn validate_name(name: &str) -> Result<(), CatalogError> {
    if name.is_empty() || name.len() > 64 {
        return Err(CatalogError::InvalidSpec(format!(
            "table name must be 1..=64 bytes, got {}",
            name.len()
        )));
    }
    if !name
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
    {
        return Err(CatalogError::InvalidSpec(format!(
            "table name '{name}' may only contain [A-Za-z0-9_-]"
        )));
    }
    Ok(())
}

/// The named-table registry. It also owns the server's handle to the
/// process-wide worker [`Pool`]: creating the catalog brings the pool up,
/// and the admission gate samples its queue depth through
/// [`Catalog::pool`].
pub struct Catalog {
    cfg: CatalogConfig,
    pool: &'static Pool,
    tables: Mutex<HashMap<String, Arc<TableEntry>>>,
}

impl Catalog {
    /// An empty catalog. Eagerly initializes the shared worker pool so the
    /// first query does not pay thread creation and the queue-depth load
    /// signal is live from the start.
    pub fn new(cfg: CatalogConfig) -> Self {
        Self {
            cfg,
            pool: Pool::global(),
            tables: Mutex::new(HashMap::new()),
        }
    }

    /// The shared worker pool every query and merge fans out on — the
    /// admission gate's queue-depth signal source.
    pub fn pool(&self) -> &'static Pool {
        self.pool
    }

    /// Create a table per `spec` and adopt its shards for merging.
    pub fn create(&self, spec: &TableSpec) -> Result<(), CatalogError> {
        validate_name(&spec.name)?;
        if spec.columns == 0 || spec.columns > MAX_COLUMNS {
            return Err(CatalogError::InvalidSpec(format!(
                "columns must be in 1..={MAX_COLUMNS}"
            )));
        }
        if spec.shards == 0 || spec.shards > MAX_SHARDS {
            return Err(CatalogError::InvalidSpec(format!(
                "shards must be in 1..={MAX_SHARDS}"
            )));
        }
        let durability = if spec.durable {
            let root = self.cfg.data_dir.as_ref().ok_or_else(|| {
                CatalogError::InvalidSpec(
                    "durable table requested but the server has no data directory".into(),
                )
            })?;
            Durability::Wal {
                dir: root.join(&spec.name),
                fsync: spec.fsync,
            }
        } else {
            Durability::None
        };

        let mut tables = self.tables.lock().unwrap();
        if tables.contains_key(&spec.name) {
            return Err(CatalogError::AlreadyExists(spec.name.clone()));
        }
        let table = ShardedTable::<u64>::builder()
            .shards(spec.shards as usize)
            .columns(spec.columns as usize)
            .durability(durability)
            .build()?;
        let scheduler = MergeScheduler::spawn(table.shards().to_vec(), self.cfg.policy);
        tables.insert(
            spec.name.clone(),
            Arc::new(TableEntry {
                table: Arc::new(table),
                scheduler,
                spec: spec.clone(),
                write_window: Mutex::new(RateWindow::new()),
            }),
        );
        Ok(())
    }

    /// Remove a table and release it from merging. In-flight requests holding
    /// the entry's `Arc` finish against the detached table; durable files
    /// stay on disk for a later recovery.
    pub fn drop_table(&self, name: &str) -> Result<(), CatalogError> {
        let entry = self
            .tables
            .lock()
            .unwrap()
            .remove(name)
            .ok_or_else(|| CatalogError::NoSuchTable(name.to_string()))?;
        entry.scheduler.shutdown();
        Ok(())
    }

    /// Look a table up.
    pub fn get(&self, name: &str) -> Result<Arc<TableEntry>, CatalogError> {
        self.tables
            .lock()
            .unwrap()
            .get(name)
            .cloned()
            .ok_or_else(|| CatalogError::NoSuchTable(name.to_string()))
    }

    /// Sorted table names.
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.lock().unwrap().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.lock().unwrap().len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Release every table from merging (server shutdown path).
    pub fn shutdown(&self) {
        let entries: Vec<Arc<TableEntry>> = self.tables.lock().unwrap().values().cloned().collect();
        for e in entries {
            e.scheduler.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn create_lookup_drop_lifecycle() {
        let cat = Catalog::new(CatalogConfig::default());
        cat.create(&TableSpec::volatile("orders", 3, 2)).unwrap();
        assert!(matches!(
            cat.create(&TableSpec::volatile("orders", 3, 2)),
            Err(CatalogError::AlreadyExists(_))
        ));
        let entry = cat.get("orders").unwrap();
        assert_eq!(entry.table().num_columns(), 3);
        assert_eq!(entry.table().num_shards(), 2);
        entry.table().insert_rows(&[[1u64, 2, 3]]).unwrap();
        assert_eq!(cat.list(), vec!["orders".to_string()]);
        cat.drop_table("orders").unwrap();
        assert!(matches!(
            cat.get("orders"),
            Err(CatalogError::NoSuchTable(_))
        ));
        assert!(matches!(
            cat.drop_table("orders"),
            Err(CatalogError::NoSuchTable(_))
        ));
    }

    #[test]
    fn bad_specs_are_rejected() {
        let cat = Catalog::new(CatalogConfig::default());
        for bad in ["", "a/b", "x y", "../evil", &"n".repeat(65)] {
            assert!(
                matches!(
                    cat.create(&TableSpec::volatile(bad, 1, 1)),
                    Err(CatalogError::InvalidSpec(_))
                ),
                "name {bad:?} should be rejected"
            );
        }
        assert!(matches!(
            cat.create(&TableSpec::volatile("t", 0, 1)),
            Err(CatalogError::InvalidSpec(_))
        ));
        assert!(matches!(
            cat.create(&TableSpec::volatile("t", 1, 0)),
            Err(CatalogError::InvalidSpec(_))
        ));
        // Widths and shard counts past the bounds are rejected before
        // anything is allocated; a spec at both bounds creates.
        for (columns, shards) in [
            (u32::MAX, 1),
            (1, u32::MAX),
            (MAX_COLUMNS + 1, 1),
            (1, MAX_SHARDS + 1),
        ] {
            assert!(
                matches!(
                    cat.create(&TableSpec::volatile("t", columns, shards)),
                    Err(CatalogError::InvalidSpec(_))
                ),
                "{columns} columns x {shards} shards should be rejected"
            );
        }
        cat.create(&TableSpec::volatile("widest", MAX_COLUMNS, MAX_SHARDS))
            .unwrap();
        // Durable without a data dir.
        assert!(matches!(
            cat.create(&TableSpec::durable("t", 1, 1, false)),
            Err(CatalogError::InvalidSpec(_))
        ));
    }

    /// Served tables trigger at 2 %, more eagerly under writes, never below
    /// 0.4 %, and every merge runs `Parallel` at half the pool, unbounded:
    /// the memory row never fires.
    #[test]
    fn default_policy_states_the_served_trigger_and_grant() {
        let policy = CatalogConfig::default().policy;
        // fraction × (1 + min(rate / 18 000, 4)) > 0.02.
        for (rate, threshold) in [
            (0.0, 0.02),
            (18_000.0, 0.01),
            (72_000.0, 0.004),
            (1e6, 0.004),
        ] {
            assert!(!policy.is_due(threshold * (1.0 - 1e-9), rate), "{rate}");
            assert!(policy.is_due(threshold * (1.0 + 1e-9), rate), "{rate}");
        }
        assert!((policy.due_floor() - 0.004).abs() < 1e-15);
        let (grant, pressured) = policy.grant_at(usize::MAX);
        assert!(!pressured);
        assert_eq!(grant.strategy, MergeStrategy::Parallel);
        assert_eq!(grant.threads, (pool::default_threads() / 2).max(1));
        assert!(grant.budget.is_unbounded());
    }

    /// A default-config table serves reads while writes push it past the
    /// trigger; every merge its scheduler grants is the stated policy's:
    /// `Parallel`, half the pool, the policy's budget.
    #[test]
    fn default_tables_merge_under_the_stated_grant() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let cfg = CatalogConfig::default();
        let policy = cfg.policy;
        let cat = Catalog::new(cfg);
        cat.create(&TableSpec::volatile("served", 2, 2)).unwrap();
        let entry = cat.get("served").unwrap();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let _ = hyrise_query::Query::scan(0)
                        .count()
                        .run(entry.table().as_ref());
                }
            });
            std::thread::sleep(Duration::from_millis(20));
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            let mut key = 0u64;
            while entry.scheduler().stats().merges < 2 && std::time::Instant::now() < deadline {
                let rows: Vec<[u64; 2]> = (key..key + 256).map(|k| [k, k % 7]).collect();
                entry.table().insert_rows(&rows).unwrap();
                key += 256;
                std::thread::sleep(Duration::from_millis(5));
            }
            stop.store(true, Ordering::Relaxed);
        });
        cat.drop_table("served").unwrap();
        let stats = entry.scheduler().stats();
        assert!(stats.merges >= 2, "merged {} times", stats.merges);
        assert!(!stats.grants.is_empty());
        for g in &stats.grants {
            assert_eq!(g.strategy, MergeStrategy::Parallel, "{g}");
            assert_eq!(g.threads, (pool::default_threads() / 2).max(1), "{g}");
            assert_eq!(g.budget_columns, policy.budget.max_columns(), "{g}");
            assert!(!g.pressured, "{g}");
        }
    }

    #[test]
    fn durable_table_writes_under_data_dir() {
        let dir = std::env::temp_dir().join(format!("hyrise-catalog-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cat = Catalog::new(CatalogConfig {
            data_dir: Some(dir.clone()),
            ..CatalogConfig::default()
        });
        cat.create(&TableSpec::durable("sales", 2, 2, false))
            .unwrap();
        let entry = cat.get("sales").unwrap();
        entry.table().insert_rows(&[[7u64, 8], [9, 10]]).unwrap();
        assert!(
            dir.join("sales").is_dir(),
            "durable files under data_dir/name"
        );
        cat.drop_table("sales").unwrap();
        assert!(dir.join("sales").is_dir(), "drop keeps files for recovery");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
