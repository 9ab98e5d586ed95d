//! The online merge (Sections 3 and 4), epoch-published.
//!
//! "The merge process is transactionally safe, as it works on a copy of the
//! table and the merged table is committed atomically at the end. During the
//! merge, incoming updates are stored in a temporary second delta, which
//! becomes the primary delta when the merge result is committed.
//! Interferences with other queries are minimized, as the table has to be
//! locked only for a minimal period at the beginning and end of the merge."
//!
//! [`OnlineTable`] implements that protocol with **no lock on the
//! steady-state paths**. The table's state is an immutable `Generation`
//! behind an [`EpochCell`]: per column a main partition and an optional
//! *frozen* delta (mid-merge), plus one shared append-only [`TailLog`] the
//! inserts go to. Within each column, global tuple ids run main → frozen →
//! tail.
//!
//! * **Reads** ([`OnlineTable::get`], [`OnlineTable::snapshot`]) pin the
//!   generation (two atomic ops), clone the `Arc`s they need, and go —
//!   no lock, no copy of the active delta.
//! * **Writes** ([`OnlineTable::insert_rows`]) reserve tail slots with one
//!   `fetch_add`, write the values, and publish the batch by advancing the
//!   tail's watermark — readers only see rows below it, so batches are
//!   atomic and writers never block readers (or each other, except the
//!   in-order publish hand-off).
//! * **Merges** hold the merge gate (the one remaining critical section,
//!   excepted by design):
//!   1. **Freeze**: seal the tail, compress its rows into a bit-packed
//!      [`FrozenDelta`] per column (local dictionary + packed codes), swap
//!      in a generation with it frozen and a fresh tail.
//!   2. **Merge**: workers fold `main + frozen` per column from shared
//!      `Arc` snapshots; reads and writes proceed against the live
//!      generation.
//!   3. **Commit**: swap in a generation with the merged mains; the epoch
//!      advances and the retired generation is freed once its readers
//!      drain. Global tuple ids never change, so the shared
//!      [`AtomicValidity`] carries over untouched.
//!
//! A merge only goes forward. One that fails, panics or is dropped leaves
//! its uncommitted columns frozen, and the next merge resumes them instead
//! of freezing again — the paper's Section 9 "pause and resume".

use crate::epoch::EpochCell;
use crate::error::{Error, Result};
use crate::pipeline::{
    MergeBudget, MergeGrant, MergePipeline, MergeScratch, MergeStrategy, SpareBank,
};
use crate::pool::Pool;
use crate::rate;
use crate::scheduler::AdoptionSlot;
use crate::stats::{MergeOutput, TableMergeStats};
use crate::wal::{self, ShardLog, TableLog};
use hyrise_storage::{
    AtomicValidity, FrozenDelta, MainPartition, MemoryReport, TailLog, TailRegion, TailReservation,
    ValidityBitmap, Value,
};
use parking_lot::Mutex;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// One column's merge input: its main partition and frozen delta.
type MergeInput<V> = (Arc<MainPartition<V>>, Arc<FrozenDelta<V>>);

/// When to merge (Section 4: trigger "when the number of tuples N_D in the
/// delta partition is greater than a certain pre-defined fraction of tuples
/// in the main partition N_M") and with what resources ([`MergeGrant`]:
/// threads, strategy, memory budget) — the one statement of both rules a
/// [`crate::scheduler::MergeScheduler`] applies (Section 9's "scheduling
/// algorithm \[that\] could constantly analyze the available bandwidth").
///
/// * **Is a table due?** [`Self::is_due`]: `fraction × pressure >
///   delta_fraction`, with a pressure factor `1 + min(rate / 18 000, 4)`
///   that grows with the write rate since the table's last merge (against
///   the paper's Section 4 high target). A table under heavy writes merges
///   *earlier* than the static trigger and never later.
/// * **Under which grant?** [`Self::grant_at`]: the policy's own grant,
///   with the budget shrunk to [`Self::PRESSURE_BUDGET`] while the merged
///   tables hold more than `memory_soft_limit` bytes — K-column commits
///   cap the merge's transient ~2x working set.
#[derive(Clone, Copy, Debug)]
pub struct MergePolicy {
    /// Merge once `N_D / N_M` exceeds this (e.g. 0.01 for Figure 9's 1%).
    pub delta_fraction: f64,
    /// The merge's width on the shared pool ([`MergeGrant::threads`]; "for
    /// the remainder, we assume that the merge uses all available
    /// resources" — but a background scheduler may grant less, Section 9).
    pub threads: usize,
    /// Merge algorithm (default [`MergeStrategy::Parallel`]).
    pub strategy: MergeStrategy,
    /// Peak-extra-memory cap (default [`MergeBudget::UNBOUNDED`]); see
    /// [`OnlineTable::merge_with`].
    pub budget: MergeBudget,
    /// Soft cap on the merged tables' total bytes
    /// ([`MemoryReport::total`]); above it a merge runs under
    /// [`Self::PRESSURE_BUDGET`]. The default, `usize::MAX`, never fires.
    pub memory_soft_limit: usize,
}

impl Default for MergePolicy {
    fn default() -> Self {
        Self {
            delta_fraction: 0.05,
            threads: crate::pool::default_threads(),
            strategy: MergeStrategy::default(),
            budget: MergeBudget::default(),
            memory_soft_limit: usize::MAX,
        }
    }
}

/// The most the write rate raises the pressure factor above 1.
const MAX_RAISE: f64 = 4.0;

impl MergePolicy {
    /// The budget a merge runs under memory pressure: one column at a time,
    /// the paper's Section 4 partial-column strategy at its tightest.
    pub const PRESSURE_BUDGET: MergeBudget = MergeBudget::columns(1);

    /// The resource grant this policy hands to a merge.
    pub fn grant(&self) -> MergeGrant {
        MergeGrant {
            strategy: self.strategy,
            threads: self.threads,
            budget: self.budget,
        }
    }

    /// Whether a table at delta `fraction`, written at `write_rate` rows
    /// per second since its last merge, is due: `fraction × (1 + min(rate /
    /// 18 000, 4)) > delta_fraction`. At rate 0 this is Section 4's static
    /// trigger.
    pub fn is_due(&self, fraction: f64, write_rate: f64) -> bool {
        let pressure = 1.0 + (write_rate / rate::HIGH_TARGET_UPDATES_PER_SEC).min(MAX_RAISE);
        fraction * pressure > self.delta_fraction
    }

    /// The delta fraction at or below which no write rate makes a table
    /// due: the trigger over the largest pressure factor.
    pub fn due_floor(&self) -> f64 {
        self.delta_fraction / (1.0 + MAX_RAISE)
    }

    /// The grant for one merge while the merged tables hold `memory_bytes`,
    /// and whether memory pressure shrank it: above `memory_soft_limit`
    /// the budget is [`Self::PRESSURE_BUDGET`], otherwise the policy's own
    /// grant.
    pub fn grant_at(&self, memory_bytes: usize) -> (MergeGrant, bool) {
        let pressured = memory_bytes > self.memory_soft_limit;
        let budget = if pressured {
            Self::PRESSURE_BUDGET
        } else {
            self.budget
        };
        (self.grant().budget(budget), pressured)
    }
}

/// One column of a published [`Generation`]. Per column,
/// `main.len() + frozen.len()` equals the generation tail's base, so tail
/// offsets line up across columns.
#[derive(Clone)]
struct GenColumn<V: Value> {
    main: Arc<MainPartition<V>>,
    /// The delta being merged, if the column's merge has not committed —
    /// sealed and bit-packed through its local dictionary. Still readable.
    frozen: Option<Arc<FrozenDelta<V>>>,
}

/// One immutable published state of the table. Swapped atomically; the
/// tail `Arc` is shared across commit swaps (only a freeze replaces it).
struct Generation<V: Value> {
    cols: Vec<GenColumn<V>>,
    tail: Arc<TailLog<V>>,
}

impl<V: Value> Generation<V> {
    /// Value of `(col, row)`; `row` must be below `base + published`.
    fn get(&self, col: usize, row: usize) -> V {
        let gc = &self.cols[col];
        let nm = gc.main.len();
        if row < nm {
            return gc.main.get(row);
        }
        let mut off = row - nm;
        if let Some(f) = &gc.frozen {
            if off < f.len() {
                return f.get(off);
            }
            off -= f.len();
        }
        let published = self.tail.published();
        assert!(
            off < published,
            "row {row} out of range (len {})",
            self.tail.base() + published
        );
        self.tail.read(col, off)
    }

    /// `(N_D, N_M)` of the column furthest behind: the rows awaiting a
    /// merge and the rows in its main partition.
    fn backlog(&self) -> (usize, usize) {
        let nm = self.cols.iter().map(|c| c.main.len()).min().unwrap_or(0);
        (self.tail.base() + self.tail.published() - nm, nm)
    }
}

/// The table: `N_C` columns of one value type `V` (`u32`, `u64` or `V16`)
/// with online merge support and lock-free steady-state reads and writes.
pub struct OnlineTable<V: Value> {
    /// The epoch-published generation; see the module docs.
    gen: EpochCell<Generation<V>>,
    /// Shared validity over global tuple ids; survives merges untouched.
    validity: AtomicValidity,
    /// Rows ever inserted — the server's write-valve rate feed.
    inserts: AtomicU64,
    n_cols: usize,
    /// Serializes merges (one in flight at a time) — and with them every
    /// generation swap. The one remaining lock; steady-state reads and
    /// writes never touch it.
    merge_gate: Mutex<()>,
    /// Warm [`MergeScratch`] arenas kept across merges: workers check one
    /// out per column task (the stage intermediates — `U_D`, delta codes,
    /// `X_M`/`X_D` — stay per-arena), so steady-state merges allocate
    /// ~nothing for dictionary/aux/output buffers.
    scratch_pool: Mutex<Vec<MergeScratch<V>>>,
    /// The table-level [`SpareBank`]: every checked-out scratch takes and
    /// recycles its *output* buffers (merged dictionary values, packed
    /// code words) here, and the commit path banks retired main
    /// partitions here. One shared bank — instead of per-arena spares —
    /// is what extends the strict zero-allocation guarantee to
    /// multi-worker merges, where the racing column→worker assignment
    /// used to strand a recycled buffer in the wrong worker's arena
    /// (asserted in `tests/merge_scratch_alloc.rs`). Shards of a
    /// [`crate::shard::ShardedTable`] share a single bank.
    bank: Arc<SpareBank<V>>,
    /// The shard's handle on its table's log, when the table was built
    /// with [`crate::config::Durability::Wal`]. `None` keeps the zero-I/O
    /// in-memory path byte-for-byte unchanged.
    wal: Option<ShardLog>,
    /// The [`crate::scheduler::MergeScheduler`] that adopted the table, if
    /// any: an insert that may have made the table due reports to it, and
    /// the one that did queues its merge.
    adoption: AdoptionSlot<V>,
}

impl<V: Value> OnlineTable<V> {
    /// An empty table of `num_columns` columns.
    pub fn new(num_columns: usize) -> Self {
        assert!(num_columns > 0, "a table needs at least one column");
        let cols = (0..num_columns)
            .map(|_| GenColumn {
                main: Arc::new(MainPartition::empty()),
                frozen: None,
            })
            .collect();
        Self {
            gen: EpochCell::new(Box::new(Generation {
                cols,
                tail: Arc::new(TailLog::new(num_columns, 0)),
            })),
            validity: AtomicValidity::new(),
            inserts: AtomicU64::new(0),
            n_cols: num_columns,
            merge_gate: Mutex::new(()),
            scratch_pool: Mutex::new(Vec::new()),
            bank: Arc::new(SpareBank::new()),
            wal: None,
            adoption: AdoptionSlot::default(),
        }
    }

    /// Share `bank` as this table's spare-buffer bank (builder-style; call
    /// before first use). A [`crate::shard::ShardedTable`] hands every
    /// shard the same bank so retired buffers are reusable across shards
    /// and workers.
    pub fn with_spare_bank(mut self, bank: Arc<SpareBank<V>>) -> Self {
        self.bank = bank;
        self
    }

    /// The table's spare-buffer bank.
    pub fn spare_bank(&self) -> &Arc<SpareBank<V>> {
        &self.bank
    }

    /// Build from bulk-loaded main partitions (all equal length).
    pub fn from_mains(mains: Vec<MainPartition<V>>) -> Self {
        assert!(!mains.is_empty(), "a table needs at least one column");
        let len = mains[0].len();
        assert!(
            mains.iter().all(|m| m.len() == len),
            "all columns must have equal length"
        );
        let n_cols = mains.len();
        let cols = mains
            .into_iter()
            .map(|m| GenColumn {
                main: Arc::new(m),
                frozen: None,
            })
            .collect();
        Self {
            gen: EpochCell::new(Box::new(Generation {
                cols,
                tail: Arc::new(TailLog::new(n_cols, len)),
            })),
            validity: AtomicValidity::all_valid(len),
            inserts: AtomicU64::new(0),
            n_cols,
            merge_gate: Mutex::new(()),
            scratch_pool: Mutex::new(Vec::new()),
            bank: Arc::new(SpareBank::new()),
            wal: None,
            adoption: AdoptionSlot::default(),
        }
    }

    /// Attach the table as shard `shard` of the log of the durable table at
    /// `root`. Crate-internal: the builder attaches it at construction,
    /// recovery after replay.
    pub(crate) fn set_wal(&mut self, log: &Arc<TableLog>, root: &Path, shard: usize) {
        let dir = wal::shard_dir(root, shard);
        self.wal = Some(ShardLog {
            log: Arc::clone(log),
            shard,
            dir,
        });
    }

    /// Is the table durable (WAL-attached)?
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// The adopting scheduler's slot (set and cleared by the scheduler).
    pub(crate) fn adoption(&self) -> &AdoptionSlot<V> {
        &self.adoption
    }

    /// Direct handle to the shared validity bitmap (recovery replays
    /// checkpoint bits and flips through it).
    pub(crate) fn validity_handle(&self) -> &AtomicValidity {
        &self.validity
    }

    /// Check a warm scratch arena out of the pool (or start a cold one on
    /// the table's [`SpareBank`]).
    fn checkout_scratch(&self) -> MergeScratch<V> {
        self.scratch_pool
            .lock()
            .pop()
            .unwrap_or_else(|| MergeScratch::with_bank(Arc::clone(&self.bank)))
    }

    /// Return a scratch arena to the pool for the next merge.
    fn checkin_scratch(&self, scratch: MergeScratch<V>) {
        self.scratch_pool.lock().push(scratch);
    }

    /// Feed a retired main partition's buffers back into the table's
    /// [`SpareBank`], where any worker's next merge can take them. A no-op
    /// when a concurrent snapshot still shares the partition — the memory
    /// is then freed when the last snapshot drops.
    fn recycle_retired(&self, retired: Arc<MainPartition<V>>) {
        if let Ok(main) = Arc::try_unwrap(retired) {
            self.bank.recycle_main(main);
        }
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.n_cols
    }

    /// The current publish epoch: advanced by every generation swap
    /// (merge freeze and commit). Snapshots carry the epoch they were
    /// pinned at — the sharded consistent cut's tag.
    pub fn epoch(&self) -> u64 {
        self.gen.epoch()
    }

    /// Rows ever inserted into this table. Monotonic; the server's write
    /// valve differences it over its sampling window for the insert rate.
    pub fn inserted_rows(&self) -> u64 {
        self.inserts.load(Ordering::Relaxed)
    }

    /// Total rows (valid + history). Lock-free: one pin plus the tail's
    /// published watermark.
    pub fn row_count(&self) -> usize {
        let gen = self.gen.pin();
        gen.tail.base() + gen.tail.published()
    }

    /// Rows currently visible. Exact when writers are quiescent; during
    /// concurrent inserts it may transiently count rows whose batch
    /// publish is still in flight.
    pub fn valid_row_count(&self) -> usize {
        self.validity.valid_count()
    }

    /// Insert a row; returns its tuple id. Lock-free — see
    /// [`Self::insert_rows`], whose errors it returns.
    pub fn insert_row(&self, values: &[V]) -> Result<usize> {
        Ok(self.insert_rows(std::slice::from_ref(&values))?.start)
    }

    /// Batched insert: one slot reservation (`fetch_add`) for the whole
    /// batch, value writes into the reserved tail slots, then one
    /// watermark publish — readers see the batch atomically or not at
    /// all. Only a batch that leaves an adopted table's delta above its
    /// scheduler's floor asks the scheduler whether the table is now due.
    /// Returns the contiguous range of tuple ids assigned. On a durable
    /// table the batch is one log frame, logged before it is visible. A
    /// row without one value per column is an [`Error::Config`], and
    /// nothing of the batch is written.
    pub fn insert_rows<R: AsRef<[V]>>(&self, rows: &[R]) -> Result<std::ops::Range<usize>> {
        if rows.is_empty() {
            let n = self.row_count();
            return Ok(n..n);
        }
        let start = Self::write(&[(self, rows)], &[])?[0];
        Ok(start..start + rows.len())
    }

    /// Invalidate a row. On a durable table the flip is one log frame,
    /// appended before the in-memory bit drops — logged before visible,
    /// like an insert. An update is an insert plus this flip, written as
    /// one frame ([`crate::shard::ShardedTable::update_row`]). A row at or
    /// past [`Self::row_count`] is an [`Error::Config`], and nothing is
    /// logged.
    pub fn delete_row(&self, row: usize) -> Result<()> {
        if row >= self.row_count() {
            return Err(Error::config(format!("row id {row} out of range")));
        }
        Self::write::<&[V]>(&[], &[(self, row)]).map(drop)
    }

    /// One client write: each non-empty `(table, rows)` group appends to
    /// that table's tail, then each `(table, row)` of `deletes` is
    /// invalidated; returns each group's first tuple id. In memory, each
    /// group is one lock-free reserve + publish. On a durable table (all
    /// tables of a call share one log) the write is one log frame: under
    /// the log's mutex the tail slots are taken, the frame is appended
    /// (synced under `fsync`), the rows publish and the flips apply — so
    /// each shard's rows are logged in tuple-id order, nothing is visible
    /// before it is logged, and recovery replays the write whole or not at
    /// all. A failed append changes no table and poisons the log. A row of
    /// the wrong width is an [`Error::Config`], returned before any slot is
    /// taken or anything is logged.
    pub(crate) fn write<R: AsRef<[V]>>(
        inserts: &[(&Self, &[R])],
        deletes: &[(&Self, usize)],
    ) -> Result<Vec<usize>> {
        for (t, rows) in inserts {
            t.check_arity(rows)?;
        }
        let first = inserts
            .first()
            .map(|g| g.0)
            .or(deletes.first().map(|d| d.0));
        let Some(log) = first.and_then(|t| t.wal.as_ref()) else {
            let starts = inserts
                .iter()
                .map(|(t, rows)| t.insert_unlogged(rows))
                .collect();
            for &(t, row) in deletes {
                t.validity.invalidate(row);
            }
            return Ok(starts);
        };
        let shard = |t: &Self| t.wal.as_ref().expect("one log per table").shard;
        // A freeze seals its tail under the log's mutex, so tails found
        // open here stay open until the guard drops.
        let (mut guard, tails) = loop {
            let guard = log.log.lock()?;
            let tails: Option<Vec<_>> = inserts.iter().map(|(t, _)| t.open_tail()).collect();
            if let Some(tails) = tails {
                break (guard, tails);
            }
            drop(guard);
            std::thread::yield_now();
        };
        // Every durable reservation publishes before the log unlocks, so a
        // tail's next slot is its published count.
        let groups: Vec<_> = (inserts.iter().zip(&tails))
            .map(|((t, rows), (tail, _))| (shard(t), tail.base() + tail.published(), *rows))
            .collect();
        let flips: Vec<_> = deletes.iter().map(|&(t, row)| (shard(t), row)).collect();
        guard.append(&groups, &flips)?;
        for (((t, rows), (tail, _)), &(_, start, _)) in inserts.iter().zip(&tails).zip(&groups) {
            let res = tail
                .reserve(rows.len())
                .expect("no freeze seals a tail while the log is locked");
            debug_assert_eq!(tail.base() + res.start(), start);
            t.publish(res, start, rows);
        }
        for &(t, row) in deletes {
            t.validity.invalidate(row);
        }
        drop(guard);
        for (((t, _), (_, main_len)), &(_, start, rows)) in inserts.iter().zip(&tails).zip(&groups)
        {
            t.count_insert(start + rows.len(), *main_len, rows.len());
        }
        Ok(groups.iter().map(|g| g.1).collect())
    }

    /// An [`Error::Config`] unless every row holds one value per column.
    pub(crate) fn check_arity<R: AsRef<[V]>>(&self, rows: &[R]) -> Result<()> {
        let cols = self.n_cols;
        match rows.iter().map(|r| r.as_ref().len()).find(|&n| n != cols) {
            Some(n) => Err(Error::config(format!(
                "a row of {n} values for {cols} columns"
            ))),
            None => Ok(()),
        }
    }

    /// The in-memory insert, retrying when a freeze sealed the tail between
    /// the pin and the reservation. Returns the first tuple id.
    fn insert_unlogged<R: AsRef<[V]>>(&self, rows: &[R]) -> usize {
        loop {
            if let Some((tail, main_len)) = self.open_tail() {
                if let Ok(res) = tail.reserve(rows.len()) {
                    let start = tail.base() + res.start();
                    self.publish(res, start, rows);
                    self.count_insert(start + rows.len(), main_len, rows.len());
                    return start;
                }
            }
            // Sealed mid-freeze: retry against the next generation's fresh
            // tail once the swap lands.
            std::thread::yield_now();
        }
    }

    /// The live tail and `N_M`, or `None` while a freeze has sealed it; the
    /// `Arc` keeps it alive, so no pin is held while writing.
    fn open_tail(&self) -> Option<(Arc<TailLog<V>>, usize)> {
        let gen = self.gen.pin();
        (!gen.tail.is_sealed()).then(|| (Arc::clone(&gen.tail), gen.backlog().1))
    }

    /// Fill the claimed slots (tuple ids from `start`) with `rows`, mark
    /// them valid, then publish: valid before visible.
    fn publish<R: AsRef<[V]>>(&self, res: TailReservation<'_, V>, start: usize, rows: &[R]) {
        for (k, values) in rows.iter().enumerate() {
            for (c, v) in values.as_ref().iter().enumerate() {
                res.set(c, k, *v);
            }
        }
        for k in 0..rows.len() {
            self.validity.set_valid(start + k);
        }
        res.publish();
    }

    /// Count `n` published rows ending at tuple id `end` and tell an
    /// adopting scheduler the delta fraction they leave.
    fn count_insert(&self, end: usize, main_len: usize, n: usize) {
        self.inserts.fetch_add(n as u64, Ordering::Relaxed);
        self.adoption
            .written((end - main_len) as f64 / main_len.max(1) as f64);
    }

    /// Read one cell (any region: main, frozen, or the tail).
    /// Lock-free.
    pub fn get(&self, col: usize, row: usize) -> V {
        self.gen.pin().get(col, row)
    }

    /// Is the row visible?
    pub fn is_valid(&self, row: usize) -> bool {
        assert!(
            row < self.row_count(),
            "row {row} out of range (len {})",
            self.row_count()
        );
        self.validity.is_valid(row)
    }

    /// Read a whole row.
    pub fn row(&self, row: usize) -> Vec<V> {
        let gen = self.gen.pin();
        (0..self.n_cols).map(|c| gen.get(c, row)).collect()
    }

    /// Tuples currently awaiting a merge (frozen delta + the published
    /// tail) in the column furthest behind — columns differ only between
    /// the steps of a budgeted merge, or after one was interrupted there.
    pub fn delta_len(&self) -> usize {
        self.gen.pin().backlog().0
    }

    /// Tuples in the main partitions of the column furthest behind, so
    /// `main_len() + delta_len() == row_count()` between the steps of a
    /// budgeted merge too.
    pub fn main_len(&self) -> usize {
        self.gen.pin().backlog().1
    }

    /// `N_D / max(N_M, 1)` — the merge-trigger ratio, always **finite**.
    ///
    /// With an empty main partition the literal `N_D / N_M` would be
    /// `inf`, which surprises custom [`MergePolicy`] arithmetic (e.g.
    /// `fraction * weight` ordering, or serializing the value). Clamping
    /// `N_M` to 1 keeps the value finite while preserving the trigger
    /// semantics: an empty main with a non-empty delta reads as `N_D`,
    /// which exceeds any sane threshold, so [`MergePolicy::is_due`] still
    /// fires. An empty table reads as `0.0`.
    pub fn delta_fraction(&self) -> f64 {
        let (nd, nm) = self.gen.pin().backlog();
        nd as f64 / nm.max(1) as f64
    }

    /// Byte-level memory accounting over every column's regions (main
    /// codes + dictionary, frozen deltas, plus the uncompressed
    /// tail values), from one generation pin. This is the scheduler's
    /// memory-pressure sample: a large `delta_total` is reclaimable by
    /// merging, a large total argues for a tight [`MergeBudget`].
    pub fn memory_report(&self) -> MemoryReport {
        let gen = self.gen.pin();
        let tail_rows = gen.tail.published();
        gen.cols
            .iter()
            .map(|c| {
                let mut r = MemoryReport::of_main(&c.main);
                // Frozen deltas are bit-packed: charge them at their
                // compressed size, which is what they actually cost while
                // a merge is in flight.
                if let Some(f) = c.frozen.as_deref() {
                    r = r + MemoryReport::of_frozen(f);
                }
                r + MemoryReport {
                    delta_values: tail_rows * V::BYTES,
                    ..MemoryReport::default()
                }
            })
            .fold(MemoryReport::default(), |a, b| a + b)
    }

    /// **Freeze** (merge begin, under the gate): seal the tail, wait for
    /// in-flight batch publishes, compress its rows into a bit-packed
    /// [`FrozenDelta`] per column (global insert order), and publish a
    /// generation with those deltas frozen and a fresh tail. Writers that
    /// hit the sealed tail retry against the fresh one.
    ///
    /// On a durable table the tail is sealed under the log's mutex, and
    /// the log's seal frame for it is appended before the mutex drops:
    /// every frame of the sealed rows precedes the seal, and no write can
    /// claim a slot of the fresh tail before the swap installs it. A
    /// poisoned log refuses before anything is sealed. If the seal or
    /// rotation fails, the live segment stays unsealed and the swap still
    /// happens — writers must not spin forever on a sealed tail — and the
    /// error is returned; the frozen deltas wait for the next merge to
    /// resume them.
    fn freeze(&self) -> Result<()> {
        let mut log = self.wal.as_ref().map(|w| w.log.lock()).transpose()?;
        let (cols, tail) = {
            let gen = self.gen.pin();
            (gen.cols.clone(), Arc::clone(&gen.tail))
        };
        let n = tail.seal();
        let rotated = match (&mut log, &self.wal) {
            (Some(guard), Some(w)) => guard.seal(w.shard, tail.base() + n, n),
            _ => Ok(()),
        };
        drop(log);
        let new_cols = cols
            .into_iter()
            .enumerate()
            .map(|(c, gc)| {
                debug_assert!(gc.frozen.is_none(), "a frozen delta is resumed");
                let mut vals: Vec<V> = Vec::with_capacity(n);
                for s in tail.col_slices(c, n) {
                    vals.extend_from_slice(s);
                }
                GenColumn {
                    main: gc.main,
                    frozen: Some(Arc::new(FrozenDelta::from_values(&vals))),
                }
            })
            .collect();
        let new_tail = Arc::new(TailLog::new(self.n_cols, tail.base() + n));
        drop(tail);
        self.gen.swap(Box::new(Generation {
            cols: new_cols,
            tail: new_tail,
        }));
        rotated
    }

    /// **Commit** some columns (under the gate): publish a generation
    /// where each `(index, merged main)` pair replaces its column's main
    /// and drops its frozen delta; the tail `Arc` carries over unchanged
    /// (its base still equals every column's pre-tail length — new main =
    /// old main + frozen). Returns the retired main partitions, uniquely
    /// owned unless snapshots still share them.
    fn commit_columns(&self, outs: Vec<(usize, MainPartition<V>)>) -> Vec<Arc<MainPartition<V>>> {
        let (mut cols, tail) = {
            let gen = self.gen.pin();
            (gen.cols.clone(), Arc::clone(&gen.tail))
        };
        let mut retired = Vec::with_capacity(outs.len());
        for (i, new_main) in outs {
            let gc = &mut cols[i];
            retired.push(std::mem::replace(&mut gc.main, Arc::new(new_main)));
            gc.frozen = None;
        }
        self.gen.swap(Box::new(Generation { cols, tail }));
        retired
    }

    /// The merge's input, pinned once under the gate: every still-frozen
    /// column's `(main, frozen delta)` pair (`None` for a column an
    /// interrupted merge already committed) plus the frozen rows' end id.
    /// Callers clear a slot as its column commits, so the retired main
    /// becomes uniquely owned and recyclable.
    fn frozen_snapshots(&self) -> (Vec<Option<MergeInput<V>>>, usize) {
        let gen = self.gen.pin();
        let snapshots = gen
            .cols
            .iter()
            .map(|c| {
                c.frozen
                    .as_ref()
                    .map(|f| (Arc::clone(&c.main), Arc::clone(f)))
            })
            .collect();
        (snapshots, gen.tail.base())
    }

    /// Merge the columns `cols` task-queue style on the shared pool — the
    /// paper's scheme (i), "enqueue each column as a separate task"
    /// (Section 6.2.1). `grant.threads` is the whole fan-out's width: at
    /// most that many columns are in flight, and what is left over when
    /// the set is narrow becomes each column's within-column width for
    /// Stages 1b and 2. Returns the outputs in `cols` order; a panic in
    /// any column is re-thrown once every column has finished.
    fn merge_columns(
        &self,
        grant: MergeGrant,
        cols: &[usize],
        snapshots: &[Option<MergeInput<V>>],
    ) -> Vec<MergeOutput<MainPartition<V>>> {
        let workers = grant.threads.clamp(1, cols.len());
        let pipeline = MergePipeline::new(grant.strategy, (grant.threads / workers).max(1));
        let slots: Vec<OnceLock<MergeOutput<MainPartition<V>>>> =
            cols.iter().map(|_| OnceLock::new()).collect();
        Pool::global().run_indexed(cols.len(), workers, &|k| {
            let i = cols[k];
            let (main, frozen) = snapshots[i].as_ref().expect("column not yet committed");
            let mut scratch = self.checkout_scratch();
            let out = pipeline.merge_column(main, frozen, &mut scratch);
            self.checkin_scratch(scratch);
            let _ = slots[k].set(out);
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("run_indexed runs every index"))
            .collect()
    }

    /// Durable epilogue of a merge whose column files are all written:
    /// rename the checkpoint manifest (the merged rows' validity) into
    /// place, then delete the log segments it lets go of and every other
    /// generation's column files. The validity is snapshotted under the
    /// log's mutex, where every logged flip is applied, so the manifest
    /// holds each flip logged before the freeze. Failure here loses the
    /// merge's *durability*, not its in-memory result: recovery finds the
    /// previous manifest plus the still-logged rows and merges them
    /// forward again.
    fn finish_durable_merge(&self, w: &ShardLog, frozen_end: usize) -> Result<()> {
        let validity = {
            let _log = w.log.lock()?;
            self.validity.snapshot_prefix(frozen_end)
        };
        wal::write_checkpoint::<V>(&w.dir, self.n_cols, &validity)?;
        w.log.absorbed(w.shard);
        wal::remove_stale_files(&w.dir, frozen_end)
    }

    /// Run one online merge with the default grant ([`MergeStrategy::Parallel`],
    /// unbounded budget). Blocks the calling thread for the duration; the
    /// table stays readable and writable throughout (the freeze and commit
    /// swaps are the only moments writers may briefly retry).
    pub fn merge(&self, threads: usize) -> Result<TableMergeStats> {
        self.merge_with(MergeGrant::with_threads(threads))
    }

    /// Run one online merge under an explicit [`MergeGrant`]: strategy,
    /// threads, and a [`MergeBudget`] bounding peak extra memory. This is
    /// [`Self::begin_merge`] followed by [`MergeSession::finish`] — again
    /// when the first session resumed an interrupted merge and rows wait
    /// in the tail, so the rows published before the call are merged
    /// either way.
    ///
    /// Unbudgeted, all `N_C` columns are merged before one atomic commit —
    /// at peak the table transiently costs ~2x its memory (every column
    /// exists in its old and new generation at once), the known price of
    /// online reorganization in memory-resident stores. With a budget of
    /// `K` columns, the merge runs the paper's Section 4 partial-column
    /// strategy: freeze all deltas once, then merge **and commit** `K`
    /// columns at a time, so at most the largest `K`-column working set
    /// exists on top of the live table. Results are byte-identical to the
    /// unbudgeted merge (every strategy produces the same partitions).
    ///
    /// A failure follows the commit granularity: columns in chunks
    /// already committed stay merged (each column individually holds all
    /// its rows, so the table stays consistent); the rest stay frozen
    /// until the next merge resumes them. Unbudgeted there is a single
    /// chunk, so a failed merge commits nothing.
    ///
    /// Merge-phase intermediates come from the table's warm scratch pool,
    /// and each chunk's commit recycles the retired main partitions into
    /// that pool, so steady-state merges allocate ~nothing.
    pub fn merge_with(&self, grant: MergeGrant) -> Result<TableMergeStats> {
        let mut stats = TableMergeStats::default();
        loop {
            let session = self.begin_merge(grant)?;
            let resumed = session.resumed;
            stats.absorb(session.finish()?);
            if !resumed || self.delta_len() == 0 {
                return Ok(stats);
            }
        }
    }

    /// Merge if the policy says so: `Ok(Some(stats))` when a merge ran,
    /// `Ok(None)` when none was due, and the merge's error (a failed WAL
    /// rotation or column write, say) otherwise.
    pub fn maybe_merge(&self, policy: &MergePolicy) -> Result<Option<TableMergeStats>> {
        if !policy.is_due(self.delta_fraction(), 0.0) {
            return Ok(None);
        }
        self.merge_with(policy.grant()).map(Some)
    }

    /// Begin a merge under `grant` and return it as a [`MergeSession`]
    /// that merges and commits `grant.budget` columns per
    /// [`MergeSession::step`]. The session holds the merge gate; between
    /// steps the table serves reads and writes normally. Under
    /// [`MergeBudget::columns`]`(1)` this is the paper's Section 9
    /// incremental merge ("incremental processing of the individual
    /// attributes", with "pause and resume the merge process"): pausing is
    /// not calling `step`, or dropping the session, and resuming is the
    /// next `begin_merge`. Committed columns stay merged — every column
    /// individually contains all rows.
    ///
    /// When a failed, panicked or dropped merge left frozen columns, begin
    /// does not freeze again: the session resumes those columns, and rows
    /// published since wait for the next merge. Otherwise begin freezes
    /// the tail into per-column frozen deltas and pins them as the merge
    /// input. On a durable table the freeze appends the shard's seal to
    /// the table log and rotates it, and that synced seal is the merge's
    /// durable begin: from then on recovery finishes the merge forward.
    /// Each step writes its chunk's merged columns as `col-<c>-<rows>`
    /// files before the in-memory commit, and [`MergeSession::finish`]
    /// renames the checkpoint manifest into place, deletes the log
    /// segments no shard needs any more and unlinks every other
    /// generation's column files. A process killed
    /// at any point resumes from the column files already written —
    /// byte-identical whichever they are. A failed rotation returns the
    /// error and leaves the frozen columns to the next merge.
    pub fn begin_merge(&self, grant: MergeGrant) -> Result<MergeSession<'_, V>> {
        assert!(grant.threads >= 1, "need at least one thread");
        let gate = self.merge_gate.lock();
        let t_start = std::time::Instant::now();
        // A frozen column is a merge that failed, panicked or was dropped
        // before committing it.
        let resumed = self.gen.pin().cols.iter().any(|c| c.frozen.is_some());
        if !resumed {
            self.freeze()?;
        }
        let (snapshots, frozen_end) = self.frozen_snapshots();
        Ok(MergeSession {
            table: self,
            _gate: gate,
            grant,
            snapshots,
            frozen_end,
            resumed,
            stats: TableMergeStats::default(),
            t_start,
        })
    }

    /// A consistent point-in-time snapshot of the whole table — **no
    /// lock, no copy**: one generation pin, `Arc` clones of the main and
    /// frozen partitions, a handle to the shared tail clamped to
    /// its published watermark, and a prefix copy of the validity bits.
    /// Two snapshots of an unchanged table share every partition pointer.
    ///
    /// The snapshot is tagged with the [`Self::epoch`] it was pinned at —
    /// the sharded consistent cut reads the tags.
    ///
    /// Scans and aggregates over the snapshot run entirely without
    /// touching the table again — the sharded fan-out operators in
    /// `hyrise-query` are built on this.
    pub fn snapshot(&self) -> TableSnapshot<V> {
        let gen = self.gen.pin();
        let epoch = gen.epoch();
        let tail_rows = gen.tail.published();
        let total = gen.tail.base() + tail_rows;
        let cols = gen
            .cols
            .iter()
            .enumerate()
            .map(|(col, gc)| ColumnSnapshot {
                main: Arc::clone(&gc.main),
                frozen: gc.frozen.clone(),
                tail: Arc::clone(&gen.tail),
                col,
                tail_rows,
            })
            .collect();
        drop(gen);
        TableSnapshot {
            cols,
            validity: self.validity.snapshot_prefix(total),
            epoch,
        }
    }
}

/// One column of a [`TableSnapshot`]: the three regions a row can live
/// in, pinned at snapshot time. Global row ids within the shard run
/// `main`, then `frozen`, then the tail prefix below the snapshot's
/// watermark.
pub struct ColumnSnapshot<V: Value> {
    main: Arc<MainPartition<V>>,
    frozen: Option<Arc<FrozenDelta<V>>>,
    tail: Arc<TailLog<V>>,
    col: usize,
    tail_rows: usize,
}

impl<V: Value> ColumnSnapshot<V> {
    /// Rows in the snapshot (`N_M + N_F + N_T`).
    pub fn len(&self) -> usize {
        self.main.len() + self.frozen.as_ref().map_or(0, |f| f.len()) + self.tail_rows
    }

    /// True when the column held no rows at snapshot time.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The read-optimized partition (dictionary + packed codes).
    pub fn main(&self) -> &MainPartition<V> {
        &self.main
    }

    /// The delta being merged when the snapshot was taken, if any —
    /// bit-packed through its local dictionary. Its rows follow the main
    /// rows in global id order.
    pub fn frozen(&self) -> Option<&FrozenDelta<V>> {
        self.frozen.as_deref()
    }

    /// Rows in the active delta at snapshot time (the published tail —
    /// everything after main and frozen in global id order).
    pub fn active_len(&self) -> usize {
        self.tail_rows
    }

    /// Every region after the main partition, in global row order: the
    /// frozen delta as one bit-packed [`TailRegion::Packed`] region over its
    /// whole row range (scanned with the SWAR kernels in local value-id
    /// space), then the published tail prefix as raw chunks (scanned by
    /// value comparison). This is the shape query executors consume.
    pub fn tails(&self) -> Vec<TailRegion<'_, V>> {
        let mut out = Vec::new();
        if let Some(f) = self.frozen.as_deref() {
            if !f.is_empty() {
                out.push(f.region());
            }
        }
        out.extend(
            self.tail
                .col_slices(self.col, self.tail_rows)
                .into_iter()
                .map(TailRegion::Raw),
        );
        out
    }

    /// Value of snapshot row `row` (any of the three regions).
    pub fn get(&self, row: usize) -> V {
        let nm = self.main.len();
        if row < nm {
            return self.main.get(row);
        }
        let mut off = row - nm;
        if let Some(f) = &self.frozen {
            if off < f.len() {
                return f.get(off);
            }
            off -= f.len();
        }
        assert!(off < self.tail_rows, "row {row} out of snapshot range");
        self.tail.read(self.col, off)
    }
}

/// A consistent read snapshot of an [`OnlineTable`]; see
/// [`OnlineTable::snapshot`]. Rows published after the snapshot's
/// watermark are not visible through it.
pub struct TableSnapshot<V: Value> {
    cols: Vec<ColumnSnapshot<V>>,
    validity: ValidityBitmap,
    epoch: u64,
}

impl<V: Value> TableSnapshot<V> {
    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.cols.len()
    }

    /// Rows in the snapshot (valid + history).
    pub fn row_count(&self) -> usize {
        self.cols[0].len()
    }

    /// The publish epoch the snapshot was pinned at; see
    /// [`OnlineTable::epoch`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// One column's snapshot.
    pub fn col(&self, col: usize) -> &ColumnSnapshot<V> {
        &self.cols[col]
    }

    /// All column snapshots in schema order (executor fan-in path).
    pub fn cols(&self) -> &[ColumnSnapshot<V>] {
        &self.cols
    }

    /// The validity bitmap as of snapshot time.
    pub fn validity(&self) -> &ValidityBitmap {
        &self.validity
    }

    /// Was `row` visible at snapshot time?
    pub fn is_valid(&self, row: usize) -> bool {
        self.validity.is_valid(row)
    }

    /// Materialize a whole snapshot row.
    pub fn row(&self, row: usize) -> Vec<V> {
        self.cols.iter().map(|c| c.get(row)).collect()
    }
}

/// An in-flight merge; see [`OnlineTable::begin_merge`]. Holds the merge
/// gate, so other merges on the table block until the session finishes or
/// drops. Dropping it mid-way leaves the unmerged columns frozen for the
/// next merge to resume.
pub struct MergeSession<'t, V: Value> {
    table: &'t OnlineTable<V>,
    _gate: parking_lot::MutexGuard<'t, ()>,
    grant: MergeGrant,
    /// Every still-frozen column's pinned `(main, frozen delta)`, cleared
    /// as the column commits so the retired main becomes recyclable.
    snapshots: Vec<Option<MergeInput<V>>>,
    /// Global row count at the freeze: every merged column's final length
    /// and the generation of its column file.
    frozen_end: usize,
    /// Opened over the frozen columns an earlier merge left behind.
    resumed: bool,
    stats: TableMergeStats,
    t_start: std::time::Instant,
}

impl<V: Value> MergeSession<'_, V> {
    /// Columns not yet merged.
    pub fn remaining(&self) -> usize {
        self.snapshots.iter().filter(|s| s.is_some()).count()
    }

    /// Merge and commit the next chunk of at most `grant.budget` columns
    /// (task-queue style on the shared pool, see the paper's Section
    /// 6.2.1). Returns `Ok(false)` when every column has been merged. The
    /// table stays readable and writable between and during steps — the
    /// commit swap is the only (lock-free) hand-off.
    ///
    /// On a durable table the chunk is first written as one column file
    /// per column, so a crash after the commit resumes with these columns
    /// loaded instead of re-merged. A failed write returns the error and
    /// leaves the chunk frozen, like every other failure: the next step,
    /// or the next merge, takes it up again.
    pub fn step(&mut self) -> Result<bool> {
        let chunk: Vec<usize> = (0..self.snapshots.len())
            .filter(|&i| self.snapshots[i].is_some())
            .take(self.grant.budget.max_columns())
            .collect();
        if chunk.is_empty() {
            return Ok(false);
        }
        let merged = self
            .table
            .merge_columns(self.grant, &chunk, &self.snapshots);
        if let Some(w) = &self.table.wal {
            for (&i, out) in chunk.iter().zip(&merged) {
                wal::write_column(&w.dir, i, self.frozen_end, &out.main)?;
            }
        }

        // Account the chunk's transient footprint before its commit.
        let chunk_bytes: usize = merged.iter().map(|o| o.main.memory_bytes()).sum();
        self.stats.peak_extra_bytes = self.stats.peak_extra_bytes.max(chunk_bytes);
        self.stats.peak_columns_in_flight = self.stats.peak_columns_in_flight.max(chunk.len());
        let mut outs = Vec::with_capacity(chunk.len());
        for (i, out) in chunk.iter().zip(merged) {
            self.stats.columns.push(out.stats);
            outs.push((*i, out.main));
        }
        self.commit(outs);
        Ok(true)
    }

    /// Run the remaining steps, then (on a durable table) rename the
    /// checkpoint manifest into place, delete the log segments no shard
    /// needs any more and unlink every other generation's column files and
    /// any interrupted `*.tmp` write — the one cleanup site. A failure in
    /// that epilogue loses the merge's *durability*, not its in-memory
    /// result: recovery finds the previous manifest plus the still-logged
    /// rows and merges them forward again.
    pub fn finish(mut self) -> Result<TableMergeStats> {
        while self.step()? {}
        if let Some(w) = &self.table.wal {
            self.table.finish_durable_merge(w, self.frozen_end)?;
        }
        self.stats.t_wall = self.t_start.elapsed();
        Ok(self.stats)
    }

    /// Swap each `(index, merged main)` in as its column's main and
    /// recycle the retired partitions into the spare bank. Recovery
    /// commits the column files a crashed merge already wrote this way,
    /// so completed steps are not redone.
    pub(crate) fn commit(&mut self, outs: Vec<(usize, MainPartition<V>)>) {
        debug_assert!(outs.iter().all(|(_, m)| m.len() == self.frozen_end));
        for (i, _) in &outs {
            self.snapshots[*i] = None;
        }
        for old in self.table.commit_columns(outs) {
            self.table.recycle_retired(old);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    /// An incremental merge: a session that commits one column per step.
    fn incremental(t: &OnlineTable<u64>, threads: usize) -> MergeSession<'_, u64> {
        t.begin_merge(MergeGrant::with_threads(threads).budget(MergeBudget::columns(1)))
            .unwrap()
    }

    fn table_with_rows(cols: usize, rows: u64) -> OnlineTable<u64> {
        let t = OnlineTable::new(cols);
        for i in 0..rows {
            let row: Vec<u64> = (0..cols as u64).map(|c| i * 10 + c).collect();
            t.insert_row(&row).unwrap();
        }
        t
    }

    #[test]
    fn insert_read_roundtrip() {
        let t = table_with_rows(3, 50);
        assert_eq!(t.row_count(), 50);
        assert_eq!(t.row(7), vec![70, 71, 72]);
        assert_eq!(t.get(2, 49), 492);
        assert_eq!(t.inserted_rows(), 50);
    }

    #[test]
    fn panic_in_one_stage2_region_surfaces_after_all_regions_and_leaves_table_unmerged() {
        use crate::pipeline::FAIL_STAGE2_REGION;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        // One column wide enough that a 4-wide grant cuts Stage 2 into
        // several regions wherever the pool has the workers for it.
        let t = OnlineTable::<u64>::new(1);
        let rows: Vec<[u64; 1]> = (0..300_000u64).map(|i| [i % 1_000]).collect();
        t.insert_rows(&rows).unwrap();

        let _gate = t.merge_gate.lock();
        t.freeze().unwrap();
        let (inputs, _) = t.frozen_snapshots();
        // The first region re-encoding this table's main panics; every
        // region that finishes (the panicking one included) is counted.
        let main = Arc::as_ptr(&inputs[0].as_ref().unwrap().0).addr();
        *FAIL_STAGE2_REGION.lock().unwrap() = Some((main, 0, 0));
        let merge = || t.merge_columns(MergeGrant::with_threads(4), &[0], &inputs);
        let unwound = catch_unwind(AssertUnwindSafe(merge)).is_err();
        let (_, finished, total) = FAIL_STAGE2_REGION.lock().unwrap().take().unwrap();
        assert!(
            unwound,
            "the region's panic must surface on the merge caller"
        );
        assert_eq!(
            finished, total,
            "the caller unwinds only after every region finished"
        );

        // Nothing was committed: the table is unmerged and still readable.
        assert_eq!(t.main_len(), 0);
        assert_eq!(t.row_count(), 300_000);
        assert_eq!(t.get(0, 123_456), 123_456 % 1_000);
        // The delta stays frozen; the next merge resumes it to the bytes
        // of a merge that never failed.
        drop(inputs);
        drop(_gate);
        t.merge(4).unwrap();
        assert_eq!(t.main_len(), 300_000);
        assert_eq!(t.delta_len(), 0);
        let reference = OnlineTable::<u64>::new(1);
        reference.insert_rows(&rows).unwrap();
        reference.merge(4).unwrap();
        assert_bytes_identical(&t, &reference);
    }

    #[test]
    fn merge_moves_delta_to_main_and_preserves_reads() {
        let t = table_with_rows(2, 100);
        assert_eq!(t.main_len(), 0);
        assert_eq!(t.delta_len(), 100);
        let stats = t.merge(4).unwrap();
        assert_eq!(t.main_len(), 100);
        assert_eq!(t.delta_len(), 0);
        assert_eq!(stats.columns.len(), 2);
        for r in [0usize, 42, 99] {
            assert_eq!(t.row(r), vec![r as u64 * 10, r as u64 * 10 + 1]);
        }
    }

    #[test]
    fn second_delta_survives_merge() {
        let t = table_with_rows(1, 10);
        t.merge(2).unwrap();
        // New inserts after the merge...
        t.insert_row(&[777]).unwrap();
        assert_eq!(t.main_len(), 10);
        assert_eq!(t.delta_len(), 1);
        assert_eq!(t.get(0, 10), 777);
        // ...survive the next merge too.
        t.merge(2).unwrap();
        assert_eq!(t.main_len(), 11);
        assert_eq!(t.get(0, 10), 777);
    }

    #[test]
    fn concurrent_inserts_during_merge_land_in_second_delta() {
        // Inserts from another thread interleave with repeated merges:
        // writers hitting the sealed tail must retry against the fresh one
        // and nothing may be lost or reordered.
        let t = std::sync::Arc::new(table_with_rows(2, 2_000));
        let t2 = std::sync::Arc::clone(&t);
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let stop2 = std::sync::Arc::clone(&stop);
        let writer = std::thread::spawn(move || {
            let mut n = 0u64;
            while !stop2.load(Ordering::Relaxed) {
                t2.insert_row(&[1_000_000 + n, 2_000_000 + n]).unwrap();
                n += 1;
            }
            n
        });
        for _ in 0..5 {
            t.merge(2).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let inserted = writer.join().unwrap();
        // Nothing lost: total rows = initial + concurrent inserts.
        assert_eq!(t.row_count() as u64, 2_000 + inserted);
        // And the last concurrent row is readable.
        if inserted > 0 {
            let last = t.row_count() - 1;
            let row = t.row(last);
            assert_eq!(row[1] - row[0], 1_000_000);
        }
    }

    #[test]
    fn cancelled_merge_restores_everything() {
        let t = table_with_rows(2, 500);
        let before: Vec<Vec<u64>> = (0..500).map(|r| t.row(r)).collect();
        // Interrupted before its first step: the session is dropped.
        drop(t.begin_merge(MergeGrant::with_threads(2)).unwrap());
        assert_eq!(t.main_len(), 0, "an interrupted merge commits nothing");
        assert_eq!(t.delta_len(), 500);
        let after: Vec<Vec<u64>> = (0..500).map(|r| t.row(r)).collect();
        assert_eq!(before, after, "table must be observably unchanged");
        // The next merge resumes the frozen delta to the same bytes.
        t.merge(2).unwrap();
        assert_eq!(t.main_len(), 500);
        let reference = table_with_rows(2, 500);
        reference.merge(2).unwrap();
        assert_bytes_identical(&t, &reference);
    }

    #[test]
    fn cancelled_merge_keeps_second_delta_rows() {
        let t = table_with_rows(1, 100);
        // A row inserted while an interrupted merge's delta is frozen
        // lands behind it, and the next merge takes both.
        drop(t.begin_merge(MergeGrant::with_threads(1)).unwrap());
        t.insert_row(&[12345]).unwrap();
        assert_eq!(t.row_count(), 101);
        assert_eq!(t.get(0, 100), 12345);
        t.merge(1).unwrap();
        assert_eq!(t.get(0, 100), 12345);
        assert_eq!(t.main_len(), 101);
        assert_eq!(t.delta_len(), 0);
        let reference = table_with_rows(1, 100);
        reference.insert_row(&[12345]).unwrap();
        reference.merge(1).unwrap();
        assert_bytes_identical(&t, &reference);
    }

    #[test]
    fn validity_carries_across_merges() {
        let t = table_with_rows(1, 10);
        let new_row = t.insert_row(&[999]).unwrap();
        t.delete_row(3).unwrap();
        t.delete_row(7).unwrap();
        t.merge(2).unwrap();
        assert!(!t.is_valid(3));
        assert!(!t.is_valid(7));
        assert!(t.is_valid(new_row));
        assert_eq!(t.get(0, new_row), 999);
        assert_eq!(t.valid_row_count(), 9); // 10 + 1 inserted - 2 invalidated
    }

    #[test]
    fn policy_trigger() {
        let t = table_with_rows(1, 100);
        t.merge(1).unwrap();
        let policy = MergePolicy {
            delta_fraction: 0.05,
            threads: 2,
            ..MergePolicy::default()
        };
        assert!(!policy.is_due(t.delta_fraction(), 0.0));
        for i in 0..5 {
            t.insert_row(&[i]).unwrap();
        }
        assert!(
            !policy.is_due(t.delta_fraction(), 0.0),
            "exactly 5% is not strictly greater"
        );
        t.insert_row(&[6]).unwrap();
        assert!(policy.is_due(t.delta_fraction(), 0.0));
        assert!(t.maybe_merge(&policy).unwrap().is_some());
        assert_eq!(t.delta_len(), 0);
        assert!(t.maybe_merge(&policy).unwrap().is_none());
    }

    #[test]
    fn maybe_merge_surfaces_a_failed_merge() {
        let dir = std::env::temp_dir().join(format!(
            "hyrise-manager-test-{}-maybe-merge",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let table = crate::shard::ShardedTable::<u64>::builder()
            .durability(crate::config::Durability::Wal {
                dir: dir.clone(),
                fsync: false,
            })
            .build()
            .unwrap();
        let t = table.shard(0);
        t.insert_rows(&[[1u64], [2]]).unwrap();
        // The freeze's rotation cannot create the next segment.
        std::fs::remove_dir_all(&dir).unwrap();
        let policy = MergePolicy {
            threads: 1,
            ..MergePolicy::default()
        };
        assert!(policy.is_due(t.delta_fraction(), 0.0));
        assert!(
            t.maybe_merge(&policy).is_err(),
            "a failed merge is not 'not due'"
        );
        assert_eq!(t.main_len(), 0, "the rows stay frozen");
        assert_eq!(t.delta_len(), 2);
        assert_eq!(t.row(1), vec![2]);
    }

    /// Byte-level equality of two tables' merged states: dictionaries and
    /// packed code words of every column, plus validity.
    fn assert_bytes_identical(a: &OnlineTable<u64>, b: &OnlineTable<u64>) {
        let (sa, sb) = (a.snapshot(), b.snapshot());
        assert_eq!(sa.num_columns(), sb.num_columns());
        for c in 0..sa.num_columns() {
            assert_eq!(
                sa.col(c).main().dictionary().values(),
                sb.col(c).main().dictionary().values(),
                "column {c}: dictionaries differ"
            );
            assert_eq!(
                sa.col(c).main().packed_codes().words(),
                sb.col(c).main().packed_codes().words(),
                "column {c}: packed words differ"
            );
        }
        assert_eq!(sa.validity().valid_count(), sb.validity().valid_count());
    }

    #[test]
    fn budgeted_merge_is_byte_identical_and_bounds_in_flight() {
        let a = table_with_rows(6, 1_500);
        let b = table_with_rows(6, 1_500);
        let full = a.merge(2).unwrap();
        assert_eq!(
            full.peak_columns_in_flight, 6,
            "unbudgeted merge holds every column's output at once"
        );
        let budgeted = b
            .merge_with(MergeGrant::with_threads(2).budget(MergeBudget::columns(2)))
            .unwrap();
        assert_eq!(
            budgeted.peak_columns_in_flight, 2,
            "budget K caps the uncommitted outputs at K columns"
        );
        assert!(budgeted.peak_extra_bytes > 0);
        assert!(
            budgeted.peak_extra_bytes < full.peak_extra_bytes,
            "2-column chunks of a 6-column table must peak below the full set \
             ({} vs {})",
            budgeted.peak_extra_bytes,
            full.peak_extra_bytes
        );
        assert_eq!(budgeted.columns.len(), 6, "every column still merged");
        assert_bytes_identical(&a, &b);
    }

    #[test]
    fn merge_with_strategies_agree_online() {
        for strategy in [
            MergeStrategy::Naive,
            MergeStrategy::Optimized,
            MergeStrategy::Parallel,
        ] {
            let a = table_with_rows(3, 900);
            let b = table_with_rows(3, 900);
            a.merge(2).unwrap();
            b.merge_with(
                MergeGrant::with_threads(2)
                    .strategy(strategy)
                    .budget(MergeBudget::columns(1)),
            )
            .unwrap();
            assert_bytes_identical(&a, &b);
        }
    }

    #[test]
    fn spare_bank_recycles_retired_mains() {
        // After a merge, the table's bank holds the retired generation's
        // buffers; a second merge of the same shape must neither grow nor
        // shrink the banked capacity.
        let t = table_with_rows(2, 2_000);
        t.merge(1).unwrap();
        t.merge(1).unwrap(); // empty delta: same-size regeneration
        let warmed = t.spare_bank().spare_capacities();
        assert!(warmed.1 > 0, "retired word buffers must have been recycled");
        for _ in 0..3 {
            t.merge(1).unwrap();
            assert_eq!(
                t.spare_bank().spare_capacities(),
                warmed,
                "steady-state merges reuse, not reallocate"
            );
        }
    }

    #[test]
    fn memory_report_tracks_the_merge() {
        // Repeating values: dictionary compression must shrink the
        // footprint once the delta folds into the main.
        let t = OnlineTable::<u64>::new(2);
        for i in 0..1_000u64 {
            t.insert_row(&[i % 50, (i % 50) * 3]).unwrap();
        }
        let before = t.memory_report();
        assert_eq!(before.main_total(), 0, "everything still in the deltas");
        assert!(before.delta_total() > 0);
        t.merge(1).unwrap();
        let after = t.memory_report();
        assert_eq!(after.delta_total(), 0, "merge reclaims the delta bytes");
        assert!(after.main_total() > 0);
        assert!(
            after.total() < before.total(),
            "dictionary compression shrinks the footprint ({} vs {})",
            after.total(),
            before.total()
        );
        // A shared bank is visible through the builder.
        let bank = Arc::new(crate::pipeline::SpareBank::new());
        let t2 = OnlineTable::<u64>::new(1).with_spare_bank(Arc::clone(&bank));
        t2.insert_row(&[1]).unwrap();
        t2.merge(1).unwrap();
        t2.merge(1).unwrap();
        assert!(
            Arc::ptr_eq(t2.spare_bank(), &bank),
            "builder shares the given bank"
        );
        assert!(
            bank.spare_counts().1 > 0,
            "recycles land in the shared bank"
        );
    }

    #[test]
    fn frozen_delta_is_reported_compressed_while_merge_is_in_flight() {
        // 20K compressible rows (50 distinct values). Before the freeze
        // they sit raw in the tail at 8 B each; once a merge is in flight
        // the frozen delta must be *observably* bit-packed: 6 bits/row
        // plus a 50-entry local dictionary.
        let t = OnlineTable::<u64>::new(1);
        for i in 0..20_000u64 {
            t.insert_row(&[i % 50]).unwrap();
        }
        let raw = t.memory_report();
        assert_eq!(raw.delta_values, 20_000 * 8);
        assert_eq!(raw.frozen_codes + raw.frozen_dict, 0);

        // The session holds the merge mid-flight: frozen, nothing stepped.
        let s = incremental(&t, 1);
        let mid = t.memory_report();
        assert_eq!(mid.delta_values, 0, "sealed rows left the raw tail");
        assert_eq!(
            mid.frozen_codes,
            (20_000usize * 6).div_ceil(64) * 8,
            "frozen codes charged at bit-packed size"
        );
        assert_eq!(mid.frozen_dict, 50 * 8);
        assert!(
            mid.delta_total() < raw.delta_total(),
            "freezing must shrink the write-side footprint ({} vs {})",
            mid.delta_total(),
            raw.delta_total()
        );
        // Reads still span the frozen region.
        assert_eq!(t.get(0, 19_999), 19_999 % 50);
        let snap = t.snapshot();
        let f = snap.col(0).frozen().expect("merge is in flight");
        assert_eq!(f.codes().bits(), 6);
        assert_eq!(f.len(), 20_000);

        // A dropped session leaves the delta frozen, still compressed.
        drop(s);
        let back = t.memory_report();
        assert_eq!(back.frozen_codes, mid.frozen_codes);
        assert_eq!(back.delta_values, 0);

        t.merge(1).unwrap();
        assert_eq!(t.memory_report().delta_total(), 0);
        assert_eq!(t.get(0, 19_999), 19_999 % 50);
    }

    #[test]
    fn incremental_merge_equals_full_merge() {
        let a = table_with_rows(4, 2_000);
        let b = table_with_rows(4, 2_000);
        a.merge(2).unwrap();
        let stats = {
            let mut s = incremental(&b, 2);
            assert_eq!(s.remaining(), 4);
            assert!(s.step().unwrap());
            assert_eq!(s.remaining(), 3);
            s.finish().unwrap()
        };
        assert_eq!(stats.columns.len(), 4);
        assert_eq!(b.main_len(), a.main_len());
        assert_eq!(b.delta_len(), 0);
        for r in (0..2_000).step_by(137) {
            assert_eq!(a.row(r), b.row(r));
        }
    }

    #[test]
    fn incremental_merge_serves_reads_and_writes_between_steps() {
        let t = table_with_rows(3, 1_000);
        let mut s = incremental(&t, 2);
        // One column committed, two still frozen: reads span merged and
        // unmerged columns.
        assert!(s.step().unwrap());
        assert_eq!(t.row(500), vec![5_000, 5_001, 5_002]);
        // Writes land in the second delta.
        t.insert_row(&[7, 8, 9]).unwrap();
        assert_eq!(t.row(1_000), vec![7, 8, 9]);
        // Two columns still hold the 1 000 rows in their frozen deltas.
        assert_eq!(t.main_len(), 0);
        assert_eq!(t.main_len() + t.delta_len(), t.row_count());
        let stats = s.finish().unwrap();
        assert_eq!(stats.columns.len(), 3);
        assert_eq!(t.main_len(), 1_000);
        assert_eq!(t.main_len() + t.delta_len(), t.row_count());
        assert_eq!(
            t.delta_len(),
            1,
            "the mid-session insert remains in the delta"
        );
        assert_eq!(t.row(1_000), vec![7, 8, 9]);
    }

    #[test]
    fn dropped_session_rolls_back_unmerged_columns() {
        let t = table_with_rows(3, 800);
        {
            let mut s = incremental(&t, 2);
            // Column 0 commits; dropped here without finish(), columns
            // 1..3 stay frozen.
            assert!(s.step().unwrap());
        }
        // Column 0 merged; the others kept their delta. Table fully readable.
        for r in (0..800).step_by(61) {
            assert_eq!(
                t.row(r),
                vec![r as u64 * 10, r as u64 * 10 + 1, r as u64 * 10 + 2]
            );
        }
        // The next session resumes the two frozen columns only.
        assert_eq!(incremental(&t, 2).remaining(), 2);
        t.merge(2).unwrap();
        assert_eq!(t.delta_len(), 0);
        for r in (0..800).step_by(61) {
            assert_eq!(
                t.row(r),
                vec![r as u64 * 10, r as u64 * 10 + 1, r as u64 * 10 + 2]
            );
        }
        let reference = table_with_rows(3, 800);
        reference.merge(2).unwrap();
        assert_bytes_identical(&t, &reference);
    }

    #[test]
    fn aborted_session_is_consistent_with_concurrent_inserts() {
        let t = table_with_rows(2, 500);
        let mut s = incremental(&t, 1);
        assert!(s.step().unwrap());
        t.insert_row(&[111, 222]).unwrap();
        drop(s);
        assert_eq!(t.row_count(), 501);
        assert_eq!(t.row(500), vec![111, 222]);
        for r in (0..500).step_by(43) {
            assert_eq!(t.row(r), vec![r as u64 * 10, r as u64 * 10 + 1]);
        }
        t.merge(2).unwrap();
        assert_eq!(t.main_len(), 501);
        let reference = table_with_rows(2, 500);
        reference.insert_row(&[111, 222]).unwrap();
        reference.merge(2).unwrap();
        assert_bytes_identical(&t, &reference);
    }

    #[test]
    fn session_holds_the_merge_gate() {
        let t = std::sync::Arc::new(table_with_rows(2, 300));
        let mut s = incremental(&t, 1);
        s.step().unwrap();
        // A full merge from another thread must wait for the session.
        let t2 = std::sync::Arc::clone(&t);
        let h = std::thread::spawn(move || t2.merge(1).map(|s| s.columns.len()));
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            !h.is_finished(),
            "merge must block while the session is alive"
        );
        s.finish().unwrap();
        assert_eq!(h.join().unwrap().unwrap(), 2);
    }

    #[test]
    fn delta_fraction_is_finite_on_empty_main() {
        let t = OnlineTable::<u64>::new(1);
        assert_eq!(t.delta_fraction(), 0.0, "empty table");
        let policy = MergePolicy {
            delta_fraction: 0.05,
            threads: 1,
            ..MergePolicy::default()
        };
        assert!(
            !policy.is_due(t.delta_fraction(), 0.0),
            "empty table never triggers"
        );
        t.insert_row(&[1]).unwrap();
        t.insert_row(&[2]).unwrap();
        let f = t.delta_fraction();
        assert!(f.is_finite(), "no inf for custom-policy arithmetic");
        assert_eq!(f, 2.0, "empty main reads as N_D / 1");
        assert!(
            policy.is_due(t.delta_fraction(), 0.0),
            "non-empty delta over empty main still triggers"
        );
        // Custom-policy arithmetic that inf would poison stays sane.
        assert!((f * 0.5).is_finite());
        t.merge(1).unwrap();
        assert_eq!(t.delta_fraction(), 0.0);
    }

    #[test]
    fn batched_insert_matches_row_at_a_time() {
        let a = OnlineTable::<u64>::new(2);
        let b = OnlineTable::<u64>::new(2);
        let rows: Vec<Vec<u64>> = (0..100u64).map(|i| vec![i, i * 3]).collect();
        let range = a.insert_rows(&rows).unwrap();
        assert_eq!(range, 0..100);
        for r in &rows {
            b.insert_row(r).unwrap();
        }
        assert_eq!(a.row_count(), b.row_count());
        for r in 0..100 {
            assert_eq!(a.row(r), b.row(r));
        }
        // Batches interleave with merges and single inserts coherently.
        a.merge(2).unwrap();
        let range = a.insert_rows(&rows[..7]).unwrap();
        assert_eq!(range, 100..107);
        assert_eq!(a.row(100), rows[0]);
        assert_eq!(a.valid_row_count(), 107);
    }

    #[test]
    fn snapshot_is_a_stable_point_in_time_view() {
        let t = table_with_rows(2, 300);
        t.merge(1).unwrap();
        for i in 0..50u64 {
            t.insert_row(&[9_000 + i, 9_100 + i]).unwrap();
        }
        let snap = t.snapshot();
        assert_eq!(snap.row_count(), 350);
        assert_eq!(snap.num_columns(), 2);
        // Later writes are invisible to the snapshot.
        t.insert_row(&[1, 2]).unwrap();
        t.delete_row(0).unwrap();
        assert_eq!(snap.row_count(), 350);
        assert!(snap.is_valid(0), "snapshot validity is frozen");
        assert_eq!(snap.row(7), vec![70, 71]);
        assert_eq!(snap.row(320), vec![9_020, 9_120]);
        assert_eq!(snap.col(0).main().len(), 300);
        assert_eq!(snap.col(0).active_len(), 50);
        assert!(snap.col(0).frozen().is_none());
        assert_eq!(snap.cols().len(), 2);
        assert_eq!(snap.cols()[1].get(320), 9_120);
        let tails = snap.col(1).tails();
        assert_eq!(tails.iter().map(|s| s.len()).sum::<usize>(), 50);
        assert_eq!(tails[0].get(0), 9_100);
    }

    #[test]
    fn snapshots_share_generation_without_copying() {
        // The satellite fix: snapshots of an unchanged table reuse the
        // published generation — same partition pointers, same epoch, no
        // active-delta copy.
        let t = table_with_rows(2, 1_000);
        t.merge(1).unwrap();
        t.insert_row(&[5, 6]).unwrap();
        let a = t.snapshot();
        let b = t.snapshot();
        assert_eq!(a.epoch(), b.epoch());
        for c in 0..2 {
            assert!(
                std::ptr::eq(a.col(c).main(), b.col(c).main()) || {
                    // Arc pointers, not reference identity:
                    Arc::ptr_eq(&a.cols[c].main, &b.cols[c].main)
                },
                "column {c}: snapshots must share the main partition"
            );
            assert!(Arc::ptr_eq(&a.cols[c].tail, &b.cols[c].tail));
        }
        // A merge publishes a new generation: the epoch moves on.
        t.merge(1).unwrap();
        let c = t.snapshot();
        assert!(c.epoch() > a.epoch());
        assert!(!Arc::ptr_eq(&a.cols[0].main, &c.cols[0].main));
    }

    #[test]
    fn snapshot_spans_frozen_delta_mid_merge() {
        // Take snapshots while a merge is in flight: rows must be readable
        // from all regions.
        let t = std::sync::Arc::new(table_with_rows(1, 4_000));
        t.merge(1).unwrap();
        for i in 0..400u64 {
            t.insert_row(&[50_000 + i]).unwrap();
        }
        let t2 = std::sync::Arc::clone(&t);
        let h = std::thread::spawn(move || t2.merge(1).unwrap());
        let snap = t.snapshot();
        assert_eq!(snap.row_count(), 4_400);
        for r in (0..4_000).step_by(611) {
            assert_eq!(snap.get_row0(r), r as u64 * 10);
        }
        assert_eq!(snap.get_row0(4_399), 50_399);
        h.join().unwrap();
    }

    impl TableSnapshot<u64> {
        /// Test helper: column-0 value of `row`.
        fn get_row0(&self, row: usize) -> u64 {
            self.col(0).get(row)
        }
    }

    #[test]
    fn reads_see_frozen_rows_mid_protocol() {
        // get() must read rows in all regions; simulate the mid-merge
        // layout by merging from another thread while reading.
        let t = std::sync::Arc::new(table_with_rows(1, 5_000));
        let t2 = std::sync::Arc::clone(&t);
        let h = std::thread::spawn(move || t2.merge(1).unwrap());
        for r in (0..5_000).step_by(97) {
            assert_eq!(t.get(0, r), r as u64 * 10);
        }
        h.join().unwrap();
        for r in (0..5_000).step_by(97) {
            assert_eq!(t.get(0, r), r as u64 * 10);
        }
    }
}
