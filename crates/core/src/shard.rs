//! Horizontal sharding: N [`OnlineTable`] shards behind one facade.
//!
//! The paper engineers a single table that absorbs writes while staying
//! read-optimized (Sections 3 and 9) and argues the merge should be granted
//! resources by a scheduler rather than take the machine (Section 6.2). At
//! production scale the natural next step is horizontal: partition rows
//! across independent tables so that (a) merges are per-shard and touch
//! `1/N`-th of the data, (b) writes to different shards never contend on a
//! table lock, and (c) scans fan out and stitch. Each shard keeps the exact
//! online-merge protocol of [`crate::manager`]; nothing about the paper's
//! merge changes — this layer only routes and coordinates.
//!
//! * [`ShardedTable`] — hash- or range-partitions rows by a key column;
//!   batched [`ShardedTable::insert_rows`], per-shard
//!   [`TableSnapshot`]s for lock-free scans (the fan-out operators live in
//!   `hyrise-query`).
//! * Background merging is a [`crate::scheduler::MergeScheduler`]
//!   adopting [`ShardedTable::shards`]: the write that makes a shard due
//!   queues that shard's merge.

use crate::error::{Error, Result};
use crate::manager::{OnlineTable, TableSnapshot};
use crate::pipeline::{MergeGrant, SpareBank};
use crate::stats::TableMergeStats;
use hyrise_storage::{MemoryReport, Value};
use parking_lot::Mutex;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A table's consistent-cut clock: a pair of monotonic write counters
/// (`started`, `finished`) that bracket every write operation on the
/// table, plus a `paused` flag for the fallback path. Each
/// [`ShardedTable`] owns one, so writes to one table never make another
/// table's cut retry or pause.
///
/// A multi-shard write batch is *torn* when a fan-out read observes some
/// of its per-shard groups but not others. Each shard's own batch publish
/// is atomic (the tail watermark), so tearing can only happen *across*
/// shards — and the clock makes it detectable: a cut taken while
/// `started == finished` and over which `started` does not move cannot
/// overlap any write operation, hence sees every batch fully or not at
/// all. See [`ShardedTable::consistent_snapshots`].
///
/// Writers never block readers on the happy path: `begin_write` is one
/// `fetch_add` plus one load. Only the (rare) paused fallback makes a
/// writer wait, and a writer that raced the pause *retracts* its start —
/// it has not touched any shard yet — so the drain always terminates.
#[derive(Default)]
struct CutClock {
    started: AtomicU64,
    finished: AtomicU64,
    paused: AtomicBool,
    /// Serializes the paused fallback in
    /// [`ShardedTable::consistent_snapshots`] so concurrent cutters cannot
    /// clear each other's pause.
    cutters: Mutex<()>,
}

impl CutClock {
    /// Enter a write operation; the returned guard marks it finished on
    /// drop. Increment-first, check-paused, retract-on-conflict: the
    /// increment is visible before the paused check in the `SeqCst` order,
    /// so a cutter that drained `started == finished` afterwards cannot
    /// have missed us.
    fn begin_write(&self) -> WriteTicket<'_> {
        loop {
            self.started.fetch_add(1, Ordering::SeqCst);
            if !self.paused.load(Ordering::SeqCst) {
                return WriteTicket { clock: self };
            }
            // A cut is draining writers: retract (we have not written
            // anything yet) and wait it out.
            self.finished.fetch_add(1, Ordering::SeqCst);
            while self.paused.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        }
    }
}

/// RAII marker of an in-flight sharded write operation.
struct WriteTicket<'a> {
    clock: &'a CutClock,
}

impl Drop for WriteTicket<'_> {
    fn drop(&mut self) {
        self.clock.finished.fetch_add(1, Ordering::SeqCst);
    }
}

/// Global address of a row in a [`ShardedTable`]: which shard, and the
/// tuple id within that shard. Tuple ids are shard-local (each shard's
/// merge keeps its own ids stable), so the pair is the stable global key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardRowId {
    /// Index of the shard holding the row.
    pub shard: usize,
    /// Tuple id within that shard.
    pub row: usize,
}

/// How rows are routed to shards (always on one key column's value).
#[derive(Clone, Debug)]
pub enum ShardBy<V> {
    /// Hash of the key value modulo the shard count — uniform spread, no
    /// ordering guarantees across shards.
    Hash,
    /// Range partitioning over `bounds` (sorted, ascending): shard `i`
    /// holds keys below `bounds[i]`; the last shard holds the rest. With
    /// `k` bounds there are `k + 1` shards. Range sharding keeps key
    /// locality, so range scans touch few shards.
    Range(Vec<V>),
}

/// N [`OnlineTable`] shards behind one facade: rows are routed by a key
/// column, reads fan out, and every shard merges independently.
pub struct ShardedTable<V: Value> {
    shards: Vec<Arc<OnlineTable<V>>>,
    by: ShardBy<V>,
    key_col: usize,
    clock: CutClock,
}

impl<V: Value> ShardedTable<V> {
    /// The unified construction surface: shard count or range bounds, key
    /// column, columns, durability — see
    /// [`crate::config::ShardedTableBuilder`].
    pub fn builder() -> crate::config::ShardedTableBuilder<V> {
        crate::config::ShardedTableBuilder::new()
    }

    /// Assemble a validated sharded table (builder/recovery back door).
    /// All shards already share one [`SpareBank`] when built by the
    /// builder, so a merge on any shard can reuse buffers retired by any
    /// other.
    pub(crate) fn from_parts(shards: Vec<OnlineTable<V>>, by: ShardBy<V>, key_col: usize) -> Self {
        Self {
            shards: shards.into_iter().map(Arc::new).collect(),
            by,
            key_col,
            clock: CutClock::default(),
        }
    }

    /// The spare-buffer bank shared by every shard.
    pub fn spare_bank(&self) -> &Arc<SpareBank<V>> {
        self.shards[0].spare_bank()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of columns (same for every shard).
    pub fn num_columns(&self) -> usize {
        self.shards[0].num_columns()
    }

    /// The routing key column.
    pub fn key_col(&self) -> usize {
        self.key_col
    }

    /// All shards (for fan-out drivers and schedulers).
    pub fn shards(&self) -> &[Arc<OnlineTable<V>>] {
        &self.shards
    }

    /// One shard.
    pub fn shard(&self, i: usize) -> &Arc<OnlineTable<V>> {
        &self.shards[i]
    }

    /// The shard a key value routes to.
    pub fn shard_of_key(&self, key: &V) -> usize {
        match &self.by {
            ShardBy::Hash => {
                // DefaultHasher with `new()` uses fixed keys, so routing is
                // deterministic across processes and runs.
                let mut h = std::collections::hash_map::DefaultHasher::new();
                key.hash(&mut h);
                (h.finish() % self.shards.len() as u64) as usize
            }
            ShardBy::Range(bounds) => bounds.partition_point(|b| key >= b),
        }
    }

    /// The shard a full row routes to (its key column's value).
    pub fn shard_of(&self, values: &[V]) -> usize {
        self.shard_of_key(&values[self.key_col])
    }

    /// The shard a row routes to, once it holds one value per column (an
    /// [`Error::Config`] otherwise).
    fn route(&self, values: &[V]) -> Result<usize> {
        self.shards[0].check_arity(std::slice::from_ref(&values))?;
        Ok(self.shard_of(values))
    }

    /// Insert one row, routed by its key; returns its global address
    /// (the log append of a durable table can fail, and a row of the
    /// wrong width is an [`Error::Config`]).
    pub fn insert_row(&self, values: &[V]) -> Result<ShardRowId> {
        let _write = self.clock.begin_write();
        let shard = self.route(values)?;
        let row = self.shards[shard].insert_row(values)?;
        Ok(ShardRowId { shard, row })
    }

    /// Batched insert: rows are grouped by target shard and each group is
    /// appended as one reservation + publish, so a large batch costs
    /// `O(shards)` watermark publishes instead of `O(rows)`. The whole
    /// operation runs under one `CutClock` ticket, so a
    /// [`Self::consistent_snapshots`] cut sees all of the batch's shard
    /// groups or none of them. Returns each row's global address, in
    /// input order.
    ///
    /// On a durable table the batch is one frame of the table log, logged
    /// before any group is visible: a crash recovers all of its groups or
    /// none. A row of the wrong width is an [`Error::Config`], and nothing
    /// of the batch is written.
    pub fn insert_rows<R: AsRef<[V]>>(&self, rows: &[R]) -> Result<Vec<ShardRowId>> {
        let _write = self.clock.begin_write();
        let route = rows
            .iter()
            .map(|r| self.route(r.as_ref()))
            .collect::<Result<Vec<usize>>>()?;
        let mut batches: Vec<Vec<&[V]>> = vec![Vec::new(); self.shards.len()];
        for (r, &shard) in rows.iter().zip(&route) {
            batches[shard].push(r.as_ref());
        }
        let targets = (0..batches.len()).filter(|&s| !batches[s].is_empty());
        let inserts: Vec<_> = targets
            .clone()
            .map(|s| (&*self.shards[s], batches[s].as_slice()))
            .collect();
        // Each shard's rows take consecutive ids from its group's start.
        let mut next = vec![0; batches.len()];
        for (s, start) in targets.zip(OnlineTable::write(&inserts, &[])?) {
            next[s] = start;
        }
        Ok(route
            .into_iter()
            .map(|shard| {
                let row = next[shard];
                next[shard] += 1;
                ShardRowId { shard, row }
            })
            .collect())
    }

    /// Read one cell.
    pub fn get(&self, id: ShardRowId, col: usize) -> V {
        self.shards[id.shard].get(col, id.row)
    }

    /// Read a whole row.
    pub fn row(&self, id: ShardRowId) -> Vec<V> {
        self.shards[id.shard].row(id.row)
    }

    /// Is the row visible?
    pub fn is_valid(&self, id: ShardRowId) -> bool {
        self.shards[id.shard].is_valid(id.row)
    }

    /// Insert-only update (Section 3): the new version is routed by its
    /// *new* key (it may land on a different shard than `old`) and
    /// inserted, then the old row is invalidated. Returns the new
    /// version's address. On a durable table both halves are one log
    /// frame, so a crash recovers exactly one valid version. An `old` that
    /// names no row, or a new version of the wrong width, is an
    /// [`Error::Config`], and nothing is written.
    pub fn update_row(&self, old: ShardRowId, values: &[V]) -> Result<ShardRowId> {
        // One ticket across both shards: a cut never sees the new version
        // without the old one's invalidation (or vice versa).
        let _write = self.clock.begin_write();
        let old_shard = self.holder(old)?;
        let shard = self.route(values)?;
        let row = OnlineTable::write(
            &[(&*self.shards[shard], std::slice::from_ref(&values))],
            &[(old_shard, old.row)],
        )?[0];
        Ok(ShardRowId { shard, row })
    }

    /// Invalidate a row: on a durable table the flip is logged before the
    /// in-memory bit drops.
    pub fn delete_row(&self, id: ShardRowId) -> Result<()> {
        self.delete_rows(std::slice::from_ref(&id))
    }

    /// Invalidate several rows, on any shards, as one write: one
    /// `CutClock` ticket and, on a durable table, one log frame, so a
    /// crash recovers all of the deletes or none. An id that names no row
    /// is an [`Error::Config`], and no row of the batch is deleted.
    pub fn delete_rows(&self, ids: &[ShardRowId]) -> Result<()> {
        let _write = self.clock.begin_write();
        let deletes = ids
            .iter()
            .map(|&id| Ok((self.holder(id)?, id.row)))
            .collect::<Result<Vec<_>>>()?;
        OnlineTable::write::<&[V]>(&[], &deletes).map(drop)
    }

    /// The shard holding `id`: an [`Error::Config`] when the shard does not
    /// exist or holds no row `id.row`.
    fn holder(&self, id: ShardRowId) -> Result<&OnlineTable<V>> {
        self.shards
            .get(id.shard)
            .filter(|s| id.row < s.row_count())
            .map(|s| &**s)
            .ok_or_else(|| Error::config(format!("row id {}/{} out of range", id.shard, id.row)))
    }

    /// Total rows across shards (valid + history).
    pub fn row_count(&self) -> usize {
        self.shards.iter().map(|s| s.row_count()).sum()
    }

    /// Visible rows across shards.
    pub fn valid_row_count(&self) -> usize {
        self.shards.iter().map(|s| s.valid_row_count()).sum()
    }

    /// Tuples awaiting a merge, across shards.
    pub fn delta_len(&self) -> usize {
        self.shards.iter().map(|s| s.delta_len()).sum()
    }

    /// Tuples in main partitions, across shards.
    pub fn main_len(&self) -> usize {
        self.shards.iter().map(|s| s.main_len()).sum()
    }

    /// Every shard's merge-trigger ratio (finite; see
    /// [`OnlineTable::delta_fraction`]).
    pub fn delta_fractions(&self) -> Vec<f64> {
        self.shards.iter().map(|s| s.delta_fraction()).collect()
    }

    /// The worst shard's trigger ratio — what a global back-pressure check
    /// should look at.
    pub fn max_delta_fraction(&self) -> f64 {
        self.delta_fractions().into_iter().fold(0.0, f64::max)
    }

    /// Byte-level memory accounting summed over every shard — the memory
    /// a scheduler adopting its shards weighs against its policy's soft
    /// limit.
    pub fn memory_report(&self) -> MemoryReport {
        self.shards
            .iter()
            .map(|s| s.memory_report())
            .fold(MemoryReport::default(), |a, b| a + b)
    }

    /// A per-shard snapshot set for lock-free fan-out scans. Each snapshot
    /// is internally consistent (per-shard snapshot isolation), but the
    /// snapshots are taken in sequence, so a write operation spanning
    /// shards may be half-visible across them. Use
    /// [`Self::consistent_snapshots`] when the fan-out result must not
    /// observe torn multi-shard batches.
    pub fn snapshots(&self) -> Vec<TableSnapshot<V>> {
        self.shards.iter().map(|s| s.snapshot()).collect()
    }

    /// A **globally consistent cut**: a per-shard snapshot set that no
    /// multi-shard write operation straddles — every batched insert (and
    /// cross-shard update) is fully visible or fully invisible. This is
    /// what the sharded query executor fans out over, so cross-shard
    /// `count()` / `sum()` aggregates never observe a torn batch.
    ///
    /// Optimistic first: read the `CutClock`, require no write in
    /// flight, snapshot every shard (each snapshot is one epoch pin — no
    /// lock), and verify no write *started* meanwhile; retry on conflict.
    /// Under sustained write pressure the fallback briefly pauses writers
    /// (they retract and wait before touching any shard), drains the
    /// in-flight ones, and cuts — bounded work, no reader/writer lock
    /// anywhere.
    pub fn consistent_snapshots(&self) -> Vec<TableSnapshot<V>> {
        const OPTIMISTIC_TRIES: usize = 8;
        let clock = &self.clock;
        for _ in 0..OPTIMISTIC_TRIES {
            let finished = clock.finished.load(Ordering::SeqCst);
            let started = clock.started.load(Ordering::SeqCst);
            if started != finished {
                // A write is mid-flight; snapshotting now could tear it.
                std::thread::yield_now();
                continue;
            }
            let snaps = self.snapshots();
            if clock.started.load(Ordering::SeqCst) == started {
                return snaps;
            }
        }
        // Contended: pause writers for the duration of one snapshot pass.
        // The lock only serializes concurrent *cutters* (so one cannot
        // clear another's pause); writers never take it.
        let _cut = clock.cutters.lock();
        clock.paused.store(true, Ordering::SeqCst);
        while clock.started.load(Ordering::SeqCst) != clock.finished.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let snaps = self.snapshots();
        clock.paused.store(false, Ordering::SeqCst);
        snaps
    }

    /// Cumulative rows inserted per shard (monotonic counters). The
    /// server's write valve sums and differences them over its sampling
    /// window for the table's insert rate.
    pub fn inserted_per_shard(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.inserted_rows()).collect()
    }

    /// Merge every shard that has delta tuples, one after the other (the
    /// quiesce path; the scheduler is the concurrent path). Returns the
    /// per-shard stats of the merges that ran.
    pub fn merge_all(&self, threads: usize) -> Result<Vec<TableMergeStats>> {
        self.merge_all_with(MergeGrant::with_threads(threads))
    }

    /// As [`Self::merge_all`] with an explicit [`MergeGrant`] — strategy
    /// and [`crate::pipeline::MergeBudget`] apply per shard, so a budget of
    /// `K` columns caps every shard merge's peak extra memory. The first
    /// shard merge to fail ends the sweep: earlier shards stay merged, and
    /// the failing shard keeps its uncommitted columns frozen for its next
    /// merge to resume.
    pub fn merge_all_with(&self, grant: MergeGrant) -> Result<Vec<TableMergeStats>> {
        self.shards
            .iter()
            .filter(|s| s.delta_len() > 0)
            .map(|s| s.merge_with(grant))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn row(i: u64, cols: usize) -> Vec<u64> {
        (0..cols as u64).map(|c| i * 10 + c).collect()
    }

    #[test]
    fn hash_routing_is_deterministic_and_covers_shards() {
        let t = ShardedTable::<u64>::builder()
            .shards(4)
            .columns(2)
            .build()
            .unwrap();
        let mut seen = [false; 4];
        for i in 0..1_000u64 {
            let a = t.shard_of(&row(i, 2));
            let b = t.shard_of(&row(i, 2));
            assert_eq!(a, b, "routing must be deterministic");
            seen[a] = true;
        }
        assert!(seen.iter().all(|&s| s), "1000 keys must hit all 4 shards");
    }

    #[test]
    fn range_routing_respects_bounds() {
        let t = ShardedTable::<u64>::builder()
            .partitioning(ShardBy::Range(vec![100, 200]))
            .columns(1)
            .build()
            .unwrap();
        assert_eq!(t.num_shards(), 3);
        assert_eq!(t.shard_of_key(&0), 0);
        assert_eq!(t.shard_of_key(&99), 0);
        assert_eq!(t.shard_of_key(&100), 1, "bounds are inclusive lower ends");
        assert_eq!(t.shard_of_key(&199), 1);
        assert_eq!(t.shard_of_key(&200), 2);
        assert_eq!(t.shard_of_key(&u64::MAX), 2);
    }

    #[test]
    fn unsorted_range_bounds_rejected_by_builder() {
        let r = ShardedTable::<u64>::builder()
            .partitioning(ShardBy::Range(vec![200, 100]))
            .columns(1)
            .build();
        assert!(matches!(r, Err(crate::Error::Config { .. })));
    }

    #[test]
    fn insert_read_roundtrip_across_shards() {
        let t = ShardedTable::<u64>::builder()
            .shards(3)
            .columns(2)
            .build()
            .unwrap();
        let ids: Vec<ShardRowId> = (0..300u64)
            .map(|i| t.insert_row(&row(i, 2)).unwrap())
            .collect();
        assert_eq!(t.row_count(), 300);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(t.row(*id), row(i as u64, 2), "row {i}");
            assert!(t.is_valid(*id));
        }
    }

    #[test]
    fn batched_insert_matches_single_inserts() {
        let a = ShardedTable::<u64>::builder()
            .shards(4)
            .columns(3)
            .build()
            .unwrap();
        let b = ShardedTable::<u64>::builder()
            .shards(4)
            .columns(3)
            .build()
            .unwrap();
        let rows: Vec<Vec<u64>> = (0..500u64).map(|i| row(i, 3)).collect();
        let batch_ids = a.insert_rows(&rows).unwrap();
        let single_ids: Vec<ShardRowId> = rows.iter().map(|r| b.insert_row(r).unwrap()).collect();
        assert_eq!(batch_ids, single_ids, "same routing, same local ids");
        for (r, id) in rows.iter().zip(&batch_ids) {
            assert_eq!(&a.row(*id), r);
        }
        assert_eq!(a.row_count(), 500);
        assert_eq!(a.valid_row_count(), 500);
    }

    #[test]
    fn update_may_move_rows_across_shards() {
        let t = ShardedTable::<u64>::builder()
            .partitioning(ShardBy::Range(vec![1_000]))
            .columns(2)
            .key_col(0)
            .build()
            .unwrap();
        let old = t.insert_row(&[5, 50]).unwrap();
        assert_eq!(old.shard, 0);
        let new = t.update_row(old, &[2_000, 50]).unwrap();
        assert_eq!(new.shard, 1, "new key routes to the other shard");
        assert!(!t.is_valid(old), "old version invalidated");
        assert!(t.is_valid(new));
        assert_eq!(t.valid_row_count(), 1);
        assert_eq!(t.row_count(), 2, "insert-only model keeps history");
    }

    #[test]
    fn merges_are_per_shard_and_preserve_reads() {
        let t = ShardedTable::<u64>::builder()
            .shards(4)
            .columns(2)
            .build()
            .unwrap();
        let rows: Vec<Vec<u64>> = (0..2_000u64).map(|i| row(i, 2)).collect();
        let ids = t.insert_rows(&rows).unwrap();
        assert_eq!(t.main_len(), 0);
        let stats = t.merge_all(2).unwrap();
        assert_eq!(stats.len(), 4, "every shard had delta tuples");
        assert_eq!(t.main_len(), 2_000);
        assert_eq!(t.delta_len(), 0);
        for (r, id) in rows.iter().zip(&ids).step_by(97) {
            assert_eq!(&t.row(*id), r, "ids stable across per-shard merges");
        }
    }

    #[test]
    fn delta_fractions_single_out_the_worst_shard() {
        let t = ShardedTable::<u64>::builder()
            .partitioning(ShardBy::Range(vec![10_000]))
            .columns(1)
            .build()
            .unwrap();
        // Shard 0: big main, small delta. Shard 1: small main, big delta.
        t.insert_rows(&(0..1_000u64).map(|i| vec![i]).collect::<Vec<_>>())
            .unwrap();
        t.merge_all(1).unwrap();
        t.insert_rows(&(0..10u64).map(|i| vec![i]).collect::<Vec<_>>())
            .unwrap();
        t.insert_rows(&(0..500u64).map(|i| vec![20_000 + i]).collect::<Vec<_>>())
            .unwrap();
        let f = t.delta_fractions();
        assert!(f[1] > f[0]);
        assert_eq!(t.max_delta_fraction(), f[1]);
    }

    #[test]
    fn snapshots_cover_every_shard_consistently() {
        let t = ShardedTable::<u64>::builder()
            .shards(3)
            .columns(2)
            .build()
            .unwrap();
        let ids = t
            .insert_rows(&(0..600u64).map(|i| row(i, 2)).collect::<Vec<_>>())
            .unwrap();
        t.delete_row(ids[5]).unwrap();
        let snaps = t.snapshots();
        assert_eq!(snaps.len(), 3);
        let total: usize = snaps.iter().map(|s| s.row_count()).sum();
        assert_eq!(total, 600);
        let valid: usize = snaps.iter().map(|s| s.validity().valid_count()).sum();
        assert_eq!(valid, 599);
        // Writes after the snapshot are invisible.
        t.insert_row(&row(9_999, 2)).unwrap();
        assert_eq!(snaps.iter().map(|s| s.row_count()).sum::<usize>(), 600);
        // Every inserted row is present in exactly its shard's snapshot.
        for (i, id) in ids.iter().enumerate().step_by(83) {
            assert_eq!(snaps[id.shard].row(id.row), row(i as u64, 2));
        }
    }

    #[test]
    fn consistent_cut_never_tears_a_batch() {
        // One writer inserts multi-shard batches of a fixed size; cutters
        // must always observe a multiple of the batch size.
        const BATCH: usize = 32;
        let t = Arc::new(
            ShardedTable::<u64>::builder()
                .shards(4)
                .columns(1)
                .build()
                .unwrap(),
        );
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            let (tw, stop_w) = (Arc::clone(&t), Arc::clone(&stop));
            s.spawn(move || {
                let mut next = 0u64;
                while !stop_w.load(Ordering::Relaxed) {
                    let rows: Vec<Vec<u64>> = (0..BATCH as u64).map(|k| vec![next + k]).collect();
                    tw.insert_rows(&rows).unwrap();
                    next += BATCH as u64;
                }
            });
            for _ in 0..3 {
                let (tr, stop_r) = (Arc::clone(&t), Arc::clone(&stop));
                s.spawn(move || {
                    while !stop_r.load(Ordering::Relaxed) {
                        let snaps = tr.consistent_snapshots();
                        let total: usize = snaps.iter().map(|s| s.row_count()).sum();
                        assert_eq!(total % BATCH, 0, "cut observed a torn batch: {total} rows");
                    }
                });
            }
            std::thread::sleep(Duration::from_millis(200));
            stop.store(true, Ordering::Relaxed);
        });
        assert!(t.row_count() > 0, "writer made progress");
    }

    #[test]
    fn a_write_on_one_table_never_holds_another_tables_cut() {
        let a = ShardedTable::<u64>::builder().shards(2).build().unwrap();
        let b = Arc::new(ShardedTable::<u64>::builder().shards(2).build().unwrap());
        b.insert_row(&[1]).unwrap();
        // A write on `a` that never finishes while `b` cuts.
        let ticket = a.clock.begin_write();
        let (tx, rx) = std::sync::mpsc::channel();
        let cutter = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || tx.send(b.consistent_snapshots().len()).unwrap())
        };
        let cut = rx.recv_timeout(Duration::from_secs(1));
        drop(ticket);
        cutter.join().unwrap();
        assert_eq!(cut, Ok(2), "b's cut waited on a's write");
    }
}
