//! Write-triggered background merging (Section 3's strategy (b)).
//!
//! "We see two scheduling strategies: a) merging with all available
//! resources and b) minimizing resource utilization by constantly merging in
//! the background. ... A scheduling algorithm could constantly analyze the
//! available bandwidth and thus adjust the degree of parallelization for the
//! merge process." (Sections 3, 9)
//!
//! A [`MergeScheduler`] adopts N [`OnlineTable`]s — one table
//! (`vec![table]`), or a [`crate::shard::ShardedTable`]'s shards
//! (`table.shards().to_vec()`) — and applies one [`MergePolicy`] to them:
//! from then on the writes decide when each one merges. No thread polls:
//! the insert that moves a table past its trigger
//! ([`MergePolicy::is_due`] at the write rate since the table's last
//! merge) marks it *due* and puts it, once, on one process-wide queue.
//! Two merge threads, parked while the queue is empty, each take the
//! oldest due table: sample the adopter's memory, take the grant
//! [`MergePolicy::grant_at`] states for it, merge, and re-check the table,
//! which goes straight back on the queue if the writes that arrived during
//! its merge made it due again. Nothing waits for a batch, so a long merge
//! holds one thread and the other goes on draining. The write rate is the
//! adopter's insert rate since that table's last merge. A write that
//! leaves the delta at or below [`MergePolicy::due_floor`] skips all of
//! this. Every grant lands in a bounded ring
//! ([`SchedulerStats::grants`]), so a scheduler shows why each merge ran
//! the way it did.
//!
//! At most two merges therefore run at once across the process, each at
//! its grant's width on the shared [`crate::pool::Pool`]. Pausing is a flag
//! checked at enqueue and at dequeue; resuming (like adopting) re-checks
//! every table, so a delta that crossed its trigger meanwhile is not left
//! waiting for the next write. The merge threads are the engine's only
//! threads outside the pool: they park between merges, and a parked task
//! would hold a pool worker.

use crate::manager::{MergePolicy, OnlineTable};
use crate::pipeline::MergeStrategy;
use crate::stats::TableMergeStats;
use hyrise_storage::Value;
use parking_lot::{Mutex, RwLock};
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Once, Weak};
use std::time::Instant;

/// One source's cumulative merge accounting, with the per-stage breakdown
/// ([`crate::stats::ColumnMergeStats`] summed over columns and merges) that
/// the figure binaries need to reproduce the paper's stage-level plots
/// (Figures 7/8 stack Step 1 and Step 2 per configuration).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SourceMergeStats {
    /// Merges completed on this source.
    pub merges: u64,
    /// Tuples moved from delta to main (per-column sum).
    pub tuples_merged: u64,
    /// Microseconds of wall time inside merges.
    pub merge_micros: u64,
    /// Microseconds in Stage 1a (delta dictionary + re-coding).
    pub step1a_micros: u64,
    /// Microseconds in Stage 1b (dictionary union + aux tables).
    pub step1b_micros: u64,
    /// Microseconds in Stage 2 (re-encode).
    pub step2_micros: u64,
}

impl SourceMergeStats {
    fn record(&mut self, stats: &TableMergeStats) {
        let stages = stats.stage_timings();
        self.merges += 1;
        self.tuples_merged += stats.columns.iter().map(|c| c.n_d as u64).sum::<u64>();
        self.merge_micros += stats.t_wall.as_micros() as u64;
        self.step1a_micros += stages.step1a.as_micros() as u64;
        self.step1b_micros += stages.step1b.as_micros() as u64;
        self.step2_micros += stages.step2.as_micros() as u64;
    }
}

/// Cumulative scheduler statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SchedulerStats {
    /// Merges completed across all sources.
    pub merges: u64,
    /// Merges that returned an error (a failed WAL rotation or column
    /// write, say). Their uncommitted columns stay frozen, and the table's
    /// next merge resumes them.
    pub failed_merges: u64,
    /// Tuples moved from delta partitions into main partitions, across all
    /// sources and columns.
    pub tuples_merged: u64,
    /// Total microseconds spent inside merges.
    pub merge_micros: u64,
    /// The same totals per source, with the per-stage timing breakdown.
    pub per_source: Vec<SourceMergeStats>,
    /// Bounded trace of the recent grants (strategy, threads, budget K,
    /// memory pressure), oldest first — one entry per merge a merge thread
    /// started, the last 64 kept.
    pub grants: Vec<GrantRecord>,
}

/// One merge's grant — what [`SchedulerStats::grants`] holds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GrantRecord {
    /// Granted strategy.
    pub strategy: MergeStrategy,
    /// Granted threads.
    pub threads: usize,
    /// Granted budget in columns (`usize::MAX` = unbounded).
    pub budget_columns: usize,
    /// Whether memory pressure shrank the budget
    /// ([`MergePolicy::grant_at`]).
    pub pressured: bool,
    /// The merged table's delta fraction at grant time.
    pub delta_fraction: f64,
}

impl std::fmt::Display for GrantRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/t{}/K", self.strategy, self.threads)?;
        if self.budget_columns == usize::MAX {
            write!(f, "∞")?;
        } else {
            write!(f, "{}", self.budget_columns)?;
        }
        let row = if self.pressured {
            "mem-pressure"
        } else {
            "baseline"
        };
        write!(f, " {row} f={:.3}", self.delta_fraction)
    }
}

/// Grants kept in a scheduler's trace ring.
pub(crate) const GRANT_TRACE: usize = 64;

/// The ring of a scheduler's last [`GRANT_TRACE`] grants, oldest first.
#[derive(Default)]
pub(crate) struct GrantTrace(Mutex<VecDeque<GrantRecord>>);

impl GrantTrace {
    /// Record one grant, dropping the oldest when full.
    pub(crate) fn record(&self, grant: GrantRecord) {
        let mut ring = self.0.lock();
        if ring.len() == GRANT_TRACE {
            ring.pop_front();
        }
        ring.push_back(grant);
    }

    /// The recorded grants, oldest first.
    pub(crate) fn recent(&self) -> Vec<GrantRecord> {
        self.0.lock().iter().copied().collect()
    }
}

/// The process-wide queue of due tables. An entry holds its scheduler
/// weakly, so a queued table never outlives its dropped scheduler.
type Due = Box<dyn FnOnce() + Send>;

static QUEUE: std::sync::Mutex<VecDeque<Due>> = std::sync::Mutex::new(VecDeque::new());
static READY: Condvar = Condvar::new();

/// Merge threads, hence merges in flight at once: two merges at the
/// served half-pool width fill the pool, and a 2-shard table's shards
/// merge side by side.
const MERGE_SLOTS: usize = 2;

/// Queue one due table, starting the merge threads on first use.
fn enqueue(due: Due) {
    static MERGE_THREADS: Once = Once::new();
    MERGE_THREADS.call_once(|| {
        for k in 0..MERGE_SLOTS {
            std::thread::Builder::new()
                .name(format!("hyrise-merge-{k}"))
                .spawn(merge_forever)
                .expect("spawn a merge thread");
        }
    });
    QUEUE
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push_back(due);
    READY.notify_one();
}

/// A merge thread: take the oldest due table and merge it, one at a time.
/// A slow merge holds its own thread only; the other goes on draining. A
/// panicking merge leaves its table due (it merges no more) but not the
/// thread, which goes on serving every other table.
fn merge_forever() {
    loop {
        let due = {
            let queue = QUEUE.lock().unwrap_or_else(|e| e.into_inner());
            READY
                .wait_while(queue, |q| q.is_empty())
                .unwrap_or_else(|e| e.into_inner())
                .pop_front()
                .expect("woken on a non-empty queue")
        };
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(due));
    }
}

/// One adopted table and what its scheduler tracks for it.
struct Source<V: Value> {
    table: Arc<OnlineTable<V>>,
    /// Queued or merging: set by the write that makes the table due,
    /// cleared by the merge thread when its merge ends.
    due: AtomicBool,
    /// Start of the write-rate window: the instant of this table's last
    /// merge (of its adoption, at first) and the adopter's inserted-row
    /// count then.
    since: Mutex<(Instant, u64)>,
    stats: Mutex<SourceMergeStats>,
}

/// What the handle, the adopted tables and the queued entries share.
struct Shared<V: Value> {
    sources: Vec<Source<V>>,
    policy: MergePolicy,
    grants: GrantTrace,
    /// Merges that returned an error.
    failed: AtomicU64,
    paused: AtomicBool,
    /// Set by shutdown under the write guard. Every merge runs under the
    /// read guard, so shutdown waits out a merge in flight and no merge
    /// starts after it.
    stopped: Arc<RwLock<bool>>,
}

impl<V: Value> Shared<V> {
    /// Rows ever inserted across the adopted tables.
    fn inserted_rows(&self) -> u64 {
        self.sources.iter().map(|s| s.table.inserted_rows()).sum()
    }

    /// Insert rows per second across the adopted tables since `s`'s last
    /// merge.
    fn write_rate(&self, s: &Source<V>) -> f64 {
        let (at, inserted) = *s.since.lock();
        let rows = self.inserted_rows().saturating_sub(inserted);
        rows as f64 / at.elapsed().as_secs_f64().max(1e-3)
    }

    /// Enqueue source `i` if it is past its trigger and not already due.
    fn check(self: &Arc<Self>, i: usize) {
        // Pairs with the write's publish before it calls us, and with the
        // merge thread's (or `resume`'s) flag store before it does: of a
        // store then a load on each side, one side sees the other's store,
        // so no write is left behind a flag cleared at the same moment.
        fence(Ordering::SeqCst);
        let s = &self.sources[i];
        if s.due.load(Ordering::Relaxed)
            || self.paused.load(Ordering::Relaxed)
            || !self
                .policy
                .is_due(s.table.delta_fraction(), self.write_rate(s))
        {
            return;
        }
        if !s.due.swap(true, Ordering::Relaxed) {
            let sched = Arc::downgrade(self);
            let stopped = Arc::clone(&self.stopped);
            enqueue(Box::new(move || {
                let stopped = stopped.read();
                if !*stopped {
                    // Dropped before the guard: shutdown waits for it.
                    if let Some(sched) = sched.upgrade() {
                        sched.merge(i);
                    }
                }
            }));
        }
    }

    /// Merge thread, under the `stopped` read guard: merge due source `i`
    /// under the grant the policy states for the adopter's memory now,
    /// then re-check it. A paused or failed source leaves the queue
    /// without a re-check: `resume`, or the next write, tries again — a
    /// failed merge is counted, and the retry resumes its frozen columns.
    fn merge(self: &Arc<Self>, i: usize) {
        let s = &self.sources[i];
        let merged = !self.paused.load(Ordering::Relaxed) && {
            let memory = self
                .sources
                .iter()
                .map(|s| s.table.memory_report().total())
                .sum();
            let (grant, pressured) = self.policy.grant_at(memory);
            self.grants.record(GrantRecord {
                strategy: grant.strategy,
                threads: grant.threads,
                budget_columns: grant.budget.max_columns(),
                pressured,
                delta_fraction: s.table.delta_fraction(),
            });
            match s.table.merge_with(grant) {
                Ok(stats) => {
                    s.stats.lock().record(&stats);
                    *s.since.lock() = (Instant::now(), self.inserted_rows());
                    true
                }
                Err(_) => {
                    self.failed.fetch_add(1, Ordering::Relaxed);
                    false
                }
            }
        };
        s.due.store(false, Ordering::Relaxed);
        if merged {
            self.check(i);
        }
    }
}

/// A table's link back to the scheduler that adopted it, if any.
pub(crate) struct AdoptionSlot<V: Value> {
    /// The adopter's [`MergePolicy::due_floor`] as `f64` bits, +∞
    /// while no scheduler adopts the table: a write that leaves the delta
    /// fraction at or below it cannot make the table due, so it skips the
    /// adopter.
    floor: AtomicU64,
    /// The adopter and the table's index in it. Weak: the scheduler owns
    /// its tables, not the other way round.
    adopter: RwLock<Option<(Weak<Shared<V>>, usize)>>,
}

impl<V: Value> Default for AdoptionSlot<V> {
    fn default() -> Self {
        Self {
            floor: AtomicU64::new(f64::INFINITY.to_bits()),
            adopter: RwLock::new(None),
        }
    }
}

impl<V: Value> AdoptionSlot<V> {
    /// The table published a write that saw its delta fraction at
    /// `fraction`: enqueue the table if that made it due.
    pub(crate) fn written(&self, fraction: f64) {
        if fraction <= f64::from_bits(self.floor.load(Ordering::Relaxed)) {
            return;
        }
        if let Some((sched, i)) = &*self.adopter.read() {
            if let Some(sched) = sched.upgrade() {
                sched.check(*i);
            }
        }
    }

    /// Adopt the table as `sched`'s source `index`.
    ///
    /// # Panics
    ///
    /// If a live scheduler adopted the table already.
    fn adopt(&self, sched: &Arc<Shared<V>>, index: usize) {
        let mut adopter = self.adopter.write();
        assert!(
            adopter.as_ref().is_none_or(|(a, _)| a.strong_count() == 0),
            "a table is adopted by one scheduler at a time"
        );
        *adopter = Some((Arc::downgrade(sched), index));
        self.floor
            .store(sched.policy.due_floor().to_bits(), Ordering::Relaxed);
    }

    /// Release the table if `sched` adopted it, after any write checking
    /// it against `sched`.
    fn release(&self, sched: &Weak<Shared<V>>) {
        let mut adopter = self.adopter.write();
        if adopter.as_ref().is_some_and(|(a, _)| a.ptr_eq(sched)) {
            self.floor.store(f64::INFINITY.to_bits(), Ordering::Relaxed);
            *adopter = None;
        }
    }
}

/// Handle to the background merging of N tables: the realization of the
/// paper's "scheduling algorithm \[that\] could constantly analyze the
/// available bandwidth and thus adjust the degree of parallelization"
/// (Section 9). Pause/resume apply to all tables; dropping the handle
/// releases them, after any merge of theirs in flight.
pub struct MergeScheduler<V: Value> {
    shared: Arc<Shared<V>>,
}

impl<V: Value> MergeScheduler<V> {
    /// Adopt `tables` under `policy`: its trigger, made more eager under
    /// write pressure, decides when each merges, and its grant, with the
    /// budget shrunk above its memory soft limit, how. A table already
    /// past its trigger is queued at once.
    ///
    /// # Panics
    ///
    /// If a live scheduler adopted one of the tables already: every write
    /// reports to one adopter.
    pub fn spawn(tables: Vec<Arc<OnlineTable<V>>>, policy: MergePolicy) -> Self {
        let shared = Arc::new(Shared {
            sources: tables
                .into_iter()
                .map(|table| Source {
                    table,
                    due: AtomicBool::new(false),
                    since: Mutex::new((Instant::now(), 0)),
                    stats: Mutex::new(SourceMergeStats::default()),
                })
                .collect(),
            policy,
            grants: GrantTrace::default(),
            failed: AtomicU64::new(0),
            paused: AtomicBool::new(false),
            stopped: Arc::new(RwLock::new(false)),
        });
        let inserted = shared.inserted_rows();
        for (index, s) in shared.sources.iter().enumerate() {
            s.since.lock().1 = inserted;
            s.table.adoption().adopt(&shared, index);
        }
        let sched = Self { shared };
        sched.check_all();
        sched
    }

    fn check_all(&self) {
        for i in 0..self.shared.sources.len() {
            self.shared.check(i);
        }
    }

    /// Pause scheduling: no table starts a new merge until
    /// [`Self::resume`]. A merge in flight completes (the paper's pause
    /// hook applies between merges; mid-merge pausing is a stepped
    /// [`crate::manager::MergeSession`]'s job).
    pub fn pause(&self) {
        self.shared.paused.store(true, Ordering::Relaxed);
    }

    /// Resume scheduling after [`Self::pause`], queueing every table the
    /// writes meanwhile made due.
    pub fn resume(&self) {
        self.shared.paused.store(false, Ordering::Relaxed);
        self.check_all();
    }

    /// Is the scheduler currently paused?
    pub fn is_paused(&self) -> bool {
        self.shared.paused.load(Ordering::Relaxed)
    }

    /// Snapshot of cumulative statistics (including the recent grant
    /// trace).
    pub fn stats(&self) -> SchedulerStats {
        let per_source: Vec<SourceMergeStats> = self
            .shared
            .sources
            .iter()
            .map(|s| *s.stats.lock())
            .collect();
        SchedulerStats {
            merges: per_source.iter().map(|s| s.merges).sum(),
            failed_merges: self.shared.failed.load(Ordering::Relaxed),
            tuples_merged: per_source.iter().map(|s| s.tuples_merged).sum(),
            merge_micros: per_source.iter().map(|s| s.merge_micros).sum(),
            per_source,
            grants: self.shared.grants.recent(),
        }
    }

    /// Release the tables and wait for a merge of theirs in flight to end.
    /// Called automatically on drop; explicit calls let tests assert on
    /// the final state.
    pub fn shutdown(&self) {
        let me = Arc::downgrade(&self.shared);
        for s in &self.shared.sources {
            s.table.adoption().release(&me);
        }
        *self.shared.stopped.write() = true;
    }
}

impl<V: Value> Drop for MergeScheduler<V> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{MergeBudget, MergeGrant};
    use crate::shard::ShardedTable;
    use std::time::Duration;

    /// The suite runs every behaviour on both shapes the one scheduler
    /// serves: K = 1 (a single `OnlineTable` source) and K = 4 shards. A
    /// one-shard table routes every row to its only `OnlineTable`, so the
    /// same fixture covers both.
    const SHAPES: [usize; 2] = [1, 4];

    fn fixture(shards: usize) -> Arc<ShardedTable<u64>> {
        let t = ShardedTable::<u64>::builder()
            .shards(shards)
            .columns(2)
            .build()
            .unwrap();
        Arc::new(t)
    }

    fn insert_rows(t: &ShardedTable<u64>, n: u64, tag: u64) {
        let rows: Vec<[u64; 2]> = (0..n).map(|i| [tag + i, tag + i + 1]).collect();
        t.insert_rows(&rows).unwrap();
    }

    fn policy(delta_fraction: f64, threads: usize) -> MergePolicy {
        MergePolicy {
            delta_fraction,
            threads,
            ..MergePolicy::default()
        }
    }

    /// Poll `done` until it holds or `secs` elapse.
    fn wait_for(secs: u64, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(secs);
        while !done() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn scheduler_merges_when_triggered() {
        for shards in SHAPES {
            let t = fixture(shards);
            insert_rows(&t, 10_000, 0);
            t.merge_all(2).unwrap();
            let sched = MergeScheduler::spawn(t.shards().to_vec(), policy(0.01, 2));
            // Push every shard past the trigger: the write queues it.
            insert_rows(&t, 500, 1_000_000);
            wait_for(5, || t.delta_len() == 0);
            sched.shutdown();
            let stats = sched.stats();
            assert!(
                stats.merges >= 1,
                "the write must have started a merge ({shards} shards)"
            );
            assert!(
                stats.tuples_merged >= 500 * 2,
                "both columns' delta tuples counted"
            );
            assert_eq!(t.delta_len(), 0);
            assert_eq!(t.row_count(), 10_500);
        }
    }

    #[test]
    fn quiet_tables_wait_for_the_write_that_makes_them_due() {
        let t = fixture(1);
        insert_rows(&t, 10_000, 0);
        t.merge_all(1).unwrap();
        let sched = MergeScheduler::spawn(t.shards().to_vec(), policy(0.05, 1));
        // 1 % of main, written slowly enough that the write rate leaves
        // the trigger at 5 %: nothing is due, so nothing merges.
        for k in 0..100 {
            insert_rows(&t, 1, 1_000_000 + k);
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(sched.stats().merges, 0, "no write made the table due");
        // One batch past the trigger: that write starts the merge.
        insert_rows(&t, 1_000, 2_000_000);
        wait_for(5, || sched.stats().merges > 0);
        sched.shutdown();
        assert_eq!(sched.stats().merges, 1);
        assert_eq!(t.delta_len(), 0);
    }

    #[test]
    fn one_merge_slot_still_drains_every_source() {
        let t = fixture(4);
        insert_rows(&t, 2_000, 0);
        // Every shard is due on adoption; two merge threads drain all
        // four.
        let sched = MergeScheduler::spawn(t.shards().to_vec(), policy(0.001, 1));
        wait_for(5, || t.delta_len() == 0);
        sched.shutdown();
        assert_eq!(t.delta_len(), 0, "the merge threads reach every shard");
        assert!(sched.stats().per_source.iter().all(|s| s.merges > 0));
    }

    #[test]
    fn a_blocked_merge_stalls_only_its_own_table() {
        let table = |n: u64| {
            let t = Arc::new(OnlineTable::<u64>::new(2));
            for i in 0..n {
                t.insert_row(&[i, i + 1]).unwrap();
            }
            t
        };
        // A stepped session holds `slow`'s merge gate, so the merge
        // its scheduler queues blocks a merge thread until it finishes.
        let slow = table(300);
        let grant = MergeGrant::with_threads(1).budget(MergeBudget::columns(1));
        let mut session = slow.begin_merge(grant).unwrap();
        session.step().unwrap();
        let slow_sched = MergeScheduler::spawn(vec![Arc::clone(&slow)], policy(0.01, 1));
        let other = table(300);
        let other_sched = MergeScheduler::spawn(vec![Arc::clone(&other)], policy(0.01, 1));
        wait_for(5, || other_sched.stats().merges == 1);
        // Queued after the blocked merge: a batch barrier would hold it.
        let rows: Vec<[u64; 2]> = (1_000..1_300).map(|i| [i, i + 1]).collect();
        other.insert_rows(&rows).unwrap();
        wait_for(5, || other_sched.stats().merges == 2);
        assert_eq!(other.delta_len(), 0, "the other merge thread serves it");
        assert_eq!(other_sched.stats().merges, 2);
        assert_eq!(slow_sched.stats().merges, 0, "still behind the session");
        session.finish().unwrap();
        slow_sched.shutdown();
        other_sched.shutdown();
    }

    #[test]
    fn pause_and_resume_apply_to_every_source() {
        for shards in SHAPES {
            let t = fixture(shards);
            insert_rows(&t, 1_000, 0); // fraction N_D/1: always triggered
            let sched = MergeScheduler::spawn(t.shards().to_vec(), policy(0.01, 1));
            sched.pause();
            assert!(sched.is_paused());
            // Give the merge thread time it would have used to merge.
            std::thread::sleep(Duration::from_millis(100));
            let before = sched.stats().merges;
            assert!(
                before <= shards as u64,
                "only merges started before the pause may finish, ran {before}"
            );
            // Refill every shard while paused: no write queues it, and if
            // the merge thread won the race and merged everything before
            // the pause landed, resume would otherwise have nothing to do.
            insert_rows(&t, 1_000, 2_000_000);
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(sched.stats().merges, before, "paused writes queue nothing");
            sched.resume();
            wait_for(5, || sched.stats().merges > before);
            sched.shutdown();
            assert!(
                sched.stats().merges > before,
                "resume must re-enable merging"
            );
        }
    }

    #[test]
    fn drop_stops_the_daemon() {
        let table = Arc::new(OnlineTable::<u64>::new(2));
        table.insert_row(&[1, 2]).unwrap();
        let weak = Arc::downgrade(&table);
        {
            let sched = MergeScheduler::spawn(vec![Arc::clone(&table)], MergePolicy::default());
            let _ = sched.stats();
        }
        // Scheduler dropped: its table Arc released; ours remains.
        assert!(weak.upgrade().is_some());
        assert!(
            table.adoption().adopter.read().is_none(),
            "the table is released"
        );
        table.insert_row(&[3, 4]).unwrap(); // reports to no one
        drop(table);
        assert!(
            weak.upgrade().is_none(),
            "neither the merge thread nor the queue holds the table"
        );
    }

    #[test]
    fn sustained_writes_keep_every_source_bounded() {
        for shards in SHAPES {
            let t = fixture(shards);
            insert_rows(&t, 8_000, 0);
            t.merge_all(2).unwrap();
            let policy = policy(0.02, 1);
            let sched = MergeScheduler::spawn(t.shards().to_vec(), policy);
            // Write through the facade from two threads.
            std::thread::scope(|s| {
                for w in 0..2u64 {
                    let t = &t;
                    s.spawn(move || {
                        for i in 0..10_000u64 {
                            let k = 1_000_000 * (w + 1) + i;
                            t.insert_row(&[k, k + 1]).unwrap();
                        }
                    });
                }
            });
            // Let the merge thread drain the tail.
            wait_for(10, || t.max_delta_fraction() <= policy.delta_fraction);
            sched.shutdown();
            let stats = sched.stats();
            assert_eq!(
                t.row_count(),
                28_000,
                "no rows lost under background merging"
            );
            assert!(
                stats.merges > shards as u64,
                "sustained writes force repeated merges"
            );
            assert_eq!(stats.per_source.len(), shards);
            assert_eq!(
                stats.per_source.iter().map(|s| s.merges).sum::<u64>(),
                stats.merges
            );
            assert!(
                stats.per_source.iter().all(|s| s.merges > 0),
                "hash routing loads every shard, so every shard must merge: {:?}",
                stats.per_source
            );
            assert!(
                t.max_delta_fraction() <= policy.delta_fraction,
                "every source's delta bounded after drain"
            );
        }
    }

    #[test]
    fn many_tiny_merges_add_up_to_nonzero_merge_time() {
        // Each merge moves a handful of rows and takes far less than a
        // millisecond; whole-millisecond accounting summed these to zero.
        for shards in SHAPES {
            let t = fixture(shards);
            let sched = MergeScheduler::spawn(t.shards().to_vec(), policy(0.0, 1));
            for round in 0..20u64 {
                insert_rows(&t, 8, round * 8);
                wait_for(5, || t.delta_len() == 0);
            }
            sched.shutdown();
            let stats = sched.stats();
            assert!(stats.merges >= 20, "one merge per round at least");
            assert!(stats.merge_micros > 0, "sub-millisecond merges must count");
            assert_eq!(
                stats.merge_micros,
                stats.per_source.iter().map(|s| s.merge_micros).sum::<u64>()
            );
            assert_eq!(stats.tuples_merged, 20 * 8 * 2);
        }
    }

    #[test]
    fn governed_scheduler_records_grants_and_shrinks_budget_under_pressure() {
        let table = Arc::new(OnlineTable::<u64>::new(2));
        for i in 0..4_000 {
            table.insert_row(&[i, i + 1]).unwrap();
        }
        // A soft limit of one byte: every merge is memory-pressured, so
        // every grant must carry the shrunk pressure budget.
        let policy = MergePolicy {
            memory_soft_limit: 1,
            ..policy(0.01, 2)
        };
        let sched = MergeScheduler::spawn(vec![Arc::clone(&table)], policy);
        wait_for(5, || sched.stats().merges > 0);
        sched.shutdown();
        let stats = sched.stats();
        assert!(stats.merges >= 1, "a pressured scheduler must merge");
        assert!(!stats.grants.is_empty(), "grants are traced");
        let g = stats.grants.last().unwrap();
        assert!(g.pressured, "{g}");
        assert_eq!(
            g.budget_columns,
            MergePolicy::PRESSURE_BUDGET.max_columns(),
            "memory pressure shrinks the merge budget"
        );
        assert_eq!(table.delta_len(), 0, "pressure never blocks draining");
    }
}
