//! The background merge scheduler (Section 3's strategy (b)).
//!
//! "We see two scheduling strategies: a) merging with all available
//! resources and b) minimizing resource utilization by constantly merging in
//! the background. ... A scheduling algorithm could constantly analyze the
//! available bandwidth and thus adjust the degree of parallelization for the
//! merge process." (Sections 3, 9)
//!
//! [`MergeScheduler`] owns a daemon thread that polls N [`MergeSource`]s
//! through a [`ResourceGovernor`] — the piece that turns the merge
//! primitive into the hands-off system the paper describes. Every poll
//! round the governor samples write and memory pressure, selects the
//! sources whose `delta fraction × pressure` passes the trigger (worst
//! fraction first), and emits the round's [`MergeGrant`] (see
//! [`crate::governor`] for the decision table) for at most
//! `max_concurrent` of them; the daemon runs those merges as one
//! [`Pool::run_indexed`] fan-out on the shared pool.
//! [`MergeScheduler::spawn`] with a plain [`MergePolicy`] wraps the policy
//! in a default governor, so every round without memory pressure runs the
//! policy's grant. The scheduler supports pausing (it starts nothing new while
//! paused) and reports cumulative statistics including the bounded trace of
//! recent grant decisions.
//!
//! One scheduler serves every shape: a single [`OnlineTable`] is the
//! one-source case (`vec![table]`, `max_concurrent = 1`), a
//! [`crate::shard::ShardedTable`] hands over its shards
//! (`table.shards().to_vec()`).
//!
//! The daemon is the engine's one thread outside the [`Pool`]: it sleeps
//! between rounds, and a sleeping task would park a pool worker. While a
//! round runs it is a claimant like any other `run_indexed` caller — it
//! merges one selected source itself and pool workers claim the rest.

use crate::governor::{GovernorConfig, GrantRecord, LoadView, ResourceGovernor};
use crate::manager::{MergePolicy, OnlineTable};
use crate::pipeline::MergeGrant;
use crate::pool::Pool;
use crate::stats::StageTimings;
use hyrise_storage::{MemoryReport, Value};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What one completed background merge moved and cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Tuples moved from delta partitions into main partitions (per-column
    /// sum).
    pub tuples_moved: u64,
    /// Delta **rows** drained by the merge (`tuples_moved / N_C` — every
    /// column drains the same rows). This is the unit the governor's
    /// write-pressure window corrects with: delta lengths are row counts,
    /// so crediting the per-column sum back would overstate the insert
    /// rate by the column count.
    pub rows_moved: u64,
    /// Wall time of the merge.
    pub wall: Duration,
    /// Per-stage breakdown (summed over columns) — what the paper's
    /// Figure 7/8 stage-level plots are built from.
    pub stages: StageTimings,
}

/// Something a background scheduler can merge: reports its merge-trigger
/// ratio (plus the governor's write/memory samples) and runs one merge on
/// demand. Implemented by [`OnlineTable`]; the resource-granting
/// [`MergeScheduler`] needs nothing more from its tables. *When* to merge is not the source's call — the
/// [`ResourceGovernor`] decides eligibility each round from
/// `delta_fraction × pressure` against the policy trigger.
pub trait MergeSource: Send + Sync + 'static {
    /// The merge-trigger ratio `N_D / max(N_M, 1)` (always finite; see
    /// [`OnlineTable::delta_fraction`]).
    fn delta_fraction(&self) -> f64;

    /// Tuples currently awaiting a merge — the governor's write-pressure
    /// sample (delta growth between polls). The default suits sources
    /// that cannot count; real tables should override.
    fn delta_tuples(&self) -> usize {
        0
    }

    /// Byte-level accounting for the governor's memory-pressure signal.
    /// The default (all zeros) never triggers memory pressure; real
    /// tables should override.
    fn memory_report(&self) -> MemoryReport {
        MemoryReport::default()
    }

    /// Run one merge under `grant` (threads, strategy, memory budget).
    /// Returns `None` when the merge did not commit (cancelled); schedulers
    /// simply retry on the next poll.
    fn run_merge(&self, grant: MergeGrant) -> Option<MergeOutcome>;
}

impl<V: Value> MergeSource for OnlineTable<V> {
    fn delta_fraction(&self) -> f64 {
        OnlineTable::delta_fraction(self)
    }

    fn delta_tuples(&self) -> usize {
        self.delta_len()
    }

    fn memory_report(&self) -> MemoryReport {
        OnlineTable::memory_report(self)
    }

    fn run_merge(&self, grant: MergeGrant) -> Option<MergeOutcome> {
        let stats = self.merge_with(grant, None).ok()?;
        Some(MergeOutcome {
            tuples_moved: stats.columns.iter().map(|c| c.n_d as u64).sum(),
            rows_moved: stats.columns.first().map_or(0, |c| c.n_d as u64),
            wall: stats.t_wall,
            stages: stats.stage_timings(),
        })
    }
}

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
    fn record(&mut self, out: &MergeOutcome) {
        self.merges += 1;
        self.tuples_merged += out.tuples_moved;
        self.merge_micros += out.wall.as_micros() as u64;
        self.step1a_micros += out.stages.step1a.as_micros() as u64;
        self.step1b_micros += out.stages.step1b.as_micros() as u64;
        self.step2_micros += out.stages.step2.as_micros() as u64;
    }
}

/// Cumulative scheduler statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SchedulerStats {
    /// Merges completed across all sources.
    pub merges: u64,
    /// Tuples moved from delta partitions into main partitions, across all
    /// sources and columns.
    pub tuples_merged: u64,
    /// Total microseconds spent inside merges (sums across concurrent
    /// merges, so it can exceed wall time).
    pub merge_micros: u64,
    /// The same totals per source, with the per-stage timing breakdown.
    pub per_source: Vec<SourceMergeStats>,
    /// Bounded trace of the governor's recent grant decisions (strategy,
    /// threads, budget K, triggering signal), oldest first — one entry per
    /// poll round that selected at least one source.
    pub grants: Vec<GrantRecord>,
}

/// What the handle and its daemon share.
struct Shared<S> {
    sources: Vec<Arc<S>>,
    governor: ResourceGovernor,
    max_concurrent: usize,
    stop: AtomicBool,
    paused: AtomicBool,
    per_source: Mutex<Vec<SourceMergeStats>>,
}

impl<S: MergeSource> Shared<S> {
    /// One governor round: sample pressure, rank the sources, and merge
    /// the chosen few under the round's grant. `max_concurrent` is the
    /// round's width on the pool; each merge's own column and region
    /// fan-outs nest inside it under `grant.threads`.
    fn round(&self) {
        let view = LoadView::of_sources(self.sources.iter().map(Arc::as_ref), self.max_concurrent);
        let plan = self.governor.plan(&view);
        Pool::global().run_indexed(plan.selected.len(), self.max_concurrent, &|k| {
            let i = plan.selected[k];
            if let Some(out) = self.sources[i].run_merge(plan.grant) {
                self.per_source.lock()[i].record(&out);
                self.governor.record_outcome(&out);
            }
        });
    }
}

/// Handle to a running background merge scheduler over N [`MergeSource`]s:
/// the realization of the paper's "scheduling algorithm \[that\] could
/// constantly analyze the available bandwidth and thus adjust the degree
/// of parallelization" (Section 9). Pause/resume apply to all sources;
/// dropping the handle stops the daemon (joining its thread).
pub struct MergeScheduler<S: MergeSource> {
    shared: Arc<Shared<S>>,
    handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl<S: MergeSource> MergeScheduler<S> {
    /// Spawn a scheduler over `sources` with `policy`: check the triggers
    /// every `poll`, run at most `max_concurrent` merges at a time. The
    /// policy is wrapped in a default [`ResourceGovernor`]
    /// ([`GovernorConfig::from_policy`]): the policy's trigger, made more
    /// eager under write pressure, and the policy's grant on every round.
    /// Use [`Self::spawn_governed`] to add a memory soft limit.
    pub fn spawn(
        sources: Vec<Arc<S>>,
        policy: MergePolicy,
        max_concurrent: usize,
        poll: Duration,
    ) -> Self {
        Self::spawn_governed(
            sources,
            ResourceGovernor::new(GovernorConfig::from_policy(policy)),
            max_concurrent,
            poll,
        )
    }

    /// Spawn a scheduler whose per-round grants come from `governor`.
    pub fn spawn_governed(
        sources: Vec<Arc<S>>,
        governor: ResourceGovernor,
        max_concurrent: usize,
        poll: Duration,
    ) -> Self {
        let shared = Arc::new(Shared {
            per_source: Mutex::new(vec![SourceMergeStats::default(); sources.len()]),
            sources,
            governor,
            max_concurrent: max_concurrent.max(1),
            stop: AtomicBool::new(false),
            paused: AtomicBool::new(false),
        });
        let daemon = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("hyrise-merge-scheduler".into())
            .spawn(move || {
                while !daemon.stop.load(Ordering::Relaxed) {
                    if !daemon.paused.load(Ordering::Relaxed) {
                        daemon.round();
                    }
                    std::thread::sleep(poll);
                }
            })
            .expect("spawn merge scheduler daemon");
        Self {
            shared,
            handle: Mutex::new(Some(handle)),
        }
    }

    /// The merge sources being managed (one table, or a sharded table's
    /// shards).
    pub fn sources(&self) -> &[Arc<S>] {
        &self.shared.sources
    }

    /// The governor granting this scheduler's merges.
    pub fn governor(&self) -> &ResourceGovernor {
        &self.shared.governor
    }

    /// The concurrency bound (merge slots per poll round).
    pub fn max_concurrent(&self) -> usize {
        self.shared.max_concurrent
    }

    /// Pause scheduling: no source starts a new merge until
    /// [`Self::resume`]. In-flight merges complete (the paper's pause hook
    /// applies between merges; mid-merge pausing is the incremental
    /// session's job).
    pub fn pause(&self) {
        self.shared.paused.store(true, Ordering::Relaxed);
    }

    /// Resume scheduling after [`Self::pause`].
    pub fn resume(&self) {
        self.shared.paused.store(false, Ordering::Relaxed);
    }

    /// Is the scheduler currently paused?
    pub fn is_paused(&self) -> bool {
        self.shared.paused.load(Ordering::Relaxed)
    }

    /// Snapshot of cumulative statistics (including the governor's recent
    /// grant trace).
    pub fn stats(&self) -> SchedulerStats {
        let per_source = self.shared.per_source.lock().clone();
        SchedulerStats {
            merges: per_source.iter().map(|s| s.merges).sum(),
            tuples_merged: per_source.iter().map(|s| s.tuples_merged).sum(),
            merge_micros: per_source.iter().map(|s| s.merge_micros).sum(),
            per_source,
            grants: self.shared.governor.recent_grants(),
        }
    }

    /// Stop the daemon and wait for it (and any in-flight merges) to
    /// finish. Called automatically on drop; explicit calls let tests
    /// assert on the final state.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.lock().take() {
            let _ = h.join();
        }
    }
}

impl<S: MergeSource> Drop for MergeScheduler<S> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardedTable;
    use std::time::Instant;

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
            let sched = MergeScheduler::spawn(
                t.shards().to_vec(),
                policy(0.01, 2),
                2,
                Duration::from_millis(5),
            );
            // Push every shard past the trigger and wait for the daemon.
            insert_rows(&t, 500, 1_000_000);
            wait_for(5, || t.delta_len() == 0);
            sched.shutdown();
            let stats = sched.stats();
            assert!(
                stats.merges >= 1,
                "daemon must have merged ({shards} shards)"
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
    fn one_merge_slot_still_drains_every_source() {
        let t = fixture(4);
        insert_rows(&t, 2_000, 0);
        let sched = MergeScheduler::spawn(
            t.shards().to_vec(),
            policy(0.001, 1),
            1,
            Duration::from_millis(1),
        );
        assert_eq!(sched.max_concurrent(), 1);
        wait_for(5, || t.delta_len() == 0);
        sched.shutdown();
        assert_eq!(t.delta_len(), 0, "one slot per round reaches every shard");
        assert!(sched.stats().per_source.iter().all(|s| s.merges > 0));
    }

    #[test]
    fn pause_and_resume_apply_to_every_source() {
        for shards in SHAPES {
            let t = fixture(shards);
            insert_rows(&t, 1_000, 0); // fraction N_D/1: always triggered
            let sched = MergeScheduler::spawn(
                t.shards().to_vec(),
                policy(0.01, 1),
                shards,
                Duration::from_millis(2),
            );
            sched.pause();
            assert!(sched.is_paused());
            // Give the daemon time it would have used to merge.
            std::thread::sleep(Duration::from_millis(100));
            let before = sched.stats().merges;
            assert!(
                before <= shards as u64,
                "at most one in-flight round may finish after pause, ran {before}"
            );
            // Refill every shard while paused: if the daemon won the race
            // and merged everything before the pause landed, resume would
            // otherwise have nothing to do.
            insert_rows(&t, 1_000, 2_000_000);
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
        table.insert_row(&[1, 2]);
        let weak = {
            let sched = MergeScheduler::spawn(
                vec![Arc::clone(&table)],
                MergePolicy::default(),
                1,
                Duration::from_millis(1),
            );
            let _ = sched.stats();
            Arc::downgrade(&sched.sources()[0])
        };
        // Scheduler dropped: its table Arc released; ours remains.
        assert!(weak.upgrade().is_some());
        drop(table);
        assert!(
            weak.upgrade().is_none(),
            "daemon thread must have released the table"
        );
    }

    #[test]
    fn sustained_writes_keep_every_source_bounded() {
        for shards in SHAPES {
            let t = fixture(shards);
            insert_rows(&t, 8_000, 0);
            t.merge_all(2).unwrap();
            let policy = policy(0.02, 1);
            let sched =
                MergeScheduler::spawn(t.shards().to_vec(), policy, 2, Duration::from_millis(1));
            // Write through the facade from two threads.
            std::thread::scope(|s| {
                for w in 0..2u64 {
                    let t = &t;
                    s.spawn(move || {
                        for i in 0..10_000u64 {
                            let k = 1_000_000 * (w + 1) + i;
                            t.insert_row(&[k, k + 1]);
                        }
                    });
                }
            });
            // Let the scheduler drain the tail.
            wait_for(10, || t.max_delta_fraction() <= policy.delta_fraction);
            sched.shutdown();
            let stats = sched.stats();
            assert_eq!(t.row_count(), 28_000, "no rows lost under daemon merging");
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
            let sched = MergeScheduler::spawn(
                t.shards().to_vec(),
                policy(0.0, 1),
                shards,
                Duration::from_millis(1),
            );
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
    fn merge_source_trait_reports_through_online_table() {
        let table = OnlineTable::<u64>::new(2);
        for i in 0..64 {
            table.insert_row(&[i, i + 1]);
        }
        let src: &dyn MergeSource = &table;
        assert_eq!(src.delta_fraction(), 64.0);
        assert_eq!(src.delta_tuples(), 64);
        assert!(src.memory_report().delta_total() > 0);
        let out = src
            .run_merge(MergeGrant::with_threads(2))
            .expect("uncancelled merge commits");
        assert_eq!(out.tuples_moved, 64 * 2, "both columns counted");
        assert_eq!(src.delta_fraction(), 0.0);
        assert_eq!(src.delta_tuples(), 0);
        assert_eq!(src.memory_report().delta_total(), 0);
    }

    #[test]
    fn governed_scheduler_records_grants_and_shrinks_budget_under_pressure() {
        use crate::governor::GrantSignal;
        let table = Arc::new(OnlineTable::<u64>::new(2));
        for i in 0..4_000 {
            table.insert_row(&[i, i + 1]);
        }
        // A soft limit of one byte: every round is memory-pressured, so
        // every grant must carry the shrunk pressure budget.
        let config = GovernorConfig::from_policy(policy(0.01, 2)).with_memory_soft_limit(1);
        let sched = MergeScheduler::spawn_governed(
            vec![Arc::clone(&table)],
            ResourceGovernor::new(config),
            1,
            Duration::from_millis(2),
        );
        wait_for(5, || sched.stats().merges > 0);
        sched.shutdown();
        let stats = sched.stats();
        assert!(stats.merges >= 1, "governed daemon must merge");
        assert!(!stats.grants.is_empty(), "grant decisions are traced");
        let g = stats.grants.last().unwrap();
        assert_eq!(g.signal, GrantSignal::MemoryPressure);
        assert_eq!(
            g.budget_columns,
            sched.governor().config().pressure_budget.max_columns(),
            "memory pressure shrinks the merge budget"
        );
        assert_eq!(table.delta_len(), 0, "pressure never blocks draining");
    }
}
