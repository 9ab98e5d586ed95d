//! The adaptive resource governor: feedback-driven [`MergeGrant`]s from
//! live load signals.
//!
//! Section 9's scheduling hook — "a scheduling algorithm could constantly
//! analyze the available bandwidth and thus adjust the degree of
//! parallelization for the merge process" — is exactly a feedback loop:
//! sample what the workload is doing, then size the next merge's resource
//! grant accordingly. The static [`MergePolicy`] picked one grant at
//! configuration time; the [`ResourceGovernor`] picks one **per poll
//! round** from three signal families:
//!
//! * **Read pressure** — process-wide lock-free query counters bumped by
//!   every `hyrise-query` executor run ([`begin_read`]); the governor
//!   derives queries/second and in-flight counts between polls.
//! * **Write pressure** — the merge source's delta growth between polls
//!   (insert tuples/second, corrected for tuples the merges of the window
//!   moved out), classified against the paper's Section 4 update-rate
//!   targets via [`rate::classify_update_rate`], with Equation 1
//!   ([`rate::update_rate`]) reporting the window's *sustained* rate.
//! * **Memory pressure** — [`MemoryReport`] accounting over the source's
//!   partitions against a configured soft limit.
//!
//! The decision table (first match wins; see [`GrantSignal`]):
//!
//! | signal            | strategy          | threads           | budget K          |
//! |-------------------|-------------------|-------------------|-------------------|
//! | memory pressure   | policy's          | policy's          | `pressure_budget` |
//! | read-contended    | `Naive`           | half the policy's | policy's          |
//! | queue-deep        | policy's          | half the policy's | policy's          |
//! | write burst       | `Parallel`        | `max_threads`     | policy's          |
//! | read-idle         | policy's          | `max_threads`     | policy's          |
//! | baseline          | policy's          | policy's          | policy's          |
//!
//! Rationale: under memory pressure the budget (not the algorithm) is the
//! lever — K-column commits cap the transient ~2x working set. Under read
//! contention the merge should stay off the memory bus the scans are
//! saturating: `Naive` skips the delta re-encode and the `X_M`/`X_D`
//! auxiliary streams of the optimized stages, trading extra CPU (its
//! binary-search Step 2) for less bandwidth, and the thread grant halves.
//! A deep pool queue ([`crate::pool::global_queue_depth`]) is the same
//! story seen from the worker side — tasks waiting for workers — so it
//! also halves the grant, but keeps the policy's strategy: merges run on
//! that same pool, a grant's `threads` is its width there, so the queue
//! clears fastest when the merge yields *workers*, and the backlog says
//! nothing about bandwidth.
//! A write burst or a read-idle window is the opposite — the merge should
//! take the machine (the paper's "merging with all available resources")
//! while it is cheap to do so.
//!
//! Every decision lands in a bounded ring ([`ResourceGovernor::recent_grants`])
//! so schedulers expose *why* each merge ran the way it did; the
//! `shard_scalability` harness prints that trace next to its per-stage
//! columns.
//!
//! [`crate::scheduler::MergeScheduler`] polls through
//! [`ResourceGovernor::plan`] once per round. For a multi-source (sharded)
//! view the plan also ranks sources by `delta fraction × pressure` and
//! selects at most `max_concurrent` of them; the pressure factor makes
//! merges *more* eager under write/memory pressure and never less eager
//! than the static trigger, so a governed scheduler bounds the delta at
//! least as tightly as the policy it was built from.

use crate::manager::MergePolicy;
use crate::pipeline::{MergeBudget, MergeGrant, MergeStrategy};
use crate::rate::{self, WriteLoad};
use crate::scheduler::MergeOutcome;
use hyrise_storage::MemoryReport;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Read-pressure counters
// ---------------------------------------------------------------------------

/// Queries started, process-wide. Monotonic; the governor differences
/// successive samples, so wrap-around is a non-issue in practice.
static READS_STARTED: AtomicU64 = AtomicU64::new(0);
/// Queries finished, process-wide.
static READS_FINISHED: AtomicU64 = AtomicU64::new(0);

/// RAII handle for one engine execution: created by [`begin_read`] at the
/// start of an executor run, counts the run as finished on drop. Holding
/// it keeps the run visible in [`ReadLoad::in_flight`].
#[must_use = "dropping the guard immediately records a zero-length read"]
pub struct ReadGuard {
    _not_send_sync_irrelevant: (),
}

/// Record the start of one query-engine execution (lock-free; two relaxed
/// atomic increments per query in total). `hyrise-query` calls this at
/// every executor entry point; anything else that wants its reads weighed
/// by the governor (e.g. the workload driver's window scans) may too.
/// Registration is once per *query*: fan-out executors hold one guard
/// across their per-shard engine runs and morsel workers never register,
/// so the counters track query arrival — internal parallelism shows up in
/// the pool queue depth signal instead.
pub fn begin_read() -> ReadGuard {
    READS_STARTED.fetch_add(1, Ordering::Relaxed);
    ReadGuard {
        _not_send_sync_irrelevant: (),
    }
}

impl Drop for ReadGuard {
    fn drop(&mut self) {
        READS_FINISHED.fetch_add(1, Ordering::Relaxed);
    }
}

/// A sample of the process-wide read counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReadLoad {
    /// Engine executions started since process start.
    pub started: u64,
    /// Engine executions finished since process start.
    pub finished: u64,
}

impl ReadLoad {
    /// Executions currently running.
    pub fn in_flight(&self) -> u64 {
        self.started.saturating_sub(self.finished)
    }
}

/// Sample the process-wide read counters.
pub fn read_load() -> ReadLoad {
    // `finished` first: sampling `started` later can only overestimate
    // in-flight, never produce finished > started.
    let finished = READS_FINISHED.load(Ordering::Relaxed);
    let started = READS_STARTED.load(Ordering::Relaxed);
    ReadLoad { started, finished }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Tuning knobs for a [`ResourceGovernor`]. Start from
/// [`GovernorConfig::from_policy`] (which reproduces the static policy's
/// behavior except for opportunistic thread raises) and tighten from
/// there; the README's governor section walks through the knobs.
#[derive(Clone, Debug)]
pub struct GovernorConfig {
    /// The baseline: trigger fraction and default grant. The governor's
    /// adaptive grants are deviations from this policy's grant.
    pub policy: MergePolicy,
    /// Thread ceiling for the write-burst / read-idle raises (defaults to
    /// [`crate::pool::default_threads`]).
    pub max_threads: usize,
    /// Soft cap on the source's total bytes ([`MemoryReport::total`]);
    /// above it the governor shrinks the merge budget to
    /// [`Self::pressure_budget`]. `usize::MAX` disables the signal.
    pub memory_soft_limit: usize,
    /// The column budget granted under memory pressure (default: one
    /// column at a time — the paper's Section 4 partial-column strategy at
    /// its tightest).
    pub pressure_budget: MergeBudget,
    /// Engine runs/second *below* which (with nothing in flight) the
    /// workload counts as read-idle.
    pub idle_reads_per_sec: f64,
    /// Engine runs/second *above* which the workload counts as
    /// read-contended.
    pub busy_reads_per_sec: f64,
    /// Queued-but-unclaimed tasks on the shared worker pool *above* which
    /// the round counts as queue-deep: work is waiting for workers, so the
    /// next merge grant gives pool width back (half the policy's threads).
    /// `usize::MAX` disables the signal.
    pub deep_queue_depth: usize,
}

impl GovernorConfig {
    /// A governor configuration that keeps `policy`'s trigger and grant as
    /// the baseline, with memory pressure disabled and conservative read
    /// thresholds.
    pub fn from_policy(policy: MergePolicy) -> Self {
        Self {
            policy,
            max_threads: crate::pool::default_threads(),
            memory_soft_limit: usize::MAX,
            pressure_budget: MergeBudget::columns(1),
            idle_reads_per_sec: 1.0,
            busy_reads_per_sec: 100.0,
            deep_queue_depth: 4 * crate::pool::default_threads(),
        }
    }

    /// Builder-style soft memory limit (bytes).
    pub fn with_memory_soft_limit(mut self, bytes: usize) -> Self {
        self.memory_soft_limit = bytes;
        self
    }

    /// Builder-style read thresholds (engine runs/second).
    pub fn with_read_thresholds(mut self, idle: f64, busy: f64) -> Self {
        assert!(idle <= busy, "idle threshold must not exceed busy");
        self.idle_reads_per_sec = idle;
        self.busy_reads_per_sec = busy;
        self
    }

    /// Builder-style thread ceiling.
    pub fn with_max_threads(mut self, threads: usize) -> Self {
        self.max_threads = threads.max(1);
        self
    }

    /// Builder-style memory-pressure budget.
    pub fn with_pressure_budget(mut self, budget: MergeBudget) -> Self {
        self.pressure_budget = budget;
        self
    }

    /// Builder-style pool queue-depth threshold (`usize::MAX` disables).
    pub fn with_deep_queue_depth(mut self, depth: usize) -> Self {
        self.deep_queue_depth = depth;
        self
    }
}

impl Default for GovernorConfig {
    fn default() -> Self {
        Self::from_policy(MergePolicy::default())
    }
}

// ---------------------------------------------------------------------------
// Signals and decisions
// ---------------------------------------------------------------------------

/// What one poll round of sampling concluded about the workload.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LoadSignals {
    /// Engine runs per second over the sampled window.
    pub reads_per_sec: f64,
    /// Engine runs in flight at sample time.
    pub reads_in_flight: u64,
    /// Tuples per second entering the delta over the window (delta growth
    /// corrected for tuples the window's merges moved out).
    pub write_tuples_per_sec: f64,
    /// [`Self::write_tuples_per_sec`] bucketed against the Section 4
    /// targets.
    pub write_load: WriteLoad,
    /// Equation 1 over the window: tuples absorbed per second of update
    /// *plus merge* time — the sustained rate the paper's update-rate
    /// figures report.
    pub sustained_updates_per_sec: f64,
    /// Total bytes of the governed source at sample time.
    pub memory_bytes: usize,
    /// Bytes on the write-optimized side (what merging reclaims).
    pub delta_bytes: usize,
    /// `memory_bytes` exceeded the configured soft limit.
    pub memory_pressure: bool,
    /// Queued-but-unclaimed tasks on the shared worker pool at sample time
    /// ([`crate::pool::global_queue_depth`]): query morsels and merge
    /// helpers waiting for a worker.
    pub pool_queue_depth: usize,
}

/// Which row of the decision table produced a grant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GrantSignal {
    /// No signal fired: the policy's own grant.
    Baseline,
    /// Total bytes above the soft limit: budget shrunk to the pressure
    /// budget.
    MemoryPressure,
    /// Read rate above the busy threshold: `Naive` strategy (less memory
    /// traffic), half the threads.
    Contended,
    /// Query-pool queue depth above the configured threshold: scans are
    /// starved for workers, so the merge gives cores back (half the
    /// policy's threads, policy strategy).
    QueueDeep,
    /// Write rate at or above the paper's high target: all threads.
    WriteBurst,
    /// Read rate below the idle threshold with nothing in flight: all
    /// threads.
    ReadIdle,
    /// Crash recovery resumed a half-finished merge from its checkpoint:
    /// the policy's baseline grant, recorded so recovery-driven merges are
    /// visible among the regular rounds.
    Resume,
}

impl std::fmt::Display for GrantSignal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GrantSignal::Baseline => write!(f, "baseline"),
            GrantSignal::MemoryPressure => write!(f, "mem-pressure"),
            GrantSignal::Contended => write!(f, "contended"),
            GrantSignal::QueueDeep => write!(f, "queue-deep"),
            GrantSignal::WriteBurst => write!(f, "write-burst"),
            GrantSignal::ReadIdle => write!(f, "read-idle"),
            GrantSignal::Resume => write!(f, "resume"),
        }
    }
}

/// One recorded grant decision — what the ring in
/// [`ResourceGovernor::recent_grants`] holds and scheduler stats expose.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GrantRecord {
    /// Granted strategy.
    pub strategy: MergeStrategy,
    /// Granted threads.
    pub threads: usize,
    /// Granted budget in columns (`usize::MAX` = unbounded).
    pub budget_columns: usize,
    /// The decision-table row that fired.
    pub signal: GrantSignal,
    /// The worst selected source's delta fraction at decision time.
    pub delta_fraction: f64,
}

impl std::fmt::Display for GrantRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/t{}/K", self.strategy.algo(), self.threads)?;
        if self.budget_columns == usize::MAX {
            write!(f, "∞")?;
        } else {
            write!(f, "{}", self.budget_columns)?;
        }
        write!(f, " {} f={:.3}", self.signal, self.delta_fraction)
    }
}

/// What a scheduler tells the governor about its source(s) each round.
/// Build one with [`LoadView::of_sources`] or by hand.
#[derive(Clone, Debug)]
pub struct LoadView {
    /// Per-source merge-trigger ratios (one entry for a single table, one
    /// per shard for a sharded table).
    pub fractions: Vec<f64>,
    /// Cumulative rows ever inserted per source (monotonic counters,
    /// aligned with [`Self::fractions`]). The governor differences
    /// successive polls into per-source sustained write rates and boosts
    /// hot sources' merge priority. Leave empty when the sources don't
    /// track insert counters — ranking then falls back to pure delta
    /// fractions.
    pub inserted: Vec<u64>,
    /// Total tuples awaiting a merge across the sources.
    pub delta_tuples: usize,
    /// Total byte accounting across the sources.
    pub memory: MemoryReport,
    /// Cap on how many sources this round may merge concurrently.
    pub max_concurrent: usize,
}

impl LoadView {
    /// Sample one [`MergeSource`](crate::scheduler::MergeSource) into a
    /// single-slot view.
    pub fn of_source<S: crate::scheduler::MergeSource + ?Sized>(source: &S) -> Self {
        Self::of_sources([source], 1)
    }

    /// Sample a set of sources (a sharded table's shards) into one view,
    /// one slot per source in iteration order.
    pub fn of_sources<'a, S: crate::scheduler::MergeSource + ?Sized>(
        sources: impl IntoIterator<Item = &'a S>,
        max_concurrent: usize,
    ) -> Self {
        let mut view = Self {
            fractions: Vec::new(),
            inserted: Vec::new(),
            delta_tuples: 0,
            memory: MemoryReport::default(),
            max_concurrent,
        };
        for s in sources {
            view.fractions.push(s.delta_fraction());
            view.inserted.push(s.inserted_rows());
            view.delta_tuples += s.delta_tuples();
            view.memory = view.memory + s.memory_report();
        }
        view
    }
}

/// One poll round's outcome: which sources to merge now (priority order)
/// and the grant they all run under.
#[derive(Clone, Debug)]
pub struct RoundPlan {
    /// Indices into the [`LoadView::fractions`] the round should merge,
    /// highest priority first, at most `max_concurrent` of them.
    pub selected: Vec<usize>,
    /// The adaptive grant for every merge of this round.
    pub grant: MergeGrant,
    /// Why the grant looks the way it does.
    pub signal: GrantSignal,
    /// The signals the decision was made from.
    pub signals: LoadSignals,
}

/// Sliding window state between polls.
struct GovState {
    last_poll: Option<Instant>,
    last_reads_finished: u64,
    last_delta_tuples: usize,
    /// Per-source cumulative insert counters at the last poll (for the
    /// per-shard write-rate ranking boost).
    last_inserted: Vec<u64>,
    /// Delta **rows** drained by merges since the last poll (accumulated
    /// by [`ResourceGovernor::record_outcome`] from
    /// [`MergeOutcome::rows_moved`] — same unit as
    /// [`LoadView::delta_tuples`]).
    window_merged_rows: u64,
    /// Wall time spent inside merges since the last poll.
    window_merge_wall: Duration,
    last_signals: LoadSignals,
}

/// Decisions kept in the trace ring.
const TRACE_CAP: usize = 64;

/// The feedback-driven grant source the scheduler polls. See the module
/// docs for the signal model and decision table.
pub struct ResourceGovernor {
    config: GovernorConfig,
    state: Mutex<GovState>,
    trace: Mutex<VecDeque<GrantRecord>>,
}

impl ResourceGovernor {
    /// A governor over `config`.
    pub fn new(config: GovernorConfig) -> Self {
        Self {
            config,
            state: Mutex::new(GovState {
                last_poll: None,
                last_reads_finished: read_load().finished,
                last_delta_tuples: 0,
                last_inserted: Vec::new(),
                window_merged_rows: 0,
                window_merge_wall: Duration::ZERO,
                last_signals: LoadSignals::default(),
            }),
            trace: Mutex::new(VecDeque::new()),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GovernorConfig {
        &self.config
    }

    /// The pure decision table: signals in, grant out. Exposed so tests
    /// (and tools) can probe decisions without constructing real load.
    pub fn decide(config: &GovernorConfig, signals: &LoadSignals) -> (MergeGrant, GrantSignal) {
        let base = config.policy.grant();
        if signals.memory_pressure {
            (
                base.budget(config.pressure_budget),
                GrantSignal::MemoryPressure,
            )
        } else if signals.reads_per_sec > config.busy_reads_per_sec {
            (
                MergeGrant {
                    strategy: MergeStrategy::Naive,
                    threads: (base.threads / 2).max(1),
                    budget: base.budget,
                },
                GrantSignal::Contended,
            )
        } else if signals.pool_queue_depth > config.deep_queue_depth {
            (
                MergeGrant {
                    threads: (base.threads / 2).max(1),
                    ..base
                },
                GrantSignal::QueueDeep,
            )
        } else if signals.write_load == WriteLoad::Heavy {
            (
                MergeGrant {
                    strategy: MergeStrategy::Parallel,
                    threads: config.max_threads.max(base.threads),
                    budget: base.budget,
                },
                GrantSignal::WriteBurst,
            )
        } else if signals.reads_per_sec < config.idle_reads_per_sec && signals.reads_in_flight == 0
        {
            (
                MergeGrant {
                    threads: config.max_threads.max(base.threads),
                    ..base
                },
                GrantSignal::ReadIdle,
            )
        } else {
            (base, GrantSignal::Baseline)
        }
    }

    /// The eagerness multiplier: ≥ 1, growing with write and memory
    /// pressure. Source `i` is eligible when
    /// `fraction_i × pressure > policy.delta_fraction`, so a pressured
    /// system merges *earlier* than the static trigger and an idle one
    /// merges exactly at it.
    fn pressure_factor(signals: &LoadSignals) -> f64 {
        let write = (signals.write_tuples_per_sec / rate::HIGH_TARGET_UPDATES_PER_SEC).min(4.0);
        let memory = if signals.memory_pressure { 1.0 } else { 0.0 };
        1.0 + write + memory
    }

    /// One poll round: fold the window's counters into [`LoadSignals`],
    /// rank the view's sources by `delta fraction × pressure`, and emit
    /// the round's adaptive grant. Records a [`GrantRecord`] in the trace
    /// ring whenever at least one source is selected.
    pub fn plan(&self, view: &LoadView) -> RoundPlan {
        let now = Instant::now();
        let reads = read_load();
        let (signals, source_rates) = {
            let mut st = self.state.lock();
            let elapsed = st
                .last_poll
                .map(|t| now.duration_since(t))
                .unwrap_or(Duration::ZERO);
            let secs = elapsed.as_secs_f64().max(1e-6);
            let finished_delta = reads.finished.saturating_sub(st.last_reads_finished);
            // Tuples that *entered* the deltas this window: net growth plus
            // whatever the window's merges moved out.
            let inserted = (view.delta_tuples as i64 - st.last_delta_tuples as i64
                + st.window_merged_rows as i64)
                .max(0) as u64;
            let (reads_per_sec, write_tuples_per_sec, sustained) = if st.last_poll.is_some() {
                (
                    finished_delta as f64 / secs,
                    inserted as f64 / secs,
                    rate::update_rate(inserted as usize, elapsed, st.window_merge_wall),
                )
            } else {
                // First poll: no window yet — report a quiet baseline.
                (0.0, 0.0, 0.0)
            };
            let signals = LoadSignals {
                reads_per_sec,
                reads_in_flight: reads.in_flight(),
                write_tuples_per_sec,
                write_load: rate::classify_update_rate(write_tuples_per_sec),
                sustained_updates_per_sec: if sustained.is_finite() {
                    sustained
                } else {
                    0.0
                },
                memory_bytes: view.memory.total(),
                delta_bytes: view.memory.delta_total(),
                memory_pressure: view.memory.total() > self.config.memory_soft_limit,
                pool_queue_depth: crate::pool::global_queue_depth(),
            };
            // Per-source sustained write rates over the window, from the
            // cumulative insert counters (when the sources provide them
            // and the slot count is stable across polls).
            let source_rates: Vec<f64> =
                if st.last_poll.is_some() && view.inserted.len() == st.last_inserted.len() {
                    view.inserted
                        .iter()
                        .zip(&st.last_inserted)
                        .map(|(&cur, &prev)| cur.saturating_sub(prev) as f64 / secs)
                        .collect()
                } else {
                    vec![0.0; view.inserted.len()]
                };
            st.last_poll = Some(now);
            st.last_reads_finished = reads.finished;
            st.last_delta_tuples = view.delta_tuples;
            st.last_inserted = view.inserted.clone();
            st.window_merged_rows = 0;
            st.window_merge_wall = Duration::ZERO;
            st.last_signals = signals;
            (signals, source_rates)
        };

        let (mut grant, signal) = Self::decide(&self.config, &signals);
        let pressure = Self::pressure_factor(&signals);
        // Eligibility is still the (pressure-scaled) fraction trigger;
        // *priority* among the eligible is the fraction boosted by each
        // source's own sustained write rate — a shard absorbing a write
        // hot-spot merges before a colder shard with the same backlog,
        // because its backlog will be worse by the time a round comes
        // back to it. Zero or absent rates leave the pure-fraction order.
        let rate_boost = |i: usize| {
            let r = source_rates.get(i).copied().unwrap_or(0.0);
            1.0 + (r / rate::HIGH_TARGET_UPDATES_PER_SEC).min(4.0)
        };
        let mut ranked: Vec<(usize, f64, f64)> = view
            .fractions
            .iter()
            .enumerate()
            .filter(|(_, &f)| f * pressure > self.config.policy.delta_fraction)
            .map(|(i, &f)| (i, f, f * rate_boost(i)))
            .collect();
        ranked.sort_by(|a, b| b.2.total_cmp(&a.2));
        ranked.truncate(view.max_concurrent.max(1));
        let selected: Vec<usize> = ranked.iter().map(|&(i, _, _)| i).collect();

        // The decision table sizes threads for ONE merge; a sharded round
        // runs the same grant on every selected shard concurrently, so a
        // `max_threads` raise would oversubscribe the machine K-fold.
        // Divide the raise across the selected shards — but never below
        // the policy's own per-shard grant, which is the static
        // schedulers' long-standing concurrency level.
        if selected.len() > 1 {
            let per_shard = (self.config.max_threads / selected.len()).max(1);
            grant.threads = grant.threads.min(per_shard.max(self.config.policy.threads));
        }

        if let Some(&(_, worst, _)) = ranked.first() {
            let mut trace = self.trace.lock();
            if trace.len() == TRACE_CAP {
                trace.pop_front();
            }
            trace.push_back(GrantRecord {
                strategy: grant.strategy,
                threads: grant.threads,
                budget_columns: grant.budget.max_columns(),
                signal,
                delta_fraction: worst,
            });
        }

        RoundPlan {
            selected,
            grant,
            signal,
            signals,
        }
    }

    /// The grant a crash-recovery merge resume runs under — the policy's
    /// own baseline grant, recorded in the trace with
    /// [`GrantSignal::Resume`] so operators can see recovery-driven merges
    /// among the regular rounds. The choice is safe by construction: every
    /// strategy and thread count produces byte-identical merged partitions,
    /// so the resumed merge's result does not depend on the grant.
    pub fn resume_grant(&self, delta_fraction: f64) -> MergeGrant {
        let grant = self.config.policy.grant();
        let mut trace = self.trace.lock();
        if trace.len() == TRACE_CAP {
            trace.pop_front();
        }
        trace.push_back(GrantRecord {
            strategy: grant.strategy,
            threads: grant.threads,
            budget_columns: grant.budget.max_columns(),
            signal: GrantSignal::Resume,
            delta_fraction,
        });
        grant
    }

    /// Report a completed merge back into the current window, so the next
    /// [`Self::plan`] can correct delta growth for merged-out tuples and
    /// compute the Equation 1 sustained rate.
    pub fn record_outcome(&self, out: &MergeOutcome) {
        let mut st = self.state.lock();
        st.window_merged_rows += out.rows_moved;
        st.window_merge_wall += out.wall;
    }

    /// The signals of the most recent [`Self::plan`] round.
    pub fn last_signals(&self) -> LoadSignals {
        self.state.lock().last_signals
    }

    /// The bounded trace of recent grant decisions, oldest first (at most
    /// 64 entries; rounds that selected no source record nothing).
    pub fn recent_grants(&self) -> Vec<GrantRecord> {
        self.trace.lock().iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> GovernorConfig {
        GovernorConfig::from_policy(MergePolicy {
            delta_fraction: 0.05,
            threads: 4,
            ..MergePolicy::default()
        })
        .with_max_threads(8)
        .with_read_thresholds(1.0, 100.0)
    }

    #[test]
    fn decision_table_rows_fire_in_priority_order() {
        let cfg = config().with_memory_soft_limit(1 << 20);
        let mut s = LoadSignals {
            memory_pressure: true,
            reads_per_sec: 1_000.0, // also contended…
            write_load: WriteLoad::Heavy,
            ..LoadSignals::default()
        };
        // Memory pressure dominates everything.
        let (g, sig) = ResourceGovernor::decide(&cfg, &s);
        assert_eq!(sig, GrantSignal::MemoryPressure);
        assert_eq!(g.budget, cfg.pressure_budget);
        assert_eq!(g.threads, 4, "memory pressure keeps the policy threads");

        // Contention beats a write burst: Naive, half the threads.
        s.memory_pressure = false;
        let (g, sig) = ResourceGovernor::decide(&cfg, &s);
        assert_eq!(sig, GrantSignal::Contended);
        assert_eq!(g.strategy, MergeStrategy::Naive);
        assert_eq!(g.threads, 2);

        // Write burst takes the machine.
        s.reads_per_sec = 50.0;
        let (g, sig) = ResourceGovernor::decide(&cfg, &s);
        assert_eq!(sig, GrantSignal::WriteBurst);
        assert_eq!(g.strategy, MergeStrategy::Parallel);
        assert_eq!(g.threads, 8);

        // Quiet reads, light writes, nothing in flight: idle raise.
        s.write_load = WriteLoad::Light;
        s.reads_per_sec = 0.0;
        s.reads_in_flight = 0;
        let (g, sig) = ResourceGovernor::decide(&cfg, &s);
        assert_eq!(sig, GrantSignal::ReadIdle);
        assert_eq!(g.threads, 8);
        assert_eq!(g.strategy, cfg.policy.strategy);

        // Moderate reads: baseline.
        s.reads_per_sec = 10.0;
        let (g, sig) = ResourceGovernor::decide(&cfg, &s);
        assert_eq!(sig, GrantSignal::Baseline);
        assert_eq!(g, cfg.policy.grant());

        // In-flight queries suppress the idle raise even at zero rate.
        s.reads_per_sec = 0.0;
        s.reads_in_flight = 3;
        let (_, sig) = ResourceGovernor::decide(&cfg, &s);
        assert_eq!(sig, GrantSignal::Baseline);
    }

    #[test]
    fn deep_read_queues_steer_the_grant_toward_fewer_merge_threads() {
        let cfg = config().with_deep_queue_depth(4);
        // Sustained deep queue: morsel tasks waiting for workers.
        let s = LoadSignals {
            pool_queue_depth: 10,
            write_load: WriteLoad::Heavy, // would otherwise take the machine
            ..LoadSignals::default()
        };
        let (g, sig) = ResourceGovernor::decide(&cfg, &s);
        assert_eq!(sig, GrantSignal::QueueDeep);
        assert_eq!(
            g.threads, 2,
            "half the policy's 4 threads — cores go back to the scans"
        );
        assert_eq!(
            g.strategy, cfg.policy.strategy,
            "queue depth is a core signal, not a bandwidth signal"
        );
        assert!(
            g.threads
                < ResourceGovernor::decide(&cfg, &LoadSignals::default())
                    .0
                    .threads
                || cfg.policy.threads == 1,
            "strictly fewer threads than the baseline grant"
        );

        // Contention outranks queue depth; a shallow queue never fires.
        let busy = LoadSignals {
            reads_per_sec: 1_000.0,
            ..s
        };
        assert_eq!(
            ResourceGovernor::decide(&cfg, &busy).1,
            GrantSignal::Contended
        );
        let shallow = LoadSignals {
            pool_queue_depth: 4, // at, not above, the threshold
            reads_per_sec: 10.0,
            ..LoadSignals::default()
        };
        assert_eq!(
            ResourceGovernor::decide(&cfg, &shallow).1,
            GrantSignal::Baseline
        );
        // `usize::MAX` disables the signal entirely.
        let disabled = config().with_deep_queue_depth(usize::MAX);
        let (_, sig) = ResourceGovernor::decide(&disabled, &s);
        assert_eq!(sig, GrantSignal::WriteBurst);
    }

    #[test]
    fn plan_detects_memory_pressure_and_shrinks_the_budget() {
        let gov = ResourceGovernor::new(config().with_memory_soft_limit(1_000));
        let view = LoadView {
            fractions: vec![0.5],
            inserted: vec![],
            delta_tuples: 100,
            memory: MemoryReport {
                delta_values: 4_000,
                ..MemoryReport::default()
            },
            max_concurrent: 1,
        };
        let plan = gov.plan(&view);
        assert_eq!(plan.signal, GrantSignal::MemoryPressure);
        assert_eq!(plan.grant.budget, gov.config().pressure_budget);
        assert_eq!(plan.selected, vec![0]);
        assert!(plan.signals.memory_pressure);
        assert_eq!(plan.signals.memory_bytes, 4_000);
        let trace = gov.recent_grants();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].signal, GrantSignal::MemoryPressure);
        assert_eq!(
            trace[0].budget_columns,
            gov.config().pressure_budget.max_columns()
        );
    }

    #[test]
    fn plan_ranks_shards_and_respects_the_trigger() {
        let gov = ResourceGovernor::new(config());
        let view = LoadView {
            fractions: vec![0.02, 0.30, 0.10, 0.0],
            inserted: vec![],
            delta_tuples: 0,
            memory: MemoryReport::default(),
            max_concurrent: 2,
        };
        let plan = gov.plan(&view);
        // 0.02 and 0.0 are below the 0.05 trigger (pressure factor is 1 on
        // a quiet first window); the two eligible shards rank worst-first.
        assert_eq!(plan.selected, vec![1, 2]);
        // max_concurrent truncates.
        let view = LoadView {
            fractions: vec![0.30, 0.20, 0.10],
            max_concurrent: 1,
            ..view
        };
        assert_eq!(gov.plan(&view).selected, vec![0]);
        // Nothing eligible → nothing selected, nothing traced.
        let before = gov.recent_grants().len();
        let view = LoadView {
            fractions: vec![0.01, 0.0],
            max_concurrent: 2,
            ..view
        };
        assert!(gov.plan(&view).selected.is_empty());
        assert_eq!(gov.recent_grants().len(), before);
    }

    #[test]
    fn multi_shard_rounds_divide_the_thread_raise() {
        // A quiet window reads as ReadIdle → decide() raises to
        // max_threads (8). With 4 shards selected concurrently, the round
        // grant must divide that raise (8 / 4 = 2, floored at the policy's
        // own per-shard threads) instead of granting 4 × 8 threads.
        let gov = ResourceGovernor::new(
            GovernorConfig::from_policy(MergePolicy {
                delta_fraction: 0.05,
                threads: 2,
                ..MergePolicy::default()
            })
            .with_max_threads(8)
            .with_read_thresholds(1.0, 100.0),
        );
        let plan = gov.plan(&LoadView {
            fractions: vec![0.5, 0.4, 0.3, 0.2],
            inserted: vec![],
            delta_tuples: 0,
            memory: MemoryReport::default(),
            max_concurrent: 4,
        });
        assert_eq!(plan.signal, GrantSignal::ReadIdle);
        assert_eq!(plan.selected.len(), 4);
        assert_eq!(
            plan.grant.threads, 2,
            "8-thread raise ÷ 4 shards, floored at policy threads"
        );
        // A single-shard round keeps the full raise.
        let plan = gov.plan(&LoadView {
            fractions: vec![0.5],
            inserted: vec![],
            delta_tuples: 0,
            memory: MemoryReport::default(),
            max_concurrent: 4,
        });
        assert_eq!(plan.grant.threads, 8, "one merge may take the machine");
    }

    #[test]
    fn per_shard_write_rates_boost_merge_priority() {
        // Two eligible shards; the one with the *lower* fraction absorbs a
        // write hot-spot. Pure-fraction ranking would merge shard 1 first;
        // the rate boost must put the hot shard 0 first.
        let gov = ResourceGovernor::new(config());
        let mem = MemoryReport::default();
        // Window 1: establish per-shard counters.
        let _ = gov.plan(&LoadView {
            fractions: vec![0.10, 0.12],
            inserted: vec![0, 0],
            delta_tuples: 0,
            memory: mem,
            max_concurrent: 1,
        });
        std::thread::sleep(Duration::from_millis(20));
        // Window 2: shard 0 inserted a flood, shard 1 nothing.
        let plan = gov.plan(&LoadView {
            fractions: vec![0.10, 0.12],
            inserted: vec![10_000_000, 0],
            delta_tuples: 0,
            memory: mem,
            max_concurrent: 1,
        });
        assert_eq!(
            plan.selected,
            vec![0],
            "the write-hot shard outranks the slightly larger backlog"
        );
        // With no counters at all, ranking stays pure-fraction.
        let plan = gov.plan(&LoadView {
            fractions: vec![0.10, 0.12],
            inserted: vec![],
            delta_tuples: 0,
            memory: mem,
            max_concurrent: 1,
        });
        assert_eq!(plan.selected, vec![1]);
    }

    #[test]
    fn write_pressure_makes_the_trigger_more_eager() {
        // fraction 0.04 < trigger 0.05, but a heavy write window multiplies
        // it past the trigger.
        let signals = LoadSignals {
            write_tuples_per_sec: rate::HIGH_TARGET_UPDATES_PER_SEC,
            ..LoadSignals::default()
        };
        assert!(ResourceGovernor::pressure_factor(&signals) >= 2.0);
        let quiet = LoadSignals::default();
        assert_eq!(ResourceGovernor::pressure_factor(&quiet), 1.0);

        let gov = ResourceGovernor::new(config());
        let mem = MemoryReport::default();
        // Window 1: establish a baseline with an empty delta.
        let _ = gov.plan(&LoadView {
            fractions: vec![0.04],
            inserted: vec![],
            delta_tuples: 0,
            memory: mem,
            max_concurrent: 1,
        });
        std::thread::sleep(Duration::from_millis(20));
        // Window 2: the delta grew by far more than HIGH_TARGET × window.
        let plan = gov.plan(&LoadView {
            fractions: vec![0.04],
            inserted: vec![],
            delta_tuples: 1_000_000,
            memory: mem,
            max_concurrent: 1,
        });
        assert!(
            plan.signals.write_tuples_per_sec > rate::HIGH_TARGET_UPDATES_PER_SEC,
            "delta growth rate {}",
            plan.signals.write_tuples_per_sec
        );
        assert_eq!(plan.signals.write_load, WriteLoad::Heavy);
        assert_eq!(
            plan.selected,
            vec![0],
            "sub-trigger fraction becomes eligible under write pressure"
        );
    }

    #[test]
    fn merged_tuples_are_credited_back_to_the_window() {
        let gov = ResourceGovernor::new(config());
        let mem = MemoryReport::default();
        let _ = gov.plan(&LoadView {
            fractions: vec![0.0],
            inserted: vec![],
            delta_tuples: 1_000,
            memory: mem,
            max_concurrent: 1,
        });
        // A merge drained 1_000 delta rows (a 3-column table would report
        // tuples_moved = 3_000 — the governor must credit back *rows*, the
        // unit delta lengths are measured in); 500 new rows arrived (delta
        // shows 500): the window's insert count must be 500, not -500, and
        // not inflated by the column count.
        gov.record_outcome(&MergeOutcome {
            tuples_moved: 3_000,
            rows_moved: 1_000,
            wall: Duration::from_millis(5),
            stages: Default::default(),
        });
        std::thread::sleep(Duration::from_millis(10));
        let plan = gov.plan(&LoadView {
            fractions: vec![0.0],
            inserted: vec![],
            delta_tuples: 500,
            memory: mem,
            max_concurrent: 1,
        });
        let secs_lo = 0.005; // at least the sleep, minus timer slack
        assert!(
            plan.signals.write_tuples_per_sec > 0.0
                && plan.signals.write_tuples_per_sec < 500.0 / secs_lo,
            "rate {} must reflect ~500 inserts (not a negative window)",
            plan.signals.write_tuples_per_sec
        );
        assert!(plan.signals.sustained_updates_per_sec > 0.0);
    }

    #[test]
    fn trace_ring_is_bounded() {
        let gov = ResourceGovernor::new(config());
        let view = LoadView {
            fractions: vec![1.0],
            inserted: vec![],
            delta_tuples: 0,
            memory: MemoryReport::default(),
            max_concurrent: 1,
        };
        for _ in 0..(TRACE_CAP + 20) {
            let _ = gov.plan(&view);
        }
        let trace = gov.recent_grants();
        assert_eq!(trace.len(), TRACE_CAP);
        // Display is stable enough to print in harnesses.
        let line = trace[0].to_string();
        assert!(line.contains("f=1.000"), "{line}");
    }

    #[test]
    fn read_guard_counts_start_and_finish() {
        let before = read_load();
        let g = begin_read();
        let during = read_load();
        assert!(during.started > before.started);
        drop(g);
        let after = read_load();
        assert!(after.finished > before.finished);
        assert!(after.finished <= after.started);
    }
}
