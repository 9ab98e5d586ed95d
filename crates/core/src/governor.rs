//! The resource governor: per-round [`MergeGrant`]s and merge eligibility
//! from live write and memory pressure.
//!
//! Section 9's scheduling hook — "a scheduling algorithm could constantly
//! analyze the available bandwidth and thus adjust the degree of
//! parallelization for the merge process" — is a feedback loop: sample what
//! the workload is doing, then decide which sources merge now and under
//! which grant. The [`ResourceGovernor`] samples two signal families per
//! poll round:
//!
//! * **Write pressure** — the merge source's delta growth between polls
//!   (insert tuples/second, corrected for tuples the merges of the window
//!   moved out), with Equation 1 ([`rate::update_rate`]) reporting the
//!   window's *sustained* rate.
//! * **Memory pressure** — [`MemoryReport`] accounting over the source's
//!   partitions against a configured soft limit.
//!
//! The decision table (see [`GrantSignal`]):
//!
//! | signal            | strategy | threads  | budget K          |
//! |-------------------|----------|----------|-------------------|
//! | memory pressure   | policy's | policy's | `pressure_budget` |
//! | baseline          | policy's | policy's | policy's          |
//!
//! Under memory pressure the budget (not the algorithm) is the lever —
//! K-column commits cap the transient ~2x working set. Every other round
//! runs the policy's own grant, so the grant a deployment serves is the one
//! its [`MergePolicy`] states.
//!
//! Eligibility is where the load signals act: source `i` merges when
//! `fraction_i × pressure > policy.delta_fraction`, with a pressure factor
//! ≥ 1 that grows with the write rate (against the paper's Section 4 high
//! target) and with memory pressure. A pressured system therefore merges
//! *earlier* than the static trigger and never later, so a governed
//! scheduler bounds the delta at least as tightly as its policy. Eligible
//! sources rank by delta fraction, worst first, and at most
//! `max_concurrent` of them are selected.
//!
//! Every decision lands in a bounded ring ([`ResourceGovernor::recent_grants`])
//! so schedulers expose *why* each merge ran the way it did; the
//! `shard_scalability` harness prints that trace next to its per-stage
//! columns.

use crate::manager::MergePolicy;
use crate::pipeline::{MergeBudget, MergeGrant, MergeStrategy};
use crate::rate;
use crate::scheduler::MergeOutcome;
use hyrise_storage::MemoryReport;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Read counters
// ---------------------------------------------------------------------------

/// Queries started, process-wide. Monotonic; readers difference
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
/// every executor entry point. Registration is once per *query*: fan-out
/// executors hold one guard across their per-shard engine runs and morsel
/// workers never register, so the counters track query arrival. The
/// server reports the in-flight count in its stats; no merge decision
/// reads it.
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
/// [`GovernorConfig::from_policy`] (the static policy's trigger and grant,
/// memory pressure off) and set a soft limit from there; the README's
/// governor section walks through the knobs.
#[derive(Clone, Debug)]
pub struct GovernorConfig {
    /// The trigger fraction and the grant every unpressured round runs.
    pub policy: MergePolicy,
    /// Soft cap on the source's total bytes ([`MemoryReport::total`]);
    /// above it the governor shrinks the merge budget to
    /// [`Self::pressure_budget`]. `usize::MAX` disables the signal.
    pub memory_soft_limit: usize,
    /// The column budget granted under memory pressure (default: one
    /// column at a time — the paper's Section 4 partial-column strategy at
    /// its tightest).
    pub pressure_budget: MergeBudget,
}

impl GovernorConfig {
    /// A governor configuration that keeps `policy`'s trigger and grant,
    /// with memory pressure disabled.
    pub fn from_policy(policy: MergePolicy) -> Self {
        Self {
            policy,
            memory_soft_limit: usize::MAX,
            pressure_budget: MergeBudget::columns(1),
        }
    }

    /// Builder-style soft memory limit (bytes).
    pub fn with_memory_soft_limit(mut self, bytes: usize) -> Self {
        self.memory_soft_limit = bytes;
        self
    }

    /// Builder-style memory-pressure budget.
    pub fn with_pressure_budget(mut self, budget: MergeBudget) -> Self {
        self.pressure_budget = budget;
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
    /// Tuples per second entering the delta over the window (delta growth
    /// corrected for tuples the window's merges moved out).
    pub write_tuples_per_sec: f64,
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
}

/// Which row of the decision table produced a grant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GrantSignal {
    /// No signal fired: the policy's own grant.
    Baseline,
    /// Total bytes above the soft limit: budget shrunk to the pressure
    /// budget.
    MemoryPressure,
}

impl std::fmt::Display for GrantSignal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GrantSignal::Baseline => write!(f, "baseline"),
            GrantSignal::MemoryPressure => write!(f, "mem-pressure"),
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
            delta_tuples: 0,
            memory: MemoryReport::default(),
            max_concurrent,
        };
        for s in sources {
            view.fractions.push(s.delta_fraction());
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
    /// The grant for every merge of this round.
    pub grant: MergeGrant,
    /// Why the grant looks the way it does.
    pub signal: GrantSignal,
    /// The signals the decision was made from.
    pub signals: LoadSignals,
}

/// Sliding window state between polls.
struct GovState {
    last_poll: Option<Instant>,
    last_delta_tuples: usize,
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
                last_delta_tuples: 0,
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
        } else {
            (base, GrantSignal::Baseline)
        }
    }

    /// The eagerness multiplier: ≥ 1, growing with write and memory
    /// pressure, so a pressured system merges *earlier* than the static
    /// trigger and an idle one merges exactly at it.
    fn pressure_factor(signals: &LoadSignals) -> f64 {
        let write = (signals.write_tuples_per_sec / rate::HIGH_TARGET_UPDATES_PER_SEC).min(4.0);
        let memory = if signals.memory_pressure { 1.0 } else { 0.0 };
        1.0 + write + memory
    }

    /// Whether a source at `fraction` may merge this round:
    /// `fraction × pressure > policy.delta_fraction`.
    fn eligible(config: &GovernorConfig, signals: &LoadSignals, fraction: f64) -> bool {
        fraction * Self::pressure_factor(signals) > config.policy.delta_fraction
    }

    /// One poll round: fold the window's counters into [`LoadSignals`],
    /// select the eligible sources worst delta fraction first, and emit
    /// the round's grant. Records a [`GrantRecord`] in the trace ring
    /// whenever at least one source is selected.
    pub fn plan(&self, view: &LoadView) -> RoundPlan {
        let now = Instant::now();
        let signals = {
            let mut st = self.state.lock();
            let elapsed = st
                .last_poll
                .map(|t| now.duration_since(t))
                .unwrap_or(Duration::ZERO);
            // Tuples that *entered* the deltas this window: net growth plus
            // whatever the window's merges moved out.
            let inserted = (view.delta_tuples as i64 - st.last_delta_tuples as i64
                + st.window_merged_rows as i64)
                .max(0) as u64;
            let (write_tuples_per_sec, sustained) = if st.last_poll.is_some() {
                (
                    inserted as f64 / elapsed.as_secs_f64().max(1e-6),
                    rate::update_rate(inserted as usize, elapsed, st.window_merge_wall),
                )
            } else {
                // First poll: no window yet — report a quiet baseline.
                (0.0, 0.0)
            };
            let signals = LoadSignals {
                write_tuples_per_sec,
                sustained_updates_per_sec: if sustained.is_finite() {
                    sustained
                } else {
                    0.0
                },
                memory_bytes: view.memory.total(),
                delta_bytes: view.memory.delta_total(),
                memory_pressure: view.memory.total() > self.config.memory_soft_limit,
            };
            st.last_poll = Some(now);
            st.last_delta_tuples = view.delta_tuples;
            st.window_merged_rows = 0;
            st.window_merge_wall = Duration::ZERO;
            st.last_signals = signals;
            signals
        };

        let (grant, signal) = Self::decide(&self.config, &signals);
        let mut ranked: Vec<(usize, f64)> = view
            .fractions
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, f)| Self::eligible(&self.config, &signals, f))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        ranked.truncate(view.max_concurrent.max(1));
        let selected: Vec<usize> = ranked.iter().map(|&(i, _)| i).collect();

        if let Some(&(_, worst)) = ranked.first() {
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
            strategy: MergeStrategy::Naive,
            ..MergePolicy::default()
        })
    }

    #[test]
    fn decision_table_rows_fire_in_priority_order() {
        let cfg = config().with_memory_soft_limit(1 << 20);
        // Memory pressure shrinks the budget and keeps the rest of the
        // policy's grant, whatever the write rate.
        let mut s = LoadSignals {
            memory_pressure: true,
            write_tuples_per_sec: 1e6,
            ..LoadSignals::default()
        };
        let (g, sig) = ResourceGovernor::decide(&cfg, &s);
        assert_eq!(sig, GrantSignal::MemoryPressure);
        assert_eq!(g, cfg.policy.grant().budget(cfg.pressure_budget));
        assert_eq!(g.threads, 4, "memory pressure keeps the policy threads");
        assert_eq!(g.strategy, MergeStrategy::Naive);

        // Otherwise the policy's own grant, at any write rate.
        s.memory_pressure = false;
        for rate in [0.0, 1e6] {
            s.write_tuples_per_sec = rate;
            let (g, sig) = ResourceGovernor::decide(&cfg, &s);
            assert_eq!(sig, GrantSignal::Baseline);
            assert_eq!(g, cfg.policy.grant());
        }
    }

    #[test]
    fn pressure_factor_eligibility_boundaries() {
        // Eligible iff fraction > trigger / (1 + min(r / 18 000, 4) + m),
        // m = 1 under memory pressure. Each case probes just below and just
        // above that threshold.
        let cfg = config();
        let trigger = cfg.policy.delta_fraction;
        for rate in [0.0, 18_000.0, 72_000.0, 1e6] {
            for memory_pressure in [false, true] {
                let signals = LoadSignals {
                    write_tuples_per_sec: rate,
                    memory_pressure,
                    ..LoadSignals::default()
                };
                let factor = 1.0
                    + (rate / rate::HIGH_TARGET_UPDATES_PER_SEC).min(4.0)
                    + if memory_pressure { 1.0 } else { 0.0 };
                let threshold = trigger / factor;
                let case = format!("rate {rate}, memory pressure {memory_pressure}");
                assert!(
                    !ResourceGovernor::eligible(&cfg, &signals, threshold * (1.0 - 1e-9)),
                    "just below the threshold is not eligible: {case}"
                );
                assert!(
                    ResourceGovernor::eligible(&cfg, &signals, threshold * (1.0 + 1e-9)),
                    "just above the threshold is eligible: {case}"
                );
            }
        }
    }

    #[test]
    fn plan_detects_memory_pressure_and_shrinks_the_budget() {
        let gov = ResourceGovernor::new(config().with_memory_soft_limit(1_000));
        let view = LoadView {
            fractions: vec![0.5],
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
            delta_tuples: 0,
            memory: mem,
            max_concurrent: 1,
        });
        std::thread::sleep(Duration::from_millis(20));
        // Window 2: the delta grew by far more than HIGH_TARGET × window.
        let plan = gov.plan(&LoadView {
            fractions: vec![0.04],
            delta_tuples: 1_000_000,
            memory: mem,
            max_concurrent: 1,
        });
        assert!(
            plan.signals.write_tuples_per_sec > rate::HIGH_TARGET_UPDATES_PER_SEC,
            "delta growth rate {}",
            plan.signals.write_tuples_per_sec
        );
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
