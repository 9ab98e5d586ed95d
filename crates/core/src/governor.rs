//! The resource governor: merge eligibility from the write rate, and each
//! merge's [`MergeGrant`] from memory pressure.
//!
//! Section 9's scheduling hook — "a scheduling algorithm could constantly
//! analyze the available bandwidth and thus adjust the degree of
//! parallelization for the merge process" — is a feedback loop. The
//! [`ResourceGovernor`] answers the scheduler's two questions from what is
//! sampled when each is asked:
//!
//! * **Is this table due?** Asked by the write that grew it: yes when
//!   `fraction × pressure > policy.delta_fraction`, with a pressure factor
//!   `1 + min(rate / 18 000, 4)` that grows with the write rate the
//!   scheduler measured since the table's last merge (against the paper's
//!   Section 4 high target). A table under heavy writes therefore merges
//!   *earlier* than the static trigger and never later, so a governed
//!   scheduler bounds the delta at least as tightly as its policy.
//! * **Under which grant?** Asked when a merge thread takes the table
//!   off the queue, with memory pressure = [`MemoryReport`] total of the
//!   scheduler's tables above a configured soft limit:
//!
//! | signal            | strategy | threads  | budget K          |
//! |-------------------|----------|----------|-------------------|
//! | memory pressure   | policy's | policy's | `pressure_budget` |
//! | baseline          | policy's | policy's | policy's          |
//!
//! Under memory pressure the budget (not the algorithm) is the lever —
//! K-column commits cap the transient ~2x working set. Every other merge
//! runs the policy's own grant, so the grant a deployment serves is the one
//! its [`MergePolicy`] states.
//!
//! Every decision lands in a bounded ring ([`ResourceGovernor::recent_grants`])
//! so schedulers expose *why* each merge ran the way it did; the
//! `shard_scalability` harness prints that trace next to its per-stage
//! columns.

use crate::manager::MergePolicy;
use crate::pipeline::{MergeBudget, MergeGrant, MergeStrategy};
use crate::rate;
use hyrise_storage::MemoryReport;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

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
    /// The trigger fraction and the grant every unpressured merge runs.
    pub policy: MergePolicy,
    /// Soft cap on the scheduler's total bytes ([`MemoryReport::total`]);
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
// Decisions
// ---------------------------------------------------------------------------

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
    /// The merged table's delta fraction at decision time.
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

/// Decisions kept in the trace ring.
const TRACE_CAP: usize = 64;

/// The most the write rate raises the pressure factor above 1.
const MAX_RAISE: f64 = 4.0;

/// The decision core the scheduler consults. See the module docs for the
/// eligibility rule and decision table.
pub struct ResourceGovernor {
    config: GovernorConfig,
    trace: Mutex<VecDeque<GrantRecord>>,
}

impl ResourceGovernor {
    /// A governor over `config`.
    pub fn new(config: GovernorConfig) -> Self {
        Self {
            config,
            trace: Mutex::new(VecDeque::new()),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GovernorConfig {
        &self.config
    }

    /// The pure decision table: memory pressure in, grant out. Exposed so
    /// tests (and tools) can probe decisions without constructing real
    /// load.
    pub fn decide(config: &GovernorConfig, memory_pressure: bool) -> (MergeGrant, GrantSignal) {
        let base = config.policy.grant();
        if memory_pressure {
            (
                base.budget(config.pressure_budget),
                GrantSignal::MemoryPressure,
            )
        } else {
            (base, GrantSignal::Baseline)
        }
    }

    /// The eagerness multiplier: ≥ 1, growing with the write rate, so a
    /// written-to table merges *earlier* than the static trigger and an
    /// idle one merges exactly at it.
    fn pressure_factor(write_rows_per_sec: f64) -> f64 {
        1.0 + (write_rows_per_sec / rate::HIGH_TARGET_UPDATES_PER_SEC).min(MAX_RAISE)
    }

    /// Whether a table at delta `fraction`, written at
    /// `write_rows_per_sec`, is due: `fraction × pressure >
    /// policy.delta_fraction`.
    pub fn eligible(&self, fraction: f64, write_rows_per_sec: f64) -> bool {
        fraction * Self::pressure_factor(write_rows_per_sec) > self.config.policy.delta_fraction
    }

    /// The delta fraction at or below which no write rate makes a table
    /// due: the trigger over the largest pressure factor.
    pub fn due_floor(&self) -> f64 {
        self.config.policy.delta_fraction / (1.0 + MAX_RAISE)
    }

    /// The grant for one merge of a table at delta `fraction`, given the
    /// scheduler's `memory` now. Records a [`GrantRecord`] in the trace
    /// ring.
    pub fn plan(&self, memory: &MemoryReport, fraction: f64) -> MergeGrant {
        let pressured = memory.total() > self.config.memory_soft_limit;
        let (grant, signal) = Self::decide(&self.config, pressured);
        let mut trace = self.trace.lock();
        if trace.len() == TRACE_CAP {
            trace.pop_front();
        }
        trace.push_back(GrantRecord {
            strategy: grant.strategy,
            threads: grant.threads,
            budget_columns: grant.budget.max_columns(),
            signal,
            delta_fraction: fraction,
        });
        grant
    }

    /// The bounded trace of recent grant decisions, oldest first (at most
    /// 64 entries, one per merge).
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
        // policy's grant.
        let (g, sig) = ResourceGovernor::decide(&cfg, true);
        assert_eq!(sig, GrantSignal::MemoryPressure);
        assert_eq!(g, cfg.policy.grant().budget(cfg.pressure_budget));
        assert_eq!(g.threads, 4, "memory pressure keeps the policy threads");
        assert_eq!(g.strategy, MergeStrategy::Naive);

        // Otherwise the policy's own grant.
        let (g, sig) = ResourceGovernor::decide(&cfg, false);
        assert_eq!(sig, GrantSignal::Baseline);
        assert_eq!(g, cfg.policy.grant());
    }

    #[test]
    fn pressure_factor_eligibility_boundaries() {
        // Eligible iff fraction > trigger / (1 + min(r / 18 000, 4)). Each
        // case probes just below and just above that threshold; memory
        // pressure acts on the grant, never on eligibility.
        for soft_limit in [usize::MAX, 0] {
            let gov = ResourceGovernor::new(config().with_memory_soft_limit(soft_limit));
            let trigger = gov.config().policy.delta_fraction;
            for rate in [0.0, 18_000.0, 72_000.0, 1e6] {
                let factor = 1.0 + (rate / rate::HIGH_TARGET_UPDATES_PER_SEC).min(4.0);
                let threshold = trigger / factor;
                let case = format!("rate {rate}, soft limit {soft_limit}");
                assert!(
                    !gov.eligible(threshold * (1.0 - 1e-9), rate),
                    "just below the threshold is not eligible: {case}"
                );
                assert!(
                    gov.eligible(threshold * (1.0 + 1e-9), rate),
                    "just above the threshold is eligible: {case}"
                );
            }
            // The floor writes skip the scheduler below: no rate makes it
            // due, and the top rate makes anything above it due.
            let floor = gov.due_floor();
            assert!(!gov.eligible(floor, f64::MAX));
            assert!(gov.eligible(floor * (1.0 + 1e-9), f64::MAX));
        }
    }

    #[test]
    fn plan_detects_memory_pressure_and_shrinks_the_budget() {
        let gov = ResourceGovernor::new(config().with_memory_soft_limit(1_000));
        let calm = MemoryReport {
            delta_values: 1_000,
            ..MemoryReport::default()
        };
        assert_eq!(gov.plan(&calm, 0.5), gov.config().policy.grant());
        let over = MemoryReport {
            delta_values: 4_000,
            ..MemoryReport::default()
        };
        let grant = gov.plan(&over, 0.5);
        assert_eq!(grant.budget, gov.config().pressure_budget);
        let trace = gov.recent_grants();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].signal, GrantSignal::Baseline);
        assert_eq!(trace[1].signal, GrantSignal::MemoryPressure);
        assert_eq!(
            trace[1].budget_columns,
            gov.config().pressure_budget.max_columns()
        );
    }

    #[test]
    fn write_pressure_makes_the_trigger_more_eager() {
        assert_eq!(ResourceGovernor::pressure_factor(0.0), 1.0);
        assert!(ResourceGovernor::pressure_factor(rate::HIGH_TARGET_UPDATES_PER_SEC) >= 2.0);
        assert_eq!(ResourceGovernor::pressure_factor(1e9), 5.0, "capped at 5x");
        // fraction 0.04 < trigger 0.05: an idle table waits, a heavily
        // written one is due.
        let gov = ResourceGovernor::new(config());
        assert!(!gov.eligible(0.04, 0.0));
        assert!(gov.eligible(0.04, rate::HIGH_TARGET_UPDATES_PER_SEC));
    }

    #[test]
    fn trace_ring_is_bounded() {
        let gov = ResourceGovernor::new(config());
        for _ in 0..(TRACE_CAP + 20) {
            let _ = gov.plan(&MemoryReport::default(), 1.0);
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
