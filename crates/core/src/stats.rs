//! Merge instrumentation: the per-step timings the paper's figures plot.
//!
//! Figure 7/8 stack three bars per configuration — "Update Delta",
//! "Merge-Step1" and "Merge-Step2" — measured in *cycles per tuple* where the
//! tuple count is `N_M + N_D` (Section 7: "Update Cost is defined as the
//! amortized time taken per tuple per column").

use crate::pipeline::MergeStrategy;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

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

/// Sizes and per-step wall times for one column's merge.
#[derive(Clone, Debug)]
pub struct ColumnMergeStats {
    /// Which algorithm ran.
    pub algo: MergeStrategy,
    /// Pool width **granted** to the merge (1 for serial algorithms). The
    /// parallel stages may cut fewer partitions than this: each stage
    /// clamps to the shared pool's size and falls back toward serial
    /// below its per-partition work crossover
    /// (`hyrise_core::pipeline`'s team-sizing heuristic). Use
    /// `MergePipeline::exact` when a figure or ablation must run the
    /// granted count literally.
    pub threads: usize,
    /// Tuples in the old main partition (`N_M`).
    pub n_m: usize,
    /// Tuples in the delta partition (`N_D`).
    pub n_d: usize,
    /// Old main dictionary size (`|U_M|`).
    pub u_m: usize,
    /// Delta dictionary size (`|U_D|`).
    pub u_d: usize,
    /// Merged dictionary size (`|U'_M|`).
    pub u_merged: usize,
    /// Compressed value-length before the merge (`E_C`, bits).
    pub bits_before: u8,
    /// Compressed value-length after the merge (`E'_C`, bits).
    pub bits_after: u8,
    /// Main rows whose packed words Stage 2 copied instead of re-encoding:
    /// full blocks whose codes `X_M` leaves in place, at an unchanged code
    /// width. Zero under [`MergeStrategy::Naive`].
    pub rows_copied: usize,
    /// Leading `U_M` entries Stage 1b copied instead of merging: those
    /// below every delta value. Zero under [`MergeStrategy::Naive`].
    pub dict_prefix: usize,
    /// Step 1(a): the delta's compression into a sorted dictionary plus
    /// codes. It runs at freeze, before the pipeline, so
    /// [`crate::MergePipeline::merge_column`] reports zero; a caller that
    /// times the freeze records it here.
    pub t_step1a: Duration,
    /// Step 1(b): dictionary merge (+ auxiliary tables when optimized).
    pub t_step1b: Duration,
    /// Step 2: appending and re-encoding all tuples.
    pub t_step2: Duration,
}

impl ColumnMergeStats {
    /// Total tuples processed (`N'_M = N_M + N_D`).
    pub fn total_tuples(&self) -> usize {
        self.n_m + self.n_d
    }

    /// Step 1 = 1(a) + 1(b).
    pub fn t_step1(&self) -> Duration {
        self.t_step1a + self.t_step1b
    }

    /// Total merge time `T_M` for this column.
    pub fn t_total(&self) -> Duration {
        self.t_step1a + self.t_step1b + self.t_step2
    }

    /// Cycles per tuple for the whole merge at clock `hz`.
    pub fn cycles_per_tuple(&self, hz: f64) -> f64 {
        cycles_per_tuple(self.t_total(), self.total_tuples(), hz)
    }

    /// Cycles per tuple for Step 1 at clock `hz`.
    pub fn step1_cycles_per_tuple(&self, hz: f64) -> f64 {
        cycles_per_tuple(self.t_step1(), self.total_tuples(), hz)
    }

    /// Cycles per tuple for Step 2 at clock `hz`.
    pub fn step2_cycles_per_tuple(&self, hz: f64) -> f64 {
        cycles_per_tuple(self.t_step2, self.total_tuples(), hz)
    }
}

/// Convert a duration over `tuples` into cycles/tuple at clock `hz`.
pub fn cycles_per_tuple(t: Duration, tuples: usize, hz: f64) -> f64 {
    if tuples == 0 {
        0.0
    } else {
        t.as_secs_f64() * hz / tuples as f64
    }
}

/// Per-stage wall time aggregated over a merge — the breakdown the paper's
/// Figure 7/8 stacked bars plot ("Update Delta" aside): Stage 1a (delta
/// dictionary), Stage 1b (dictionary union + aux tables), Stage 2
/// (re-encode).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Stage 1a: delta dictionary extraction (+ delta re-coding).
    pub step1a: Duration,
    /// Stage 1b: dictionary union (+ auxiliary tables).
    pub step1b: Duration,
    /// Stage 2: appending and re-encoding all tuples.
    pub step2: Duration,
}

impl StageTimings {
    /// Sum of all stages.
    pub fn total(&self) -> Duration {
        self.step1a + self.step1b + self.step2
    }

    /// Accumulate one column's stage times.
    pub fn add_column(&mut self, c: &ColumnMergeStats) {
        self.step1a += c.t_step1a;
        self.step1b += c.t_step1b;
        self.step2 += c.t_step2;
    }
}

impl std::ops::AddAssign for StageTimings {
    fn add_assign(&mut self, rhs: Self) {
        self.step1a += rhs.step1a;
        self.step1b += rhs.step1b;
        self.step2 += rhs.step2;
    }
}

/// A merged main partition plus its stats.
pub struct MergeOutput<M> {
    /// The new main partition (`M'` with dictionary `U'_M`).
    pub main: M,
    /// Per-step measurements.
    pub stats: ColumnMergeStats,
}

/// Aggregated stats for a whole-table merge (`N_C` columns).
#[derive(Clone, Debug, Default)]
pub struct TableMergeStats {
    /// One entry per merged column.
    pub columns: Vec<ColumnMergeStats>,
    /// Wall-clock time for the whole table merge (`T_M` of Equation 1).
    pub t_wall: Duration,
    /// Most merged-but-uncommitted columns held at any point — `N_C` for an
    /// unbudgeted merge, at most the budget's `K` otherwise.
    pub peak_columns_in_flight: usize,
    /// Peak extra heap bytes held in uncommitted merged outputs (the
    /// merge's transient memory cost on top of the live table).
    pub peak_extra_bytes: usize,
}

impl TableMergeStats {
    /// Fold a later session of the same merge call into these stats:
    /// columns appended, wall times summed, peaks kept.
    pub(crate) fn absorb(&mut self, later: TableMergeStats) {
        self.columns.extend(later.columns);
        self.t_wall += later.t_wall;
        self.peak_columns_in_flight = self
            .peak_columns_in_flight
            .max(later.peak_columns_in_flight);
        self.peak_extra_bytes = self.peak_extra_bytes.max(later.peak_extra_bytes);
    }

    /// Per-stage times summed over all merged columns.
    pub fn stage_timings(&self) -> StageTimings {
        let mut t = StageTimings::default();
        for c in &self.columns {
            t.add_column(c);
        }
        t
    }

    /// Sum of per-column step-1 times.
    pub fn t_step1_sum(&self) -> Duration {
        self.columns.iter().map(|c| c.t_step1()).sum()
    }

    /// Sum of per-column step-2 times.
    pub fn t_step2_sum(&self) -> Duration {
        self.columns.iter().map(|c| c.t_step2).sum()
    }

    /// Total tuples merged across columns.
    pub fn total_tuples(&self) -> usize {
        self.columns.iter().map(|c| c.total_tuples()).sum()
    }

    /// Amortized cycles per tuple per column over the wall time.
    pub fn update_cost_cpt(&self, hz: f64) -> f64 {
        cycles_per_tuple(self.t_wall, self.total_tuples(), hz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(ms1a: u64, ms1b: u64, ms2: u64) -> ColumnMergeStats {
        ColumnMergeStats {
            algo: MergeStrategy::Optimized,
            threads: 1,
            n_m: 900,
            n_d: 100,
            u_m: 90,
            u_d: 30,
            u_merged: 100,
            bits_before: 7,
            bits_after: 7,
            rows_copied: 0,
            dict_prefix: 0,
            t_step1a: Duration::from_millis(ms1a),
            t_step1b: Duration::from_millis(ms1b),
            t_step2: Duration::from_millis(ms2),
        }
    }

    #[test]
    fn totals_add_up() {
        let s = stats(1, 2, 7);
        assert_eq!(s.total_tuples(), 1000);
        assert_eq!(s.t_step1(), Duration::from_millis(3));
        assert_eq!(s.t_total(), Duration::from_millis(10));
    }

    #[test]
    fn cycles_per_tuple_matches_hand_calc() {
        let s = stats(0, 0, 10); // 10ms for 1000 tuples
                                 // at 1 GHz: 10ms = 1e7 cycles / 1000 tuples = 1e4 cpt
        assert!((s.cycles_per_tuple(1e9) - 1e4).abs() < 1.0);
        assert!((s.step2_cycles_per_tuple(1e9) - 1e4).abs() < 1.0);
        assert_eq!(s.step1_cycles_per_tuple(1e9), 0.0);
    }

    #[test]
    fn zero_tuples_is_zero_cost() {
        assert_eq!(cycles_per_tuple(Duration::from_secs(1), 0, 3.3e9), 0.0);
    }

    #[test]
    fn table_stats_aggregate() {
        let t = TableMergeStats {
            columns: vec![stats(1, 1, 3), stats(2, 2, 6)],
            t_wall: Duration::from_millis(15),
            ..Default::default()
        };
        assert_eq!(t.total_tuples(), 2000);
        assert_eq!(t.t_step1_sum(), Duration::from_millis(6));
        assert_eq!(t.t_step2_sum(), Duration::from_millis(9));
        let st = t.stage_timings();
        assert_eq!(st.step1a, Duration::from_millis(3));
        assert_eq!(st.step1b, Duration::from_millis(3));
        assert_eq!(st.step2, Duration::from_millis(9));
        assert_eq!(st.total(), Duration::from_millis(15));
        // 15ms at 1GHz over 2000 tuples = 7500 cpt
        assert!((t.update_cost_cpt(1e9) - 7500.0).abs() < 1.0);
    }
}
