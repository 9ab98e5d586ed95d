//! The unified merge pipeline: every merge path in the system — naive,
//! optimized, multi-core, online, incremental, sharded — runs through the
//! three explicit stages of this module.
//!
//! * **Stage 1a** — delta compression: the sorted `U_D` plus the delta
//!   rewritten as fixed-width codes into it (Section 5.3's "Modified Step
//!   1(a)"). It runs before the pipeline, when the delta is frozen:
//!   [`FrozenDelta::from_values`] is the one encoder, so the merge's input
//!   is already the compressed delta and the pipeline only narrates the
//!   stage boundary.
//! * **Stage 1b** — dictionary union: the merged `U'_M`, plus the auxiliary
//!   translation tables `X_M`/`X_D` for the optimized/parallel strategies.
//! * **Stage 2** — bit-packed re-encode: **one** kernel
//!   ([`MergePipeline::merge_column`]'s `reencode`) writes the new code
//!   column for every strategy; the strategies differ only in the per-tuple
//!   code map (binary search in `U'_M` for [`MergeStrategy::Naive`], an
//!   `X_M`/`X_D` table lookup for the others) and in how many threads fill
//!   word-aligned output regions.
//!
//! Under the two `X_M` strategies both stages copy what the delta does not
//! move. Stage 1b copies the `f0` entries of `U_M` below every delta value
//! into `U'_M` (and the identity into `X_M`), then unions the rest. Stage 2
//! finds `F`, the first code `X_M` moves, by one binary search (`X_M[i] -
//! i` never decreases); when the code width holds, every full main block
//! whose zone-map maximum is below `F` keeps its codes, so its words are
//! copied and its carried zone is already exact. The input selects the
//! copies ([`ColumnMergeStats::dict_prefix`],
//! [`ColumnMergeStats::rows_copied`]); [`MergeStrategy::Naive`] never
//! copies and is the byte-identity reference.
//!
//! The pipeline is allocation-aware: a [`MergeScratch`] arena owns every
//! intermediate buffer (`X_M`, `X_D`) and draws from a [`SpareBank`] of
//! spare buffers for the outputs that outlive the merge (the merged
//! dictionary's value vector, the packed code words and the zone map).
//! Callers that recycle retired main partitions back into the scratch
//! ([`MergeScratch::recycle_main`]) reach a steady state where a merge
//! performs **no heap allocation** for dictionary/aux/output buffers —
//! directly attacking the ~2x peak-memory cost of online reorganization
//! that Section 4 (and the Cambridge Report) charge the merge with.
//!
//! [`MergeBudget`] bounds the other half of that cost at the table level:
//! instead of materializing all `N_C` merged columns before one atomic
//! commit, a budget of `K` columns merges and commits `K` columns at a time
//! (the paper's Section 4 partial-column strategy), capping peak extra
//! memory at the largest `K`-column working set. See
//! [`crate::manager::OnlineTable::merge_with`].

use crate::pool::Pool;
use crate::stats::{ColumnMergeStats, MergeOutput};
use hyrise_bitpack::{bits_for, BitPackedVec, BitRegion};
use hyrise_storage::{Dictionary, FrozenDelta, MainPartition, Value, ZONE_ROWS};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Minimum work items per partition. Handing a partition to a pool worker
/// costs a queue push, a wake-up and a cold cache; granting one fewer
/// elements than this loses more to that hand-off than parallelism gains.
pub(crate) const MIN_DICT_PER_THREAD: usize = 128 * 1024;
pub(crate) const MIN_TUPLES_PER_THREAD: usize = 64 * 1024;

/// Partitions actually worth cutting `work` items into.
///
/// Two clamps compose here:
/// * **Crossover** — below `min_per_thread` items per partition, hand-off
///   overhead exceeds the parallel gain, so the team shrinks (possibly to
///   1 = serial).
/// * **Pool size** — the requested count is capped at the shared pool's
///   worker count. Cutting 8 partitions on a 2-worker pool time-slices the
///   three-phase dictionary merge and the partitioned Step 2 without any
///   extra hardware parallelism, which measured *slower than serial*
///   (`dict_merge/parallel/N` vs `dict_merge/serial`); oversubscription
///   never helps a compute-bound merge.
///
/// The result never exceeds `requested`, so the stages pass it to
/// [`Pool::run_indexed`] as both the partition count and the width. The
/// `_exact` entry points in [`crate::parallel`] bypass both clamps for
/// tests and ablations.
#[inline]
pub(crate) fn effective_threads(requested: usize, work: usize, min_per_thread: usize) -> usize {
    requested
        .min(Pool::global().threads())
        .clamp(1, (work / min_per_thread).max(1))
}

/// Which merge algorithm the pipeline runs the stages with.
///
/// All strategies produce **byte-identical** merged main partitions (the
/// cross-strategy proptests assert this); they differ only in cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MergeStrategy {
    /// The unoptimized merge of Sections 5.1–5.2, the baseline the paper
    /// beats by ~30x. Stage 1b unions the dictionaries without auxiliary
    /// tables, and Step
    /// 2(b) re-encodes every tuple by materializing its uncompressed value
    /// and **binary-searching** it in the merged dictionary —
    /// `O(N_M + (N_M + N_D) · log |U'_M|)` (Equation 5). Figure 7 runs this
    /// baseline *parallelized* ("both optimized (Opt) and unoptimized
    /// (UnOpt) merge implementations were parallelized"), so Step 2 still
    /// partitions the tuples over the granted threads — only the per-tuple
    /// search is the naive part. It copies nothing: the reference the other
    /// strategies' copied prefix and blocks are held to.
    Naive,
    /// The linear-time merge of Section 5.3, single-threaded. Modified Step
    /// 1(a) is the freeze: the delta arrives as fixed-width indices into
    /// its sorted `U_D`. Modified Step 1(b): the dictionary merge
    /// also fills the auxiliary translation tables `X_M` and `X_D`. Modified
    /// Step 2(b): re-encoding a tuple is `M'[i] <- X_M[M[i]]` (Equation 11)
    /// — "a lookup and binary search in the original algorithm description
    /// is replaced by a lookup" — overall `O(N_M + N_D + |U_M| + |U_D|)`
    /// (Equation 6). Beyond the paper, the dictionary prefix and the main
    /// blocks `X_M` leaves in place are copied (see the module docs).
    Optimized,
    /// Section 6.2: the optimized algorithm with the merge's stages
    /// parallelized (three-phase dictionary merge, word-aligned partitioned
    /// re-encode — see [`crate::parallel`]). The default.
    #[default]
    Parallel,
}

impl std::fmt::Display for MergeStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MergeStrategy::Naive => "naive",
            MergeStrategy::Optimized => "optimized",
            MergeStrategy::Parallel => "parallel",
        })
    }
}

/// Cap on how many merged-but-uncommitted columns a table merge may hold at
/// once — the knob that bounds the merge's peak extra memory (Section 4's
/// partial-column strategy).
///
/// Unbudgeted, a table merge materializes all `N_C` new main partitions
/// before one atomic commit: ~2x the table's memory at peak. With a budget
/// of `K`, columns are merged and committed `K` at a time (one
/// [`crate::manager::MergeSession::step`] each), so at most the largest
/// `K`-column working set exists in addition to the live table. Results
/// are byte-identical either way; the trade is commit granularity on
/// failure (columns committed before a failure stay merged — every column
/// individually contains all rows, so the table stays consistent).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MergeBudget {
    columns: usize,
}

impl MergeBudget {
    /// No cap: merge all columns, then commit once (all-or-nothing under
    /// failure). The default.
    pub const UNBOUNDED: MergeBudget = MergeBudget {
        columns: usize::MAX,
    };

    /// At most `k >= 1` columns merged-but-uncommitted at a time.
    pub const fn columns(k: usize) -> Self {
        assert!(k >= 1, "a merge budget needs at least one column");
        Self { columns: k }
    }

    /// The cap (`usize::MAX` when unbounded).
    pub fn max_columns(&self) -> usize {
        self.columns
    }

    /// True for [`Self::UNBOUNDED`].
    pub fn is_unbounded(&self) -> bool {
        self.columns == usize::MAX
    }
}

impl Default for MergeBudget {
    fn default() -> Self {
        Self::UNBOUNDED
    }
}

/// Everything a merge run is granted: which algorithm, how many threads,
/// and how much extra memory (as a column budget). This is what a
/// [`crate::manager::MergePolicy`] states and what
/// [`crate::manager::OnlineTable::merge_with`] consumes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MergeGrant {
    /// Merge algorithm (default [`MergeStrategy::Parallel`]).
    pub strategy: MergeStrategy,
    /// The merge's width on the shared [`Pool`]: how many claimants (the
    /// caller plus pool workers) its column, partition and region fan-outs
    /// may occupy at once. No thread is created for a merge.
    pub threads: usize,
    /// Peak-memory cap (default [`MergeBudget::UNBOUNDED`]).
    pub budget: MergeBudget,
}

impl Default for MergeGrant {
    fn default() -> Self {
        Self {
            strategy: MergeStrategy::default(),
            threads: crate::pool::default_threads(),
            budget: MergeBudget::default(),
        }
    }
}

impl MergeGrant {
    /// The default strategy and budget with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }

    /// Builder-style strategy override.
    pub fn strategy(mut self, strategy: MergeStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builder-style budget override.
    pub fn budget(mut self, budget: MergeBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// The reusable merge arena: owns the auxiliary tables Stage 1b builds and
/// draws spare buffers from its [`SpareBank`] for the outputs that leave
/// the pipeline inside the new [`MainPartition`]. Stage 1a's outputs are
/// not here: they are the [`FrozenDelta`] the merge reads.
///
/// Lifetimes of the buffers across one merge:
///
/// * `x_m`, `x_d` — filled by Stage 1b, read by Stage 2, **retained**
///   (cleared, capacity kept) for the next merge.
/// * one spare `Vec<V>`, one spare `Vec<u64>` and one spare zone map are
///   **donated** to the output (they become the merged dictionary's
///   storage, the packed code words and the zone map).
///   [`Self::recycle_main`] returns a retired partition's
///   buffers to the bank, closing the loop: a warmed scratch whose
///   caller recycles retires allocates nothing per merge.
///
/// The spares live in a [`SpareBank`]: a table's scratches share the
/// table's bank ([`Self::with_bank`]), and a standalone scratch
/// ([`Self::new`]: ad-hoc column merges, benches) owns a private one.
pub struct MergeScratch<V> {
    /// `X_M` (Stage 1b, optimized/parallel).
    pub(crate) x_m: Vec<u32>,
    /// `X_D` (Stage 1b, optimized/parallel).
    pub(crate) x_d: Vec<u32>,
    /// Where output buffers are taken from and retired mains recycled to.
    bank: Arc<SpareBank<V>>,
}

/// A spare handed out may exceed the request by at most this factor; any
/// larger and it is trimmed to `SPARE_TRIM_FACTOR * want` before reuse.
/// Without the trim, the "else the largest" fallback below could hand a
/// hugely over-sized buffer to a small merge, whose retired output would
/// then re-bank the same giant capacity — an over-retention loop that pins
/// the worst-case buffer forever.
pub const SPARE_TRIM_FACTOR: usize = 2;

/// Pick a spare from `q`: the **smallest** whose capacity covers `want`
/// (best fit — under concurrent takes the first-fit rule could give a
/// small request the only buffer a big request needs), else the largest
/// available (minimizing the regrow), else a fresh empty `Vec`. Callers
/// pass the result through [`trim_spare`] — *after* releasing any lock
/// guarding `q`, since the trim may reallocate.
fn take_spare<T>(q: &mut std::collections::VecDeque<Vec<T>>, want: usize) -> Vec<T> {
    let pos = q
        .iter()
        .enumerate()
        .filter(|(_, b)| b.capacity() >= want)
        .min_by_key(|(_, b)| b.capacity())
        .or_else(|| q.iter().enumerate().max_by_key(|(_, b)| b.capacity()))
        .map(|(i, _)| i);
    match pos {
        Some(i) => q.remove(i).expect("position came from the queue"),
        None => Vec::new(),
    }
}

/// Enforce the [`SPARE_TRIM_FACTOR`] bound on a spare handed out for a
/// `want`-sized request (the over-retention fix). Runs outside any spare
/// queue lock: shrinking is an allocator round-trip.
fn trim_spare<T>(mut buf: Vec<T>, want: usize) -> Vec<T> {
    let cap = SPARE_TRIM_FACTOR * want.max(1);
    if buf.capacity() > cap {
        buf.shrink_to(cap);
    }
    buf
}

/// Bound on the spare stacks so a scratch that receives more retired
/// partitions than it donates (e.g. a shrinking pool) cannot hoard memory.
const MAX_SPARES: usize = 32;

/// Bank a retired buffer, emptied, unless `q` already holds
/// [`MAX_SPARES`].
fn bank_spare<T>(q: &mut std::collections::VecDeque<Vec<T>>, mut buf: Vec<T>) {
    if q.len() < MAX_SPARES {
        buf.clear();
        q.push_back(buf);
    }
}

/// The table-level spare-buffer bank: one shared home for the output
/// buffers that outlive a merge (merged-dictionary values, packed code
/// words and the zone map), taken with size hints under a short lock.
///
/// Per-arena spares break down with several merge workers: the racing
/// column→worker assignment can retire a column's buffer into one worker's
/// arena while the next generation of that column is merged by another
/// worker, stranding the recycled capacity and forcing a fresh allocation.
/// A single bank shared by every worker (and, for a
/// [`crate::shard::ShardedTable`], every shard) makes the spare pool one
/// multiset: as long as each request has an exact-size match banked —
/// which steady-state regeneration guarantees — best-fit takes keep
/// multi-worker merges allocation-free. The lock is held only for the
/// queue scan (capacities, no data), never across an allocation or copy.
pub struct SpareBank<V> {
    dicts: parking_lot::Mutex<std::collections::VecDeque<Vec<V>>>,
    words: parking_lot::Mutex<std::collections::VecDeque<Vec<u64>>>,
    zones: parking_lot::Mutex<std::collections::VecDeque<Vec<(u32, u32)>>>,
}

impl<V: Value> Default for SpareBank<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Value> SpareBank<V> {
    /// An empty bank (no allocations until the first recycle).
    pub fn new() -> Self {
        Self {
            dicts: parking_lot::Mutex::new(std::collections::VecDeque::new()),
            words: parking_lot::Mutex::new(std::collections::VecDeque::new()),
            zones: parking_lot::Mutex::new(std::collections::VecDeque::new()),
        }
    }

    /// Take a spare dictionary buffer, best-fit for `want` values (empty
    /// `Vec` if none is banked; over-sized spares are trimmed to
    /// [`SPARE_TRIM_FACTOR`]× the request, after the lock is released).
    pub fn take_dict(&self, want: usize) -> Vec<V> {
        let buf = take_spare(&mut self.dicts.lock(), want);
        trim_spare(buf, want)
    }

    /// Take a spare packed-word buffer (same contract as
    /// [`Self::take_dict`]).
    pub fn take_words(&self, want: usize) -> Vec<u64> {
        let buf = take_spare(&mut self.words.lock(), want);
        trim_spare(buf, want)
    }

    /// Take a spare zone-map buffer (same contract as
    /// [`Self::take_dict`]).
    pub fn take_zones(&self, want: usize) -> Vec<(u32, u32)> {
        let buf = take_spare(&mut self.zones.lock(), want);
        trim_spare(buf, want)
    }

    /// Recycle a retired main partition: its sorted value vector, packed
    /// word buffer and zone map join the bank for the next merge's output,
    /// from any worker on any column.
    pub fn recycle_main(&self, main: MainPartition<V>) {
        let (dict, codes, zones) = main.into_parts();
        bank_spare(&mut self.dicts.lock(), dict.into_values());
        bank_spare(&mut self.words.lock(), codes.into_words());
        bank_spare(&mut self.zones.lock(), zones);
    }

    /// Capacities currently banked, `(dictionary values, code words)` —
    /// exposed so tests can assert capacity stability across merges.
    pub fn spare_capacities(&self) -> (usize, usize) {
        (
            self.dicts.lock().iter().map(|d| d.capacity()).sum(),
            self.words.lock().iter().map(|w| w.capacity()).sum(),
        )
    }

    /// Number of banked buffers, `(dictionaries, word buffers)`.
    pub fn spare_counts(&self) -> (usize, usize) {
        (self.dicts.lock().len(), self.words.lock().len())
    }
}

impl<V: Value> Default for MergeScratch<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Value> MergeScratch<V> {
    /// An empty arena with a private [`SpareBank`] (no buffers until
    /// first use).
    pub fn new() -> Self {
        Self::with_bank(Arc::new(SpareBank::new()))
    }

    /// An empty arena whose output buffers come from, and whose retired
    /// mains return to, the shared `bank` ([`crate::manager::OnlineTable`]
    /// hands every scratch it checks out the table's bank).
    pub fn with_bank(bank: Arc<SpareBank<V>>) -> Self {
        Self {
            x_m: Vec::new(),
            x_d: Vec::new(),
            bank,
        }
    }

    /// Recycle a retired main partition into this scratch's bank for the
    /// next merge's output. This is how steady-state merges reach zero
    /// allocation — the old generation's memory becomes the new
    /// generation's buffers.
    pub fn recycle_main(&mut self, main: MainPartition<V>) {
        self.bank.recycle_main(main);
    }

    /// Capacities currently banked in this scratch's bank, `(dictionary
    /// values, code words)` — exposed so tests can assert capacity
    /// stability across merges.
    pub fn spare_capacities(&self) -> (usize, usize) {
        self.bank.spare_capacities()
    }
}

/// One enumerated step of a column merge, in pipeline order — what a
/// [`StepSink`] observes. Stage boundaries follow the paper's three-phase
/// decomposition; within Stage 2 a progress record fires at every completed
/// word-aligned output region, giving sub-column granularity without any
/// synchronization inside the kernel's hot loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeStep {
    /// Stage 1a finished for `col`: the compressed delta is in hand (the
    /// freeze encoded it before the merge began).
    Stage1a {
        /// Column index.
        col: usize,
    },
    /// Stage 1b finished for `col`: dictionaries unioned.
    Stage1b {
        /// Column index.
        col: usize,
    },
    /// Stage 2 re-encode progress for `col`: `done` of `total`
    /// word-aligned output regions are filled.
    Stage2Progress {
        /// Column index.
        col: usize,
        /// Completed regions.
        done: u64,
        /// Total regions in this re-encode.
        total: u64,
    },
    /// The column's merged output is fully materialized in memory.
    ColumnDone {
        /// Column index.
        col: usize,
    },
}

/// An observer the pipeline streams [`MergeStep`]s into (production merges
/// pass none; tests inject collectors and failures through it). Called
/// from worker threads, hence `Sync`; implementations must be cheap and
/// non-blocking — a step record is advisory narration, never a commit
/// point.
pub trait StepSink: Sync {
    /// Observe one step. Must not panic.
    fn record(&self, step: MergeStep);
}

/// A configured merge pipeline: strategy + thread grant, applied column by
/// column through a [`MergeScratch`]. Stateless apart from configuration —
/// the scratch carries all reuse.
#[derive(Clone, Copy, Debug)]
pub struct MergePipeline {
    strategy: MergeStrategy,
    threads: usize,
    exact: bool,
}

impl MergePipeline {
    /// A pipeline running `strategy` at a width of `threads` on the shared
    /// pool (each stage cuts at most that many partitions, clamped to the
    /// pool's size and the work size; see `effective_threads`).
    pub fn new(strategy: MergeStrategy, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one thread");
        Self {
            strategy,
            threads,
            exact: false,
        }
    }

    /// As [`Self::new`] but with **exactly** `threads` partitions per
    /// parallel stage on any host — no pool-size or work-size clamping (the
    /// pool still runs them at most `Pool::threads()` at a time). This is
    /// the whole-column counterpart of the `_exact` stage entry points: use
    /// it to measure what over-partitioning costs (ablations) or to
    /// reproduce a configuration's partition boundaries on different
    /// hardware. Production paths should prefer [`Self::new`].
    pub fn exact(strategy: MergeStrategy, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one thread");
        Self {
            strategy,
            threads,
            exact: true,
        }
    }

    /// The configured strategy.
    pub fn strategy(&self) -> MergeStrategy {
        self.strategy
    }

    /// The configured thread grant.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Merge one column's frozen delta into its main partition: Stage 1b,
    /// Stage 2, with all intermediates in `scratch`. Stage 1a ran when the
    /// delta was frozen ([`FrozenDelta::from_values`]): its sorted local
    /// dictionary is `U_D` and its packed codes are the compressed delta,
    /// which Stage 2 streams with a sequential cursor. The returned
    /// [`ColumnMergeStats::t_step1a`] is therefore zero; a caller that
    /// timed the freeze records it there.
    pub fn merge_column<V: Value>(
        &self,
        main: &MainPartition<V>,
        delta: &FrozenDelta<V>,
        scratch: &mut MergeScratch<V>,
    ) -> MergeOutput<MainPartition<V>> {
        self.merge_column_observed(main, delta, scratch, None, 0)
    }

    /// As [`Self::merge_column`], but narrating every enumerated
    /// [`MergeStep`] of column `col` into `sink` (stage boundaries plus a
    /// progress record per completed word-aligned Stage-2 region). The
    /// un-observed path pays nothing: `sink = None` compiles down to the
    /// plain merge.
    pub fn merge_column_observed<V: Value>(
        &self,
        main: &MainPartition<V>,
        delta: &FrozenDelta<V>,
        scratch: &mut MergeScratch<V>,
        sink: Option<&dyn StepSink>,
        col: usize,
    ) -> MergeOutput<MainPartition<V>> {
        let n_m = main.len();
        let n_d = delta.len();
        if let Some(sink) = sink {
            sink.record(MergeStep::Stage1a { col });
        }

        // Stage 1b: dictionary union (+ aux tables for the table-lookup
        // strategies). The merged dictionary is built in a donated buffer —
        // it leaves the pipeline inside the output partition.
        let t0 = Instant::now();
        let u_m = main.dictionary().values();
        let u_d = delta.dict().values();
        // |U'_M| <= |U_M| + |U_D| is exactly what the union reserves.
        let mut merged = scratch.bank.take_dict(u_m.len() + u_d.len());
        let dict_prefix = match self.strategy {
            MergeStrategy::Naive => {
                union_into(u_m, u_d, &mut merged);
                0
            }
            MergeStrategy::Optimized => crate::step1::merge_dictionaries_into(
                u_m,
                u_d,
                &mut merged,
                &mut scratch.x_m,
                &mut scratch.x_d,
            ),
            MergeStrategy::Parallel => {
                let threads = if self.exact {
                    self.threads
                } else {
                    effective_threads(self.threads, u_m.len() + u_d.len(), MIN_DICT_PER_THREAD)
                };
                crate::parallel::merge_dictionaries_parallel_exact_into(
                    u_m,
                    u_d,
                    threads,
                    &mut merged,
                    &mut scratch.x_m,
                    &mut scratch.x_d,
                )
            }
        };
        let t_step1b = t0.elapsed();
        if let Some(sink) = sink {
            sink.record(MergeStep::Stage1b { col });
        }

        // Stage 2(a): E'_C = ceil(log2 |U'_M|) (Equation 4), O(1).
        let bits_after = bits_for(merged.len());
        // The copy rule: at an unchanged width, a full main block whose
        // codes all lie below the first code X_M moves is already its own
        // output, word for word. Naive keeps Equation 5's search for all.
        let copy_below = match self.strategy {
            MergeStrategy::Optimized | MergeStrategy::Parallel
                if bits_after == main.code_bits() =>
            {
                first_moved(&scratch.x_m)
            }
            _ => 0,
        };
        let copied = |row: usize| {
            row + ZONE_ROWS <= n_m && (main.zones()[row / ZONE_ROWS].1 as usize) < copy_below
        };
        let rows_copied = (0..n_m).step_by(ZONE_ROWS).filter(|&r| copied(r)).count() * ZONE_ROWS;

        // Stage 2(b): the one re-encode kernel, parameterized by the
        // strategy's per-tuple code maps. The delta-side map is a stream
        // factory: given a delta-local start row, it decodes the packed
        // codes through a sequential cursor and yields re-encoded codes.
        let t0 = Instant::now();
        let words = scratch
            .bank
            .take_words(((n_m + n_d) * bits_after as usize).div_ceil(64));
        let zones = scratch.bank.take_zones((n_m + n_d).div_ceil(ZONE_ROWS));
        let threads = match self.strategy {
            MergeStrategy::Optimized => 1,
            _ if self.exact => self.threads,
            _ => effective_threads(self.threads, n_m + n_d, MIN_TUPLES_PER_THREAD),
        };
        let observer = sink.map(|s| (s, col));
        let (codes, zones) = match self.strategy {
            MergeStrategy::Naive => {
                // Materialize each tuple's value, then binary-search U'_M
                // (Equation 5's log factor). Figure 7 parallelizes the
                // unoptimized merge too, so the naive map still fans out.
                let old_dict = main.dictionary();
                let merged_ref: &[V] = &merged;
                let search = move |value: V| -> u64 {
                    merged_ref
                        .binary_search(&value)
                        .expect("merged dictionary must contain value") as u64
                };
                reencode(
                    main,
                    n_d,
                    bits_after,
                    copied,
                    threads,
                    words,
                    zones,
                    observer,
                    |old_code| search(old_dict.value_at(old_code as u32)),
                    |k0| {
                        let mut cur = delta.codes().cursor_at(k0);
                        move || search(delta.dict().value_at(cur.next_value() as u32))
                    },
                )
            }
            MergeStrategy::Optimized | MergeStrategy::Parallel => {
                // Pure table lookups, Equation 11: "a lookup and binary
                // search in the original algorithm description is replaced
                // by a lookup".
                let (x_m, x_d) = (&scratch.x_m, &scratch.x_d);
                reencode(
                    main,
                    n_d,
                    bits_after,
                    copied,
                    threads,
                    words,
                    zones,
                    observer,
                    |old_code| x_m[old_code as usize] as u64,
                    |k0| {
                        let mut cur = delta.codes().cursor_at(k0);
                        move || x_d[cur.next_value() as usize] as u64
                    },
                )
            }
        };
        let t_step2 = t0.elapsed();
        if let Some(sink) = sink {
            sink.record(MergeStep::ColumnDone { col });
        }

        let stats = ColumnMergeStats {
            algo: self.strategy,
            threads: self.threads,
            n_m,
            n_d,
            u_m: u_m.len(),
            u_d: u_d.len(),
            u_merged: merged.len(),
            bits_before: main.code_bits(),
            bits_after,
            rows_copied,
            dict_prefix,
            t_step1a: Duration::ZERO,
            t_step1b,
            t_step2,
        };
        let dict = Dictionary::from_sorted_unique(merged);
        MergeOutput {
            main: MainPartition::with_zones(dict, codes, zones),
            stats,
        }
    }
}

/// Stage 1b without aux tables (the naive strategy): two-pointer union of
/// two sorted duplicate-free dictionaries into a reused buffer.
fn union_into<V: Value>(u_m: &[V], u_d: &[V], merged: &mut Vec<V>) {
    merged.clear();
    merged.reserve(u_m.len() + u_d.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < u_m.len() && j < u_d.len() {
        match u_m[i].cmp(&u_d[j]) {
            std::cmp::Ordering::Less => {
                merged.push(u_m[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                merged.push(u_d[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                merged.push(u_m[i]);
                i += 1;
                j += 1;
            }
        }
    }
    merged.extend_from_slice(&u_m[i..]);
    merged.extend_from_slice(&u_d[j..]);
}

/// Stage 2's copy bound `F`: the first code `X_M` moves. Consecutive `X_M`
/// entries differ by at least one, so `X_M[i] - i` never decreases and the
/// unmoved codes form a prefix, found by one binary search. `|U_M|` when
/// `X_M` is the identity.
fn first_moved(x_m: &[u32]) -> usize {
    let (mut lo, mut hi) = (0, x_m.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if x_m[mid] as usize == mid {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// **The** Step 2 kernel: append `n_d` delta tuples to the `n_m` main
/// tuples, re-encoding every tuple at `bits_after` bits via the two code
/// maps — except the blocks `copied` selects by first row (full main
/// blocks `map_main` leaves in place, at the main's own width), whose words
/// are copied and whose carried zone is already exact. The old main codes
/// stream through a sequential cursor, repositioned after each copied run;
/// output
/// regions are cut on [`ZONE_ROWS`]-tuple boundaries so every thread owns
/// whole words of the bit-packed output and whole zone-map blocks, and
/// writes are OR-only into zeroed storage ("each thread reads/writes
/// from/to independent chunks of tables", Section 6.2.2). `words` and
/// `zones` are the (possibly recycled) output buffers; `threads` is the
/// final team size (the caller applies any clamping).
///
/// The zone map comes out with the codes. Every old block keeps its rows
/// (the last, if short, gains delta rows after them) and `map_main` is
/// strictly increasing, so an old zone maps to `(map(min), map(max))`:
/// O(N_M / ZONE_ROWS) lookups, no main row rescanned. Each delta code
/// folds into its block's zone as the region writing it produces it, so
/// no output code is read back.
#[allow(clippy::too_many_arguments)]
fn reencode<V: Value, DC: FnMut() -> u64>(
    main: &MainPartition<V>,
    n_d: usize,
    bits_after: u8,
    copied: impl Fn(usize) -> bool + Sync,
    threads: usize,
    words: Vec<u64>,
    mut zones: Vec<(u32, u32)>,
    observer: Option<(&dyn StepSink, usize)>,
    map_main: impl Fn(u64) -> u64 + Sync,
    mk_delta: impl Fn(usize) -> DC + Sync,
) -> (BitPackedVec, Vec<(u32, u32)>) {
    let n_m = main.len();
    let n_total = n_m + n_d;
    let mut codes = BitPackedVec::zeroed_in(bits_after, n_total, words);
    let carried = n_m / ZONE_ROWS;
    zones.clear();
    zones.extend(
        main.zones()
            .iter()
            .map(|&(lo, hi)| (map_main(lo as u64) as u32, map_main(hi as u64) as u32)),
    );
    zones.resize(n_total.div_ceil(ZONE_ROWS), (u32::MAX, 0));
    // Region-completion narration: one relaxed counter bump per region (not
    // per tuple), so the observed path stays off the kernel's hot loop.
    let regions_done = std::sync::atomic::AtomicU64::new(0);
    let (map_main, mk_delta, copied) = (&map_main, &mk_delta, &copied);
    // `own` holds the zones of the region's blocks that take delta rows.
    let fill = |(mut region, own): (BitRegion<'_>, &mut [(u32, u32)]), total_regions: u64| {
        let own = std::cell::Cell::from_mut(own).as_slice_of_cells();
        let own_from = region.start_index().max(carried * ZONE_ROWS);
        region.fill_or_copy(main.packed_codes(), ZONE_ROWS, copied, |first| {
            let mut old = main.packed_codes().cursor_at(first.min(n_m));
            // Each run gets its own delta stream, positioned at the run's
            // first delta-local row (zero if the run starts in the main).
            let mut next_delta = mk_delta(first.saturating_sub(n_m));
            let (mut lo, mut hi) = (u64::MAX, 0);
            move |idx| {
                if idx < n_m {
                    return map_main(old.next_value());
                }
                let code = next_delta();
                lo = lo.min(code);
                hi = hi.max(code);
                if (idx + 1) % ZONE_ROWS == 0 || idx + 1 == n_total {
                    let z = &own[(idx - own_from) / ZONE_ROWS];
                    let (zlo, zhi) = z.get();
                    z.set((zlo.min(lo as u32), zhi.max(hi as u32)));
                    (lo, hi) = (u64::MAX, 0);
                }
                code
            }
        });
        if let Some((sink, col)) = observer {
            let done = regions_done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            sink.record(MergeStep::Stage2Progress {
                col,
                done,
                total: total_regions,
            });
        }
    };
    // One partition runs inline on the caller (the path the zero-allocation
    // steady state runs on); more fan out on the shared pool.
    let regions = codes.split_mut_aligned(threads, ZONE_ROWS).into_regions();
    let total = regions.len() as u64;
    let mut rest = &mut zones[carried..];
    let parts: Vec<_> = regions
        .into_iter()
        .map(|region| {
            let first = carried.max(region.start_index() / ZONE_ROWS);
            let end = (region.start_index() + region.len()).div_ceil(ZONE_ROWS);
            let (own, tail) = std::mem::take(&mut rest).split_at_mut(end.saturating_sub(first));
            rest = tail;
            (region, own)
        })
        .collect();
    Pool::global().run_each(parts, threads, |_, part| fill(part, total));
    (codes, zones)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta_from(values: &[u64]) -> FrozenDelta<u64> {
        FrozenDelta::from_values(values)
    }

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    #[test]
    fn all_strategies_agree_bytewise() {
        let mut next = xorshift(77);
        let main_vals: Vec<u64> = (0..30_000).map(|_| next() % 4_000).collect();
        let delta_vals: Vec<u64> = (0..6_000).map(|_| next() % 6_000).collect();
        let main = MainPartition::from_values(&main_vals);
        let delta = delta_from(&delta_vals);
        let mut scratch = MergeScratch::new();
        let reference = MergePipeline::new(MergeStrategy::Optimized, 1).merge_column(
            &main,
            &delta,
            &mut scratch,
        );
        for strategy in [
            MergeStrategy::Naive,
            MergeStrategy::Optimized,
            MergeStrategy::Parallel,
        ] {
            for threads in [1usize, 2, 4] {
                let out =
                    MergePipeline::new(strategy, threads).merge_column(&main, &delta, &mut scratch);
                assert_eq!(
                    out.main.dictionary().values(),
                    reference.main.dictionary().values(),
                    "{strategy:?}/{threads}: dictionaries differ"
                );
                assert_eq!(
                    out.main.packed_codes().words(),
                    reference.main.packed_codes().words(),
                    "{strategy:?}/{threads}: packed words differ"
                );
                assert_eq!(out.stats.algo, strategy);
            }
        }
    }

    /// The merge's output must be exactly what bulk-loading the
    /// concatenated rows produces: dictionary, code width, every code and
    /// the zone map.
    fn assert_bulk_load_equal(
        out: &MainPartition<u64>,
        main_vals: &[u64],
        delta_vals: &[u64],
        what: &str,
    ) {
        let all: Vec<u64> = main_vals.iter().chain(delta_vals).copied().collect();
        let oracle = MainPartition::from_values(&all);
        assert_eq!(
            out.dictionary().values(),
            oracle.dictionary().values(),
            "{what}: dictionary"
        );
        assert_eq!(out.code_bits(), oracle.code_bits(), "{what}: code width");
        assert!(
            out.codes().eq(oracle.codes()),
            "{what}: codes differ from the bulk load"
        );
        assert_eq!(out.zones(), oracle.zones(), "{what}: zone map");
    }

    #[test]
    fn frozen_delta_merge_is_byte_identical_to_csb() {
        // The reference is the bulk load of main ++ delta, for every
        // strategy, `new` and `exact` teams and thread fan-out — shapes that
        // hit the thread clamps and region splits, an empty main, an empty
        // delta, and a merge whose union reaches exactly 2^k distinct
        // values (the code width grows by one bit).
        let mut next = xorshift(41);
        let mut shapes: Vec<(Vec<u64>, Vec<u64>)> = Vec::new();
        for (n_m, n_d, spread) in [
            (30_000, 6_000, 4_000u64),
            (100, 7, 5),
            (0, 4_096, 900),
            (9_000, 0, 700),
        ] {
            let main_vals: Vec<u64> = (0..n_m).map(|_| next() % spread).collect();
            let delta_vals: Vec<u64> = (0..n_d)
                .map(|_| next() % (spread + spread / 2 + 1))
                .collect();
            shapes.push((main_vals, delta_vals));
        }
        // 2^k - 1 distinct values in main (k bits), one new value in the
        // delta: the union has exactly 2^k values, so k + 1 bits.
        let k = 10;
        let main_vals: Vec<u64> = (0..3 * ZONE_ROWS as u64)
            .map(|i| i % ((1 << k) - 1))
            .collect();
        shapes.push((main_vals, vec![1 << 20, 5, 1 << 20]));
        let mut scratch = MergeScratch::new();
        for (main_vals, delta_vals) in &shapes {
            let main = MainPartition::from_values(main_vals);
            let frozen = FrozenDelta::from_values(delta_vals);
            for strategy in STRATEGIES {
                for threads in [1usize, 2, 4] {
                    for pipeline in [
                        MergePipeline::new(strategy, threads),
                        MergePipeline::exact(strategy, threads),
                    ] {
                        let out = pipeline.merge_column(&main, &frozen, &mut scratch);
                        let what =
                            format!("{pipeline:?}: {}+{}", main_vals.len(), delta_vals.len());
                        assert_bulk_load_equal(&out.main, main_vals, delta_vals, &what);
                        assert_eq!(out.stats.u_d, frozen.dict().len(), "{what}");
                        assert_eq!(out.stats.n_d, delta_vals.len(), "{what}");
                        scratch.recycle_main(out.main);
                    }
                }
            }
        }
        assert_eq!(
            MainPartition::from_values(&shapes[4].0).code_bits() as u32,
            k,
            "the width-growth shape starts at k bits"
        );
    }

    #[test]
    fn scratch_reuse_is_capacity_stable() {
        // After a warm-up merge with recycling, repeated same-shape merges
        // must neither grow the scratch's retained buffers nor bank new
        // spare capacity in its bank — i.e. the arena has reached its
        // fixed point.
        let mut next = xorshift(3);
        let main_vals: Vec<u64> = (0..50_000).map(|_| next() % 9_000).collect();
        let delta_vals: Vec<u64> = (0..8_000).map(|_| next() % 12_000).collect();
        let main = MainPartition::from_values(&main_vals);
        let delta = delta_from(&delta_vals);
        let bank = Arc::new(SpareBank::new());
        let mut scratch = MergeScratch::with_bank(Arc::clone(&bank));
        for _ in 0..2 {
            let out = MergePipeline::new(MergeStrategy::Optimized, 1).merge_column(
                &main,
                &delta,
                &mut scratch,
            );
            scratch.recycle_main(out.main);
        }
        let warmed = (
            scratch.x_m.capacity(),
            scratch.x_d.capacity(),
            bank.spare_capacities(),
        );
        let mut last_zones = None;
        for round in 0..5 {
            let out = MergePipeline::new(MergeStrategy::Optimized, 1).merge_column(
                &main,
                &delta,
                &mut scratch,
            );
            // The zone map is the retired one's buffer, whatever its size.
            let zones = out.main.zones().as_ptr();
            if let Some(last) = last_zones {
                assert_eq!(zones, last, "round {round}: zone map reallocated");
            }
            last_zones = Some(zones);
            scratch.recycle_main(out.main);
            let now = (
                scratch.x_m.capacity(),
                scratch.x_d.capacity(),
                bank.spare_capacities(),
            );
            assert_eq!(now, warmed, "round {round}: scratch capacities moved");
        }
    }

    #[test]
    fn exact_pipeline_bypasses_the_clamp_and_agrees() {
        let mut next = xorshift(11);
        let main_vals: Vec<u64> = (0..20_000).map(|_| next() % 3_000).collect();
        let delta_vals: Vec<u64> = (0..4_000).map(|_| next() % 5_000).collect();
        let main = MainPartition::from_values(&main_vals);
        let delta = delta_from(&delta_vals);
        let mut scratch = MergeScratch::new();
        let clamped = MergePipeline::new(MergeStrategy::Parallel, 4).merge_column(
            &main,
            &delta,
            &mut scratch,
        );
        // Exact mode spawns 4 workers per stage even on a 1-core host (the
        // work is far below the crossover too) — output is still identical.
        let exact = MergePipeline::exact(MergeStrategy::Parallel, 4).merge_column(
            &main,
            &delta,
            &mut scratch,
        );
        assert_eq!(
            clamped.main.dictionary().values(),
            exact.main.dictionary().values()
        );
        assert_eq!(
            clamped.main.packed_codes().words(),
            exact.main.packed_codes().words()
        );
        assert_eq!(exact.stats.threads, 4);
    }

    #[test]
    fn spare_take_is_best_fit() {
        // Bank two spares of very different capacities, then request the
        // large one second: best-fit must not hand the small buffer to the
        // large request just because it was recycled first.
        let mut scratch: MergeScratch<u64> = MergeScratch::new();
        let small = MainPartition::from_values(&(0..100u64).collect::<Vec<_>>());
        let large = MainPartition::from_values(&(0..50_000u64).collect::<Vec<_>>());
        let (small_cap, large_cap) = (
            small.dictionary().values().len(),
            large.dictionary().values().len(),
        );
        scratch.recycle_main(small);
        scratch.recycle_main(large);
        let got_small = scratch.bank.take_dict(small_cap);
        assert!(
            got_small.capacity() >= small_cap && got_small.capacity() < large_cap,
            "small request gets the small spare (cap {})",
            got_small.capacity()
        );
        let got_large = scratch.bank.take_dict(large_cap);
        assert!(
            got_large.capacity() >= large_cap,
            "large request gets the large spare (cap {})",
            got_large.capacity()
        );
        // Oversized request with only small spares: take the largest rather
        // than allocating from zero.
        scratch.recycle_main(MainPartition::from_values(&(0..64u64).collect::<Vec<_>>()));
        let fallback = scratch.bank.take_dict(1 << 20);
        assert!(fallback.capacity() >= 64);
        // Empty bank yields a fresh Vec.
        assert_eq!(scratch.bank.take_dict(10).capacity(), 0);
    }

    #[test]
    fn oversized_spares_are_trimmed_on_take() {
        // The over-retention loop this guards against: a giant buffer banked
        // once used to be handed to every smaller request via the
        // "else the largest" fallback, and the retired output re-banked the
        // giant capacity forever.
        let mut scratch: MergeScratch<u64> = MergeScratch::new();
        scratch.recycle_main(MainPartition::from_values(
            &(0..100_000u64).collect::<Vec<_>>(),
        ));
        let want = 500usize;
        let buf = scratch.bank.take_dict(want);
        assert!(
            buf.capacity() >= want && buf.capacity() <= SPARE_TRIM_FACTOR * want,
            "oversized spare must be trimmed to at most {}x the request, got {}",
            SPARE_TRIM_FACTOR,
            buf.capacity()
        );
        // Same bound through a shared bank, for the word queue.
        let bank: SpareBank<u64> = SpareBank::new();
        bank.recycle_main(MainPartition::from_values(
            &(0..100_000u64).collect::<Vec<_>>(),
        ));
        let words = bank.take_words(64);
        assert!(
            words.capacity() <= SPARE_TRIM_FACTOR * 64,
            "bank takes trim too, got {}",
            words.capacity()
        );
        // Steady state is untouched: an exact-fit request is not trimmed
        // (no realloc on the zero-allocation path).
        let mut scratch: MergeScratch<u64> = MergeScratch::new();
        scratch.recycle_main(MainPartition::from_values(
            &(0..1_000u64).collect::<Vec<_>>(),
        ));
        let before = scratch.spare_capacities().0;
        let buf = scratch.bank.take_dict(before);
        assert_eq!(buf.capacity(), before, "exact fit passes through as-is");
        // A zero-size request cannot keep a giant alive either.
        let mut scratch: MergeScratch<u64> = MergeScratch::new();
        scratch.recycle_main(MainPartition::from_values(
            &(0..100_000u64).collect::<Vec<_>>(),
        ));
        assert!(scratch.bank.take_dict(0).capacity() <= SPARE_TRIM_FACTOR);
    }

    #[test]
    fn bank_attached_scratches_share_spares() {
        let bank = Arc::new(SpareBank::<u64>::new());
        // Two workers' arenas on one bank: what worker A retires, worker B
        // can take — the multi-worker stranding fix.
        let mut a = MergeScratch::with_bank(Arc::clone(&bank));
        let b = MergeScratch::with_bank(Arc::clone(&bank));
        let main = MainPartition::from_values(&(0..10_000u64).collect::<Vec<_>>());
        let want = main.dictionary().values().len();
        a.recycle_main(main);
        assert_eq!(bank.spare_counts(), (1, 1));
        assert_eq!(a.spare_capacities(), bank.spare_capacities());
        let got = b.bank.take_dict(want);
        assert!(got.capacity() >= want, "B reuses what A retired");
        assert_eq!(bank.spare_counts(), (0, 1));
        // A standalone scratch banks privately: the shared bank never sees
        // its spares.
        let mut c = MergeScratch::new();
        c.recycle_main(MainPartition::from_values(&(0..50u64).collect::<Vec<_>>()));
        assert!(c.spare_capacities().0 > 0);
        assert_eq!(bank.spare_counts(), (0, 1));
    }

    #[test]
    fn budget_constructors() {
        assert!(MergeBudget::UNBOUNDED.is_unbounded());
        assert!(MergeBudget::default().is_unbounded());
        let b = MergeBudget::columns(2);
        assert!(!b.is_unbounded());
        assert_eq!(b.max_columns(), 2);
        let g = MergeGrant::with_threads(3)
            .strategy(MergeStrategy::Naive)
            .budget(b);
        assert_eq!(g.threads, 3);
        assert_eq!(g.strategy, MergeStrategy::Naive);
        assert_eq!(g.budget, b);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn zero_column_budget_rejected() {
        let _ = MergeBudget::columns(0);
    }

    #[test]
    fn empty_shapes() {
        let mut scratch = MergeScratch::new();
        for strategy in [
            MergeStrategy::Naive,
            MergeStrategy::Optimized,
            MergeStrategy::Parallel,
        ] {
            let out = MergePipeline::new(strategy, 2).merge_column(
                &MainPartition::<u64>::empty(),
                &delta_from(&[]),
                &mut scratch,
            );
            assert_eq!(out.main.len(), 0, "{strategy:?}");

            let out = MergePipeline::new(strategy, 2).merge_column(
                &MainPartition::from_values(&[7u64, 7, 1]),
                &delta_from(&[]),
                &mut scratch,
            );
            assert_eq!(out.main.len(), 3, "{strategy:?}");
            assert_eq!(out.main.get(0), 7, "{strategy:?}");

            let out = MergePipeline::new(strategy, 2).merge_column(
                &MainPartition::<u64>::empty(),
                &delta_from(&[4, 4, 2]),
                &mut scratch,
            );
            assert_eq!(out.main.len(), 3, "{strategy:?}");
            assert_eq!(out.main.get(2), 2, "{strategy:?}");
        }
    }

    /// Per-block min/max recomputed from the codes, block by block.
    fn brute_zones(m: &MainPartition<u64>) -> Vec<(u32, u32)> {
        let codes: Vec<u32> = (0..m.len()).map(|i| m.code(i)).collect();
        codes
            .chunks(ZONE_ROWS)
            .map(|b| (*b.iter().min().unwrap(), *b.iter().max().unwrap()))
            .collect()
    }

    const STRATEGIES: [MergeStrategy; 3] = [
        MergeStrategy::Naive,
        MergeStrategy::Optimized,
        MergeStrategy::Parallel,
    ];

    #[test]
    fn carried_zones_equal_a_rescan_at_every_main_length() {
        // Even main values, odd delta values: every delta value lands
        // between two main codes, so X_M shifts every carried zone.
        let mut next = xorshift(5);
        for n_m in [0usize, 1, 4095, 4096, 4097, 3 * ZONE_ROWS + 100] {
            for n_d in [0usize, 5, 5_000] {
                let main =
                    MainPartition::from_values(&(0..n_m as u64).map(|i| 2 * i).collect::<Vec<_>>());
                let delta_vals: Vec<u64> = (0..n_d).map(|_| 2 * (next() % 20_000) + 1).collect();
                let delta = delta_from(&delta_vals);
                for strategy in STRATEGIES {
                    // Exact teams cut Stage 2 into several regions even at
                    // these sizes; the zone folds must meet at their edges.
                    for threads in [1usize, 3] {
                        let out = MergePipeline::exact(strategy, threads).merge_column(
                            &main,
                            &delta,
                            &mut MergeScratch::new(),
                        );
                        assert_eq!(
                            out.main.zones(),
                            &brute_zones(&out.main)[..],
                            "{strategy:?}/{threads}: {n_m}+{n_d}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn carried_zones_survive_code_width_growth_at_powers_of_two() {
        // A main of exactly 2^k distinct values (k-bit codes) gains one new
        // value below all of them (k + 1 bits, every code shifts by one) or
        // none (the width stays).
        for k in 1..=12u32 {
            let distinct = 1u64 << k;
            let vals: Vec<u64> = (0..2 * ZONE_ROWS as u64 + 9)
                .map(|i| 1 + (i * distinct) / (2 * ZONE_ROWS as u64 + 9))
                .collect();
            let main = MainPartition::from_values(&vals);
            assert_eq!(main.code_bits() as u32, k);
            for (delta_vals, bits) in [(vec![0u64], k + 1), (vec![1u64], k)] {
                for strategy in STRATEGIES {
                    let out = MergePipeline::new(strategy, 2).merge_column(
                        &main,
                        &delta_from(&delta_vals),
                        &mut MergeScratch::new(),
                    );
                    assert_eq!(out.main.code_bits() as u32, bits, "{strategy:?} k={k}");
                    assert_eq!(
                        out.main.zones(),
                        &brute_zones(&out.main)[..],
                        "{strategy:?} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn from_mains_tables_keep_and_carry_zones() {
        use crate::OnlineTable;
        let keys = MainPartition::from_values(&(0..10_000u64).collect::<Vec<_>>());
        let single = MainPartition::from_values(&vec![42u64; 10_000]);
        let want = (keys.zones().to_vec(), single.zones().to_vec());
        let t = OnlineTable::from_mains(vec![keys, single]);
        let snap = t.snapshot();
        assert_eq!(snap.col(0).main().zones(), &want.0[..]);
        assert_eq!(snap.col(1).main().zones(), &want.1[..]);
        // New keys sort after the old ones; the single-value column gains
        // a smaller value, which shifts the code of every old row.
        for i in 0..3_000u64 {
            t.insert_row(&[i + 20_000, 7 + i % 2 * 35]).unwrap();
        }
        t.merge(2).unwrap();
        let snap = t.snapshot();
        for c in 0..2 {
            let main = snap.col(c).main();
            assert_eq!(main.len(), 13_000);
            assert_eq!(main.zones(), &brute_zones(main)[..], "column {c}");
        }
    }

    #[test]
    fn the_copy_fires_on_served_shapes_and_never_on_figure_inputs() {
        use hyrise_workload::{values_with_unique, UniqueSpec};
        use rand::{rngs::StdRng, SeedableRng};
        let n_m = 5 * ZONE_ROWS as u64;
        // The served shape: ascending keys absorb keys above them, and a
        // saturated low-cardinality column absorbs values it already has.
        let keys = MainPartition::from_values(&(0..n_m).collect::<Vec<_>>());
        let appended = delta_from(&(n_m..n_m + 700).collect::<Vec<_>>());
        let low = MainPartition::from_values(&(0..n_m).map(|i| i % 13).collect::<Vec<_>>());
        let repeats = delta_from(&(0..700).map(|i| i * 7 % 13).collect::<Vec<_>>());
        for strategy in STRATEGIES {
            for threads in [1usize, 2] {
                let pipe = MergePipeline::exact(strategy, threads);
                let k = pipe.merge_column(&keys, &appended, &mut MergeScratch::new());
                let l = pipe.merge_column(&low, &repeats, &mut MergeScratch::new());
                let (rows, prefix) = match strategy {
                    MergeStrategy::Naive => (0, 0),
                    _ => (n_m as usize, n_m as usize),
                };
                assert_eq!(k.stats.rows_copied, rows, "{pipe:?}: keys");
                assert_eq!(k.stats.dict_prefix, prefix, "{pipe:?}: keys");
                assert_eq!(l.stats.rows_copied, rows, "{pipe:?}: low cardinality");
                assert_eq!(l.stats.dict_prefix, 0, "{pipe:?}: low cardinality");
            }
        }
        // The figure binaries' inputs (`hyrise_bench::build_column` plus
        // `delta_values`): hash-spread values, half the delta's distinct
        // values new, at Figure 7's delta fractions.
        let n_m = 200_000;
        for lambda in [0.001, 0.1, 1.0] {
            let mut rng = StdRng::seed_from_u64(7);
            let spec = UniqueSpec::from_lambda(n_m, lambda);
            let main = MainPartition::<u64>::from_values(&values_with_unique(&mut rng, spec));
            for fraction in [0.005, 0.02, 0.08] {
                let n_d = (n_m as f64 * fraction) as usize;
                let d = UniqueSpec::from_lambda(n_d, lambda);
                let d = d.offset((spec.unique - d.unique / 2) as u64);
                let delta = delta_from(&values_with_unique(&mut rng, d));
                for strategy in [MergeStrategy::Optimized, MergeStrategy::Parallel] {
                    let out = MergePipeline::new(strategy, 2).merge_column(
                        &main,
                        &delta,
                        &mut MergeScratch::new(),
                    );
                    let what = format!("{strategy:?}, lambda {lambda}, delta {fraction}");
                    assert_eq!(out.stats.rows_copied, 0, "{what}");
                }
            }
        }
    }

    #[test]
    fn effective_threads_clamps_to_pool_and_work() {
        // Never more than the shared pool has workers.
        assert!(effective_threads(1024, usize::MAX / 2, 1) <= Pool::global().threads());
        // Never below one; tiny work collapses to serial.
        assert_eq!(effective_threads(8, 10, MIN_DICT_PER_THREAD), 1);
        assert_eq!(effective_threads(1, 0, 1), 1);
    }
}
