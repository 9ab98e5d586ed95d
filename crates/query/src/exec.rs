//! The unified execution engine: one [`Executor`] trait over every backend,
//! with a [`SelectionVector`] intermediate and dictionary value-id pushdown.
//!
//! Every backend reduces its columns to the same physical shape — a
//! dictionary-compressed main partition plus a short row-ordered list of
//! [`TailRegion`]s (bit-packed frozen/pending deltas, raw append-only tail
//! chunks) — and runs one engine over it:
//!
//! 1. **First predicate**: the value interval is rewritten against the
//!    main dictionary ([`Dictionary::value_id_range`]) and the bit-packed
//!    codes are scanned **entirely in value-id space** by the word-parallel
//!    SWAR kernels (no tuple is decoded); packed tail regions do the same
//!    against their local dictionaries, raw regions fall back to value
//!    comparisons — they are small by construction, the merge bounds them.
//! 2. **Further predicates**: when every predicate column shares the same
//!    main length, the conjunction is **fused** — each column produces a
//!    per-word match bitmask and the masks are ANDed before any row id is
//!    materialized. Otherwise (mid-merge snapshots with stepped columns)
//!    the engine refines the selection vector row by row: main rows compare
//!    their packed code against that column's value-id range (random
//!    access, still no decode), tail rows compare values.
//! 3. **Validity** filters last; the surviving [`SelectionVector`] feeds
//!    row output, projection, or aggregation.
//!
//! **Morsel-driven parallelism.** Every stage above is phrased per morsel:
//! [`Query::with_threads`] is a morsel-count hint that cuts the main
//! partition into contiguous 64-row-aligned ranges (see [`crate::morsel`])
//! claimed dynamically by the process-wide [`hyrise_core::Pool`] — the
//! engine spawns no threads of its own. Main-range kernels run the `_at`
//! SWAR entry points per morsel; the short tail regions are scanned
//! serially after the morsels; per-morsel results combine strictly in
//! morsel order, so the parallel output is byte-identical to a serial run
//! for every output shape.
//!
//! Implementations: [`TableSnapshot`] (the canonical engine),
//! [`OnlineTable`] (snapshot, then execute), [`ShardedTable`] (fan out one
//! engine per shard snapshot as pool tasks, merge partial results),
//! [`Attribute`] / [`AttributeExecutor`] (single column, optional
//! validity), and the heterogeneous [`Table`] (per-column typed dispatch
//! over [`AnyValue`] predicates).

use crate::morsel::{chunk_ranges, concat, morsel_ranges, parallel_map};
use crate::plan::{Action, CompiledPredicate, Query};
use hyrise_bitpack::{mask_count, mask_words, rows_from_mask};
use hyrise_core::shard::{ShardRowId, ShardedTable};
use hyrise_core::{OnlineTable, Pool, TableSnapshot};
#[cfg(doc)]
use hyrise_storage::Dictionary;
use hyrise_storage::{
    AnyValue, Attribute, Column, MainPartition, Table, TailRegion, ValidityBitmap, Value,
};

/// The positional intermediate between predicate evaluation and output:
/// matching row ids in ascending order. Operators refine it in place
/// (conjunction, validity) instead of materializing values between steps —
/// the late-materialization discipline of a column store.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SelectionVector {
    rows: Vec<usize>,
}

impl SelectionVector {
    /// Wrap an ascending row-id list.
    pub fn from_rows(rows: Vec<usize>) -> Self {
        Self { rows }
    }

    /// Selected rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when nothing is selected.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The selected row ids, ascending.
    pub fn as_slice(&self) -> &[usize] {
        &self.rows
    }

    /// Iterate the selected row ids.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.rows.iter().copied()
    }

    /// Keep only rows satisfying `f` (conjunction / validity refinement).
    pub fn retain(&mut self, mut f: impl FnMut(usize) -> bool) {
        self.rows.retain(|&r| f(r));
    }

    /// Unwrap into the row-id vector.
    pub fn into_rows(self) -> Vec<usize> {
        self.rows
    }
}

/// A query's result: one variant per [`Query`] output action.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Output<V, R> {
    /// Matching row ids (backend-specific id type — `usize` for single
    /// tables and snapshots, [`ShardRowId`] for sharded tables).
    Rows(Vec<R>),
    /// Materialized values of the projected columns, one `Vec` per row.
    Projected(Vec<Vec<V>>),
    /// Number of matching rows.
    Count(usize),
    /// Sum of 64-bit projections over matching rows.
    Sum(u128),
    /// Min and max over matching rows (`None` when nothing matched).
    MinMax(Option<(V, V)>),
}

impl<V, R> Output<V, R> {
    fn kind(&self) -> &'static str {
        match self {
            Output::Rows(_) => "rows",
            Output::Projected(_) => "projected",
            Output::Count(_) => "count",
            Output::Sum(_) => "sum",
            Output::MinMax(_) => "min_max",
        }
    }

    /// The matching row ids.
    ///
    /// # Panics
    /// If the query requested a different output.
    pub fn into_rows(self) -> Vec<R> {
        match self {
            Output::Rows(rows) => rows,
            other => panic!("query output is {}, not rows", other.kind()),
        }
    }

    /// The projected rows.
    ///
    /// # Panics
    /// If the query requested a different output.
    pub fn into_projected(self) -> Vec<Vec<V>> {
        match self {
            Output::Projected(rows) => rows,
            other => panic!("query output is {}, not a projection", other.kind()),
        }
    }

    /// The matching-row count.
    ///
    /// # Panics
    /// If the query requested a different output.
    pub fn count(&self) -> usize {
        match self {
            Output::Count(n) => *n,
            other => panic!("query output is {}, not a count", other.kind()),
        }
    }

    /// The sum.
    ///
    /// # Panics
    /// If the query requested a different output.
    pub fn sum(&self) -> u128 {
        match self {
            Output::Sum(s) => *s,
            other => panic!("query output is {}, not a sum", other.kind()),
        }
    }

    /// The min/max pair.
    ///
    /// # Panics
    /// If the query requested a different output.
    pub fn min_max(&self) -> Option<(V, V)>
    where
        V: Copy,
    {
        match self {
            Output::MinMax(mm) => *mm,
            other => panic!("query output is {}, not min/max", other.kind()),
        }
    }
}

/// A backend that can execute a [`Query`]. One implementation serves all
/// query shapes — scans, conjunctions, projections and aggregates all go
/// through [`Executor::execute`], so a new backend plugs into the whole
/// query surface at once.
pub trait Executor<V> {
    /// How this backend addresses rows.
    type RowId: Copy + Ord + Send + std::fmt::Debug;

    /// Run the query and return its output.
    fn execute(&self, q: &Query<V>) -> Output<V, Self::RowId>;
}

/// One column reduced to the engine's physical shape: a compressed main
/// partition plus tail regions in row order (the bit-packed frozen and
/// pending deltas, then the append-only tail's raw chunks; absent regions
/// contribute nothing).
pub(crate) struct ColView<'a, V: Value> {
    pub(crate) main: &'a MainPartition<V>,
    pub(crate) tails: Vec<TailRegion<'a, V>>,
}

impl<V: Value> ColView<'_, V> {
    fn len(&self) -> usize {
        self.main.len() + self.tails.iter().map(|t| t.len()).sum::<usize>()
    }

    /// Value of a tail row (row id relative to the end of main).
    fn tail_value(&self, i: usize) -> V {
        let mut off = i;
        for tail in &self.tails {
            if off < tail.len() {
                return tail.get(off);
            }
            off -= tail.len();
        }
        panic!("tail row {i} out of range")
    }

    /// Materialize one row (main rows decode through the dictionary).
    fn value(&self, row: usize) -> V {
        let nm = self.main.len();
        if row < nm {
            self.main.get(row)
        } else {
            self.tail_value(row - nm)
        }
    }
}

/// First-predicate scan: append all rows of `col` whose value lies in
/// `[lo, hi]`, ascending. Main rows are matched in value-id space (the
/// pushdown path, word-parallel); packed tail regions rewrite the bounds
/// into their local value-id space and run the same kernels; raw tail
/// chunks compare values.
pub(crate) fn scan_col_into<V: Value>(col: &ColView<'_, V>, lo: &V, hi: &V, out: &mut Vec<usize>) {
    if let Some(ids) = col.main.dictionary().value_id_range(lo, hi) {
        col.main.packed_codes().select_in_range_into(
            *ids.start() as u64,
            *ids.end() as u64,
            0,
            out,
        );
    }
    scan_tails_into(col, lo, hi, out);
}

/// Conjunction refinement: keep only selected rows whose `col` value lies
/// in `[lo, hi]`. Main rows compare their packed code against the value-id
/// range (random access, no decode); tail rows compare values.
pub(crate) fn refine_col<V: Value>(col: &ColView<'_, V>, lo: &V, hi: &V, rows: &mut Vec<usize>) {
    let ids = col.main.dictionary().value_id_range(lo, hi);
    let (id_lo, id_hi) = ids.map_or((1, 0), |r| (*r.start() as u64, *r.end() as u64));
    let nm = col.main.len();
    let codes = col.main.packed_codes();
    rows.retain(|&r| {
        if r < nm {
            let code = codes.get(r);
            code >= id_lo && code <= id_hi
        } else {
            let v = col.tail_value(r - nm);
            v >= *lo && v <= *hi
        }
    });
}

/// Apply one predicate's value-id range to a morsel's per-word match
/// masks over main rows `[start, end)` (`start` 64-aligned, masks are
/// morsel-local: bit 0 = row `start`): `and` refines an existing fill,
/// otherwise overwrite. A predicate matching no dictionary value zeroes
/// the whole mask.
fn mask_main_pred_at<V: Value>(
    col: &ColView<'_, V>,
    lo: &V,
    hi: &V,
    start: usize,
    end: usize,
    masks: &mut [u64],
    and: bool,
) {
    match col.main.dictionary().value_id_range(lo, hi) {
        Some(ids) => {
            let (id_lo, id_hi) = (*ids.start() as u64, *ids.end() as u64);
            if and {
                col.main
                    .packed_codes()
                    .and_range_mask_at(id_lo, id_hi, start, end, masks);
            } else {
                col.main
                    .packed_codes()
                    .fill_range_mask_at(id_lo, id_hi, start, end, masks);
            }
        }
        None => masks.fill(0),
    }
}

/// Can a conjunction run the fused mask pass? Only when every predicate
/// column's main partition has the same length — mid-incremental-merge
/// snapshots can hold columns whose mains differ (some already absorbed
/// the frozen delta), and a shared row mask would misalign.
fn fused_main_len<V: Value>(
    cols: &[ColView<'_, V>],
    preds: &[CompiledPredicate<V>],
) -> Option<usize> {
    let nm = cols[preds[0].col].main.len();
    preds[1..]
        .iter()
        .all(|p| cols[p.col].main.len() == nm)
        .then_some(nm)
}

/// Does tail row `i` (relative to the shared end of main) satisfy every
/// predicate?
fn tail_row_matches<V: Value>(
    cols: &[ColView<'_, V>],
    preds: &[CompiledPredicate<V>],
    i: usize,
) -> bool {
    preds.iter().all(|p| {
        let v = cols[p.col].tail_value(i);
        v >= p.lo && v <= p.hi
    })
}

/// Fused conjunction over one morsel of the main partitions (`start`
/// 64-aligned): build the first predicate's per-word match mask for
/// `[start, end)`, `AND` every further predicate's mask into it, and only
/// then materialize row ids — one dense bitset walk instead of a retain
/// pass per predicate. The returned masks are morsel-local (bit 0 = row
/// `start`).
fn fused_mask_at<V: Value>(
    cols: &[ColView<'_, V>],
    preds: &[CompiledPredicate<V>],
    start: usize,
    end: usize,
) -> Vec<u64> {
    let mut masks = vec![0u64; mask_words(end - start)];
    let (first, rest) = preds.split_first().expect("fused pass needs predicates");
    mask_main_pred_at(
        &cols[first.col],
        &first.lo,
        &first.hi,
        start,
        end,
        &mut masks,
        false,
    );
    for p in rest {
        mask_main_pred_at(&cols[p.col], &p.lo, &p.hi, start, end, &mut masks, true);
    }
    masks
}

/// Drop rows the validity bitmap marks deleted (no-op without a bitmap).
fn retain_valid(rows: &mut Vec<usize>, validity: Option<&ValidityBitmap>) {
    if let Some(v) = validity {
        rows.retain(|&r| v.is_valid(r));
    }
}

/// First-predicate scan of `col`'s tail regions only (global row ids start
/// at the end of main). Tails are short by construction — the merge bounds
/// them — so they run serially after the main morsels.
fn scan_tails_into<V: Value>(col: &ColView<'_, V>, lo: &V, hi: &V, out: &mut Vec<usize>) {
    let mut base = col.main.len();
    for tail in &col.tails {
        tail.select_in_range_into(lo, hi, base, out);
        base += tail.len();
    }
}

/// Count matching rows without materializing a selection vector (the
/// all-rows-valid fast path): a single predicate runs the popcount kernel
/// over each main morsel and each tail region; a conjunction popcounts the
/// fused per-word mask per morsel. Per-morsel counts add associatively, so
/// the hint cannot change the result.
fn count_cols<V: Value>(
    cols: &[ColView<'_, V>],
    n_rows: usize,
    preds: &[CompiledPredicate<V>],
    hint: usize,
) -> usize {
    if let [p] = preds {
        let col = &cols[p.col];
        let main = match col.main.dictionary().value_id_range(&p.lo, &p.hi) {
            Some(ids) => {
                let (id_lo, id_hi) = (*ids.start() as u64, *ids.end() as u64);
                let ranges = morsel_ranges(col.main.len(), hint);
                parallel_map(hint, ranges.len(), |i| {
                    let (s, e) = ranges[i];
                    col.main
                        .packed_codes()
                        .count_in_range_at(id_lo, id_hi, s, e)
                })
                .into_iter()
                .sum()
            }
            None => 0,
        };
        return main
            + col
                .tails
                .iter()
                .map(|t| t.count_in_range(&p.lo, &p.hi))
                .sum::<usize>();
    }
    match fused_main_len(cols, preds) {
        Some(nm) => {
            let ranges = morsel_ranges(nm, hint);
            let main: usize = parallel_map(hint, ranges.len(), |i| {
                let (s, e) = ranges[i];
                mask_count(&fused_mask_at(cols, preds, s, e))
            })
            .into_iter()
            .sum();
            main + (0..n_rows - nm)
                .filter(|&i| tail_row_matches(cols, preds, i))
                .count()
        }
        None => select_cols(cols, n_rows, preds, None, hint).len(),
    }
}

/// Evaluate the conjunction over homogeneous columns into a selection.
///
/// The main partition is processed per morsel (scan, fuse or refine, then
/// validity — each morsel emits its own ascending row ids); the tail
/// regions run serially afterwards. Concatenating the per-morsel vectors
/// in morsel order reproduces the serial ascending order exactly.
fn select_cols<V: Value>(
    cols: &[ColView<'_, V>],
    n_rows: usize,
    preds: &[CompiledPredicate<V>],
    validity: Option<&ValidityBitmap>,
    hint: usize,
) -> SelectionVector {
    let rows = match preds.split_first() {
        None => {
            // Enumeration, morselized for shape uniformity: each morsel
            // emits its valid rows; in-order concatenation is the
            // ascending row list.
            let ranges = morsel_ranges(n_rows, hint);
            concat(parallel_map(hint, ranges.len(), |i| {
                let (s, e) = ranges[i];
                let mut rows: Vec<usize> = (s..e).collect();
                retain_valid(&mut rows, validity);
                rows
            }))
        }
        Some((first, [])) => {
            let col = &cols[first.col];
            let ids = col.main.dictionary().value_id_range(&first.lo, &first.hi);
            let ranges = morsel_ranges(col.main.len(), hint);
            let mut parts = parallel_map(hint, ranges.len(), |i| {
                let (s, e) = ranges[i];
                let mut rows = Vec::new();
                if let Some(ids) = &ids {
                    col.main.packed_codes().select_in_range_into_at(
                        *ids.start() as u64,
                        *ids.end() as u64,
                        s,
                        e,
                        0,
                        &mut rows,
                    );
                }
                retain_valid(&mut rows, validity);
                rows
            });
            let mut tail_rows = Vec::new();
            scan_tails_into(col, &first.lo, &first.hi, &mut tail_rows);
            retain_valid(&mut tail_rows, validity);
            parts.push(tail_rows);
            concat(parts)
        }
        Some((first, rest)) => match fused_main_len(cols, preds) {
            Some(nm) => {
                // Fused pass per morsel: AND morsel-local per-word masks
                // across columns, then materialize once; tail rows check
                // all predicates fused.
                let ranges = morsel_ranges(nm, hint);
                let mut parts = parallel_map(hint, ranges.len(), |i| {
                    let (s, e) = ranges[i];
                    let masks = fused_mask_at(cols, preds, s, e);
                    let mut rows = Vec::new();
                    rows_from_mask(&masks, e - s, s, &mut rows);
                    retain_valid(&mut rows, validity);
                    rows
                });
                let mut tail_rows = Vec::new();
                for i in 0..n_rows - nm {
                    if tail_row_matches(cols, preds, i) {
                        tail_rows.push(nm + i);
                    }
                }
                retain_valid(&mut tail_rows, validity);
                parts.push(tail_rows);
                concat(parts)
            }
            None => {
                // Mid-merge stepped mains: scan the first column's main
                // per morsel, refine the other predicates row by row
                // within the morsel (random access works for any global
                // row id), then handle the first column's tails serially.
                let col = &cols[first.col];
                let ids = col.main.dictionary().value_id_range(&first.lo, &first.hi);
                let ranges = morsel_ranges(col.main.len(), hint);
                let mut parts = parallel_map(hint, ranges.len(), |i| {
                    let (s, e) = ranges[i];
                    let mut rows = Vec::new();
                    if let Some(ids) = &ids {
                        col.main.packed_codes().select_in_range_into_at(
                            *ids.start() as u64,
                            *ids.end() as u64,
                            s,
                            e,
                            0,
                            &mut rows,
                        );
                    }
                    for p in rest {
                        refine_col(&cols[p.col], &p.lo, &p.hi, &mut rows);
                    }
                    retain_valid(&mut rows, validity);
                    rows
                });
                let mut tail_rows = Vec::new();
                scan_tails_into(col, &first.lo, &first.hi, &mut tail_rows);
                for p in rest {
                    refine_col(&cols[p.col], &p.lo, &p.hi, &mut tail_rows);
                }
                retain_valid(&mut tail_rows, validity);
                parts.push(tail_rows);
                concat(parts)
            }
        },
    };
    SelectionVector::from_rows(rows)
}

fn fold_mm<V: Ord + Copy>(mm: Option<(V, V)>, v: V) -> Option<(V, V)> {
    Some(match mm {
        None => (v, v),
        Some((lo, hi)) => (lo.min(v), hi.max(v)),
    })
}

/// Sum rows `[start, end)` of `col` — a global row range that may span the
/// main partition (the packed cursor resumes at `start`) and tail regions;
/// a validity bitmap, when present, is checked per row.
fn sum_rows<V: Value>(
    col: &ColView<'_, V>,
    validity: Option<&ValidityBitmap>,
    start: usize,
    end: usize,
) -> u128 {
    let dict = col.main.dictionary();
    let nm = col.main.len();
    let mut acc: u128 = 0;
    if start < nm {
        let mut cur = col.main.packed_codes().cursor_at(start);
        for row in start..end.min(nm) {
            let code = cur.next_value();
            if validity.is_none_or(|val| val.is_valid(row)) {
                acc += dict.value_at(code as u32).to_u64_lossy() as u128;
            }
        }
    }
    let mut base = nm;
    for tail in &col.tails {
        let tail_end = base + tail.len();
        if start < tail_end && end > base {
            for row in start.max(base)..end.min(tail_end) {
                if validity.is_none_or(|val| val.is_valid(row)) {
                    acc += tail.get(row - base).to_u64_lossy() as u128;
                }
            }
        }
        base = tail_end;
    }
    acc
}

/// Full-column sum (no predicates): the bandwidth-bound analytical scan,
/// morselized over the whole row space (main and tails); per-morsel
/// partial sums add in morsel order.
fn sum_full<V: Value>(
    col: &ColView<'_, V>,
    validity: Option<&ValidityBitmap>,
    hint: usize,
) -> u128 {
    let ranges = morsel_ranges(col.len(), hint);
    parallel_map(hint, ranges.len(), |i| {
        let (s, e) = ranges[i];
        sum_rows(col, validity, s, e)
    })
    .into_iter()
    .sum()
}

/// One morsel's min/max partial: folded main *codes* (decoded later, once,
/// by the combiner) and folded tail values.
type MinMaxPartial<V> = (Option<(u64, u64)>, Option<(V, V)>);

/// Fold min/max over rows `[start, end)` of `col`: main rows fold *codes*
/// (decoded later, once, by the combiner), tail rows fold values.
fn min_max_rows<V: Value>(
    col: &ColView<'_, V>,
    validity: Option<&ValidityBitmap>,
    start: usize,
    end: usize,
) -> MinMaxPartial<V> {
    let nm = col.main.len();
    let mut code_mm: Option<(u64, u64)> = None;
    if start < nm {
        let mut cur = col.main.packed_codes().cursor_at(start);
        for row in start..end.min(nm) {
            let code = cur.next_value();
            if validity.is_none_or(|val| val.is_valid(row)) {
                code_mm = fold_mm(code_mm, code);
            }
        }
    }
    let mut val_mm: Option<(V, V)> = None;
    let mut base = nm;
    for tail in &col.tails {
        let tail_end = base + tail.len();
        if start < tail_end && end > base {
            for row in start.max(base)..end.min(tail_end) {
                if validity.is_none_or(|val| val.is_valid(row)) {
                    val_mm = fold_mm(val_mm, tail.get(row - base));
                }
            }
        }
        base = tail_end;
    }
    (code_mm, val_mm)
}

/// Full-column min/max (no predicates): each morsel folds main *codes* and
/// tail values; the combiner merges the partial extremes in morsel order
/// and decodes the two surviving codes once.
fn min_max_full<V: Value>(
    col: &ColView<'_, V>,
    validity: Option<&ValidityBitmap>,
    hint: usize,
) -> Option<(V, V)> {
    let ranges = morsel_ranges(col.len(), hint);
    let parts = parallel_map(hint, ranges.len(), |i| {
        let (s, e) = ranges[i];
        min_max_rows(col, validity, s, e)
    });
    let mut code_mm: Option<(u64, u64)> = None;
    let mut val_mm: Option<(V, V)> = None;
    for (c, v) in parts {
        if let Some((lo, hi)) = c {
            code_mm = fold_mm(fold_mm(code_mm, lo), hi);
        }
        if let Some((lo, hi)) = v {
            val_mm = fold_mm(fold_mm(val_mm, lo), hi);
        }
    }
    let dict = col.main.dictionary();
    let mut mm = code_mm.map(|(lo, hi)| (dict.value_at(lo as u32), dict.value_at(hi as u32)));
    if let Some((lo, hi)) = val_mm {
        mm = fold_mm(fold_mm(mm, lo), hi);
    }
    mm
}

/// The canonical engine over homogeneous column views — every typed
/// backend lands here.
fn execute_cols<V: Value>(
    cols: &[ColView<'_, V>],
    n_rows: usize,
    validity: Option<&ValidityBitmap>,
    q: &Query<V>,
) -> Output<V, usize> {
    let preds = q.predicates();
    let hint = q.threads();
    match q.action() {
        Action::Rows => Output::Rows(select_cols(cols, n_rows, preds, validity, hint).into_rows()),
        Action::Project(pcols) => {
            let sel = select_cols(cols, n_rows, preds, validity, hint);
            // Materialization is random access over the selection: split
            // it into plain chunks (no alignment needed) and concatenate
            // the per-chunk row vectors in order.
            let rows = sel.as_slice();
            let chunks = chunk_ranges(rows.len(), hint);
            Output::Projected(concat(parallel_map(hint, chunks.len(), |i| {
                let (s, e) = chunks[i];
                rows[s..e]
                    .iter()
                    .map(|&r| pcols.iter().map(|&c| cols[c].value(r)).collect())
                    .collect()
            })))
        }
        Action::Count => Output::Count(if preds.is_empty() {
            match validity {
                None => n_rows,
                // Bitmap and table agree on length (every table backend):
                // the maintained counter answers in O(1).
                Some(v) if v.len() == n_rows => v.valid_count(),
                // A caller-supplied bitmap may be longer than the attribute
                // (it only has to *cover* it) — count the covered rows.
                Some(v) => (0..n_rows).filter(|&r| v.is_valid(r)).count(),
            }
        } else if validity.is_none_or(|v| v.len() >= n_rows && v.valid_count() == v.len()) {
            // No invalid rows: count without materializing row ids.
            count_cols(cols, n_rows, preds, hint)
        } else {
            select_cols(cols, n_rows, preds, validity, hint).len()
        }),
        Action::Sum(c) => Output::Sum(if preds.is_empty() {
            sum_full(&cols[*c], validity, hint)
        } else {
            let col = &cols[*c];
            let sel = select_cols(cols, n_rows, preds, validity, hint);
            let rows = sel.as_slice();
            let chunks = chunk_ranges(rows.len(), hint);
            parallel_map(hint, chunks.len(), |i| {
                let (s, e) = chunks[i];
                rows[s..e]
                    .iter()
                    .map(|&r| col.value(r).to_u64_lossy() as u128)
                    .sum::<u128>()
            })
            .into_iter()
            .sum()
        }),
        Action::MinMax(c) => Output::MinMax(if preds.is_empty() {
            min_max_full(&cols[*c], validity, hint)
        } else {
            let col = &cols[*c];
            let sel = select_cols(cols, n_rows, preds, validity, hint);
            let rows = sel.as_slice();
            let chunks = chunk_ranges(rows.len(), hint);
            parallel_map(hint, chunks.len(), |i| {
                let (s, e) = chunks[i];
                rows[s..e]
                    .iter()
                    .fold(None, |mm, &r| fold_mm(mm, col.value(r)))
            })
            .into_iter()
            .flatten()
            .fold(None, |mm, (lo, hi)| fold_mm(fold_mm(mm, lo), hi))
        }),
    }
}

/// The snapshot engine body without the governor registration — the
/// sharded executor runs this once per shard under a single query-level
/// read guard.
fn execute_snapshot<V: Value>(snap: &TableSnapshot<V>, q: &Query<V>) -> Output<V, usize> {
    let views: Vec<ColView<'_, V>> = snap
        .cols()
        .iter()
        .map(|c| ColView {
            main: c.main(),
            tails: c.tails(),
        })
        .collect();
    execute_cols(&views, snap.row_count(), Some(snap.validity()), q)
}

impl<V: Value> Executor<V> for TableSnapshot<V> {
    type RowId = usize;

    /// The canonical engine: scan the snapshot's main partitions in
    /// value-id space, its frozen/active tails by value, entirely without
    /// the table lock.
    fn execute(&self, q: &Query<V>) -> Output<V, usize> {
        // Register this run with the resource governor's lock-free read
        // counters (two relaxed increments): the merge schedulers read
        // them as the read-pressure signal. Registration happens once per
        // *query* — a sharded fan-out or a many-morsel run still counts
        // as one read, so the governor's pressure signal tracks queries,
        // not the engine's internal parallelism.
        let _read = hyrise_core::governor::begin_read();
        execute_snapshot(self, q)
    }
}

impl<V: Value> Executor<V> for OnlineTable<V> {
    type RowId = usize;

    /// Snapshot-then-execute: one brief read lock to take a consistent
    /// [`TableSnapshot`], then the canonical engine runs lock-free —
    /// inserts and merges proceed underneath.
    fn execute(&self, q: &Query<V>) -> Output<V, usize> {
        self.snapshot().execute(q)
    }
}

impl<V: Value> Executor<V> for Attribute<V> {
    type RowId = usize;

    /// Single-column engine over main + delta; every row is visible (an
    /// [`Attribute`] carries no validity — see [`AttributeExecutor`] for
    /// the validity-aware view). Column index 0 addresses the attribute.
    fn execute(&self, q: &Query<V>) -> Output<V, usize> {
        AttributeExecutor::new(self).execute(q)
    }
}

/// An [`Attribute`] paired with an optional table-level [`ValidityBitmap`]
/// — the executor for validity-aware single-column queries.
pub struct AttributeExecutor<'a, V: Value> {
    attr: &'a Attribute<V>,
    validity: Option<&'a ValidityBitmap>,
}

impl<'a, V: Value> AttributeExecutor<'a, V> {
    /// Every row visible.
    pub fn new(attr: &'a Attribute<V>) -> Self {
        Self {
            attr,
            validity: None,
        }
    }

    /// Filter by `validity` (must cover the attribute's rows).
    pub fn with_validity(attr: &'a Attribute<V>, validity: &'a ValidityBitmap) -> Self {
        Self {
            attr,
            validity: Some(validity),
        }
    }
}

impl<V: Value> Executor<V> for AttributeExecutor<'_, V> {
    type RowId = usize;

    fn execute(&self, q: &Query<V>) -> Output<V, usize> {
        let _read = hyrise_core::governor::begin_read();
        let views = [ColView {
            main: self.attr.main(),
            tails: vec![TailRegion::Raw(self.attr.delta().values())],
        }];
        execute_cols(&views, self.attr.len(), self.validity, q)
    }
}

impl<V: Value> Executor<V> for ShardedTable<V> {
    type RowId = ShardRowId;

    /// Fan-out + merge: the shard snapshots come from one **consistent
    /// cut** (no cross-shard write batch is half-visible — see
    /// [`ShardedTable::consistent_snapshots`]), the canonical engine runs
    /// once per shard as pool tasks (the calling thread claims shards
    /// too), and the partial results are stitched in shard order — rows
    /// map to global [`ShardRowId`]s, counts and sums add, min/max
    /// reduce.
    fn execute(&self, q: &Query<V>) -> Output<V, ShardRowId> {
        let _read = hyrise_core::governor::begin_read();
        let snaps = self.consistent_snapshots();
        // Oversubscription clamp: the morsel hint multiplies across the
        // shard fan-out, so divide the pool between the shards — an
        // 8-shard query with an 8-morsel hint on an 8-thread pool runs
        // each shard serially instead of queueing 64 tasks. The shard
        // fan-out itself is bounded by the pool inside `run_indexed`.
        let pool = Pool::global();
        let per_shard = q.with_hint(
            q.threads()
                .min((pool.threads() / snaps.len().max(1)).max(1)),
        );
        let partials = parallel_map(snaps.len(), snaps.len(), |i| {
            execute_snapshot(&snaps[i], &per_shard)
        });
        match q.action() {
            Action::Rows => Output::Rows(
                partials
                    .into_iter()
                    .enumerate()
                    .flat_map(|(shard, p)| {
                        p.into_rows()
                            .into_iter()
                            .map(move |row| ShardRowId { shard, row })
                    })
                    .collect(),
            ),
            Action::Project(_) => Output::Projected(
                partials
                    .into_iter()
                    .flat_map(|p| p.into_projected())
                    .collect(),
            ),
            Action::Count => Output::Count(partials.iter().map(|p| p.count()).sum()),
            Action::Sum(_) => Output::Sum(partials.iter().map(|p| p.sum()).sum()),
            Action::MinMax(_) => Output::MinMax(
                partials
                    .iter()
                    .filter_map(|p| p.min_max())
                    .reduce(|(alo, ahi), (blo, bhi)| (alo.min(blo), ahi.max(bhi))),
            ),
        }
    }
}

fn attr_view<V: Value>(a: &Attribute<V>) -> ColView<'_, V> {
    ColView {
        main: a.main(),
        tails: vec![TailRegion::Raw(a.delta().values())],
    }
}

/// Apply one predicate to a heterogeneous table column: `first == true`
/// scans into `rows`, otherwise refines `rows` in place.
///
/// # Panics
/// If the predicate bounds' type does not match the column's type.
fn apply_table_pred(
    table: &Table,
    p: &CompiledPredicate<AnyValue>,
    first: bool,
    rows: &mut Vec<usize>,
) {
    macro_rules! typed {
        ($attr:expr, $lo:expr, $hi:expr) => {{
            let view = attr_view($attr);
            if first {
                scan_col_into(&view, $lo, $hi, rows);
            } else {
                refine_col(&view, $lo, $hi, rows);
            }
        }};
    }
    match (table.column(p.col), &p.lo, &p.hi) {
        (Column::U32(a), AnyValue::U32(lo), AnyValue::U32(hi)) => typed!(a, lo, hi),
        (Column::U64(a), AnyValue::U64(lo), AnyValue::U64(hi)) => typed!(a, lo, hi),
        (Column::V16(a), AnyValue::V16(lo), AnyValue::V16(hi)) => typed!(a, lo, hi),
        (col, lo, hi) => panic!(
            "predicate bounds {lo:?}..={hi:?} on column {} must be {}",
            p.col,
            col.column_type()
        ),
    }
}

impl Executor<AnyValue> for Table {
    type RowId = usize;

    /// Heterogeneous engine: each predicate dispatches to its column's
    /// concrete type (the same typed value-id kernels as everywhere else),
    /// then output materializes through [`AnyValue`].
    ///
    /// # Panics
    /// If a predicate's value type does not match its column's type, or a
    /// column index is out of range.
    fn execute(&self, q: &Query<AnyValue>) -> Output<AnyValue, usize> {
        let _read = hyrise_core::governor::begin_read();
        let preds = q.predicates();
        // Predicate-free aggregates need no selection vector: dispatch to
        // the typed bulk kernels on the aggregated column.
        if preds.is_empty() {
            match q.action() {
                Action::Count => return Output::Count(self.valid_row_count()),
                Action::Sum(c) => {
                    let validity = Some(self.validity());
                    return Output::Sum(match self.column(*c) {
                        Column::U32(a) => sum_full(&attr_view(a), validity, q.threads()),
                        Column::U64(a) => sum_full(&attr_view(a), validity, q.threads()),
                        Column::V16(a) => sum_full(&attr_view(a), validity, q.threads()),
                    });
                }
                Action::MinMax(c) => {
                    let validity = Some(self.validity());
                    return Output::MinMax(match self.column(*c) {
                        Column::U32(a) => min_max_full(&attr_view(a), validity, q.threads())
                            .map(|(lo, hi)| (AnyValue::U32(lo), AnyValue::U32(hi))),
                        Column::U64(a) => min_max_full(&attr_view(a), validity, q.threads())
                            .map(|(lo, hi)| (AnyValue::U64(lo), AnyValue::U64(hi))),
                        Column::V16(a) => min_max_full(&attr_view(a), validity, q.threads())
                            .map(|(lo, hi)| (AnyValue::V16(lo), AnyValue::V16(hi))),
                    });
                }
                Action::Rows | Action::Project(_) => {}
            }
        }
        let mut rows: Vec<usize> = match preds.split_first() {
            None => (0..self.row_count()).collect(),
            Some((first, rest)) => {
                let mut rows = Vec::new();
                apply_table_pred(self, first, true, &mut rows);
                for p in rest {
                    apply_table_pred(self, p, false, &mut rows);
                }
                rows
            }
        };
        rows.retain(|&r| self.is_valid(r));
        match q.action() {
            Action::Rows => Output::Rows(rows),
            Action::Project(pcols) => Output::Projected(
                rows.iter()
                    .map(|&r| pcols.iter().map(|&c| self.column(c).get(r)).collect())
                    .collect(),
            ),
            Action::Count => Output::Count(rows.len()),
            Action::Sum(c) => Output::Sum(
                rows.iter()
                    .map(|&r| self.column(*c).get(r).to_u64_lossy() as u128)
                    .sum(),
            ),
            Action::MinMax(c) => Output::MinMax(
                rows.iter()
                    .fold(None, |mm, &r| fold_mm(mm, self.column(*c).get(r))),
            ),
        }
    }
}
