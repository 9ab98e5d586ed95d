//! The unified execution engine: one [`Executor`] trait over every backend,
//! with dictionary value-id pushdown, dense row masks for aggregates and an
//! ascending row-id vector as the intermediate for row output.
//!
//! Every backend reduces its columns to the same physical shape — a
//! dictionary-compressed main partition cut at the snapshot's shared main
//! length, plus a short row-ordered list of [`TailRegion`]s (bit-packed
//! regions, raw append-only tail chunks) — and runs one engine over it.
//! The shared length is the shortest column's main: between the steps of
//! an incremental merge some columns already absorbed the frozen delta,
//! and their rows past it read as a packed region over their own
//! dictionary, just like the frozen delta the other columns still hold. A
//! mid-merge snapshot therefore reads the same regions, in the same shape,
//! as one taken before the merge's first step:
//!
//! 0. **Zone maps prune main first.** Before any kernel runs, each
//!    predicate's value-id range is checked against the main partition's
//!    per-block `(min, max)` codes ([`MainPartition::zones`], one entry per
//!    [`ZONE_ROWS`] rows), and the answers are combined over the
//!    conjunction. A block some predicate excludes costs nothing — no
//!    mask word, kernel or morsel touches it; a block whose zone lies
//!    inside a predicate's range skips that predicate (a count adds the
//!    block length, a mask `AND` is left out). On a monotonic key a
//!    lookup leaves one block; on a shuffled high-cardinality column every
//!    block survives and nothing changes.
//! 1. **Predicates run in code space.** A value interval is rewritten
//!    against the main dictionary ([`Dictionary::value_id_range`]) and the
//!    bit-packed codes are scanned **entirely in value-id space** by the
//!    word-parallel SWAR kernels (no tuple is decoded); packed tail regions
//!    do the same against their local dictionaries, raw regions fall back
//!    to value comparisons — they are small by construction, the merge
//!    bounds them.
//! 2. **Aggregates stay there.** `count`, `sum` and `min_max` never build
//!    a row-id vector: per morsel the validity *words* seed a dense
//!    row mask, every predicate is `AND`ed into it by the dense mask
//!    producer, and the masked code visitor hands the surviving rows'
//!    codes to the aggregate (a dictionary-slice gather for `sum`, a code
//!    fold for `min_max`, a popcount for `count`). A single-predicate
//!    count keeps the popcount kernels and subtracts the deleted rows
//!    that match.
//! 3. **Row output** (`rows`, `project`) materializes the matching row
//!    ids, ascending: one predicate runs the select kernels, a conjunction
//!    materializes the same fused mask once. Every column's main is cut at
//!    the same length, so the mask lines up across columns mid-merge too.
//!
//! **Morsel-driven parallelism.** Every stage above is phrased per morsel:
//! [`Query::with_threads`] is a morsel-count hint that cuts the surviving
//! spans of main into contiguous 64-row-aligned ranges (see
//! [`crate::morsel`]) claimed dynamically by the process-wide
//! [`hyrise_core::Pool`] — the engine spawns no threads of its own.
//! Main-range kernels run the `_at` SWAR entry points per morsel; the
//! short tail regions are scanned serially after the morsels; per-morsel
//! results combine strictly in morsel order, so the parallel output is
//! byte-identical to a serial run for every output shape.
//!
//! **Work-sized fan-out.** The hint is an upper bound, not a promise: the
//! morsel fan-out and the sharded executor's shard fan-out each get at
//! most one claimant per whole morsel of surviving rows (surviving main
//! rows plus tail rows, summed over shards). A read left with less than
//! one morsel of work — a pruned lookup, any query on a small table —
//! runs inline on the calling thread and queues no pool task.
//!
//! Implementations: [`TableSnapshot`] (the canonical engine),
//! [`OnlineTable`] (snapshot, then execute) and [`ShardedTable`] (fan out
//! one engine per shard snapshot as pool tasks, merge partial results).

use crate::morsel::{
    chunk_ranges, concat, morsel_ranges, parallel_map, span_morsels, work_width, Span,
};
use crate::plan::{Action, CompiledPredicate, Query};
use hyrise_bitpack::{mask_count, mask_words, rows_from_mask};
use hyrise_core::shard::{ShardRowId, ShardedTable};
use hyrise_core::{OnlineTable, Pool, TableSnapshot};
#[cfg(doc)]
use hyrise_storage::Dictionary;
use hyrise_storage::{MainPartition, TailRegion, ValidityBitmap, Value, ZONE_ROWS};

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
/// partition, read only below the snapshot's shared main length, plus tail
/// regions in row order (the main's own rows past that length, the
/// bit-packed frozen delta, then the append-only tail's raw chunks; absent
/// regions contribute nothing).
struct ColView<'a, V: Value> {
    main: &'a MainPartition<V>,
    tails: Vec<TailRegion<'a, V>>,
}

impl<V: Value> ColView<'_, V> {
    /// Value of a tail row (row id relative to the shared end of main).
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
}

/// One snapshot made ready to run one query: its columns in the engine's
/// shape, and the morsels the zone maps leave of its main partition.
struct Prepared<'a, V: Value> {
    cols: Vec<ColView<'a, V>>,
    preds: &'a [CompiledPredicate<V>],
    n_rows: usize,
    /// Covers exactly the `n_rows` rows of `cols`.
    validity: &'a ValidityBitmap,
    /// The shared main length: every column reads its main below it and
    /// everything from it on through its tail regions.
    nm: usize,
    /// The spans of main that survive pruning, cut into morsels.
    morsels: Vec<Span>,
    /// Rows left to examine: surviving main rows plus every tail row.
    work: usize,
    hint: usize,
}

impl<V: Value> Prepared<'_, V> {
    /// Claimants for the main morsels: the hint, capped by the work.
    fn width(&self) -> usize {
        work_width(self.hint, self.work)
    }

    /// Materialize one row of column `c` (main rows decode through the
    /// dictionary).
    fn value(&self, c: usize, row: usize) -> V {
        let col = &self.cols[c];
        if row < self.nm {
            col.main.get(row)
        } else {
            col.tail_value(row - self.nm)
        }
    }
}

/// Build the column views of `snap`, cut at its shared main length, and
/// prune that main for `q`, cutting the survivors into morsels for `hint`.
fn prepare<'a, V: Value>(
    snap: &'a TableSnapshot<V>,
    q: &'a Query<V>,
    hint: usize,
) -> Prepared<'a, V> {
    // The shortest main (the table's `N_M`): a column a merge step already
    // committed hands its rows past it to the engine as a packed region.
    let nm = snap
        .cols()
        .iter()
        .map(|c| c.main().len())
        .min()
        .unwrap_or(0);
    let cols: Vec<ColView<'a, V>> = snap
        .cols()
        .iter()
        .map(|c| {
            let (main, mut tails) = (c.main(), c.tails());
            if main.len() > nm {
                let suffix = TailRegion::Packed {
                    dict: main.dictionary(),
                    codes: main.packed_codes(),
                    rows: nm..main.len(),
                };
                tails.insert(0, suffix);
            }
            ColView { main, tails }
        })
        .collect();
    let n_rows = snap.row_count();
    let preds = q.predicates();
    // Predicates and column aggregates read main through the morsels;
    // unfiltered rows and projections enumerate every row, and an
    // unfiltered count reads the bitmap's counter.
    let reads_main = !preds.is_empty() || matches!(q.action(), Action::Sum(_) | Action::MinMax(_));
    let spans = if reads_main {
        prune(&cols, preds, nm)
    } else {
        Vec::new()
    };
    let work = match q.action() {
        _ if reads_main => spans.iter().map(Span::len).sum::<usize>() + n_rows - nm,
        Action::Count => 0,
        _ => n_rows,
    };
    Prepared {
        cols,
        preds,
        n_rows,
        validity: snap.validity(),
        nm,
        morsels: span_morsels(&spans, hint),
        work,
        hint,
    }
}

/// The spans of the shared main (`nm` rows) the zone maps leave for
/// `preds`, in row order. A block is dropped when its zone misses some
/// predicate's value-id range; a surviving block still needs exactly the
/// predicates whose range does not cover its zone. Adjacent blocks with
/// the same needs coalesce, so when nothing prunes this is the single span
/// `[0, nm)` needing every predicate. A longer main's block that straddles
/// `nm` has a zone over a superset of the block's rows below `nm`, so its
/// answer holds for them too.
fn prune<V: Value>(
    cols: &[ColView<'_, V>],
    preds: &[CompiledPredicate<V>],
    nm: usize,
) -> Vec<Span> {
    let mut checks = Vec::with_capacity(preds.len());
    for (i, p) in preds.iter().enumerate() {
        let main = cols[p.col].main;
        match main.dictionary().value_id_range(&p.lo, &p.hi) {
            Some(ids) => checks.push((i, main.zones(), *ids.start(), *ids.end())),
            None => return Vec::new(),
        }
    }
    // One bit per predicate (all 64 when there are more).
    let all = u64::MAX
        .checked_shr(64u32.saturating_sub(preds.len() as u32))
        .unwrap_or(0);
    let mut spans: Vec<Span> = Vec::new();
    'blocks: for b in 0..nm.div_ceil(ZONE_ROWS) {
        let mut need = all;
        for &(i, zones, lo, hi) in &checks {
            let (z_lo, z_hi) = zones[b];
            if z_hi < lo || z_lo > hi {
                continue 'blocks;
            }
            if lo <= z_lo && z_hi <= hi && i < 64 {
                need &= !(1 << i);
            }
        }
        let (start, end) = (b * ZONE_ROWS, nm.min((b + 1) * ZONE_ROWS));
        match spans.last_mut() {
            Some(last) if last.end == start && last.need == need => last.end = end,
            _ => spans.push(Span { start, end, need }),
        }
    }
    spans
}

/// Clear the bits at or beyond `rows` in the last word of a dense row mask
/// of `mask_words(rows)` words.
fn clear_past(masks: &mut [u64], rows: usize) {
    if let Some(last) = masks.last_mut().filter(|_| !rows.is_multiple_of(64)) {
        *last &= (1u64 << (rows % 64)) - 1;
    }
}

/// The mask every aggregate and the fused row scan consume: bit `r` of the
/// mask over morsel `m` of the shared main is set iff row `m.start + r` is
/// valid **and** satisfies every predicate. The validity *words* seed the
/// mask — main rows are global rows `0..nm`, so mask word `j` is validity
/// word `m.start / 64 + j` — and each predicate the morsel still needs has
/// its value-id range `AND`ed into it in code space, skipping 64-row
/// blocks that are already empty. A predicate matching no dictionary value
/// zeroes the whole mask.
fn valid_mask_at<V: Value>(t: &Prepared<'_, V>, m: Span) -> Vec<u64> {
    let n = mask_words(m.len());
    let mut masks = t.validity.words()[m.start / 64..m.start / 64 + n].to_vec();
    clear_past(&mut masks, m.len());
    for (i, p) in t.preds.iter().enumerate() {
        if !m.needs(i) {
            continue;
        }
        let main = t.cols[p.col].main;
        match main.dictionary().value_id_range(&p.lo, &p.hi) {
            Some(ids) => main.packed_codes().and_range_mask_at(
                *ids.start() as u64,
                *ids.end() as u64,
                m.start,
                m.end,
                &mut masks,
            ),
            None => masks.fill(0),
        }
    }
    masks
}

/// Run `f(morsel, mask)` over every surviving morsel of the shared main,
/// `mask` being that morsel's [`valid_mask_at`]; results come back in
/// morsel order.
fn map_main_masks<V: Value, T: Send + Sync>(
    t: &Prepared<'_, V>,
    f: impl Fn(Span, &[u64]) -> T + Sync,
) -> Vec<T> {
    parallel_map(t.width(), t.morsels.len(), |i| {
        let m = t.morsels[i];
        f(m, &valid_mask_at(t, m))
    })
}

/// Tail rows (relative to the shared end of main, `t.nm`) that are valid
/// and satisfy every predicate, ascending. Tails are short by
/// construction — the merge bounds them — so they run row at a time,
/// serially, after the main morsels.
fn matching_tail_rows<'a, V: Value>(t: &'a Prepared<'a, V>) -> impl Iterator<Item = usize> + 'a {
    (0..t.n_rows - t.nm).filter(move |&i| {
        t.validity.is_valid(t.nm + i)
            && t.preds.iter().all(|p| {
                let v = t.cols[p.col].tail_value(i);
                v >= p.lo && v <= p.hi
            })
    })
}

/// First-predicate scan of `col`'s tail regions only (global row ids start
/// at `base`, the shared end of main). Tails are short by construction —
/// the merge bounds them — so they run serially after the main morsels.
fn scan_tails_into<V: Value>(
    col: &ColView<'_, V>,
    lo: &V,
    hi: &V,
    mut base: usize,
    out: &mut Vec<usize>,
) {
    for tail in &col.tails {
        tail.select_in_range_into(lo, hi, base, out);
        base += tail.len();
    }
}

/// First-predicate scan of morsel `m` of `col`'s main: the rows whose code
/// lies in `ids`, ascending — every row of the morsel when its zones
/// already satisfy the predicate.
fn select_first_at<V: Value>(
    col: &ColView<'_, V>,
    ids: &Option<std::ops::RangeInclusive<u32>>,
    m: Span,
) -> Vec<usize> {
    let mut rows = Vec::new();
    if !m.needs(0) {
        rows.extend(m.start..m.end);
    } else if let Some(ids) = ids {
        col.main.packed_codes().select_in_range_into_at(
            *ids.start() as u64,
            *ids.end() as u64,
            m.start,
            m.end,
            0,
            &mut rows,
        );
    }
    rows
}

/// How many rows of `ranges` (ascending, each `[start, end)`) the bitmap
/// marks deleted *and* `matches` accepts. Deleted rows are the zero bits
/// of the validity words; a word without one costs a single compare, and
/// words outside the ranges are never read.
fn count_deleted(
    v: &ValidityBitmap,
    ranges: impl Iterator<Item = (usize, usize)>,
    mut matches: impl FnMut(usize) -> bool,
) -> usize {
    let mut n = 0usize;
    for (s, e) in ranges {
        let first = s / 64;
        for (j, &w) in (first..).zip(&v.words()[first..e.div_ceil(64)]) {
            if w == u64::MAX {
                continue;
            }
            // Bits of word `j` inside `[s, e)`.
            let below_end = match e - j * 64 {
                k if k >= 64 => u64::MAX,
                k => (1u64 << k) - 1,
            };
            let from_start = u64::MAX << s.saturating_sub(j * 64);
            let mut deleted = !w & below_end & from_start;
            while deleted != 0 {
                n += matches(j * 64 + deleted.trailing_zeros() as usize) as usize;
                deleted &= deleted - 1;
            }
        }
    }
    n
}

/// Count matching valid rows without materializing a row id.
///
/// A single predicate keeps the popcount kernels — over each surviving
/// main morsel (a morsel the zone maps already satisfy adds its length)
/// and each tail region — whether or not rows are deleted, and subtracts
/// the deleted rows that match, walked from the zero bits of the validity
/// words of the surviving morsels and the tails (main rows compare their
/// packed code, tail rows their value). A conjunction popcounts the fused
/// [`valid_mask_at`] per morsel. Per-morsel counts add associatively, so
/// the hint cannot change the result.
fn count_cols<V: Value>(t: &Prepared<'_, V>) -> usize {
    if let [p] = t.preds {
        let col = &t.cols[p.col];
        let codes = col.main.packed_codes();
        let ids = col
            .main
            .dictionary()
            .value_id_range(&p.lo, &p.hi)
            .map(|r| (*r.start() as u64, *r.end() as u64));
        let main: usize = ids.map_or(0, |(id_lo, id_hi)| {
            parallel_map(t.width(), t.morsels.len(), |i| {
                let m = t.morsels[i];
                if m.needs(0) {
                    codes.count_in_range_at(id_lo, id_hi, m.start, m.end)
                } else {
                    m.len()
                }
            })
            .into_iter()
            .sum()
        });
        let tails: usize = col
            .tails
            .iter()
            .map(|tail| tail.count_in_range(&p.lo, &p.hi))
            .sum();
        let ranges = t.morsels.iter().map(|m| (m.start, m.end));
        let deleted = count_deleted(t.validity, ranges.chain([(t.nm, t.n_rows)]), |r| {
            if r < t.nm {
                ids.is_some_and(|(id_lo, id_hi)| (id_lo..=id_hi).contains(&codes.get(r)))
            } else {
                let x = col.tail_value(r - t.nm);
                x >= p.lo && x <= p.hi
            }
        });
        return main + tails - deleted;
    }
    let main: usize = map_main_masks(t, |_, masks| mask_count(masks))
        .into_iter()
        .sum();
    main + matching_tail_rows(t).count()
}

/// Evaluate the conjunction into the matching valid row ids, ascending.
///
/// The surviving main morsels are processed one by one (scan or fuse, then
/// validity — each morsel emits its own ascending row ids); the tail
/// regions run serially afterwards. Concatenating the per-morsel vectors in
/// morsel order reproduces the serial ascending order exactly.
fn select_cols<V: Value>(t: &Prepared<'_, V>) -> Vec<usize> {
    let valid = |rows: &mut Vec<usize>| rows.retain(|&r| t.validity.is_valid(r));
    match t.preds.split_first() {
        None => {
            // Enumeration, morselized for shape uniformity: each morsel
            // emits its valid rows; in-order concatenation is the
            // ascending row list.
            let ranges = morsel_ranges(t.n_rows, t.hint);
            concat(parallel_map(t.width(), ranges.len(), |i| {
                let (s, e) = ranges[i];
                let mut rows: Vec<usize> = (s..e).collect();
                valid(&mut rows);
                rows
            }))
        }
        Some((first, [])) => {
            let col = &t.cols[first.col];
            let ids = col.main.dictionary().value_id_range(&first.lo, &first.hi);
            let mut parts = parallel_map(t.width(), t.morsels.len(), |i| {
                let mut rows = select_first_at(col, &ids, t.morsels[i]);
                valid(&mut rows);
                rows
            });
            let mut tail_rows = Vec::new();
            scan_tails_into(col, &first.lo, &first.hi, t.nm, &mut tail_rows);
            valid(&mut tail_rows);
            parts.push(tail_rows);
            concat(parts)
        }
        Some(_) => {
            // Fused pass per morsel: AND morsel-local per-word masks
            // across columns and validity, then materialize once; tail
            // rows check all predicates fused.
            let mut parts = map_main_masks(t, |m, masks| {
                let mut rows = Vec::new();
                rows_from_mask(masks, m.len(), m.start, &mut rows);
                rows
            });
            parts.push(matching_tail_rows(t).map(|i| t.nm + i).collect());
            concat(parts)
        }
    }
}

fn fold_mm<V: Ord + Copy>(mm: Option<(V, V)>, v: V) -> Option<(V, V)> {
    Some(match mm {
        None => (v, v),
        Some((lo, hi)) => (lo.min(v), hi.max(v)),
    })
}

/// Sum column `c` over the valid rows satisfying the predicates, entirely
/// in code space over main: each surviving morsel feeds its
/// [`valid_mask_at`] to the masked code visitor and gathers through the
/// dictionary slice, exact in `u128`; matching tail rows add their values.
/// Per-morsel partial sums add in morsel order.
fn sum_masked<V: Value>(t: &Prepared<'_, V>, c: usize) -> u128 {
    let col = &t.cols[c];
    let codes = col.main.packed_codes();
    let values = col.main.dictionary().values();
    let main: u128 = map_main_masks(t, |m, masks| {
        let mut acc: u128 = 0;
        codes.for_each_masked_at(m.start, m.end, masks, |code| {
            acc += values[code as usize].to_u64_lossy() as u128;
        });
        acc
    })
    .into_iter()
    .sum();
    main + matching_tail_rows(t)
        .map(|i| col.tail_value(i).to_u64_lossy() as u128)
        .sum::<u128>()
}

/// Min/max of column `c` over the valid rows satisfying the predicates:
/// each surviving morsel folds main *codes* through the masked visitor
/// (codes are order-preserving, so the two surviving codes are decoded
/// once, by the combiner); matching tail rows fold values.
fn min_max_masked<V: Value>(t: &Prepared<'_, V>, c: usize) -> Option<(V, V)> {
    let col = &t.cols[c];
    let codes = col.main.packed_codes();
    let code_mm = map_main_masks(t, |m, masks| {
        let mut mm: Option<(u64, u64)> = None;
        codes.for_each_masked_at(m.start, m.end, masks, |code| mm = fold_mm(mm, code));
        mm
    })
    .into_iter()
    .flatten()
    .fold(None, |mm, (lo, hi)| fold_mm(fold_mm(mm, lo), hi));
    let dict = col.main.dictionary();
    let mm = code_mm.map(|(lo, hi)| (dict.value_at(lo as u32), dict.value_at(hi as u32)));
    matching_tail_rows(t).fold(mm, |mm, i| fold_mm(mm, col.tail_value(i)))
}

/// Fold `f` over chunks of an already materialized selection, the chunks
/// cut for the hint and claimed by as many claimants as the selection has
/// whole morsels of rows.
fn map_chunks<T: Send + Sync>(
    rows: &[usize],
    hint: usize,
    f: impl Fn(&[usize]) -> T + Sync,
) -> Vec<T> {
    let chunks = chunk_ranges(rows.len(), hint);
    parallel_map(work_width(hint, rows.len()), chunks.len(), |i| {
        let (s, e) = chunks[i];
        f(&rows[s..e])
    })
}

/// The canonical engine over one prepared snapshot.
fn execute_prepared<V: Value>(t: &Prepared<'_, V>, action: &Action) -> Output<V, usize> {
    match action {
        Action::Rows => Output::Rows(select_cols(t)),
        Action::Project(pcols) => {
            // Materialization is random access over the selection: split
            // it into plain chunks (no alignment needed) and concatenate
            // the per-chunk row vectors in order.
            let rows = select_cols(t);
            Output::Projected(concat(map_chunks(&rows, t.hint, |chunk| {
                chunk
                    .iter()
                    .map(|&r| pcols.iter().map(|&c| t.value(c, r)).collect())
                    .collect()
            })))
        }
        Action::Count => Output::Count(if t.preds.is_empty() {
            // The bitmap's maintained counter answers in O(1).
            t.validity.valid_count()
        } else {
            count_cols(t)
        }),
        Action::Sum(c) => Output::Sum(sum_masked(t, *c)),
        Action::MinMax(c) => Output::MinMax(min_max_masked(t, *c)),
    }
}

impl<V: Value> Executor<V> for TableSnapshot<V> {
    type RowId = usize;

    /// The canonical engine: scan the snapshot's main partitions in
    /// value-id space, its frozen/active tails by value, entirely without
    /// the table lock.
    fn execute(&self, q: &Query<V>) -> Output<V, usize> {
        // Register this run with the lock-free read counters (two relaxed
        // increments) the server reports as reads in flight. Registration
        // happens once per *query* — a sharded fan-out or a many-morsel run
        // still counts as one read, so the counters track queries, not the
        // engine's internal parallelism.
        let _read = hyrise_core::begin_read();
        execute_prepared(&prepare(self, q, q.threads()), q.action())
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

impl<V: Value> Executor<V> for ShardedTable<V> {
    type RowId = ShardRowId;

    /// Fan-out + merge: the shard snapshots come from one **consistent
    /// cut** (no cross-shard write batch is half-visible — see
    /// [`ShardedTable::consistent_snapshots`]), the canonical engine runs
    /// once per shard as pool tasks (the calling thread claims shards too
    /// only when that takes no core from anyone: it is a pool worker, or a
    /// worker was parked — see [`Pool::run_indexed`]), and the partial
    /// results are stitched in shard order — rows
    /// map to global [`ShardRowId`]s, counts and sums add, min/max
    /// reduce.
    fn execute(&self, q: &Query<V>) -> Output<V, ShardRowId> {
        let _read = hyrise_core::begin_read();
        let snaps = self.consistent_snapshots();
        // Oversubscription clamp: the morsel hint multiplies across the
        // shard fan-out, so divide the pool between the shards — an
        // 8-shard query with an 8-morsel hint on an 8-thread pool runs
        // each shard serially instead of queueing 64 tasks. Both fan-outs
        // are then capped by the work the zone maps leave: a query with
        // less than one morsel of surviving rows across all shards runs
        // every shard inline on the calling thread.
        let pool = Pool::global();
        let hint = q
            .threads()
            .min((pool.threads() / snaps.len().max(1)).max(1));
        let prepared: Vec<Prepared<'_, V>> = snaps.iter().map(|s| prepare(s, q, hint)).collect();
        let work = prepared.iter().map(|p| p.work).sum();
        let partials = parallel_map(work_width(snaps.len(), work), snaps.len(), |i| {
            execute_prepared(&prepared[i], q.action())
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
