//! The logical query: a typed builder that compiles conjunctive predicates
//! into value-interval form, ready for dictionary value-id pushdown.
//!
//! A [`Query`] describes *what* to compute — a conjunction of per-column
//! predicates plus one output action (matching rows, a projection, or an
//! aggregate). It says nothing about *where* the data lives: the same query
//! value runs unchanged against every backend that implements
//! [`Executor`] (a [`TableSnapshot`](hyrise_core::TableSnapshot), an
//! [`OnlineTable`](hyrise_core::OnlineTable) or a
//! [`ShardedTable`](hyrise_core::shard::ShardedTable)).
//!
//! Predicates are *compiled*, not interpreted: `eq(v)` and `between(a, b)`
//! both normalize to a [`CompiledPredicate`] — an inclusive value interval
//! per column. At execution time each backend rewrites the interval against
//! its main partition's dictionary
//! ([`Dictionary::value_id_range`](hyrise_storage::Dictionary::value_id_range))
//! and scans the bit-packed codes entirely in value-id space; only the
//! small, unsorted delta tail falls back to value comparisons. That is the
//! paper's compressed-scan discipline (Section 3) packaged as an API.

use crate::exec::{Executor, Output};

/// One column's compiled predicate: the inclusive value interval
/// `[lo, hi]`. Equality is the collapsed interval `lo == hi`; an inverted
/// interval (`lo > hi`) matches nothing. At execution time the interval is
/// rewritten per main partition into a dictionary value-id range, so the
/// compressed scan never decodes a tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompiledPredicate<V> {
    /// The column the interval constrains.
    pub col: usize,
    /// Inclusive lower bound.
    pub lo: V,
    /// Inclusive upper bound.
    pub hi: V,
}

/// The query's output action (what [`Query::run`] returns).
///
/// Public so out-of-process callers (the network front-end) can serialize a
/// plan: a `Query` is fully described by its predicates, its action, and
/// its thread hint, and [`Query::from_parts`] rebuilds it from exactly
/// those pieces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Matching row ids (the default).
    Rows,
    /// Materialized values of the given columns for matching rows.
    Project(Vec<usize>),
    /// Number of matching rows.
    Count,
    /// Sum of the 64-bit projections of a column over matching rows.
    Sum(usize),
    /// Min and max of a column over matching rows.
    MinMax(usize),
}

/// A typed logical query: conjunctive predicates + one output action.
///
/// Build with [`Query::scan`], add predicates with [`Query::eq`] /
/// [`Query::between`] (switching columns via [`Query::and`]), pick an
/// output with [`Query::project`] / [`Query::sum`] / [`Query::min_max`] /
/// [`Query::count`] (default: matching rows), then [`Query::run`] it
/// against any executor. The query is a plain value — build once, run
/// against many backends.
///
/// ```
/// use hyrise_core::OnlineTable;
/// use hyrise_query::Query;
/// use hyrise_storage::MainPartition;
///
/// let main = MainPartition::from_values(&[10u64, 20, 30, 20]);
/// let table = OnlineTable::from_mains(vec![main]);
/// table.insert_row(&[20]).unwrap(); // lands in the delta
///
/// let rows = Query::scan(0).eq(20).run(&table).into_rows();
/// assert_eq!(rows, vec![1, 3, 4]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Query<V> {
    preds: Vec<CompiledPredicate<V>>,
    /// Column targeted by the next `eq` / `between`.
    cur_col: usize,
    action: Action,
    threads: usize,
}

impl<V: Copy> Query<V> {
    /// Start a query whose first predicate (if any) targets `col`. With no
    /// predicate attached, the query selects every visible row.
    ///
    /// ```
    /// use hyrise_query::Query;
    /// use hyrise_core::OnlineTable;
    ///
    /// let t = OnlineTable::<u64>::new(2);
    /// t.insert_row(&[1, 10]).unwrap();
    /// t.insert_row(&[2, 20]).unwrap();
    /// assert_eq!(Query::scan(0).count().run(&t).count(), 2);
    /// ```
    pub fn scan(col: usize) -> Self {
        Self {
            preds: Vec::new(),
            cur_col: col,
            action: Action::Rows,
            threads: 1,
        }
    }

    /// Constrain the current column to equal `v` (compiled to the collapsed
    /// interval `[v, v]`; on the main partition this is one dictionary
    /// binary search plus a packed-code equality scan).
    ///
    /// ```
    /// use hyrise_query::Query;
    /// use hyrise_core::OnlineTable;
    ///
    /// let t = OnlineTable::<u64>::new(1);
    /// for v in [5u64, 7, 5] {
    ///     t.insert_row(&[v]).unwrap();
    /// }
    /// assert_eq!(Query::scan(0).eq(5).run(&t).into_rows(), vec![0, 2]);
    /// ```
    pub fn eq(self, v: V) -> Self {
        self.between(v, v)
    }

    /// Constrain the current column to the inclusive range `[lo, hi]`
    /// (order-preserving dictionary codes make this a value-id range scan
    /// on the main partition). An inverted range matches nothing.
    ///
    /// ```
    /// use hyrise_query::Query;
    /// use hyrise_core::OnlineTable;
    ///
    /// let t = OnlineTable::<u64>::new(1);
    /// for v in [5u64, 7, 9, 11] {
    ///     t.insert_row(&[v]).unwrap();
    /// }
    /// assert_eq!(Query::scan(0).between(6, 10).run(&t).into_rows(), vec![1, 2]);
    /// ```
    pub fn between(mut self, lo: V, hi: V) -> Self {
        self.preds.push(CompiledPredicate {
            col: self.cur_col,
            lo,
            hi,
        });
        self
    }

    /// Target `col` with the next predicate — the conjunction connective:
    /// `Query::scan(0).eq(a).and(1).between(lo, hi)` selects rows matching
    /// *both* predicates.
    ///
    /// ```
    /// use hyrise_query::Query;
    /// use hyrise_core::OnlineTable;
    ///
    /// let t = OnlineTable::<u64>::new(2);
    /// t.insert_row(&[1, 10]).unwrap();
    /// t.insert_row(&[1, 99]).unwrap();
    /// t.insert_row(&[2, 10]).unwrap();
    /// let rows = Query::scan(0).eq(1).and(1).eq(10).run(&t).into_rows();
    /// assert_eq!(rows, vec![0]);
    /// ```
    pub fn and(mut self, col: usize) -> Self {
        self.cur_col = col;
        self
    }

    /// Output the materialized values of `cols` (in the given order) for
    /// every matching row, instead of row ids.
    ///
    /// ```
    /// use hyrise_query::Query;
    /// use hyrise_core::OnlineTable;
    ///
    /// let t = OnlineTable::<u64>::new(2);
    /// t.insert_row(&[1, 10]).unwrap();
    /// t.insert_row(&[2, 20]).unwrap();
    /// let rows = Query::scan(0).eq(2).project(&[1, 0]).run(&t).into_projected();
    /// assert_eq!(rows, vec![vec![20, 2]]);
    /// ```
    pub fn project(mut self, cols: &[usize]) -> Self {
        self.action = Action::Project(cols.to_vec());
        self
    }

    /// Output the sum of the 64-bit projections of `col` over matching rows.
    ///
    /// ```
    /// use hyrise_query::Query;
    /// use hyrise_core::OnlineTable;
    ///
    /// let t = OnlineTable::<u64>::new(1);
    /// for v in [5u64, 7, 9] {
    ///     t.insert_row(&[v]).unwrap();
    /// }
    /// assert_eq!(Query::scan(0).between(6, 10).sum(0).run(&t).sum(), 16);
    /// ```
    pub fn sum(mut self, col: usize) -> Self {
        self.action = Action::Sum(col);
        self
    }

    /// Output the minimum and maximum of `col` over matching rows (`None`
    /// when nothing matches).
    ///
    /// ```
    /// use hyrise_query::Query;
    /// use hyrise_core::OnlineTable;
    ///
    /// let t = OnlineTable::<u64>::new(1);
    /// for v in [5u64, 7, 9] {
    ///     t.insert_row(&[v]).unwrap();
    /// }
    /// assert_eq!(Query::scan(0).min_max(0).run(&t).min_max(), Some((5, 9)));
    /// ```
    pub fn min_max(mut self, col: usize) -> Self {
        self.action = Action::MinMax(col);
        self
    }

    /// Output the number of matching rows.
    pub fn count(mut self) -> Self {
        self.action = Action::Count;
        self
    }

    /// Hint how many pool workers may claim morsels concurrently for
    /// *every* output shape — scans, conjunctions, counts, sums, min/max
    /// and projections, filtered or not. `1` (the default) runs serially
    /// on the calling thread; a larger hint splits the work into
    /// contiguous word-aligned morsels executed on the shared worker pool
    /// with results combined in morsel order, so the output is
    /// byte-identical regardless of the hint. Sharded executors clamp the
    /// per-shard hint so the shard fan-out times the morsel hint never
    /// oversubscribes the pool, and every fan-out is capped at one
    /// claimant per whole morsel of rows left after zone-map pruning, so
    /// a small read runs on the calling thread whatever its hint.
    /// Best-effort — executors are free to ignore it.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Execute against any backend. Equivalent to `exec.execute(self)`.
    ///
    /// ```
    /// use hyrise_query::Query;
    /// use hyrise_core::shard::ShardedTable;
    ///
    /// let t = ShardedTable::<u64>::builder().shards(2).columns(1).build().unwrap();
    /// t.insert_rows(&[[1u64], [2], [1]]).unwrap();
    /// let q = Query::scan(0).eq(1).count();
    /// assert_eq!(q.run(&t).count(), 2);
    /// ```
    pub fn run<E: Executor<V> + ?Sized>(&self, exec: &E) -> Output<V, E::RowId> {
        exec.execute(self)
    }

    /// The compiled conjunction, in the order predicates were added.
    pub fn predicates(&self) -> &[CompiledPredicate<V>] {
        &self.preds
    }

    /// The output action (executors and plan serializers match on it).
    pub fn action(&self) -> &Action {
        &self.action
    }

    /// Rebuild a query from its serialized parts: the compiled predicate
    /// conjunction, the output action, and the thread hint (clamped to
    /// ≥ 1). This is the deserialization counterpart of
    /// [`Query::predicates`] / [`Query::action`] / [`Query::threads`]:
    /// the rebuilt query executes identically to the original (the only
    /// state not carried over is the builder's current-column cursor,
    /// which affects future `eq`/`between` calls, not execution).
    ///
    /// ```
    /// use hyrise_query::{Action, CompiledPredicate, Query};
    ///
    /// let q = Query::scan(0).between(3u64, 9).count().with_threads(2);
    /// let rebuilt = Query::from_parts(
    ///     q.predicates().to_vec(),
    ///     q.action().clone(),
    ///     q.threads(),
    /// );
    /// assert_eq!(rebuilt.predicates(), q.predicates());
    /// assert_eq!(rebuilt.action(), q.action());
    /// assert_eq!(rebuilt.threads(), q.threads());
    /// ```
    pub fn from_parts(preds: Vec<CompiledPredicate<V>>, action: Action, threads: usize) -> Self {
        Self {
            preds,
            cur_col: 0,
            action,
            threads: threads.max(1),
        }
    }

    /// The executor thread hint (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_compiles_predicates_in_order() {
        let q = Query::scan(2).eq(5u64).and(0).between(1, 9);
        assert_eq!(
            q.predicates(),
            &[
                CompiledPredicate {
                    col: 2,
                    lo: 5,
                    hi: 5
                },
                CompiledPredicate {
                    col: 0,
                    lo: 1,
                    hi: 9
                },
            ]
        );
        assert_eq!(q.threads(), 1);
        assert_eq!(*q.action(), Action::Rows);
    }

    #[test]
    fn actions_overwrite_and_threads_clamp() {
        let q = Query::<u64>::scan(0).count().sum(1).with_threads(0);
        assert_eq!(*q.action(), Action::Sum(1));
        assert_eq!(q.threads(), 1, "thread hint clamps to at least 1");
        let q = Query::<u64>::scan(0).project(&[1, 0]).min_max(2);
        assert_eq!(*q.action(), Action::MinMax(2));
    }
}
