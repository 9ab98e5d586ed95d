//! Morsel partitioning and the parallel-for bridge to the shared worker
//! pool.
//!
//! The execution engine never spawns threads of its own: every parallel
//! stage is phrased as "run this closure for morsel index `i`" and handed
//! to the process-wide [`Pool`] via [`parallel_map`]. Three properties make
//! the result byte-identical to a serial run:
//!
//! * **Contiguous, word-aligned morsels.** [`morsel_ranges`] cuts the row
//!   space into contiguous ranges whose boundaries are multiples of 64
//!   rows. 64 rows occupy exactly `bits` packed words for every code width
//!   `1..=64`, so a morsel boundary is word-aligned in both the packed
//!   code stream and the dense row-mask space — the SWAR kernels never
//!   straddle a seam and every word of output belongs to exactly one
//!   morsel.
//! * **Per-index result slots.** Each morsel writes its result into its
//!   own slot; nothing is shared between morsels while they run.
//! * **In-order combine.** The caller combines slots strictly in morsel
//!   order (masks OR in morsel order, row ids concatenate in order,
//!   aggregates reduce associatively), so scheduling order never leaks
//!   into the output.
//!
//! The executor cuts morsels over the [`Span`]s of main that survive
//! zone-map pruning ([`span_morsels`]): span starts are zone-block starts,
//! so every boundary stays 64-aligned, and when nothing is pruned the one
//! span `[0, n)` is cut exactly as [`morsel_ranges`] cuts `n` rows.
//!
//! A width (or hint) of `1` short-circuits to an inline loop on the
//! calling thread — the serial path never touches the pool, queues
//! nothing, and is the baseline the `morsel_scan` bench gates against.
//! Fan-outs never get more width than their work has whole morsels
//! ([`work_width`]), so small reads take that inline path whatever their
//! hint.

use hyrise_core::Pool;
use std::sync::OnceLock;

/// Upper bound on rows per morsel: large enough that per-task overhead
/// vanishes, small enough that a morsel's working set stays cache-friendly
/// and work-stealing can balance skew. Also the work one claimant is worth:
/// a fan-out never gets more claimants than it has whole morsels of rows
/// (see [`work_width`]).
pub(crate) const MORSEL_ROWS: usize = 64 * 1024;

const _: () = assert!(MORSEL_ROWS.is_multiple_of(hyrise_storage::ZONE_ROWS));

/// Rows per morsel for `n` rows of work and a parallelism hint: a serial
/// run (hint `0` or `1`) walks [`MORSEL_ROWS`]-sized pieces inline, so a
/// morsel's row mask stays L1-resident between the kernel that fills it
/// and the one that consumes it; a larger hint rounds the per-claimant
/// share *down* to 64 rows (floor 64), so at least `min(hint, ceil(n/64))`
/// morsels exist and every claimant has work whenever the row count
/// permits.
fn morsel_size(n: usize, hint: usize) -> usize {
    if hint <= 1 {
        MORSEL_ROWS
    } else {
        ((n / hint).max(1) / 64)
            .max(1)
            .saturating_mul(64)
            .min(MORSEL_ROWS)
    }
}

/// Cut `n` rows into contiguous morsels for a parallelism hint.
///
/// Every boundary except the final `n` is a multiple of 64 rows (see the
/// module docs for why), and no morsel exceeds [`MORSEL_ROWS`] rows
/// whatever the hint.
pub(crate) fn morsel_ranges(n: usize, hint: usize) -> Vec<(usize, usize)> {
    let size = morsel_size(n, hint);
    (0..n.div_ceil(size))
        .map(|i| (i * size, ((i + 1) * size).min(n)))
        .collect()
}

/// A run of main-partition rows `[start, end)` left after zone-map pruning,
/// and which predicates its rows still have to be tested against: bit `i`
/// of `need` stands for predicate `i` (predicates past the 64th are always
/// tested). A predicate whose bit is clear holds for every row of the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) start: usize,
    pub(crate) end: usize,
    pub(crate) need: u64,
}

impl Span {
    /// Must predicate `i` still be evaluated over this run?
    pub(crate) fn needs(&self, i: usize) -> bool {
        i >= 64 || self.need >> i & 1 == 1
    }

    /// Rows in the run.
    pub(crate) fn len(&self) -> usize {
        self.end - self.start
    }
}

/// Cut surviving spans into morsels. The morsel size is the one
/// [`morsel_ranges`] picks for the spans' total rows and `hint`, and each
/// span is cut from its own (64-aligned) start, so the single span
/// `[0, n)` yields exactly `morsel_ranges(n, hint)` — pruning that removes
/// nothing changes no morsel boundary.
pub(crate) fn span_morsels(spans: &[Span], hint: usize) -> Vec<Span> {
    let size = morsel_size(spans.iter().map(Span::len).sum(), hint);
    spans
        .iter()
        .flat_map(|s| {
            (s.start..s.end).step_by(size).map(move |start| Span {
                start,
                end: (start + size).min(s.end),
                need: s.need,
            })
        })
        .collect()
}

/// The fan-out width for `rows` rows of work: the hint, capped at one
/// claimant per whole [`MORSEL_ROWS`] (at least 1). Work smaller than one
/// morsel therefore runs inline on the calling thread and queues no pool
/// task.
pub(crate) fn work_width(hint: usize, rows: usize) -> usize {
    hint.min(rows.div_ceil(MORSEL_ROWS)).max(1)
}

/// Split `n` items into at most `k` near-equal contiguous ranges (no
/// alignment requirement — used for random-access passes over an already
/// materialized selection vector).
pub(crate) fn chunk_ranges(n: usize, k: usize) -> Vec<(usize, usize)> {
    if n == 0 {
        return Vec::new();
    }
    let k = k.clamp(1, n);
    let size = n.div_ceil(k);
    (0..n.div_ceil(size))
        .map(|i| (i * size, ((i + 1) * size).min(n)))
        .collect()
}

/// Run `f(0..n)` with up to `width` concurrent claimants on the shared
/// pool and return the results in index order.
///
/// `width <= 1` (or a single item) runs inline on the calling thread and
/// never touches the pool. Otherwise the indices are claimed dynamically
/// by up to `width` pool workers, and the number of queued helper tasks
/// never exceeds `min(width, n, pool threads)`. A caller claims only when
/// that takes no core from anyone ([`Pool::run_indexed`]): a pool task
/// that itself calls [`parallel_map`] (the sharded fan-out running
/// morselized per-shard engines) claims its own indices, so it can never
/// deadlock the pool, and so does a caller that finds a worker parked;
/// a connection thread that finds every worker busy waits for them
/// instead of computing beside them.
pub(crate) fn parallel_map<T, F>(width: usize, n: usize, f: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    if width <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    Pool::global().run_indexed(n, width, &|i| {
        let _ = slots[i].set(f(i));
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every morsel fills its slot"))
        .collect()
}

/// Concatenate per-morsel row vectors in morsel order.
pub(crate) fn concat<T>(parts: Vec<Vec<T>>) -> Vec<T> {
    let total = parts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for part in parts {
        out.extend(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_morsel_for_serial_hints() {
        assert_eq!(morsel_ranges(1000, 0), vec![(0, 1000)]);
        assert_eq!(morsel_ranges(1000, 1), vec![(0, 1000)]);
        assert!(morsel_ranges(0, 4).is_empty());
        // ... up to the cap: a serial run still walks cache-sized pieces.
        assert_eq!(
            morsel_ranges(MORSEL_ROWS + 1, 1),
            vec![(0, MORSEL_ROWS), (MORSEL_ROWS, MORSEL_ROWS + 1)]
        );
    }

    #[test]
    fn boundaries_are_64_aligned_and_cover_the_row_space() {
        for n in [1usize, 63, 64, 65, 1000, 64 * 1024, 64 * 1024 + 1, 300_000] {
            for hint in 1..=8 {
                let ranges = morsel_ranges(n, hint);
                assert_eq!(ranges.first().unwrap().0, 0);
                assert_eq!(ranges.last().unwrap().1, n);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "contiguous");
                    assert_eq!(w[0].1 % 64, 0, "interior boundary 64-aligned");
                }
                if hint > 1 && n > 64 {
                    assert!(ranges.len() >= hint.min(n.div_ceil(64)));
                }
            }
        }
    }

    #[test]
    fn morsels_are_capped() {
        for (s, e) in morsel_ranges(10_000_000, 2) {
            assert!(e - s <= MORSEL_ROWS);
        }
    }

    #[test]
    fn parallel_map_preserves_index_order() {
        for width in [1, 2, 4, 8] {
            let out = parallel_map(width, 37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn chunk_ranges_cover_without_alignment() {
        for n in [1usize, 7, 100] {
            for k in 1..=8 {
                let ranges = chunk_ranges(n, k);
                assert_eq!(ranges.first().unwrap().0, 0);
                assert_eq!(ranges.last().unwrap().1, n);
                assert!(ranges.len() <= k);
            }
        }
    }
}
