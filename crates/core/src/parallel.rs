//! The multi-core merge (Section 6.2).
//!
//! * **Step 1(a)**, the delta's compression, runs when the delta is frozen
//!   ([`hyrise_storage::FrozenDelta::from_values`]), once per column and
//!   serially, before the merge begins; the merge reads its output. Across
//!   columns the table merge,
//!   [`crate::manager::OnlineTable::merge_with`], follows the paper's
//!   scheme (i) for the stages that follow: each *column* is a task in a
//!   shared task queue ("we use a task queue based parallelization scheme
//!   and enqueue each column as a separate task").
//! * **Step 1(b)** copies the `U_M` prefix below every delta value, then
//!   merges the rest of the two sorted dictionaries with duplicate removal
//!   in the paper's three phases: (1) each thread merge-counts its merge-path
//!   quantile, suppressing the one possible boundary duplicate; (2) a prefix
//!   sum over the counter array; (3) each thread re-merges its range, writing
//!   dictionary values and auxiliary entries at its final offsets.
//! * **Step 2** evenly divides the `N'_M` tuples over threads; ranges are cut
//!   on 4 096-tuple (zone-block) boundaries so every thread owns whole words
//!   of the bit-packed output and whole blocks of its zone map ("each thread
//!   reads/writes from/to independent chunks of tables").

use crate::partition::quantile_boundaries;
use crate::pipeline::{effective_threads, MIN_DICT_PER_THREAD};
use crate::pool::Pool;
use crate::step1::{copy_prefix, merge_dictionaries_into, DictMerge};
use hyrise_storage::Value;

// ---------------------------------------------------------------------------
// Step 1(b): three-phase parallel dictionary merge with duplicate removal.
// ---------------------------------------------------------------------------

/// Count the unique values produced by merging `a[i0..i1]` with `b[j0..j1]`,
/// applying the paper's boundary rule: if this range's first element of one
/// dictionary equals the *previous* element of the other dictionary, it was
/// already produced by the previous thread and is skipped.
fn merge_range_count<V: Value>(
    a: &[V],
    b: &[V],
    (i0, j0): (usize, usize),
    (i1, j1): (usize, usize),
) -> usize {
    let mut i = i0;
    let mut j = j0;
    if i > 0 && j < j1 && b[j] == a[i - 1] {
        j += 1;
    } else if j > 0 && i < i1 && a[i] == b[j - 1] {
        i += 1;
    }
    let mut n = 0usize;
    while i < i1 && j < j1 {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
        n += 1;
    }
    n + (i1 - i) + (j1 - j)
}

/// Phase 3 worker: re-merge the range, writing dictionary values into `out`
/// (this thread's disjoint slice of `U'_M`, starting at global offset `base`)
/// and auxiliary entries into `xa`/`xb` (slices covering `a[i0..i1]` /
/// `b[j0..j1]`). A boundary-skipped element still gets its auxiliary entry:
/// it maps to the last element the previous thread wrote, `base - 1`.
#[allow(clippy::too_many_arguments)]
fn merge_range_write<V: Value>(
    a: &[V],
    b: &[V],
    (i0, j0): (usize, usize),
    (i1, j1): (usize, usize),
    base: usize,
    out: &mut [V],
    xa: &mut [u32],
    xb: &mut [u32],
) {
    let mut i = i0;
    let mut j = j0;
    if i > 0 && j < j1 && b[j] == a[i - 1] {
        xb[j - j0] = (base - 1) as u32;
        j += 1;
    } else if j > 0 && i < i1 && a[i] == b[j - 1] {
        xa[i - i0] = (base - 1) as u32;
        i += 1;
    }
    let mut pos = 0usize;
    while i < i1 && j < j1 {
        let out_idx = (base + pos) as u32;
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                xa[i - i0] = out_idx;
                out[pos] = a[i];
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                xb[j - j0] = out_idx;
                out[pos] = b[j];
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                xa[i - i0] = out_idx;
                xb[j - j0] = out_idx;
                out[pos] = a[i];
                i += 1;
                j += 1;
            }
        }
        pos += 1;
    }
    while i < i1 {
        xa[i - i0] = (base + pos) as u32;
        out[pos] = a[i];
        i += 1;
        pos += 1;
    }
    while j < j1 {
        xb[j - j0] = (base + pos) as u32;
        out[pos] = b[j];
        j += 1;
        pos += 1;
    }
    debug_assert_eq!(pos, out.len(), "phase-1 count and phase-3 output disagree");
}

/// Parallel modified Step 1(b): merge two sorted duplicate-free dictionaries
/// into `U'_M` with the auxiliary tables, using the three-phase scheme of
/// Section 6.2.1. Falls back to the serial merge for small inputs, one
/// thread, or when the host has fewer cores than requested (see
/// [`crate::pipeline`]'s team-sizing heuristic — oversubscribing a
/// compute-bound merge measured slower than serial). Produces output
/// identical to [`crate::step1::merge_dictionaries`].
pub fn merge_dictionaries_parallel<V: Value>(u_m: &[V], u_d: &[V], threads: usize) -> DictMerge<V> {
    let total = u_m.len() + u_d.len();
    merge_dictionaries_parallel_exact(
        u_m,
        u_d,
        effective_threads(threads, total, MIN_DICT_PER_THREAD),
    )
}

/// As [`merge_dictionaries_parallel`] but with exactly `threads` workers, no
/// team-sizing heuristic. Exposed for tests and ablations.
#[doc(hidden)]
pub fn merge_dictionaries_parallel_exact<V: Value>(
    u_m: &[V],
    u_d: &[V],
    threads: usize,
) -> DictMerge<V> {
    let mut merged = Vec::new();
    let mut x_m = Vec::new();
    let mut x_d = Vec::new();
    merge_dictionaries_parallel_exact_into(u_m, u_d, threads, &mut merged, &mut x_m, &mut x_d);
    DictMerge { merged, x_m, x_d }
}

/// The pipeline's parallel Stage 1b: the copied prefix ([`copy_prefix`]),
/// then the three phases over `(U_M[f0..], U_D)` writing at output offset
/// `f0`. Returns `f0`.
pub(crate) fn merge_dictionaries_parallel_exact_into<V: Value>(
    u_m: &[V],
    u_d: &[V],
    threads: usize,
    merged: &mut Vec<V>,
    x_m: &mut Vec<u32>,
    x_d: &mut Vec<u32>,
) -> usize {
    if threads <= 1 {
        return merge_dictionaries_into(u_m, u_d, merged, x_m, x_d);
    }
    let f0 = copy_prefix(u_m, u_d, merged, x_m);
    // No entry of the prefix equals a delta value, so the boundary rule
    // never needs to look behind `f0`.
    let a = &u_m[f0..];
    let bounds = quantile_boundaries(a, u_d, threads);

    // Phase 1: per-partition unique counts, with an explicit barrier at the
    // end (`run_each` returns once every partition has counted).
    let mut counter = vec![0usize; threads + 1];
    Pool::global().run_each(counter[1..].iter_mut().collect(), threads, |t, count| {
        *count = merge_range_count(a, u_d, bounds[t], bounds[t + 1]);
    });

    // Phase 2: prefix sum of the counter array. The paper parallelizes this
    // with Hillis-Steele; over N_T + 1 entries the serial sum is equivalent
    // and cheaper.
    for t in 0..threads {
        counter[t + 1] += counter[t];
    }
    let total_unique = counter[threads];

    // Phase 3: carve disjoint output slices and re-merge at final offsets.
    merged.resize(f0 + total_unique, V::default());
    x_m.resize(u_m.len(), 0);
    x_d.clear();
    x_d.resize(u_d.len(), 0);
    {
        let mut m_rest: &mut [V] = &mut merged[f0..];
        let mut xm_rest: &mut [u32] = &mut x_m[f0..];
        let mut xd_rest: &mut [u32] = x_d;
        let mut tasks = Vec::with_capacity(threads);
        for t in 0..threads {
            let (i0, j0) = bounds[t];
            let (i1, j1) = bounds[t + 1];
            let out_len = counter[t + 1] - counter[t];
            let (m_slice, rest) = std::mem::take(&mut m_rest).split_at_mut(out_len);
            m_rest = rest;
            let (xm_slice, rest) = std::mem::take(&mut xm_rest).split_at_mut(i1 - i0);
            xm_rest = rest;
            let (xd_slice, rest) = std::mem::take(&mut xd_rest).split_at_mut(j1 - j0);
            xd_rest = rest;
            let base = f0 + counter[t];
            tasks.push(((i0, j0), (i1, j1), base, m_slice, xm_slice, xd_slice));
        }
        Pool::global().run_each(tasks, threads, |_, (start, end, base, m, xm, xd)| {
            merge_range_write(a, u_d, start, end, base, m, xm, xd)
        });
    }
    f0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::OnlineTable;
    use crate::pipeline::{MergePipeline, MergeScratch, MergeStrategy};
    use crate::step1::merge_dictionaries;
    use hyrise_storage::{FrozenDelta, MainPartition};

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
    fn parallel_dict_merge_equals_serial_small_and_large() {
        let mut next = xorshift(42);
        for (na, nb) in [
            (0usize, 10usize),
            (10, 0),
            (100, 77),
            (5000, 4000),
            (9000, 12000),
        ] {
            let mut a: Vec<u64> = (0..na).map(|_| next() % 50_000).collect();
            a.sort_unstable();
            a.dedup();
            let mut b: Vec<u64> = (0..nb).map(|_| next() % 50_000).collect();
            b.sort_unstable();
            b.dedup();
            let serial = merge_dictionaries(&a, &b);
            for threads in [2usize, 3, 6, 12] {
                let par = merge_dictionaries_parallel_exact(&a, &b, threads);
                assert_eq!(par, serial, "na={na} nb={nb} threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_dict_merge_writes_after_the_copied_prefix() {
        // Appended values (the whole of U_M is the prefix), a delta that
        // starts mid-dictionary, one that starts on an existing entry, and
        // an empty one.
        let a: Vec<u64> = (0..30_000).map(|i| 2 * i).collect();
        for b in [
            (60_000..70_000).collect::<Vec<u64>>(),
            (0..5_000).map(|i| 20_001 + 4 * i).collect(),
            (0..5_000).map(|i| 30_000 + 3 * i).collect(),
            Vec::new(),
        ] {
            let serial = merge_dictionaries(&a, &b);
            for threads in [2usize, 3, 7] {
                let (mut m, mut xm, mut xd) = (Vec::new(), Vec::new(), Vec::new());
                let f0 = merge_dictionaries_parallel_exact_into(
                    &a, &b, threads, &mut m, &mut xm, &mut xd,
                );
                let want = a.partition_point(|v| b.first().is_none_or(|f| v < f));
                assert_eq!(f0, want, "threads={threads}");
                assert_eq!(
                    DictMerge {
                        merged: m,
                        x_m: xm,
                        x_d: xd
                    },
                    serial,
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn parallel_dict_merge_heavy_duplicates_across_boundaries() {
        // Force many shared values so boundary skips trigger: every value of
        // b also in a.
        let a: Vec<u64> = (0..20_000).collect();
        let b: Vec<u64> = (0..20_000).step_by(2).collect();
        let serial = merge_dictionaries(&a, &b);
        for threads in [2usize, 5, 8, 16, 24] {
            let par = merge_dictionaries_parallel_exact(&a, &b, threads);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn parallel_column_merge_equals_optimized() {
        let mut next = xorshift(99);
        let main_vals: Vec<u64> = (0..40_000).map(|_| next() % 9_000).collect();
        let delta_vals: Vec<u64> = (0..9_000).map(|_| next() % 12_000).collect();
        let main = MainPartition::from_values(&main_vals);
        let delta = FrozenDelta::from_values(&delta_vals);
        let mut scratch = MergeScratch::new();
        let serial = MergePipeline::new(MergeStrategy::Optimized, 1).merge_column(
            &main,
            &delta,
            &mut scratch,
        );
        for threads in [1usize, 2, 6, 16] {
            let par = MergePipeline::new(MergeStrategy::Parallel, threads).merge_column(
                &main,
                &delta,
                &mut scratch,
            );
            assert_eq!(
                par.main.dictionary().values(),
                serial.main.dictionary().values(),
                "threads={threads}"
            );
            assert_eq!(
                par.main.codes().collect::<Vec<_>>(),
                serial.main.codes().collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn figure5_parallel() {
        let main = MainPartition::from_values(&[8u64, 4, 6, 4, 1, 3, 9]);
        let delta = FrozenDelta::from_values(&[2, 3, 7, 3, 25]);
        let out = MergePipeline::new(MergeStrategy::Parallel, 4).merge_column(
            &main,
            &delta,
            &mut MergeScratch::new(),
        );
        assert_eq!(out.main.code_bits(), 4);
        assert_eq!(out.main.code(0), 6);
        assert_eq!(out.main.get(11), 25);
    }

    // Scheme (i): the table merge enqueues each column as one pool task.

    #[test]
    fn table_merge_moves_delta_into_main() {
        let t = OnlineTable::<u64>::new(2);
        for i in 0..500u64 {
            t.insert_row(&[i % 40, i % 7]).unwrap();
        }
        assert_eq!(t.delta_len(), 500);
        let stats = t.merge(4).unwrap();
        assert_eq!(t.delta_len(), 0);
        assert_eq!(t.main_len(), 500);
        assert_eq!(t.row_count(), 500);
        assert_eq!(stats.columns.len(), 2);
        assert_eq!(stats.total_tuples(), 1000);
        // Data survives the merge.
        assert_eq!(t.row(123), vec![123 % 40, 123 % 7]);
    }

    #[test]
    fn table_merge_preserves_validity_and_history() {
        let t = OnlineTable::<u64>::new(1);
        let r0 = t.insert_row(&[1]).unwrap();
        let r1 = t.insert_row(&[2]).unwrap();
        t.delete_row(r0).unwrap();
        t.merge(2).unwrap();
        assert!(!t.is_valid(r0));
        assert!(t.is_valid(r1));
        assert_eq!(t.row(r0), vec![1], "history survives merge");
        assert_eq!(t.row(r1), vec![2]);
    }

    #[test]
    fn repeated_table_merges() {
        let t = OnlineTable::<u64>::new(1);
        let mut expected = Vec::new();
        for wave in 0..4u64 {
            for i in 0..200u64 {
                let v = wave * 131 + i % 97;
                t.insert_row(&[v]).unwrap();
                expected.push(v);
            }
            t.merge(3).unwrap();
            assert_eq!(t.delta_len(), 0);
            let got: Vec<u64> = (0..t.row_count()).map(|r| t.get(0, r)).collect();
            assert_eq!(got, expected, "after wave {wave}");
        }
    }
}
