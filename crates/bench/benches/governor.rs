//! Criterion: a [`MergePolicy`]'s memory-pressure grant vs its static one.
//!
//! Phase 1 (untimed) asks [`MergePolicy::grant_at`] for the grant at a real
//! [`OnlineTable`]'s footprint, a fat delta over the policy's memory soft
//! limit, and asserts the memory-pressure row fired. Phase 2 (timed)
//! measures merge throughput of the granted configuration over an
//! immutable column set (same shape every iteration, so the CI gate sees
//! stable medians): `governor/write_heavy/{static,adaptive}`. Without
//! memory pressure the policy grants its own grant, so no other scenario
//! differs from static.
//!
//! The memory half of the acceptance criterion is asserted
//! before timing starts, on real tables: the adaptive grant's
//! [`TableMergeStats::peak_extra_bytes`] must be **strictly below** the
//! static unbudgeted policy's peak for the same work. The throughput half
//! is what `governor/write_heavy/{static, adaptive}` measure; it is not
//! asserted as a ratio, because a column-budgeted merge runs its columns
//! one at a time while the static grant runs one per core, so "adaptive
//! within 10 % of static" only ever held on a single core.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hyrise_bench::build_column;
use hyrise_core::{MergeGrant, MergePipeline, MergePolicy, MergeScratch, OnlineTable};
use hyrise_storage::{FrozenDelta, MainPartition};

const COLS: usize = 6;
/// Tuples per column in the timed column set.
const N_M: usize = 200_000;
const LAMBDA: f64 = 0.1;
/// Rows preloaded into the real tables the policy weighs.
const TABLE_ROWS: usize = 60_000;
const DOMAIN: u64 = 10_000;

fn build_table(rows: usize) -> OnlineTable<u64> {
    let t = OnlineTable::new(COLS);
    let batch: Vec<Vec<u64>> = (0..rows as u64)
        .map(|i| {
            (0..COLS as u64)
                .map(|c| (i * 31 + c * 7) % DOMAIN)
                .collect()
        })
        .collect();
    t.insert_rows(&batch).unwrap();
    t.merge(1, None).unwrap();
    t
}

/// Insert `pct`% of the table's main size into the delta (values stay in
/// the preload domain, so dictionaries keep their shape across rounds).
fn fill_delta(t: &OnlineTable<u64>, pct: usize) {
    let n = t.main_len() * pct / 100;
    let batch: Vec<Vec<u64>> = (0..n as u64)
        .map(|i| {
            (0..COLS as u64)
                .map(|c| (i * 17 + c * 3) % DOMAIN)
                .collect()
        })
        .collect();
    t.insert_rows(&batch).unwrap();
}

/// The timed kernel: merge every column of the immutable set under
/// `grant`, holding merged-but-unretired outputs per the grant's budget
/// (all at once when unbounded, K at a time otherwise) — the same commit
/// granularity `OnlineTable::merge_with` uses.
fn run_grant(
    cols: &[(MainPartition<u64>, FrozenDelta<u64>)],
    grant: &MergeGrant,
    scratch: &mut MergeScratch<u64>,
) -> usize {
    let pipe = MergePipeline::new(grant.strategy, grant.threads);
    let k = grant.budget.max_columns().min(cols.len());
    let mut n = 0usize;
    for chunk in cols.chunks(k) {
        let outs: Vec<_> = chunk
            .iter()
            .map(|(m, d)| pipe.merge_column(m, d, scratch))
            .collect();
        n += outs.iter().map(|o| o.main.len()).sum::<usize>();
        for o in outs {
            scratch.recycle_main(o.main);
        }
    }
    n
}

/// On real tables: the adaptive write-heavy grant bounds peak extra bytes
/// strictly below the static unbudgeted policy while merging the same
/// columns.
fn assert_write_heavy_acceptance(static_grant: MergeGrant, adaptive_grant: MergeGrant) {
    assert!(
        !adaptive_grant.budget.is_unbounded(),
        "write-heavy adaptive grant must carry a column budget"
    );
    let t_static = build_table(TABLE_ROWS);
    let t_adaptive = build_table(TABLE_ROWS);
    fill_delta(&t_static, 8);
    fill_delta(&t_adaptive, 8);
    let s = t_static.merge_with(static_grant, None).unwrap();
    let a = t_adaptive.merge_with(adaptive_grant, None).unwrap();
    assert!(
        a.peak_extra_bytes < s.peak_extra_bytes,
        "adaptive peak_extra_bytes {} must stay strictly below static {}",
        a.peak_extra_bytes,
        s.peak_extra_bytes
    );
    assert_eq!(a.columns.len(), s.columns.len(), "same work done");
}

fn bench_governor(c: &mut Criterion) {
    let mut g = c.benchmark_group("governor");
    g.sample_size(10);

    let policy = MergePolicy {
        delta_fraction: 0.01,
        threads: 2,
        ..MergePolicy::default()
    };
    let static_grant = policy.grant();

    // --- Phase 1: weigh a real table's footprint, pin the decision. A fat
    // delta pushes the table past its soft limit — the policy shrinks the
    // budget to one column.
    let table = build_table(TABLE_ROWS);
    fill_delta(&table, 10);
    let memory = table.memory_report().total();
    let pressured = MergePolicy {
        memory_soft_limit: memory / 2,
        ..policy
    };
    let (adaptive_grant, over) = pressured.grant_at(memory);
    assert!(over, "over-limit reads as pressure");
    drop(table);

    assert_write_heavy_acceptance(static_grant, adaptive_grant);

    // --- Phase 2: timed merges of an immutable column set per grant.
    let n_d = N_M * 8 / 100;
    let cols: Vec<(MainPartition<u64>, FrozenDelta<u64>)> = (0..COLS as u64)
        .map(|i| {
            let (m, d) = build_column::<u64>(N_M / COLS, n_d / COLS, LAMBDA, LAMBDA, 31 + i);
            (m, FrozenDelta::from_values(&d))
        })
        .collect();
    g.throughput(Throughput::Elements((N_M + n_d) as u64));
    for (config, grant) in [("static", static_grant), ("adaptive", adaptive_grant)] {
        g.bench_with_input(
            BenchmarkId::new("write_heavy", config),
            &grant,
            |b, grant| {
                let mut scratch = MergeScratch::new();
                for _ in 0..2 {
                    black_box(run_grant(&cols, grant, &mut scratch));
                }
                b.iter(|| black_box(run_grant(&cols, grant, &mut scratch)))
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_governor);
criterion_main!(benches);
