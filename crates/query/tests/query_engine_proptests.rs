//! The cross-backend query oracle: for **arbitrary conjunctive queries**
//! over **arbitrary insert/update/delete/merge interleavings**, the unified
//! [`Query`] engine must return exactly the rows and aggregates of a naive
//! row-at-a-time filter over a plain model — on every backend
//! ([`OnlineTable`], its [`TableSnapshot`], and 1–4-shard
//! [`ShardedTable`]s under both routing schemes).
//!
//! Merges interleave with the workload, so queries randomly hit every
//! physical split: merged main partitions (value-id pushdown), frozen
//! deltas, and active deltas (value-comparison fallback). Aggregates run
//! with zero to three predicates at an arbitrary thread hint, and a second
//! property holds a merge session open so snapshots carry stepped mains, a
//! frozen delta under a raw tail, and deleted rows in all of them. Fixed
//! boundary cases close the file.

use hyrise_core::shard::{ShardBy, ShardRowId, ShardedTable};
use hyrise_core::{MergeBudget, MergeGrant, OnlineTable};
use hyrise_query::{Executor, Query};
use proptest::prelude::*;

const COLS: usize = 3;
/// Small value domain so predicates hit often and dictionaries stay dense.
const DOMAIN: u64 = 48;

/// Deterministic row payload: column `c` of seed `s` is a distinct mix.
fn row(seed: u64) -> Vec<u64> {
    (0..COLS as u64)
        .map(|c| seed.wrapping_mul(2 * c + 7).wrapping_add(c * 13) % DOMAIN)
        .collect()
}

/// One workload step, decoded from raw proptest integers.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert { seed: u64 },
    Update { target: u64, seed: u64 },
    Delete { target: u64 },
    Merge { shard: u64, single_too: bool },
}

fn decode(code: u8, a: u64, b: u64) -> Op {
    match code % 8 {
        0..=3 => Op::Insert { seed: a },
        4 => Op::Update { target: a, seed: b },
        5 => Op::Delete { target: a },
        _ => Op::Merge {
            shard: a,
            single_too: b.is_multiple_of(2),
        },
    }
}

/// The naive reference: every appended row's values + validity, in
/// insertion order (= the OnlineTable's global tuple ids).
struct Model {
    rows: Vec<(Vec<u64>, bool)>,
}

impl Model {
    /// Indices of valid rows matching the conjunction, row-at-a-time.
    fn matching(&self, preds: &[(usize, u64, u64)]) -> Vec<usize> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, (vals, valid))| {
                *valid
                    && preds
                        .iter()
                        .all(|&(c, lo, hi)| vals[c] >= lo && vals[c] <= hi)
            })
            .map(|(i, _)| i)
            .collect()
    }
}

/// Apply the op stream to the model, a single table and a sharded table,
/// appending the sharded side's id of every new logical row to
/// `shard_ids` (one entry per model row, across calls).
fn apply_all(
    model: &mut Model,
    single: &OnlineTable<u64>,
    sharded: &ShardedTable<u64>,
    shard_ids: &mut Vec<ShardRowId>,
    ops: &[(u8, u64, u64)],
) {
    for &(code, a, b) in ops {
        match decode(code, a, b) {
            Op::Insert { seed } => {
                let r = row(seed);
                let sid = single.insert_row(&r).unwrap();
                assert_eq!(sid, model.rows.len(), "single-table ids = model indices");
                shard_ids.push(sharded.insert_row(&r).unwrap());
                model.rows.push((r, true));
            }
            Op::Update { target, seed } => {
                if model.rows.is_empty() {
                    continue;
                }
                let i = (target as usize) % model.rows.len();
                let r = row(seed);
                single.insert_row(&r).unwrap();
                single.delete_row(i).unwrap();
                shard_ids.push(sharded.update_row(shard_ids[i], &r).unwrap());
                model.rows[i].1 = false;
                model.rows.push((r, true));
            }
            Op::Delete { target } => {
                if model.rows.is_empty() {
                    continue;
                }
                let i = (target as usize) % model.rows.len();
                single.delete_row(i).unwrap();
                sharded.delete_row(shard_ids[i]).unwrap();
                model.rows[i].1 = false;
            }
            Op::Merge { shard, single_too } => {
                let _ = sharded
                    .shard((shard as usize) % sharded.num_shards())
                    .merge(1);
                if single_too {
                    let _ = single.merge(1);
                }
            }
        }
    }
}

/// Build the conjunctive query: first predicate seeds the scan, the rest
/// chain through `.and(col)`; no predicate selects every valid row.
fn build_query(preds: &[(usize, u64, u64)]) -> Query<u64> {
    let Some((first, rest)) = preds.split_first() else {
        return Query::scan(0);
    };
    let mut q = Query::scan(first.0).between(first.1, first.2);
    for &(c, lo, hi) in rest {
        q = q.and(c).between(lo, hi);
    }
    q
}

/// Count, sum and min/max of `q` on `exec` must equal the naive fold of
/// `agg_col` over the model rows `expected`, at every hint in `hints`.
fn assert_aggregates<E: Executor<u64>>(
    exec: &E,
    q: &Query<u64>,
    model: &Model,
    expected: &[usize],
    agg_col: usize,
    hints: impl IntoIterator<Item = usize>,
) {
    let values = || expected.iter().map(|&i| model.rows[i].0[agg_col]);
    let want_sum: u128 = values().map(u128::from).sum();
    let want_mm = values().min().zip(values().max());
    for hint in hints {
        let q = q.clone().with_threads(hint);
        assert_eq!(
            q.clone().count().run(exec).count(),
            expected.len(),
            "hint {hint}"
        );
        assert_eq!(
            q.clone().sum(agg_col).run(exec).sum(),
            want_sum,
            "hint {hint}"
        );
        assert_eq!(
            q.min_max(agg_col).run(exec).min_max(),
            want_mm,
            "hint {hint}"
        );
    }
}

/// Normalize raw proptest predicate triples: column into range, `eq` probes
/// collapse the interval (so dictionary-miss equality is exercised too).
fn normalize(preds: &[(u8, u64, u64)]) -> Vec<(usize, u64, u64)> {
    preds
        .iter()
        .map(|&(c, lo, span)| {
            let col = (c as usize) % COLS;
            let lo = lo % (DOMAIN + 8); // sometimes past the domain
            let hi = if span.is_multiple_of(3) {
                lo // equality probe
            } else {
                lo + span % 16
            };
            (col, lo, hi)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_matches_naive_filter_on_every_backend(
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..140),
        raw_preds in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..4),
        num_shards in 1usize..5,
        range_routing in any::<bool>(),
        agg_col in 0usize..COLS,
        hint in 2usize..9,
    ) {
        let mut model = Model { rows: Vec::new() };
        let single = OnlineTable::<u64>::new(COLS);
        let sharded = if range_routing {
            // Bounds chosen so all shards see traffic from the DOMAIN keys.
            let step = DOMAIN / num_shards as u64;
            let bounds: Vec<u64> = (1..num_shards as u64).map(|i| i * step.max(1)).collect();
            ShardedTable::<u64>::builder()
                .partitioning(ShardBy::Range(bounds))
                .columns(COLS)
                .build()
                .unwrap()
        } else {
            ShardedTable::<u64>::builder()
                .shards(num_shards)
                .columns(COLS)
                .build()
                .unwrap()
        };
        let mut shard_ids = Vec::new();
        apply_all(&mut model, &single, &sharded, &mut shard_ids, &ops);

        let preds = normalize(&raw_preds);
        let q = build_query(&preds);
        let expected = model.matching(&preds);

        // OnlineTable: engine row ids are the model's insertion indices.
        prop_assert_eq!(&q.run(&single).into_rows(), &expected);

        // TableSnapshot: the canonical engine agrees.
        let snap = single.snapshot();
        prop_assert_eq!(&q.run(&snap).into_rows(), &expected);

        // ShardedTable: identical row *set* under the (shard, row) mapping.
        let mut got: Vec<ShardRowId> = q.run(&sharded).into_rows();
        got.sort_unstable();
        let mut want: Vec<ShardRowId> = expected.iter().map(|&i| shard_ids[i]).collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);

        // Aggregates: count / sum / min-max agree with the naive fold on
        // every backend, serial and at the drawn thread hint.
        assert_aggregates(&single, &q, &model, &expected, agg_col, [1, hint]);
        assert_aggregates(&snap, &q, &model, &expected, agg_col, [1, hint]);
        assert_aggregates(&sharded, &q, &model, &expected, agg_col, [1, hint]);

        // Projection materializes the naive rows (single-table order is
        // insertion order; sharded order is shard-stitched, compare sorted).
        let proj_q = q.clone().project(&[agg_col, 0]);
        let want_proj: Vec<Vec<u64>> = expected
            .iter()
            .map(|&i| vec![model.rows[i].0[agg_col], model.rows[i].0[0]])
            .collect();
        prop_assert_eq!(&proj_q.run(&single).into_projected(), &want_proj);
        prop_assert_eq!(&proj_q.run(&snap).into_projected(), &want_proj);
        let mut got_proj = proj_q.run(&sharded).into_projected();
        got_proj.sort_unstable();
        let mut want_proj = want_proj;
        want_proj.sort_unstable();
        prop_assert_eq!(got_proj, want_proj);
    }

    #[test]
    fn no_predicate_queries_see_exactly_the_valid_rows(
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..120),
        num_shards in 1usize..5,
    ) {
        let mut model = Model { rows: Vec::new() };
        let single = OnlineTable::<u64>::new(COLS);
        let sharded = ShardedTable::<u64>::builder()
            .shards(num_shards)
            .columns(COLS)
            .build()
            .unwrap();
        apply_all(&mut model, &single, &sharded, &mut Vec::new(), &ops);

        let valid: Vec<usize> = model
            .rows
            .iter()
            .enumerate()
            .filter(|(_, (_, v))| *v)
            .map(|(i, _)| i)
            .collect();
        let q = Query::scan(0);
        prop_assert_eq!(&q.run(&single).into_rows(), &valid);
        prop_assert_eq!(q.clone().count().run(&sharded).count(), valid.len());
        let want_sum: u128 = valid.iter().map(|&i| model.rows[i].0[1] as u128).sum();
        prop_assert_eq!(q.clone().sum(1).run(&single).sum(), want_sum);
        prop_assert_eq!(q.clone().sum(1).with_threads(4).run(&single).sum(), want_sum);
        prop_assert_eq!(q.sum(1).run(&sharded).sum(), want_sum);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A merge session held open mid-way: some columns already absorbed
    /// the frozen delta into a longer main, the rest keep it as a packed
    /// tail region, rows written after the freeze sit in a raw tail on
    /// top, and rows are deleted in main and in both tails. The engine
    /// cuts every column at the shortest main and reads a longer main's
    /// rows past it as a packed region, so aggregates with zero to three
    /// predicates run the one masked path and must match the oracle at
    /// every thread hint.
    #[test]
    fn aggregates_match_the_oracle_mid_incremental_merge(
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..120),
        frozen in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..40),
        late in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..40),
        steps in 0usize..=COLS,
        raw_preds in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..4),
        agg_col in 0usize..COLS,
    ) {
        let mut model = Model { rows: Vec::new() };
        let single = OnlineTable::<u64>::new(COLS);
        // `apply_all` drives a sharded twin too; one shard keeps it cheap.
        let twin = ShardedTable::<u64>::builder().shards(1).columns(COLS).build().unwrap();
        let mut twin_ids = Vec::new();
        apply_all(&mut model, &single, &twin, &mut twin_ids, &ops);
        // Inserts, updates and deletes only (`% 6` never decodes a merge):
        // first what the session will freeze, then what lands above it.
        let no_merge = |ops: &[(u8, u64, u64)]| -> Vec<(u8, u64, u64)> {
            ops.iter().map(|&(code, a, b)| (code % 6, a, b)).collect()
        };
        apply_all(&mut model, &single, &twin, &mut twin_ids, &no_merge(&frozen));
        let grant = MergeGrant::with_threads(1).budget(MergeBudget::columns(1));
        let mut session = single.begin_merge(grant).unwrap();
        for _ in 0..steps {
            if !session.step().unwrap() {
                break;
            }
        }
        apply_all(&mut model, &single, &twin, &mut twin_ids, &no_merge(&late));
        let snap = single.snapshot();

        let preds = normalize(&raw_preds);
        let q = build_query(&preds);
        let expected = model.matching(&preds);
        prop_assert_eq!(&q.run(&snap).into_rows(), &expected);
        assert_aggregates(&snap, &q, &model, &expected, agg_col, 1..=8);
        assert_aggregates(&single, &q, &model, &expected, agg_col, [1, 3]);
        drop(session);
        // The dropped session leaves its unmerged columns frozen, and the
        // answers stay the same.
        assert_aggregates(&single, &q, &model, &expected, agg_col, [1, 4]);
    }
}

/// Values near `u64::MAX` overflow a `u64` accumulator after two rows; the
/// masked sum is exact in `u128`, over main and tail, with and without a
/// predicate, deleted rows excluded.
#[test]
fn sum_of_values_near_u64_max_is_exact() {
    let t = OnlineTable::<u64>::new(2);
    let big = |i: u64| u64::MAX - (i % 5);
    for i in 0..300u64 {
        t.insert_row(&[i % 7, big(i)]).unwrap();
    }
    t.merge(1).unwrap();
    for i in 300..340u64 {
        t.insert_row(&[i % 7, big(i)]).unwrap();
    }
    for victim in [0usize, 64, 299, 300, 339] {
        t.delete_row(victim).unwrap();
    }
    let live = |i: &u64| ![0u64, 64, 299, 300, 339].contains(i);
    let want_all: u128 = (0..340u64).filter(live).map(|i| big(i) as u128).sum();
    let want_some: u128 = (0..340u64)
        .filter(live)
        .filter(|i| (2..=4).contains(&(i % 7)))
        .map(|i| big(i) as u128)
        .sum();
    assert!(want_all > u64::MAX as u128 * 300);
    for hint in 1..=4 {
        let all = Query::scan(0).sum(1).with_threads(hint);
        let some = Query::scan(0).between(2, 4).sum(1).with_threads(hint);
        assert_eq!(all.run(&t).sum(), want_all);
        assert_eq!(some.run(&t).sum(), want_some);
        assert_eq!(
            Query::scan(0)
                .min_max(1)
                .with_threads(hint)
                .run(&t)
                .min_max(),
            Some((u64::MAX - 4, u64::MAX))
        );
    }
}

/// Zero rows and all-rows-deleted tables (merged, and with the deleted
/// rows still in the tail): every aggregate shape answers "nothing".
#[test]
fn empty_and_fully_deleted_tables_aggregate_to_nothing() {
    let empty = OnlineTable::<u64>::new(2);
    let deleted_main = OnlineTable::<u64>::new(2);
    let deleted_tail = OnlineTable::<u64>::new(2);
    for i in 0..130u64 {
        deleted_main.insert_row(&[i % 9, i]).unwrap();
        deleted_tail.insert_row(&[i % 9, i]).unwrap();
    }
    deleted_main.merge(1).unwrap();
    for i in 0..130 {
        deleted_main.delete_row(i).unwrap();
        deleted_tail.delete_row(i).unwrap();
    }
    for t in [&empty, &deleted_main, &deleted_tail] {
        for q in [
            Query::scan(0),
            Query::scan(0).eq(3),
            Query::scan(0).between(1, 7),
            Query::scan(0).between(1, 7).and(1).between(0, 1000),
        ] {
            for hint in [1, 2, 5] {
                let q = q.clone().with_threads(hint);
                assert_eq!(q.clone().count().run(t).count(), 0);
                assert_eq!(q.clone().sum(1).run(t).sum(), 0);
                assert_eq!(q.clone().min_max(1).run(t).min_max(), None);
                assert!(q.run(t).into_rows().is_empty());
            }
        }
    }
}

/// The one mid-merge case where zone maps matter: a merged table of more
/// than three zone blocks (an ascending key beside a low-cardinality
/// column), then a frozen delta of which one step commits the key column,
/// so the key's main is longer than the other's and reaches past the
/// shared main length. Predicates on the longer and on the shorter column,
/// alone and together, prune over the longer main's zones; every action
/// at hints 1–4 must match a naive fold over the rows.
#[test]
fn stepped_snapshot_over_several_zone_blocks_matches_a_naive_fold() {
    const MERGED: u64 = 3 * 4_096 + 1_000;
    const FROZEN: u64 = 300;
    let t = OnlineTable::<u64>::new(2);
    let row = |k: u64| [k, k % 5];
    let mut rows: Vec<[u64; 2]> = (0..MERGED).map(row).collect();
    t.insert_rows(&rows).unwrap();
    t.merge(1).unwrap();
    let frozen: Vec<[u64; 2]> = (MERGED..MERGED + FROZEN).map(row).collect();
    t.insert_rows(&frozen).unwrap();
    rows.extend(frozen);
    let grant = MergeGrant::with_threads(1).budget(MergeBudget::columns(1));
    let mut session = t.begin_merge(grant).unwrap();
    assert!(session.step().unwrap());
    let late: Vec<[u64; 2]> = (MERGED + FROZEN..MERGED + FROZEN + 90).map(row).collect();
    t.insert_rows(&late).unwrap();
    rows.extend(late);
    // Deletes in main, in the key's main suffix / the frozen delta, and in
    // the raw tail.
    let deleted = [0usize, 4_097, 9_000, 13_287, 13_300, 13_450, 13_600];
    for &r in &deleted {
        t.delete_row(r).unwrap();
    }
    let snap = t.snapshot();
    assert_eq!(snap.col(0).main().len(), (MERGED + FROZEN) as usize);
    assert_eq!(snap.col(1).main().len(), MERGED as usize);

    let key_edge = MERGED - 40..=MERGED + 40;
    let queries = [
        Query::scan(0),
        Query::scan(0).eq(100),
        Query::scan(0).between(5_000, 9_000),
        Query::scan(0).between(*key_edge.start(), *key_edge.end()),
        Query::scan(0).between(20_000, 30_000),
        Query::scan(1).eq(3),
        Query::scan(1).between(2, 4),
        Query::scan(0).between(4_000, MERGED + 200).and(1).eq(1),
        Query::scan(1).eq(2).and(0).between(0, 5_000),
        Query::scan(1)
            .between(0, 1)
            .and(0)
            .between(*key_edge.start(), *key_edge.end()),
    ];
    for q in &queries {
        let expected: Vec<usize> = (0..rows.len())
            .filter(|r| !deleted.contains(r))
            .filter(|&r| {
                q.predicates()
                    .iter()
                    .all(|p| (p.lo..=p.hi).contains(&rows[r][p.col]))
            })
            .collect();
        for hint in 1..=4 {
            let q = q.clone().with_threads(hint);
            for exec in [&snap as &dyn Executor<u64, RowId = usize>, &t] {
                let ctx = format!("{q:?}");
                assert_eq!(q.clone().run(exec).into_rows(), expected, "{ctx}");
                let projected: Vec<Vec<u64>> = expected
                    .iter()
                    .map(|&r| vec![rows[r][1], rows[r][0]])
                    .collect();
                assert_eq!(
                    q.clone().project(&[1, 0]).run(exec).into_projected(),
                    projected,
                    "{ctx}"
                );
                assert_eq!(q.clone().count().run(exec).count(), expected.len(), "{ctx}");
                for c in [0, 1] {
                    let values = || expected.iter().map(|&r| rows[r][c]);
                    let sum: u128 = values().map(u128::from).sum();
                    assert_eq!(q.clone().sum(c).run(exec).sum(), sum, "{ctx} sum({c})");
                    assert_eq!(
                        q.clone().min_max(c).run(exec).min_max(),
                        values().min().zip(values().max()),
                        "{ctx} min_max({c})"
                    );
                }
            }
        }
    }
    drop(session);
}
