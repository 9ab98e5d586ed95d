//! Model-based testing of [`OnlineTable`]: an arbitrary interleaving of
//! inserts, updates, deletes, full merges, incremental merge steps and
//! interrupted merges must behave exactly like a plain vector-of-rows
//! model.

use hyrise_core::{MergeBudget, MergeGrant, OnlineTable};
use proptest::prelude::*;

const COLS: usize = 3;

#[derive(Clone, Debug)]
enum Op {
    Insert(u64),
    Update { row_choice: u16, seed: u64 },
    Delete { row_choice: u16 },
    Merge,
    IncrementalSteps(u8),
    DroppedSession(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => any::<u64>().prop_map(Op::Insert),
        3 => (any::<u16>(), any::<u64>()).prop_map(|(row_choice, seed)| Op::Update { row_choice, seed }),
        2 => any::<u16>().prop_map(|row_choice| Op::Delete { row_choice }),
        1 => Just(Op::Merge),
        1 => (0u8..5).prop_map(Op::IncrementalSteps),
        2 => (0u8..5).prop_map(Op::DroppedSession),
    ]
}

/// A session that commits one column per step (the incremental merge).
fn incremental() -> MergeGrant {
    MergeGrant::with_threads(1).budget(MergeBudget::columns(1))
}

fn row_of(seed: u64) -> Vec<u64> {
    (0..COLS as u64)
        .map(|c| seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(c))
        .collect()
}

#[derive(Default)]
struct Model {
    rows: Vec<Vec<u64>>,
    valid: Vec<bool>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn online_table_matches_model(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let table = OnlineTable::<u64>::new(COLS);
        let mut model = Model::default();

        for op in ops {
            match op {
                Op::Insert(seed) => {
                    let row = row_of(seed);
                    let id = table.insert_row(&row).unwrap();
                    model.rows.push(row);
                    model.valid.push(true);
                    prop_assert_eq!(id, model.rows.len() - 1);
                }
                Op::Update { row_choice, seed } => {
                    if model.rows.is_empty() { continue; }
                    let old = row_choice as usize % model.rows.len();
                    let row = row_of(seed);
                    let id = table.insert_row(&row).unwrap();
                    table.delete_row(old).unwrap();
                    model.rows.push(row);
                    model.valid.push(true);
                    model.valid[old] = false;
                    prop_assert_eq!(id, model.rows.len() - 1);
                }
                Op::Delete { row_choice } => {
                    if model.rows.is_empty() { continue; }
                    let victim = row_choice as usize % model.rows.len();
                    table.delete_row(victim).unwrap();
                    model.valid[victim] = false;
                }
                Op::Merge => {
                    table.merge(2).unwrap();
                    prop_assert_eq!(table.delta_len(), 0);
                }
                Op::IncrementalSteps(n) => {
                    let mut s = table.begin_merge(incremental()).unwrap();
                    for _ in 0..n {
                        if !s.step().unwrap() { break; }
                    }
                    // Paused after n steps, then resumed to the end.
                    s.finish().unwrap();
                }
                Op::DroppedSession(k) => {
                    let mut s = table.begin_merge(incremental()).unwrap();
                    for _ in 0..k {
                        if !s.step().unwrap() { break; }
                    }
                    // Dropped here: unmerged columns stay frozen, and the
                    // next session resumes them.
                }
            }
            // Full-state check after every operation.
            prop_assert_eq!(table.row_count(), model.rows.len());
            prop_assert_eq!(
                table.valid_row_count(),
                model.valid.iter().filter(|v| **v).count()
            );
        }
        // Final deep check of all rows and validity.
        for (r, want) in model.rows.iter().enumerate() {
            prop_assert_eq!(&table.row(r), want, "row {}", r);
            prop_assert_eq!(table.is_valid(r), model.valid[r], "validity {}", r);
        }
    }
}
