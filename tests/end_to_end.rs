//! End-to-end lifecycle tests of the live table at every value length of
//! Section 7 (`E_j` = 4, 8 and 16 bytes): the insert-only model, merged
//! repeatedly, checked against a plain row-store reference after every
//! wave.

use hyrise::merge::OnlineTable;
use hyrise::query::Query;
use hyrise::storage::{Value, V16};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Plain reference: rows + validity flags.
struct Reference<V> {
    rows: Vec<Vec<V>>,
    valid: Vec<bool>,
}

impl<V: Value> Reference<V> {
    fn new() -> Self {
        Self {
            rows: Vec::new(),
            valid: Vec::new(),
        }
    }

    fn insert(&mut self, row: Vec<V>) -> usize {
        self.rows.push(row);
        self.valid.push(true);
        self.rows.len() - 1
    }

    fn update(&mut self, old: usize, row: Vec<V>) -> usize {
        let id = self.insert(row);
        self.valid[old] = false;
        id
    }

    fn delete(&mut self, row: usize) {
        self.valid[row] = false;
    }

    /// Valid rows satisfying `pred`, row at a time.
    fn select(&self, pred: impl Fn(&[V]) -> bool) -> Vec<usize> {
        (0..self.rows.len())
            .filter(|&r| self.valid[r] && pred(&self.rows[r]))
            .collect()
    }

    fn check_equal(&self, table: &OnlineTable<V>) {
        assert_eq!(table.row_count(), self.rows.len());
        for (r, want) in self.rows.iter().enumerate() {
            assert_eq!(&table.row(r), want, "row {r}");
            assert_eq!(table.is_valid(r), self.valid[r], "validity of row {r}");
        }
        assert_eq!(
            table.valid_row_count(),
            self.valid.iter().filter(|v| **v).count()
        );
    }
}

/// (order, qty, doc) with 500 / 100 / 50 distinct values.
fn random_row<V: Value>(rng: &mut StdRng) -> Vec<V> {
    [500, 100, 50]
        .map(|distinct| V::from_seed(rng.gen_range(0..distinct)))
        .to_vec()
}

fn four_merge_waves<V: Value>() {
    let table = OnlineTable::<V>::new(3);
    let mut reference = Reference::new();
    let mut rng = StdRng::seed_from_u64(2024);

    for wave in 0..4 {
        // A mixed batch of inserts, updates and deletes.
        for _ in 0..1_000 {
            match rng.gen_range(0..10) {
                0..=6 => {
                    let row = random_row(&mut rng);
                    table.insert_row(&row).unwrap();
                    reference.insert(row);
                }
                7..=8 if !reference.rows.is_empty() => {
                    let old = rng.gen_range(0..reference.rows.len());
                    let row = random_row(&mut rng);
                    table.insert_row(&row).unwrap();
                    table.delete_row(old).unwrap();
                    reference.update(old, row);
                }
                _ if !reference.rows.is_empty() => {
                    let victim = rng.gen_range(0..reference.rows.len());
                    table.delete_row(victim).unwrap();
                    reference.delete(victim);
                }
                _ => {}
            }
        }
        reference.check_equal(&table);

        // Merge and re-check: the merge must be observably a no-op for reads.
        let stats = table.merge(4).unwrap();
        assert_eq!(stats.columns.len(), 3);
        assert_eq!(table.delta_len(), 0, "wave {wave}: everything merged");
        reference.check_equal(&table);
    }
    assert!(table.main_len() > 3_000, "several waves' rows live in main");
}

#[test]
fn mixed_type_table_through_four_merge_waves() {
    four_merge_waves::<u32>();
    four_merge_waves::<u64>();
    four_merge_waves::<V16>();
}

fn queries_agree_across_a_merge<V: Value>() {
    let table = OnlineTable::<V>::new(2);
    let mut reference = Reference::new();
    let mut rng = StdRng::seed_from_u64(7);
    let v = V::from_seed;
    for _ in 0..3_000 {
        let row = vec![v(rng.gen_range(0..50)), v(rng.gen_range(0..10))];
        table.insert_row(&row).unwrap();
        reference.insert(row);
    }
    // Some history churn.
    for _ in 0..300 {
        let old = rng.gen_range(0..table.row_count());
        let row = vec![v(rng.gen_range(0..50)), v(1)];
        table.insert_row(&row).unwrap();
        table.delete_row(old).unwrap();
        reference.update(old, row);
    }

    let eq = Query::scan(0).eq(v(17));
    let conj = Query::scan(0)
        .between(v(0), v(4))
        .and(1)
        .between(v(4), v(9));
    let want_eq = reference.select(|row| row[0] == v(17));
    let want_conj = reference.select(|row| row[0] < v(5) && row[1] > v(3));
    assert!(!want_eq.is_empty() && !want_conj.is_empty());

    assert_eq!(eq.run(&table).into_rows(), want_eq);
    assert_eq!(conj.run(&table).into_rows(), want_conj);
    table.merge(4).unwrap();
    assert_eq!(eq.run(&table).into_rows(), want_eq);
    assert_eq!(conj.run(&table).into_rows(), want_conj);
}

#[test]
fn queries_agree_before_and_after_merge() {
    queries_agree_across_a_merge::<u32>();
    queries_agree_across_a_merge::<u64>();
    queries_agree_across_a_merge::<V16>();
}

/// The compression premise (Section 2 / Figure 4): low-cardinality columns
/// compress massively under dictionary + bit-packing.
fn merge_compresses_tenfold<V: Value>() {
    let table = OnlineTable::<V>::new(1);
    for i in 0..20_000u64 {
        table.insert_row(&[V::from_seed(i % 8)]).unwrap();
    }
    let before = table.memory_report().total();
    table.merge(2).unwrap();
    let after = table.memory_report().total();
    // 20K x E_j bytes raw; merged: 3 bits/tuple + 8-entry dictionary.
    assert_eq!(before, 20_000 * V::BYTES);
    assert!(
        after < before / 10,
        "merge must compress: {before} -> {after}"
    );
    assert!(
        after < 20_000,
        "3-bit codes for 20K tuples stay under 20KB, got {after}"
    );
}

#[test]
fn dictionary_shrinks_memory_versus_uncompressed() {
    merge_compresses_tenfold::<u32>();
    merge_compresses_tenfold::<u64>();
    merge_compresses_tenfold::<V16>();
}
