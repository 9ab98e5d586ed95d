//! Quickstart: the paper's Figure 5/6 example end-to-end on the public API.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Walks through: a dictionary-compressed main partition, a delta frozen
//! into its compressed form (the merge's Stage 1a), and the optimized merge
//! that folds the delta back in — showing the dictionary growth (6 -> 9
//! values) and the code width growth (3 -> 4 bits) from the paper's running
//! example.

use hyrise::merge::{MergePipeline, MergeScratch, MergeStrategy, OnlineTable};
use hyrise::query::Query;
use hyrise::storage::{FrozenDelta, MainPartition};

fn main() {
    // The paper's column values, encoded as integers that preserve their
    // lexicographic order:
    // apple=1 bravo=2 charlie=3 delta=4 frank=6 golf=7 hotel=8 inbox=9 young=25
    println!("== Main partition (read-optimized, dictionary-compressed) ==");
    let main = MainPartition::from_values(&[8u64, 4, 6, 4, 1, 3, 9]);
    println!(
        "tuples      : {:?}",
        (0..main.len()).map(|i| main.get(i)).collect::<Vec<_>>()
    );
    println!(
        "dictionary  : {:?} ({} values)",
        main.dictionary().values(),
        main.dictionary().len()
    );
    println!(
        "code width  : {} bits (ceil(log2 {}))",
        main.code_bits(),
        main.dictionary().len()
    );
    println!("codes       : {:?}", main.codes().collect::<Vec<_>>());
    println!("'hotel'(=8) is encoded as {}", main.code(0));
    println!();

    println!("== Delta, frozen for the merge (Stage 1a: sorted U_D + codes) ==");
    let delta = FrozenDelta::from_values(&[2u64, 3, 7, 3, 25]);
    println!("tuples      : {:?}", delta.to_vec());
    println!("unique      : {:?}", delta.dict().values());
    println!(
        "codes       : {:?} ({} bits)",
        delta.codes().iter().collect::<Vec<_>>(),
        delta.codes().bits()
    );
    println!();

    println!("== Queries spanning both partitions (the unified Query builder) ==");
    let table = OnlineTable::from_mains(vec![main.clone()]);
    for v in [2u64, 3, 7, 3, 25] {
        table.insert_row(&[v]).expect("in-memory insert");
    }
    let snap = table.snapshot();
    // Predicates compile to dictionary value-id ranges: the main partition
    // is scanned in code space (no tuple decoded), the delta by value.
    println!(
        "Query::scan(0).eq(3)         -> rows {:?}",
        Query::scan(0).eq(3).run(&snap).into_rows()
    );
    println!(
        "Query::scan(0).between(4, 8) -> rows {:?}",
        Query::scan(0).between(4, 8).run(&snap).into_rows()
    );
    println!(
        "  ...same query .sum(0)      -> {}",
        Query::scan(0).between(4, 8).sum(0).run(&snap).sum()
    );
    println!(
        "  ...same query .min_max(0)  -> {:?}",
        Query::scan(0).between(4, 8).min_max(0).run(&snap).min_max()
    );
    println!();

    println!("== The optimized merge (Section 5.3) ==");
    let mut scratch = MergeScratch::new();
    let merged =
        MergePipeline::new(MergeStrategy::Optimized, 1).merge_column(&main, &delta, &mut scratch);
    println!(
        "merged dictionary : {:?} ({} values)",
        merged.main.dictionary().values(),
        merged.main.dictionary().len()
    );
    println!(
        "code width        : {} bits (grew from 3)",
        merged.main.code_bits()
    );
    println!(
        "'hotel' re-encoded: {} -> {}",
        main.code(0),
        merged.main.code(0)
    );
    println!(
        "merged column     : {:?}",
        (0..merged.main.len())
            .map(|i| merged.main.get(i))
            .collect::<Vec<_>>()
    );
    println!();

    println!("== Same merge, multi-core (Section 6.2) ==");
    let par =
        MergePipeline::new(MergeStrategy::Parallel, 4).merge_column(&main, &delta, &mut scratch);
    assert_eq!(
        par.main.dictionary().values(),
        merged.main.dictionary().values()
    );
    assert_eq!(
        par.main.codes().collect::<Vec<_>>(),
        merged.main.codes().collect::<Vec<_>>(),
        "parallel merge is bit-identical to the serial one"
    );
    println!("parallel merge output is bit-identical to the serial optimized merge ✓");
}
