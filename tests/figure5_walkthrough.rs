//! The paper's Figures 5 and 6, executed end-to-end through the facade
//! crate's public API. Every concrete number in the figures is asserted.

use hyrise::bitpack::bits_for;
use hyrise::merge::{merge_dictionaries, MergePipeline, MergeScratch, MergeStrategy};
use hyrise::storage::{FrozenDelta, MainPartition};

/// Word encoding preserving lexicographic order:
/// apple=1 bravo=2 charlie=3 delta=4 frank=6 golf=7 hotel=8 inbox=9 young=25
const APPLE: u64 = 1;
const BRAVO: u64 = 2;
const CHARLIE: u64 = 3;
const DELTA: u64 = 4;
const FRANK: u64 = 6;
const GOLF: u64 = 7;
const HOTEL: u64 = 8;
const INBOX: u64 = 9;
const YOUNG: u64 = 25;

fn paper_main() -> MainPartition<u64> {
    // Figure 5's main partition fragment [hotel delta frank delta] extended
    // so every dictionary word occurs (the figure shows a 6-word dictionary).
    MainPartition::from_values(&[HOTEL, DELTA, FRANK, DELTA, APPLE, CHARLIE, INBOX])
}

/// Figure 5's delta in insertion order, frozen: Stage 1a's output.
fn paper_delta() -> FrozenDelta<u64> {
    FrozenDelta::from_values(&[BRAVO, CHARLIE, GOLF, CHARLIE, YOUNG])
}

#[test]
fn figure5_pre_merge_state() {
    let main = paper_main();
    // "The main partition has a dictionary consisting of its sorted unique
    // values (6 in total). Hence, the encoded values are stored using
    // 3 (= ceil(log 6)) bits."
    assert_eq!(main.dictionary().len(), 6);
    assert_eq!(main.code_bits(), 3);
    assert_eq!(
        main.dictionary().values(),
        &[APPLE, CHARLIE, DELTA, FRANK, HOTEL, INBOX]
    );

    let delta = paper_delta();
    // "there are five tuples ... all the unique uncompressed values ... the
    // value 'charlie' is inserted at positions 1 and 3."
    assert_eq!(delta.len(), 5);
    assert_eq!(delta.dict().len(), 4);
    let charlie: Vec<usize> = (0..delta.len())
        .filter(|&i| delta.get(i) == CHARLIE)
        .collect();
    assert_eq!(charlie, vec![1, 3]);
}

#[test]
fn figure6_step1a_compressed_delta() {
    // "we create the dictionary for the delta partition (with 4 distinct
    // values) and compute the compressed delta partition using 2 bits"
    let delta = paper_delta();
    assert_eq!(delta.dict().values(), &[BRAVO, CHARLIE, GOLF, YOUNG]);
    assert_eq!(bits_for(delta.dict().len()), 2);
    assert_eq!(delta.codes().bits(), 2);
    // Figure 6 shows codes 00 01 10 01 11.
    assert_eq!(
        delta.codes().iter().collect::<Vec<_>>(),
        vec![0, 1, 2, 1, 3]
    );
}

#[test]
fn figure6_step1b_auxiliary_structures() {
    let main = paper_main();
    let delta = paper_delta();
    let dm = merge_dictionaries(main.dictionary().values(), delta.dict().values());
    // Main auxiliary: 0000 0010 0011 0100 0110 0111.
    assert_eq!(dm.x_m, vec![0, 2, 3, 4, 6, 7]);
    // Delta auxiliary: 0001 0010 0101 1000.
    assert_eq!(dm.x_d, vec![1, 2, 5, 8]);
    // Merged dictionary: 9 sorted unique words.
    assert_eq!(
        dm.merged,
        vec![APPLE, BRAVO, CHARLIE, DELTA, FRANK, GOLF, HOTEL, INBOX, YOUNG]
    );
}

#[test]
fn figure6_step2b_lookup_replaces_search() {
    let main = paper_main();
    let delta = paper_delta();
    let out = MergePipeline::new(MergeStrategy::Optimized, 1).merge_column(
        &main,
        &delta,
        &mut MergeScratch::new(),
    );
    // "the first compressed value in the main partition has a compressed
    // value of 4 ... the value stored at index 4 in the auxiliary structure
    // ... corresponds to 6" — and 9 unique values need 4 bits.
    assert_eq!(main.code(0), 4);
    assert_eq!(out.main.code(0), 6);
    assert_eq!(out.main.code_bits(), 4);
    assert_eq!(out.main.dictionary().len(), 9);
    // The merged column is main ++ delta, values preserved.
    let got: Vec<u64> = (0..out.main.len()).map(|i| out.main.get(i)).collect();
    assert_eq!(
        got,
        vec![
            HOTEL, DELTA, FRANK, DELTA, APPLE, CHARLIE, INBOX, BRAVO, CHARLIE, GOLF, CHARLIE, YOUNG
        ]
    );
}

#[test]
fn all_algorithms_reproduce_the_figure() {
    let main = paper_main();
    let delta = paper_delta();
    let reference = MergePipeline::new(MergeStrategy::Optimized, 1).merge_column(
        &main,
        &delta,
        &mut MergeScratch::new(),
    );
    for (name, out) in [
        (
            "naive",
            MergePipeline::new(MergeStrategy::Naive, 2)
                .merge_column(&main, &delta, &mut MergeScratch::new())
                .main,
        ),
        (
            "parallel",
            MergePipeline::new(MergeStrategy::Parallel, 3)
                .merge_column(&main, &delta, &mut MergeScratch::new())
                .main,
        ),
    ] {
        assert_eq!(
            out.dictionary().values(),
            reference.main.dictionary().values(),
            "{name}"
        );
        assert_eq!(
            out.codes().collect::<Vec<_>>(),
            reference.main.codes().collect::<Vec<_>>(),
            "{name} codes"
        );
    }
}
