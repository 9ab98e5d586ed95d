//! Row validity for the insert-only model.
//!
//! "Updates are always modeled as new inserts and deletes only invalidate
//! rows. We keep the insertion order of tuples and only the lastly inserted
//! version is valid." (Section 3) Invalid rows stay in storage — the history
//! is queryable — and survive merges unchanged, since the merge concatenates
//! partitions without reordering.
//!
//! Two representations share the bit layout: the plain [`ValidityBitmap`]
//! (single-owner, used by snapshots and recovery) and the
//! [`AtomicValidity`] (shared, lock-free, used by the online table where
//! inserts set bits concurrently with deletes clearing them and snapshots
//! copying prefixes).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A growable bitmap: bit `i` set means row `i` is valid (visible).
#[derive(Clone, Debug, Default)]
pub struct ValidityBitmap {
    words: Vec<u64>,
    len: usize,
    valid_count: usize,
}

impl ValidityBitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// A bitmap of `n` valid rows (bulk-load path).
    pub fn all_valid(n: usize) -> Self {
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if !n.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (n % 64)) - 1;
            }
        }
        Self {
            words,
            len: n,
            valid_count: n,
        }
    }

    /// Number of rows tracked.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no rows are tracked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of currently valid rows.
    #[inline]
    pub fn valid_count(&self) -> usize {
        self.valid_count
    }

    /// Append one row, valid.
    pub fn push_valid(&mut self) {
        let i = self.len;
        self.len += 1;
        if self.words.len() * 64 < self.len {
            self.words.push(0);
        }
        self.words[i / 64] |= 1u64 << (i % 64);
        self.valid_count += 1;
    }

    /// Is row `i` valid?
    ///
    /// # Panics
    /// If `i` is out of range.
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        assert!(i < self.len, "row {i} out of range (len {})", self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Invalidate row `i` (idempotent) — the "delete"/"old version" path.
    pub fn invalidate(&mut self, i: usize) {
        assert!(i < self.len, "row {i} out of range (len {})", self.len);
        let mask = 1u64 << (i % 64);
        if self.words[i / 64] & mask != 0 {
            self.words[i / 64] &= !mask;
            self.valid_count -= 1;
        }
    }

    /// Iterate the indices of valid rows.
    pub fn valid_rows(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&i| self.words[i / 64] & (1u64 << (i % 64)) != 0)
    }

    /// The backing words (64 row bits each; the last word is masked to
    /// `len`). The checkpoint writer persists these verbatim.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuild a bitmap from persisted `words` covering `len` rows.
    /// Bits above `len` in the final word are masked off.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        words.truncate(len.div_ceil(64));
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
        let valid_count = words.iter().map(|w| w.count_ones() as usize).sum();
        Self {
            words,
            len,
            valid_count,
        }
    }
}

/// Words (of 64 rows each) in chunk 0 of an [`AtomicValidity`]; chunk `k`
/// holds `WORDS_0 << k` words. Mirrors the tail log's row-chunk geometry
/// (1024 rows = 16 words) so both spines grow in lock step.
const WORDS_0: usize = 16;
const NUM_CHUNKS: usize = 32;

#[inline]
const fn chunk_start(k: usize) -> usize {
    WORDS_0 * ((1usize << k) - 1)
}

/// `(chunk, offset)` of word `w`.
#[inline]
fn locate(w: usize) -> (usize, usize) {
    let b = w / WORDS_0 + 1;
    let k = (usize::BITS - 1 - b.leading_zeros()) as usize;
    (k, w - chunk_start(k))
}

/// A concurrently updatable validity bitmap over the online table's global
/// tuple ids. Bits live in a chunked spine of atomic words that never
/// moves, so readers and writers share it with no lock:
///
/// * inserts set a row's bit **before** publishing the row's watermark —
///   any row a reader can see already has its bit set (unless deleted);
/// * deletes clear bits (idempotently) and maintain a valid-row counter;
/// * snapshots copy a word prefix and mask it to the published row count,
///   hiding set bits of rows above the watermark.
///
/// Merges never touch it: global tuple ids are stable across the merge
/// (Section 3's "the implicit offset of a tuple is always valid"), which
/// is what lets validity live outside the swapped generation entirely.
#[derive(Default)]
pub struct AtomicValidity {
    chunks: [OnceLock<Box<[AtomicU64]>>; NUM_CHUNKS],
    valid_count: AtomicUsize,
}

impl AtomicValidity {
    /// An empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// A bitmap with rows `0..n` valid (bulk-load path).
    pub fn all_valid(n: usize) -> Self {
        let v = Self::new();
        for i in 0..n {
            v.set_valid(i);
        }
        v
    }

    /// The word holding row bit `i`, allocating its chunk on first touch.
    fn word(&self, i: usize) -> &AtomicU64 {
        let (k, off) = locate(i / 64);
        let chunk = self.chunks[k].get_or_init(|| {
            let words = WORDS_0 << k;
            let mut v = Vec::with_capacity(words);
            v.resize_with(words, || AtomicU64::new(0));
            v.into_boxed_slice()
        });
        &chunk[off]
    }

    /// Mark row `i` valid (the insert path; called before the row's
    /// watermark publish, so ordering piggybacks on that `Release`).
    pub fn set_valid(&self, i: usize) {
        let prev = self.word(i).fetch_or(1u64 << (i % 64), Ordering::Relaxed);
        if prev & (1u64 << (i % 64)) == 0 {
            self.valid_count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Invalidate row `i` (idempotent) — the delete / old-version path.
    pub fn invalidate(&self, i: usize) {
        let prev = self
            .word(i)
            .fetch_and(!(1u64 << (i % 64)), Ordering::Relaxed);
        if prev & (1u64 << (i % 64)) != 0 {
            self.valid_count.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Is row `i` valid? The caller is responsible for only asking about
    /// rows below a published watermark.
    pub fn is_valid(&self, i: usize) -> bool {
        self.word(i).load(Ordering::Relaxed) & (1u64 << (i % 64)) != 0
    }

    /// Rows currently valid. Exact when quiescent; during concurrent
    /// inserts it may transiently include rows whose watermark publish is
    /// still in flight (their bits are set first).
    pub fn valid_count(&self) -> usize {
        self.valid_count.load(Ordering::Relaxed)
    }

    /// A plain-bitmap copy of rows `0..n`, with the last word masked to
    /// `n` — bits of not-yet-published rows above the watermark are set
    /// before publication and must not leak into the snapshot.
    ///
    /// Every query takes one of these, so the copy walks the spine chunk by
    /// chunk — one slice per chunk instead of re-resolving the chunk for
    /// every word — and the valid bits are counted in one pass over the
    /// copy.
    pub fn snapshot_prefix(&self, n: usize) -> ValidityBitmap {
        let n_words = n.div_ceil(64);
        let mut words = Vec::with_capacity(n_words);
        for (k, chunk) in self.chunks.iter().enumerate() {
            let want = n_words - words.len();
            if want == 0 {
                break;
            }
            let take = want.min(WORDS_0 << k);
            match chunk.get() {
                Some(c) => words.extend(c[..take].iter().map(|w| w.load(Ordering::Relaxed))),
                // Never written: no row of this chunk was ever set valid.
                None => words.resize(words.len() + take, 0),
            }
        }
        // Masks the last word to `n` and counts the valid bits.
        ValidityBitmap::from_words(words, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_check() {
        let mut v = ValidityBitmap::new();
        for _ in 0..130 {
            v.push_valid();
        }
        assert_eq!(v.len(), 130);
        assert_eq!(v.valid_count(), 130);
        assert!(v.is_valid(0));
        assert!(v.is_valid(129));
    }

    #[test]
    fn invalidate_is_idempotent() {
        let mut v = ValidityBitmap::all_valid(10);
        v.invalidate(3);
        v.invalidate(3);
        assert_eq!(v.valid_count(), 9);
        assert!(!v.is_valid(3));
        assert!(v.is_valid(2));
    }

    #[test]
    fn all_valid_partial_last_word() {
        let v = ValidityBitmap::all_valid(70);
        assert_eq!(v.valid_count(), 70);
        assert!(v.is_valid(69));
        assert_eq!(v.valid_rows().count(), 70);
    }

    #[test]
    fn valid_rows_skips_invalidated() {
        let mut v = ValidityBitmap::all_valid(8);
        v.invalidate(1);
        v.invalidate(5);
        let rows: Vec<usize> = v.valid_rows().collect();
        assert_eq!(rows, vec![0, 2, 3, 4, 6, 7]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_check_panics() {
        let v = ValidityBitmap::all_valid(4);
        v.is_valid(4);
    }

    #[test]
    fn empty_bitmap() {
        let v = ValidityBitmap::new();
        assert!(v.is_empty());
        assert_eq!(v.valid_rows().count(), 0);
    }

    #[test]
    fn words_round_trip() {
        let mut v = ValidityBitmap::all_valid(100);
        v.invalidate(17);
        v.invalidate(99);
        let back = ValidityBitmap::from_words(v.words().to_vec(), v.len());
        assert_eq!(back.len(), 100);
        assert_eq!(back.valid_count(), 98);
        assert!(!back.is_valid(17));
        assert!(back.is_valid(18));
    }

    #[test]
    fn from_words_masks_stray_high_bits() {
        let back = ValidityBitmap::from_words(vec![u64::MAX], 10);
        assert_eq!(back.valid_count(), 10);
        assert!(back.is_valid(9));
    }

    #[test]
    fn atomic_word_geometry() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(15), (0, 15));
        assert_eq!(locate(16), (1, 0));
        assert_eq!(locate(47), (1, 31));
        assert_eq!(locate(48), (2, 0));
    }

    #[test]
    fn atomic_set_invalidate_count() {
        let v = AtomicValidity::new();
        for i in 0..200 {
            v.set_valid(i);
        }
        assert_eq!(v.valid_count(), 200);
        v.set_valid(7); // idempotent
        assert_eq!(v.valid_count(), 200);
        v.invalidate(7);
        v.invalidate(7);
        assert_eq!(v.valid_count(), 199);
        assert!(!v.is_valid(7));
        assert!(v.is_valid(8));
    }

    #[test]
    fn atomic_all_valid_matches_plain() {
        let v = AtomicValidity::all_valid(70);
        assert_eq!(v.valid_count(), 70);
        let snap = v.snapshot_prefix(70);
        assert_eq!(snap.valid_count(), 70);
        assert!(snap.is_valid(69));
    }

    #[test]
    fn snapshot_prefix_masks_rows_above_the_watermark() {
        let v = AtomicValidity::new();
        // Rows 0..100 published; rows 100..130 written-but-unpublished
        // (their bits are set, the snapshot must not see them).
        for i in 0..130 {
            v.set_valid(i);
        }
        v.invalidate(3);
        let snap = v.snapshot_prefix(100);
        assert_eq!(snap.len(), 100);
        assert_eq!(snap.valid_count(), 99);
        assert!(!snap.is_valid(3));
        assert!(snap.is_valid(99));
        // Asking about row 100 panics — it's outside the snapshot.
        assert!(std::panic::catch_unwind(|| snap.is_valid(100)).is_err());
    }

    #[test]
    fn atomic_bits_cross_chunk_boundaries() {
        let v = AtomicValidity::new();
        for i in [0usize, 1023, 1024, 3071, 3072, 10_000] {
            v.set_valid(i);
            assert!(v.is_valid(i));
        }
        assert_eq!(v.valid_count(), 6);
        let snap = v.snapshot_prefix(10_001);
        assert_eq!(snap.valid_count(), 6);
    }
}
