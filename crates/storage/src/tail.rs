//! The append-only delta tail with atomic watermark publication.
//!
//! Section 3's write-optimized delta accepts inserts while readers scan;
//! with the table lock gone, the insert target becomes this log: writers
//! **reserve** a contiguous range of row slots with one `fetch_add`, write
//! every column's values into their slots, then **publish** the rows by
//! advancing the watermark in reservation order. Readers only ever look at
//! rows below the published watermark, so they observe each multi-row
//! batch atomically (no torn batch) and never race a writer's stores —
//! the `Release` publish / `Acquire` watermark read pair carries the
//! value writes.
//!
//! Storage is a chunked spine (chunk `k` holds `1024 << k` rows) so the
//! log grows without ever moving a published row — readers keep raw slices
//! into chunks with no reallocation hazard.
//!
//! A merge **seals** the log: late reservers are turned away (they retry
//! against the successor log of the next generation) and the sealer waits
//! for in-flight reservations to publish, yielding the log's final row
//! count.

use crate::value::Value;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Chunk 0 holds this many rows; chunk `k` holds `ROWS_0 << k`.
const ROWS_0: usize = 1024;
/// 32 chunks cover ~4.4e12 rows — far beyond a single delta's lifetime.
const NUM_CHUNKS: usize = 32;

/// High bit of `reserved`: the log no longer accepts reservations.
const SEALED: usize = 1 << (usize::BITS - 1);

/// First row of chunk `k`.
#[inline]
const fn chunk_start(k: usize) -> usize {
    ROWS_0 * ((1usize << k) - 1)
}

/// `(chunk, offset)` of row `i`.
#[inline]
fn locate(i: usize) -> (usize, usize) {
    let b = i / ROWS_0 + 1;
    let k = (usize::BITS - 1 - b.leading_zeros()) as usize;
    (k, i - chunk_start(k))
}

/// One value slot. Written exactly once, by the thread holding the slot's
/// reservation, strictly before the row is published.
#[repr(transparent)]
struct SlotCell<V>(UnsafeCell<MaybeUninit<V>>);

// SAFETY: slots are plain data raced only in the benign direction — each
// slot is written by exactly one reserver (reservation ranges are disjoint
// by `fetch_add`) and read only after the covering watermark publish
// (`Release`) has been observed (`Acquire`), which orders the write before
// every read.
unsafe impl<V: Send + Sync> Sync for SlotCell<V> {}

/// One column's chunked slot spine.
struct TailColumn<V> {
    chunks: [OnceLock<Box<[SlotCell<V>]>>; NUM_CHUNKS],
}

impl<V: Value> TailColumn<V> {
    fn new() -> Self {
        Self {
            chunks: [const { OnceLock::new() }; NUM_CHUNKS],
        }
    }

    /// The chunk holding row `i`, allocated on first touch.
    fn chunk(&self, k: usize) -> &[SlotCell<V>] {
        self.chunks[k].get_or_init(|| {
            let rows = ROWS_0 << k;
            let mut v = Vec::with_capacity(rows);
            v.resize_with(rows, || SlotCell(UnsafeCell::new(MaybeUninit::uninit())));
            v.into_boxed_slice()
        })
    }

    /// Write row `i`. Caller must hold the reservation covering `i` and
    /// must not have published it yet.
    fn write(&self, i: usize, value: V) {
        let (k, off) = locate(i);
        let cell = &self.chunk(k)[off];
        // SAFETY: reservation exclusivity (see `SlotCell`'s Sync comment).
        unsafe { (*cell.0.get()).write(value) };
    }

    /// Read row `i`; caller must have observed a published watermark > `i`.
    fn read(&self, i: usize) -> V {
        let (k, off) = locate(i);
        let cell = &self.chunk(k)[off];
        // SAFETY: published rows are initialized and never rewritten.
        unsafe { (*cell.0.get()).assume_init_read() }
    }

    /// The column's first `rows` rows as contiguous slices, in row order.
    fn slices(&self, rows: usize) -> Vec<&[V]> {
        let mut out = Vec::new();
        let mut remaining = rows;
        for k in 0..NUM_CHUNKS {
            if remaining == 0 {
                break;
            }
            let n = remaining.min(ROWS_0 << k);
            let chunk = self.chunk(k);
            // SAFETY: `SlotCell<V>` is `repr(transparent)` over
            // `MaybeUninit<V>`; the first `n` slots are published, hence
            // initialized and immutable.
            out.push(unsafe { std::slice::from_raw_parts(chunk.as_ptr().cast::<V>(), n) });
            remaining -= n;
        }
        out
    }

    fn allocated_bytes(&self) -> usize {
        (0..NUM_CHUNKS)
            .filter(|&k| self.chunks[k].get().is_some())
            .map(|k| (ROWS_0 << k) * std::mem::size_of::<V>())
            .sum()
    }
}

/// Error returned by [`TailLog::reserve`] once the log is sealed: the
/// caller should re-pin the table generation and retry against the fresh
/// log installed by the merge freeze.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailSealed;

/// A multi-column append-only row log; see the module docs for the
/// reserve → write → publish protocol.
pub struct TailLog<V> {
    /// Global tuple id of slot 0 (rows before it live in the generation's
    /// main and frozen partitions).
    base: usize,
    cols: Box<[TailColumn<V>]>,
    /// Low bits: slots handed out. High bit: [`SEALED`]. Post-seal
    /// `fetch_add`s may pollute the low bits; the true final count is the
    /// value [`Self::seal`] captures from its `fetch_or`.
    reserved: AtomicUsize,
    /// Rows visible to readers; advanced in reservation order.
    published: AtomicUsize,
}

impl<V: Value> TailLog<V> {
    /// An empty log whose slot 0 is global row `base`.
    pub fn new(num_columns: usize, base: usize) -> Self {
        Self {
            base,
            cols: (0..num_columns).map(|_| TailColumn::new()).collect(),
            reserved: AtomicUsize::new(0),
            published: AtomicUsize::new(0),
        }
    }

    /// Global tuple id of the log's first row.
    #[inline]
    pub fn base(&self) -> usize {
        self.base
    }

    /// Rows visible to readers. `Acquire`: pairs with the `Release`
    /// publish, so all value writes of visible rows are visible too.
    #[inline]
    pub fn published(&self) -> usize {
        self.published.load(Ordering::Acquire)
    }

    /// Reserve `n > 0` row slots. On success the caller **must** write
    /// every column of every reserved row and then publish (the guard
    /// publishes default values on panic so the log never wedges).
    pub fn reserve(&self, n: usize) -> Result<TailReservation<'_, V>, TailSealed> {
        debug_assert!(n > 0, "reserve at least one row");
        let prev = self.reserved.fetch_add(n, Ordering::Relaxed);
        if prev & SEALED != 0 {
            // Sealed before we got here; our low-bit bump is dead weight
            // nobody reads (seal already captured the true count).
            return Err(TailSealed);
        }
        Ok(TailReservation {
            log: self,
            start: prev,
            len: n,
            published: false,
        })
    }

    /// Seal the log and wait for every outstanding reservation to
    /// publish. Returns the final row count. Idempotent only in the sense
    /// that the merge gate serializes callers; a second seal would read a
    /// polluted count, so the table never seals a log twice.
    pub fn seal(&self) -> usize {
        let count = self.reserved.fetch_or(SEALED, Ordering::SeqCst) & !SEALED;
        while self.published.load(Ordering::Acquire) < count {
            std::thread::yield_now();
        }
        count
    }

    /// True once [`Self::seal`] has been called: the log accepts no more
    /// reservations (recovery uses this to tell a live tail from one whose
    /// freeze completed before the crash).
    #[inline]
    pub fn is_sealed(&self) -> bool {
        self.reserved.load(Ordering::Relaxed) & SEALED != 0
    }

    /// Value of tail row `i` in column `col`. Caller must have observed
    /// `published() > i`.
    #[inline]
    pub fn read(&self, col: usize, i: usize) -> V {
        self.cols[col].read(i)
    }

    /// Column `col`'s first `rows` rows as contiguous slices in row order
    /// (the chunked spine means a published prefix spans up to
    /// `log2(rows / 1024)` slices). `rows` must not exceed a published
    /// watermark the caller observed.
    pub fn col_slices(&self, col: usize, rows: usize) -> Vec<&[V]> {
        self.cols[col].slices(rows)
    }

    /// Heap bytes of allocated chunks across all columns.
    pub fn memory_bytes(&self) -> usize {
        self.cols.iter().map(|c| c.allocated_bytes()).sum()
    }
}

/// A writer's exclusive claim on rows `start .. start + len` of a
/// [`TailLog`]; see [`TailLog::reserve`].
pub struct TailReservation<'a, V: Value> {
    log: &'a TailLog<V>,
    start: usize,
    len: usize,
    published: bool,
}

impl<V: Value> TailReservation<'_, V> {
    /// First reserved tail row (add [`TailLog::base`] for the global id).
    #[inline]
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of reserved rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the reservation covers no rows (never constructed).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Write `value` into column `col` of reserved row `offset`.
    #[inline]
    pub fn set(&self, col: usize, offset: usize, value: V) {
        assert!(offset < self.len, "offset {offset} outside reservation");
        self.log.cols[col].write(self.start + offset, value);
    }

    /// Publish the reserved rows, waiting for earlier reservations to
    /// publish first (the watermark moves strictly in reservation order,
    /// which is what makes a multi-row batch atomic to readers).
    pub fn publish(mut self) {
        self.publish_in_order();
    }

    fn publish_in_order(&mut self) {
        // Brief spin for the common in-order case, then yield: when cores
        // are oversubscribed the earlier reserver may be descheduled
        // mid-write, and a hard spin here would starve it of the very
        // timeslice it needs to publish (a convoy that livelocks a
        // single-core box under many writers).
        let mut spins = 0u32;
        while self
            .log
            .published
            .compare_exchange_weak(
                self.start,
                self.start + self.len,
                Ordering::Release,
                Ordering::Relaxed,
            )
            .is_err()
        {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        self.published = true;
    }
}

impl<V: Value> Drop for TailReservation<'_, V> {
    fn drop(&mut self) {
        if !self.published {
            // Unwinding mid-write: fill the claim with defaults and
            // publish so later reservations (and the seal) don't wedge on
            // a hole in the watermark order.
            for col in self.log.cols.iter() {
                for i in 0..self.len {
                    col.write(self.start + i, V::default());
                }
            }
            self.publish_in_order();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn chunk_geometry() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(1023), (0, 1023));
        assert_eq!(locate(1024), (1, 0));
        assert_eq!(locate(3071), (1, 2047));
        assert_eq!(locate(3072), (2, 0));
        assert_eq!(locate(chunk_start(5)), (5, 0));
    }

    #[test]
    fn reserve_write_publish_read_roundtrip() {
        let log: TailLog<u64> = TailLog::new(2, 100);
        let r = log.reserve(3).unwrap();
        assert_eq!(r.start(), 0);
        for i in 0..3 {
            r.set(0, i, i as u64);
            r.set(1, i, i as u64 * 10);
        }
        assert_eq!(log.published(), 0, "unpublished rows are invisible");
        r.publish();
        assert_eq!(log.published(), 3);
        assert_eq!(log.read(1, 2), 20);
        assert_eq!(log.base(), 100);
        let slices = log.col_slices(0, 3);
        assert_eq!(slices, vec![&[0u64, 1, 2][..]]);
    }

    #[test]
    fn slices_span_chunks() {
        let log: TailLog<u64> = TailLog::new(1, 0);
        let n = 5_000;
        let r = log.reserve(n).unwrap();
        for i in 0..n {
            r.set(0, i, i as u64);
        }
        r.publish();
        let slices = log.col_slices(0, n);
        assert_eq!(slices.len(), 3, "1024 + 2048 + remainder");
        assert_eq!(slices.iter().map(|s| s.len()).sum::<usize>(), n);
        let flat: Vec<u64> = slices.concat();
        assert_eq!(flat, (0..n as u64).collect::<Vec<_>>());
        assert!(log.memory_bytes() >= n * 8);
    }

    #[test]
    fn seal_rejects_late_reservations() {
        let log: TailLog<u64> = TailLog::new(1, 0);
        let r = log.reserve(2).unwrap();
        r.set(0, 0, 7);
        r.set(0, 1, 8);
        r.publish();
        assert_eq!(log.seal(), 2);
        assert_eq!(log.reserve(1).err(), Some(TailSealed));
        assert_eq!(log.published(), 2, "sealed log still serves reads");
        assert_eq!(log.read(0, 1), 8);
    }

    #[test]
    fn publish_is_in_reservation_order() {
        // Reserve from many threads, publish out of order of completion;
        // the watermark must only ever expose fully-written prefixes.
        let log: TailLog<u64> = TailLog::new(1, 0);
        let max_seen = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..200 {
                        let r = log.reserve(3).unwrap();
                        for i in 0..3 {
                            r.set(0, i, (r.start() + i) as u64);
                        }
                        r.publish();
                    }
                });
            }
            s.spawn(|| loop {
                let n = log.published();
                max_seen.fetch_max(n, Ordering::Relaxed);
                // Every visible row holds its own index: no torn batch.
                for i in (0..n).step_by(97) {
                    assert_eq!(log.read(0, i), i as u64);
                }
                if n == 8 * 200 * 3 {
                    break;
                }
            });
        });
        assert_eq!(log.seal(), 4_800);
    }

    #[test]
    fn dropped_reservation_fills_defaults_and_unwedges() {
        let log: TailLog<u64> = TailLog::new(1, 0);
        {
            let r = log.reserve(2).unwrap();
            r.set(0, 0, 5);
            // dropped without publish (panic path)
        }
        let r = log.reserve(1).unwrap();
        r.set(0, 0, 9);
        r.publish();
        assert_eq!(log.seal(), 3);
        assert_eq!(log.read(0, 1), 0, "unpublished slot was defaulted");
        assert_eq!(log.read(0, 2), 9);
    }
}
