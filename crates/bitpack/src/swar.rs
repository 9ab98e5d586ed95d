//! Word-parallel SWAR scan kernels over the packed representation.
//!
//! The paper's Sec 6.1 memory-traffic model prices a scan at the bytes it
//! streams — which assumes the kernel is bandwidth-bound. A per-element
//! decode loop (shift, mask, compare, branch) is instruction-bound instead.
//! These kernels restore the model's assumption in portable Rust: each
//! iteration loads one aligned *window* of packed codes and compares every
//! full code lane inside it at once with branch-free mask algebra — the
//! SWAR analogue of the SIMD-Scan the paper cites \[27\], generalized to
//! every width 1..=64. Narrow codes (`b <= 16`) use `u64` windows; wide
//! codes use `u128` windows, which fit `floor(121 / b)` lanes where a `u64`
//! would fit only one or two — at 24 bits that is 5 codes per iteration
//! instead of 2 (121, not 128: the fast-path load is byte-addressed, one
//! unaligned 16-byte read at `bit / 8` plus a residual shift of at most 7,
//! so up to 7 high bits of the window are the next window's data).
//!
//! # Window extraction
//!
//! Codes are `b` bits wide, packed back-to-back. At logical index `idx` the
//! stream bit position is `idx * b`, i.e. word `w` at phase `p`. The window
//! (for a `W`-bit window built from `k = W/64` words)
//!
//! ```text
//! chunk = (words[w..w+k] >> p) | (words[w+k] << (W - p))
//! ```
//!
//! realigns the stream so lane `j` of the window is the code at `idx + j`,
//! sitting at fixed bit offset `j*b`. The last term is the *carry word*:
//! a code straddling the boundary is reassembled by it (`x << 1 << (W-1-p)`
//! realizes the shift branchlessly, `p == 0` included). One carry word
//! always suffices, and at the end of the buffer it is read as zero. Each
//! iteration consumes `m = floor(W / b)` whole lanes; the leftover bits
//! are re-read as the start of the next window, so no code is ever
//! processed split. Consecutive windows have no data dependency, so the
//! unrolled loop overlaps them in the pipeline — the scalar cursor's
//! serial buffer chain cannot.
//!
//! # Mask algebra
//!
//! With `H` = the high bit of every lane and `L` = the low `b-1` bits of
//! every lane, for `x = chunk XOR broadcast(code)`:
//!
//! ```text
//! t  = (x & L) + L          // high bit of t set iff lane's low bits != 0
//! eq = !(t | x) & H         // high bit set iff the whole lane is zero
//! ```
//!
//! The per-lane add cannot carry across lanes (two `(b-1)`-bit values sum
//! below `2^b`), which makes this *exact* — unlike the classic `haszero`
//! trick, whose borrow can leak a false positive into the lane above a
//! matching one. Per-lane unsigned `x >= y` composes the same way:
//!
//! ```text
//! d  = ((x & L) | H) - (y & L)                 // borrow-free per lane
//! ge = ((x & !y) | (!(x ^ y) & d)) & H
//! ```
//!
//! (`x`'s high bit beats `y`'s, or the high bits tie and the low-bit
//! subtraction keeps its lent high bit.) A range test is two `ge`s. A
//! sparse match lane-mask (equality probes) is turned into row ids by
//! `trailing_zeros` iteration with a reciprocal-multiply lane divide; a
//! dense one (range scans, few lanes per window) by *predicated* writes —
//! the lane-mask is compressed to one bit per lane by a single carry-free
//! multiply, then every lane's row id is stored unconditionally and the
//! output cursor advances by the lane's match bit, so there is no branch
//! to mispredict.
//! Counts are `count_ones` of lane-masks — an equality count only of the
//! windows that matched at all, a range count of `b` windows' masks
//! interleaved into one word, because the baseline target expands
//! `count_ones` into a bit trick that costs more than the compare. Sums
//! fold lanes pairwise with doubling strides (each fold step widens the
//! lane faster than the sum can grow, so no step overflows).
//!
//! # Dense row masks
//!
//! The executor evaluates predicates into *dense row masks* (bit `r` of
//! word `r / 64` = row `r` matches), `AND`s them across columns and with
//! the validity words, and aggregates straight off the result — no row id
//! is materialized. [`BitPackedVec::fill_range_mask`] and
//! [`BitPackedVec::and_range_mask`] are one producer whose unit of work is
//! the 64-row block: 64 rows are exactly `b` packed words for every
//! width, so a block is word-aligned in the code stream *and* owns exactly
//! one mask word. Per block it compares `ceil(64 / m)` windows, compacts
//! each lane-mask to one bit per lane — the carry-free multiply above
//! where `m <= 8 <= b`, a strided parallel-suffix compress (`Compress`)
//! for the narrow widths — and shifts the bits into the block's word. The
//! cost of a block does not depend on how many of its rows match; the
//! `AND` pass still skips a block without reading it when its accumulated
//! word is already zero.
//!
//! [`BitPackedVec::for_each_masked_at`] is the consumer: it hands a
//! closure the code of every set row (zero words skipped, all-ones words
//! decoded straight off the window loads), which is all a `sum`, `min` or
//! `max` over dictionary codes needs.

use crate::vec::BitPackedVec;
use crate::width::max_value_for_bits;

/// Widths above this use `u128` windows (a `u64` window fits at most 3
/// full lanes there, wasting most of each load on leftover bits).
const WIDE_BITS: u8 = 16;

/// Low `n` bits set (`n <= 64`).
#[inline]
fn low_bits(n: usize) -> u64 {
    debug_assert!(n <= 64);
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Number of `u64` words a dense row mask over `rows` rows needs.
#[inline]
pub fn mask_words(rows: usize) -> usize {
    rows.div_ceil(64)
}

/// Append `base + r` to `out` for every set bit `r` of the dense row mask.
/// `rows` bounds the mask (bits at or beyond `rows` must be zero, which the
/// mask producers guarantee).
pub fn rows_from_mask(masks: &[u64], rows: usize, base: usize, out: &mut Vec<usize>) {
    debug_assert!(masks.len() >= mask_words(rows));
    for (j, &w) in masks[..mask_words(rows)].iter().enumerate() {
        let mut w = w;
        while w != 0 {
            let tz = w.trailing_zeros() as usize;
            out.push(base + j * 64 + tz);
            w &= w - 1;
        }
    }
}

/// Total set bits of a dense row mask (the fused-count fast path).
#[inline]
pub fn mask_count(masks: &[u64]) -> usize {
    masks.iter().map(|w| w.count_ones() as usize).sum()
}

/// The window word type the kernels are generic over: `u64` for narrow
/// codes, `u128` for wide ones.
trait SwarWord:
    Copy
    + PartialEq
    + std::ops::BitAnd<Output = Self>
    + std::ops::BitOr<Output = Self>
    + std::ops::BitXor<Output = Self>
    + std::ops::Not<Output = Self>
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Shl<u32, Output = Self>
    + std::ops::Shr<u32, Output = Self>
{
    const BITS: usize;
    /// Guaranteed-valid low bits of a fast-path window load; lane geometry
    /// is computed against this, not `BITS` (the `u128` fast load realigns
    /// by at most 7 bits, leaving `128 - 7 = 121` usable).
    const USABLE: usize;
    const ZERO: Self;
    const ONE: Self;
    const MAX: Self;
    fn from_u64(x: u64) -> Self;
    fn as_u64(self) -> u64;
    fn trailing_zeros(self) -> u32;
    fn count_ones(self) -> u32;
    fn wrapping_mul(self, rhs: Self) -> Self;
    /// Load the window at stream bit offset `bit` without bounds checks.
    ///
    /// # Safety
    /// `bit < Self::fast_bits(words.len())`.
    unsafe fn load_unchecked(words: &[u64], bit: usize) -> Self;
    /// [`Self::load_unchecked`] for a byte-aligned `bit` (`bit % 8 == 0`,
    /// which holds for every window when `bits % 8 == 0`): no residual
    /// shift, and all `BITS` of the window are valid.
    ///
    /// # Safety
    /// As [`Self::load_unchecked`], plus `bit % 8 == 0`.
    #[inline]
    unsafe fn load_unchecked_aligned(words: &[u64], bit: usize) -> Self {
        Self::load_unchecked(words, bit)
    }
    /// Exclusive upper bound on bit offsets [`Self::load_unchecked`] may be
    /// given for a buffer of `words_len` words.
    fn fast_bits(words_len: usize) -> usize;
}

impl SwarWord for u64 {
    const BITS: usize = 64;
    const USABLE: usize = 64;
    const ZERO: Self = 0;
    const ONE: Self = 1;
    const MAX: Self = u64::MAX;
    #[inline]
    fn from_u64(x: u64) -> Self {
        x
    }
    #[inline]
    fn as_u64(self) -> u64 {
        self
    }
    #[inline]
    fn trailing_zeros(self) -> u32 {
        u64::trailing_zeros(self)
    }
    #[inline]
    fn count_ones(self) -> u32 {
        u64::count_ones(self)
    }
    #[inline]
    fn wrapping_mul(self, rhs: Self) -> Self {
        u64::wrapping_mul(self, rhs)
    }
    #[inline]
    unsafe fn load_unchecked(words: &[u64], bit: usize) -> Self {
        let w = bit >> 6;
        let p = (bit & 63) as u32;
        let x = *words.get_unchecked(w);
        let carry = *words.get_unchecked(w + 1);
        (x >> p) | ((carry << 1) << (63 - p))
    }
    #[cfg(target_endian = "little")]
    #[inline]
    unsafe fn load_unchecked_aligned(words: &[u64], bit: usize) -> Self {
        // One unaligned 8-byte read; `fast_bits` keeps its last byte at
        // most at `8 * len - 2`.
        u64::from_le(
            words
                .as_ptr()
                .cast::<u8>()
                .add(bit >> 3)
                .cast::<u64>()
                .read_unaligned(),
        )
    }
    #[inline]
    fn fast_bits(words_len: usize) -> usize {
        // `bit < 64 * (len - 1)` keeps the carry word in bounds.
        64 * words_len.saturating_sub(1)
    }
}

impl SwarWord for u128 {
    const BITS: usize = 128;
    const USABLE: usize = 121;
    const ZERO: Self = 0;
    const ONE: Self = 1;
    const MAX: Self = u128::MAX;
    #[inline]
    fn from_u64(x: u64) -> Self {
        x as u128
    }
    #[inline]
    fn as_u64(self) -> u64 {
        self as u64
    }
    #[inline]
    fn trailing_zeros(self) -> u32 {
        u128::trailing_zeros(self)
    }
    #[inline]
    fn count_ones(self) -> u32 {
        u128::count_ones(self)
    }
    #[inline]
    fn wrapping_mul(self, rhs: Self) -> Self {
        u128::wrapping_mul(self, rhs)
    }
    #[cfg(target_endian = "little")]
    #[inline]
    unsafe fn load_unchecked(words: &[u64], bit: usize) -> Self {
        // Byte-addressed: one unaligned 16-byte load at `bit / 8`, then a
        // residual shift of at most 7 bits — instead of gathering three
        // words and funnel-shifting across 128 bits. Little-endian packed
        // words are a little-endian bit stream byte-for-byte, so the load
        // needs no swizzle.
        let p = bit >> 3;
        let sh = (bit & 7) as u32;
        let raw = words
            .as_ptr()
            .cast::<u8>()
            .add(p)
            .cast::<u128>()
            .read_unaligned();
        u128::from_le(raw) >> sh
    }
    #[cfg(target_endian = "little")]
    #[inline]
    unsafe fn load_unchecked_aligned(words: &[u64], bit: usize) -> Self {
        u128::from_le(
            words
                .as_ptr()
                .cast::<u8>()
                .add(bit >> 3)
                .cast::<u128>()
                .read_unaligned(),
        )
    }
    #[cfg(not(target_endian = "little"))]
    #[inline]
    unsafe fn load_unchecked(words: &[u64], bit: usize) -> Self {
        let w = bit >> 6;
        let p = (bit & 63) as u32;
        let x = (*words.get_unchecked(w) as u128) | ((*words.get_unchecked(w + 1) as u128) << 64);
        let carry = *words.get_unchecked(w + 2) as u128;
        (x >> p) | ((carry << 1) << (127 - p))
    }
    #[cfg(target_endian = "little")]
    #[inline]
    fn fast_bits(words_len: usize) -> usize {
        // `bit <= 64 * len - 121` puts the load's last byte `bit/8 + 15` at
        // most at byte `8 * len - 1`, the end of the buffer.
        (64 * words_len).saturating_sub(120)
    }
    #[cfg(not(target_endian = "little"))]
    #[inline]
    fn fast_bits(words_len: usize) -> usize {
        64 * words_len.saturating_sub(2)
    }
}

/// Low `n` bits of `W` set (`n <= W::BITS`).
#[inline]
fn low_w<W: SwarWord>(n: usize) -> W {
    debug_assert!(n <= W::BITS);
    if n >= W::BITS {
        W::MAX
    } else {
        (W::ONE << n as u32) - W::ONE
    }
}

/// Per-width SWAR constants: lane geometry plus the tiled `H`/`L` masks of
/// the module-level algebra.
#[derive(Clone, Copy)]
struct Lanes<W> {
    /// Lane width `b` in bits.
    bits: usize,
    /// Full lanes per window, `m = floor(W::USABLE / b)`.
    m: usize,
    /// High bit (`b-1`) of every lane.
    high: W,
    /// Low `b-1` bits of every lane.
    low: W,
    /// Fixed-point reciprocal of `b`: `floor(2^21 / b) + 1`, so that
    /// [`Self::lane_of`] divides by multiply-shift instead of a hardware
    /// division per match.
    recip: u64,
    /// Compaction multiplier `sum_{j<m} 2^(j*(b-1))` for [`Self::compact`]
    /// (built only when `m <= 8`, the predicated-write regime).
    cmagic: W,
    /// Compaction shift `m * (b-1)`.
    cshift: u32,
}

impl<W: SwarWord> Lanes<W> {
    #[inline]
    fn new(bits: u8) -> Self {
        let b = bits as usize;
        // Byte-multiple widths keep every window byte-aligned, so the
        // aligned fast load leaves all `BITS` valid, not just `USABLE`
        // (the checked tail load always yields `BITS` valid bits).
        let m = if b.is_multiple_of(8) {
            W::BITS / b
        } else {
            W::USABLE / b
        };
        Self::with_lanes(bits, m)
    }

    /// Geometry for the dense-mask producer, which walks 64-row blocks
    /// (`b` whole words each). Below 8 bits a `u64` window takes the
    /// largest power-of-two lane count instead of the largest count: every
    /// window of a block then starts on a byte (`8 | m*b`), so the aligned
    /// load applies, and `m | 64`, so no window straddles a block.
    #[inline]
    fn for_blocks(bits: u8) -> Self {
        let b = bits as usize;
        if W::BITS == 64 && b < 8 {
            Self::with_lanes(bits, 1 << (64 / b).ilog2())
        } else {
            Self::new(bits)
        }
    }

    #[inline]
    fn with_lanes(bits: u8, m: usize) -> Self {
        let b = bits as usize;
        let lane_high = W::ONE << (b - 1) as u32;
        let lane_low = W::from_u64(max_value_for_bits(bits) >> 1);
        let mut high = W::ZERO;
        let mut low = W::ZERO;
        for k in 0..m {
            high = high | (lane_high << (k * b) as u32);
            low = low | (lane_low << (k * b) as u32);
        }
        let mut cmagic = W::ZERO;
        if m <= 8 {
            // All shifts stay below `W::BITS`: `j*(b-1) < m*b <= USABLE`.
            for j in 0..m {
                cmagic = cmagic | (W::ONE << (j * (b - 1)) as u32);
            }
        }
        Self {
            bits: b,
            m,
            high,
            low,
            recip: (1u64 << 21) / b as u64 + 1,
            cmagic,
            cshift: (m * (b - 1)) as u32,
        }
    }

    /// `tz / bits` for a window bit offset `tz < W::BITS`, by reciprocal
    /// multiply. Exact: the reciprocal overshoots `2^21 / b` by at most
    /// `1`, so the product overshoots `tz / b` by at most `127 / 2^21` —
    /// far below the `1 / b >= 1 / 64` gap to the next integer.
    #[inline]
    fn lane_of(&self, tz: usize) -> usize {
        debug_assert!(tz < W::BITS);
        ((tz as u64 * self.recip) >> 21) as usize
    }

    /// `code` replicated into every lane.
    #[inline]
    fn broadcast(&self, code: u64) -> W {
        let mut c = W::ZERO;
        for k in 0..self.m {
            c = c | (W::from_u64(code) << (k * self.bits) as u32);
        }
        c
    }

    /// Mask covering the first `take` lanes.
    #[inline]
    fn valid(&self, take: usize) -> W {
        low_w::<W>(take * self.bits)
    }

    /// Lane-mask (high bit per matching lane) of `win == bc`, `bc` a
    /// [`Self::broadcast`] value. Exact for every width.
    #[inline]
    fn eq_lanes(&self, win: W, bc: W) -> W {
        let x = win ^ bc;
        let t = (x & self.low) + self.low;
        !(t | x) & self.high
    }

    /// Lane-mask of unsigned `x >= y` per lane. Bits of `x` above the lane
    /// region are ignored (they never reach a high bit and the low-bit
    /// subtraction is borrow-free per lane). The production range kernels
    /// use [`RangePred`], the subexpression-shared composition of two of
    /// these; this standalone form is the tests' reference.
    #[cfg(test)]
    #[inline]
    fn ge_lanes(&self, x: W, y: W) -> W {
        let d = ((x & self.low) | self.high) - (y & self.low);
        ((x & !y) | (!(x ^ y) & d)) & self.high
    }

    /// Compress a lane-mask (high bit per matching lane) into a dense
    /// `u64` whose bit `j` is lane `j`'s verdict, by one multiply.
    ///
    /// Lane `j`'s high bit sits at `j*b + (b-1)`; multiplying by
    /// `cmagic = sum_k 2^(k*(b-1))` produces terms at `j*b + (k+1)*(b-1)`,
    /// and the `k = m-1-j` term lands every lane at `cshift + j`. The
    /// positions are pairwise distinct — `(j1-j2)*b = (k2-k1)*(b-1)` with
    /// `gcd(b, b-1) = 1` forces `b | (k2-k1)`, impossible for
    /// `|k2-k1| < m <= b` except zero — so the product never carries and
    /// the wrap-around truncation only drops unused terms. Requires
    /// `m <= b`, which `m <= 8` guarantees on both window types (`u64`
    /// needs `b >= 8` to get `m <= 8`; `u128` windows only serve
    /// `b > 16 > m`).
    #[inline]
    fn compact(&self, lm: W) -> u64 {
        debug_assert!(self.m <= 8 && self.m <= self.bits);
        (lm.wrapping_mul(self.cmagic) >> self.cshift).as_u64()
    }
}

/// A pre-broadcast `lo <= x <= hi` window comparator with the
/// subexpressions the two `ge` halves share hoisted out of the loop.
/// [`RangePred::lanes`] returns a *raw* mask: callers AND it with
/// `high & valid(take)` once, instead of each half masking separately.
#[derive(Clone, Copy)]
struct RangePred<W> {
    low: W,
    high: W,
    lob: W,
    nlob: W,
    /// `lob & low` — the subtrahend of the `x >= lo` half.
    lob_low: W,
    hib: W,
    /// `(hib & low) | high` — the minuend of the `hi >= x` half.
    hl_h: W,
}

impl<W: SwarWord> RangePred<W> {
    #[inline]
    fn new(l: &Lanes<W>, lo: u64, hi: u64) -> Self {
        let lob = l.broadcast(lo);
        let hib = l.broadcast(hi);
        Self {
            low: l.low,
            high: l.high,
            lob,
            nlob: !lob,
            lob_low: lob & l.low,
            hib,
            hl_h: (hib & l.low) | l.high,
        }
    }

    /// Raw lane-mask of `lo <= x <= hi`: valid only at lane high-bit
    /// positions after the caller's `& high & valid` — other bits are
    /// garbage. `x & low` is computed once and shared by both halves.
    #[inline]
    fn lanes(&self, x: W) -> W {
        let xl = x & self.low;
        let d1 = (xl | self.high) - self.lob_low;
        let g1 = (x & self.nlob) | (!(x ^ self.lob) & d1);
        let d2 = self.hl_h - xl;
        let g2 = (self.hib & !x) | (!(self.hib ^ x) & d2);
        g1 & g2
    }
}

/// Extract the window at stream bit offset `bit`; out-of-range words read
/// as zero (the end of the buffer).
#[inline]
fn window_checked<W: SwarWord>(words: &[u64], bit: usize) -> W {
    let k = W::BITS / 64;
    let w = bit >> 6;
    let p = (bit & 63) as u32;
    let word = |i: usize| words.get(i).copied().unwrap_or(0);
    let mut x = W::from_u64(word(w));
    for i in 1..k {
        x = x | (W::from_u64(word(w + i)) << (64 * i) as u32);
    }
    (x >> p) | ((W::from_u64(word(w + k)) << 1) << (W::BITS as u32 - 1 - p))
}

/// Drive `f(idx, take, chunk)` over aligned windows of `take <= m` lanes
/// covering logical indices `start..end`. `chunk` holds the code at
/// `idx + j` in bits `[j*b, (j+1)*b)`; bits past `take * b` are garbage the
/// caller must mask.
#[inline]
fn for_each_window<W: SwarWord>(
    words: &[u64],
    bits: usize,
    m: usize,
    start: usize,
    end: usize,
    mut f: impl FnMut(usize, usize, W),
) {
    if start >= end {
        return;
    }
    let step = m * bits;
    let full_end = end - (end - start) % m;
    // Bit offsets strictly below this are safe for an unchecked load.
    let fast_bits = W::fast_bits(words.len());
    let mut idx = start;
    let mut bit = start * bits;
    // Fast region, unrolled 2x: full windows, unchecked loads. Windows of
    // a byte-multiple width always sit at byte offsets, where the aligned
    // load skips the residual shift.
    if bits.is_multiple_of(8) {
        while idx + 2 * m <= full_end && bit + step < fast_bits {
            // SAFETY: both offsets are below `fast_bits` and byte-aligned.
            unsafe {
                let c0 = W::load_unchecked_aligned(words, bit);
                let c1 = W::load_unchecked_aligned(words, bit + step);
                f(idx, m, c0);
                f(idx + m, m, c1);
            }
            idx += 2 * m;
            bit += 2 * step;
        }
    } else {
        while idx + 2 * m <= full_end && bit + step < fast_bits {
            // SAFETY: both windows' offsets (`bit` and `bit + step`) are
            // below `fast_bits`, the contract of `load_unchecked`.
            unsafe {
                let c0 = W::load_unchecked(words, bit);
                let c1 = W::load_unchecked(words, bit + step);
                f(idx, m, c0);
                f(idx + m, m, c1);
            }
            idx += 2 * m;
            bit += 2 * step;
        }
    }
    while idx < end {
        let take = m.min(end - idx);
        f(idx, take, window_checked::<W>(words, bit));
        idx += take;
        bit += take * bits;
    }
}

/// A compiled range predicate over codes: the window comparator the
/// kernels and the dense-mask producers share, after degenerate ranges
/// have been normalized away at the word level.
enum Cmp<W> {
    /// Nothing can match (inverted or out-of-width range).
    None,
    /// Everything matches (`[0, max]` over the full code domain).
    All,
    /// Collapsed range: one exact-equality compare per window.
    Eq { bc: W },
    /// Proper range: two per-lane `ge` compares per window.
    Range(RangePred<W>),
}

impl<W: SwarWord> Cmp<W> {
    /// Normalize `[lo, hi]` against width `bits`. This is the word-level
    /// short-circuit: degenerate ranges never construct a cursor or touch
    /// the packed words at all.
    fn compile(l: &Lanes<W>, lo: u64, hi: u64, bits: u8) -> Cmp<W> {
        let max = max_value_for_bits(bits);
        if lo > hi || lo > max {
            return Cmp::None;
        }
        let hi = hi.min(max);
        if lo == 0 && hi == max {
            return Cmp::All;
        }
        if lo == hi {
            return Cmp::Eq {
                bc: l.broadcast(lo),
            };
        }
        Cmp::Range(RangePred::new(l, lo, hi))
    }
}

fn select_eq_w<W: SwarWord>(
    v: &BitPackedVec,
    code: u64,
    start: usize,
    end: usize,
    base: usize,
    out: &mut Vec<usize>,
) {
    let l = Lanes::<W>::new(v.bits());
    let bc = l.broadcast(code);
    for_each_window::<W>(v.words(), l.bits, l.m, start, end, |idx, take, chunk| {
        let hv = if take == l.m {
            l.high
        } else {
            l.high & l.valid(take)
        };
        let mut lm = l.eq_lanes(chunk, bc) & hv;
        while lm != W::ZERO {
            let tz = lm.trailing_zeros() as usize;
            out.push(base + idx + l.lane_of(tz));
            lm = lm & (lm - W::ONE);
        }
    });
}

fn select_range_w<W: SwarWord>(
    v: &BitPackedVec,
    lo: u64,
    hi: u64,
    start: usize,
    end: usize,
    base: usize,
    out: &mut Vec<usize>,
) {
    let l = Lanes::<W>::new(v.bits());
    let p = RangePred::new(&l, lo, hi);
    if l.m <= 8 {
        // Few lanes per window and range scans tend to be dense: write
        // every lane's row id unconditionally and advance the output
        // cursor by the lane's match bit — no data-dependent branch at
        // all. The raw lane-mask is compacted to a dense `u64` (one
        // multiply) so the per-lane probe is a narrow shift instead of a
        // wide-word variable shift. The extra `m` covers the partial tail
        // window's scratch writes (its unmatched lanes are written but
        // never claimed by the cursor).
        out.reserve((end - start) + l.m);
        let mut n = out.len();
        let ptr = out.as_mut_ptr();
        for_each_window::<W>(v.words(), l.bits, l.m, start, end, |idx, take, chunk| {
            let hv = if take == l.m {
                l.high
            } else {
                l.high & l.valid(take)
            };
            let cm = l.compact(p.lanes(chunk) & hv);
            for k in 0..l.m {
                // SAFETY: the cursor advances at most once per packed
                // element and scratch writes reach at most `m - 1` slots
                // past it, both inside the reserved `len + (end-start) + m`.
                unsafe {
                    *ptr.add(n) = base + idx + k;
                }
                n += ((cm >> k) & 1) as usize;
            }
        });
        // SAFETY: slots `..n` are initialized, `n <= capacity`.
        unsafe {
            out.set_len(n);
        }
    } else {
        for_each_window::<W>(v.words(), l.bits, l.m, start, end, |idx, take, chunk| {
            let hv = if take == l.m {
                l.high
            } else {
                l.high & l.valid(take)
            };
            let mut lm = p.lanes(chunk) & hv;
            while lm != W::ZERO {
                let tz = lm.trailing_zeros() as usize;
                out.push(base + idx + l.lane_of(tz));
                lm = lm & (lm - W::ONE);
            }
        });
    }
}

/// The baseline target has no popcount instruction, and paying the
/// bit-trick expansion of `count_ones` once per window costs more than the
/// compare itself. An equality probe matches few lanes (a wide column has
/// many distinct codes), so it counts only the windows that matched at all.
fn count_eq_w<W: SwarWord>(v: &BitPackedVec, code: u64, start: usize, end: usize) -> usize {
    let l = Lanes::<W>::new(v.bits());
    let bc = l.broadcast(code);
    let mut n = 0usize;
    for_each_window::<W>(v.words(), l.bits, l.m, start, end, |_, take, chunk| {
        let hv = if take == l.m {
            l.high
        } else {
            l.high & l.valid(take)
        };
        let lm = l.eq_lanes(chunk, bc) & hv;
        if lm != W::ZERO {
            n += lm.count_ones() as usize;
        }
    });
    n
}

/// A range matches any share of the lanes, so its count must not branch on
/// the matches. A lane-mask uses one bit position in `b`: the masks of `b`
/// consecutive windows interleave into one word — the earlier ones moved
/// down a position per window — and a single `count_ones` covers them all
/// (see [`count_eq_w`] for why that matters).
fn count_range_w<W: SwarWord>(
    v: &BitPackedVec,
    lo: u64,
    hi: u64,
    start: usize,
    end: usize,
) -> usize {
    let l = Lanes::<W>::new(v.bits());
    let p = RangePred::new(&l, lo, hi);
    let mut n = 0usize;
    let mut comb = W::ZERO;
    let mut room = l.bits;
    for_each_window::<W>(v.words(), l.bits, l.m, start, end, |_, take, chunk| {
        let hv = if take == l.m {
            l.high
        } else {
            l.high & l.valid(take)
        };
        // A mask enters at its lanes' high bits and has moved down at
        // most `b - 1` positions — still inside its lane — when counted.
        comb = (comb >> 1) | (p.lanes(chunk) & hv);
        room -= 1;
        if room == 0 {
            n += comb.count_ones() as usize;
            comb = W::ZERO;
            room = l.bits;
        }
    });
    n + comb.count_ones() as usize
}

/// Lane-mask → one bit per lane for the narrow widths (`b < 8`), where a
/// window holds a power-of-two `m > b` lanes and the carry-free multiply
/// of [`Lanes::compact`] does not apply: a parallel-suffix compress
/// specialised to the regular lane stride. After the pre-shift lane `j`'s
/// verdict sits at bit `j*b`; step `t` slides the upper `g = 2^t` verdicts
/// of every `2g`-lane group down by `g*(b-1)` onto the lower `g`, and the
/// keep mask drops the stale copies — `log2 m` shift/or/and steps whatever
/// the number of matches.
#[derive(Clone, Copy)]
struct Compress<const STEPS: usize> {
    pre: u32,
    shift: [u32; STEPS],
    keep: [u64; STEPS],
}

impl<const STEPS: usize> Compress<STEPS> {
    /// For `m = 2^STEPS` lanes of `b` bits.
    fn new(b: usize) -> Self {
        debug_assert!((b << STEPS) <= 64);
        let mut c = Compress {
            pre: (b - 1) as u32,
            shift: [0; STEPS],
            keep: [0; STEPS],
        };
        for t in 0..STEPS {
            let g = 1usize << t;
            // Group `q` spans `2g` lanes from bit `q*2g*b`; its `2g`
            // verdicts end up contiguous at the group's base.
            for q in 0..(1usize << STEPS) / (2 * g) {
                c.keep[t] |= low_bits(2 * g) << (q * 2 * g * b);
            }
            c.shift[t] = (g * (b - 1)) as u32;
        }
        c
    }

    /// Bit `j` of the result is lane `j`'s verdict (`lm` holds high bits
    /// of matching lanes only).
    #[inline]
    fn dense(&self, lm: u64) -> u64 {
        let mut y = lm >> self.pre;
        for t in 0..STEPS {
            y = (y | (y >> self.shift[t])) & self.keep[t];
        }
        y
    }
}

/// One 64-row block's mask word: `ceil(64 / m)` windows from stream bit
/// `bit0`, each compacted to one bit per lane and shifted to its rows'
/// position. Lanes of the last window past row 63 shift out of the word,
/// so full blocks need no tail masking.
#[inline(always)]
fn block_word<W: SwarWord>(
    l: &Lanes<W>,
    bit0: usize,
    load: impl Fn(usize) -> W,
    lanes: &impl Fn(W) -> W,
    dense: &impl Fn(W) -> u64,
) -> u64 {
    let step = l.m * l.bits;
    let mut word = 0u64;
    let mut k = 0usize;
    while k * l.m < 64 {
        let lm = lanes(load(bit0 + k * step)) & l.high;
        word |= dense(lm) << (k * l.m);
        k += 1;
    }
    word
}

/// The dense-mask producer behind both `fill_range_mask_at` and
/// `and_range_mask_at`: per 64-row block, compare every window with
/// `lanes`, compact each lane-mask with `dense` and assemble the block's
/// mask word. The cost of a block does not depend on how many of its rows
/// match. `AND` refines `masks` in place and skips a block whose word is
/// already zero without reading its packed words; otherwise `masks` is
/// overwritten.
fn mask_blocks<W: SwarWord, const AND: bool>(
    words: &[u64],
    l: &Lanes<W>,
    start: usize,
    end: usize,
    masks: &mut [u64],
    lanes: impl Fn(W) -> W,
    dense: impl Fn(W) -> u64,
) {
    let step = l.m * l.bits;
    // Offset of a block's last window from the block's first bit.
    let last = (64usize.div_ceil(l.m) - 1) * step;
    let fast_bits = W::fast_bits(words.len());
    let aligned = step.is_multiple_of(8);
    for (j, slot) in masks.iter_mut().enumerate() {
        if AND && *slot == 0 {
            continue;
        }
        let row = start + 64 * j;
        let bit0 = row * l.bits;
        let mut word = if bit0 + last >= fast_bits {
            block_word(
                l,
                bit0,
                |bit| window_checked::<W>(words, bit),
                &lanes,
                &dense,
            )
        } else if aligned {
            // SAFETY: every window offset of this block is at most
            // `bit0 + last < fast_bits`, and blocks start on a word and
            // `8 | step`, so each offset is byte-aligned.
            block_word(
                l,
                bit0,
                |bit| unsafe { W::load_unchecked_aligned(words, bit) },
                &lanes,
                &dense,
            )
        } else {
            // SAFETY: every window offset of this block is at most
            // `bit0 + last < fast_bits`, the contract of `load_unchecked`.
            block_word(
                l,
                bit0,
                |bit| unsafe { W::load_unchecked(words, bit) },
                &lanes,
                &dense,
            )
        };
        if end - row < 64 {
            word &= low_bits(end - row);
        }
        if AND {
            *slot &= word;
        } else {
            *slot = word;
        }
    }
}

/// [`mask_blocks`] with the compaction the width calls for: the carry-free
/// multiply where `m <= 8 <= b`, the strided compress below 8 bits.
fn compacted_blocks<W: SwarWord, const AND: bool>(
    words: &[u64],
    l: &Lanes<W>,
    start: usize,
    end: usize,
    masks: &mut [u64],
    lanes: impl Fn(W) -> W,
) {
    if l.bits < 8 {
        // `for_blocks` gave these widths `m = 8, 16, 32 or 64` lanes.
        macro_rules! compress {
            ($steps:literal) => {{
                let c = Compress::<$steps>::new(l.bits);
                mask_blocks::<W, AND>(words, l, start, end, masks, lanes, |lm| {
                    c.dense(lm.as_u64())
                })
            }};
        }
        match l.m {
            8 => compress!(3),
            16 => compress!(4),
            32 => compress!(5),
            _ => compress!(6),
        }
    } else {
        // The product carries unused terms above the `m` verdict bits.
        let ones = low_bits(l.m);
        mask_blocks::<W, AND>(words, l, start, end, masks, lanes, |lm| {
            l.compact(lm) & ones
        });
    }
}

/// Compile `[lo, hi]` and run the dense producer over rows `start..end`
/// (`AND`: refine `masks`; otherwise overwrite it).
fn range_mask_w<W: SwarWord, const AND: bool>(
    v: &BitPackedVec,
    lo: u64,
    hi: u64,
    start: usize,
    end: usize,
    masks: &mut [u64],
) {
    let rows = end - start;
    let masks = &mut masks[..mask_words(rows)];
    let l = Lanes::<W>::for_blocks(v.bits());
    match Cmp::compile(&l, lo, hi, v.bits()) {
        Cmp::None => masks.fill(0),
        Cmp::All if AND => {}
        Cmp::All => {
            masks.fill(u64::MAX);
            if let Some(last) = masks.last_mut().filter(|_| !rows.is_multiple_of(64)) {
                *last = low_bits(rows % 64);
            }
        }
        Cmp::Eq { bc } => {
            compacted_blocks::<W, AND>(v.words(), &l, start, end, masks, |x| l.eq_lanes(x, bc))
        }
        Cmp::Range(p) => {
            compacted_blocks::<W, AND>(v.words(), &l, start, end, masks, |x| p.lanes(x))
        }
    }
}

impl BitPackedVec {
    /// SWAR equality select over logical indices `start..end`: `base + i`
    /// for every matching `i` (global index). Caller guarantees `code` fits
    /// the width and `start <= end <= len()`.
    pub(crate) fn swar_select_eq_into(
        &self,
        code: u64,
        start: usize,
        end: usize,
        base: usize,
        out: &mut Vec<usize>,
    ) {
        if self.bits() > WIDE_BITS {
            select_eq_w::<u128>(self, code, start, end, base, out)
        } else {
            select_eq_w::<u64>(self, code, start, end, base, out)
        }
    }

    /// SWAR range select over a normalized proper range (`lo < hi`, both in
    /// width, not the full domain), restricted to `start..end`.
    pub(crate) fn swar_select_in_range_into(
        &self,
        lo: u64,
        hi: u64,
        start: usize,
        end: usize,
        base: usize,
        out: &mut Vec<usize>,
    ) {
        if self.bits() > WIDE_BITS {
            select_range_w::<u128>(self, lo, hi, start, end, base, out)
        } else {
            select_range_w::<u64>(self, lo, hi, start, end, base, out)
        }
    }

    /// SWAR population count of `value == code` over `start..end` (caller
    /// checked the width).
    pub(crate) fn swar_count_eq(&self, code: u64, start: usize, end: usize) -> usize {
        if self.bits() > WIDE_BITS {
            count_eq_w::<u128>(self, code, start, end)
        } else {
            count_eq_w::<u64>(self, code, start, end)
        }
    }

    /// SWAR population count of `lo <= value <= hi` over a normalized
    /// proper range, restricted to `start..end`.
    pub(crate) fn swar_count_in_range(&self, lo: u64, hi: u64, start: usize, end: usize) -> usize {
        if self.bits() > WIDE_BITS {
            count_range_w::<u128>(self, lo, hi, start, end)
        } else {
            count_range_w::<u64>(self, lo, hi, start, end)
        }
    }

    /// SWAR horizontal sum: fold the lanes of each window pairwise with
    /// doubling strides, one `u128` accumulate per window instead of per
    /// element.
    ///
    /// Overflow safety: after `t` fold steps a partial sum aggregates at
    /// most `2^t` values below `2^b`, so it needs `b + t` bits while its
    /// lane has grown to `b * 2^t` — the lane always wins. Clipped top
    /// lanes (when `2s` overshoots bit 64) hold proportionally fewer
    /// addends and fit for the same reason. The full-window total is at
    /// most `floor(64/b) * (2^b - 1) <= 2^33`, so it fits a `u64` before
    /// the `u128` accumulate.
    pub(crate) fn swar_sum(&self) -> u128 {
        self.swar_sum_range(0, self.len())
    }

    /// [`Self::swar_sum`] restricted to logical indices `start..end` — the
    /// per-morsel aggregate kernel.
    pub(crate) fn swar_sum_range(&self, start: usize, end: usize) -> u128 {
        if start >= end {
            return 0;
        }
        let l = Lanes::<u64>::new(self.bits());
        // Fold plan: step t merges width-s lanes at spacing 2s, s = b << t.
        let mut fold_masks = [0u64; 6];
        let mut strides = [0usize; 6];
        let mut steps = 0usize;
        let mut s = l.bits;
        while s < l.m * l.bits {
            let mut mask = 0u64;
            let mut p = 0usize;
            while p < 64 {
                mask |= low_bits(s.min(64 - p)) << p;
                p += 2 * s;
            }
            fold_masks[steps] = mask;
            strides[steps] = s;
            steps += 1;
            s <<= 1;
        }
        let mut acc: u128 = 0;
        for_each_window::<u64>(self.words(), l.bits, l.m, start, end, |_, take, chunk| {
            let mut x = chunk & l.valid(take);
            for t in 0..steps {
                x = (x & fold_masks[t]) + ((x >> strides[t]) & fold_masks[t]);
            }
            acc += x as u128;
        });
        acc
    }

    /// The shared precondition of the morsel-local mask entry points;
    /// returns the number of mask words rows `start..end` occupy.
    ///
    /// # Panics
    /// If `start` is not 64-aligned, the range is out of bounds, or a mask
    /// buffer of `masks_len` words is too short for it.
    fn check_mask_range(&self, start: usize, end: usize, masks_len: usize) -> usize {
        assert!(start.is_multiple_of(64), "morsel start must be 64-aligned");
        assert!(
            start <= end && end <= self.len(),
            "mask range out of bounds"
        );
        let n = mask_words(end - start);
        assert!(masks_len >= n, "mask buffer too short: {masks_len} < {n}");
        n
    }

    /// Overwrite `masks` with the dense row mask of `lo <= value <= hi`:
    /// bit `r % 64` of `masks[r / 64]` is set iff row `r` matches. Bits at
    /// or beyond `len()` are cleared. Degenerate ranges short-circuit
    /// without reading the packed words.
    ///
    /// # Panics
    /// If `masks` is shorter than [`mask_words`]`(self.len())`.
    pub fn fill_range_mask(&self, lo: u64, hi: u64, masks: &mut [u64]) {
        self.fill_range_mask_at(lo, hi, 0, self.len(), masks)
    }

    /// [`Self::fill_range_mask`] restricted to logical rows `start..end`:
    /// bit `(r - start) % 64` of `masks[(r - start) / 64]` is set iff row
    /// `r` matches. The mask is *morsel-local* — bit 0 is row `start` — so
    /// disjoint morsels fill disjoint buffers in parallel. `start` must be
    /// a multiple of 64 so mask words stay aligned with 64-row packed
    /// blocks (the seam-free invariant the fused AND pass relies on).
    ///
    /// # Panics
    /// If `start` is not 64-aligned, the range is out of bounds, or
    /// `masks` is shorter than [`mask_words`]`(end - start)`.
    pub fn fill_range_mask_at(
        &self,
        lo: u64,
        hi: u64,
        start: usize,
        end: usize,
        masks: &mut [u64],
    ) {
        self.check_mask_range(start, end, masks.len());
        if self.bits() > WIDE_BITS {
            range_mask_w::<u128, false>(self, lo, hi, start, end, masks)
        } else {
            range_mask_w::<u64, false>(self, lo, hi, start, end, masks)
        }
    }

    /// AND the dense row mask of `lo <= value <= hi` into `masks` — the
    /// fused-conjunction pass. A 64-row block whose accumulated mask word
    /// is already zero is skipped without reading its packed words (64 rows
    /// are exactly `bits()` words, word-aligned for every width).
    ///
    /// # Panics
    /// If `masks` is shorter than [`mask_words`]`(self.len())`.
    pub fn and_range_mask(&self, lo: u64, hi: u64, masks: &mut [u64]) {
        self.and_range_mask_at(lo, hi, 0, self.len(), masks)
    }

    /// [`Self::and_range_mask`] restricted to logical rows `start..end`,
    /// with the same morsel-local addressing as
    /// [`Self::fill_range_mask_at`] (bit 0 of `masks[0]` is row `start`).
    /// Zero mask words still skip their 64-row block without touching its
    /// packed words.
    ///
    /// # Panics
    /// If `start` is not 64-aligned, the range is out of bounds, or
    /// `masks` is shorter than [`mask_words`]`(end - start)`.
    pub fn and_range_mask_at(&self, lo: u64, hi: u64, start: usize, end: usize, masks: &mut [u64]) {
        self.check_mask_range(start, end, masks.len());
        if self.bits() > WIDE_BITS {
            range_mask_w::<u128, true>(self, lo, hi, start, end, masks)
        } else {
            range_mask_w::<u64, true>(self, lo, hi, start, end, masks)
        }
    }

    /// The masked code visitor: hand `f` the code of every row in
    /// `start..end` whose bit is set in the morsel-local dense mask (bit 0
    /// of `masks[0]` is row `start`, as the mask producers lay it out), in
    /// ascending row order. Aggregates consume a predicate mask through
    /// this without ever materializing a row id: zero words are skipped
    /// unread, a run of all-ones words decodes its blocks straight off the
    /// window loads, and only mixed words walk their set bits.
    ///
    /// # Panics
    /// If `start` is not 64-aligned, the range is out of bounds, or
    /// `masks` is shorter than [`mask_words`]`(end - start)`.
    pub fn for_each_masked_at(
        &self,
        start: usize,
        end: usize,
        masks: &[u64],
        mut f: impl FnMut(u64),
    ) {
        let n = self.check_mask_range(start, end, masks.len());
        let b = self.bits() as usize;
        let code_mask = max_value_for_bits(self.bits());
        // Whole 64-row blocks; a trailing partial word is never "all ones".
        let full = (end - start) / 64;
        let mut j = 0usize;
        while j < n {
            let w = masks[j];
            if w == 0 {
                j += 1;
            } else if w == u64::MAX && j < full {
                let mut k = j + 1;
                while k < full && masks[k] == u64::MAX {
                    k += 1;
                }
                let (s, e) = (start + 64 * j, start + 64 * k);
                for_each_window::<u64>(self.words(), b, 64 / b, s, e, |_, take, mut chunk| {
                    for _ in 0..take {
                        f(chunk & code_mask);
                        // `b == 64` wraps to a shift by 0, after the
                        // window's only lane has been handed out.
                        chunk = chunk.wrapping_shr(b as u32);
                    }
                });
                j = k;
            } else {
                let base = start + 64 * j;
                let mut w = if j < full {
                    w
                } else {
                    w & low_bits(end - base)
                };
                while w != 0 {
                    f(self.get(base + w.trailing_zeros() as usize));
                    w &= w - 1;
                }
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(bits: u8, n: usize) -> (BitPackedVec, Vec<u64>) {
        let mask = max_value_for_bits(bits);
        let data: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask)
            .collect();
        (BitPackedVec::from_slice(bits, &data), data)
    }

    /// The classic haszero trick is inexact (a zero lane can fake a match
    /// in the lane above); the masked-add formula must not be.
    #[test]
    fn eq_lanes_has_no_false_positive_above_a_matching_lane() {
        // Window 0x0100 with 8-bit lanes: lane 0 is 0x00, lane 1 is 0x01.
        let l = Lanes::<u64>::new(8);
        let lm = l.eq_lanes(0x0100, l.broadcast(0));
        assert_eq!(lm & (1 << 7), 1 << 7, "lane 0 really is zero");
        assert_eq!(lm & (1 << 15), 0, "lane 1 (0x01) must not match 0");
    }

    #[test]
    fn ge_lanes_is_exact_for_8_bit_lanes() {
        let l = Lanes::<u64>::new(8);
        for (x, y) in [
            (0u64, 0u64),
            (1, 2),
            (2, 1),
            (255, 255),
            (128, 127),
            (127, 128),
        ] {
            let got = l.ge_lanes(l.broadcast(x), l.broadcast(y));
            let want = if x >= y { l.high } else { 0 };
            assert_eq!(got, want, "x={x} y={y}");
        }
    }

    #[test]
    fn u128_lanes_match_u64_lanes_semantics() {
        // 24-bit codes: 2 lanes in a u64 window, 5 in a u128 window; both
        // must produce the same per-lane verdicts.
        let l64 = Lanes::<u64>::new(24);
        let l128 = Lanes::<u128>::new(24);
        assert_eq!(l64.m, 2);
        assert_eq!(l128.m, 5);
        for (x, y) in [
            (0u64, 1u64),
            (1, 0),
            (77, 77),
            (0xFF_FFFF, 0),
            (0, 0xFF_FFFF),
        ] {
            let w64 = l64.ge_lanes(l64.broadcast(x), l64.broadcast(y));
            let w128 = l128.ge_lanes(l128.broadcast(x), l128.broadcast(y));
            assert_eq!(w64 != 0, w128 != 0, "x={x} y={y}");
        }
    }

    #[test]
    fn swar_matches_scalar_for_every_width() {
        for bits in 1..=64u8 {
            let (v, data) = sample(bits, 517); // non-multiple of 64: partial tail
            let code = data[13];
            let mask = max_value_for_bits(bits);
            let (lo, hi) = (code / 2, code / 2 + mask / 3 + 1);
            let hi = hi.min(mask);

            let want_eq: Vec<usize> = data
                .iter()
                .enumerate()
                .filter(|(_, x)| **x == code)
                .map(|(i, _)| i)
                .collect();
            let mut got = Vec::new();
            v.swar_select_eq_into(code, 0, v.len(), 0, &mut got);
            assert_eq!(got, want_eq, "eq width {bits}");
            assert_eq!(
                v.swar_count_eq(code, 0, v.len()),
                want_eq.len(),
                "count width {bits}"
            );

            let want_rng: Vec<usize> = data
                .iter()
                .enumerate()
                .filter(|(_, x)| **x >= lo && **x <= hi)
                .map(|(i, _)| i)
                .collect();
            if lo < hi {
                let mut got = Vec::new();
                v.swar_select_in_range_into(lo, hi, 0, v.len(), 0, &mut got);
                assert_eq!(got, want_rng, "range width {bits}");
                assert_eq!(
                    v.swar_count_in_range(lo, hi, 0, v.len()),
                    want_rng.len(),
                    "range count width {bits}"
                );
            }

            assert_eq!(
                v.swar_sum(),
                data.iter().map(|x| *x as u128).sum::<u128>(),
                "sum width {bits}"
            );
        }
    }

    #[test]
    fn swar_sum_all_max_values_every_width() {
        // Worst case for the fold's overflow argument: every lane at 2^b-1.
        for bits in 1..=64u8 {
            let mask = max_value_for_bits(bits);
            let data = vec![mask; 131];
            let v = BitPackedVec::from_slice(bits, &data);
            assert_eq!(v.swar_sum(), 131 * mask as u128, "width {bits}");
        }
    }

    #[test]
    fn fill_and_rows_from_mask_round_trip() {
        for bits in [1u8, 4, 12, 24, 33, 64] {
            let (v, data) = sample(bits, 300);
            let mask = max_value_for_bits(bits);
            let (lo, hi) = (mask / 4, mask / 2);
            let mut masks = vec![0u64; mask_words(v.len())];
            v.fill_range_mask(lo, hi, &mut masks);
            let mut rows = Vec::new();
            rows_from_mask(&masks, v.len(), 10, &mut rows);
            let want: Vec<usize> = data
                .iter()
                .enumerate()
                .filter(|(_, x)| **x >= lo && **x <= hi)
                .map(|(i, _)| 10 + i)
                .collect();
            assert_eq!(rows, want, "width {bits}");
            assert_eq!(mask_count(&masks), want.len(), "width {bits}");
        }
    }

    #[test]
    fn and_range_mask_fuses_two_predicates() {
        let (v1, d1) = sample(12, 777);
        let (v2, d2) = sample(7, 777);
        let mut masks = vec![0u64; mask_words(777)];
        v1.fill_range_mask(100, 3000, &mut masks);
        v2.and_range_mask(20, 90, &mut masks);
        let mut rows = Vec::new();
        rows_from_mask(&masks, 777, 0, &mut rows);
        let want: Vec<usize> = (0..777)
            .filter(|&i| (100..=3000).contains(&d1[i]) && (20..=90).contains(&d2[i]))
            .collect();
        assert_eq!(rows, want);
    }

    #[test]
    fn degenerate_ranges_short_circuit() {
        let (v, _) = sample(6, 200);
        let mut masks = vec![u64::MAX; mask_words(200)];
        // Inverted: everything cleared.
        v.fill_range_mask(9, 3, &mut masks);
        assert!(masks.iter().all(|&w| w == 0));
        // Out of width: cleared on AND too.
        masks.fill(u64::MAX);
        v.and_range_mask(64, 100, &mut masks);
        assert!(masks.iter().all(|&w| w == 0));
        // Full domain: fill sets exactly the first `len` bits...
        v.fill_range_mask(0, u64::MAX, &mut masks);
        assert_eq!(mask_count(&masks), 200);
        // ...and AND leaves the accumulated mask untouched.
        let before = masks.clone();
        v.and_range_mask(0, 63, &mut masks);
        assert_eq!(masks, before);
    }

    #[test]
    fn and_skips_zero_blocks() {
        // Functional check that zero words stay zero (the skip is a pure
        // optimization, invisible except in speed).
        let (v, d) = sample(4, 256);
        let mut masks = vec![0u64, u64::MAX, 0, u64::MAX];
        v.and_range_mask(3, 12, &mut masks);
        assert_eq!(masks[0], 0);
        assert_eq!(masks[2], 0);
        let mut rows = Vec::new();
        rows_from_mask(&masks, 256, 0, &mut rows);
        let want: Vec<usize> = (0..256)
            .filter(|&i| (64..128).contains(&i) || i >= 192)
            .filter(|&i| (3..=12).contains(&d[i]))
            .collect();
        assert_eq!(rows, want);
    }
}
