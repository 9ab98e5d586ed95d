//! Column-store substrate (the paper's Section 3 "System Overview").
//!
//! Tables are stored physically as collections of attributes. Each attribute
//! (column) has a read-optimized and a write-optimized side:
//!
//! * a **main partition** ([`MainPartition`]) — dictionary-compressed: a
//!   sorted [`Dictionary`] of the column's unique values plus a bit-packed
//!   vector of dictionary codes, `ceil(log2 |U|)` bits per tuple;
//! * the **live delta** — the table-wide append-only [`TailLog`] (one raw
//!   value array per column, lock-free publish), sealed at merge begin and
//!   re-encoded per column as a bit-packed [`FrozenDelta`]; readers see
//!   both through [`TailRegion`]s;
//! * the **paper's literal delta** ([`DeltaPartition`], Section 4.1) — the
//!   raw values in insertion order plus a CSB+ tree mapping each distinct
//!   value to the tuple ids where it occurs. The `Naive`/`Optimized`/
//!   `Parallel` merge strategies read it in Stage 1a, and so does the
//!   figure-reproduction code; the live table never builds one.
//!
//! The update model is insert-only: updates insert new versions, deletes
//! invalidate rows in the table's one validity vector ([`AtomicValidity`]
//! live, [`ValidityBitmap`] in a snapshot); "the implicit offset of a tuple
//! is always valid for all attributes of a table". The table itself —
//! `OnlineTable`, generic over the [`Value`] types `u32`/`u64`/[`V16`] —
//! and the merge that folds a delta back into a main partition live in the
//! `hyrise-core` crate; this crate defines the storage they operate on, the
//! accessors the merge needs (sorted leaf traversal, postings scatter, code
//! iteration) and the byte accounting ([`MemoryReport`]).

mod delta_partition;
mod dictionary;
mod frozen;
mod main_partition;
mod memory;
mod tail;
mod validity;
mod value;

pub use delta_partition::{CompressedDelta, DeltaPartition};
pub use dictionary::Dictionary;
pub use frozen::{FrozenDelta, TailRegion};
pub use main_partition::{MainPartition, ZONE_ROWS};
pub use memory::MemoryReport;
pub use tail::{TailLog, TailReservation, TailSealed};
pub use validity::{AtomicValidity, ValidityBitmap};
pub use value::{Value, V16};
