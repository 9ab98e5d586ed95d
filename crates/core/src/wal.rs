//! The table log and the merged column files.
//!
//! The paper's main-memory design assumes a recoverable delta as the price
//! of its insert-only differential buffer; this module supplies it with
//! three kinds of files under a durable table's root directory:
//!
//! * **The table log** (`<root>/seg-<seq>.wal`): one chain of append-only
//!   segments shared by every shard, each a sequence of length-prefixed,
//!   CRC-checked frames. A client operation is exactly one *write* frame:
//!   its shard-tagged insert groups (shard, first tuple id, row-major
//!   values) and its validity flips (shard, tuple id) — an insert batch, an
//!   update (one group and one flip, possibly on two shards) or a delete
//!   batch. A shard's merge *freeze* appends a synced *seal* frame naming
//!   `(shard, frozen_end)` and rotates to the next segment, so every
//!   segment but the live one ends with a seal.
//! * **Column files** (`shard-<i>/col-<c>-<rows>.bin`): one merged main
//!   partition (sorted dictionary values + packed code words, verbatim),
//!   written atomically (tmp + fsync + rename) by the merge step that
//!   committed it. `rows` is the merge's frozen row count. Rows below it are
//!   insert-only and merge output depends only on the row value sequence,
//!   so a name always holds the same bytes and needs no log to vouch for
//!   it.
//! * **The checkpoint manifest** (`shard-<i>/checkpoint.bin`): the row
//!   count the shard's durable mains cover and the validity bitmap of those
//!   rows, renamed into place when a merge finishes. Column `c` of the
//!   checkpoint is `col-<c>-<rows>.bin`.
//!
//! Ordering contract: a write's tail slots are reserved, its frame is
//! appended (and, under the `fsync` policy, synced) and its rows publish,
//! all under the log's mutex — visible implies logged. A freeze seals its
//! shard's tail under the same mutex, so each shard's rows appear in the
//! log in tuple-id order and every row of a sealed tail precedes its seal.
//! Recovery therefore replays frames in order, each all or nothing.
//!
//! Truncation rule: a shard's finished durable merge covers every record
//! of that shard logged before its seal (the checkpoint's validity is
//! snapshotted after it). A sealed segment is deleted once every shard
//! with a record in it is covered through it, so a quiet shard pins only
//! the segments that hold its own records.

use crate::error::{Error, Result};
use hyrise_bitpack::BitPackedVec;
use hyrise_storage::{Dictionary, MainPartition, ValidityBitmap, Value};
use parking_lot::Mutex;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Frame types inside a segment.
const REC_WRITE: u8 = 1;
const REC_SEAL: u8 = 2;

/// Upper bound on a single record's payload; a length header above this is
/// corruption, not a real record (guards the replay allocator).
const MAX_RECORD: u32 = 1 << 30;

const SEGMENT_PREFIX: &str = "seg-";
const SEGMENT_SUFFIX: &str = ".wal";
const CHECKPOINT_FILE: &str = "checkpoint.bin";
const COLUMN_PREFIX: &str = "col-";
const COLUMN_SUFFIX: &str = ".bin";
const TMP_SUFFIX: &str = ".tmp";
const SHARDED_MANIFEST_FILE: &str = "SHARDS";

const CHECKPOINT_MAGIC: &[u8; 8] = b"HYRCKP02";
const COLUMN_MAGIC: &[u8; 8] = b"HYRCOL01";
/// `HYRSHRD1` roots, whose shards each kept their own log, fail its check.
const SHARDED_MAGIC: &[u8; 8] = b"HYRSHRD2";

// ---------------------------------------------------------------------------
// CRC32C (Castagnoli, hardware-accelerated where available)
// ---------------------------------------------------------------------------
//
// The WAL checksums every insert payload on the append path, so checksum
// speed is a first-order term of the buffered mode's per-row cost. The
// Castagnoli polynomial (0x1EDC6F41) is used instead of IEEE 802.3
// because x86-64 has carried a dedicated instruction for it (SSE4.2
// `crc32`) since Nehalem; the software fallback is slice-by-8.

fn crc_tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<Box<[[u32; 256]; 8]>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Box::new([[0u32; 256]; 8]);
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0x82F6_3B78 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// Software CRC32C, slice-by-8.
fn crc32_sw(data: &[u8]) -> u32 {
    let t = crc_tables();
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = c ^ u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]);
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32_hw(data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut c = !0u64;
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let word = u64::from_le_bytes(ch.try_into().expect("8 bytes"));
        c = _mm_crc32_u64(c, word);
    }
    let mut c = c as u32;
    for &b in chunks.remainder() {
        c = _mm_crc32_u8(c, b);
    }
    !c
}

/// CRC32C of `data`.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("sse4.2") {
        // Safety: the feature check guarantees the instruction exists.
        return unsafe { crc32_hw(data) };
    }
    crc32_sw(data)
}

// ---------------------------------------------------------------------------
// Framing: [u32 len][u32 crc(payload)][payload]
// ---------------------------------------------------------------------------

const FRAME_HEADER: usize = 8;

/// The payload range of the frame at `off`, or `None` where the file
/// ends — cleanly, or inside a torn final frame, which is tolerated as a
/// crash artifact (replay stops at `clean_len`). A CRC mismatch on a
/// complete frame is a hard corruption error.
fn read_frame(bytes: &[u8], off: usize, path: &Path) -> Result<Option<(usize, usize)>> {
    if bytes.len() - off < FRAME_HEADER {
        return Ok(None);
    }
    let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"));
    if len > MAX_RECORD {
        return Err(Error::corrupt(
            path,
            off as u64,
            format!("impossible record length {len}"),
        ));
    }
    let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().expect("4 bytes"));
    let (start, end) = (off + FRAME_HEADER, off + FRAME_HEADER + len as usize);
    if end > bytes.len() {
        return Ok(None);
    }
    if crc32(&bytes[start..end]) != crc {
        return Err(Error::corrupt(path, off as u64, "record crc mismatch"));
    }
    Ok(Some((start, end)))
}

// ---------------------------------------------------------------------------
// Little helpers for payload codecs
// ---------------------------------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    path: &'a Path,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8], path: &'a Path) -> Self {
        Self {
            bytes,
            pos: 0,
            path,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.bytes.len() - self.pos < n {
            return Err(Error::corrupt(
                self.path,
                self.pos as u64,
                "payload shorter than its fields",
            ));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// The byte length of `n` fields of `width` bytes, or `Corrupt` when
    /// it overflows (a crafted count must not reach the allocator).
    fn span(&self, n: usize, width: usize) -> Result<usize> {
        n.checked_mul(width).ok_or_else(|| {
            Error::corrupt(
                self.path,
                self.pos as u64,
                format!("field count {n} overflows"),
            )
        })
    }

    fn values<V: Value>(&mut self, n: usize) -> Result<Vec<V>> {
        let raw = self.take(self.span(n, V::BYTES)?)?;
        Ok(raw.chunks_exact(V::BYTES).map(V::read_bytes).collect())
    }

    /// `n` little-endian `u64` words, taken in full before any allocation.
    fn words(&mut self, n: usize) -> Result<Vec<u64>> {
        let raw = self.take(self.span(n, 8)?)?;
        Ok(raw
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")))
            .collect())
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn io(context: &'static str) -> impl FnOnce(std::io::Error) -> Error {
    move |e| Error::io(context, e)
}

// ---------------------------------------------------------------------------
// Segment files
// ---------------------------------------------------------------------------

/// `seg-<seq>.wal` (zero-padded hex keeps lexicographic order equal to
/// numeric order).
fn segment_name(seq: u64) -> String {
    format!("{SEGMENT_PREFIX}{seq:016x}{SEGMENT_SUFFIX}")
}

/// Path of segment `seq` under a table root.
pub(crate) fn segment_path(root: &Path, seq: u64) -> PathBuf {
    root.join(segment_name(seq))
}

/// Parse a segment file name back to its number.
fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name
        .strip_prefix(SEGMENT_PREFIX)?
        .strip_suffix(SEGMENT_SUFFIX)?;
    u64::from_str_radix(hex, 16).ok()
}

/// All segment numbers under `root`, ascending.
pub(crate) fn list_segments(root: &Path) -> Result<Vec<u64>> {
    let mut seqs = Vec::new();
    for entry in fs::read_dir(root).map_err(io("list wal directory"))? {
        let entry = entry.map_err(io("list wal directory"))?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_segment_name) {
            seqs.push(seq);
        }
    }
    seqs.sort_unstable();
    Ok(seqs)
}

/// Best-effort fsync of the directory itself (makes renames/creates
/// durable on POSIX filesystems; ignored where unsupported).
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Create segment `seq` under `root`, durably named.
fn create_segment(root: &Path, seq: u64) -> std::io::Result<File> {
    let file = OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(segment_path(root, seq))?;
    sync_dir(root);
    Ok(file)
}

/// One entry of a decoded frame.
#[derive(Debug)]
pub(crate) enum Record<V> {
    /// A write's rows for one shard: the first one's tuple id and the
    /// row-major values.
    Rows {
        shard: usize,
        start: usize,
        values: Vec<V>,
    },
    /// A write's invalidation of one row.
    Flip { shard: usize, row: usize },
    /// A freeze of `shard`: its rows below `end` are frozen for a merge.
    Seal { shard: usize, end: usize },
}

/// A fully decoded segment.
#[derive(Debug)]
pub(crate) struct SegmentData<V> {
    /// Every frame's entries, in log order.
    pub records: Vec<Record<V>>,
    /// True when the segment ends with a seal frame.
    pub sealed: bool,
    /// Bytes of the clean frame prefix (a torn final frame is excluded; a
    /// live segment reopened for append is truncated to this).
    pub clean_len: u64,
}

/// Decode the segment at `path` of a table with `n_cols` columns. A torn
/// final frame is tolerated (clean prefix replay); a CRC mismatch or a
/// malformed frame before the end of file is a hard [`Error::Corrupt`].
pub(crate) fn read_segment<V: Value>(path: &Path, n_cols: usize) -> Result<SegmentData<V>> {
    let bytes = fs::read(path).map_err(io("read wal segment"))?;
    let mut data = SegmentData {
        records: Vec::new(),
        sealed: false,
        clean_len: 0,
    };
    let mut off = 0usize;
    while let Some((start, end)) = read_frame(&bytes, off, path)? {
        if data.sealed {
            return Err(Error::corrupt(path, off as u64, "frame after the seal"));
        }
        let mut r = Reader::new(&bytes[start..end], path);
        match r.u8()? {
            REC_WRITE => {
                for _ in 0..r.u32()? {
                    let (shard, start, n) = (r.u32()? as usize, r.u64()? as usize, r.u32()?);
                    let values = r.values::<V>(r.span(n as usize, n_cols)?)?;
                    data.records.push(Record::Rows {
                        shard,
                        start,
                        values,
                    });
                }
                for _ in 0..r.u32()? {
                    let (shard, row) = (r.u32()? as usize, r.u64()? as usize);
                    data.records.push(Record::Flip { shard, row });
                }
            }
            REC_SEAL => {
                data.sealed = true;
                let (shard, end) = (r.u32()? as usize, r.u64()? as usize);
                data.records.push(Record::Seal { shard, end });
            }
            t => {
                return Err(Error::corrupt(
                    path,
                    off as u64,
                    format!("unknown frame type {t}"),
                ))
            }
        }
        if !r.done() {
            return Err(Error::corrupt(path, off as u64, "trailing payload bytes"));
        }
        off = end;
        data.clean_len = end as u64;
    }
    Ok(data)
}

// ---------------------------------------------------------------------------
// The table log
// ---------------------------------------------------------------------------

/// Patch `frame`'s header (payload length and CRC) and write it with one
/// `write_all`, synced when `sync`.
fn write_frame(file: &mut File, frame: &mut [u8], sync: bool) -> std::io::Result<()> {
    let len = (frame.len() - FRAME_HEADER) as u32;
    let crc = crc32(&frame[FRAME_HEADER..]);
    frame[0..4].copy_from_slice(&len.to_le_bytes());
    frame[4..8].copy_from_slice(&crc.to_le_bytes());
    #[cfg(test)]
    if tests::FAIL_NEXT_APPEND.with(|f| f.replace(false)) {
        file.write_all(&frame[..frame.len() / 2])?;
        return Err(std::io::Error::other("injected append failure"));
    }
    file.write_all(frame)?;
    if sync {
        file.sync_data()?;
    }
    Ok(())
}

/// Per shard: does it have a record in one segment?
type ShardSet = Vec<bool>;

/// Which shards hold which sealed segments, as recovery read them.
pub(crate) struct LogReplay {
    /// Sealed segments, ascending, with the shards that have a record in
    /// each.
    pub sealed: Vec<(u64, ShardSet)>,
    /// Per shard, the newest segment whose records of that shard its last
    /// finished durable merge covers.
    pub covered: Vec<Option<u64>>,
    /// Per shard, what its next finished durable merge covers (set by its
    /// freeze).
    pub pending: Vec<Option<u64>>,
}

impl LogReplay {
    /// The log of a new table of `n_shards` shards: no segment yet.
    pub(crate) fn new(n_shards: usize) -> Self {
        Self {
            sealed: Vec::new(),
            covered: vec![None; n_shards],
            pending: vec![None; n_shards],
        }
    }
}

/// A durable table's log: one chain of segments under the root, shared by
/// every shard. Its mutex serializes writes, seals and the tail
/// reservations they describe; under `fsync` each append is synced.
pub(crate) struct TableLog {
    state: Mutex<LogState>,
}

/// The state behind [`TableLog`]'s mutex; a write or a seal holds it.
pub(crate) struct LogState {
    root: PathBuf,
    fsync: bool,
    /// The live segment, unbuffered: each append is one `write_all`.
    file: File,
    /// The live segment's number.
    seq: u64,
    /// Shards with a record in the live segment.
    live: ShardSet,
    replay: LogReplay,
    /// Set by a failed append: the error kind every later lock returns.
    poisoned: Option<std::io::ErrorKind>,
    /// Reusable frame buffer (no per-append allocation on the hot path).
    buf: Vec<u8>,
}

impl TableLog {
    /// Open the log under `root`: continue the `live` segment (number,
    /// clean length, shards) cut to its clean length, or start the one
    /// after the last sealed segment (0 for a new table); then delete the
    /// sealed segments the checkpoints already cover.
    pub(crate) fn open(
        root: &Path,
        fsync: bool,
        live: Option<(u64, u64, ShardSet)>,
        replay: LogReplay,
    ) -> Result<Self> {
        let (file, seq, live) = match live {
            Some((seq, clean_len, live)) => {
                let mut file = OpenOptions::new()
                    .write(true)
                    .open(segment_path(root, seq))
                    .map_err(io("open wal segment"))?;
                file.set_len(clean_len)
                    .map_err(io("truncate torn wal suffix"))?;
                file.seek(SeekFrom::End(0))
                    .map_err(io("seek wal segment"))?;
                (file, seq, live)
            }
            None => {
                let seq = replay.sealed.last().map_or(0, |(s, _)| s + 1);
                let file = create_segment(root, seq).map_err(io("create wal segment"))?;
                (file, seq, vec![false; replay.covered.len()])
            }
        };
        let mut state = LogState {
            root: root.to_path_buf(),
            fsync,
            file,
            seq,
            live,
            replay,
            poisoned: None,
            buf: Vec::new(),
        };
        state.drop_covered();
        Ok(Self {
            state: Mutex::new(state),
        })
    }

    /// Lock the log for one write, seal or validity snapshot. A log
    /// poisoned by a failed append refuses with that append's error kind.
    pub(crate) fn lock(&self) -> Result<parking_lot::MutexGuard<'_, LogState>> {
        let state = self.state.lock();
        if let Some(kind) = state.poisoned {
            return Err(Error::io(
                "append to the table log",
                std::io::Error::new(
                    kind,
                    "an earlier append failed; reopen the table with recover_sharded",
                ),
            ));
        }
        Ok(state)
    }

    /// Shard `shard`'s merge wrote its checkpoint: the shard now covers
    /// what its freeze sealed, and every sealed segment whose shards are
    /// all covered through it is deleted.
    pub(crate) fn absorbed(&self, shard: usize) {
        let mut state = self.state.lock();
        let r = &mut state.replay;
        r.covered[shard] = r.covered[shard].max(r.pending[shard]);
        state.drop_covered();
    }
}

impl LogState {
    /// Append one client operation as one frame: its `(shard, start, rows)`
    /// insert groups and `(shard, row)` flips. A failed append poisons the
    /// log: the frame may be torn at the end of the live segment, nothing
    /// is appended after it, and recovery drops it.
    pub(crate) fn append<V: Value, R: AsRef<[V]>>(
        &mut self,
        groups: &[(usize, usize, &[R])],
        flips: &[(usize, usize)],
    ) -> Result<()> {
        let mut frame = std::mem::take(&mut self.buf);
        frame.clear();
        frame.resize(FRAME_HEADER, 0);
        frame.push(REC_WRITE);
        frame.extend_from_slice(&(groups.len() as u32).to_le_bytes());
        for &(shard, start, rows) in groups {
            self.live[shard] = true;
            frame.extend_from_slice(&(shard as u32).to_le_bytes());
            frame.extend_from_slice(&(start as u64).to_le_bytes());
            frame.extend_from_slice(&(rows.len() as u32).to_le_bytes());
            for row in rows {
                for &v in row.as_ref() {
                    v.write_bytes(&mut frame);
                }
            }
        }
        frame.extend_from_slice(&(flips.len() as u32).to_le_bytes());
        for &(shard, row) in flips {
            self.live[shard] = true;
            frame.extend_from_slice(&(shard as u32).to_le_bytes());
            frame.extend_from_slice(&(row as u64).to_le_bytes());
        }
        let written = write_frame(&mut self.file, &mut frame, self.fsync);
        self.buf = frame;
        written.map_err(|e| {
            self.poisoned = Some(e.kind());
            Error::io("append wal record", e)
        })
    }

    /// Seal `shard`'s frozen tail: `rows` rows ending at tuple id `end`.
    /// Appends a seal frame, synced regardless of policy (a segment
    /// boundary is a commit point), then rotates to a fresh segment. A
    /// freeze of zero rows writes nothing. When the seal or the next
    /// segment cannot be written, the seal is cut back off so the live
    /// segment keeps taking appends (a log that cannot be cut back is
    /// poisoned), and the error is returned.
    pub(crate) fn seal(&mut self, shard: usize, end: usize, rows: usize) -> Result<()> {
        // Whatever happens below, every earlier segment holds only records
        // logged before this freeze.
        self.replay.pending[shard] = self.seq.checked_sub(1);
        if rows == 0 {
            return Ok(());
        }
        let len = self
            .file
            .stream_position()
            .map_err(io("seal wal segment"))?;
        let mut frame = std::mem::take(&mut self.buf);
        frame.clear();
        frame.resize(FRAME_HEADER, 0);
        frame.push(REC_SEAL);
        frame.extend_from_slice(&(shard as u32).to_le_bytes());
        frame.extend_from_slice(&(end as u64).to_le_bytes());
        let written = write_frame(&mut self.file, &mut frame, true);
        self.buf = frame;
        match written.and_then(|()| create_segment(&self.root, self.seq + 1)) {
            Ok(next) => {
                self.live[shard] = true;
                let fresh = vec![false; self.live.len()];
                let shards = std::mem::replace(&mut self.live, fresh);
                self.replay.sealed.push((self.seq, shards));
                self.replay.pending[shard] = Some(self.seq);
                self.seq += 1;
                self.file = next;
                Ok(())
            }
            Err(e) => {
                let file = &mut self.file;
                let cut = file
                    .set_len(len)
                    .and_then(|()| file.sync_data())
                    .and_then(|()| file.seek(SeekFrom::Start(len)));
                if let Err(cut) = cut {
                    self.poisoned = Some(cut.kind());
                }
                Err(Error::io("seal and rotate wal segment", e))
            }
        }
    }

    /// Delete every sealed segment whose shards are all covered through it.
    /// Best-effort: a segment that refuses to die stays listed and is
    /// retried at the next merge (recovery skips what checkpoints absorbed).
    fn drop_covered(&mut self) {
        let (root, r) = (&self.root, &mut self.replay);
        let before = r.sealed.len();
        let covered = &r.covered;
        r.sealed.retain(|(seq, shards)| {
            let pinned = shards
                .iter()
                .zip(covered)
                .any(|(&has, &through)| has && through < Some(*seq));
            pinned || fs::remove_file(segment_path(root, *seq)).is_err()
        });
        if r.sealed.len() < before {
            sync_dir(root);
        }
    }
}

/// A shard's handle on its table's log.
pub(crate) struct ShardLog {
    pub log: std::sync::Arc<TableLog>,
    /// The shard's index in the log's frames.
    pub shard: usize,
    /// `shard-<i>/`: the shard's column files and checkpoint.
    pub dir: PathBuf,
}

// ---------------------------------------------------------------------------
// Column files and the checkpoint manifest
// ---------------------------------------------------------------------------

/// `col-<c>-<rows>.bin`: column `c` merged over the table's first `rows`
/// rows (zero-padded hex, like segment names).
fn column_name(col: usize, rows: usize) -> String {
    format!("{COLUMN_PREFIX}{col}-{rows:016x}{COLUMN_SUFFIX}")
}

/// Parse a column file name back to `(column, rows)`.
fn parse_column_name(name: &str) -> Option<(usize, usize)> {
    let (col, rows) = name
        .strip_prefix(COLUMN_PREFIX)?
        .strip_suffix(COLUMN_SUFFIX)?
        .split_once('-')?;
    Some((col.parse().ok()?, usize::from_str_radix(rows, 16).ok()?))
}

/// Write `bytes` to `name` in `dir` atomically: tmp file, fsync, rename,
/// directory fsync.
fn publish_file(dir: &Path, name: &str, bytes: &[u8], context: &'static str) -> Result<()> {
    let tmp = dir.join(format!("{name}{TMP_SUFFIX}"));
    let mut f = File::create(&tmp).map_err(io(context))?;
    f.write_all(bytes).map_err(io(context))?;
    f.sync_all().map_err(io(context))?;
    drop(f);
    fs::rename(&tmp, dir.join(name)).map_err(io(context))?;
    sync_dir(dir);
    Ok(())
}

/// Check the trailing CRC of a whole-file image and return the body after
/// its 8-byte magic.
fn checked_body<'a>(bytes: &'a [u8], path: &Path, magic: &[u8; 8]) -> Result<&'a [u8]> {
    if bytes.len() < magic.len() + 4 || &bytes[..8] != magic {
        return Err(Error::corrupt(path, 0, "bad magic"));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    if crc32(body) != u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes")) {
        return Err(Error::corrupt(path, 0, "crc mismatch"));
    }
    Ok(&body[8..])
}

fn check_value_width<V: Value>(r: &mut Reader<'_>) -> Result<()> {
    let value_bytes = r.u32()? as usize;
    if value_bytes != V::BYTES {
        return Err(Error::corrupt(
            r.path,
            0,
            format!(
                "value width {value_bytes} does not match table's {}",
                V::BYTES
            ),
        ));
    }
    Ok(())
}

/// Durably write column `col`'s merged main partition over the first
/// `rows` rows as `col-<col>-<rows>.bin`.
pub(crate) fn write_column<V: Value>(
    dir: &Path,
    col: usize,
    rows: usize,
    main: &MainPartition<V>,
) -> Result<()> {
    debug_assert_eq!(main.len(), rows);
    let dict = main.dictionary().values();
    let codes = main.packed_codes();
    let mut buf = Vec::with_capacity(
        8 + 4 + 8 + dict.len() * V::BYTES + 1 + 16 + codes.words().len() * 8 + 4,
    );
    buf.extend_from_slice(COLUMN_MAGIC);
    buf.extend_from_slice(&(V::BYTES as u32).to_le_bytes());
    buf.extend_from_slice(&(dict.len() as u64).to_le_bytes());
    for &v in dict {
        v.write_bytes(&mut buf);
    }
    buf.push(codes.bits());
    buf.extend_from_slice(&(codes.len() as u64).to_le_bytes());
    buf.extend_from_slice(&(codes.words().len() as u64).to_le_bytes());
    for &w in codes.words() {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    buf.extend_from_slice(&crc32(&buf).to_le_bytes());
    publish_file(dir, &column_name(col, rows), &buf, "write column file")
}

/// Is `col-<col>-<rows>.bin` on disk?
pub(crate) fn column_exists(dir: &Path, col: usize, rows: usize) -> bool {
    dir.join(column_name(col, rows)).is_file()
}

/// Load `col-<col>-<rows>.bin`. Every field is checked before it sizes an
/// allocation, so a damaged file is [`Error::Corrupt`], never a panic.
pub(crate) fn read_column<V: Value>(
    dir: &Path,
    col: usize,
    rows: usize,
) -> Result<MainPartition<V>> {
    let path = dir.join(column_name(col, rows));
    let bytes = fs::read(&path).map_err(io("read column file"))?;
    let mut r = Reader::new(checked_body(&bytes, &path, COLUMN_MAGIC)?, &path);
    check_value_width::<V>(&mut r)?;
    let dict_len = r.u64()? as usize;
    let dict = r.values::<V>(dict_len)?;
    let bits = r.u8()?;
    let n_codes = r.u64()? as usize;
    let n_words = r.u64()? as usize;
    let words = r.words(n_words)?;
    let geometry_ok = (1..=64).contains(&bits)
        && n_codes == rows
        && r.done()
        && dict.windows(2).all(|w| w[0] < w[1])
        && n_codes
            .checked_mul(bits as usize)
            .is_some_and(|b| n_words >= b.div_ceil(64));
    if !geometry_ok {
        return Err(Error::corrupt(
            &path,
            0,
            "main partition geometry out of range",
        ));
    }
    MainPartition::from_parts(
        Dictionary::from_sorted_unique(dict),
        BitPackedVec::from_words(bits, n_codes, words),
    )
    .ok_or_else(|| Error::corrupt(&path, 0, "main partition code outside its dictionary"))
}

/// Unlink every column file of a generation other than `rows` and every
/// interrupted `*.tmp` write. Best-effort: a file that survives is
/// ignored by recovery (only `col-<c>-<rows>` of the checkpoint or of the
/// sealed rows' end is ever read) and retried at the next merge.
pub(crate) fn remove_stale_files(dir: &Path, rows: usize) -> Result<()> {
    for entry in fs::read_dir(dir).map_err(io("list wal directory"))? {
        let entry = entry.map_err(io("list wal directory"))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = name.ends_with(TMP_SUFFIX)
            || parse_column_name(name).is_some_and(|(_, gen)| gen != rows);
        if stale {
            let _ = fs::remove_file(entry.path());
        }
    }
    sync_dir(dir);
    Ok(())
}

/// A decoded checkpoint: the manifest plus the column files it implies.
pub(crate) struct Checkpoint<V> {
    /// Rows covered (every column's main length).
    pub rows: usize,
    /// The dictionary-compressed mains, bit-identical to the committed
    /// generation's.
    pub mains: Vec<MainPartition<V>>,
    /// Validity of rows `0..rows` as of the checkpoint.
    pub validity: ValidityBitmap,
}

/// Atomically publish the checkpoint manifest for a merge whose `n_cols`
/// column files of generation `validity.len()` are already durable:
/// value width, column count, rows and the validity words, CRC'd and
/// renamed over `checkpoint.bin`.
pub(crate) fn write_checkpoint<V: Value>(
    dir: &Path,
    n_cols: usize,
    validity: &ValidityBitmap,
) -> Result<()> {
    let words = validity.words();
    let mut buf = Vec::with_capacity(8 + 4 + 4 + 8 + 8 + words.len() * 8 + 4);
    buf.extend_from_slice(CHECKPOINT_MAGIC);
    buf.extend_from_slice(&(V::BYTES as u32).to_le_bytes());
    buf.extend_from_slice(&(n_cols as u32).to_le_bytes());
    buf.extend_from_slice(&(validity.len() as u64).to_le_bytes());
    buf.extend_from_slice(&(words.len() as u64).to_le_bytes());
    for &w in words {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    buf.extend_from_slice(&crc32(&buf).to_le_bytes());
    publish_file(dir, CHECKPOINT_FILE, &buf, "write checkpoint")
}

/// Load `checkpoint.bin` and its column files if present. A missing
/// manifest means "no merge has ever finished" (replay starts from empty
/// mains); a damaged manifest or column file is a hard error — both are
/// written atomically, so damage is disk corruption, not a crash artifact.
pub(crate) fn read_checkpoint<V: Value>(dir: &Path) -> Result<Option<Checkpoint<V>>> {
    let path = dir.join(CHECKPOINT_FILE);
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(Error::io("read checkpoint", e)),
    };
    let mut r = Reader::new(checked_body(&bytes, &path, CHECKPOINT_MAGIC)?, &path);
    check_value_width::<V>(&mut r)?;
    let n_cols = r.u32()? as usize;
    let rows = r.u64()? as usize;
    let n_words = r.u64()? as usize;
    let words = r.words(n_words)?;
    if n_words < rows.div_ceil(64) || !r.done() {
        return Err(Error::corrupt(
            &path,
            0,
            "validity words do not cover the rows",
        ));
    }
    let mains = (0..n_cols)
        .map(|c| read_column::<V>(dir, c, rows))
        .collect::<Result<_>>()?;
    Ok(Some(Checkpoint {
        rows,
        mains,
        validity: ValidityBitmap::from_words(words, rows),
    }))
}

// ---------------------------------------------------------------------------
// The sharded-table manifest
// ---------------------------------------------------------------------------

/// Shard `i`'s table directory under a sharded root.
pub(crate) fn shard_dir(root: &Path, i: usize) -> PathBuf {
    root.join(format!("shard-{i}"))
}

/// The immutable facts of a durable [`crate::shard::ShardedTable`],
/// stored as `SHARDS` in the root directory: the schema every shard
/// shares (columns, value width, fsync policy) and the routing layout.
/// The table log lives beside it; each shard's checkpoint manifest and
/// column files live in its `shard-<i>/` directory. This file is what lets
/// recovery read them and rebuild the router identically.
#[derive(Debug, Clone)]
pub(crate) struct ShardedManifest<V> {
    pub n_shards: usize,
    pub n_cols: usize,
    pub fsync: bool,
    pub key_col: usize,
    pub by: crate::shard::ShardBy<V>,
}

/// Does `root` already hold a sharded manifest?
pub(crate) fn sharded_manifest_exists(root: &Path) -> bool {
    root.join(SHARDED_MANIFEST_FILE).is_file()
}

/// Write the `SHARDS` manifest (once, at table creation, after every
/// shard's directory exists).
pub(crate) fn write_sharded_manifest<V: Value>(root: &Path, m: &ShardedManifest<V>) -> Result<()> {
    let mut buf = Vec::new();
    buf.extend_from_slice(SHARDED_MAGIC);
    buf.extend_from_slice(&(m.n_shards as u32).to_le_bytes());
    buf.extend_from_slice(&(m.n_cols as u32).to_le_bytes());
    buf.extend_from_slice(&(V::BYTES as u32).to_le_bytes());
    buf.extend_from_slice(&(m.key_col as u32).to_le_bytes());
    buf.push(m.fsync as u8);
    match &m.by {
        crate::shard::ShardBy::Hash => buf.push(0),
        crate::shard::ShardBy::Range(bounds) => {
            buf.push(1);
            buf.extend_from_slice(&(bounds.len() as u32).to_le_bytes());
            for b in bounds {
                b.write_bytes(&mut buf);
            }
        }
    }
    buf.extend_from_slice(&crc32(&buf).to_le_bytes());
    let path = root.join(SHARDED_MANIFEST_FILE);
    let mut f = File::create(&path).map_err(io("create sharded manifest"))?;
    f.write_all(&buf).map_err(io("write sharded manifest"))?;
    f.sync_all().map_err(io("sync sharded manifest"))?;
    sync_dir(root);
    Ok(())
}

/// Read the `SHARDS` manifest. A table of another value width is
/// [`Error::Recovery`]: the caller asked for the wrong type, and nothing
/// under the root is read with it.
pub(crate) fn read_sharded_manifest<V: Value>(root: &Path) -> Result<ShardedManifest<V>> {
    let path = root.join(SHARDED_MANIFEST_FILE);
    let bytes = fs::read(&path).map_err(io("read sharded manifest"))?;
    let mut r = Reader::new(checked_body(&bytes, &path, SHARDED_MAGIC)?, &path);
    let n_shards = r.u32()? as usize;
    let n_cols = r.u32()? as usize;
    let value_bytes = r.u32()? as usize;
    if value_bytes != V::BYTES {
        return Err(Error::recovery(format!(
            "table at {} holds {value_bytes}-byte values, caller asked for {}-byte",
            root.display(),
            V::BYTES
        )));
    }
    let key_col = r.u32()? as usize;
    let fsync = r.u8()? != 0;
    let by = match r.u8()? {
        0 => crate::shard::ShardBy::Hash,
        1 => {
            let n = r.u32()? as usize;
            crate::shard::ShardBy::Range(r.values::<V>(n)?)
        }
        t => {
            return Err(Error::corrupt(
                &path,
                0,
                format!("unknown partitioning tag {t}"),
            ))
        }
    };
    if !r.done() {
        return Err(Error::corrupt(
            &path,
            0,
            "trailing bytes in sharded manifest",
        ));
    }
    // Recovery sizes every shard from these counts, so a layout no builder
    // writes is damage, not a table.
    let implied = match &by {
        crate::shard::ShardBy::Hash => n_shards,
        crate::shard::ShardBy::Range(bounds) => bounds.len() + 1,
    };
    if n_shards == 0 || n_cols == 0 || key_col >= n_cols || implied != n_shards {
        return Err(Error::corrupt(
            &path,
            0,
            "sharded manifest states an impossible layout",
        ));
    }
    Ok(ShardedManifest {
        n_shards,
        n_cols,
        fsync,
        key_col,
        by,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    thread_local! {
        /// Failure point: the next frame this thread writes is cut in half
        /// and the write reports an error, as a full disk would.
        pub(crate) static FAIL_NEXT_APPEND: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hyrise-wal-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_known_vectors() {
        // CRC32C of "123456789" is the classic check value (RFC 3720
        // appendix B lists the polynomial; iSCSI uses the same CRC).
        assert_eq!(crc32(b"123456789"), 0xE306_9283);
        assert_eq!(crc32(b""), 0);
        // The software fallback matches whatever path `crc32` picked.
        assert_eq!(crc32_sw(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn crc32_hw_and_sw_agree() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let data: Vec<u8> = (0..4096 + 7)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for cut in [0, 1, 7, 8, 9, 63, 64, 1000, data.len()] {
            assert_eq!(crc32(&data[..cut]), crc32_sw(&data[..cut]), "len {cut}");
        }
    }

    #[test]
    fn segment_names_round_trip_and_sort() {
        assert_eq!(parse_segment_name(&segment_name(0)), Some(0));
        assert_eq!(parse_segment_name(&segment_name(123_456)), Some(123_456));
        assert!(
            segment_name(9) < segment_name(16),
            "hex padding keeps order"
        );
        assert_eq!(parse_segment_name("checkpoint.bin"), None);
    }

    /// The log of a new table of `n_shards` shards in `dir`.
    fn open_new(dir: &Path, fsync: bool, n_shards: usize) -> TableLog {
        TableLog::open(dir, fsync, None, LogReplay::new(n_shards)).unwrap()
    }

    /// Append one write of `rows` to shard 0 starting at `start`.
    fn append_rows(log: &TableLog, start: usize, rows: &[Vec<u64>]) {
        log.lock()
            .unwrap()
            .append(&[(0, start, rows)], &[])
            .unwrap();
    }

    #[test]
    fn wal_append_read_roundtrip() {
        let dir = temp_dir("roundtrip");
        let log = open_new(&dir, true, 2);
        let (a, b) = (vec![vec![1u64, 2], vec![3, 4]], vec![vec![5u64, 6]]);
        // One frame: a group per shard and a flip on shard 0.
        log.lock()
            .unwrap()
            .append(&[(0, 0, a.as_slice()), (1, 7, b.as_slice())], &[(0, 1)])
            .unwrap();
        append_rows(&log, 2, &[vec![8, 9]]);
        let seg = read_segment::<u64>(&segment_path(&dir, 0), 2).unwrap();
        let got: Vec<_> = seg
            .records
            .iter()
            .map(|r| match r {
                Record::Rows {
                    shard,
                    start,
                    values,
                } => (*shard, *start, values.clone()),
                Record::Flip { shard, row } => (*shard, *row, Vec::new()),
                other => panic!("expected a write, got {other:?}"),
            })
            .collect();
        assert_eq!(
            got,
            [
                (0, 0, vec![1, 2, 3, 4]),
                (1, 7, vec![5, 6]),
                (0, 1, vec![]),
                (0, 2, vec![8, 9])
            ]
        );
        assert!(!seg.sealed);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seal_rotates_to_new_segment() {
        let dir = temp_dir("rotate");
        let log = open_new(&dir, false, 2);
        append_rows(&log, 0, &[vec![7]]);
        log.lock().unwrap().seal(0, 1, 1).unwrap();
        // Segment 1 holds a flip of shard 1 and shard 0's second seal.
        log.lock()
            .unwrap()
            .append::<u64, Vec<u64>>(&[], &[(1, 0)])
            .unwrap();
        append_rows(&log, 1, &[vec![8]]);
        log.lock().unwrap().seal(0, 2, 1).unwrap();
        assert_eq!(list_segments(&dir).unwrap(), vec![0, 1, 2]);
        let s0 = read_segment::<u64>(&segment_path(&dir, 0), 1).unwrap();
        assert!(s0.sealed);
        assert!(matches!(s0.records[1], Record::Seal { shard: 0, end: 1 }));
        assert!(
            !read_segment::<u64>(&segment_path(&dir, 2), 1)
                .unwrap()
                .sealed
        );
        // Shard 0's merge covers both segments, but shard 1's record pins
        // segment 1 until shard 1 merges too.
        log.absorbed(0);
        assert_eq!(list_segments(&dir).unwrap(), vec![1, 2]);
        // A freeze of zero rows writes nothing and covers what precedes
        // the live segment.
        log.lock().unwrap().seal(1, 0, 0).unwrap();
        log.absorbed(1);
        assert_eq!(list_segments(&dir).unwrap(), vec![2]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_record_is_tolerated() {
        let dir = temp_dir("torn");
        let log = open_new(&dir, true, 1);
        append_rows(&log, 0, &[vec![1]]);
        append_rows(&log, 1, &[vec![2]]);
        drop(log);
        let path = segment_path(&dir, 0);
        let full = fs::read(&path).unwrap();
        // One framed write of one 1-column row: header, tag, group count,
        // shard, start, row count, value, flip count.
        let clean_one = 8 + 1 + 4 + 4 + 8 + 4 + 8 + 4;
        assert_eq!(full.len(), 2 * clean_one);
        // Cut into the middle of the second frame.
        fs::write(&path, &full[..clean_one + 5]).unwrap();
        let seg = read_segment::<u64>(&path, 1).unwrap();
        assert_eq!(seg.records.len(), 1, "torn tail dropped");
        assert_eq!(seg.clean_len, clean_one as u64);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc_mismatch_mid_log_is_a_hard_error() {
        let dir = temp_dir("crc");
        let log = open_new(&dir, true, 1);
        append_rows(&log, 0, &[vec![1]]);
        append_rows(&log, 1, &[vec![2]]);
        drop(log);
        let path = segment_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        bytes[12] ^= 0xFF; // corrupt the first frame's payload
        fs::write(&path, &bytes).unwrap();
        let err = read_segment::<u64>(&path, 1).unwrap_err();
        assert!(matches!(err, Error::Corrupt { .. }), "got {err:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Recompute a whole-file image's trailing CRC after a test edit.
    fn recrc(bytes: &mut [u8]) {
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn checkpoint_round_trips() {
        let dir = temp_dir("ckpt");
        let m0 = MainPartition::from_values(&[5u64, 1, 5, 9, 1]);
        let m1 = MainPartition::from_values(&[10u64, 20, 30, 40, 50]);
        let mut validity = ValidityBitmap::all_valid(5);
        validity.invalidate(2);
        write_column(&dir, 0, 5, &m0).unwrap();
        write_column(&dir, 1, 5, &m1).unwrap();
        write_checkpoint::<u64>(&dir, 2, &validity).unwrap();
        let ck = read_checkpoint::<u64>(&dir).unwrap().unwrap();
        assert_eq!(ck.rows, 5);
        assert_eq!(ck.mains.len(), 2);
        assert_eq!(ck.mains[0].dictionary().values(), m0.dictionary().values());
        assert_eq!(
            ck.mains[0].packed_codes().words(),
            m0.packed_codes().words()
        );
        assert_eq!(ck.validity.valid_count(), 4);
        assert!(!ck.validity.is_valid(2));
        // Wrong value width is rejected.
        assert!(matches!(
            read_checkpoint::<u32>(&dir),
            Err(Error::Corrupt { .. })
        ));
        // A manifest whose column file is missing is an error.
        fs::remove_file(dir.join(column_name(1, 5))).unwrap();
        assert!(read_checkpoint::<u64>(&dir).is_err());
        // Missing checkpoint is None, not an error.
        let empty = temp_dir("ckpt-none");
        assert!(read_checkpoint::<u64>(&empty).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&empty).unwrap();
    }

    #[test]
    fn checkpoint_code_past_its_dictionary_is_corrupt() {
        // A 3-value dictionary packs its codes in 2 bits, so code 3 fits
        // the width but indexes past the dictionary. The geometry checks
        // pass and the CRC is valid; only the zone pass sees the code.
        let dir = temp_dir("ckpt-code");
        let main = MainPartition::from_values(&[10u64, 20, 30, 10]);
        write_column(&dir, 0, 4, &main).unwrap();
        write_checkpoint::<u64>(&dir, 1, &ValidityBitmap::all_valid(4)).unwrap();
        let path = dir.join(column_name(0, 4));
        let mut bytes = fs::read(&path).unwrap();
        // Magic and value width = 12 bytes, then the dictionary (length +
        // 3 values), the code width, the code and word counts: the first
        // code word starts at byte 61.
        assert_eq!(bytes[12 + 8 + 24], 2, "2-bit codes");
        bytes[61] |= 0b11; // row 0: code 0 -> 3
        recrc(&mut bytes);
        fs::write(&path, &bytes).unwrap();
        let err = read_checkpoint::<u64>(&dir).err().expect("rejected");
        assert!(matches!(err, Error::Corrupt { .. }), "got {err:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crafted_column_counts_are_corrupt_not_a_panic() {
        // Field offsets in a 3-value u64 column file: dictionary length at
        // 12, code count at 45, word count at 53.
        let dir = temp_dir("col-crafted");
        let main = MainPartition::from_values(&[10u64, 20, 30, 10]);
        write_column(&dir, 0, 4, &main).unwrap();
        let path = dir.join(column_name(0, 4));
        let clean = fs::read(&path).unwrap();
        // The last case names a generation as long as its code count, so
        // only `n_codes * bits` overflowing can reject it.
        for (at, value, rows) in [
            (12, 1u64 << 62, 4),
            (53, 1 << 61, 4),
            (53, u64::MAX, 4),
            (45, u64::MAX, usize::MAX),
        ] {
            let mut bytes = clean.clone();
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
            recrc(&mut bytes);
            fs::write(dir.join(column_name(0, rows)), &bytes).unwrap();
            let err = read_column::<u64>(&dir, 0, rows).expect_err("rejected");
            assert!(
                matches!(err, Error::Corrupt { .. }),
                "field at {at}: {err:?}"
            );
        }
        // A dictionary out of order is damage too, not a debug assertion.
        let mut bytes = clean.clone();
        bytes[20..28].copy_from_slice(&99u64.to_le_bytes());
        recrc(&mut bytes);
        fs::write(&path, &bytes).unwrap();
        let err = read_column::<u64>(&dir, 0, 4).expect_err("rejected");
        assert!(matches!(err, Error::Corrupt { .. }), "got {err:?}");
        // So is a validity word count no manifest could hold.
        write_checkpoint::<u64>(&dir, 0, &ValidityBitmap::all_valid(4)).unwrap();
        let ckpt = dir.join(CHECKPOINT_FILE);
        let mut bytes = fs::read(&ckpt).unwrap();
        bytes[24..32].copy_from_slice(&(1u64 << 61).to_le_bytes());
        recrc(&mut bytes);
        fs::write(&ckpt, &bytes).unwrap();
        let err = read_checkpoint::<u64>(&dir).err().expect("rejected");
        assert!(matches!(err, Error::Corrupt { .. }), "got {err:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn column_file_round_trips() {
        let dir = temp_dir("column");
        let main = MainPartition::from_values(&[3u32, 1, 4, 1, 5]);
        write_column(&dir, 2, 5, &main).unwrap();
        assert_eq!(parse_column_name(&column_name(2, 5)), Some((2, 5)));
        assert_eq!(parse_column_name("checkpoint.bin"), None);
        let back = read_column::<u32>(&dir, 2, 5).unwrap();
        assert_eq!(back.dictionary().values(), main.dictionary().values());
        assert_eq!(back.packed_codes().words(), main.packed_codes().words());
        assert!(read_column::<u32>(&dir, 3, 5).is_err(), "no such column");
        // The name's row count is checked against the file's.
        fs::rename(dir.join(column_name(2, 5)), dir.join(column_name(2, 6))).unwrap();
        assert!(matches!(
            read_column::<u32>(&dir, 2, 6),
            Err(Error::Corrupt { .. })
        ));
        // Cleanup keeps one generation and drops interrupted writes.
        write_column(&dir, 0, 5, &main).unwrap();
        fs::write(dir.join("col-1-x.bin.tmp"), b"torn").unwrap();
        remove_stale_files(&dir, 5).unwrap();
        let mut left: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        assert_eq!(left, vec![column_name(0, 5)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_round_trips() {
        let dir = temp_dir("manifest");
        let layouts = [
            crate::shard::ShardBy::Hash,
            crate::shard::ShardBy::Range(vec![10u64, 200, 3_000]),
        ];
        for (i, by) in layouts.into_iter().enumerate() {
            let m = ShardedManifest {
                n_shards: 4,
                n_cols: 3 + i,
                fsync: i == 0,
                key_col: i,
                by,
            };
            assert!(!sharded_manifest_exists(&dir));
            write_sharded_manifest(&dir, &m).unwrap();
            assert!(sharded_manifest_exists(&dir));
            let back = read_sharded_manifest::<u64>(&dir).unwrap();
            assert_eq!(
                (back.n_shards, back.n_cols, back.fsync, back.key_col),
                (m.n_shards, m.n_cols, m.fsync, m.key_col)
            );
            match (&back.by, &m.by) {
                (crate::shard::ShardBy::Hash, crate::shard::ShardBy::Hash) => {}
                (crate::shard::ShardBy::Range(a), crate::shard::ShardBy::Range(b)) => {
                    assert_eq!(a, b)
                }
                (a, b) => panic!("layout {a:?} read back as {b:?}"),
            }
            // The value width is checked before any bound is decoded.
            assert!(matches!(
                read_sharded_manifest::<u32>(&dir),
                Err(Error::Recovery { .. })
            ));
            fs::remove_file(dir.join(SHARDED_MANIFEST_FILE)).unwrap();
        }
        // No builder writes a table without columns.
        let empty = ShardedManifest::<u64> {
            n_shards: 1,
            n_cols: 0,
            fsync: false,
            key_col: 0,
            by: crate::shard::ShardBy::Hash,
        };
        write_sharded_manifest(&dir, &empty).unwrap();
        assert!(matches!(
            read_sharded_manifest::<u64>(&dir),
            Err(Error::Corrupt { .. })
        ));
        // A root whose shards kept their own logs is refused.
        let mut old = fs::read(dir.join(SHARDED_MANIFEST_FILE)).unwrap();
        old[..8].copy_from_slice(b"HYRSHRD1");
        recrc(&mut old);
        fs::write(dir.join(SHARDED_MANIFEST_FILE), &old).unwrap();
        assert!(matches!(
            read_sharded_manifest::<u64>(&dir),
            Err(Error::Corrupt { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn attach_truncates_torn_suffix() {
        let dir = temp_dir("attach");
        let log = open_new(&dir, true, 1);
        append_rows(&log, 0, &[vec![1]]);
        drop(log);
        let path = segment_path(&dir, 0);
        let clean = fs::metadata(&path).unwrap().len();
        // Simulate a torn append.
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&[9, 9, 9]);
        fs::write(&path, &bytes).unwrap();
        let live = Some((0, clean, vec![true]));
        let log = TableLog::open(&dir, true, live, LogReplay::new(1)).unwrap();
        append_rows(&log, 1, &[vec![2]]);
        drop(log);
        let seg = read_segment::<u64>(&path, 1).unwrap();
        assert_eq!(seg.records.len(), 2);
        assert!(matches!(
            &seg.records[1],
            Record::Rows { values, .. } if values == &[2]
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
