//! The append-only delta write-ahead log and the merged column files.
//!
//! The paper's main-memory design assumes a recoverable delta as the price
//! of its insert-only differential buffer; this module supplies it with
//! three kinds of files under a table's durability directory:
//!
//! * **Segments** (`seg-<base>.wal`): an append-only sequence of
//!   length-prefixed, CRC-checked records — `insert_rows` batches (global
//!   start row id + row-major values), validity flips (deletes / old
//!   versions of updates), and a terminal seal marker. A segment's base is
//!   the global tuple id of its first insert; a merge *freeze* seals the
//!   live segment and rotates to a fresh one whose base is the new tail's
//!   base, so segment boundaries coincide exactly with freeze boundaries.
//! * **Column files** (`col-<c>-<rows>.bin`): one merged main partition
//!   (sorted dictionary values + packed code words, verbatim), written
//!   atomically (tmp + fsync + rename) by the merge step that committed
//!   it. `rows` is the merge's frozen row count. Rows below it are
//!   insert-only and merge output depends only on the row value sequence,
//!   so a name always holds the same bytes and needs no log to vouch for
//!   it.
//! * **The checkpoint manifest** (`checkpoint.bin`): the row count the
//!   table's durable mains cover and the validity bitmap of those rows,
//!   renamed into place when a merge finishes. Column `c` of the
//!   checkpoint is `col-<c>-<rows>.bin`; sealed segments below `rows`
//!   are then deleted — bounded replay.
//!
//! Ordering contract: under the `fsync` policy a batch's insert record is
//! written **and synced** before the batch's tail watermark publishes —
//! visible implies durable. Under `buffered`, the record is written (to the
//! OS, not synced) before the publish, so a process kill preserves it but a
//! power loss may not. In both modes records enter the live segment before
//! their rows publish, which (together with the in-order watermark) is what
//! makes replaying the maximal contiguous row prefix of each segment
//! correct: any row a reader could have seen is at or below that prefix
//! under `fsync`, and rows lost past a gap were never durable.

use crate::error::{Error, Result};
use hyrise_bitpack::BitPackedVec;
use hyrise_storage::{Dictionary, MainPartition, ValidityBitmap, Value};
use parking_lot::Mutex;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Record types inside a segment.
const REC_INSERT: u8 = 1;
const REC_FLIP: u8 = 2;
const REC_SEAL: u8 = 3;

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
/// The whole-table image format that held every column inline.
const IMAGE_CHECKPOINT_MAGIC: &[u8; 8] = b"HYRCKP01";
const COLUMN_MAGIC: &[u8; 8] = b"HYRCOL01";
const SHARDED_MAGIC: &[u8; 8] = b"HYRSHRD1";

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

fn frame_into(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// One decoded frame: `(payload_range, next_offset)`.
enum Frame {
    /// A complete, CRC-valid record.
    Ok { start: usize, end: usize },
    /// The file ends cleanly at this offset.
    End,
    /// The final record is torn (header or payload cut short) — tolerated
    /// as a crash artifact; replay stops at `clean_len`.
    Torn,
}

/// Decode the frame at `off`; CRC mismatch on a complete record is a hard
/// corruption error.
fn read_frame(bytes: &[u8], off: usize, path: &Path) -> Result<Frame> {
    if off == bytes.len() {
        return Ok(Frame::End);
    }
    if bytes.len() - off < 8 {
        return Ok(Frame::Torn);
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
    let start = off + 8;
    let end = start + len as usize;
    if end > bytes.len() {
        return Ok(Frame::Torn);
    }
    if crc32(&bytes[start..end]) != crc {
        return Err(Error::corrupt(path, off as u64, "record crc mismatch"));
    }
    Ok(Frame::Ok { start, end })
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

/// `seg-<base>.wal` for global row id `base` (zero-padded hex keeps
/// lexicographic order equal to numeric order).
fn segment_name(base: usize) -> String {
    format!("{SEGMENT_PREFIX}{base:016x}{SEGMENT_SUFFIX}")
}

fn segment_path(dir: &Path, base: usize) -> PathBuf {
    dir.join(segment_name(base))
}

/// Parse a segment file name back to its base row id.
fn parse_segment_name(name: &str) -> Option<usize> {
    let hex = name
        .strip_prefix(SEGMENT_PREFIX)?
        .strip_suffix(SEGMENT_SUFFIX)?;
    usize::from_str_radix(hex, 16).ok()
}

/// Delete one segment file (recovery drops segments already absorbed by
/// the checkpoint).
pub(crate) fn remove_segment(dir: &Path, base: usize) -> Result<()> {
    fs::remove_file(segment_path(dir, base)).map_err(io("remove stale wal segment"))
}

/// Path of the segment with the given base (recovery error reporting).
pub(crate) fn segment_file(dir: &Path, base: usize) -> PathBuf {
    segment_path(dir, base)
}

/// All segment bases in `dir`, ascending.
pub(crate) fn list_segments(dir: &Path) -> Result<Vec<usize>> {
    let mut bases = Vec::new();
    for entry in fs::read_dir(dir).map_err(io("list wal directory"))? {
        let entry = entry.map_err(io("list wal directory"))?;
        if let Some(base) = entry.file_name().to_str().and_then(parse_segment_name) {
            bases.push(base);
        }
    }
    bases.sort_unstable();
    Ok(bases)
}

/// Best-effort fsync of the directory itself (makes renames/creates
/// durable on POSIX filesystems; ignored where unsupported).
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// One decoded insert batch.
#[derive(Debug)]
pub(crate) struct InsertRecord<V> {
    /// Global tuple id of the batch's first row.
    pub start: usize,
    /// Rows in the batch.
    pub n_rows: usize,
    /// Row-major values, `n_rows * n_cols` entries.
    pub values: Vec<V>,
}

/// A fully decoded segment.
#[derive(Debug)]
pub(crate) struct SegmentData<V> {
    /// Global tuple id of the segment's first row.
    pub base: usize,
    /// Insert batches in append order (not necessarily row order).
    pub inserts: Vec<InsertRecord<V>>,
    /// Validity flips in append order.
    pub flips: Vec<(usize, bool)>,
    /// True when the segment ends with a seal record (frozen by a merge).
    pub sealed: bool,
    /// Bytes of the clean record prefix (a torn final record is excluded;
    /// a live segment reopened for append is truncated to this).
    pub clean_len: u64,
}

/// Decode the segment at `path`. A torn final record is tolerated (clean
/// prefix replay); a CRC mismatch or malformed record before the end of
/// file is a hard [`Error::Corrupt`].
pub(crate) fn read_segment<V: Value>(
    path: &Path,
    base: usize,
    n_cols: usize,
) -> Result<SegmentData<V>> {
    let bytes = fs::read(path).map_err(io("read wal segment"))?;
    let mut data = SegmentData {
        base,
        inserts: Vec::new(),
        flips: Vec::new(),
        sealed: false,
        clean_len: 0,
    };
    let mut off = 0usize;
    loop {
        let (start, end) = match read_frame(&bytes, off, path)? {
            Frame::Ok { start, end } => (start, end),
            Frame::End => break,
            Frame::Torn => break, // tolerated: crash mid-append
        };
        if data.sealed {
            return Err(Error::corrupt(
                path,
                off as u64,
                "record after the seal marker",
            ));
        }
        let mut r = Reader::new(&bytes[start..end], path);
        match r.u8()? {
            REC_INSERT => {
                let rec_start = r.u64()? as usize;
                let n_rows = r.u32()? as usize;
                let rec_cols = r.u32()? as usize;
                if rec_cols != n_cols {
                    return Err(Error::corrupt(
                        path,
                        off as u64,
                        format!("insert record has {rec_cols} columns, table has {n_cols}"),
                    ));
                }
                let values = r.values::<V>(n_rows * n_cols)?;
                data.inserts.push(InsertRecord {
                    start: rec_start,
                    n_rows,
                    values,
                });
            }
            REC_FLIP => {
                let row = r.u64()? as usize;
                let valid = r.u8()? != 0;
                data.flips.push((row, valid));
            }
            REC_SEAL => data.sealed = true,
            t => {
                return Err(Error::corrupt(
                    path,
                    off as u64,
                    format!("unknown record type {t}"),
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
// The live WAL writer
// ---------------------------------------------------------------------------

struct SegmentWriter {
    /// Unbuffered on purpose: every append is one `write_all` of a fully
    /// framed record, so a userspace buffer would only add a copy.
    file: File,
    /// First global row id of the live segment (`seg-<base>.wal`).
    base: usize,
    buf: Vec<u8>,
}

/// A table's write-ahead log: one live segment at a time, rotated at every
/// merge freeze. Appends are serialized by an internal mutex; under the
/// `fsync` policy each append is synced before it returns.
pub(crate) struct Wal<V> {
    dir: PathBuf,
    fsync: bool,
    writer: Mutex<SegmentWriter>,
    _values: PhantomData<fn() -> V>,
}

impl<V: Value> Wal<V> {
    /// Start a fresh log in `dir` (created if missing): the live segment
    /// opens at `base` (0 for an empty table).
    pub(crate) fn create(dir: &Path, fsync: bool, base: usize) -> Result<Self> {
        fs::create_dir_all(dir).map_err(io("create wal directory"))?;
        let file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(segment_path(dir, base))
            .map_err(io("create wal segment"))?;
        sync_dir(dir);
        Ok(Self {
            dir: dir.to_path_buf(),
            fsync,
            writer: Mutex::new(SegmentWriter {
                file,
                base,
                buf: Vec::new(),
            }),
            _values: PhantomData,
        })
    }

    /// Reattach to an existing live segment after recovery, truncating the
    /// torn suffix (if any) to `clean_len` and appending after it. Creates
    /// the segment when the crash happened between seal and rotation.
    pub(crate) fn attach(dir: &Path, fsync: bool, base: usize, clean_len: u64) -> Result<Self> {
        let path = segment_path(dir, base);
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(&path)
            .map_err(io("open wal segment"))?;
        file.set_len(clean_len)
            .map_err(io("truncate torn wal suffix"))?;
        use std::io::Seek;
        let mut file = file;
        file.seek(std::io::SeekFrom::End(0))
            .map_err(io("seek wal segment"))?;
        sync_dir(dir);
        Ok(Self {
            dir: dir.to_path_buf(),
            fsync,
            writer: Mutex::new(SegmentWriter {
                file,
                base,
                buf: Vec::new(),
            }),
            _values: PhantomData,
        })
    }

    /// The durability directory.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Append one record, its payload built by `build` directly into the
    /// writer's reusable frame buffer (after an 8-byte header hole that is
    /// patched with length + CRC once the payload is in place — no
    /// intermediate payload allocation or copy on the hot path).
    fn append_frame(&self, build: impl FnOnce(&mut Vec<u8>)) -> Result<()> {
        let mut w = self.writer.lock();
        let mut framed = std::mem::take(&mut w.buf);
        framed.clear();
        framed.resize(FRAME_HEADER, 0);
        build(&mut framed);
        let len = (framed.len() - FRAME_HEADER) as u32;
        let crc = crc32(&framed[FRAME_HEADER..]);
        framed[0..4].copy_from_slice(&len.to_le_bytes());
        framed[4..8].copy_from_slice(&crc.to_le_bytes());
        let res = (|| {
            w.file.write_all(&framed).map_err(io("append wal record"))?;
            if self.fsync {
                w.file.sync_data().map_err(io("sync wal record"))?;
            }
            Ok(())
        })();
        w.buf = framed;
        res
    }

    /// Append one insert batch: global start row id plus row-major values.
    pub(crate) fn append_insert<R: AsRef<[V]>>(&self, start: usize, rows: &[R]) -> Result<()> {
        let n_cols = rows.first().map_or(0, |r| r.as_ref().len());
        self.append_frame(|payload| {
            payload.reserve(1 + 8 + 4 + 4 + rows.len() * n_cols * V::BYTES);
            payload.push(REC_INSERT);
            payload.extend_from_slice(&(start as u64).to_le_bytes());
            payload.extend_from_slice(&(rows.len() as u32).to_le_bytes());
            payload.extend_from_slice(&(n_cols as u32).to_le_bytes());
            for row in rows {
                for &v in row.as_ref() {
                    v.write_bytes(payload);
                }
            }
        })
    }

    /// Append one validity flip (`valid = false` for deletes / old update
    /// versions).
    pub(crate) fn append_flip(&self, row: usize, valid: bool) -> Result<()> {
        self.append_frame(|payload| {
            payload.push(REC_FLIP);
            payload.extend_from_slice(&(row as u64).to_le_bytes());
            payload.push(valid as u8);
        })
    }

    /// Seal the live segment (terminal record, synced regardless of
    /// policy — a segment boundary is a commit point) and rotate to a
    /// fresh segment whose first row is `new_base`. Called by the merge
    /// freeze after the tail's final row count is known.
    pub(crate) fn seal_and_rotate(&self, new_base: usize) -> Result<()> {
        let mut w = self.writer.lock();
        if w.base == new_base {
            // The tail sealed at zero rows (a merge of pending-only rows
            // after a cancellation, or of an empty delta): the live
            // segment holds no insert records, stays live, and rotating
            // it onto itself would clobber the file.
            return Ok(());
        }
        let mut framed = std::mem::take(&mut w.buf);
        framed.clear();
        frame_into(&mut framed, &[REC_SEAL]);
        w.file.write_all(&framed).map_err(io("seal wal segment"))?;
        w.file.sync_data().map_err(io("sync sealed wal segment"))?;
        let file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(segment_path(&self.dir, new_base))
            .map_err(io("create wal segment"))?;
        sync_dir(&self.dir);
        w.file = file;
        w.base = new_base;
        w.buf = framed;
        Ok(())
    }

    /// Delete every sealed segment whose rows `checkpoint.bin` now covers
    /// (base below `rows`). Best-effort: a segment that refuses to die is
    /// skipped at the next recovery anyway (stale bases are filtered).
    pub(crate) fn truncate_absorbed(&self, rows: usize) -> Result<()> {
        for base in list_segments(&self.dir)? {
            if base < rows {
                let _ = fs::remove_file(segment_path(&self.dir, base));
            }
        }
        sync_dir(&self.dir);
        Ok(())
    }
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
    if bytes.starts_with(IMAGE_CHECKPOINT_MAGIC) {
        return Err(Error::corrupt(
            &path,
            0,
            "whole-table checkpoint image: the format predates column files",
        ));
    }
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
/// Each shard's WAL segments, checkpoint manifest and column files live
/// in its `shard-<i>/` directory underneath; this file is what lets
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
mod tests {
    use super::*;

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

    #[test]
    fn wal_append_read_roundtrip() {
        let dir = temp_dir("roundtrip");
        let wal: Wal<u64> = Wal::create(&dir, true, 0).unwrap();
        wal.append_insert(0, &[vec![1u64, 2], vec![3, 4]]).unwrap();
        wal.append_flip(1, false).unwrap();
        wal.append_insert(2, &[vec![5u64, 6]]).unwrap();
        let seg = read_segment::<u64>(&segment_path(&dir, 0), 0, 2).unwrap();
        assert_eq!(seg.inserts.len(), 2);
        assert_eq!(seg.inserts[0].start, 0);
        assert_eq!(seg.inserts[0].n_rows, 2);
        assert_eq!(seg.inserts[0].values, vec![1, 2, 3, 4]);
        assert_eq!(seg.inserts[1].values, vec![5, 6]);
        assert_eq!(seg.flips, vec![(1, false)]);
        assert!(!seg.sealed);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seal_rotates_to_new_segment() {
        let dir = temp_dir("rotate");
        let wal: Wal<u32> = Wal::create(&dir, false, 0).unwrap();
        wal.append_insert(0, &[vec![7u32]]).unwrap();
        wal.seal_and_rotate(1).unwrap();
        wal.append_insert(1, &[vec![8u32]]).unwrap();
        assert_eq!(list_segments(&dir).unwrap(), vec![0, 1]);
        let s0 = read_segment::<u32>(&segment_path(&dir, 0), 0, 1).unwrap();
        assert!(s0.sealed);
        let s1 = read_segment::<u32>(&segment_path(&dir, 1), 1, 1).unwrap();
        assert!(!s1.sealed);
        assert_eq!(s1.inserts[0].values, vec![8]);
        wal.truncate_absorbed(1).unwrap();
        assert_eq!(list_segments(&dir).unwrap(), vec![1]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_record_is_tolerated() {
        let dir = temp_dir("torn");
        let wal: Wal<u64> = Wal::create(&dir, true, 0).unwrap();
        wal.append_insert(0, &[vec![1u64]]).unwrap();
        wal.append_insert(1, &[vec![2u64]]).unwrap();
        drop(wal);
        let path = segment_path(&dir, 0);
        let full = fs::read(&path).unwrap();
        // Cut into the middle of the second record.
        let clean_one = {
            let seg = read_segment::<u64>(&path, 0, 1).unwrap();
            assert_eq!(seg.inserts.len(), 2);
            // first record's framed length
            8 + 1 + 8 + 4 + 4 + 8
        };
        fs::write(&path, &full[..clean_one + 5]).unwrap();
        let seg = read_segment::<u64>(&path, 0, 1).unwrap();
        assert_eq!(seg.inserts.len(), 1, "torn tail dropped");
        assert_eq!(seg.clean_len, clean_one as u64);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc_mismatch_mid_log_is_a_hard_error() {
        let dir = temp_dir("crc");
        let wal: Wal<u64> = Wal::create(&dir, true, 0).unwrap();
        wal.append_insert(0, &[vec![1u64]]).unwrap();
        wal.append_insert(1, &[vec![2u64]]).unwrap();
        drop(wal);
        let path = segment_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        bytes[12] ^= 0xFF; // corrupt the first record's payload
        fs::write(&path, &bytes).unwrap();
        let err = read_segment::<u64>(&path, 0, 1).unwrap_err();
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
    fn image_checkpoint_is_a_typed_error() {
        let dir = temp_dir("ckpt-image");
        let mut bytes = IMAGE_CHECKPOINT_MAGIC.to_vec();
        bytes.extend_from_slice(&[0; 24]);
        fs::write(dir.join(CHECKPOINT_FILE), &bytes).unwrap();
        match read_checkpoint::<u64>(&dir) {
            Err(Error::Corrupt { detail, .. }) => {
                assert!(detail.contains("predates column files"), "{detail}")
            }
            other => panic!("expected Corrupt, got {:?}", other.map(|c| c.is_some())),
        }
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
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn attach_truncates_torn_suffix() {
        let dir = temp_dir("attach");
        let wal: Wal<u64> = Wal::create(&dir, true, 0).unwrap();
        wal.append_insert(0, &[vec![1u64]]).unwrap();
        drop(wal);
        let path = segment_path(&dir, 0);
        let clean = fs::metadata(&path).unwrap().len();
        // Simulate a torn append.
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&[9, 9, 9]);
        fs::write(&path, &bytes).unwrap();
        let wal: Wal<u64> = Wal::attach(&dir, true, 0, clean).unwrap();
        wal.append_insert(1, &[vec![2u64]]).unwrap();
        drop(wal);
        let seg = read_segment::<u64>(&path, 0, 1).unwrap();
        assert_eq!(seg.inserts.len(), 2);
        assert_eq!(seg.inserts[1].values, vec![2]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
