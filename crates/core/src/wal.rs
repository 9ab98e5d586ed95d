//! The append-only delta write-ahead log, checkpoints, and the merge
//! recovery log.
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
//! * **The data checkpoint** (`checkpoint.bin`): the dictionary-compressed
//!   mains (sorted dictionary values + packed code words, verbatim) and the
//!   validity bitmap of the checkpointed rows, written atomically
//!   (tmp + rename) when a merge commits its last column. Sealed segments
//!   whose rows the checkpoint covers are then deleted — bounded replay.
//! * **The merge recovery log** (`merge.ckpt` + `staged/col-<c>.bin`):
//!   SAGA-style enumerated step records in the spirit of resumable
//!   branch-merge engines — a begin marker at freeze, advisory per-stage /
//!   per-word-region progress records streamed by the pipeline, and
//!   durable chunk-done records whose staged column outputs let a restarted
//!   process resume a half-finished budgeted merge at its last completed
//!   K-column chunk instead of redoing it.
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
use std::io::{BufWriter, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Record types inside a segment.
const REC_INSERT: u8 = 1;
const REC_FLIP: u8 = 2;
const REC_SEAL: u8 = 3;

/// Record types inside the merge recovery log.
const MREC_BEGIN: u8 = 1;
const MREC_STEP: u8 = 2;
const MREC_CHUNK: u8 = 3;

/// Upper bound on a single record's payload; a length header above this is
/// corruption, not a real record (guards the replay allocator).
const MAX_RECORD: u32 = 1 << 30;

const SEGMENT_PREFIX: &str = "seg-";
const SEGMENT_SUFFIX: &str = ".wal";
const CHECKPOINT_FILE: &str = "checkpoint.bin";
const MERGE_LOG_FILE: &str = "merge.ckpt";
const STAGED_DIR: &str = "staged";
const MANIFEST_FILE: &str = "TABLE";
const SHARDED_MANIFEST_FILE: &str = "SHARDS";

const CHECKPOINT_MAGIC: &[u8; 8] = b"HYRCKP01";
const STAGED_MAGIC: &[u8; 8] = b"HYRSTG01";
const MANIFEST_MAGIC: &[u8; 8] = b"HYRTBL01";
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

    fn values<V: Value>(&mut self, n: usize) -> Result<Vec<V>> {
        let raw = self.take(n * V::BYTES)?;
        Ok((0..n)
            .map(|i| V::read_bytes(&raw[i * V::BYTES..]))
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
            // The tail sealed at zero rows (a merge of pending-only rows,
            // e.g. re-merging after a cancellation or a resumed
            // recovery): the live segment holds no insert records, stays
            // live, and rotating it onto itself would clobber the file.
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
// The data checkpoint
// ---------------------------------------------------------------------------

/// A decoded `checkpoint.bin`.
pub(crate) struct Checkpoint<V> {
    /// Rows covered (every column's main length).
    pub rows: usize,
    /// The dictionary-compressed mains, bit-identical to the committed
    /// generation's.
    pub mains: Vec<MainPartition<V>>,
    /// Validity of rows `0..rows` as of the checkpoint.
    pub validity: ValidityBitmap,
}

fn push_main_partition<V: Value>(buf: &mut Vec<u8>, main: &MainPartition<V>) {
    let dict = main.dictionary().values();
    buf.extend_from_slice(&(dict.len() as u64).to_le_bytes());
    for &v in dict {
        v.write_bytes(buf);
    }
    let codes = main.packed_codes();
    buf.push(codes.bits());
    buf.extend_from_slice(&(codes.len() as u64).to_le_bytes());
    buf.extend_from_slice(&(codes.words().len() as u64).to_le_bytes());
    for &w in codes.words() {
        buf.extend_from_slice(&w.to_le_bytes());
    }
}

fn read_main_partition<V: Value>(r: &mut Reader<'_>) -> Result<MainPartition<V>> {
    let dict_len = r.u64()? as usize;
    let dict = r.values::<V>(dict_len)?;
    let bits = r.u8()?;
    let n_codes = r.u64()? as usize;
    let n_words = r.u64()? as usize;
    let mut words = Vec::with_capacity(n_words);
    for _ in 0..n_words {
        words.push(r.u64()?);
    }
    if !(1..=64).contains(&bits) || n_words < (n_codes * bits as usize).div_ceil(64) {
        return Err(Error::corrupt(
            r.path,
            r.pos as u64,
            "main partition geometry out of range",
        ));
    }
    MainPartition::from_parts(
        Dictionary::from_sorted_unique(dict),
        BitPackedVec::from_words(bits, n_codes, words),
    )
    .ok_or_else(|| {
        Error::corrupt(
            r.path,
            r.pos as u64,
            "main partition code outside its dictionary",
        )
    })
}

/// Atomically persist the committed mains + validity prefix: build the
/// image, CRC it, write to a temp file, fsync, rename over
/// `checkpoint.bin`, fsync the directory.
pub(crate) fn write_checkpoint<V: Value>(
    dir: &Path,
    mains: &[&MainPartition<V>],
    validity: &ValidityBitmap,
) -> Result<()> {
    let rows = mains.first().map_or(0, |m| m.len());
    debug_assert!(mains.iter().all(|m| m.len() == rows));
    debug_assert_eq!(validity.len(), rows);
    let mut buf = Vec::new();
    buf.extend_from_slice(CHECKPOINT_MAGIC);
    buf.extend_from_slice(&(V::BYTES as u32).to_le_bytes());
    buf.extend_from_slice(&(mains.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(rows as u64).to_le_bytes());
    for main in mains {
        push_main_partition(&mut buf, main);
    }
    buf.extend_from_slice(&(validity.words().len() as u64).to_le_bytes());
    for &w in validity.words() {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());

    let tmp = dir.join("checkpoint.tmp");
    let final_path = dir.join(CHECKPOINT_FILE);
    let mut f = File::create(&tmp).map_err(io("create checkpoint"))?;
    f.write_all(&buf).map_err(io("write checkpoint"))?;
    f.sync_all().map_err(io("sync checkpoint"))?;
    drop(f);
    fs::rename(&tmp, &final_path).map_err(io("publish checkpoint"))?;
    sync_dir(dir);
    Ok(())
}

/// Load `checkpoint.bin` if present. A missing file means "no merge has
/// ever committed" (replay starts from empty mains); a damaged file is a
/// hard error — the checkpoint is written atomically, so damage is disk
/// corruption, not a crash artifact.
pub(crate) fn read_checkpoint<V: Value>(dir: &Path) -> Result<Option<Checkpoint<V>>> {
    let path = dir.join(CHECKPOINT_FILE);
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(Error::io("read checkpoint", e)),
    };
    if bytes.len() < CHECKPOINT_MAGIC.len() + 4 || &bytes[..8] != CHECKPOINT_MAGIC {
        return Err(Error::corrupt(&path, 0, "bad checkpoint magic"));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let crc = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if crc32(body) != crc {
        return Err(Error::corrupt(&path, 0, "checkpoint crc mismatch"));
    }
    let mut r = Reader::new(&body[8..], &path);
    let value_bytes = r.u32()? as usize;
    if value_bytes != V::BYTES {
        return Err(Error::corrupt(
            &path,
            0,
            format!(
                "value width {value_bytes} does not match table's {}",
                V::BYTES
            ),
        ));
    }
    let n_cols = r.u32()? as usize;
    let rows = r.u64()? as usize;
    let mut mains = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        let main = read_main_partition::<V>(&mut r)?;
        if main.len() != rows {
            return Err(Error::corrupt(&path, 0, "column length mismatch"));
        }
        mains.push(main);
    }
    let n_words = r.u64()? as usize;
    let mut words = Vec::with_capacity(n_words);
    for _ in 0..n_words {
        words.push(r.u64()?);
    }
    if n_words < rows.div_ceil(64) {
        return Err(Error::corrupt(&path, 0, "validity words too short"));
    }
    Ok(Some(Checkpoint {
        rows,
        mains,
        validity: ValidityBitmap::from_words(words, rows),
    }))
}

// ---------------------------------------------------------------------------
// The merge recovery log (SAGA-style resumable steps)
// ---------------------------------------------------------------------------

/// The open merge recovery log an in-flight merge appends to. Implements
/// [`crate::pipeline::StepSink`] so the pipeline can stream advisory
/// stage/progress records; the durable resume points are the begin marker
/// and the chunk-done records.
pub(crate) struct MergeLog {
    file: Mutex<BufWriter<File>>,
}

impl MergeLog {
    /// Start a fresh merge log: truncate any stale one and write the
    /// begin marker (`frozen_end` = global row count at the freeze),
    /// synced — from here on, recovery resumes the merge instead of
    /// rolling it back.
    pub(crate) fn begin(dir: &Path, frozen_end: usize, n_cols: usize) -> Result<Self> {
        let path = dir.join(MERGE_LOG_FILE);
        let file = File::create(&path).map_err(io("create merge log"))?;
        let log = Self {
            file: Mutex::new(BufWriter::new(file)),
        };
        let mut payload = Vec::with_capacity(13);
        payload.push(MREC_BEGIN);
        payload.extend_from_slice(&(frozen_end as u64).to_le_bytes());
        payload.extend_from_slice(&(n_cols as u32).to_le_bytes());
        log.append(&payload, true)?;
        sync_dir(dir);
        Ok(log)
    }

    fn append(&self, payload: &[u8], sync: bool) -> Result<()> {
        let mut framed = Vec::with_capacity(payload.len() + 8);
        frame_into(&mut framed, payload);
        let mut f = self.file.lock();
        f.write_all(&framed)
            .map_err(io("append merge log record"))?;
        f.flush().map_err(io("append merge log record"))?;
        if sync {
            f.get_ref()
                .sync_data()
                .map_err(io("sync merge log record"))?;
        }
        Ok(())
    }

    /// Record that the staged outputs of `cols` are durable on disk:
    /// recovery loads them instead of re-merging. Synced.
    pub(crate) fn chunk_done(&self, cols: &[usize]) -> Result<()> {
        let mut payload = Vec::with_capacity(5 + 4 * cols.len());
        payload.push(MREC_CHUNK);
        payload.extend_from_slice(&(cols.len() as u32).to_le_bytes());
        for &c in cols {
            payload.extend_from_slice(&(c as u32).to_le_bytes());
        }
        self.append(&payload, true)
    }

    /// Append one advisory step record (buffered, not synced — these
    /// narrate progress between the durable chunk boundaries). Errors are
    /// swallowed: a lost advisory record costs nothing at recovery.
    pub(crate) fn step(&self, step: crate::pipeline::MergeStep) {
        let (kind, col, progress, total) = step.encode();
        let mut payload = Vec::with_capacity(22);
        payload.push(MREC_STEP);
        payload.push(kind);
        payload.extend_from_slice(&(col as u32).to_le_bytes());
        payload.extend_from_slice(&progress.to_le_bytes());
        payload.extend_from_slice(&total.to_le_bytes());
        let _ = self.append(&payload, false);
    }
}

impl crate::pipeline::StepSink for MergeLog {
    fn record(&self, step: crate::pipeline::MergeStep) {
        self.step(step);
    }
}

/// A decoded merge recovery log: the merge to resume.
#[derive(Debug)]
pub(crate) struct MergeCkpt {
    /// Global row count at the freeze (every merged column's final length).
    pub frozen_end: usize,
    /// Columns whose staged outputs are durable (union of chunk records).
    pub done_cols: Vec<usize>,
}

/// Load `merge.ckpt` if present. A torn suffix is tolerated (the advisory
/// step records are streamed unsynced); a torn or missing begin marker
/// means no merge was in flight.
pub(crate) fn read_merge_log(dir: &Path, n_cols: usize) -> Result<Option<MergeCkpt>> {
    let path = dir.join(MERGE_LOG_FILE);
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(Error::io("read merge log", e)),
    };
    let mut ckpt: Option<MergeCkpt> = None;
    let mut off = 0usize;
    while let Frame::Ok { start, end } = read_frame(&bytes, off, &path)? {
        let mut r = Reader::new(&bytes[start..end], &path);
        match r.u8()? {
            MREC_BEGIN => {
                let frozen_end = r.u64()? as usize;
                let cols = r.u32()? as usize;
                if cols != n_cols {
                    return Err(Error::corrupt(
                        &path,
                        off as u64,
                        format!("merge log has {cols} columns, table has {n_cols}"),
                    ));
                }
                ckpt = Some(MergeCkpt {
                    frozen_end,
                    done_cols: Vec::new(),
                });
            }
            MREC_CHUNK => {
                let n = r.u32()? as usize;
                let ckpt = ckpt.as_mut().ok_or_else(|| {
                    Error::corrupt(&path, off as u64, "chunk record before begin marker")
                })?;
                for _ in 0..n {
                    ckpt.done_cols.push(r.u32()? as usize);
                }
            }
            MREC_STEP => {} // advisory narration only
            t => {
                return Err(Error::corrupt(
                    &path,
                    off as u64,
                    format!("unknown merge log record type {t}"),
                ))
            }
        }
        off = end;
    }
    Ok(ckpt)
}

/// Remove the merge recovery log and every staged column (merge finished
/// or rolled back).
pub(crate) fn clear_merge_log(dir: &Path) -> Result<()> {
    let _ = fs::remove_file(dir.join(MERGE_LOG_FILE));
    let _ = fs::remove_dir_all(dir.join(STAGED_DIR));
    sync_dir(dir);
    Ok(())
}

/// Durably stage one merged column output (`staged/col-<c>.bin`,
/// tmp + rename) so a resumed merge loads it instead of re-merging.
pub(crate) fn write_staged_column<V: Value>(
    dir: &Path,
    col: usize,
    main: &MainPartition<V>,
) -> Result<()> {
    let staged = dir.join(STAGED_DIR);
    fs::create_dir_all(&staged).map_err(io("create staged directory"))?;
    let mut buf = Vec::new();
    buf.extend_from_slice(STAGED_MAGIC);
    buf.extend_from_slice(&(V::BYTES as u32).to_le_bytes());
    push_main_partition(&mut buf, main);
    buf.extend_from_slice(&crc32(&buf).to_le_bytes());
    let tmp = staged.join(format!("col-{col}.tmp"));
    let final_path = staged.join(format!("col-{col}.bin"));
    let mut f = File::create(&tmp).map_err(io("create staged column"))?;
    f.write_all(&buf).map_err(io("write staged column"))?;
    f.sync_all().map_err(io("sync staged column"))?;
    drop(f);
    fs::rename(&tmp, &final_path).map_err(io("publish staged column"))?;
    sync_dir(&staged);
    Ok(())
}

/// Load a staged column written by [`write_staged_column`].
pub(crate) fn read_staged_column<V: Value>(dir: &Path, col: usize) -> Result<MainPartition<V>> {
    let path = dir.join(STAGED_DIR).join(format!("col-{col}.bin"));
    let bytes = fs::read(&path).map_err(io("read staged column"))?;
    if bytes.len() < 12 || &bytes[..8] != STAGED_MAGIC {
        return Err(Error::corrupt(&path, 0, "bad staged column magic"));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    if crc32(body) != u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes")) {
        return Err(Error::corrupt(&path, 0, "staged column crc mismatch"));
    }
    let mut r = Reader::new(&body[8..], &path);
    if r.u32()? as usize != V::BYTES {
        return Err(Error::corrupt(
            &path,
            0,
            "staged column value width mismatch",
        ));
    }
    read_main_partition::<V>(&mut r)
}

// ---------------------------------------------------------------------------
// The table manifest
// ---------------------------------------------------------------------------

/// The immutable facts recovery needs before it can read anything else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Manifest {
    pub n_cols: usize,
    pub value_bytes: usize,
    pub fsync: bool,
}

/// Write the `TABLE` manifest (once, at table creation).
pub(crate) fn write_manifest(dir: &Path, m: &Manifest) -> Result<()> {
    let mut buf = Vec::with_capacity(21);
    buf.extend_from_slice(MANIFEST_MAGIC);
    buf.extend_from_slice(&(m.n_cols as u32).to_le_bytes());
    buf.extend_from_slice(&(m.value_bytes as u32).to_le_bytes());
    buf.push(m.fsync as u8);
    buf.extend_from_slice(&crc32(&buf).to_le_bytes());
    let path = dir.join(MANIFEST_FILE);
    let mut f = File::create(&path).map_err(io("create table manifest"))?;
    f.write_all(&buf).map_err(io("write table manifest"))?;
    f.sync_all().map_err(io("sync table manifest"))?;
    sync_dir(dir);
    Ok(())
}

/// Read the `TABLE` manifest.
pub(crate) fn read_manifest(dir: &Path) -> Result<Manifest> {
    let path = dir.join(MANIFEST_FILE);
    let bytes = fs::read(&path).map_err(io("read table manifest"))?;
    if bytes.len() != 21 || &bytes[..8] != MANIFEST_MAGIC {
        return Err(Error::corrupt(&path, 0, "bad table manifest"));
    }
    let (body, crc_bytes) = bytes.split_at(17);
    if crc32(body) != u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes")) {
        return Err(Error::corrupt(&path, 0, "table manifest crc mismatch"));
    }
    let mut r = Reader::new(&body[8..], &path);
    Ok(Manifest {
        n_cols: r.u32()? as usize,
        value_bytes: r.u32()? as usize,
        fsync: r.u8()? != 0,
    })
}

/// Does `dir` already hold a table manifest?
pub(crate) fn manifest_exists(dir: &Path) -> bool {
    dir.join(MANIFEST_FILE).is_file()
}

// ---------------------------------------------------------------------------
// The sharded-table manifest
// ---------------------------------------------------------------------------

/// Shard `i`'s table directory under a sharded root.
pub(crate) fn shard_dir(root: &Path, i: usize) -> PathBuf {
    root.join(format!("shard-{i}"))
}

/// The routing layout of a durable [`crate::shard::ShardedTable`], stored
/// as `SHARDS` in the root directory. Each shard is a full table directory
/// (`shard-<i>/`) underneath; this file is what lets recovery rebuild the
/// router identically.
#[derive(Debug, Clone)]
pub(crate) struct ShardedManifest<V> {
    pub n_shards: usize,
    pub n_cols: usize,
    pub value_bytes: usize,
    pub fsync: bool,
    pub key_col: usize,
    pub by: crate::shard::ShardBy<V>,
}

/// Write the `SHARDS` manifest (once, at table creation).
pub(crate) fn write_sharded_manifest<V: Value>(root: &Path, m: &ShardedManifest<V>) -> Result<()> {
    let mut buf = Vec::new();
    buf.extend_from_slice(SHARDED_MAGIC);
    buf.extend_from_slice(&(m.n_shards as u32).to_le_bytes());
    buf.extend_from_slice(&(m.n_cols as u32).to_le_bytes());
    buf.extend_from_slice(&(m.value_bytes as u32).to_le_bytes());
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

/// Read the `SHARDS` manifest.
pub(crate) fn read_sharded_manifest<V: Value>(root: &Path) -> Result<ShardedManifest<V>> {
    let path = root.join(SHARDED_MANIFEST_FILE);
    let bytes = fs::read(&path).map_err(io("read sharded manifest"))?;
    if bytes.len() < 26 || &bytes[..8] != SHARDED_MAGIC {
        return Err(Error::corrupt(&path, 0, "bad sharded manifest"));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    if crc32(body) != u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes")) {
        return Err(Error::corrupt(&path, 0, "sharded manifest crc mismatch"));
    }
    let mut r = Reader::new(&body[8..], &path);
    let n_shards = r.u32()? as usize;
    let n_cols = r.u32()? as usize;
    let value_bytes = r.u32()? as usize;
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
    Ok(ShardedManifest {
        n_shards,
        n_cols,
        value_bytes,
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

    #[test]
    fn checkpoint_round_trips() {
        let dir = temp_dir("ckpt");
        let m0 = MainPartition::from_values(&[5u64, 1, 5, 9, 1]);
        let m1 = MainPartition::from_values(&[10u64, 20, 30, 40, 50]);
        let mut validity = ValidityBitmap::all_valid(5);
        validity.invalidate(2);
        write_checkpoint(&dir, &[&m0, &m1], &validity).unwrap();
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
        let validity = ValidityBitmap::all_valid(4);
        write_checkpoint(&dir, &[&main], &validity).unwrap();
        let path = dir.join(CHECKPOINT_FILE);
        let mut bytes = fs::read(&path).unwrap();
        // Header (magic, value width, columns, rows) = 24 bytes, then the
        // dictionary (length + 3 values), the code width, the code and
        // word counts: the first code word starts at byte 73.
        assert_eq!(bytes[24 + 8 + 24], 2, "2-bit codes");
        bytes[73] |= 0b11; // row 0: code 0 -> 3
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let err = read_checkpoint::<u64>(&dir).err().expect("rejected");
        assert!(matches!(err, Error::Corrupt { .. }), "got {err:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_log_round_trips_and_tolerates_torn_tail() {
        let dir = temp_dir("mlog");
        let log = MergeLog::begin(&dir, 1_000, 4).unwrap();
        log.step(crate::pipeline::MergeStep::Stage1a { col: 0 });
        log.chunk_done(&[0, 1]).unwrap();
        log.chunk_done(&[2]).unwrap();
        drop(log);
        let ck = read_merge_log(&dir, 4).unwrap().unwrap();
        assert_eq!(ck.frozen_end, 1_000);
        assert_eq!(ck.done_cols, vec![0, 1, 2]);
        // Torn tail: drop the last 3 bytes.
        let path = dir.join(MERGE_LOG_FILE);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let ck = read_merge_log(&dir, 4).unwrap().unwrap();
        assert_eq!(ck.frozen_end, 1_000);
        assert_eq!(ck.done_cols, vec![0, 1], "torn final chunk dropped");
        clear_merge_log(&dir).unwrap();
        assert!(read_merge_log(&dir, 4).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn staged_column_round_trips() {
        let dir = temp_dir("staged");
        let main = MainPartition::from_values(&[3u32, 1, 4, 1, 5]);
        write_staged_column(&dir, 2, &main).unwrap();
        let back = read_staged_column::<u32>(&dir, 2).unwrap();
        assert_eq!(back.dictionary().values(), main.dictionary().values());
        assert_eq!(back.packed_codes().words(), main.packed_codes().words());
        assert!(read_staged_column::<u32>(&dir, 3).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_round_trips() {
        let dir = temp_dir("manifest");
        let m = Manifest {
            n_cols: 3,
            value_bytes: 8,
            fsync: true,
        };
        write_manifest(&dir, &m).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), m);
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
