//! The wire protocol: length-prefixed binary frames carrying the query
//! builder surface and batched mutations.
//!
//! The container this system builds in is offline, so the protocol is
//! deliberately dependency-free: a frame is `[len: u32 LE][payload]`, and
//! every payload is hand-encoded with little-endian fixed-width integers
//! (the same convention [`hyrise_storage::Value::write_bytes`] uses for
//! WAL records). Frames are capped at [`MAX_FRAME`]; a peer announcing a
//! larger payload is rejected *before* any allocation, so a garbage
//! length header cannot make a worker allocate gigabytes.
//!
//! Three properties the robustness tests pin down:
//!
//! * **Torn frames are detected, not hung on**: a connection that dies
//!   mid-frame surfaces [`FrameError::Torn`], never a partial decode.
//! * **Garbage decodes are typed errors**: [`Request::decode`] returns a
//!   human-readable `Err(String)` that the server maps to
//!   [`ErrorCode::Protocol`] — the worker answers and keeps serving.
//! * **Round-trips are exact**: `decode(encode(x)) == x` for requests and
//!   responses, property-tested over arbitrary plans and result sets.

use hyrise_core::ShardRowId;
use hyrise_query::{Action, CompiledPredicate, Query};
use std::io::{Read, Write};
use std::time::Duration;

/// Hard cap on a frame payload (16 MiB). A length header above this is a
/// protocol violation, answered and then the connection is dropped (the
/// stream cannot be re-synchronized past an unread oversized payload).
pub const MAX_FRAME: usize = 16 << 20;

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Outcome of one [`read_frame`] poll.
#[derive(Debug)]
pub enum FrameEvent {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// The read timed out with no bytes consumed — the connection is idle
    /// (workers use this to poll their stop flag between requests).
    Idle,
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The length header announced more than [`MAX_FRAME`] bytes.
    Oversized(u32),
    /// The connection died (or the reader gave up) mid-frame: bytes were
    /// consumed but the frame never completed.
    Torn,
    /// The underlying transport failed.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::Torn => write!(f, "connection closed mid-frame"),
            FrameError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Write one `[len][payload]` frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Fill `buf` completely, tolerating read timeouts.
///
/// `started` says whether earlier bytes of the current frame were already
/// consumed: before the first byte, a timeout is a benign [`Idle`] poll
/// and a clean close is [`Closed`]; after it, a close is a torn frame and
/// a timeout keeps waiting unless `give_up()` (the worker's stop flag)
/// says to abandon the connection.
///
/// [`Idle`]: FrameEvent::Idle
/// [`Closed`]: FrameEvent::Closed
fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    mut started: bool,
    give_up: &dyn Fn() -> bool,
) -> Result<Option<FrameEvent>, FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return if started {
                    Err(FrameError::Torn)
                } else {
                    Ok(Some(FrameEvent::Closed))
                }
            }
            Ok(n) => {
                got += n;
                started = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if !started {
                    return Ok(Some(FrameEvent::Idle));
                }
                if give_up() {
                    return Err(FrameError::Torn);
                }
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(None)
}

/// Read one frame. `give_up` is polled on mid-frame timeouts (a server
/// worker passes its stop flag; a blocking client passes `&|| false`).
pub fn read_frame(r: &mut impl Read, give_up: &dyn Fn() -> bool) -> Result<FrameEvent, FrameError> {
    let mut hdr = [0u8; 4];
    if let Some(ev) = read_full(r, &mut hdr, false, give_up)? {
        return Ok(ev);
    }
    let len = u32::from_le_bytes(hdr);
    if len as usize > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    if read_full(r, &mut payload, true, give_up)?.is_some() {
        unreachable!("started=true never yields Idle/Closed");
    }
    Ok(FrameEvent::Frame(payload))
}

// ---------------------------------------------------------------------------
// Encode / decode primitives
// ---------------------------------------------------------------------------

/// Decode failures are plain strings; the server maps them to
/// [`ErrorCode::Protocol`].
pub type DecodeResult<T> = Result<T, String>;

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(format!(
                "payload truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> DecodeResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> DecodeResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> DecodeResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> DecodeResult<String> {
        let n = self.u16()? as usize;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| "string is not valid UTF-8".to_string())
    }

    fn finish(&self) -> DecodeResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after a complete message",
                self.buf.len() - self.pos
            ))
        }
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize);
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// Shared model types
// ---------------------------------------------------------------------------

/// A [`ShardRowId`] on the wire: `u32` shard + `u64` local row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireRowId {
    /// Shard index.
    pub shard: u32,
    /// Row index within the shard (insert-order position).
    pub row: u64,
}

impl From<ShardRowId> for WireRowId {
    fn from(id: ShardRowId) -> Self {
        Self {
            shard: id.shard as u32,
            row: id.row as u64,
        }
    }
}

impl From<WireRowId> for ShardRowId {
    fn from(id: WireRowId) -> Self {
        Self {
            shard: id.shard as usize,
            row: id.row as usize,
        }
    }
}

/// What a `CreateTable` request asks the catalog for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableSpec {
    /// Catalog name (also the on-disk directory name for durable tables,
    /// so it is restricted to `[A-Za-z0-9_-]`, at most 64 bytes).
    pub name: String,
    /// Number of `u64` columns.
    pub columns: u32,
    /// Hash-partition shard count.
    pub shards: u32,
    /// `true`: back the delta with a per-shard WAL under the server's data
    /// directory (the PR-7 [`hyrise_core::Durability::Wal`] path).
    pub durable: bool,
    /// For durable tables, fsync each record before publishing the rows.
    pub fsync: bool,
}

impl TableSpec {
    /// A volatile (in-memory) table.
    pub fn volatile(name: &str, columns: u32, shards: u32) -> Self {
        Self {
            name: name.to_string(),
            columns,
            shards,
            durable: false,
            fsync: false,
        }
    }

    /// A WAL-backed table (buffered durability; pass `fsync` for the
    /// power-loss-proof mode).
    pub fn durable(name: &str, columns: u32, shards: u32, fsync: bool) -> Self {
        Self {
            name: name.to_string(),
            columns,
            shards,
            durable: true,
            fsync,
        }
    }
}

/// The admission decision the gate stamped on a response, exported so
/// clients can observe shedding/queueing/throttling directly rather than
/// inferring it from latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Admitted immediately.
    Admit,
    /// Admitted after waiting in the read queue for about this long.
    Queued {
        /// Time spent queued, in milliseconds (saturating).
        waited_ms: u32,
    },
    /// Rejected: memory pressure (reads) — retry later.
    Shed,
    /// Rejected: sustained insert rate outran the merge rate (writes).
    Throttled {
        /// Suggested client back-off before retrying, in milliseconds.
        retry_after_ms: u32,
    },
}

impl Admission {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Admission::Admit => {
                out.push(0);
                out.extend_from_slice(&0u32.to_le_bytes());
            }
            Admission::Queued { waited_ms } => {
                out.push(1);
                out.extend_from_slice(&waited_ms.to_le_bytes());
            }
            Admission::Shed => {
                out.push(2);
                out.extend_from_slice(&0u32.to_le_bytes());
            }
            Admission::Throttled { retry_after_ms } => {
                out.push(3);
                out.extend_from_slice(&retry_after_ms.to_le_bytes());
            }
        }
    }

    fn decode(c: &mut Cursor<'_>) -> DecodeResult<Self> {
        let tag = c.u8()?;
        let arg = c.u32()?;
        match tag {
            0 => Ok(Admission::Admit),
            1 => Ok(Admission::Queued { waited_ms: arg }),
            2 => Ok(Admission::Shed),
            3 => Ok(Admission::Throttled {
                retry_after_ms: arg,
            }),
            t => Err(format!("unknown admission tag {t}")),
        }
    }

    /// The suggested back-off, if the decision carries one.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            Admission::Throttled { retry_after_ms } => {
                Some(Duration::from_millis(*retry_after_ms as u64))
            }
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One client request. Every variant encodes to `[opcode u8][body]`.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Create a table in the catalog.
    CreateTable(TableSpec),
    /// Remove a table from the catalog and stop its merge scheduler
    /// (durable files stay on disk).
    DropTable {
        /// Table to drop.
        name: String,
    },
    /// List catalog table names (sorted).
    ListTables,
    /// Batched row insert (the write path the admission gate throttles).
    Insert {
        /// Target table.
        table: String,
        /// Rows, each `columns` wide.
        rows: Vec<Vec<u64>>,
    },
    /// Batched row invalidation.
    Delete {
        /// Target table.
        table: String,
        /// Row ids previously returned by an insert.
        ids: Vec<WireRowId>,
    },
    /// Run a serialized query plan (the read path the gate sheds/queues).
    Query {
        /// Target table.
        table: String,
        /// The plan, rebuilt server-side with [`Query::from_parts`].
        plan: Query<u64>,
    },
    /// Per-table counters (rows, delta backlog, merges).
    TableStats {
        /// Target table.
        table: String,
    },
    /// Server-wide admission counters.
    ServerStats,
}

const OP_PING: u8 = 1;
const OP_CREATE: u8 = 2;
const OP_DROP: u8 = 3;
const OP_LIST: u8 = 4;
const OP_INSERT: u8 = 5;
const OP_DELETE: u8 = 6;
const OP_QUERY: u8 = 7;
const OP_TABLE_STATS: u8 = 8;
const OP_SERVER_STATS: u8 = 9;

fn encode_plan(out: &mut Vec<u8>, plan: &Query<u64>) {
    let preds = plan.predicates();
    debug_assert!(preds.len() <= u16::MAX as usize);
    out.extend_from_slice(&(preds.len() as u16).to_le_bytes());
    for p in preds {
        out.extend_from_slice(&(p.col as u32).to_le_bytes());
        out.extend_from_slice(&p.lo.to_le_bytes());
        out.extend_from_slice(&p.hi.to_le_bytes());
    }
    match plan.action() {
        Action::Rows => out.push(0),
        Action::Project(cols) => {
            out.push(1);
            out.extend_from_slice(&(cols.len() as u16).to_le_bytes());
            for c in cols {
                out.extend_from_slice(&(*c as u32).to_le_bytes());
            }
        }
        Action::Count => out.push(2),
        Action::Sum(col) => {
            out.push(3);
            out.extend_from_slice(&(*col as u32).to_le_bytes());
        }
        Action::MinMax(col) => {
            out.push(4);
            out.extend_from_slice(&(*col as u32).to_le_bytes());
        }
    }
    out.extend_from_slice(&(plan.threads() as u16).to_le_bytes());
}

fn decode_plan(c: &mut Cursor<'_>) -> DecodeResult<Query<u64>> {
    let n = c.u16()? as usize;
    let mut preds = Vec::with_capacity(n);
    for _ in 0..n {
        let col = c.u32()? as usize;
        let lo = c.u64()?;
        let hi = c.u64()?;
        preds.push(CompiledPredicate { col, lo, hi });
    }
    let action = match c.u8()? {
        0 => Action::Rows,
        1 => {
            let k = c.u16()? as usize;
            let mut cols = Vec::with_capacity(k);
            for _ in 0..k {
                cols.push(c.u32()? as usize);
            }
            Action::Project(cols)
        }
        2 => Action::Count,
        3 => Action::Sum(c.u32()? as usize),
        4 => Action::MinMax(c.u32()? as usize),
        t => return Err(format!("unknown plan action tag {t}")),
    };
    let threads = c.u16()? as usize;
    Ok(Query::from_parts(preds, action, threads))
}

impl Request {
    /// Serialize to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping => out.push(OP_PING),
            Request::CreateTable(spec) => {
                out.push(OP_CREATE);
                put_str(&mut out, &spec.name);
                out.extend_from_slice(&spec.columns.to_le_bytes());
                out.extend_from_slice(&spec.shards.to_le_bytes());
                out.push(u8::from(spec.durable));
                out.push(u8::from(spec.fsync));
            }
            Request::DropTable { name } => {
                out.push(OP_DROP);
                put_str(&mut out, name);
            }
            Request::ListTables => out.push(OP_LIST),
            Request::Insert { table, rows } => {
                out.push(OP_INSERT);
                put_str(&mut out, table);
                out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                for row in rows {
                    out.extend_from_slice(&(row.len() as u16).to_le_bytes());
                    for v in row {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
            Request::Delete { table, ids } => {
                out.push(OP_DELETE);
                put_str(&mut out, table);
                out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
                for id in ids {
                    out.extend_from_slice(&id.shard.to_le_bytes());
                    out.extend_from_slice(&id.row.to_le_bytes());
                }
            }
            Request::Query { table, plan } => {
                out.push(OP_QUERY);
                put_str(&mut out, table);
                encode_plan(&mut out, plan);
            }
            Request::TableStats { table } => {
                out.push(OP_TABLE_STATS);
                put_str(&mut out, table);
            }
            Request::ServerStats => out.push(OP_SERVER_STATS),
        }
        out
    }

    /// Parse a frame payload. Any malformed input — unknown opcode,
    /// truncation, trailing garbage, bad UTF-8 — is an `Err`, never a
    /// panic: this is the boundary where untrusted bytes enter.
    pub fn decode(payload: &[u8]) -> DecodeResult<Self> {
        let mut c = Cursor::new(payload);
        let req = match c.u8()? {
            OP_PING => Request::Ping,
            OP_CREATE => {
                let name = c.string()?;
                let columns = c.u32()?;
                let shards = c.u32()?;
                let durable = c.u8()? != 0;
                let fsync = c.u8()? != 0;
                Request::CreateTable(TableSpec {
                    name,
                    columns,
                    shards,
                    durable,
                    fsync,
                })
            }
            OP_DROP => Request::DropTable { name: c.string()? },
            OP_LIST => Request::ListTables,
            OP_INSERT => {
                let table = c.string()?;
                let n = c.u32()? as usize;
                // Cheap sanity bound before reserving: every row costs at
                // least its 2-byte length header.
                if n > payload.len() {
                    return Err(format!("insert claims {n} rows in a smaller payload"));
                }
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    let w = c.u16()? as usize;
                    let mut row = Vec::with_capacity(w);
                    for _ in 0..w {
                        row.push(c.u64()?);
                    }
                    rows.push(row);
                }
                Request::Insert { table, rows }
            }
            OP_DELETE => {
                let table = c.string()?;
                let n = c.u32()? as usize;
                if n > payload.len() {
                    return Err(format!("delete claims {n} ids in a smaller payload"));
                }
                let mut ids = Vec::with_capacity(n);
                for _ in 0..n {
                    let shard = c.u32()?;
                    let row = c.u64()?;
                    ids.push(WireRowId { shard, row });
                }
                Request::Delete { table, ids }
            }
            OP_QUERY => {
                let table = c.string()?;
                let plan = decode_plan(&mut c)?;
                Request::Query { table, plan }
            }
            OP_TABLE_STATS => Request::TableStats { table: c.string()? },
            OP_SERVER_STATS => Request::ServerStats,
            op => return Err(format!("unknown opcode {op}")),
        };
        c.finish()?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Typed failure codes, mirroring the engine's
/// [`hyrise_core::Error`] variants plus the server-level conditions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Malformed request (bad frame contents).
    Protocol = 1,
    /// The named table is not in the catalog.
    NoSuchTable = 2,
    /// `CreateTable` for a name already in the catalog.
    TableExists = 3,
    /// [`hyrise_core::Error::Io`].
    Io = 4,
    /// [`hyrise_core::Error::Corrupt`].
    Corrupt = 5,
    /// [`hyrise_core::Error::Recovery`].
    Recovery = 6,
    // 7 was a cancelled merge; nothing cancels a merge, and the code
    // stays unassigned so the codes after it keep their numbers.
    /// [`hyrise_core::Error::Config`] (also bad specs / out-of-range
    /// columns in a plan).
    Config = 8,
    /// Read rejected by the admission gate under memory pressure.
    Shed = 9,
    /// Write rejected by the admission gate (insert rate > merge rate).
    Throttled = 10,
    /// Anything else (future engine error variants).
    Internal = 11,
}

impl ErrorCode {
    fn from_u8(v: u8) -> DecodeResult<Self> {
        Ok(match v {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::NoSuchTable,
            3 => ErrorCode::TableExists,
            4 => ErrorCode::Io,
            5 => ErrorCode::Corrupt,
            6 => ErrorCode::Recovery,
            8 => ErrorCode::Config,
            9 => ErrorCode::Shed,
            10 => ErrorCode::Throttled,
            11 => ErrorCode::Internal,
            v => return Err(format!("unknown error code {v}")),
        })
    }
}

/// A typed server-side failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Machine-readable category.
    pub code: ErrorCode,
    /// Human-readable detail (the engine error's `Display` output).
    pub message: String,
}

impl WireError {
    /// Build from a code and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }

    /// Map an engine error onto the wire. `#[non_exhaustive]` on
    /// [`hyrise_core::Error`] means unknown future variants degrade to
    /// [`ErrorCode::Internal`] instead of breaking the protocol.
    pub fn from_engine(e: &hyrise_core::Error) -> Self {
        use hyrise_core::Error;
        let code = match e {
            Error::Io { .. } => ErrorCode::Io,
            Error::Corrupt { .. } => ErrorCode::Corrupt,
            Error::Recovery { .. } => ErrorCode::Recovery,
            Error::Config { .. } => ErrorCode::Config,
            _ => ErrorCode::Internal,
        };
        Self::new(code, e.to_string())
    }
}

/// Per-table counters in a `TableStats` response.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableStatsBody {
    /// Number of columns.
    pub columns: u64,
    /// Physical rows (including superseded versions).
    pub rows: u64,
    /// Rows currently visible.
    pub valid_rows: u64,
    /// Delta backlog in tuples (rows × columns across unmerged deltas is
    /// tracked engine-side; this is rows).
    pub delta_rows: u64,
    /// Completed merges across shards.
    pub merges: u64,
    /// Tuples moved by those merges.
    pub tuples_merged: u64,
    /// Current memory footprint in bytes.
    pub memory_bytes: u64,
}

/// Server-wide admission counters in a `ServerStats` response.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStatsBody {
    /// Reads admitted immediately.
    pub admitted_reads: u64,
    /// Reads admitted after queueing.
    pub queued_reads: u64,
    /// Reads rejected under memory pressure.
    pub shed_reads: u64,
    /// Writes admitted.
    pub admitted_writes: u64,
    /// Writes rejected by the throttle.
    pub throttled_writes: u64,
    /// Engine-level reads currently in flight ([`hyrise_core::read_load`]).
    pub reads_in_flight: u64,
    /// Tables currently in the catalog.
    pub open_tables: u64,
}

/// A query result on the wire, mirroring [`hyrise_query::Output`] for
/// `u64` tables over [`WireRowId`]s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireOutput {
    /// Matching row ids.
    Rows(Vec<WireRowId>),
    /// Materialized projections.
    Projected(Vec<Vec<u64>>),
    /// Matching-row count.
    Count(u64),
    /// Column sum (128-bit: a u64 column can overflow 64 bits).
    Sum(u128),
    /// Column min/max, `None` when nothing matched.
    MinMax(Option<(u64, u64)>),
}

impl WireOutput {
    /// Convert an executor output for transport.
    pub fn from_output(out: hyrise_query::Output<u64, ShardRowId>) -> Self {
        use hyrise_query::Output;
        match out {
            Output::Rows(ids) => WireOutput::Rows(ids.into_iter().map(Into::into).collect()),
            Output::Projected(rows) => WireOutput::Projected(rows),
            Output::Count(n) => WireOutput::Count(n as u64),
            Output::Sum(s) => WireOutput::Sum(s),
            Output::MinMax(mm) => WireOutput::MinMax(mm),
        }
    }

    /// The count, if this is a count result.
    pub fn count(&self) -> Option<u64> {
        match self {
            WireOutput::Count(n) => Some(*n),
            _ => None,
        }
    }

    /// The sum, if this is a sum result.
    pub fn sum(&self) -> Option<u128> {
        match self {
            WireOutput::Sum(s) => Some(*s),
            _ => None,
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WireOutput::Rows(ids) => {
                out.push(0);
                out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
                for id in ids {
                    out.extend_from_slice(&id.shard.to_le_bytes());
                    out.extend_from_slice(&id.row.to_le_bytes());
                }
            }
            WireOutput::Projected(rows) => {
                out.push(1);
                out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                for row in rows {
                    out.extend_from_slice(&(row.len() as u16).to_le_bytes());
                    for v in row {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
            WireOutput::Count(n) => {
                out.push(2);
                out.extend_from_slice(&n.to_le_bytes());
            }
            WireOutput::Sum(s) => {
                out.push(3);
                out.extend_from_slice(&s.to_le_bytes());
            }
            WireOutput::MinMax(None) => out.push(4),
            WireOutput::MinMax(Some((lo, hi))) => {
                out.push(5);
                out.extend_from_slice(&lo.to_le_bytes());
                out.extend_from_slice(&hi.to_le_bytes());
            }
        }
    }

    fn decode(c: &mut Cursor<'_>) -> DecodeResult<Self> {
        Ok(match c.u8()? {
            0 => {
                let n = c.u32()? as usize;
                let mut ids = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    ids.push(WireRowId {
                        shard: c.u32()?,
                        row: c.u64()?,
                    });
                }
                WireOutput::Rows(ids)
            }
            1 => {
                let n = c.u32()? as usize;
                let mut rows = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let w = c.u16()? as usize;
                    let mut row = Vec::with_capacity(w);
                    for _ in 0..w {
                        row.push(c.u64()?);
                    }
                    rows.push(row);
                }
                WireOutput::Projected(rows)
            }
            2 => WireOutput::Count(c.u64()?),
            3 => WireOutput::Sum(u128::from_le_bytes(c.take(16)?.try_into().unwrap())),
            4 => WireOutput::MinMax(None),
            5 => {
                let lo = c.u64()?;
                let hi = c.u64()?;
                WireOutput::MinMax(Some((lo, hi)))
            }
            t => return Err(format!("unknown output tag {t}")),
        })
    }
}

/// A successful response body.
#[derive(Clone, Debug, PartialEq)]
pub enum Body {
    /// `Ping` reply.
    Pong,
    /// Acknowledgement with no payload (create/drop/delete).
    Unit,
    /// `ListTables` reply.
    Tables(Vec<String>),
    /// `Insert` reply: the assigned row ids, in input order.
    RowIds(Vec<WireRowId>),
    /// `Query` reply.
    Output(WireOutput),
    /// `TableStats` reply.
    TableStats(TableStatsBody),
    /// `ServerStats` reply.
    ServerStats(ServerStatsBody),
}

/// One server response: the admission header plus a typed result.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// What the admission gate decided for this request.
    pub admission: Admission,
    /// The outcome.
    pub result: Result<Body, WireError>,
}

impl Response {
    /// An admitted success.
    pub fn ok(body: Body) -> Self {
        Self {
            admission: Admission::Admit,
            result: Ok(body),
        }
    }

    /// An admitted failure.
    pub fn err(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            admission: Admission::Admit,
            result: Err(WireError::new(code, message)),
        }
    }

    /// Serialize to a frame payload:
    /// `[admission u8][arg u32][status u8][body | message]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.admission.encode(&mut out);
        match &self.result {
            Ok(body) => {
                out.push(0);
                match body {
                    Body::Pong => out.push(0),
                    Body::Unit => out.push(1),
                    Body::Tables(names) => {
                        out.push(2);
                        out.extend_from_slice(&(names.len() as u32).to_le_bytes());
                        for n in names {
                            put_str(&mut out, n);
                        }
                    }
                    Body::RowIds(ids) => {
                        out.push(3);
                        out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
                        for id in ids {
                            out.extend_from_slice(&id.shard.to_le_bytes());
                            out.extend_from_slice(&id.row.to_le_bytes());
                        }
                    }
                    Body::Output(o) => {
                        out.push(4);
                        o.encode(&mut out);
                    }
                    Body::TableStats(s) => {
                        out.push(5);
                        for v in [
                            s.columns,
                            s.rows,
                            s.valid_rows,
                            s.delta_rows,
                            s.merges,
                            s.tuples_merged,
                            s.memory_bytes,
                        ] {
                            out.extend_from_slice(&v.to_le_bytes());
                        }
                    }
                    Body::ServerStats(s) => {
                        out.push(6);
                        for v in [
                            s.admitted_reads,
                            s.queued_reads,
                            s.shed_reads,
                            s.admitted_writes,
                            s.throttled_writes,
                            s.reads_in_flight,
                            s.open_tables,
                        ] {
                            out.extend_from_slice(&v.to_le_bytes());
                        }
                    }
                }
            }
            Err(we) => {
                out.push(we.code as u8);
                put_str(&mut out, &we.message);
            }
        }
        out
    }

    /// Parse a frame payload.
    pub fn decode(payload: &[u8]) -> DecodeResult<Self> {
        let mut c = Cursor::new(payload);
        let admission = Admission::decode(&mut c)?;
        let status = c.u8()?;
        let result = if status == 0 {
            Ok(match c.u8()? {
                0 => Body::Pong,
                1 => Body::Unit,
                2 => {
                    let n = c.u32()? as usize;
                    let mut names = Vec::with_capacity(n.min(1 << 16));
                    for _ in 0..n {
                        names.push(c.string()?);
                    }
                    Body::Tables(names)
                }
                3 => {
                    let n = c.u32()? as usize;
                    let mut ids = Vec::with_capacity(n.min(1 << 20));
                    for _ in 0..n {
                        ids.push(WireRowId {
                            shard: c.u32()?,
                            row: c.u64()?,
                        });
                    }
                    Body::RowIds(ids)
                }
                4 => Body::Output(WireOutput::decode(&mut c)?),
                5 => Body::TableStats(TableStatsBody {
                    columns: c.u64()?,
                    rows: c.u64()?,
                    valid_rows: c.u64()?,
                    delta_rows: c.u64()?,
                    merges: c.u64()?,
                    tuples_merged: c.u64()?,
                    memory_bytes: c.u64()?,
                }),
                6 => Body::ServerStats(ServerStatsBody {
                    admitted_reads: c.u64()?,
                    queued_reads: c.u64()?,
                    shed_reads: c.u64()?,
                    admitted_writes: c.u64()?,
                    throttled_writes: c.u64()?,
                    reads_in_flight: c.u64()?,
                    open_tables: c.u64()?,
                }),
                t => return Err(format!("unknown body tag {t}")),
            })
        } else {
            Err(WireError {
                code: ErrorCode::from_u8(status)?,
                message: c.string()?,
            })
        };
        c.finish()?;
        Ok(Response { admission, result })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyrise_query::Query;

    #[test]
    fn request_roundtrips() {
        let reqs = vec![
            Request::Ping,
            Request::CreateTable(TableSpec::durable("orders", 4, 3, true)),
            Request::DropTable {
                name: "orders".into(),
            },
            Request::ListTables,
            Request::Insert {
                table: "t".into(),
                rows: vec![vec![1, 2, 3], vec![4, 5, 6]],
            },
            Request::Delete {
                table: "t".into(),
                ids: vec![WireRowId { shard: 1, row: 99 }],
            },
            Request::Query {
                table: "t".into(),
                plan: Query::from_parts(
                    Query::scan(0)
                        .between(5u64, 10)
                        .and(2)
                        .eq(7)
                        .sum(1)
                        .with_threads(4)
                        .predicates()
                        .to_vec(),
                    hyrise_query::Action::Sum(1),
                    4,
                ),
            },
            Request::TableStats { table: "t".into() },
            Request::ServerStats,
        ];
        for r in reqs {
            let enc = r.encode();
            assert_eq!(Request::decode(&enc).unwrap(), r, "{r:?}");
        }
    }

    #[test]
    fn response_roundtrips() {
        let resps = vec![
            Response::ok(Body::Pong),
            Response {
                admission: Admission::Queued { waited_ms: 12 },
                result: Ok(Body::Output(WireOutput::MinMax(Some((3, 9))))),
            },
            Response {
                admission: Admission::Throttled { retry_after_ms: 50 },
                result: Err(WireError::new(ErrorCode::Throttled, "backlog")),
            },
            Response {
                admission: Admission::Shed,
                result: Err(WireError::new(ErrorCode::Shed, "memory pressure")),
            },
            Response::ok(Body::Output(WireOutput::Sum(u128::MAX / 3))),
            Response::ok(Body::Tables(vec!["a".into(), "b".into()])),
            Response::ok(Body::ServerStats(ServerStatsBody {
                admitted_reads: 1,
                queued_reads: 2,
                shed_reads: 3,
                admitted_writes: 4,
                throttled_writes: 5,
                reads_in_flight: 6,
                open_tables: 7,
            })),
        ];
        for r in resps {
            let enc = r.encode();
            assert_eq!(Response::decode(&enc).unwrap(), r, "{r:?}");
        }
    }

    #[test]
    fn garbage_and_truncation_are_typed_errors() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0xFF]).is_err());
        assert!(
            Request::decode(&[OP_CREATE, 5, 0]).is_err(),
            "truncated string"
        );
        let mut ok = Request::Ping.encode();
        ok.push(0);
        assert!(Request::decode(&ok).is_err(), "trailing byte");
        assert!(
            Response::decode(&[9, 0, 0, 0, 0, 0]).is_err(),
            "bad admission tag"
        );
    }

    #[test]
    fn oversized_header_is_rejected_without_allocating() {
        let mut buf: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF];
        match read_frame(&mut buf, &|| false) {
            Err(FrameError::Oversized(n)) => assert_eq!(n, u32::MAX),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn torn_frame_is_detected() {
        // Header promises 100 bytes; stream ends after 3.
        let mut data = 100u32.to_le_bytes().to_vec();
        data.extend_from_slice(&[1, 2, 3]);
        let mut buf: &[u8] = &data;
        match read_frame(&mut buf, &|| false) {
            Err(FrameError::Torn) => {}
            other => panic!("expected Torn, got {other:?}"),
        }
    }

    #[test]
    fn frame_roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r: &[u8] = &wire;
        match read_frame(&mut r, &|| false).unwrap() {
            FrameEvent::Frame(p) => assert_eq!(p, b"hello"),
            other => panic!("{other:?}"),
        }
        match read_frame(&mut r, &|| false).unwrap() {
            FrameEvent::Frame(p) => assert!(p.is_empty()),
            other => panic!("{other:?}"),
        }
        match read_frame(&mut r, &|| false).unwrap() {
            FrameEvent::Closed => {}
            other => panic!("{other:?}"),
        }
    }
}
