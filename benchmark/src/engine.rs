//! Every call into the engine lives in this file.
//!
//! The rest of the benchmark speaks the small vocabulary defined here
//! ([`Plan`], [`Answer`], [`Row`], [`Conn`], [`Server`], …) and never
//! imports a `hyrise_*` crate, so an engine PR that renames or removes
//! something breaks exactly one file. Only the surface ROADMAP item 3
//! keeps is used: `start`/`ServerConfig`, `Client`, `TableSpec`, `Catalog`,
//! `AdmissionGate`, `Request`/`Response`, `Query`, `ShardedTable` and its
//! builder, `TableSnapshot`, `BitPackedVec`, `TailLog`, `Durability`,
//! `recover_sharded` and `model::calibrate`.
//!
//! Layers are measured strictly from outside: each `depth_*` function runs
//! one request at one depth of the stack through public functions, and the
//! caller times it. Nothing here reads a clock.

use hyrise_bitpack::{mask_words, rows_from_mask};
use hyrise_core::{
    calibrate, recover_sharded, Durability, MachineProfile, MergeScenario, ShardedTable,
    TableSnapshot,
};
use hyrise_query::Query;
use hyrise_server::admission::{ReadAdmission, WriteAdmission};
use hyrise_server::protocol::Body;
use hyrise_server::{
    start, Admission, CatalogConfig, Client, ClientError, Request, Response, ServerConfig,
    ServerHandle, TableEntry, TableSpec, WireOutput, WireRowId,
};
use hyrise_storage::TailLog;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Columns of every benchmark table: unique key, 1 009-value, 65 537-value,
/// 97-value.
pub const COLS: usize = 4;
/// Shards of every served table.
pub const SHARDS: u32 = 2;
/// One row.
pub type Row = [u64; COLS];

/// An inclusive range predicate on one column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pred {
    pub col: usize,
    pub lo: u64,
    pub hi: u64,
}

/// The read shapes the workloads send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plan {
    /// `eq` on the key column → count.
    Lookup { key: u64 },
    /// Key range → count.
    RangeCount { lo: u64, hi: u64 },
    /// `eq` on a value column → count.
    EqCount { col: usize, value: u64 },
    /// Fused two-column range → sum of a third column.
    FusedSum { a: Pred, b: Pred, sum_col: usize },
    /// Unfiltered column sum.
    FullSum { col: usize },
}

impl Plan {
    fn query(&self, threads: usize) -> Query<u64> {
        let q = match *self {
            Plan::Lookup { key } => Query::scan(0).eq(key).count(),
            Plan::RangeCount { lo, hi } => Query::scan(0).between(lo, hi).count(),
            Plan::EqCount { col, value } => Query::scan(col).eq(value).count(),
            Plan::FusedSum { a, b, sum_col } => Query::scan(a.col)
                .between(a.lo, a.hi)
                .and(b.col)
                .between(b.lo, b.hi)
                .sum(sum_col),
            Plan::FullSum { col } => Query::scan(0).sum(col),
        };
        q.with_threads(threads)
    }

    /// Columns whose packed codes the plan's predicates (or its unfiltered
    /// aggregate) stream over.
    fn scanned_cols(&self) -> Vec<usize> {
        match *self {
            Plan::Lookup { .. } | Plan::RangeCount { .. } => vec![0],
            Plan::EqCount { col, .. } | Plan::FullSum { col } => vec![col],
            Plan::FusedSum { a, b, .. } => vec![a.col, b.col],
        }
    }
}

/// A reply, reduced to what the oracle compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    Count(u64),
    Sum(u128),
}

impl Answer {
    fn from_wire(out: WireOutput) -> Result<Self, String> {
        match out {
            WireOutput::Count(n) => Ok(Answer::Count(n)),
            WireOutput::Sum(s) => Ok(Answer::Sum(s)),
            other => Err(format!("unexpected query output {other:?}")),
        }
    }
}

/// Row address returned by an insert, opaque to the rest of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct RowId(WireRowId);

/// Why a wire call did not complete.
#[derive(Debug)]
pub enum CallError {
    /// The write valve rejected the batch; retry after this long.
    Throttled(Duration),
    /// The read was shed.
    Shed,
    /// Anything else: the run is invalid.
    Fatal(String),
}

impl From<ClientError> for CallError {
    fn from(e: ClientError) -> Self {
        match e {
            ClientError::Throttled { retry_after } => CallError::Throttled(retry_after),
            ClientError::Shed => CallError::Shed,
            other => CallError::Fatal(other.to_string()),
        }
    }
}

/// Per-table counters as the wire reports them.
#[derive(Clone, Copy, Debug, Default)]
pub struct TableStats {
    pub valid_rows: u64,
    pub rows: u64,
    pub merges: u64,
    pub tuples_merged: u64,
    pub memory_bytes: u64,
}

/// One client connection.
pub struct Conn {
    client: Client,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Self, String> {
        Client::connect(addr)
            .map(|client| Self { client })
            .map_err(|e| format!("connect {addr}: {e}"))
    }

    pub fn query(&mut self, table: &str, plan: &Plan, threads: usize) -> Result<Answer, CallError> {
        let out = self.client.query(table, &plan.query(threads))?;
        Answer::from_wire(out).map_err(CallError::Fatal)
    }

    pub fn insert(&mut self, table: &str, rows: &[Row]) -> Result<Vec<RowId>, CallError> {
        let rows: Vec<Vec<u64>> = rows.iter().map(|r| r.to_vec()).collect();
        Ok(self
            .client
            .insert(table, &rows)?
            .into_iter()
            .map(RowId)
            .collect())
    }

    pub fn delete(&mut self, table: &str, ids: &[RowId]) -> Result<(), CallError> {
        let ids: Vec<WireRowId> = ids.iter().map(|id| id.0).collect();
        Ok(self.client.delete(table, &ids)?)
    }

    pub fn stats(&mut self, table: &str) -> Result<TableStats, CallError> {
        let s = self.client.table_stats(table)?;
        Ok(TableStats {
            valid_rows: s.valid_rows,
            rows: s.rows,
            merges: s.merges,
            tuples_merged: s.tuples_merged,
            memory_bytes: s.memory_bytes,
        })
    }

    /// Milliseconds the last request waited in the read queue.
    pub fn queued_ms(&self) -> u64 {
        match self.client.last_admission() {
            Admission::Queued { waited_ms } => waited_ms as u64,
            _ => 0,
        }
    }
}

/// Admission counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct GateStats {
    pub queued: u64,
    pub shed: u64,
    pub throttled: u64,
}

/// A live server on loopback, with in-process access to its catalog and
/// gate for set-up and depth replays.
pub struct Server {
    handle: ServerHandle,
}

impl Server {
    /// Start with the default configuration; `data_dir` enables durable
    /// tables.
    pub fn start(data_dir: Option<PathBuf>) -> Result<Self, String> {
        let config = ServerConfig {
            catalog: CatalogConfig {
                data_dir,
                ..CatalogConfig::default()
            },
            ..ServerConfig::default()
        };
        start("127.0.0.1:0", config)
            .map(|handle| Self { handle })
            .map_err(|e| format!("start server: {e}"))
    }

    pub fn addr(&self) -> String {
        self.handle.addr().to_string()
    }

    pub fn shutdown(mut self) {
        self.handle.shutdown();
    }

    /// Create a table (buffered WAL — `fsync: false` — when `durable`).
    pub fn create(&self, name: &str, durable: bool) -> Result<(), String> {
        let spec = if durable {
            TableSpec::durable(name, COLS as u32, SHARDS, false)
        } else {
            TableSpec::volatile(name, COLS as u32, SHARDS)
        };
        self.handle
            .catalog()
            .create(&spec)
            .map_err(|e| format!("create {name}: {e}"))
    }

    pub fn table(&self, name: &str) -> Result<TableRef, String> {
        self.handle
            .catalog()
            .get(name)
            .map(TableRef)
            .map_err(|e| e.to_string())
    }

    pub fn gate_stats(&self) -> GateStats {
        let s = self.handle.gate().stats();
        GateStats {
            queued: s.queued_reads,
            shed: s.shed_reads,
            throttled: s.throttled_writes,
        }
    }

    pub fn pool_reset_peak(&self) {
        self.handle.catalog().pool().reset_peak_depth();
    }

    pub fn pool_peak(&self) -> usize {
        self.handle.catalog().pool().peak_queue_depth()
    }

    /// Morsel hint the sharded executor hands each shard for a query sent
    /// with `threads`.
    pub fn per_shard_threads(&self, threads: usize) -> usize {
        let pool = self.handle.catalog().pool().threads();
        threads.min((pool / SHARDS as usize).max(1))
    }

    /// Depth `server`, read: what the dispatcher does between decode and
    /// encode — catalog lookup, read admission, run, output conversion.
    pub fn depth_server_read(
        &self,
        table: &str,
        plan: &Plan,
        threads: usize,
    ) -> Result<Answer, String> {
        let catalog = self.handle.catalog();
        let entry = catalog.get(table).map_err(|e| e.to_string())?;
        let t = Arc::clone(entry.table());
        match self.handle.gate().admit_read(
            || t.memory_report().total(),
            || catalog.pool().queue_depth(),
        ) {
            ReadAdmission::Shed => Err("replayed read was shed".into()),
            ReadAdmission::Admit { .. } => {
                let out = plan.query(threads).run(t.as_ref());
                Answer::from_wire(WireOutput::from_output(out))
            }
        }
    }

    /// Depth `server`, write: catalog lookup, write admission, batched
    /// insert, row-id conversion.
    pub fn depth_server_write(&self, table: &str, rows: &[Row]) -> Result<Vec<RowId>, String> {
        let entry = self
            .handle
            .catalog()
            .get(table)
            .map_err(|e| e.to_string())?;
        let admitted = {
            let mut window = entry
                .write_window()
                .lock()
                .expect("write window poisoned by a panicking writer");
            self.handle.gate().admit_write(
                &mut window,
                entry.table().delta_len(),
                entry.inserted_rows(),
                entry.scheduler().stats().tuples_merged,
            )
        };
        if let WriteAdmission::Throttle { .. } = admitted {
            return Err("replayed write was throttled".into());
        }
        entry
            .table()
            .insert_rows(rows)
            .map(|ids| ids.into_iter().map(|id| RowId(id.into())).collect())
            .map_err(|e| e.to_string())
    }
}

/// Depth `protocol`, read: encode + decode of the request and of the
/// response carrying `answer`, in memory. Returns the frame sizes.
pub fn depth_protocol_read(
    table: &str,
    plan: &Plan,
    threads: usize,
    answer: Answer,
) -> Result<(usize, usize), String> {
    let req = Request::Query {
        table: table.to_string(),
        plan: plan.query(threads),
    };
    let out = match answer {
        Answer::Count(n) => WireOutput::Count(n),
        Answer::Sum(s) => WireOutput::Sum(s),
    };
    codec_round_trip(&req, &Response::ok(Body::Output(out)))
}

/// Depth `protocol`, write.
pub fn depth_protocol_write(
    table: &str,
    rows: &[Row],
    ids: &[RowId],
) -> Result<(usize, usize), String> {
    let req = Request::Insert {
        table: table.to_string(),
        rows: rows.iter().map(|r| r.to_vec()).collect(),
    };
    let resp = Response::ok(Body::RowIds(ids.iter().map(|id| id.0).collect()));
    codec_round_trip(&req, &resp)
}

fn codec_round_trip(req: &Request, resp: &Response) -> Result<(usize, usize), String> {
    let req_bytes = req.encode();
    let decoded = Request::decode(&req_bytes)?;
    let resp_bytes = resp.encode();
    let back = Response::decode(&resp_bytes)?;
    std::hint::black_box((decoded, back));
    Ok((req_bytes.len(), resp_bytes.len()))
}

/// A catalog entry held in-process: set-up, drain, serial reference reads
/// and the `shard` depth.
#[derive(Clone)]
pub struct TableRef(Arc<TableEntry>);

impl TableRef {
    /// Load `rows` straight into the table and merge to a fully merged
    /// main. The table's scheduler is paused meanwhile so background merges
    /// do not race the load.
    pub fn preload(&self, rows: impl Iterator<Item = Row>, threads: usize) -> Result<(), String> {
        self.0.scheduler().pause();
        load(self.0.table(), rows)?;
        self.drain(threads)
    }

    /// Merge every shard's remaining delta (the final drain). Leaves the
    /// scheduler running.
    pub fn drain(&self, threads: usize) -> Result<(), String> {
        self.0.scheduler().pause();
        let merged = self.0.table().merge_all(threads);
        self.0.scheduler().resume();
        merged.map(|_| ()).map_err(|e| e.to_string())
    }

    /// Stop background merges on a scratch table.
    pub fn pause_merges(&self) {
        self.0.scheduler().pause();
    }

    /// Serial in-process reference run (and the `shard` depth when called
    /// with the request's own thread hint).
    pub fn run(&self, plan: &Plan, threads: usize) -> Answer {
        answer_of(plan, plan.query(threads).run(self.0.table().as_ref()))
    }

    /// One consistent cut of per-shard snapshots, for the `query` and
    /// `bitpack` depths.
    pub fn snapshots(&self) -> Snapshots {
        Snapshots(self.0.table().consistent_snapshots())
    }
}

/// Insert `rows` in 64 Ki-row batches.
fn load(table: &ShardedTable<u64>, rows: impl Iterator<Item = Row>) -> Result<(), String> {
    let mut chunk: Vec<Row> = Vec::with_capacity(1 << 16);
    for row in rows {
        chunk.push(row);
        if chunk.len() == chunk.capacity() {
            table.insert_rows(&chunk).map_err(|e| e.to_string())?;
            chunk.clear();
        }
    }
    table
        .insert_rows(&chunk)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

fn answer_of<R>(plan: &Plan, out: hyrise_query::Output<u64, R>) -> Answer {
    match plan {
        Plan::FusedSum { .. } | Plan::FullSum { .. } => Answer::Sum(out.sum()),
        _ => Answer::Count(out.count() as u64),
    }
}

/// What one kernel call streamed over.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelWork {
    /// Rows of the main partition(s) scanned.
    pub rows: u64,
    /// Packed bytes those rows occupy.
    pub bytes: u64,
    /// Rows the predicates selected (for a sum, the code sum is discarded).
    pub matched: u64,
}

/// Per-shard snapshots of one table.
pub struct Snapshots(Vec<TableSnapshot<u64>>);

impl Snapshots {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Depth `query`: the executor on one shard's snapshot.
    pub fn depth_query(&self, shard: usize, plan: &Plan, threads: usize) -> Answer {
        answer_of(plan, plan.query(threads).run(&self.0[shard]))
    }

    /// Depth `bitpack`: the SWAR kernels the plan bottoms out in, called
    /// directly on the shard's packed main codes (tails are not touched —
    /// their cost stays in the `query` layer's self time).
    pub fn depth_kernel(&self, shard: usize, plan: &Plan) -> KernelWork {
        let snap = &self.0[shard];
        let ids = |p: Pred| {
            snap.col(p.col)
                .main()
                .dictionary()
                .value_id_range(&p.lo, &p.hi)
                .map(|r| (*r.start() as u64, *r.end() as u64))
        };
        let codes = |col: usize| snap.col(col).main().packed_codes();
        let mut work = KernelWork::default();
        for col in plan.scanned_cols() {
            work.rows += codes(col).len() as u64;
            work.bytes += codes(col).packed_bytes() as u64;
        }
        let count =
            |p: Pred| ids(p).map_or(0, |(lo, hi)| codes(p.col).count_in_range(lo, hi) as u64);
        work.matched = match *plan {
            Plan::Lookup { key } => count(Pred {
                col: 0,
                lo: key,
                hi: key,
            }),
            Plan::RangeCount { lo, hi } => count(Pred { col: 0, lo, hi }),
            Plan::EqCount { col, value } => count(Pred {
                col,
                lo: value,
                hi: value,
            }),
            Plan::FusedSum { a, b, .. } => {
                let n = codes(a.col).len();
                let mut masks = vec![0u64; mask_words(n)];
                match (ids(a), ids(b)) {
                    (Some(ia), Some(ib)) => {
                        codes(a.col).fill_range_mask(ia.0, ia.1, &mut masks);
                        codes(b.col).and_range_mask(ib.0, ib.1, &mut masks);
                        let mut rows = Vec::new();
                        rows_from_mask(&masks, n, 0, &mut rows);
                        rows.len() as u64
                    }
                    _ => 0,
                }
            }
            Plan::FullSum { col } => {
                std::hint::black_box(codes(col).sum());
                codes(col).len() as u64
            }
        };
        work
    }
}

/// A table built outside the catalog for the single-table write depths and
/// the merge measurement: no scheduler, no admission.
pub struct ScratchTable(ShardedTable<u64>);

impl ScratchTable {
    /// `wal_dir` selects buffered durability (`fsync: false`), as the
    /// served durable tables use.
    pub fn new(shards: usize, wal_dir: Option<&Path>) -> Result<Self, String> {
        let durability = match wal_dir {
            Some(dir) => Durability::Wal {
                dir: dir.to_path_buf(),
                fsync: false,
            },
            None => Durability::None,
        };
        ShardedTable::<u64>::builder()
            .shards(shards)
            .columns(COLS)
            .durability(durability)
            .build()
            .map(Self)
            .map_err(|e| e.to_string())
    }

    /// Depths `shard` (2 shards), `manager` (1 shard) and, on a durable
    /// table, `wal`.
    pub fn insert(&self, rows: &[Row]) -> Result<(), String> {
        self.0
            .insert_rows(rows)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    /// Bulk insert, for the merge measurement.
    pub fn load(&self, rows: impl Iterator<Item = Row>) -> Result<(), String> {
        load(&self.0, rows)
    }

    /// Merge every shard and report stage times against the Section 7.4
    /// model's prediction for the same scenario.
    pub fn merge(&self, threads: usize, profile: &Profile) -> Result<MergeStages, String> {
        let stats = self.0.merge_all(threads).map_err(|e| e.to_string())?;
        let mut out = MergeStages::default();
        for shard in &stats {
            let t = shard.stage_timings();
            out.step1a_ns += t.step1a.as_nanos() as f64;
            out.step1b_ns += t.step1b.as_nanos() as f64;
            out.step2_ns += t.step2.as_nanos() as f64;
            out.tuples += shard.total_tuples() as f64;
            for col in &shard.columns {
                let scenario = MergeScenario::from_stats(col, std::mem::size_of::<u64>());
                let cycles = profile.0.predict(&scenario).total_cpt() * col.total_tuples() as f64;
                out.predicted_ns += cycles / profile.0.hz * 1e9;
            }
        }
        Ok(out)
    }
}

/// Stage times of one measured merge, summed over shards and columns.
#[derive(Clone, Copy, Debug, Default)]
pub struct MergeStages {
    pub step1a_ns: f64,
    pub step1b_ns: f64,
    pub step2_ns: f64,
    /// `N_M + N_D`, summed over columns.
    pub tuples: f64,
    /// The model's time for the same columns.
    pub predicted_ns: f64,
}

/// A bare delta tail, for the `tail` depth.
pub struct Tail(TailLog<u64>);

impl Tail {
    pub fn new() -> Self {
        Self(TailLog::new(COLS, 0))
    }

    /// Depth `tail`: reserve, set every value, publish.
    pub fn append(&self, rows: &[Row]) -> Result<(), String> {
        let res = self
            .0
            .reserve(rows.len())
            .map_err(|_| "scratch tail sealed".to_string())?;
        for (k, row) in rows.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                res.set(c, k, *v);
            }
        }
        res.publish();
        Ok(())
    }
}

/// The calibrated machine profile of `model::calibrate`.
pub struct Profile(MachineProfile);

impl Profile {
    pub fn calibrate(threads: usize) -> Self {
        Self(calibrate(threads))
    }

    /// Aggregate streaming bandwidth, bytes per second.
    pub fn stream_bytes_per_s(&self) -> f64 {
        self.0.streaming_bytes_per_cycle * self.0.hz
    }
}

/// A durable table re-opened from its directory.
pub struct Recovered(ShardedTable<u64>);

impl Recovered {
    pub fn open(dir: &Path) -> Result<Self, String> {
        recover_sharded::<u64>(dir)
            .map(Self)
            .map_err(|e| format!("recover {}: {e}", dir.display()))
    }

    pub fn valid_rows(&self) -> u64 {
        self.0.valid_row_count() as u64
    }

    pub fn run(&self, plan: &Plan) -> Answer {
        answer_of(plan, plan.query(1).run(&self.0))
    }
}
