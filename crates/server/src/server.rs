//! The TCP server: a listener, a sized worker pool, and the request
//! dispatcher that routes every wire call through the admission gate and
//! the catalog.
//!
//! The build container is offline, so there is no async runtime: the
//! server is `std::net` all the way down. One accept thread hands
//! connections to `workers` pool threads over a channel; each worker owns
//! one connection at a time and serves its requests back-to-back
//! (connection-reuse is the client's cheap path — one TCP handshake per
//! client, not per request). Worker reads run under a short socket
//! timeout so every worker notices the stop flag within one idle-poll
//! interval, making shutdown graceful: stop flag, a self-connect to
//! unblock `accept`, join everything, stop every table's scheduler.
//!
//! Engine integration is deliberately thin: query execution bumps the
//! executors' internal [`hyrise_core::begin_read`] counters (the in-flight
//! count the server's stats report), and inserts land in the same
//! per-shard deltas whose growth the merge policy's write-pressure factor
//! samples and whose insert counters the admission gate's write valve
//! differences — one feedback loop, observed from both ends.

use crate::admission::{AdmissionGate, ReadAdmission, WriteAdmission};
use crate::catalog::{Catalog, CatalogError, TableEntry};
use crate::protocol::{
    read_frame, write_frame, Admission, Body, ErrorCode, FrameError, FrameEvent, Request, Response,
    ServerStatsBody, TableStatsBody, WireError, WireOutput,
};
use hyrise_query::{Action, Query};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Socket read timeout — the worker's stop-flag poll interval.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// Server construction knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker pool size = max concurrently served connections (excess
    /// accepted connections wait in the hand-off queue).
    pub workers: usize,
    /// Admission valve knobs.
    pub admission: crate::admission::AdmissionConfig,
    /// Catalog knobs (data dir, per-table scheduler profile).
    pub catalog: crate::catalog::CatalogConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 8,
            admission: crate::admission::AdmissionConfig::default(),
            catalog: crate::catalog::CatalogConfig::default(),
        }
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    catalog: Arc<Catalog>,
    gate: Arc<AdmissionGate>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The table catalog (in-process callers may inspect or seed it).
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The admission gate (tests read its counters directly).
    pub fn gate(&self) -> &Arc<AdmissionGate> {
        &self.gate
    }

    /// Graceful shutdown: stop accepting, drain workers, stop every
    /// table's merge scheduler. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.catalog.shutdown();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:0"`) and start serving.
pub fn start(addr: &str, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let catalog = Arc::new(Catalog::new(config.catalog.clone()));
    let gate = Arc::new(AdmissionGate::new(config.admission.clone()));

    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));

    let workers = (0..config.workers.max(1))
        .map(|_| {
            let rx = Arc::clone(&rx);
            let stop = Arc::clone(&stop);
            let catalog = Arc::clone(&catalog);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || loop {
                // Holding the receiver lock only for the recv keeps the
                // pool work-stealing: any idle worker takes the next
                // connection.
                let conn = {
                    let guard = rx.lock().unwrap();
                    guard.recv_timeout(IDLE_POLL)
                };
                match conn {
                    Ok(stream) => serve_connection(stream, &catalog, &gate, &stop),
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => return,
                }
            })
        })
        .collect();

    let accept = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if let Ok(s) = stream {
                    // A send only fails after shutdown dropped the pool.
                    if tx.send(s).is_err() {
                        break;
                    }
                }
            }
        })
    };

    Ok(ServerHandle {
        addr: local,
        stop,
        accept: Some(accept),
        workers,
        catalog,
        gate,
    })
}

/// Serve one connection until it closes, errors, or the server stops.
/// Malformed payloads are answered with [`ErrorCode::Protocol`] and the
/// connection continues; only transport-level failures (torn or oversized
/// frames) end it — and even then the *worker* survives to take the next
/// connection.
fn serve_connection(
    mut stream: TcpStream,
    catalog: &Catalog,
    gate: &AdmissionGate,
    stop: &AtomicBool,
) {
    if stream.set_read_timeout(Some(IDLE_POLL)).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    let give_up = || stop.load(Ordering::Relaxed);
    loop {
        match read_frame(&mut stream, &give_up) {
            Ok(FrameEvent::Frame(payload)) => {
                let response = match Request::decode(&payload) {
                    Ok(req) => handle_request(catalog, gate, req),
                    Err(detail) => Response::err(ErrorCode::Protocol, detail),
                };
                if write_frame(&mut stream, &response.encode()).is_err() {
                    return;
                }
            }
            Ok(FrameEvent::Idle) => {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
            }
            Ok(FrameEvent::Closed) => return,
            Err(FrameError::Oversized(n)) => {
                // Answer, then drop the connection: the unread payload
                // makes the stream unresumable.
                let resp = Response::err(
                    ErrorCode::Protocol,
                    format!("frame length {n} exceeds the cap"),
                );
                let _ = write_frame(&mut stream, &resp.encode());
                return;
            }
            Err(FrameError::Torn) | Err(FrameError::Io(_)) => return,
        }
    }
}

fn catalog_error(e: CatalogError) -> Response {
    match e {
        CatalogError::AlreadyExists(n) => Response::err(
            ErrorCode::TableExists,
            format!("table '{n}' already exists"),
        ),
        CatalogError::NoSuchTable(n) => {
            Response::err(ErrorCode::NoSuchTable, format!("no such table '{n}'"))
        }
        CatalogError::InvalidSpec(d) => Response::err(ErrorCode::Config, d),
        CatalogError::Engine(e) => Response {
            admission: Admission::Admit,
            result: Err(WireError::from_engine(&e)),
        },
    }
}

/// Reject plans that would index out of the table's column space (the
/// executors index unchecked — by the time a plan runs it must be valid).
fn validate_plan(plan: &Query<u64>, columns: usize) -> Result<(), String> {
    for p in plan.predicates() {
        if p.col >= columns {
            return Err(format!(
                "predicate column {} out of range (table has {columns})",
                p.col
            ));
        }
    }
    match plan.action() {
        Action::Project(cols) => {
            for c in cols {
                if *c >= columns {
                    return Err(format!(
                        "projected column {c} out of range (table has {columns})"
                    ));
                }
            }
        }
        Action::Sum(c) | Action::MinMax(c) => {
            if *c >= columns {
                return Err(format!(
                    "aggregate column {c} out of range (table has {columns})"
                ));
            }
        }
        Action::Rows | Action::Count => {}
    }
    Ok(())
}

/// Gate a write against `entry`'s backlog and rates; `Ok` admits.
fn gate_write(gate: &AdmissionGate, entry: &TableEntry) -> Result<(), Response> {
    let backlog = entry.table().delta_len();
    let inserted = entry.inserted_rows();
    let merged = entry.scheduler().stats().tuples_merged;
    let mut window = entry.write_window().lock().unwrap();
    match gate.admit_write(&mut window, backlog, inserted, merged) {
        WriteAdmission::Admit => Ok(()),
        WriteAdmission::Throttle { retry_after } => {
            let retry_after_ms = retry_after.as_millis().min(u32::MAX as u128) as u32;
            Err(Response {
                admission: Admission::Throttled { retry_after_ms },
                result: Err(WireError::new(
                    ErrorCode::Throttled,
                    "insert rate exceeds merge drain rate; back off and retry",
                )),
            })
        }
    }
}

/// Dispatch one decoded request. Never panics on untrusted input: every
/// table lookup, width check and plan bound is validated before the
/// engine sees it.
pub(crate) fn handle_request(catalog: &Catalog, gate: &AdmissionGate, req: Request) -> Response {
    match req {
        Request::Ping => Response::ok(Body::Pong),
        Request::CreateTable(spec) => match catalog.create(&spec) {
            Ok(()) => Response::ok(Body::Unit),
            Err(e) => catalog_error(e),
        },
        Request::DropTable { name } => match catalog.drop_table(&name) {
            Ok(()) => Response::ok(Body::Unit),
            Err(e) => catalog_error(e),
        },
        Request::ListTables => Response::ok(Body::Tables(catalog.list())),
        Request::Insert { table, rows } => {
            let entry = match catalog.get(&table) {
                Ok(e) => e,
                Err(e) => return catalog_error(e),
            };
            let columns = entry.table().num_columns();
            if let Some(bad) = rows.iter().position(|r| r.len() != columns) {
                return Response::err(
                    ErrorCode::Config,
                    format!(
                        "row {bad} has {} values, table has {columns} columns",
                        rows[bad].len()
                    ),
                );
            }
            if let Err(resp) = gate_write(gate, &entry) {
                return resp;
            }
            match entry.table().insert_rows(&rows) {
                Ok(ids) => Response::ok(Body::RowIds(ids.into_iter().map(Into::into).collect())),
                Err(e) => Response {
                    admission: Admission::Admit,
                    result: Err(WireError::from_engine(&e)),
                },
            }
        }
        Request::Delete { table, ids } => {
            let entry = match catalog.get(&table) {
                Ok(e) => e,
                Err(e) => return catalog_error(e),
            };
            if let Err(resp) = gate_write(gate, &entry) {
                return resp;
            }
            // One write: on a durable table the batch is one log frame. The
            // engine checks every id first, so a rejected batch leaves the
            // table as it was.
            let ids: Vec<_> = ids.into_iter().map(Into::into).collect();
            match entry.table().delete_rows(&ids) {
                Ok(()) => Response::ok(Body::Unit),
                Err(e) => Response {
                    admission: Admission::Admit,
                    result: Err(WireError::from_engine(&e)),
                },
            }
        }
        Request::Query { table, plan } => {
            let entry = match catalog.get(&table) {
                Ok(e) => e,
                Err(e) => return catalog_error(e),
            };
            if let Err(detail) = validate_plan(&plan, entry.table().num_columns()) {
                return Response::err(ErrorCode::Config, detail);
            }
            let t = Arc::clone(entry.table());
            match gate.admit_read(
                || t.memory_report().total(),
                || catalog.pool().queue_depth(),
            ) {
                ReadAdmission::Shed => Response {
                    admission: Admission::Shed,
                    result: Err(WireError::new(
                        ErrorCode::Shed,
                        "read shed under memory pressure; retry later",
                    )),
                },
                ReadAdmission::Admit { waited, queued } => {
                    // The executor takes its own `begin_read` guard, so
                    // this query counts in `reads_in_flight` for its whole
                    // execution.
                    let out = plan.run(t.as_ref());
                    let admission = if queued {
                        Admission::Queued {
                            waited_ms: waited.as_millis().min(u32::MAX as u128) as u32,
                        }
                    } else {
                        Admission::Admit
                    };
                    Response {
                        admission,
                        result: Ok(Body::Output(WireOutput::from_output(out))),
                    }
                }
            }
        }
        Request::TableStats { table } => {
            let entry = match catalog.get(&table) {
                Ok(e) => e,
                Err(e) => return catalog_error(e),
            };
            let t = entry.table();
            let stats = entry.scheduler().stats();
            Response::ok(Body::TableStats(TableStatsBody {
                columns: t.num_columns() as u64,
                rows: t.row_count() as u64,
                valid_rows: t.valid_row_count() as u64,
                delta_rows: t.delta_len() as u64,
                merges: stats.merges,
                tuples_merged: stats.tuples_merged,
                memory_bytes: t.memory_report().total() as u64,
            }))
        }
        Request::ServerStats => {
            let s = gate.stats();
            Response::ok(Body::ServerStats(ServerStatsBody {
                admitted_reads: s.admitted_reads,
                queued_reads: s.queued_reads,
                shed_reads: s.shed_reads,
                admitted_writes: s.admitted_writes,
                throttled_writes: s.throttled_writes,
                reads_in_flight: hyrise_core::read_load().in_flight(),
                open_tables: catalog.len() as u64,
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::catalog::CatalogConfig;
    use crate::protocol::TableSpec;

    fn fixture() -> (Catalog, AdmissionGate) {
        (
            Catalog::new(CatalogConfig::default()),
            AdmissionGate::new(AdmissionConfig::default()),
        )
    }

    #[test]
    fn dispatch_covers_the_happy_path() {
        let (catalog, gate) = fixture();
        let r = handle_request(&catalog, &gate, Request::Ping);
        assert_eq!(r.result, Ok(Body::Pong));
        let r = handle_request(
            &catalog,
            &gate,
            Request::CreateTable(TableSpec::volatile("t", 2, 2)),
        );
        assert_eq!(r.result, Ok(Body::Unit));
        let r = handle_request(
            &catalog,
            &gate,
            Request::Insert {
                table: "t".into(),
                rows: vec![vec![1, 10], vec![2, 20], vec![1, 30]],
            },
        );
        let ids = match r.result {
            Ok(Body::RowIds(ids)) => ids,
            other => panic!("{other:?}"),
        };
        assert_eq!(ids.len(), 3);
        let r = handle_request(
            &catalog,
            &gate,
            Request::Query {
                table: "t".into(),
                plan: Query::scan(0).eq(1).count(),
            },
        );
        assert_eq!(r.result, Ok(Body::Output(WireOutput::Count(2))));
        let r = handle_request(
            &catalog,
            &gate,
            Request::Delete {
                table: "t".into(),
                ids: vec![ids[0]],
            },
        );
        assert_eq!(r.result, Ok(Body::Unit));
        let r = handle_request(
            &catalog,
            &gate,
            Request::Query {
                table: "t".into(),
                plan: Query::scan(0).eq(1).count(),
            },
        );
        assert_eq!(r.result, Ok(Body::Output(WireOutput::Count(1))));
    }

    /// Frames in the table log of the durable table at `root` (a frame is
    /// a `u32` payload length, a `u32` CRC and the payload).
    fn log_frames(root: &std::path::Path) -> usize {
        let mut frames = 0;
        for entry in std::fs::read_dir(root).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|e| e != "wal") {
                continue;
            }
            let bytes = std::fs::read(&path).unwrap();
            let mut off = 0;
            while off + 8 <= bytes.len() {
                off += 8 + u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
                frames += 1;
            }
        }
        frames
    }

    #[test]
    fn a_delete_batch_is_one_log_frame() {
        let dir = std::env::temp_dir().join(format!("hyrise-server-delete-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // No merge runs, so no seal frame joins the count.
        let mut policy = CatalogConfig::default().policy;
        policy.delta_fraction = f64::MAX;
        let catalog = Catalog::new(CatalogConfig {
            data_dir: Some(dir.clone()),
            policy,
        });
        let gate = AdmissionGate::new(AdmissionConfig::default());
        let r = handle_request(
            &catalog,
            &gate,
            Request::CreateTable(TableSpec::durable("d", 2, 2, false)),
        );
        assert_eq!(r.result, Ok(Body::Unit));
        let rows = (0..16).map(|k| vec![k, k * 10]).collect();
        let ids = match handle_request(
            &catalog,
            &gate,
            Request::Insert {
                table: "d".into(),
                rows,
            },
        )
        .result
        {
            Ok(Body::RowIds(ids)) => ids,
            other => panic!("{other:?}"),
        };
        assert!(ids.iter().any(|id| id.shard == 0) && ids.iter().any(|id| id.shard == 1));
        let before = log_frames(&dir.join("d"));
        let r = handle_request(
            &catalog,
            &gate,
            Request::Delete {
                table: "d".into(),
                ids,
            },
        );
        assert_eq!(r.result, Ok(Body::Unit));
        assert_eq!(
            log_frames(&dir.join("d")),
            before + 1,
            "a 16-id batch on two shards"
        );
        drop(catalog);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dispatch_rejects_bad_inputs_with_typed_errors() {
        let (catalog, gate) = fixture();
        let r = handle_request(
            &catalog,
            &gate,
            Request::Query {
                table: "ghost".into(),
                plan: Query::scan(0).count(),
            },
        );
        assert!(matches!(r.result, Err(ref e) if e.code == ErrorCode::NoSuchTable));

        handle_request(
            &catalog,
            &gate,
            Request::CreateTable(TableSpec::volatile("t", 2, 1)),
        );
        // Wrong row width.
        let r = handle_request(
            &catalog,
            &gate,
            Request::Insert {
                table: "t".into(),
                rows: vec![vec![1, 2, 3]],
            },
        );
        assert!(matches!(r.result, Err(ref e) if e.code == ErrorCode::Config));
        // Out-of-range plan column.
        let r = handle_request(
            &catalog,
            &gate,
            Request::Query {
                table: "t".into(),
                plan: Query::scan(9).eq(1).count(),
            },
        );
        assert!(matches!(r.result, Err(ref e) if e.code == ErrorCode::Config));
        // Out-of-range delete id.
        let r = handle_request(
            &catalog,
            &gate,
            Request::Delete {
                table: "t".into(),
                ids: vec![crate::protocol::WireRowId { shard: 7, row: 0 }],
            },
        );
        assert!(matches!(r.result, Err(ref e) if e.code == ErrorCode::Config));
        // A batch with one valid and one out-of-range id is rejected
        // whole: the valid row is not deleted.
        let r = handle_request(
            &catalog,
            &gate,
            Request::Insert {
                table: "t".into(),
                rows: vec![vec![5, 50]],
            },
        );
        let valid = match r.result {
            Ok(Body::RowIds(ids)) => ids[0],
            other => panic!("{other:?}"),
        };
        let r = handle_request(
            &catalog,
            &gate,
            Request::Delete {
                table: "t".into(),
                ids: vec![valid, crate::protocol::WireRowId { shard: 7, row: 0 }],
            },
        );
        assert!(matches!(r.result, Err(ref e) if e.code == ErrorCode::Config));
        let r = handle_request(
            &catalog,
            &gate,
            Request::Query {
                table: "t".into(),
                plan: Query::scan(0).eq(5).count(),
            },
        );
        assert_eq!(r.result, Ok(Body::Output(WireOutput::Count(1))));
    }
}
