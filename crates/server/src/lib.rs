//! The network front-end: a servable front door for the engine.
//!
//! Everything below this crate is a library embedded in one process; this
//! crate makes it a *service* — the gap between reproducing the paper's
//! single-process evaluation and the ROADMAP's "system heavy traffic
//! could hit". Five pieces:
//!
//! * [`protocol`] — the dependency-free wire format: length-prefixed
//!   binary frames carrying the query-builder surface (scan / eq /
//!   between / and, project / sum / min_max / count), batched inserts and
//!   deletes, and catalog management; every response stamped with the
//!   admission decision.
//! * [`catalog`] — the multi-tenant registry of named tables, each
//!   durable or volatile (the PR-7 builder surface underneath) with its
//!   own merge scheduler under the catalog's merge policy.
//! * [`admission`] — the [`admission::AdmissionGate`]: reads shed or
//!   queue under memory pressure, writes throttle when the sustained
//!   insert rate outruns the merge drain rate (the paper's Equation 1
//!   race, enforced at the front door). Decisions are pure functions;
//!   the gate only adds counters and a bounded queue.
//! * [`server`] — `std::net` TCP: one accept thread, a sized worker
//!   pool, graceful shutdown; served writes grow the same deltas the merge
//!   schedulers' policies sample.
//! * [`client`] — the connection-reusing [`client::Client`] with typed
//!   errors.
//!
//! ```
//! use hyrise_server::client::Client;
//! use hyrise_server::protocol::TableSpec;
//! use hyrise_server::server::{start, ServerConfig};
//! use hyrise_query::Query;
//!
//! let mut srv = start("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut c = Client::connect(srv.addr()).unwrap();
//! c.create_table(&TableSpec::volatile("t", 2, 2)).unwrap();
//! c.insert("t", &[vec![1, 10], vec![2, 20], vec![1, 30]]).unwrap();
//! let out = c.query("t", &Query::scan(0).eq(1).count()).unwrap();
//! assert_eq!(out.count(), Some(2));
//! srv.shutdown();
//! ```

pub mod admission;
pub mod catalog;
pub mod client;
pub mod protocol;
pub mod server;

pub use admission::{AdmissionConfig, AdmissionGate, AdmissionStats};
pub use catalog::{Catalog, CatalogConfig, CatalogError, TableEntry};
pub use client::{Client, ClientError, ClientResult};
pub use protocol::{Admission, ErrorCode, Request, Response, TableSpec, WireOutput, WireRowId};
pub use server::{start, ServerConfig, ServerHandle};
