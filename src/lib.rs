//! # hyrise — facade crate
//!
//! Reproduction of *Fast Updates on Read-Optimized Databases Using Multi-Core
//! CPUs* (Krueger et al., VLDB 2011): a dictionary-encoded in-memory column
//! store with a write-optimized delta partition and the paper's linear-time,
//! architecture-aware, multi-core delta merge.
//!
//! This crate re-exports the workspace crates under stable module names:
//!
//! * [`bitpack`] — fixed-width bit-packed vectors (`E_C` bits per code).
//! * [`storage`] — dictionaries, main partitions, the tail log and the
//!   frozen (compressed) deltas every merge reads, validity.
//! * [`merge`] — the merge ([`merge::MergePipeline`] under a
//!   [`merge::MergeStrategy`]: naive, optimized, parallel), the analytical
//!   cost model, the one table type [`merge::OnlineTable`] with its online
//!   merge, the one background [`merge::MergeScheduler`] and the shared
//!   worker [`merge::Pool`] every query and merge fans out on.
//! * [`shard`] — the scale-out layer: [`shard::ShardedTable`] partitions
//!   rows across N online tables, each merged independently.
//! * [`query`] — the unified query layer: the [`query::Query`] builder and
//!   the one [`query::Executor`] trait behind every backend (snapshot,
//!   online table, sharded table), with equality/range predicates pushed
//!   down to dictionary value-id space.
//! * [`workload`] — the Section 2 enterprise-data model and generators.
//! * [`server`] — the network front-end: the length-prefixed wire
//!   protocol, the multi-tenant table [`server::Catalog`], the
//!   [`server::AdmissionGate`], the TCP server and the
//!   [`server::Client`] library.
//!
//! Durability lives in [`merge`]: build a crash-durable table with
//! [`ShardedTableBuilder`] (one shard unless asked for more) +
//! [`Durability::Wal`], and reopen it after a crash with
//! [`recover_sharded`].
//!
//! See `examples/quickstart.rs` for a guided tour and `DESIGN.md` for the
//! paper-to-module map.

pub mod driver;

pub use hyrise_bitpack as bitpack;
pub use hyrise_core as merge;
pub use hyrise_core::shard;
pub use hyrise_core::{recover_sharded, Durability, Error, Result, ShardedTableBuilder};
pub use hyrise_query as query;
pub use hyrise_server as server;
pub use hyrise_storage as storage;
pub use hyrise_workload as workload;
