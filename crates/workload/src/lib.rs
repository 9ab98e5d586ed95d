//! The Section 2 enterprise-data model and workload generators.
//!
//! The paper grounds its design in an analysis of 12 SAP Business Suite
//! customer systems (~74,000 tables each, 32 billion records inspected). We
//! cannot ship customer data, so this crate reconstructs the *published
//! aggregates* as generative models — every number the paper reports in
//! Figures 1–4 and the Section 2 "Merge Duration" scenario is encoded here
//! and can be re-emitted (that is what the `fig1..fig4` harness binaries do)
//! or sampled from (that is how the benchmark workloads pick their
//! parameters):
//!
//! * [`QueryMix`] — Figure 1's query-type distribution for OLTP, OLAP and
//!   TPC-C-like workloads.
//! * [`TableSizeModel`] — Figure 2's histogram of 73,979 tables by row count.
//! * [`LargeTableModel`] — Figure 3's 144 largest tables (rows 10M–1.6B,
//!   average 65M; columns 2–399, average 70).
//! * [`DistinctValueModel`] — Figure 4's distinct-value buckets for
//!   Inventory Management and Financial Accounting columns.
//! * [`VbapScenario`] — the VBAP sales-order merge scenario (33M rows, 230
//!   columns, 750k-row delta) with a scale knob.
//! * [`values`] — uniform value generators with exact unique-value counts
//!   (the `lambda` control of Section 7's experiments).

pub mod enterprise;
pub mod scenario;
pub mod updates;
pub mod values;

pub use enterprise::{DistinctValueModel, LargeTableModel, QueryMix, QueryType, TableSizeModel};
pub use scenario::VbapScenario;
pub use updates::{Operation, UpdateStream};
pub use values::{values_with_unique, UniqueSpec};
