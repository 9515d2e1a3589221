//! # nbc-pipeline — the transaction driver: a concurrent commit scheduler
//!
//! The rest of the repository studies one commit round at a time. This
//! crate puts per-site stores, WALs and lock tables around the rounds and
//! asks the throughput question: what happens when the sites keep *many*
//! distributed transactions in flight, each running its own 2PC/3PC
//! round over shared sites, logs, and lock tables? It is the only driver:
//! one round at a time is [`PipelineConfig`] at in-flight 1.
//!
//! Three mechanisms interact:
//!
//! * **Multiplexing** — every round is an independent [`nbc_engine`]
//!   simulation tagged with its transaction id and started mid-timeline;
//!   the scheduler interleaves all pending events in global time order,
//!   so the merged execution is one deterministic discrete-event history.
//! * **Group commit** — per-site WALs batch sync requests inside a
//!   configurable window ([`nbc_storage::Wal::sync_batched`]); the report
//!   counts how many physical forces the overlap saved.
//! * **Admission control** — wait-die locking at admission, with parked
//!   (waiting) transactions, classic die-and-retry restarts, and
//!   termination-protocol reaping of blocked 2PC rounds so strand-locks
//!   are a measurable cost instead of a wedge.
//!
//! Everything is deterministic: the same seed produces the same
//! interleaving and a bit-identical [`ThroughputReport`].

mod report;
mod scheduler;
mod txn;

pub use report::ThroughputReport;
pub use scheduler::{Pipeline, PipelineConfig, MAX_REAP_AFTER};
pub use txn::{bank_transfer_txns, PipelineTxn};
