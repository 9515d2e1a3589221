//! # nonblocking-commit
//!
//! A full reproduction of Dale Skeen, *"Nonblocking Commit Protocols"*
//! (SIGMOD 1981): the FSA model of commit protocols, the reachable-state
//! analysis behind the fundamental nonblocking theorem, the 2PC/3PC
//! protocol catalog in both the central-site and fully decentralized
//! paradigms, buffer-state synthesis, and an executable engine with the
//! paper's termination and recovery protocols — plus the storage, network,
//! and transaction-manager substrates the system needs.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`nbc_core`] — the formal model and every analysis of the paper;
//! * [`nbc_simnet`] — the reliable network with a perfect failure detector;
//! * [`nbc_storage`] — write-ahead log and transactional KV store;
//! * [`nbc_engine`] — discrete-event execution, crash injection,
//!   termination and recovery protocols, exhaustive sweeps;
//! * [`nbc_txn`] — strict 2PL with wait-die, the protocol catalog as an
//!   enum, and the bank and inventory workloads;
//! * [`nbc_pipeline`] — the transaction driver: stores, WALs and locks
//!   around one or many commit rounds in flight.
//!
//! Start with `examples/quickstart.rs`, or regenerate every figure of the
//! paper with `cargo run -p nbc-bench --bin experiments`.

#![warn(missing_docs)]

pub use nbc_core;
pub use nbc_engine;
pub use nbc_pipeline;
pub use nbc_simnet;
pub use nbc_storage;
pub use nbc_txn;
