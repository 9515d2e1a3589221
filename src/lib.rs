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
//! This umbrella crate is the one door to the workspace: the front end,
//! the experiments, the examples and the integration tests import through
//! its seven roles, never through a member crate's name, so a crate that
//! moves changes one line here.
//!
//! * [`model`] — the FSA model, the protocol catalog (Paxos Commit in
//!   [`model::paxos`], the spec parser in [`model::spec`]) and every
//!   analysis of the paper;
//! * [`engine`] — execution under failures: crash injection, the
//!   termination and recovery protocols, exhaustive crash-point sweeps;
//! * [`check`] — the schedule-exploring model checker and its witnesses;
//! * [`pipeline`] — the transaction driver, its locks and its workloads;
//! * [`storage`] — write-ahead log and transactional KV store;
//! * [`net`] — the simulated network and its failure detector;
//! * [`obs`] — events, traces, metrics and the JSON they are written in.
//!
//! ```
//! use nonblocking_commit::model::protocols::{central_2pc, central_3pc};
//! use nonblocking_commit::model::{synthesis, theorem};
//!
//! // 2PC violates the fundamental nonblocking theorem…
//! assert!(!theorem::check(&central_2pc(3)).unwrap().nonblocking());
//! // …3PC satisfies it…
//! assert!(theorem::check(&central_3pc(3)).unwrap().nonblocking());
//! // …and the paper's synthesis turns the former into the latter.
//! let fixed = synthesis::make_nonblocking(&central_2pc(3)).unwrap();
//! assert!(theorem::check(&fixed).unwrap().nonblocking());
//! ```
//!
//! Start with `examples/quickstart.rs`, or regenerate every figure of the
//! paper with `cargo run -p nbc-bench --bin experiments`.

/// The paper's model: FSAs, the protocol catalog, reachable state graphs,
/// the nonblocking theorem, synthesis and termination rules.
pub mod model {
    pub use nbc_core::*;
    /// Paxos Commit (Gray–Lamport) as a protocol of the model.
    pub use nbc_paxos as paxos;
}

/// Execution under failures: the discrete-event engine, crash injection,
/// the termination and recovery protocols, sweeps.
pub mod engine {
    pub use nbc_engine::*;
}

/// The model checker: exhaustive schedule exploration, oracles, replayable
/// and shrunk counterexamples.
pub mod check {
    pub use nbc_check::*;
}

/// The transaction driver: many commit rounds in flight over shared
/// stores, WALs and lock tables, with its workloads.
pub mod pipeline {
    pub use nbc_pipeline::*;
    pub use nbc_txn::*;
}

/// Per-site storage: the write-ahead log and the transactional KV store.
pub mod storage {
    pub use nbc_storage::*;
}

/// The simulated network: delivery, latency, partitions and the failure
/// detector.
pub mod net {
    pub use nbc_simnet::*;
}

/// Observability: events, sinks, traces, metrics and their analysis.
pub mod obs {
    pub use nbc_obs::*;
}
