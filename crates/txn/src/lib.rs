//! # nbc-txn — what a transaction driver is made of
//!
//! The paper motivates unilateral aborts with local concurrency control:
//! *"a server may not be able to commit its part of a transaction due to
//! issues of concurrency control — e.g. the resolution of a deadlock, when
//! a locking scheme is adopted."* This crate supplies that application
//! layer:
//!
//! * [`LockManager`] — a per-site lock manager with shared/exclusive locks and
//!   **wait-die** deadlock avoidance, so no votes arise organically;
//! * [`ProtocolKind`]: which catalog protocol (2PC or 3PC, central or
//!   decentralized, or Paxos Commit) every round runs, and the termination
//!   rule that goes with it;
//! * the data operations of a distributed transaction ([`Op`]) and
//!   bank-transfer and inventory generators whose conservation invariants
//!   hold iff the commit protocol is atomic.
//!
//! The driver that puts these around commit rounds — stores, WALs,
//! admission, blocked rounds that keep their locks — is `nbc-pipeline`;
//! one round at a time is that scheduler at in-flight 1.

mod kind;
mod locks;
mod workload;

pub use kind::ProtocolKind;
pub use locks::{LockManager, LockMode, LockOutcome};
pub use workload::{BankWorkload, InventoryWorkload, Op};
