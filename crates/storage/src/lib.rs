//! # nbc-storage — per-site local recovery substrate
//!
//! The paper assumes *each site has a local recovery strategy that provides
//! atomicity at the local level* (§"Enforcing atomicity of distributed
//! transactions"). This crate is that strategy:
//!
//! * [`Wal`] — a write-ahead log with a checksummed, length-prefixed binary
//!   record format. The log holds both the *distributed-transaction (DT)
//!   log* records that commit protocols persist at every state transition
//!   (progress, votes, decisions, termination-protocol alignments) and the
//!   data records (redo images) of the updates themselves. Crash semantics
//!   are explicit: only the [`Wal::sync`]ed prefix survives a crash, and
//!   recovery stops cleanly at a torn or corrupt tail.
//! * [`KvStore`] — a small key-value store with deferred-update transactions:
//!   writes are staged per transaction, logged, and applied only on commit,
//!   so an abort (or a crash before the decision) leaves no trace.
//! * [`recovery`] — folds a recovered record stream into the per-
//!   transaction protocol state a restarting site resumes from; this is the
//!   local half of the paper's *recovery protocol*.

mod codec;
pub mod crc32;
mod kv;
pub mod recovery;
mod wal;

pub use kv::KvStore;
pub use recovery::TxnOutcome;
pub use wal::{LogRecord, SyncStats, Wal};
