//! # nbc-core — the formal model of *Nonblocking Commit Protocols*
//!
//! This crate is a faithful implementation of the formal machinery of Dale
//! Skeen's *"Nonblocking Commit Protocols"* (SIGMOD 1981):
//!
//! * commit protocols as communicating **finite state automata**
//!   ([`fsa`], [`protocol`]), with the paper's complete **protocol
//!   catalog** ([`protocols`]: 1PC, central-site and decentralized 2PC and
//!   3PC) and the **canonical** single-automaton forms ([`canonical`]);
//! * **global transaction states** and the **reachable state graph**
//!   ([`reach`]);
//! * **concurrency sets** and **committable states** ([`analysis`]);
//! * the **fundamental nonblocking theorem** ([`theorem`]), its
//!   **k-resiliency corollary** ([`resilience`]), and the
//!   synchronous-protocol **Lemma** ([`canonical`], [`sync_check`]);
//! * the paper's design method — **buffer-state synthesis** that turns
//!   blocking protocols into nonblocking ones ([`synthesis`]);
//! * **termination decision rules** for backup coordinators
//!   ([`termination`]);
//! * DOT rendering of every figure ([`dot`]).
//!
//! The *execution* side — a discrete-event engine with crash injection,
//! elections, the full termination and recovery protocols — lives in the
//! companion crate `nbc-engine`.
//!
//! ## Quick example
//!
//! ```
//! use nbc_core::protocols::{central_2pc, central_3pc};
//! use nbc_core::theorem;
//!
//! // 2PC violates the fundamental nonblocking theorem...
//! let r2 = theorem::check(&central_2pc(3)).unwrap();
//! assert!(!r2.nonblocking());
//!
//! // ...and 3PC satisfies it.
//! let r3 = theorem::check(&central_3pc(3)).unwrap();
//! assert!(r3.nonblocking());
//! ```
//!
//! ## Synthesizing a nonblocking protocol
//!
//! ```
//! use nbc_core::protocols::central_2pc;
//! use nbc_core::{synthesis, theorem};
//!
//! let blocking = central_2pc(4);
//! let nonblocking = synthesis::make_nonblocking(&blocking).unwrap();
//! assert!(theorem::check(&nonblocking).unwrap().nonblocking());
//! assert_eq!(nonblocking.phase_count(), 3); // 2PC + buffer round = 3PC
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod canonical;
pub mod codec;
pub mod dot;
pub mod error;
pub mod extmem;
mod facts;
pub mod fp128;
pub mod fsa;
pub mod ids;
pub mod kpc;
pub mod protocol;
pub mod protocols;
pub mod reach;
pub mod recovery_analysis;
pub mod resilience;
pub mod symmetry;
pub mod sync_check;
pub mod synthesis;
pub mod termination;
pub mod theorem;
pub mod verify;

pub use analysis::Analysis;
pub use codec::{PackedArena, StateCodec};
pub use error::ProtocolError;
pub use extmem::{RunSet, SpillStats};
pub use fp128::{Fp128, FpBuildHasher, MultisetFp};
pub use fsa::{Consume, Envelope, Fsa, FsaBuilder, StateClass, StateInfo, Transition, Vote};
pub use ids::{MsgKind, SiteId, StateId};
pub use protocol::{InitialMsg, Paradigm, Protocol};
pub use reach::{
    auto_threads, fingerprint128, Count, GlobalState, GraphStats, LevelProgress, ReachGraph,
    ReachOptions, StreamStats, MAX_THREADS,
};
pub use symmetry::Symmetry;
pub use termination::Decision;
pub use theorem::{TheoremReport, Violation};
