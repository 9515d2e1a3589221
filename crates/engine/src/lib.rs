//! # nbc-engine — executing commit protocols under failures
//!
//! `nbc-core` *analyzes* commit protocols; this crate *runs* them. A
//! [`Runner`] executes one distributed transaction over the simulated
//! network of `nbc-simnet`, with each site persisting its progress through
//! the WAL of `nbc-storage`, under a configurable vote plan and crash
//! schedule — including the paper's **non-atomic transition** failures
//! (crash after sending only a prefix of a transition's messages).
//!
//! On top of normal execution it implements the protocols the paper builds
//! around commit processing:
//!
//! * the **termination protocol** (§"Termination Protocols"): backup
//!   coordinator election, the two-phase backup protocol (align + decide),
//!   the paper's decision rule in its canonical class-based form, cascaded
//!   re-election when backups crash, and a cooperative variant; plus the
//!   deliberately *unsafe* verbatim rule used to demonstrate why blocking
//!   protocols cannot be terminated safely;
//! * the **recovery protocol**: restart from the durable log, unilateral
//!   abort when the site crashed before voting, outcome queries, and
//!   cooperative total-failure recovery;
//! * an **invariant auditor** ([`RunReport`]): every run is checked for
//!   atomicity (no mixed commit/abort, durable logs of crashed sites
//!   included) and for the nonblocking verdict (did every operational site
//!   reach a decision?);
//! * **exhaustive crash sweeps** ([`mod@sweep`]): enumerate every crash point
//!   (every transition of every site, at every message boundary) and run
//!   them all — the experimental face of the fundamental nonblocking
//!   theorem.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod class_map;
pub mod config;
pub mod decide;
#[cfg(test)]
mod digest_tests;
pub mod explore;
pub mod report;
pub mod run;
pub mod site;
pub mod sweep;
pub mod wire;

pub use config::{
    CrashPoint, CrashSpec, DetectorSpec, PartitionSpec, RunConfig, TerminationRule,
    TransitionProgress,
};
pub use decide::ClassDecisions;
pub use explore::{channel_of, Channel};
pub use report::{RunReport, SiteOutcome};
pub use run::{run_one, run_traced, run_with, AnalysisSource, Runner};
pub use sweep::{enumerate_crash_specs, sweep, sweep_traced, SweepSummary};
pub use wire::Wire;
