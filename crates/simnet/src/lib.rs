//! # nbc-simnet — the network substrate of the reproduction
//!
//! Skeen's model assumes an idealized network (paper §"Design
//! assumptions"): it *provides point-to-point communication and never
//! fails*, and it *can detect the failure of a site and reliably report it
//! to an operational site*. This crate implements exactly that substrate as
//! a deterministic discrete-event message fabric:
//!
//! * [`Network`] — reliable point-to-point delivery with per-link FIFO
//!   ordering and a pluggable [`LatencyModel`];
//! * a **perfect failure detector**: when a site crashes, every site that
//!   is operational at detection time receives a [`NetEvent::FailureNotice`]
//!   after a configurable detection delay;
//! * deterministic tie-breaking (a global sequence number) so that two runs
//!   with the same seed replay identically.
//!
//! The fabric is generic over the message type `M`; the protocol engine
//! instantiates it with its wire enum.

mod detector;
mod latency;
mod net;
mod rng;

pub use detector::{DetectorEvent, Suspicion};
pub use latency::LatencyModel;
pub use net::{NetEvent, Network, Time};
pub use rng::SimRng;
