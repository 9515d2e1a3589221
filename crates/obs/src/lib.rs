//! # nbc-obs — structured observability for the execution stack
//!
//! The rest of the workspace *runs* commit protocols; this crate lets you
//! *see* a run. It is a dependency-free tracing and metrics layer with
//! three design rules:
//!
//! * **Typed events, keyed to paper concepts.** Every [`Event`] carries
//!   simulation [`Event::time`], the acting site, the transaction id, and
//!   an [`EventKind`] drawn from the taxonomy of Skeen's SIGMOD 1981 paper
//!   and its companions: local state transitions (`q_i → w_i`), message
//!   send/deliver/drop, votes, decisions, crashes and recoveries,
//!   backup-election rounds, WAL appends/fsyncs/compactions, and scheduler
//!   admission events. Gray & Lamport's *Consensus on Transaction Commit*
//!   compares commit protocols by messages, delays, and stable writes per
//!   transaction — exactly the counts this taxonomy makes recoverable.
//!
//! * **Zero overhead when disabled.** A [`Tracer`] is either off (a
//!   `None`, one branch per call-site) or holds a list of [`Sink`]s.
//!   [`Tracer::emit`] takes a closure, so the event — and every string in
//!   it — is only constructed when a sink is attached.
//!
//! * **Deterministic output.** Events are stamped with simulation time,
//!   never wall-clock time, and sinks record them in emission order. The
//!   same protocol, seed, and configuration produce a byte-identical
//!   JSONL trace at any analysis thread count.
//!
//! The trace file is a sink too: [`export::TraceWriter`] writes each
//! event as it arrives, as one JSON object per line or in Chrome
//! trace-event format (load the file in Perfetto or `chrome://tracing` to
//! see the run as a timeline), so a run that stops part-way leaves the
//! lines written so far. The [`Metrics`] registry renders a stdout table
//! (decision latency per site, messages and stable writes per
//! transaction, WAL traffic, election rounds).
//!
//! The crate also has a **read side**: [`analyze`] folds JSONL traces
//! one line at a time into an audit of the engine's invariants
//! ([`analyze::AuditSink`]) or latency percentiles and time series
//! ([`analyze::StatsSink`]), holding no event. A [`FlightRecorder`] — a
//! bounded overwrite-oldest ring sink — retains the causal tail of any run
//! so failures can dump their last moments.

pub mod analyze;
mod event;
pub mod export;
pub mod json;
mod metrics;
pub mod progress;
mod recorder;
mod sink;

pub use event::{Event, EventKind};
pub use metrics::Metrics;
pub use recorder::FlightRecorder;
pub use sink::{LinesSink, MemorySink, SharedSink, Sink, Tracer};
