//! # nbc-bench — experiment harness
//!
//! The [`experiments`] module regenerates every figure and table of the
//! paper (run `cargo run -p nbc-bench --bin experiments`); the timing
//! benches under `benches/` (built on the local [`harness`]) measure the
//! quantitative shape claims (message complexity, latency in phases,
//! throughput under failures, reachable-graph growth).

pub mod experiments;
pub mod harness;
pub mod table;

pub use harness::BenchGroup;
pub use table::Table;
