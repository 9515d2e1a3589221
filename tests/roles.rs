//! The umbrella's roles reach what the benchmark imports.
//!
//! `perf/` is a package of its own that still depends on the library
//! crates one by one. Each `use` in `perf_imports` is one item `perf/src`
//! imports by crate name, spelled through the role that re-exports it,
//! so moving `perf/` onto the roles is a rewrite of paths only: while
//! this file compiles, every path it needs exists. The test then drives
//! the model, the checker and the engine through the same door.

use nonblocking_commit::check::{run_check, CheckOptions};
use nonblocking_commit::engine::{run_with, RunConfig};
use nonblocking_commit::model::protocols::central_3pc;
use nonblocking_commit::model::{theorem, Analysis};

/// One `use` per item `perf/src` imports by crate name, through its role.
#[allow(unused_imports)]
mod perf_imports {
    use nonblocking_commit::check::explore::{explore, plan_config};
    use nonblocking_commit::check::{
        replay_strict, run_check, shrink, CheckOptions, CheckReport, OracleFailure, Oracles,
    };
    use nonblocking_commit::engine::{
        enumerate_crash_specs, run_traced, run_with, sweep, CrashPoint, CrashSpec, RunConfig,
        Runner, TerminationRule, TransitionProgress,
    };
    use nonblocking_commit::model::paxos::paxos_commit;
    use nonblocking_commit::model::protocols::{
        catalog, central_2pc, central_3pc, decentralized_3pc,
    };
    use nonblocking_commit::model::spec::parse;
    use nonblocking_commit::model::verify::verify_termination_with;
    use nonblocking_commit::model::{
        fingerprint128, resilience, synthesis, theorem, Analysis, Protocol, ReachGraph,
        ReachOptions,
    };
    use nonblocking_commit::net::{LatencyModel, Network, SimRng};
    use nonblocking_commit::obs::json::{self, Value};
    use nonblocking_commit::obs::{
        analyze, export, Event, EventKind, MemorySink, SharedSink, Sink, Tracer,
    };
    use nonblocking_commit::pipeline::{
        bank_transfer_txns, BankWorkload, LockManager, LockMode, Pipeline, PipelineConfig,
        PipelineTxn, ProtocolKind, ThroughputReport,
    };
    use nonblocking_commit::storage::crc32::crc32;
    use nonblocking_commit::storage::{KvStore, LogRecord, Wal};
}

#[test]
fn central_3pc_is_checked_and_run_through_the_roles() {
    let protocol = central_3pc(3);
    assert!(theorem::check(&protocol).unwrap().nonblocking());

    let report = run_check(&protocol, CheckOptions::default()).unwrap();
    assert!(report.certified_nonblocking);
    assert!(report.ok(), "{}", report.render());

    let analysis = Analysis::build(&protocol).unwrap();
    let round = run_with(&protocol, &analysis, RunConfig::happy(3));
    assert!(round.consistent && round.all_operational_decided);
}
