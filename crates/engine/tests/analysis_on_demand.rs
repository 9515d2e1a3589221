//! The on-demand analysis source: a run fed an empty `OnceLock<Analysis>`
//! is indistinguishable from one fed a built `&Analysis` — step for step,
//! event for event — and the cell is filled by the failure path only.

use std::sync::OnceLock;

use nbc_core::protocols::{catalog, central_3pc};
use nbc_core::{Analysis, Protocol};
use nbc_engine::{
    enumerate_crash_specs, run_with, AnalysisSource, RunConfig, Runner, TerminationRule,
};
use nbc_obs::{Event, MemorySink, SharedSink, Tracer};
use nbc_paxos::paxos_commit;

/// Run to quiescence; the digest after every step, the report with its
/// narrated trace, and the typed event stream.
fn observe<'a>(
    p: &'a Protocol,
    analysis: impl Into<AnalysisSource<'a>>,
    cfg: RunConfig,
) -> (Vec<u128>, String, Vec<Event>) {
    let sink = SharedSink::new(MemorySink::default());
    let mut runner = Runner::with_tracer(p, analysis, cfg, Tracer::to_sink(sink.clone()));
    let mut digests = vec![runner.digest()];
    while runner.step() {
        digests.push(runner.digest());
    }
    (digests, format!("{:?}", runner.report()), sink.with(|s| s.events.clone()))
}

#[test]
fn on_demand_runs_equal_built_runs_at_every_crash_point() {
    let protocols = (3..=5).flat_map(catalog).chain([paxos_commit(2, 1)]);
    for p in protocols {
        let built = Analysis::build(&p).unwrap();
        // One cell for all of the protocol's runs, as a pipeline shares it.
        let cell = OnceLock::new();
        // Every failure-path read: class decisions (Skeen, Cooperative),
        // concurrency sets (NaiveCs), recovery classes (a site recovers).
        for rule in [TerminationRule::Skeen, TerminationRule::Cooperative, TerminationRule::NaiveCs]
        {
            for recover_at in [None, Some(40)] {
                for spec in enumerate_crash_specs(&p, recover_at) {
                    let mut cfg = RunConfig::happy(p.n_sites()).with_rule(rule).with_crash(spec);
                    cfg.record_trace = true;
                    let want = observe(&p, &built, cfg.clone());
                    let got = observe(&p, &cell, cfg);
                    assert_eq!(got, want, "{} {rule:?} {spec:?}", p.name);
                }
            }
        }
        assert!(cell.get().is_some(), "{}: some crash reaches termination", p.name);
    }
}

#[test]
fn only_the_failure_path_builds_the_analysis_and_only_once() {
    let p = central_3pc(4);
    let cell = OnceLock::new();
    // Commit and abort rounds without a failure never consult it.
    assert_eq!(run_with(&p, &cell, RunConfig::happy(4)).decision(), Some(true));
    assert_eq!(run_with(&p, &cell, RunConfig::one_no(4, 2)).decision(), Some(false));
    assert!(cell.get().is_none(), "failure-free rounds must not analyse the protocol");

    // A coordinator crash sends the slaves into termination: built now,
    // and the same build serves every later run.
    let crash = enumerate_crash_specs(&p, None).into_iter().find(|s| s.site == 0).unwrap();
    assert!(run_with(&p, &cell, RunConfig::happy(4).with_crash(crash)).consistent);
    let first: *const Analysis = cell.get().expect("termination reads the analysis");
    for spec in enumerate_crash_specs(&p, Some(40)) {
        assert!(run_with(&p, &cell, RunConfig::happy(4).with_crash(spec)).consistent);
    }
    assert!(std::ptr::eq(first, cell.get().unwrap()), "the cell is filled exactly once");
}
