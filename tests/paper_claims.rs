//! End-to-end cross-crate validation: the paper's *theory* (nbc-core's
//! theorem checker) must agree with the paper's *practice* (nbc-engine's
//! exhaustive crash sweeps) on every protocol in the catalog. This is the
//! reproduction's keystone test.

use nonblocking_commit::engine::{enumerate_crash_specs, sweep, RunConfig, TerminationRule};
use nonblocking_commit::model::protocols::catalog;
use nonblocking_commit::model::{resilience, sync_check, theorem, Analysis};

#[test]
fn theorem_verdict_matches_engine_behavior() {
    for n in [2usize, 3] {
        for p in catalog(n) {
            let analysis = Analysis::build(&p).unwrap();
            let verdict = theorem::check_with(&p, &analysis);
            let specs = enumerate_crash_specs(&p, None);
            let base = RunConfig::happy(n).with_rule(TerminationRule::Skeen);
            let s = sweep(&p, &analysis, &base, &specs);

            // Safety holds regardless of the verdict (the Skeen class rule
            // refuses to guess).
            assert!(s.all_consistent(), "{}: {:?}", p.name, s.inconsistent_runs);

            if verdict.nonblocking() {
                // Theorem says nonblocking ⇒ no sweep run may block.
                assert!(
                    s.nonblocking(),
                    "{}: theorem says nonblocking but engine blocked {} of {}",
                    p.name,
                    s.blocked,
                    s.total
                );
            } else {
                // Theorem says blocking ⇒ the sweep must find a blocking
                // run (the theorem's necessity direction, demonstrated).
                assert!(
                    s.blocked > 0,
                    "{}: theorem says blocking but no sweep run blocked ({} runs)",
                    p.name,
                    s.total
                );
            }
        }
    }
}

#[test]
fn resilience_matches_double_failure_sweeps() {
    use nonblocking_commit::engine::sweep::sweep_double;
    // 3PC is nonblocking w.r.t. n-1 failures per the corollary; the
    // double-failure sweep (2 of 3 sites die) must terminate every run.
    for p in catalog(3).into_iter().filter(|p| p.phase_count() == 3) {
        let analysis = Analysis::build(&p).unwrap();
        let r = resilience::resilience(&p).unwrap();
        assert_eq!(r.max_tolerated_failures, 2, "{}", p.name);
        let specs = enumerate_crash_specs(&p, None);
        let s = sweep_double(&p, &analysis, &RunConfig::happy(3), &specs, (0..24u64).step_by(3));
        assert!(s.all_consistent(), "{}: {:?}", p.name, s.inconsistent_runs);
        assert!(s.nonblocking(), "{}: blocked={}", p.name, s.blocked);
    }
}

#[test]
fn synchronicity_holds_across_catalog() {
    for p in catalog(3) {
        let a = Analysis::build(&p).unwrap();
        let r = sync_check::check_with(&p, &a);
        assert!(r.synchronous_within_one(), "{}: {:?}", p.name, r.escapes);
    }
}

#[test]
fn concurrency_sets_are_symmetric() {
    // (j, t) ∈ CS(i, s) ⟺ (i, s) ∈ CS(j, t): co-occupancy is symmetric.
    use nonblocking_commit::model::StateId;
    for p in catalog(3) {
        let a = Analysis::build(&p).unwrap();
        for site in p.sites() {
            for idx in 0..p.fsa(site).state_count() {
                let s = StateId(idx as u32);
                for (j, t) in a.concurrency_set(site, s) {
                    assert!(
                        a.concurrency_set(j, t).contains(&(site, s)),
                        "{}: CS asymmetry at {site:?}/{s:?} vs {j:?}/{t:?}",
                        p.name
                    );
                }
            }
        }
    }
}

#[test]
fn synthesis_agrees_with_engine() {
    use nonblocking_commit::model::synthesis::make_nonblocking;
    // Synthesize 3PC from 2PC, then let the engine hammer it.
    for p in catalog(3).into_iter().filter(|p| p.phase_count() == 2) {
        let fixed = make_nonblocking(&p).unwrap();
        let analysis = Analysis::build(&fixed).unwrap();
        let specs = enumerate_crash_specs(&fixed, None);
        let s = sweep(&fixed, &analysis, &RunConfig::happy(3), &specs);
        assert!(s.all_consistent(), "{}: {:?}", fixed.name, s.inconsistent_runs);
        assert!(s.nonblocking(), "{}: blocked={}", fixed.name, s.blocked);
    }
}
