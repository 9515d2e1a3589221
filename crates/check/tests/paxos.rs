//! Paxos Commit under the model checker, and the Gray–Lamport degeneracy
//! claim: at f=0 the protocol decides exactly like central-site 2PC.

use nbc_check::{run_check, CheckError, CheckOptions};
use nbc_core::protocols::central_2pc;
use nbc_engine::{run_one, RunConfig};
use nbc_paxos::paxos_commit;
use nbc_simnet::SimRng;

#[test]
fn f1_passes_all_oracles_with_one_acceptor_crash() {
    // n=3 participants + 3 acceptors; the default budget of one crash is
    // exactly the f=1 resilience bound, and the explorer spends it on
    // acceptors only. The six-site instance explodes in debug builds over
    // all eight vote plans; the all-yes plan (where commit and
    // commit-blocking live) keeps this suite fast. CI's release smoke job
    // runs it with the full plan set.
    let options = CheckOptions { vote_plan: Some(vec![true; 6]), ..CheckOptions::default() };
    let report = run_check(&paxos_commit(3, 1), options).unwrap();
    assert!(report.ok(), "{}", report.render());
    assert!(!report.certified_nonblocking, "theorem sees an unconditionally blocking protocol");
    assert_eq!(report.quorum_f, Some(1));
    assert!(report.within_resilience, "faults=1 <= f=1");
    assert!(!report.stats.truncated, "must be exhaustive");
    assert!(
        report.blocking_witness.is_none(),
        "one acceptor crash must never block a quorum of two:\n{}",
        report.render()
    );
}

#[test]
fn f1_full_plan_set_on_the_small_instance() {
    // Every vote plan, with the crash budget, fits in the four-plan
    // leader + one RM + three acceptors instance.
    let report = run_check(&paxos_commit(2, 1), CheckOptions::default()).unwrap();
    assert!(report.ok(), "{}", report.render());
    assert_eq!(report.quorum_f, Some(1));
    assert!(report.within_resilience);
    assert!(!report.stats.truncated, "must be exhaustive");
    assert!(report.prediction_complete, "{}", report.render());
    assert!(report.blocking_witness.is_none(), "{}", report.render());
}

#[test]
fn short_vote_plan_is_a_typed_error_not_a_panic() {
    // `paxos:1` at n=2 has five sites (two participants + three
    // acceptors): a plan naming only the participants used to reach the
    // engine's `one vote per site` assertion.
    let options = CheckOptions { vote_plan: Some(vec![true; 2]), ..CheckOptions::default() };
    match run_check(&paxos_commit(2, 1), options) {
        Err(e) => {
            assert_eq!(e, CheckError::VotePlanLength { expected: 5, got: 2 });
            assert_eq!(e.to_string(), "vote plan names 2 sites, protocol has 5");
        }
        Ok(report) => panic!("short plan accepted:\n{}", report.render()),
    }
}

#[test]
fn f0_blocks_once_its_single_acceptor_crashes() {
    // f=0 has a 1-of-1 quorum: crashing the lone acceptor before it
    // relays strands the leader — permitted, because faults=1 exceeds
    // f=0, and the report must say so without failing any oracle.
    let report = run_check(&paxos_commit(2, 0), CheckOptions::default()).unwrap();
    assert!(report.ok(), "{}", report.render());
    assert_eq!(report.quorum_f, Some(0));
    assert!(!report.within_resilience, "faults=1 > f=0");
    assert!(
        report.blocking_witness.is_some(),
        "losing the only acceptor must strand the leader:\n{}",
        report.render()
    );
}

#[test]
fn f0_never_blocks_fault_free() {
    let options = CheckOptions { faults: 0, ..CheckOptions::default() };
    let report = run_check(&paxos_commit(3, 0), options).unwrap();
    assert!(report.ok(), "{}", report.render());
    assert!(report.within_resilience, "faults=0 <= f=0");
    assert!(report.blocking_witness.is_none(), "{}", report.render());
    assert!(report.prediction_complete, "{}", report.render());
}

#[test]
fn acceptor_recovery_is_consistent() {
    // Crash + recover the lone f=0 acceptor around the decision: the
    // recovered acceptor must adopt the participants' outcome, never
    // unilaterally abort a committed transaction. (The recovered-acceptor
    // code path is f-independent; the f=0 instance keeps it exhaustive.)
    let options = CheckOptions { recoveries: 1, depth: 48, ..CheckOptions::default() };
    let report = run_check(&paxos_commit(2, 0), options).unwrap();
    assert!(report.ok(), "{}", report.render());
    assert!(!report.stats.truncated, "must be exhaustive");
}

/// Seeded random-workload equivalence (the PR 5 harness style): at f=0
/// Paxos Commit must reach exactly the decision central 2PC reaches for
/// the same participant votes — commit iff everyone votes yes — and
/// every site of both protocols must agree with it.
#[test]
fn f0_decides_like_central_2pc_on_random_workloads() {
    let mut rng = SimRng::seed_from_u64(0x9a05_c0de);
    for draw in 0..24 {
        let n = rng.gen_range(2..=4usize);
        let votes: Vec<bool> = (0..n).map(|_| rng.gen_range(0..4usize) != 0).collect();
        let expect_commit = votes.iter().all(|&v| v);

        let two_pc = central_2pc(n);
        let mut cfg = RunConfig::lockstep(n);
        cfg.votes = votes.clone();
        let r2 = run_one(&two_pc, cfg);

        let paxos = paxos_commit(n, 0);
        let mut cfg = RunConfig::lockstep(n + 1);
        cfg.votes = votes.iter().copied().chain([true]).collect();
        let rp = run_one(&paxos, cfg);

        for (name, report) in [("central-2pc", &r2), ("paxos f=0", &rp)] {
            assert!(report.consistent, "draw {draw} {name}: inconsistent outcomes");
            assert!(!report.truncated, "draw {draw} {name}: truncated");
            for (i, o) in report.outcomes.iter().enumerate() {
                assert_eq!(
                    o.decision(),
                    Some(expect_commit),
                    "draw {draw} {name} (votes {votes:?}): site{i} ended {o}"
                );
            }
        }
    }
}
