//! The blocking story, told in three acts:
//!
//! 1. 2PC blocks when the coordinator dies in the decision window;
//! 2. blocked sites unblock when the coordinator recovers (the recovery
//!    protocol);
//! 3. trying to force a decision with the naive rule violates atomicity —
//!    the behavior the fundamental nonblocking theorem predicts for any
//!    blocking protocol.
//!
//! ```text
//! cargo run --example blocking_demo
//! ```

use nonblocking_commit::engine::{
    run_with, CrashPoint, CrashSpec, RunConfig, TerminationRule, TransitionProgress,
};
use nonblocking_commit::model::protocols::central_2pc;
use nonblocking_commit::model::Analysis;

fn main() {
    let protocol = central_2pc(3);
    let analysis = Analysis::build(&protocol).unwrap();

    // The window: the coordinator collects unanimous yes votes, durably
    // commits, and dies before telling anyone.
    let window = CrashSpec {
        site: 0,
        point: CrashPoint::OnTransition { ordinal: 2, progress: TransitionProgress::AfterMsgs(0) },
        recover_at: None,
    };

    // ----- Act 1: blocking ------------------------------------------------
    println!("== Act 1: the blocking window ==\n");
    let cfg = RunConfig::happy(3).with_rule(TerminationRule::Cooperative).with_crash(window);
    let r = run_with(&protocol, &analysis, cfg);
    println!("  {r}");
    assert!(r.any_blocked && r.consistent);
    println!(
        "\n  Both slaves sit in `w`. CS(w) contains both a commit and an abort \
         state, and w is\n  noncommittable — the theorem's two conditions, both \
         violated. Nobody can decide.\n"
    );

    // ----- Act 2: recovery ------------------------------------------------
    println!("== Act 2: recovery unblocks ==\n");
    let mut spec = window;
    spec.recover_at = Some(100);
    let cfg = RunConfig::happy(3).with_rule(TerminationRule::Cooperative).with_crash(spec);
    let r = run_with(&protocol, &analysis, cfg);
    println!("  {r}");
    assert!(r.consistent && !r.any_blocked);
    assert_eq!(r.decision(), Some(true));
    println!(
        "\n  The restarted coordinator finds the durable commit in its log and \
         answers the blocked\n  sites' queries. Blocking ends — but only because \
         the failed site came back.\n"
    );

    // ----- Act 3: the naive rule is unsafe ---------------------------------
    println!("== Act 3: forcing a decision violates atomicity ==\n");
    // For the violation the coordinator must durably *abort* while slaves
    // wait: it votes no and dies before broadcasting.
    let mut cfg = RunConfig::one_no(3, 0).with_rule(TerminationRule::NaiveCs);
    cfg.crashes = vec![window];
    let r = run_with(&protocol, &analysis, cfg);
    println!("  {r}");
    assert!(!r.consistent, "the naive rule must produce the inconsistency");
    println!(
        "\n  The backup slave applied the paper's rule verbatim to its own `w` \
         state: CS(w) contains\n  a commit state, so it committed — while the \
         dead coordinator's log says abort. A mixed\n  decision: the database is \
         inconsistent. This is WHY the rule demands a nonblocking\n  protocol, \
         and why 3PC exists."
    );
}
