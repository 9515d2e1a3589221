//! Greedy counterexample shrinking.
//!
//! The explorer's witness paths carry every scheduler choice of a DFS
//! branch, most of which are irrelevant to the property they witness. The
//! shrinker reduces a path to a **1-minimal** schedule: removing any
//! single remaining step no longer reproduces the property.
//!
//! Candidate schedules are evaluated with *lenient* replay (steps made
//! inapplicable by earlier removals are skipped) followed by a canonical
//! drain to network quiescence, so properties judged at quiescence — a
//! blocked operational site, say — are evaluated on complete executions.
//! The final minimal step list is then *materialized*: replayed once more,
//! recording exactly the steps that applied (including the drain), which
//! yields a strictly replayable schedule — the form the corpus stores and
//! `nbc simulate --schedule` re-executes.

use nbc_core::{Analysis, Protocol};
use nbc_engine::{channel_of, Runner};

use crate::explore::{plan_config, CHECK_TXN};
use crate::oracle::Oracles;
use crate::schedule::{apply_step, channel_head, replay_lenient, step_for, Schedule, Step};
use crate::CheckOptions;

/// Upper bound on drain deliveries — far above any real execution; only a
/// livelocked engine would hit it.
const DRAIN_CAP: usize = 10_000;

/// Deliver pending events in canonical (channel-sorted, head-first) order
/// until the network is quiescent, recording the steps taken. Returns
/// `false` if the cap was hit.
pub(crate) fn drain(runner: &mut Runner<'_>, record: &mut Vec<Step>) -> bool {
    for _ in 0..DRAIN_CAP {
        let Some(first) = runner.iter_pending().map(|(_, _, ev)| channel_of(ev)).min() else {
            return true;
        };
        let (_, head) = channel_head(runner, first).expect("channel has a head");
        let step = step_for(head);
        let applied = apply_step(runner, &step).is_ok();
        debug_assert!(applied, "head step of a pending channel must apply");
        record.push(step);
    }
    false
}

/// Shrink `steps` to a 1-minimal list still satisfying `predicate`, then
/// materialize the strictly replayable schedule (applied steps plus the
/// canonical drain).
///
/// The predicate receives the runner after lenient replay and drain, and
/// a flag saying whether some `Recover` step's recovery-oracle check
/// failed during the replay (the one property judged mid-replay rather
/// than on the final state). The initial path must satisfy the predicate;
/// the result always does.
pub fn shrink<F>(
    protocol: &Protocol,
    analysis: &Analysis,
    opts: &CheckOptions,
    votes: &[bool],
    steps: &[Step],
    predicate: F,
) -> Schedule
where
    F: Fn(&Runner<'_>, bool) -> bool,
{
    let oracles = Oracles::new(protocol, analysis, CHECK_TXN);
    let fresh =
        || Runner::new(protocol, analysis, plan_config(protocol.n_sites(), votes, opts.rule));
    let holds = |candidate: &[Step]| {
        let mut runner = fresh();
        let mut recovery_failed = false;
        for step in candidate {
            if let Step::Recover { site } = step {
                if !runner.sites()[*site].is_up() && oracles.check_recovery(&runner, *site).is_err()
                {
                    recovery_failed = true;
                }
            }
            let _ = apply_step(&mut runner, step);
        }
        let mut sink = Vec::new();
        drain(&mut runner, &mut sink) && predicate(&runner, recovery_failed)
    };

    let mut current: Vec<Step> = steps.to_vec();
    debug_assert!(holds(&current), "shrink input must satisfy the predicate");
    // Greedy 1-minimal pass, repeated to fixpoint: removing step i can
    // make an earlier step removable too.
    loop {
        let mut removed_any = false;
        let mut i = 0;
        while i < current.len() {
            let mut candidate = current.clone();
            candidate.remove(i);
            if holds(&candidate) {
                current = candidate;
                removed_any = true;
            } else {
                i += 1;
            }
        }
        if !removed_any {
            break;
        }
    }

    // Materialize: record what actually applies, then the drain, giving a
    // schedule every step of which is strictly replayable.
    let mut runner = fresh();
    let mut materialized = replay_lenient(&mut runner, &current);
    drain(&mut runner, &mut materialized);
    Schedule {
        protocol: protocol.name.clone(),
        n: protocol.n_sites(),
        votes: votes.to_vec(),
        rule: crate::rule_name(opts.rule).to_string(),
        steps: materialized,
    }
}
