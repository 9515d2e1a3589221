//! What the serial passes emit, pinned.
//!
//! `parallel.rs` and `spill.rs` compare one run of the checker against
//! another and `pinned_counts.rs` pins counts, so a change to the order in
//! which the witness search or the state-cap redo walks a plan would move
//! every run the same way and pass them all. These goldens hold the bytes
//! themselves: the unshrunk paths `explore` hands back (the first blocked
//! state and the first violation in canonical order), and the full
//! rendered report — shrunk witness JSONL, failure details and
//! counterexample JSONL included. They were captured at commit 1b21ddc,
//! when the search, the redo and the sweep were three separate loops, and
//! re-pinned once, when sleep sets replaced fusion in the walk. That moved
//! the report's `explored:` line (the fused count went; the states fusion
//! jumped over came in: 4131 → 4391 and 3729 → 3892 states for central 2PC,
//! 206062 → 209352 under two suspicions, the naive-rule run's 13347
//! unchanged) and one fail-notice step of each central 2PC unshrunk
//! witness, which the canonical walk now reaches in another order. Every
//! shrunk witness and counterexample kept its bytes. Re-pinned a second
//! time when persistent sets came to the delivery-only region: the
//! `explored:` lines moved (4391 → 3051 and 3892 → 3034 states for central
//! 2PC, 209352 → 191282 under two suspicions, the naive-rule run's 13347
//! unchanged) and, in each central 2PC unshrunk witness, the order of three
//! deliveries after the crash. Every shrunk witness and counterexample
//! kept its bytes again. Re-pinned a third time when the walk came to fire
//! inert events eagerly: every `explored:` line fell (3051 → 1387 states
//! for central 2PC, 191282 → 79594 under two suspicions, 13347 → 6897 for
//! the naive rule; the capped run's cap fell from 500, which no longer
//! cut, to 200), each unshrunk path delivers the
//! protocol messages a terminating site no longer reads as soon as it
//! stops reading them, and so the naive rule's shrunk counterexample,
//! with the same steps, swaps two deliveries into different sites. The
//! shrunk central 2PC witness and the suspicion counterexample kept their
//! bytes.

use nbc_check::explore::{explore, plan_config};
use nbc_check::{
    replay_flight_dump, replay_strict, rule_from_name, rule_name, run_check, CheckError,
    CheckOptions, Oracles, Schedule, Step,
};
use nbc_core::protocols::{central_2pc, central_3pc};
use nbc_core::{Analysis, Protocol};
use nbc_engine::{Runner, TerminationRule};

/// Everything the serial passes decide, as text: the two unshrunk paths
/// straight from `explore`, then the report `run_check` renders.
fn emitted(protocol: &Protocol, opts: &CheckOptions) -> String {
    let jsonl = |votes: &[bool], steps: &[Step]| {
        Schedule {
            protocol: protocol.name.clone(),
            n: protocol.n_sites(),
            votes: votes.to_vec(),
            rule: rule_name(opts.rule).to_string(),
            steps: steps.to_vec(),
        }
        .to_jsonl()
    };
    let analysis = Analysis::build(protocol).unwrap();
    let x = explore(protocol, &analysis, opts);
    // Every unshrunk path replays step for step on a fresh engine.
    let replays = |votes: &[bool], steps: &[Step]| {
        let config = plan_config(protocol.n_sites(), votes, opts.rule);
        let mut runner = Runner::new(protocol, &analysis, config);
        replay_strict(&mut runner, steps).unwrap_or_else(|e| panic!("replay failed at {e}"));
        runner
    };
    let mut out = String::new();
    if let Some((votes, path)) = &x.blocking_witness {
        assert!(Oracles::any_blocked(&replays(votes, path)), "the witness ends blocked");
        out.push_str("== unshrunk blocking witness ==\n");
        out.push_str(&jsonl(votes, path));
    }
    if let Some((oracle, detail, votes, path)) = &x.violation {
        replays(votes, path);
        out.push_str(&format!("== unshrunk violation [{oracle}]: {detail} ==\n"));
        out.push_str(&jsonl(votes, path));
    }
    out.push_str("== report ==\n");
    out.push_str(&run_check(protocol, opts.clone()).unwrap().render());
    out
}

/// The golden was rendered at `(threads 1, seed None)`; the only line of
/// a report allowed to know the seed is `budgets:`.
fn assert_pinned(golden: &str, protocol: &Protocol, opts: CheckOptions) {
    for (threads, seed) in [(1, None), (4, Some(7))] {
        let got = emitted(protocol, &CheckOptions { threads, seed, ..opts.clone() });
        let want = match seed {
            Some(s) => golden.replace("seed=none", &format!("seed={s}")),
            None => golden.to_string(),
        };
        assert_eq!(got, want, "threads={threads} seed={seed:?}");
    }
}

#[test]
fn central_2pc_blocking_witness() {
    let golden = include_str!("golden/central_2pc_n3.txt");
    assert!(golden.contains("blocking confirmed"));
    assert_pinned(golden, &central_2pc(3), CheckOptions::default());
}

#[test]
fn naive_rule_consistency_counterexample() {
    let golden = include_str!("golden/central_3pc_n3_naive_faults2.txt");
    assert!(golden.contains("FAILURE [consistency]"));
    let opts = CheckOptions { rule: TerminationRule::NaiveCs, faults: 2, ..Default::default() };
    assert_pinned(golden, &central_3pc(3), opts);
}

#[test]
fn false_suspicion_nonblocking_counterexample() {
    let golden = include_str!("golden/central_3pc_n3_suspicions2.txt");
    assert!(golden.contains("counterexample [nonblocking]"));
    let opts = CheckOptions { faults: 0, suspicions: 2, ..Default::default() };
    assert_pinned(golden, &central_3pc(3), opts);
}

#[test]
fn capped_run_with_a_witness() {
    let golden = include_str!("golden/central_2pc_n3_max200.txt");
    assert!(golden.contains("TRUNCATED") && golden.contains("blocking confirmed"));
    let opts = CheckOptions { max_states: 200, ..Default::default() };
    assert_pinned(golden, &central_2pc(3), opts);
}

/// The flight dump beside a shrunk witness replays the witness once,
/// strictly: a step that does not apply and a rule no reader spells are
/// typed errors, not a lenient second run or a silent `cooperative`.
#[test]
fn a_flight_dump_replays_its_schedule_strictly() {
    let protocol = central_2pc(3);
    let report = run_check(&protocol, CheckOptions::default()).unwrap();
    let witness = report.blocking_witness.expect("central 2PC blocks");
    let dump = replay_flight_dump(&protocol, &witness, 256).unwrap();
    assert!(dump.starts_with("{\"t\":"), "{dump}");
    let mut stale = witness.clone();
    stale.steps.insert(0, Step::Recover { site: 0 });
    let err = replay_flight_dump(&protocol, &stale, 256).unwrap_err();
    assert!(matches!(err, CheckError::Replay(_)), "{err}");
    assert_eq!(err.to_string(), "replay failed at step 0: site0 is not down");
    let unknown = Schedule { rule: "quorum2".into(), ..witness };
    let err = replay_flight_dump(&protocol, &unknown, 256);
    assert_eq!(err, Err(CheckError::UnknownRule("quorum2".into())));
    use TerminationRule::{Cooperative, NaiveCs, QuorumSkeen, Skeen};
    for rule in [Skeen, NaiveCs, Cooperative, QuorumSkeen] {
        assert_eq!(rule_from_name(rule_name(rule)), Some(rule));
    }
}
