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
//! when the search, the redo and the sweep were three separate loops.

use nbc_check::explore::explore;
use nbc_check::{rule_name, run_check, CheckOptions, Schedule, Step};
use nbc_core::protocols::{central_2pc, central_3pc};
use nbc_core::{Analysis, Protocol};
use nbc_engine::TerminationRule;

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
    let mut out = String::new();
    if let Some((votes, path)) = &x.blocking_witness {
        out.push_str("== unshrunk blocking witness ==\n");
        out.push_str(&jsonl(votes, path));
    }
    if let Some((oracle, detail, votes, path)) = &x.violation {
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
    let golden = include_str!("golden/central_2pc_n3_max500.txt");
    assert!(golden.contains("TRUNCATED") && golden.contains("blocking confirmed"));
    let opts = CheckOptions { max_states: 500, ..Default::default() };
    assert_pinned(golden, &central_2pc(3), opts);
}
