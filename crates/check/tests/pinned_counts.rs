//! Absolute exploration counts, pinned.
//!
//! Every other determinism test compares one run of the checker against
//! another (threads, seeds, budgets), so a state digest that *merges* two
//! behaviorally different states, or *splits* one, would pass them all —
//! both runs would be wrong the same way. These numbers were recorded
//! from the two-pass SipHash digest this repository used before the
//! pinned `Fp128` one (commit 03c204c); any digest covering the same
//! fields reproduces them exactly, and a digest that drops a field,
//! collides, or distinguishes arrival orders it should not, moves them.

use nbc_check::{run_check, CheckOptions};
use nbc_core::kpc::k_phase_central;
use nbc_core::protocols::{central_2pc, central_3pc, decentralized_2pc, decentralized_3pc, one_pc};
use nbc_core::Protocol;
use nbc_paxos::paxos_commit;

/// `(distinct states, actions, fused, truncated)` of one check.
fn counts(protocol: &Protocol, options: CheckOptions) -> (usize, u64, u64, bool) {
    let s = run_check(protocol, options).expect("catalog protocols analyse").stats;
    (s.distinct_states, s.actions, s.fused, s.truncated)
}

fn all_yes(n: usize) -> CheckOptions {
    CheckOptions { vote_plan: Some(vec![true; n]), ..CheckOptions::default() }
}

#[test]
fn central_catalog_at_n3() {
    let d = CheckOptions::default;
    assert_eq!(counts(&central_2pc(3), d()), (4_131, 9_028, 1_320, false));
    assert_eq!(counts(&central_3pc(3), d()), (4_402, 9_543, 1_439, false));
    assert_eq!(counts(&one_pc(3), d()), (976, 1_624, 424, false));
    assert_eq!(counts(&k_phase_central(3, 4).unwrap(), d()), (4_705, 10_078, 1_572, false));
    assert_eq!(counts(&central_2pc(4), all_yes(4)), (9_270, 24_637, 2_722, false));
}

#[test]
fn decentralized_2pc_at_n3() {
    let got = counts(&decentralized_2pc(3), CheckOptions::default());
    assert_eq!(got, (55_435, 221_946, 9_009, false));
}

#[test]
fn decentralized_3pc_at_n3() {
    let got = counts(&decentralized_3pc(3), CheckOptions::default());
    assert_eq!(got, (139_010, 486_321, 21_429, false));
}

#[test]
fn paxos_commit_f1_at_n2() {
    let p = paxos_commit(2, 1);
    assert_eq!(counts(&p, all_yes(5)), (6_514, 24_768, 1_530, false));
    assert_eq!(counts(&p, CheckOptions::default()), (55_947, 270_877, 6_915, false));
}

#[test]
fn every_fault_budget_on_central_3pc() {
    let with = |f: fn(&mut CheckOptions)| {
        let mut o = CheckOptions::default();
        f(&mut o);
        counts(&central_3pc(3), o)
    };
    assert_eq!(with(|o| o.recoveries = 1), (62_133, 214_088, 5_296, false));
    assert_eq!(with(|o| o.drops = 1), (11_443, 29_854, 2_717, false));
    assert_eq!(with(|o| o.faults = 2), (13_361, 34_986, 2_715, false));
    // The state cap's canonical redo is part of the contract too.
    assert_eq!(with(|o| o.max_states = 500), (3_792, 8_255, 1_258, true));
}

#[test]
fn depth_truncated_runs() {
    // A depth bound that cuts: each state's stats come from its deepest
    // expansion, which only the depth-left revisit rule finds.
    let at = |depth| CheckOptions { depth, ..CheckOptions::default() };
    assert_eq!(counts(&central_2pc(3), at(9)), (4_038, 8_670, 1_009, true));
    assert_eq!(counts(&central_3pc(3), at(10)), (4_207, 9_162, 1_266, true));
    assert_eq!(counts(&decentralized_3pc(3), at(14)), (101_291, 367_537, 7_458, true));
}

#[test]
fn false_suspicion_on_central_3pc() {
    let o = CheckOptions { suspicions: 1, ..CheckOptions::default() };
    assert_eq!(counts(&central_3pc(3), o), (164_620, 430_273, 31_050, false));
}

#[test]
fn recovery_on_central_2pc() {
    let o = CheckOptions { recoveries: 1, ..CheckOptions::default() };
    assert_eq!(counts(&central_2pc(3), o), (71_467, 215_939, 9_656, false));
}
