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

/// `(distinct states, actions, truncated)` of one check.
fn counts(protocol: &Protocol, options: CheckOptions) -> (usize, u64, bool) {
    let s = run_check(protocol, options).expect("catalog protocols analyse").stats;
    (s.distinct_states, s.actions, s.truncated)
}

fn all_yes(n: usize) -> CheckOptions {
    CheckOptions { vote_plan: Some(vec![true; n]), ..CheckOptions::default() }
}

// Re-pinned twice. First when sleep sets replaced fusion in the walk: the
// walk reached every state the unreduced walk reaches and counted every
// enabled action as an edge. Then when persistent sets came to the
// delivery-only region: each independent interleaving after the last fault
// is explored once, so a row with no budget left after its faults falls,
// and the depth-cut rows, counted by the exact re-run, and the two-crash
// row, which leaves one site to deliver into, keep their counts. Each row's
// comments are its counts under fusion, `(states, actions, fused)`, and
// under sleep sets, `(states, actions)`.

#[test]
fn central_catalog_at_n3() {
    let d = CheckOptions::default;
    // (4_131, 9_028, 1_320), (4_391, 9_998)
    assert_eq!(counts(&central_2pc(3), d()), (3_051, 7_190, false));
    // (4_402, 9_543, 1_439), (4_676, 10_604)
    assert_eq!(counts(&central_3pc(3), d()), (3_290, 7_707, false));
    // (976, 1_624, 424), (1_088, 1_936)
    assert_eq!(counts(&one_pc(3), d()), (848, 1_552, false));
    // (4_705, 10_078, 1_572), (5_016, 11_248)
    assert_eq!(counts(&k_phase_central(3, 4).unwrap(), d()), (3_552, 8_210, false));
    // (9_270, 24_637, 2_722), (10_284, 28_954)
    assert_eq!(counts(&central_2pc(4), all_yes(4)), (4_707, 12_943, false));
}

#[test]
fn decentralized_2pc_at_n3() {
    let got = counts(&decentralized_2pc(3), CheckOptions::default());
    // (55_435, 221_946, 9_009), (55_906, 227_445)
    assert_eq!(got, (38_392, 171_978, false));
}

#[test]
fn decentralized_3pc_at_n3() {
    let got = counts(&decentralized_3pc(3), CheckOptions::default());
    // (139_010, 486_321, 21_429), (140_072, 499_704)
    assert_eq!(got, (89_777, 339_453, false));
}

#[test]
fn paxos_commit_f1_at_n2() {
    let p = paxos_commit(2, 1);
    // (6_514, 24_768, 1_530), (6_517, 27_480)
    assert_eq!(counts(&p, all_yes(5)), (3_220, 14_004, false));
    // (55_947, 270_877, 6_915), (55_950, 283_840)
    assert_eq!(counts(&p, CheckOptions::default()), (17_214, 92_938, false));
}

#[test]
fn every_fault_budget_on_central_3pc() {
    let with = |f: fn(&mut CheckOptions)| {
        let mut o = CheckOptions::default();
        f(&mut o);
        counts(&central_3pc(3), o)
    };
    // (62_133, 214_088, 5_296), (62_392, 220_125)
    assert_eq!(with(|o| o.recoveries = 1), (42_533, 149_232, false));
    // (11_443, 29_854, 2_717), (11_623, 31_301)
    assert_eq!(with(|o| o.drops = 1), (11_186, 30_350, false));
    // (13_361, 34_986, 2_715), (13_361, 34_986)
    assert_eq!(with(|o| o.faults = 2), (13_361, 34_986, false));
    // The state cap's canonical redo is part of the contract too.
    // (3_792, 8_255, 1_258), (3_893, 8_900)
    assert_eq!(with(|o| o.max_states = 500), (3_145, 7_447, true));
}

#[test]
fn depth_truncated_runs() {
    // A depth bound that cuts: each state's stats come from its deepest
    // expansion, which only the depth-left revisit rule finds.
    let at = |depth| CheckOptions { depth, ..CheckOptions::default() };
    // (4_038, 8_670, 1_009), (4_290, 9_701)
    assert_eq!(counts(&central_2pc(3), at(9)), (4_290, 9_701, true));
    // (4_207, 9_162, 1_266), (4_449, 10_144)
    assert_eq!(counts(&central_3pc(3), at(10)), (4_449, 10_144, true));
    // (101_291, 367_537, 7_458), (101_662, 373_530)
    assert_eq!(counts(&decentralized_3pc(3), at(14)), (101_662, 373_530, true));
}

#[test]
fn false_suspicion_on_central_3pc() {
    let o = CheckOptions { suspicions: 1, ..CheckOptions::default() };
    // (164_620, 430_273, 31_050), (168_636, 451_176)
    assert_eq!(counts(&central_3pc(3), o), (130_691, 364_307, false));
}

#[test]
fn recovery_on_central_2pc() {
    let o = CheckOptions { recoveries: 1, ..CheckOptions::default() };
    // (71_467, 215_939, 9_656), (74_416, 232_528)
    assert_eq!(counts(&central_2pc(3), o), (46_173, 146_296, false));
}
