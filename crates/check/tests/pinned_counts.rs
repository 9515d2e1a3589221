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

// Re-pinned three times. First when sleep sets replaced fusion in the
// walk: the walk reached every state the unreduced walk reaches and counted
// every enabled action as an edge. Then when persistent sets came to the
// delivery-only region: each independent interleaving after the last fault
// is explored once, so a row with no budget left after its faults falls,
// and the depth-cut rows, counted by the exact re-run, and the two-crash
// row, which leaves one site to deliver into, keep their counts. Then when
// the walk came to fire inert events eagerly (a protocol message to a site
// that left the commit protocol, a failure notice the quorum absorbs):
// every row falls, the depth-cut rows too, since a drained event costs no
// depth. Each row's comments are its counts under fusion, `(states,
// actions, fused)`, under sleep sets and under persistent sets without the
// drain, `(states, actions)`.

#[test]
fn central_catalog_at_n3() {
    let d = CheckOptions::default;
    // (4_131, 9_028, 1_320), (4_391, 9_998), (3_051, 7_190)
    assert_eq!(counts(&central_2pc(3), d()), (1_387, 2_354, false));
    // (4_402, 9_543, 1_439), (4_676, 10_604), (3_290, 7_707)
    assert_eq!(counts(&central_3pc(3), d()), (1_546, 2_649, false));
    // (976, 1_624, 424), (1_088, 1_936), (848, 1_552)
    assert_eq!(counts(&one_pc(3), d()), (600, 984, false));
    // (4_705, 10_078, 1_572), (5_016, 11_248), (3_552, 8_210)
    assert_eq!(counts(&k_phase_central(3, 4).unwrap(), d()), (1_730, 2_958, false));
    // (9_270, 24_637, 2_722), (10_284, 28_954), (4_707, 12_943)
    assert_eq!(counts(&central_2pc(4), all_yes(4)), (2_801, 6_361, false));
}

#[test]
fn decentralized_2pc_at_n3() {
    let got = counts(&decentralized_2pc(3), CheckOptions::default());
    // (55_435, 221_946, 9_009), (55_906, 227_445), (38_392, 171_978)
    assert_eq!(got, (6_811, 19_830, false));
}

#[test]
fn decentralized_3pc_at_n3() {
    let got = counts(&decentralized_3pc(3), CheckOptions::default());
    // (139_010, 486_321, 21_429), (140_072, 499_704), (89_777, 339_453)
    assert_eq!(got, (18_050, 62_280, false));
}

#[test]
fn paxos_commit_f1_at_n2() {
    let p = paxos_commit(2, 1);
    // (6_514, 24_768, 1_530), (6_517, 27_480), (3_220, 14_004)
    assert_eq!(counts(&p, all_yes(5)), (340, 1_011, false));
    // (55_947, 270_877, 6_915), (55_950, 283_840), (17_214, 92_938)
    assert_eq!(counts(&p, CheckOptions::default()), (1_240, 4_098, false));
}

#[test]
fn every_fault_budget_on_central_3pc() {
    let with = |f: fn(&mut CheckOptions)| {
        let mut o = CheckOptions::default();
        f(&mut o);
        counts(&central_3pc(3), o)
    };
    // (62_133, 214_088, 5_296), (62_392, 220_125), (42_533, 149_232)
    assert_eq!(with(|o| o.recoveries = 1), (16_711, 52_016, false));
    // (11_443, 29_854, 2_717), (11_623, 31_301), (11_186, 30_350)
    assert_eq!(with(|o| o.drops = 1), (7_379, 21_244, false));
    // (13_361, 34_986, 2_715), (13_361, 34_986), (13_361, 34_986)
    assert_eq!(with(|o| o.faults = 2), (6_909, 12_667, false));
    // The state cap's canonical redo is part of the contract too.
    // (3_792, 8_255, 1_258), (3_893, 8_900), (3_145, 7_447) at a cap of
    // 500, which the drain left uncut: the cap fell to 200.
    assert_eq!(with(|o| o.max_states = 200), (1_265, 2_223, true));
}

#[test]
fn depth_truncated_runs() {
    // A depth bound that cuts: each state's stats come from its deepest
    // expansion, which only the depth-left revisit rule finds.
    let at = |depth| CheckOptions { depth, ..CheckOptions::default() };
    // (4_038, 8_670, 1_009), (4_290, 9_701), (4_290, 9_701)
    assert_eq!(counts(&central_2pc(3), at(9)), (1_617, 2_703, true));
    // (4_207, 9_162, 1_266), (4_449, 10_144), (4_449, 10_144)
    assert_eq!(counts(&central_3pc(3), at(10)), (1_697, 2_883, true));
    // (101_291, 367_537, 7_458), (101_662, 373_530), (101_662, 373_530)
    assert_eq!(counts(&decentralized_3pc(3), at(14)), (16_109, 55_642, true));
}

#[test]
fn false_suspicion_on_central_3pc() {
    let o = CheckOptions { suspicions: 1, ..CheckOptions::default() };
    // (164_620, 430_273, 31_050), (168_636, 451_176), (130_691, 364_307)
    assert_eq!(counts(&central_3pc(3), o), (59_049, 123_401, false));
}

#[test]
fn recovery_on_central_2pc() {
    let o = CheckOptions { recoveries: 1, ..CheckOptions::default() };
    // (71_467, 215_939, 9_656), (74_416, 232_528), (46_173, 146_296)
    assert_eq!(counts(&central_2pc(3), o), (23_197, 61_305, false));
}
