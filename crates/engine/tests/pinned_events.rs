//! The engine's event stream, pinned byte for byte.
//!
//! For every (protocol, termination rule) row, one fingerprint over every
//! run of the row: its JSONL trace (every event, in emit order), its report
//! JSON and the runner's final [`Runner::digest`]. The runs of a row are the
//! happy path, one no vote, every enumerated crash point without and with
//! recovery, and one run under an inaccurate failure detector. The
//! checker's counts cannot see event order; this can — a reordered send in
//! a termination round, a recovery reply or a WAL trace event changes a
//! row.

use std::fmt::Write;

use nbc_core::kpc::k_phase_central;
use nbc_core::protocols::catalog;
use nbc_core::{Analysis, Fp128, Protocol};
use nbc_engine::{enumerate_crash_specs, DetectorSpec, RunConfig, Runner, TerminationRule};
use nbc_obs::export::to_jsonl;
use nbc_obs::{MemorySink, SharedSink, Tracer};
use nbc_paxos::paxos_commit;

/// Recovery time of the recovering crash runs.
const RECOVER_AT: u64 = 40;

const RULES: [TerminationRule; 4] = [
    TerminationRule::Skeen,
    TerminationRule::NaiveCs,
    TerminationRule::Cooperative,
    TerminationRule::QuorumSkeen,
];

/// `(protocol, [fingerprint per rule, in RULES order])`.
const PINNED: [(&str, [u128; 4]); 6] = [
    (
        "central-site 2PC (n=3)",
        [
            0x22bcb161db5486a05ce8ebf8d2f1adfb,
            0x3f072648086d5b300e1308202a2e07a3,
            0xedb774688359204f3eb1bbbe53d91217,
            0x22bcb161db5486a05ce8ebf8d2f1adfb,
        ],
    ),
    (
        "decentralized 2PC (n=3)",
        [
            0x6711b9626abefb90bf3dcec1486104fc,
            0xc97e6dc97d61e93964751299c1d47533,
            0x6711b9626abefb90bf3dcec1486104fc,
            0x6711b9626abefb90bf3dcec1486104fc,
        ],
    ),
    (
        "central-site 3PC (n=3)",
        [
            0x334596c354323a312dd7080eab7fda32,
            0x8c8fe148f3fcb1beebebbd90d9c511a2,
            0x334596c354323a312dd7080eab7fda32,
            0x2a60f2663c9addf823ce6a844a309b14,
        ],
    ),
    (
        "decentralized 3PC (n=3)",
        [
            0x0ab7077f06c05f479846c508923c842f,
            0x0ab7077f06c05f479846c508923c842f,
            0x0ab7077f06c05f479846c508923c842f,
            0x0ab7077f06c05f479846c508923c842f,
        ],
    ),
    (
        "paxos-commit (n=2, f=1)",
        [
            0x34c7bf10c2beaf8a2a2f9a742a394b3d,
            0x5a72c846c57fcd4f009c1756470985be,
            0x34c7bf10c2beaf8a2a2f9a742a394b3d,
            0x34c7bf10c2beaf8a2a2f9a742a394b3d,
        ],
    ),
    (
        "central-site 4PC (n=3)",
        [
            0x272183b3f75f218e03d93144e95a3cb8,
            0x96b0e02a3aea6752973528826b7b3ce7,
            0x272183b3f75f218e03d93144e95a3cb8,
            0x8f34684b7a35fb98716ca5609e9603fa,
        ],
    ),
];

fn protocols() -> Vec<Protocol> {
    let mut out = catalog(3);
    out.push(paxos_commit(2, 1));
    out.push(k_phase_central(3, 4).expect("k-phase builds"));
    out
}

/// Every run of one row.
fn configs(p: &Protocol, rule: TerminationRule) -> Vec<RunConfig> {
    let n = p.n_sites();
    let mut out = vec![RunConfig::happy(n), RunConfig::one_no(n, n - 1)];
    for recover_at in [None, Some(RECOVER_AT)] {
        for spec in enumerate_crash_specs(p, recover_at) {
            out.push(RunConfig::happy(n).with_crash(spec));
        }
    }
    // Heartbeats up to 12 units against a timeout of 2: false suspicion,
    // bounded so a livelocked rule is cut (and the cut pinned) early.
    let mut suspicious =
        RunConfig::happy(n).with_detector(DetectorSpec { timeout: 2, jitter: (1, 12), seed: 7 });
    suspicious.max_events = 2_000;
    out.push(suspicious);
    out.into_iter().map(|c| c.with_rule(rule)).collect()
}

fn row(p: &Protocol, analysis: &Analysis, rule: TerminationRule) -> u128 {
    let mut h = Fp128::new();
    for cfg in configs(p, rule) {
        let sink = SharedSink::new(MemorySink::default());
        let mut runner = Runner::with_tracer(p, analysis, cfg, Tracer::to_sink(sink.clone()));
        while runner.step() {}
        h.write_bytes(sink.with(|s| to_jsonl(&s.events)).as_bytes());
        h.write_bytes(runner.report().to_json().as_bytes());
        h.write_u128(runner.digest());
    }
    h.finish()
}

#[test]
fn event_streams_are_the_pinned_ones() {
    let mut table = String::new();
    let mut differ = 0;
    let protocols = protocols();
    for (i, p) in protocols.iter().enumerate() {
        let analysis = Analysis::build(p).expect("analyzable");
        writeln!(table, "    (\n        {:?},\n        [", p.name).unwrap();
        for (r, &rule) in RULES.iter().enumerate() {
            let got = row(p, &analysis, rule);
            let (name, want) = &PINNED[i];
            differ += usize::from(*name != p.name || want[r] != got);
            writeln!(table, "            0x{got:032x},").unwrap();
        }
        writeln!(table, "        ],\n    ),").unwrap();
    }
    let rows = protocols.len() * RULES.len();
    assert_eq!(differ, 0, "{differ} of {rows} rows differ; the table they build:\n{table}");
}
