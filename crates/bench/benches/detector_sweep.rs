//! B11: availability and election churn vs detector aggressiveness.
//!
//! Replaces the perfect failure detector with timeout-based suspicion
//! (`DetectorSpec`) and sweeps the silence timeout across 2PC, 3PC
//! (Skeen and quorum termination rules), and Paxos Commit, under a happy
//! path and a mid-broadcast coordinator crash. Heartbeat latency is drawn
//! uniformly from 1..=12, so a timeout of 12 never falsely suspects
//! (the perfect-detector baseline) while a timeout of 1 suspects on
//! almost every check. Each cell aggregates a fixed seed ladder.
//!
//! Reported per cell: how many runs decided everywhere (availability),
//! blocked, truncated (the livelock signature — re-election churn hits
//! the event cap), or went inconsistent (3PC-Skeen's split-brain under
//! false suspicion), plus total and worst-case election rounds.
//!
//! The JSON written to `BENCH_detector.json` is a pure function of the
//! seeds — no wall-clock or throughput fields — so CI re-runs it twice
//! and byte-diffs the output.

use std::fmt::Write as _;

use nonblocking_commit::engine::{
    run_with, CrashPoint, CrashSpec, DetectorSpec, RunConfig, TerminationRule, TransitionProgress,
};
use nonblocking_commit::model::paxos::paxos_commit;
use nonblocking_commit::model::protocols::{central_2pc, central_3pc};
use nonblocking_commit::model::{Analysis, Protocol};

/// Inclusive heartbeat-latency bounds: the most lenient timeout in the
/// ladder equals the ceiling, so that column is the accurate baseline.
const JITTER: (u64, u64) = (1, 12);
const TIMEOUTS: [u64; 7] = [1, 2, 3, 4, 6, 8, 12];
const SEEDS: u64 = 24;
/// Low event cap: a termination livelock (suspect, elect, unsuspect,
/// re-elect, forever) shows up as truncation instead of a burned CPU.
const MAX_EVENTS: usize = 4_000;

struct Cell {
    series: &'static str,
    scenario: &'static str,
    timeout: u64,
    runs: u64,
    decided: u64,
    blocked: u64,
    truncated: u64,
    inconsistent: u64,
    elections_total: u64,
    elections_max: u64,
}

impl Cell {
    fn to_json(&self) -> String {
        format!(
            "{{\"series\":\"{}\",\"scenario\":\"{}\",\"timeout\":{},\"runs\":{},\
             \"decided\":{},\"blocked\":{},\"truncated\":{},\"inconsistent\":{},\
             \"elections_total\":{},\"elections_max\":{}}}",
            self.series,
            self.scenario,
            self.timeout,
            self.runs,
            self.decided,
            self.blocked,
            self.truncated,
            self.inconsistent,
            self.elections_total,
            self.elections_max,
        )
    }

    fn print(&self) {
        println!(
            "{:<24} {:<7} timeout {:>2}  decided {:>2}/{:<2}  blocked {:>2}  truncated {:>2}  \
             inconsistent {:>2}  elections {:>4} (max {:>3})",
            self.series,
            self.scenario,
            self.timeout,
            self.decided,
            self.runs,
            self.blocked,
            self.truncated,
            self.inconsistent,
            self.elections_total,
            self.elections_max,
        );
    }
}

fn sweep_cell(
    protocol: &Protocol,
    analysis: &Analysis,
    series: &'static str,
    scenario: &'static str,
    rule: TerminationRule,
    timeout: u64,
    crash: bool,
) -> Cell {
    let mut cell = Cell {
        series,
        scenario,
        timeout,
        runs: 0,
        decided: 0,
        blocked: 0,
        truncated: 0,
        inconsistent: 0,
        elections_total: 0,
        elections_max: 0,
    };
    for seed in 0..SEEDS {
        let mut cfg = RunConfig::happy(protocol.n_sites());
        cfg.rule = rule;
        cfg.max_events = MAX_EVENTS;
        cfg.detector = Some(DetectorSpec { timeout, jitter: JITTER, seed });
        if crash {
            cfg.crashes.push(CrashSpec {
                site: 0,
                point: CrashPoint::OnTransition {
                    ordinal: 2,
                    progress: TransitionProgress::AfterMsgs(1),
                },
                recover_at: None,
            });
        }
        let r = run_with(protocol, analysis, cfg);
        cell.runs += 1;
        if r.all_operational_decided {
            cell.decided += 1;
        }
        if r.any_blocked {
            cell.blocked += 1;
        }
        if r.truncated {
            cell.truncated += 1;
        }
        if !r.consistent {
            cell.inconsistent += 1;
        }
        cell.elections_total += r.elections;
        cell.elections_max = cell.elections_max.max(r.elections);
    }
    cell
}

fn main() {
    let series: Vec<(&'static str, Protocol, TerminationRule)> = vec![
        ("central_2pc/skeen", central_2pc(3), TerminationRule::Skeen),
        ("central_3pc/skeen", central_3pc(3), TerminationRule::Skeen),
        ("central_3pc/quorum", central_3pc(3), TerminationRule::QuorumSkeen),
        ("paxos_commit/skeen", paxos_commit(2, 1), TerminationRule::Skeen),
    ];
    let mut cells = Vec::new();
    println!("== detector_sweep (availability vs suspicion timeout, jitter 1..=12) ==");
    for (label, protocol, rule) in &series {
        let analysis = Analysis::build(protocol).expect("analysis builds");
        for &(scenario, crash) in &[("happy", false), ("crash0", true)] {
            for timeout in TIMEOUTS {
                let cell = sweep_cell(protocol, &analysis, label, scenario, *rule, timeout, crash);
                cell.print();
                cells.push(cell);
            }
        }
    }

    // The most lenient column is accurate by construction; anything other
    // than full availability there is a bench bug, not a finding.
    for cell in cells.iter().filter(|c| c.timeout >= JITTER.1 && c.scenario == "happy") {
        assert_eq!(cell.decided, cell.runs, "{}: accurate detector must decide", cell.series);
        assert_eq!(cell.inconsistent, 0, "{}: accurate detector must stay safe", cell.series);
    }

    let mut out = String::from("{\n  \"bench\": \"detector_sweep\",\n");
    let _ = writeln!(
        out,
        "  \"jitter\": [{}, {}],\n  \"seeds\": {},\n  \"max_events\": {},\n  \"rows\": [",
        JITTER.0, JITTER.1, SEEDS, MAX_EVENTS
    );
    for (i, cell) in cells.iter().enumerate() {
        let sep = if i + 1 == cells.len() { "" } else { "," };
        let _ = writeln!(out, "    {}{sep}", cell.to_json());
    }
    out.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_detector.json");
    std::fs::write(path, out).expect("write BENCH_detector.json");
    println!("\nwrote {path}");
}
