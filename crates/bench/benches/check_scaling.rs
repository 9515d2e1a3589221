//! B9/B10: parallel model-checking throughput and the external-memory
//! spill path — `nbc check` wall-clock and distinct-state rate at 1/2/4
//! worker threads, the exhaustive envelope (central protocols at n=5,
//! single all-yes plan at n=6), and a tiny-`mem_budget` run asserted
//! byte-identical to its unlimited twin.
//!
//! Every scaling row first asserts the determinism contract (identical
//! verdict, `distinct_states` and `actions` at every thread count) and
//! then reports the wall-clock of each worker count. On a single-CPU
//! host the multi-thread rows measure orchestration overhead (queue +
//! shard-lock traffic), not speedup — EXPERIMENTS.md records which one a
//! given table was.
//!
//! Besides the stdout tables, the run writes every row to
//! `BENCH_check.json` at the workspace root (states/sec, peak RSS,
//! spill statistics) so CI and the docs can consume the numbers
//! machine-readably.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use nonblocking_commit::check::{run_check, CheckOptions, CheckReport};
use nonblocking_commit::model::paxos::paxos_commit;
use nonblocking_commit::model::protocols::{central_2pc, central_3pc};
use nonblocking_commit::model::Protocol;
use nonblocking_commit::obs::progress::peak_rss_bytes;

struct Row {
    section: &'static str,
    label: String,
    threads: usize,
    states: usize,
    actions: u64,
    seconds: f64,
    ok: bool,
    truncated: bool,
    spill_runs: u64,
    spill_bytes: u64,
    spill_merges: u64,
}

impl Row {
    fn from_report(
        section: &'static str,
        label: &str,
        threads: usize,
        elapsed: Duration,
        r: &CheckReport,
    ) -> Self {
        Self {
            section,
            label: label.to_string(),
            threads,
            states: r.stats.distinct_states,
            actions: r.stats.actions,
            seconds: elapsed.as_secs_f64(),
            ok: r.ok(),
            truncated: r.stats.truncated,
            spill_runs: r.spill.runs_written,
            spill_bytes: r.spill.bytes_written,
            spill_merges: r.spill.merge_passes,
        }
    }

    fn states_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.states as f64 / self.seconds
        } else {
            0.0
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"section\":\"{}\",\"label\":\"{}\",\"threads\":{},\"states\":{},\"actions\":{},\
             \"seconds\":{:.3},\"states_per_sec\":{:.0},\"verdict\":\"{}\",\"truncated\":{},\
             \"spill_runs\":{},\"spill_bytes\":{},\"spill_merge_passes\":{}}}",
            self.section,
            self.label,
            self.threads,
            self.states,
            self.actions,
            self.seconds,
            self.states_per_sec(),
            if self.ok { "OK" } else { "FAIL" },
            self.truncated,
            self.spill_runs,
            self.spill_bytes,
            self.spill_merges,
        )
    }

    fn print(&self) {
        println!(
            "{:<20} threads {}  states {:>9}  actions {:>10}  {:>9.2}s  ({:>9.0} states/s)  \
             verdict {}  {}",
            self.label,
            self.threads,
            self.states,
            self.actions,
            self.seconds,
            self.states_per_sec(),
            if self.ok { "OK" } else { "FAIL" },
            if self.truncated { "TRUNCATED" } else { "exhaustive" },
        );
    }
}

fn timed_check(protocol: &Protocol, opts: CheckOptions) -> (Duration, CheckReport) {
    let t = Instant::now();
    let report = run_check(protocol, opts).unwrap();
    (t.elapsed(), report)
}

fn scaling_table(rows: &mut Vec<Row>) {
    println!("== check_scaling (full check wall-clock by worker threads) ==");
    let specs: Vec<(&str, Protocol)> = vec![
        ("central_2pc/4", central_2pc(4)),
        ("central_3pc/4", central_3pc(4)),
        ("paxos_commit/2+3", paxos_commit(2, 1)),
    ];
    for (label, protocol) in &specs {
        let mut base: Option<(usize, u64, bool)> = None;
        for threads in [1usize, 2, 4] {
            let (elapsed, report) =
                timed_check(protocol, CheckOptions { threads, ..CheckOptions::default() });
            let row = Row::from_report("scaling", label, threads, elapsed, &report);
            assert!(!row.truncated, "{label}: scaling row must be exhaustive");
            match base {
                None => base = Some((row.states, row.actions, row.ok)),
                Some(b) => assert_eq!(
                    b,
                    (row.states, row.actions, row.ok),
                    "{label}: results diverged at {threads} threads"
                ),
            }
            row.print();
            rows.push(row);
        }
    }
}

fn spill_table(rows: &mut Vec<Row>) {
    println!("\n== check_spill (64 KiB budget vs unlimited, must be byte-identical) ==");
    let protocol = central_2pc(4);
    let (elapsed, unlimited) = timed_check(&protocol, CheckOptions::default());
    let base = Row::from_report("spill", "central_2pc/4 unlimited", 1, elapsed, &unlimited);
    base.print();
    let (elapsed, budgeted) =
        timed_check(&protocol, CheckOptions { mem_budget: 64 << 10, ..CheckOptions::default() });
    let row = Row::from_report("spill", "central_2pc/4 64K", 1, elapsed, &budgeted);
    assert!(row.spill_runs >= 2, "64K budget must force repeated spilling");
    assert_eq!(
        unlimited.render(),
        budgeted.render(),
        "budgeted report must be byte-identical to unlimited"
    );
    row.print();
    println!(
        "  spill: {} runs, {} bytes written, {} merge passes",
        row.spill_runs, row.spill_bytes, row.spill_merges
    );
    rows.push(base);
    rows.push(row);
}

fn envelope_table(rows: &mut Vec<Row>) {
    println!("\n== check_envelope (exhaustive n=5, default budgets) ==");
    for (label, protocol) in [("central_2pc/5", central_2pc(5)), ("central_3pc/5", central_3pc(5))]
    {
        let (elapsed, report) = timed_check(&protocol, CheckOptions::default());
        let row = Row::from_report("envelope", label, 1, elapsed, &report);
        row.print();
        rows.push(row);
    }
}

fn envelope6_table(rows: &mut Vec<Row>) {
    println!("\n== check_envelope_n6 (single all-yes plan, 64 MiB budget) ==");
    for (label, protocol) in [("central_2pc/6", central_2pc(6)), ("central_3pc/6", central_3pc(6))]
    {
        let opts = CheckOptions {
            vote_plan: Some(vec![true; 6]),
            mem_budget: 64 << 20,
            // The n=6 all-yes fixpoint exceeds the default 2M-state cap.
            max_states: 1 << 24,
            ..CheckOptions::default()
        };
        let (elapsed, report) = timed_check(&protocol, opts);
        let row = Row::from_report("envelope_n6", label, 1, elapsed, &report);
        assert!(!row.truncated, "{label}: n=6 single-plan row must be exhaustive");
        row.print();
        rows.push(row);
    }
}

fn write_json(rows: &[Row]) {
    let mut out = String::from("{\n  \"bench\": \"check_scaling\",\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(out, "    {}{sep}", row.to_json());
    }
    let rss = peak_rss_bytes().map_or("null".to_string(), |b| b.to_string());
    let _ = writeln!(out, "  ],\n  \"peak_rss_bytes\": {rss}\n}}");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_check.json");
    std::fs::write(path, out).expect("write BENCH_check.json");
    println!("\nwrote {path}");
}

fn main() {
    let mut rows = Vec::new();
    scaling_table(&mut rows);
    spill_table(&mut rows);
    envelope_table(&mut rows);
    envelope6_table(&mut rows);
    write_json(&rows);
}
