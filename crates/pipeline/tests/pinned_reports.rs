//! Golden `ThroughputReport`s and trace fingerprints, captured at commit
//! bbb88d9 (the linear-scan scheduler with an eager per-batch `Analysis`)
//! and pinned: any scheduler or engine change must reproduce every field
//! and every traced event, byte for byte. Plus property sweeps over the
//! scheduler's configuration space, every case run watched and unwatched:
//! attaching a tracer may not change anything a caller can observe.

use nbc_core::Fp128;
use nbc_engine::{CrashPoint, CrashSpec, TransitionProgress};
use nbc_obs::{export::to_jsonl, Event, MemorySink, SharedSink, Tracer};
use nbc_pipeline::{bank_transfer_txns, Pipeline, PipelineConfig, PipelineTxn, ThroughputReport};
use nbc_simnet::SimRng;
use nbc_txn::{BankWorkload, ProtocolKind};

const SITES: usize = 4;
const C2PC: ProtocolKind = ProtocolKind::Central2pc;
const C3PC: ProtocolKind = ProtocolKind::Central3pc;
const PAXOS1: ProtocolKind = ProtocolKind::Paxos { f: 1 };

/// One pinned batch: the benchmark's segments (perf/src/workloads) plus
/// the wide-and-crashy corners it does not run.
struct Row {
    kind: ProtocolKind,
    in_flight: usize,
    accounts: usize,
    txns: usize,
    crash_pct: u32,
    /// txns, committed, aborted, blocked, reaped_commits, deferrals,
    /// finished_at, events, msgs, p50, p99, wal_syncs, wal_forces,
    /// syncs_saved.
    report: [u64; 14],
    /// `Fp128` of the JSONL rendering of the traced event stream.
    trace_fp: Option<u128>,
}

#[rustfmt::skip]
const ROWS: &[Row] = &[
    Row { kind: C2PC, in_flight: 8, accounts: 4096, txns: 800, crash_pct: 0, trace_fp: None,
          report: [800, 795, 5, 0, 0, 28, 300, 7200, 7200, 3, 3, 4596, 404, 4192] },
    Row { kind: C3PC, in_flight: 8, accounts: 4096, txns: 800, crash_pct: 0, trace_fp: None,
          report: [800, 795, 5, 0, 0, 28, 500, 11970, 11970, 5, 5, 4596, 744, 3852] },
    Row { kind: C3PC, in_flight: 1, accounts: 4096, txns: 800, crash_pct: 0, trace_fp: None,
          report: [800, 800, 0, 0, 0, 0, 4000, 12000, 12000, 5, 5, 4596, 3201, 1395] },
    Row { kind: C3PC, in_flight: 64, accounts: 4096, txns: 800, crash_pct: 0,
          trace_fp: Some(0x18aa4774d270c371c41ae759c1625b90),
          report: [800, 750, 50, 0, 0, 151, 63, 11700, 11700, 5, 5, 4596, 104, 4492] },
    Row { kind: PAXOS1, in_flight: 8, accounts: 4096, txns: 800, crash_pct: 0, trace_fp: None,
          report: [800, 795, 5, 0, 0, 28, 400, 16800, 16800, 4, 4, 4596, 404, 4192] },
    Row { kind: C2PC, in_flight: 8, accounts: 32, txns: 3000, crash_pct: 10, trace_fp: None,
          report: [3000, 976, 1983, 41, 34, 14504, 1449, 28201, 27292, 3, 8, 17208, 2434, 14774] },
    Row { kind: C3PC, in_flight: 8, accounts: 32, txns: 3000, crash_pct: 10, trace_fp: None,
          report: [3000, 2008, 992, 0, 0, 5943, 1796, 40207, 39298, 5, 10, 17189, 3260, 13929] },
    Row { kind: C3PC, in_flight: 64, accounts: 32, txns: 3000, crash_pct: 10,
          trace_fp: Some(0x804ab1a3c16b048bf280f160b7935123),
          report: [3000, 128, 2872, 0, 0, 9688, 158, 28894, 27985, 5, 10, 17189, 312, 16877] },
    Row { kind: C2PC, in_flight: 64, accounts: 16, txns: 2000, crash_pct: 25,
          trace_fp: Some(0x76da19a6cb6c97559223c6c81562f350),
          report: [2000, 14, 1966, 20, 4, 12803, 459, 19956, 18393, 3, 8, 11336, 331, 11005] },
    Row { kind: PAXOS1, in_flight: 8, accounts: 32, txns: 1000, crash_pct: 10, trace_fp: None,
          report: [1000, 376, 610, 14, 11, 3261, 591, 21632, 21050, 4, 9, 5749, 1032, 4717] },
];

fn batch(row: &Row) -> (BankWorkload, Vec<PipelineTxn>) {
    let bank = BankWorkload::new(SITES, row.accounts, 0, 31);
    let mut crash_rng = SimRng::seed_from_u64(37);
    let txns = bank_transfer_txns(&mut bank.clone(), row.txns, row.crash_pct, &mut crash_rng);
    (bank, txns)
}

fn run_row(row: &Row, tracer: Tracer) -> ThroughputReport {
    let (bank, txns) = batch(row);
    let mut p = Pipeline::new(PipelineConfig::new(SITES, row.kind).with_in_flight(row.in_flight));
    p.set_tracer(tracer);
    let r = p.run(txns);
    assert_eq!(p.total_balance(&bank), bank.expected_total(), "conservation: {r}");
    assert_eq!(p.locked_keys(), 0, "locks must drain: {r}");
    r
}

fn pinned(f: [u64; 14]) -> ThroughputReport {
    ThroughputReport {
        txns: f[0],
        committed: f[1],
        aborted: f[2],
        blocked: f[3],
        reaped_commits: f[4],
        deferrals: f[5],
        finished_at: f[6],
        events: f[7],
        msgs: f[8],
        p50_commit_latency: f[9],
        p99_commit_latency: f[10],
        wal_syncs: f[11],
        wal_forces: f[12],
        syncs_saved: f[13],
    }
}

fn trace_fp(events: &[Event]) -> u128 {
    let mut fp = Fp128::new();
    fp.write_bytes(to_jsonl(events).as_bytes());
    fp.finish()
}

#[test]
fn reports_and_traces_match_the_parent_commit() {
    for (i, row) in ROWS.iter().enumerate() {
        let label = format!(
            "row {i}: {} if{} {} accounts, {} txns, {}% crashes",
            row.kind.name(),
            row.in_flight,
            row.accounts,
            row.txns,
            row.crash_pct
        );
        let r = run_row(row, Tracer::off());
        assert_eq!(r, pinned(row.report), "{label}");
        if let Some(want) = row.trace_fp {
            let sink = SharedSink::new(MemorySink::default());
            let traced = run_row(row, Tracer::to_sink(sink.clone()));
            assert_eq!(traced, r, "{label}: tracing must not change the report");
            let got = sink.with(|s| trace_fp(&s.events));
            assert_eq!(got, want, "{label}: traced event stream {got:#x}");
        }
    }
}

/// What a batch leaves behind that a caller can observe.
#[derive(Debug, PartialEq)]
struct Observed {
    report: ThroughputReport,
    now: u64,
    wal_bytes: usize,
    total_balance: i64,
    /// Every account's committed balance as every site holds it.
    committed: Vec<Option<i64>>,
}

/// Run `txns` under `cfg` twice, watched and unwatched, and hold both to
/// the scheduler's invariants and to each other: a tracer may observe a
/// batch, never steer it. Money is conserved, no lock survives, every
/// transaction decides, and the merged timeline never runs backwards —
/// every event a round emits carries a time no earlier than the one before
/// it, whichever round that came from.
fn watched_equals_unwatched(
    label: &str,
    cfg: &PipelineConfig,
    bank: &BankWorkload,
    txns: &[PipelineTxn],
) {
    let run = |tracer: Tracer| {
        let mut p = Pipeline::new(cfg.clone());
        p.set_tracer(tracer);
        let report = p.run(txns.to_vec());
        assert_eq!(report.decided(), report.txns, "{label}: every txn decides: {report}");
        assert_eq!(p.locked_keys(), 0, "{label}: locks must drain: {report}");
        let committed = (0..SITES)
            .flat_map(|site| (0..bank.n_accounts).map(move |a| (site, a)))
            .map(|(site, a)| p.get(site, &BankWorkload::key_of(a)).map(BankWorkload::decode))
            .collect();
        Observed {
            report,
            now: p.now(),
            wal_bytes: p.wal_bytes(),
            total_balance: p.total_balance(bank),
            committed,
        }
    };
    let sink = SharedSink::new(MemorySink::default());
    let watched = run(Tracer::to_sink(sink.clone()));
    assert_eq!(watched.total_balance, bank.expected_total(), "{label}: conservation");
    assert_eq!(run(Tracer::off()), watched, "{label}: tracing must not change the batch");
    sink.with(|s| {
        let mut last = 0;
        for e in s.events.iter().filter(|e| e.txn.is_some()) {
            assert!(e.time >= last, "{label}: time ran backwards at {e:?}");
            last = e.time;
        }
    });
}

/// Random corners of the configuration space (in-flight 1..=64, crash
/// 0..=30 %, group window 0..=4), each run with and without a tracer.
#[test]
fn scheduler_properties_over_random_configurations() {
    let mut rng = SimRng::seed_from_u64(0xA6E7DA);
    for case in 0..48u64 {
        let kind = [C2PC, C3PC, ProtocolKind::Decentralized2pc, ProtocolKind::Decentralized3pc]
            [rng.gen_range(0u32..=3) as usize];
        let in_flight = rng.gen_range(1u32..=64) as usize;
        let crash_pct = rng.gen_range(0u32..=30);
        let window = u64::from(rng.gen_range(0u32..=4));
        let label = format!("case {case}: {kind:?} if{in_flight} crash {crash_pct}% w{window}");

        let bank = BankWorkload::new(SITES, 24, 0, 0xBA2C + case);
        let txns = bank_transfer_txns(&mut bank.clone(), 120, crash_pct, &mut rng);
        let cfg = PipelineConfig::new(SITES, kind)
            .with_in_flight(in_flight)
            .with_group_window(window)
            .with_reap_after(60);
        watched_equals_unwatched(&label, &cfg, &bank, &txns);
    }
}

/// Blocked 2PC rounds reaped after 1..=5 ticks: the reap deadlines land
/// before, on and between the last events of the rounds still in flight,
/// which is where "a round goes before a reap on a tie" decides the order.
#[test]
fn short_reap_timers_tie_with_round_ends_the_same_way_watched_or_not() {
    let mut rng = SimRng::seed_from_u64(0x2EA9);
    for reap_after in 1..=5u64 {
        for (in_flight, crash_pct) in [(4, 25), (8, 40), (64, 30)] {
            let label = format!("reap {reap_after} if{in_flight} crash {crash_pct}%");
            let bank = BankWorkload::new(SITES, 24, 0, 0x2EA9 + reap_after);
            let txns = bank_transfer_txns(&mut bank.clone(), 160, crash_pct, &mut rng);
            assert!(txns.iter().any(|t| !t.crashes.is_empty()), "{label}: no crash drawn");
            let cfg = PipelineConfig::new(SITES, C2PC)
                .with_in_flight(in_flight)
                .with_reap_after(reap_after);
            watched_equals_unwatched(&label, &cfg, &bank, &txns);
        }
    }
}

/// Every coordinator crashes on its first transition before logging it: a
/// round has almost nothing to do once admitted.
#[test]
fn rounds_that_die_at_their_first_transition_end_the_same_way_watched_or_not() {
    let crash = CrashSpec {
        site: 0,
        point: CrashPoint::OnTransition { ordinal: 1, progress: TransitionProgress::BeforeLog },
        recover_at: None,
    };
    for kind in [C2PC, C3PC, ProtocolKind::Decentralized3pc] {
        for in_flight in [1, 8, 64] {
            let label = format!("{kind:?} if{in_flight}, every round crashes at once");
            let bank = BankWorkload::new(SITES, 24, 0, 0xD1E);
            let mut txns =
                bank_transfer_txns(&mut bank.clone(), 96, 0, &mut SimRng::seed_from_u64(0xD1E));
            for t in &mut txns {
                t.crashes = vec![crash];
            }
            let cfg = PipelineConfig::new(SITES, kind).with_in_flight(in_flight).with_reap_after(7);
            watched_equals_unwatched(&label, &cfg, &bank, &txns);
        }
    }
}
