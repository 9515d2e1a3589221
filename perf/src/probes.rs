//! Layer probes: small fixed loops around each crate's public functions,
//! run in every traced run, identical for every workload. They give the
//! per-call times (`*_ns`, `*_us`, `*_ms`, rates) that the estimated
//! shares multiply by the workload's exact per-op counts.
//!
//! Calls too short to own a span are timed one by one with
//! [`CallTimer`], which subtracts the clock's own cost; each probe still
//! records one covering span with its call count for the trace file.

use std::hint::black_box;
use std::time::Instant;

use nbc_check::explore::{explore, plan_config};
use nbc_check::{replay_strict, run_check, shrink, CheckOptions, Oracles};
use nbc_core::protocols::{central_2pc, central_3pc, decentralized_3pc};
use nbc_core::verify::verify_termination_with;
use nbc_core::{fingerprint128, synthesis, theorem, Analysis, Protocol, ReachGraph, ReachOptions};
use nbc_engine::{
    enumerate_crash_specs, run_traced, run_with, sweep, CrashPoint, CrashSpec, RunConfig, Runner,
    TerminationRule, TransitionProgress,
};
use nbc_obs::{analyze, export, Event, SharedSink, Tracer};
use nbc_paxos::paxos_commit;
use nbc_simnet::{LatencyModel, Network};
use nbc_storage::crc32::crc32;
use nbc_storage::{KvStore, LogRecord, Wal};
use nbc_txn::{LockManager, LockMode};

use crate::report::Metrics;
use crate::sink::LayerSink;
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::analyse;
use crate::workloads::check::all_yes;

/// Accumulates the time of many short calls, each timed on its own.
pub struct CallTimer {
    total_ns: u64,
    calls: u64,
    overhead_ns: f64,
}

impl CallTimer {
    /// A timer that subtracts `overhead_ns` (see [`clock_overhead_ns`])
    /// from every call.
    pub fn new(overhead_ns: f64) -> Self {
        Self { total_ns: 0, calls: 0, overhead_ns }
    }

    /// Time one call.
    #[inline]
    pub fn call<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.total_ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        r
    }

    /// Mean nanoseconds per call, clock cost removed, never below zero.
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        (self.total_ns as f64 / self.calls as f64 - self.overhead_ns).max(0.0)
    }
}

/// What timing an empty call costs: the mean of many `Instant` pairs.
pub fn clock_overhead_ns() -> f64 {
    const N: u32 = 20_000;
    let mut total = 0u64;
    for _ in 0..N {
        let t = Instant::now();
        black_box(());
        total += t.elapsed().as_nanos() as u64;
    }
    total as f64 / f64::from(N)
}

/// Time `f` `reps` times, each as its own span; the median in nanoseconds.
fn median_of<R>(
    spans: &mut Spans,
    name: &'static str,
    label: &'static str,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> f64 {
    let ns: Vec<f64> = (0..reps)
        .map(|_| {
            let (r, ns) = spans.span(name, label, |_| f());
            black_box(r);
            ns as f64
        })
        .collect();
    median(&ns)
}

const MIB: f64 = 1024.0 * 1024.0;

/// The termination rule a deployment would run `p` under.
fn rule_for(p: &Protocol) -> TerminationRule {
    if p.phase_count() >= 3 {
        TerminationRule::Skeen
    } else {
        TerminationRule::Cooperative
    }
}

/// Run every probe and set its metrics. `events` is one traced pipeline
/// unit's event list (for the export and parse probes).
pub fn run_all(m: &mut Metrics, spans: &mut Spans, events: &[Event]) {
    let overhead = clock_overhead_ns();
    engine(m, spans, overhead);
    simnet(m, spans, overhead);
    storage(m, spans, overhead);
    locks(m, spans, overhead);
    paxos(m, spans);
    check(m, spans);
    core(m, spans, overhead);
    obs_and_spec(m, spans, events);
}

fn engine(m: &mut Metrics, spans: &mut Spans, overhead: f64) {
    // Whole rounds, happy path and one coordinator crash mid-broadcast.
    let crash = CrashSpec {
        site: 0,
        point: CrashPoint::OnTransition { ordinal: 2, progress: TransitionProgress::AfterMsgs(1) },
        recover_at: None,
    };
    let rounds: [(&'static str, &'static str, Protocol, Option<CrashSpec>); 5] = [
        ("engine.round_us.c2pc-5", "c2pc-5", central_2pc(5), None),
        ("engine.round_us.c3pc-5", "c3pc-5", central_3pc(5), None),
        ("engine.round_us.d3pc-4", "d3pc-4", decentralized_3pc(4), None),
        ("engine.round_us.paxos1-3", "paxos1-3", paxos_commit(3, 1), None),
        ("engine.round_us.c3pc-5-crash", "c3pc-5-crash", central_3pc(5), Some(crash)),
    ];
    for (metric, label, p, crash) in rounds {
        let a = analyse(&p);
        let mut cfg = RunConfig::happy(p.n_sites()).with_rule(rule_for(&p));
        cfg.crashes.extend(crash);
        let ns = median_of(spans, "engine.run_with", label, 40, || {
            let r = run_with(&p, &a, cfg.clone());
            assert!(r.consistent && !r.truncated, "{label}: {r}");
            r
        });
        m.set(metric, ns / 1e3);
    }

    // Runner construction and the time-ordered step, on 3PC n=5.
    let p = central_3pc(5);
    let a = analyse(&p);
    let (mut new_t, mut step_t) = (CallTimer::new(overhead), CallTimer::new(overhead));
    let mut events = 0u64;
    spans.span_n("probe.engine.runner.new+step", "c3pc-5", 200, |_| {
        for _ in 0..200 {
            let cfg = RunConfig::happy(5);
            let mut r = new_t.call(|| Runner::new(&p, &a, cfg));
            step_t.call(|| while r.step() {});
            events += r.report().events as u64;
        }
    });
    m.set("engine.runner.new_ns", new_t.ns_per_call());
    m.set("engine.runner.step_ns", step_t.total_ns as f64 / events.max(1) as f64);

    // The checker's primitives, on a mid-run lockstep runner of 2PC n=4.
    let p = central_2pc(4);
    let a = analyse(&p);
    let mut base = Runner::new(&p, &a, plan_config(4, &[true; 4], TerminationRule::Skeen));
    for _ in 0..3 {
        let (seq, _) = base.pending_events().into_iter().next().expect("2PC n=4 has 3 hops");
        assert!(base.fire_scheduled(seq));
    }
    let head = base.pending_events().first().map(|(seq, _)| *seq).expect("a pending delivery");
    let (mut clone_t, mut digest_t, mut pending_t, mut fire_t) = (
        CallTimer::new(overhead),
        CallTimer::new(overhead),
        CallTimer::new(overhead),
        CallTimer::new(overhead),
    );
    spans.span_n("probe.engine.runner.checker-primitives", "c2pc-4", 2000, |_| {
        for _ in 0..2000 {
            let mut fork = clone_t.call(|| base.clone());
            black_box(digest_t.call(|| fork.digest()));
            black_box(pending_t.call(|| fork.pending_events()));
            assert!(fire_t.call(|| fork.fire_scheduled(head)));
        }
    });
    m.set("engine.runner.clone_ns", clone_t.ns_per_call());
    m.set("engine.runner.digest_ns", digest_t.ns_per_call());
    m.set("engine.runner.pending_events_ns", pending_t.ns_per_call());
    m.set("engine.runner.fire_ns", fire_t.ns_per_call());

    // The exhaustive single-crash sweep (fans out over the cores, as a
    // user's `nbc sweep` does).
    let p = central_3pc(4);
    let a = analyse(&p);
    let specs = enumerate_crash_specs(&p, None);
    let base = RunConfig::happy(4);
    let ns = median_of(spans, "engine.sweep", "c3pc-4", 3, || {
        let s = sweep(&p, &a, &base, &specs);
        assert!(s.all_consistent() && s.nonblocking(), "3PC sweep must be clean");
        s.total
    });
    m.set("engine.sweep.rounds_per_s", specs.len() as f64 / (ns / 1e9));
}

fn simnet(m: &mut Metrics, spans: &mut Spans, overhead: f64) {
    // Steady state: about 32 messages in flight on a 4-site fabric.
    const N: u64 = 20_000;
    let mut net: Network<u32> = Network::new(4, LatencyModel::constant(1), 5);
    let (mut send_t, mut next_t) = (CallTimer::new(overhead), CallTimer::new(overhead));
    spans.span_n("probe.simnet.send+next_event", "", N, |_| {
        for i in 0..N {
            let (src, dst) = ((i % 4) as usize, ((i + 1) % 4) as usize);
            black_box(send_t.call(|| net.send(i / 8, src, dst, i as u32)));
            if net.pending() > 32 {
                black_box(next_t.call(|| net.next_event()));
            }
        }
    });
    m.set("simnet.send_ns", send_t.ns_per_call());
    m.set("simnet.next_event_ns", next_t.ns_per_call());
}

fn storage(m: &mut Metrics, spans: &mut Spans, overhead: f64) {
    // Append and group-commit sync of protocol-progress records.
    const N: u64 = 20_000;
    let mut wal = Wal::new();
    wal.set_group_window(2);
    let (mut append_t, mut sync_t) = (CallTimer::new(overhead), CallTimer::new(overhead));
    spans.span_n("probe.storage.wal.append+sync_batched", "", N, |_| {
        for i in 0..N {
            let rec = LogRecord::Progress { txn: i, state: 2, class: 1 };
            append_t.call(|| wal.append(&rec)).expect("record fits");
            black_box(sync_t.call(|| wal.sync_batched(i / 4)));
        }
    });
    m.set("storage.wal.append_ns", append_t.ns_per_call());
    m.set("storage.wal.sync_batched_ns", sync_t.ns_per_call());

    // The image copy the checker's digest takes of a site's short log.
    let mut short = Wal::new();
    for state in 0..6 {
        short.append_sync(&LogRecord::Progress { txn: 1, state, class: 1 }).expect("record fits");
    }
    let mut image_t = CallTimer::new(overhead);
    spans.span_n("probe.storage.wal.full_image", "6-records", N, |_| {
        for _ in 0..N {
            black_box(image_t.call(|| short.full_image()));
        }
    });
    m.set("storage.wal.full_image_ns", image_t.ns_per_call());

    // Recovery of a 1 MiB log, the redo of its records, and the checksum.
    let mut big = Wal::new();
    let mut txn = 0u64;
    while big.len() < MIB as usize {
        txn += 1;
        let key = format!("acct{txn:06}").into_bytes();
        big.append(&LogRecord::Begin { txn }).expect("record fits");
        big.append(&LogRecord::Put { txn, key, value: vec![7u8; 96] }).expect("record fits");
        big.append(&LogRecord::Decision { txn, commit: true }).expect("record fits");
    }
    let image = big.full_image();
    let recover_ns = median_of(spans, "storage.wal.recover", "1MiB", 5, || {
        Wal::recover(&image).expect("clean image")
    });
    m.set("storage.wal.recover_mb_s", image.len() as f64 / MIB / (recover_ns / 1e9));
    let records = Wal::recover(&image).expect("clean image");
    let redo_ns = median_of(spans, "storage.kv.redo_from_log", "1MiB", 5, || {
        let store = KvStore::redo_from_log(&records);
        assert_eq!(store.len() as u64, txn);
        store
    });
    m.set("storage.kv.redo_records_per_s", records.len() as f64 / (redo_ns / 1e9));
    let crc_ns = median_of(spans, "storage.crc32", "1MiB", 9, || crc32(&image));
    m.set("storage.crc32.mb_s", image.len() as f64 / MIB / (crc_ns / 1e9));
}

fn locks(m: &mut Metrics, spans: &mut Spans, overhead: f64) {
    // Steady state of an 8-deep pipeline: 8 transactions hold 2 keys each.
    const N: u64 = 8_000;
    let keys: Vec<Vec<u8>> = (0..4096).map(|a| format!("acct{a:06}").into_bytes()).collect();
    let mut table = LockManager::new();
    let (mut request_t, mut release_t) = (CallTimer::new(overhead), CallTimer::new(overhead));
    spans.span_n("probe.txn.locks.request+release_all", "", N, |_| {
        for txn in 0..N {
            for leg in 0..2 {
                let key = &keys[((txn * 2 + leg) % 4096) as usize];
                black_box(request_t.call(|| table.request(txn, key, LockMode::Exclusive)));
            }
            if txn >= 8 {
                release_t.call(|| table.release_all(txn - 8));
            }
        }
    });
    m.set("txn.locks.request_ns", request_t.ns_per_call());
    m.set("txn.locks.release_all_ns", release_t.ns_per_call());
}

fn paxos(m: &mut Metrics, spans: &mut Spans) {
    // One traced Paxos Commit round, 4 participants + 3 acceptors: the
    // Gray-Lamport cost columns, counted at the event boundary.
    let p = paxos_commit(4, 1);
    let a = analyse(&p);
    let sink = SharedSink::new(LayerSink::default());
    let cfg = RunConfig::happy(p.n_sites()).with_rule(rule_for(&p));
    let (report, _) = spans.span("engine.run_traced", "paxos1-4", |_| {
        run_traced(&p, &a, cfg, Tracer::to_sink(sink.clone()))
    });
    assert_eq!(report.decision(), Some(true), "fault-free Paxos Commit commits");
    m.set("paxos.msgs_per_op", sink.with(|s| s.count("msg-send")) as f64);
    m.set("paxos.stable_writes_per_op", sink.with(|s| s.wal_forces) as f64);
}

fn check(m: &mut Metrics, spans: &mut Spans) {
    // Shrinking and strictly replaying 2PC's blocking witness.
    let p = central_2pc(3);
    let a = analyse(&p);
    let opts = CheckOptions::default();
    let (votes, path) = explore(&p, &a, &opts).blocking_witness.expect("2PC n=3 blocks");
    let blocked = |r: &Runner<'_>, _: bool| !Oracles::blocked_sites(r).is_empty();
    let shrink_ns = median_of(spans, "check.shrink", "c2pc-3", 5, || {
        shrink(&p, &a, &opts, &votes, &path, blocked)
    });
    m.set("check.shrink_ms", shrink_ns / 1e6);
    let witness = shrink(&p, &a, &opts, &votes, &path, blocked);
    let replay_ns = median_of(spans, "check.replay_strict", "c2pc-3", 50, || {
        let mut r = Runner::new(&p, &a, plan_config(witness.n, &witness.votes, opts.rule));
        replay_strict(&mut r, &witness.steps).expect("a shrunk witness replays strictly");
        r
    });
    m.set("check.replay_strict_us", replay_ns / 1e3);

    // Outside any timed unit: the same exploration at two threads, and
    // with the dedup store squeezed to 64 KiB so it spills to disk (to
    // `TMPDIR`, which the traced run points into the benchmark's own
    // directory).
    let variant = |spans: &mut Spans,
                   p: &Protocol,
                   label: &'static str,
                   threads: usize,
                   mem_budget: usize| {
        let mut states = 0usize;
        let ns = median_of(spans, "check.run_check", label, 3, || {
            let options = CheckOptions {
                vote_plan: Some(all_yes(p)),
                threads,
                mem_budget,
                ..CheckOptions::default()
            };
            let r = run_check(p, options).expect("catalog protocols analyse");
            assert!(r.ok() && !r.stats.truncated, "{label} must check clean");
            states = r.stats.distinct_states;
            r
        });
        (states as f64, ns)
    };
    // 2PC n=4, the largest single-plan state space sized for the check
    // workload: beside 3PC and Paxos Commit it would push a unit past
    // 250 ms, so it is measured here.
    let (c2pc_states, c2pc_ns) = variant(spans, &central_2pc(4), "c2pc-4", 1, 0);
    m.set("check.states_per_s.c2pc-4", c2pc_states / (c2pc_ns / 1e9));
    let p = central_3pc(4);
    let (states, t1_ns) = variant(spans, &p, "c3pc-4-t1", 1, 0);
    let (_, t2_ns) = variant(spans, &p, "c3pc-4-t2", 2, 0);
    let (_, spill_ns) = variant(spans, &p, "c3pc-4-spill64k", 1, 64 * 1024);
    m.set("check.states_per_s.c3pc-4-t2", states / (t2_ns / 1e9));
    m.set("check.states_per_s.c3pc-4-spill64k", states / (spill_ns / 1e9));
    m.set("check.speedup_t2", t1_ns / t2_ns);
    m.set("check.spill_slowdown", spill_ns / t1_ns);
}

fn core(m: &mut Metrics, spans: &mut Spans, overhead: f64) {
    let opts = ReachOptions::default().with_threads(1);
    let p = central_2pc(7);
    let graph = ReachGraph::build_with(&p, opts).expect("2PC n=7 builds");
    let from_graph_ns = median_of(spans, "core.analysis.from_graph", "c2pc-7", 3, || {
        Analysis::from_graph(&p, graph.clone())
    });
    m.set("core.analysis.from_graph_ms", from_graph_ns / 1e6);

    let a = Analysis::from_graph(&p, graph);
    let theorem_ns =
        median_of(spans, "core.theorem.check_with", "c2pc-7", 100, || theorem::check_with(&p, &a));
    m.set("core.theorem.check_us", theorem_ns / 1e3);

    let g = a.graph().expect("retained");
    let node = g.node((g.node_count() / 2) as u32);
    let mut fp_t = CallTimer::new(overhead);
    spans.span_n("probe.core.fingerprint128", "c2pc-7-node", 20_000, |_| {
        for _ in 0..20_000 {
            black_box(fp_t.call(|| fingerprint128(black_box(node))));
        }
    });
    m.set("core.fingerprint128_ns", fp_t.ns_per_call());

    let p3 = central_3pc(5);
    let a3 = analyse(&p3);
    let verify_ns = median_of(spans, "core.verify.verify_termination_with", "c3pc-5", 5, || {
        let v = verify_termination_with(&p3, &a3);
        assert!(v.nonblocking(), "3PC n=5 terminates");
        v
    });
    m.set("core.verify.ms", verify_ns / 1e6);
    let p2 = central_2pc(5);
    let synth_ns = median_of(spans, "core.synthesis.make_nonblocking", "c2pc-5", 5, || {
        synthesis::make_nonblocking(&p2).expect("2PC gains a buffer state")
    });
    m.set("core.synthesis.ms", synth_ns / 1e6);
}

fn obs_and_spec(m: &mut Metrics, spans: &mut Spans, events: &[Event]) {
    assert!(!events.is_empty(), "a traced pipeline unit emits events");
    let export_ns = median_of(spans, "obs.export.to_jsonl", "", 3, || export::to_jsonl(events));
    m.set("obs.export.jsonl_events_per_s", events.len() as f64 / (export_ns / 1e9));
    let text = export::to_jsonl(events);
    let parse_ns = median_of(spans, "obs.analyze.parse_jsonl", "", 3, || {
        let parsed = analyze::parse_jsonl(&text).expect("the exporter's output parses");
        assert_eq!(parsed.len(), events.len());
        parsed
    });
    m.set("obs.analyze.parse_events_per_s", events.len() as f64 / (parse_ns / 1e9));

    const SPEC: &str = include_str!("../../specs/central-3pc.nbc");
    let spec_ns = median_of(spans, "spec.parse", "central-3pc.nbc", 50, || {
        nbc_spec::parse(SPEC, 3).expect("the shipped spec parses")
    });
    m.set("spec.parse_us", spec_ns / 1e3);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_timer_subtracts_the_clock_and_never_goes_negative() {
        let mut t = CallTimer::new(1e12);
        t.call(|| ());
        assert_eq!(t.ns_per_call(), 0.0);
        let mut t = CallTimer::new(0.0);
        assert_eq!(t.ns_per_call(), 0.0, "no calls, no time");
        assert_eq!(t.call(|| 5), 5);
        t.call(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        assert!(t.ns_per_call() >= 1e6, "two calls, one of 2 ms");
        assert!(clock_overhead_ns() < 10_000.0);
    }
}
