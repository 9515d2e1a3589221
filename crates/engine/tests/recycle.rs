//! Recycled ≡ fresh: a [`Runner`] re-armed in the storage of another,
//! finished or abandoned, run must be indistinguishable from one built by
//! [`Runner::with_tracer`] for the same configuration — same digest after
//! every step, same report, same WAL bytes and watermarks, same events.
//!
//! One runner per protocol is recycled down a long list of configurations
//! drawn from the exhaustive crash-point enumeration, so each run starts in
//! the leftovers of a *different* one: runs that ended blocked, runs the
//! event valve truncated, runs abandoned in the middle of an election, and
//! runs that carried a partition, a suspicion detector, jittered latency or
//! a recorded story.

use nbc_core::protocols::catalog;
use nbc_core::{Analysis, Protocol};
use nbc_engine::{
    enumerate_crash_specs, DetectorSpec, PartitionSpec, RunConfig, Runner, TerminationRule,
};
use nbc_obs::{export::to_jsonl, MemorySink, SharedSink, Tracer};
use nbc_paxos::paxos_commit;
use nbc_simnet::LatencyModel;

/// The configurations one protocol's runner is dragged through: every
/// `stride`-th crash point, each decorated differently.
fn configs(p: &Protocol, stride: usize) -> Vec<RunConfig> {
    let n = p.n_sites();
    let rules = [
        TerminationRule::Skeen,
        TerminationRule::Cooperative,
        TerminationRule::QuorumSkeen,
        TerminationRule::NaiveCs,
    ];
    let mut out = vec![RunConfig::happy(n), RunConfig::one_no(n, n - 1)];
    let crashes = enumerate_crash_specs(p, None).into_iter().step_by(stride);
    for (i, mut crash) in crashes.enumerate() {
        if i % 3 == 1 {
            crash.recover_at = Some(40);
        }
        let mut cfg = RunConfig::happy(n).with_crash(crash).with_rule(rules[i % rules.len()]);
        // A livelocked run (false suspicion can churn elections for ever)
        // is truncated here, not at the default 200 000 events.
        cfg.max_events = 600;
        match i % 7 {
            0 => {}
            1 => cfg.record_trace = true,
            // Inaccurate on purpose: false suspicions, elections, churn.
            2 => cfg.detector = Some(DetectorSpec { timeout: 6, jitter: (1, 12), seed: i as u64 }),
            3 => {
                cfg.partition =
                    Some(PartitionSpec { at: 2, groups: (0..n).map(|s| (s + i) % 2).collect() });
            }
            // The event valve cuts the run short, mid-protocol.
            4 => cfg.max_events = 3 + i % 11,
            5 => cfg.latency = LatencyModel::uniform(1, 9, i as u64),
            _ => {
                cfg.votes[i % n] = false;
                cfg = cfg.with_txn_id(1_000 + i as u64).with_start_at(17 * i as u64);
            }
        }
        out.push(cfg);
    }
    out
}

fn traced() -> (Tracer, SharedSink<MemorySink>) {
    let sink = SharedSink::new(MemorySink::default());
    (Tracer::to_sink(sink.clone()), sink)
}

/// What a run leaves behind, rendered for comparison.
fn state(r: &Runner<'_>) -> String {
    let wals: Vec<_> =
        r.sites().iter().map(|s| (s.wal.as_bytes().to_vec(), s.wal.durable_len())).collect();
    let (report, pending) = (r.report(), r.pending_events());
    format!("{report:?}\n{:032x}\n{wals:?}\n{pending:?}\n{:?}", r.digest(), r.sites())
}

/// Drive `p`'s configurations through one recycled runner and a fresh one
/// each, in lock-step. Returns how many runs ended blocked, truncated, and
/// were abandoned during an election.
fn recycled_matches_fresh(p: &Protocol, stride: usize) -> [usize; 3] {
    let a = Analysis::build(p).unwrap();
    let mut seen = [0; 3];
    let mut spare = Runner::new(p, &a, RunConfig::happy(p.n_sites()));
    for (i, cfg) in configs(p, stride).into_iter().enumerate() {
        let label = format!("{} config {i}: {cfg:?}", p.name);
        let (fresh_tracer, fresh_events) = traced();
        let (recycled_tracer, recycled_events) = traced();
        let mut fresh = Runner::with_tracer(p, &a, cfg.clone(), fresh_tracer);
        let mut recycled = spare.recycle(cfg, recycled_tracer);
        assert_eq!(state(&recycled), state(&fresh), "armed: {label}");
        // Every fifth run is abandoned at its first election (or after 25
        // steps), so the next one inherits a half-finished termination.
        let abandon = i % 5 == 4;
        let mut steps = 0;
        while !(abandon && (fresh.report().elections > 0 || steps == 25)) {
            let stepped = fresh.step();
            assert_eq!(recycled.step(), stepped, "step {steps}: {label}");
            assert_eq!(recycled.digest(), fresh.digest(), "step {steps}: {label}");
            assert_eq!(recycled.next_time(), fresh.next_time(), "step {steps}: {label}");
            if !stepped {
                break;
            }
            steps += 1;
        }
        assert_eq!(state(&recycled), state(&fresh), "after {steps} steps: {label}");
        let events = |sink: &SharedSink<MemorySink>| sink.with(|s| to_jsonl(&s.events));
        assert_eq!(events(&recycled_events), events(&fresh_events), "{label}");
        let report = fresh.report();
        seen[0] += usize::from(report.any_blocked);
        seen[1] += usize::from(report.truncated);
        seen[2] += usize::from(abandon && report.elections > 0 && fresh.next_time().is_some());
        spare = recycled;
    }
    seen
}

#[test]
fn catalog_runs_recycled_from_dirty_runners_match_fresh_ones() {
    let mut seen = [0; 3];
    for n in 3..=5 {
        for p in catalog(n) {
            // Thin the crash points as they multiply with n.
            let dirty = recycled_matches_fresh(&p, 2 * n - 5);
            seen.iter_mut().zip(dirty).for_each(|(total, d)| *total += d);
        }
    }
    let [blocked, truncated, mid_election] = seen;
    assert!(blocked > 0 && truncated > 0 && mid_election > 0, "dirty starts missing: {seen:?}");
}

#[test]
fn paxos_commit_runs_recycled_from_dirty_runners_match_fresh_ones() {
    let [_, truncated, _] = recycled_matches_fresh(&paxos_commit(2, 1), 1);
    assert!(truncated > 0);
}

#[test]
#[should_panic(expected = "crash spec names site 9 of 3")]
fn a_crash_spec_naming_a_missing_site_is_refused_up_front() {
    let p = nbc_core::protocols::central_3pc(3);
    let mut crash = enumerate_crash_specs(&p, None)[0];
    crash.site = 9;
    let _ = Runner::new(&p, &std::sync::OnceLock::new(), RunConfig::happy(3).with_crash(crash));
}
