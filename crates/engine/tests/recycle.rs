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
//!
//! And `clone_from` ≡ `clone`: a fork copied into the storage of a runner
//! left anywhere — the model checker's fork — must be indistinguishable
//! from a fresh `clone()` of the same source, cached fingerprints included.

use nbc_core::protocols::catalog;
use nbc_core::{Analysis, Protocol};
use nbc_engine::site::{Mode, SiteRt};
use nbc_engine::{
    channel_of, enumerate_crash_specs, DetectorSpec, PartitionSpec, RunConfig, Runner,
    TerminationRule,
};
use nbc_obs::{export::to_jsonl, MemorySink, SharedSink, Tracer};
use nbc_paxos::paxos_commit;
use nbc_simnet::{LatencyModel, NetEvent, SimRng};

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

// ---------------------------------------------------------------------
// clone_from ≡ clone
// ---------------------------------------------------------------------

/// One seeded scheduler move: the time-ordered driver's next event, or an
/// action of one of the kinds the model checker (and the partition
/// experiments) inject — out of time order, per-channel FIFO kept.
fn random_move(r: &mut Runner<'_>, rng: &mut SimRng) {
    let n = r.sites().len();
    let pending = r.pending_events();
    let some_channel = |rng: &mut SimRng| channel_of(&pending[rng.gen_range(0..pending.len())].1);
    match rng.gen_range(0..14u32) {
        0..=2 => {
            r.step();
        }
        3..=6 if !pending.is_empty() => {
            let ch = some_channel(rng);
            let (head, _) = pending.iter().find(|(_, ev)| channel_of(ev) == ch).expect("head");
            r.fire_scheduled(*head);
        }
        7 if !pending.is_empty() => {
            let ch = some_channel(rng);
            let (tail, _) = pending.iter().rfind(|(_, ev)| channel_of(ev) == ch).expect("tail");
            r.drop_scheduled(*tail);
        }
        // Crash a site and lose a suffix of its undelivered sends.
        8 => {
            let site = rng.gen_range(0..n);
            let sends = pending
                .iter()
                .filter(|(_, ev)| matches!(ev, NetEvent::Deliver { src, .. } if *src == site));
            let mut sends: Vec<u64> = sends.map(|(seq, _)| *seq).collect();
            r.crash_now(site);
            sends.reverse();
            sends.truncate(rng.gen_range(0..=sends.len()));
            sends.into_iter().for_each(|seq| assert!(r.drop_scheduled(seq)));
        }
        9 | 10 => r.recover_now(rng.gen_range(0..n)),
        11 => r.suspect_now(rng.gen_range(0..n), rng.gen_range(0..n)),
        12 => r.unsuspect_now(rng.gen_range(0..n), rng.gen_range(0..n)),
        _ if rng.gen_ratio(1, 2) => r.partition_now((0..n).map(|i| (i + n) % 2).collect()),
        _ => r.heal_now(),
    }
}

/// Everything observable about a runner but its recorded story (forks
/// share the story sink of their source, so each sees the other's lines).
/// Of the network's counters the report carries the send count; the rest
/// are compared where they can be reached, in the engine's `digest_tests`
/// and in `nbc-simnet`'s own `clone_from` tests.
fn fork_state(r: &Runner<'_>) -> String {
    let mut report = r.report();
    report.trace.clear();
    let pending = r.pending_events();
    format!(
        "{report:?}\n{:032x}\n{pending:?}\n{:?} at {}\n{:?}",
        r.digest(),
        r.next_time(),
        r.now(),
        r.sites()
    )
}

/// Every site's cached fingerprint is the one its state hashes to.
fn caches_coherent(r: &Runner<'_>) -> bool {
    r.sites().iter().all(|s| s.digest() == SiteRt::digest(s))
}

/// What the runners met at a fork had going on, counted by name to prove
/// the dirty starts occurred.
type Dirt = std::collections::BTreeMap<&'static str, usize>;

const DIRT: [&str; 14] = [
    "blocked",
    "electing",
    "down",
    "recovering",
    "suspects",
    "recovered peers",
    "recovery replies",
    "pending acks",
    "in flight",
    "inaccurate detector",
    "partition",
    "story",
    "target cache filled, source cache empty",
    "target of another protocol",
];

fn note(dirt: &mut Dirt, what: &'static str, seen: bool) {
    assert!(DIRT.contains(&what));
    *dirt.entry(what).or_default() += usize::from(seen);
}

fn note_sites(dirt: &mut Dirt, r: &Runner<'_>) {
    let mut any = |what, f: &dyn Fn(&SiteRt) -> bool| {
        note(dirt, what, r.sites().iter().any(|s| f(s)));
    };
    any("blocked", &|s| s.mode == Mode::Blocked);
    any("electing", &|s| matches!(s.mode, Mode::Terminating { .. }));
    any("down", &|s| s.mode == Mode::Down);
    any("recovering", &|s| s.mode == Mode::Recovering);
    any("suspects", &|s| !s.suspects.is_empty());
    any("recovered peers", &|s| !s.recovered_peers.is_empty());
    any("recovery replies", &|s| !s.recovery_replies.is_empty());
    any("pending acks", &|s| !s.backup_state.pending_acks.is_empty());
    note(dirt, "in flight", !r.net_quiescent());
}

/// Fork mid-run sources of `protocols[ix]` into dirty targets — the source
/// of the fork before, or every fifth time a runner of *another* protocol —
/// by `clone_from`, and hold each against `source.clone()`: at the fork,
/// after every one of a dozen further moves made on both, and at
/// quiescence.
fn clone_from_matches_clone(protocols: &[(Protocol, Analysis)], ix: usize, dirt: &mut Dirt) {
    let (p, a) = &protocols[ix];
    let stride = 2 * p.n_sites().min(5) - 5;
    let mut target: Option<(Runner<'_>, SharedSink<MemorySink>)> = None;
    for (i, cfg) in configs(p, stride).into_iter().enumerate() {
        let label = format!("{} config {i}: {cfg:?}", p.name);
        let mut rng = SimRng::seed_from_u64(i as u64);
        note(dirt, "inaccurate detector", cfg.detector.is_some_and(|d| !d.is_accurate()));
        note(dirt, "partition", cfg.partition.is_some());
        note(dirt, "story", cfg.record_trace);
        let (tracer, events) = traced();
        let mut source = Runner::with_tracer(p, a, cfg, tracer);
        for _ in 0..rng.gen_range(0..40) {
            random_move(&mut source, &mut rng);
        }
        // The target: where the previous source was left, or a runner of
        // another protocol (other sites, another site count) mid-run.
        let (mut fork, old_events) = match target.take() {
            Some(previous) if i % 5 != 4 => previous,
            _ => {
                let (q, qa) = &protocols[(ix + 1 + i) % protocols.len()];
                note(dirt, "target of another protocol", q.name != p.name);
                let (tracer, events) = traced();
                let mut other = Runner::with_tracer(q, qa, RunConfig::happy(q.n_sites()), tracer);
                (0..i % 9).for_each(|_| random_move(&mut other, &mut rng));
                (other, events)
            }
        };
        // Cached fingerprints: the target's filled (for the state it is
        // about to lose) two times in three, the source's left empty at
        // the sites its last move touched two times in three.
        if i % 3 != 0 {
            fork.digest();
        }
        if i % 3 == 1 {
            source.digest();
        }
        note(dirt, "target cache filled, source cache empty", i % 3 == 2);
        note_sites(dirt, &source);
        note_sites(dirt, &fork);
        let old_len = old_events.with(|s| s.events.len());
        let (at_fork, told_at_fork) =
            (events.with(|s| s.events.len()), source.report().trace.len());

        // Judged before anything asks the source for its digest, which
        // would fill the caches the fork must have copied empty.
        fork.clone_from(&source);
        assert!(caches_coherent(&fork), "stale fingerprint cached: {label}");
        let mut reference = source.clone();
        let before = fork_state(&source);
        assert_eq!(fork_state(&fork), before, "at the fork: {label}");
        assert_eq!(fork_state(&reference), before, "at the fork: {label}");

        // The same moves on both. Forks share their source's sinks, so the
        // reference's events come first, then the recycled fork's.
        let mut moves = rng.clone();
        let mut states = Vec::new();
        for _ in 0..12 {
            random_move(&mut reference, &mut rng);
            states.push(fork_state(&reference));
        }
        while reference.step() {}
        states.push(fork_state(&reference));
        let (midway, told_midway) =
            (events.with(|s| s.events.len()), reference.report().trace.len());
        for (step, state) in states.iter().enumerate() {
            if step == 12 {
                while fork.step() {}
            } else {
                random_move(&mut fork, &mut moves);
            }
            assert!(caches_coherent(&fork), "step {step}: {label}");
            assert_eq!(&fork_state(&fork), state, "step {step}: {label}");
        }
        events.with(|s| {
            let (first, second) = s.events[at_fork..].split_at(midway - at_fork);
            assert_eq!(to_jsonl(second), to_jsonl(first), "events after the fork: {label}");
        });
        let told = fork.report().trace;
        assert_eq!(told, reference.report().trace, "one story sink: {label}");
        assert_eq!(told[told_midway..], told[told_at_fork..told_midway], "story: {label}");
        // Neither fork reached back into the source or into the tracer the
        // target used to have.
        assert_eq!(fork_state(&source), before, "fork leaked into its source: {label}");
        assert_eq!(old_events.with(|s| s.events.len()), old_len, "old tracer kept: {label}");
        target = Some(if i % 2 == 0 { (source, events) } else { (fork, events) });
    }
}

#[test]
fn forks_copied_into_dirty_runners_match_fresh_clones() {
    let mut protocols: Vec<Protocol> = (3..=5).flat_map(catalog).collect();
    protocols.push(paxos_commit(2, 1));
    let analysed = |p: Protocol| {
        let a = Analysis::build(&p).unwrap();
        (p, a)
    };
    let protocols: Vec<(Protocol, Analysis)> = protocols.into_iter().map(analysed).collect();
    let mut dirt = Dirt::default();
    for ix in 0..protocols.len() {
        clone_from_matches_clone(&protocols, ix, &mut dirt);
    }
    let missing: Vec<_> =
        DIRT.iter().filter(|&what| dirt.get(what).is_none_or(|&n| n == 0)).collect();
    assert!(missing.is_empty(), "dirty starts missing: {missing:?} of {dirt:?}");
}
