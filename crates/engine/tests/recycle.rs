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
//! a story sink on its tracer.
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
use nbc_obs::{export::to_jsonl, LinesSink, MemorySink, SharedSink, Tracer};
use nbc_paxos::paxos_commit;
use nbc_simnet::{LatencyModel, NetEvent, SimRng};

/// The configurations one protocol's runner is dragged through: every
/// `stride`-th crash point, each decorated differently, and whether its
/// tracer tells the story.
fn configs(p: &Protocol, stride: usize) -> Vec<(RunConfig, bool)> {
    let n = p.n_sites();
    let rules = [
        TerminationRule::Skeen,
        TerminationRule::Cooperative,
        TerminationRule::QuorumSkeen,
        TerminationRule::NaiveCs,
    ];
    let mut out = vec![(RunConfig::happy(n), false), (RunConfig::one_no(n, n - 1), false)];
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
            0 | 1 => {}
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
        out.push((cfg, i % 7 == 1));
    }
    out
}

/// A tracer into an event list and, when `tells`, a story sink as well.
fn traced(tells: bool) -> (Tracer, SharedSink<MemorySink>, SharedSink<LinesSink>) {
    let (sink, story) = (SharedSink::new(MemorySink::default()), SharedSink::default());
    let mut tracer = Tracer::to_sink(sink.clone());
    if tells {
        tracer.attach(story.clone());
    }
    (tracer, sink, story)
}

fn lines(story: &SharedSink<LinesSink>) -> Vec<String> {
    story.with(|s| s.lines.clone())
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
    for (i, (cfg, tells)) in configs(p, stride).into_iter().enumerate() {
        let label = format!("{} config {i}: {cfg:?}", p.name);
        let (fresh_tracer, fresh_events, fresh_story) = traced(tells);
        let (recycled_tracer, recycled_events, recycled_story) = traced(tells);
        let mut fresh = Runner::with_tracer(p, &a, cfg.clone(), fresh_tracer);
        // Every other run is configured in the spent run's vote vector.
        let mut recycled = if i % 2 == 0 {
            spare.recycle(cfg, recycled_tracer)
        } else {
            spare.recycle_with(recycled_tracer, |mut spent| {
                let mut cfg = cfg;
                std::mem::swap(&mut cfg.votes, &mut spent.votes);
                cfg.votes.clear();
                cfg.votes.extend_from_slice(&spent.votes);
                cfg
            })
        };
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
        assert_eq!(lines(&recycled_story), lines(&fresh_story), "story: {label}");
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

/// Everything observable about a runner but what its tracer's sinks were
/// told (forks share their source's sinks, so each sees the other's).
/// Of the network's counters the report carries the send count; the rest
/// are compared where they can be reached, in the engine's `digest_tests`
/// and in `nbc-simnet`'s own `clone_from` tests.
fn fork_state(r: &Runner<'_>) -> String {
    let report = r.report();
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
    for (i, (cfg, tells)) in configs(p, stride).into_iter().enumerate() {
        let label = format!("{} config {i}: {cfg:?}", p.name);
        let mut rng = SimRng::seed_from_u64(i as u64);
        note(dirt, "inaccurate detector", cfg.detector.is_some_and(|d| !d.is_accurate()));
        note(dirt, "partition", cfg.partition.is_some());
        note(dirt, "story", tells);
        let (tracer, events, story) = traced(tells);
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
                let (tracer, events, _) = traced(false);
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
        let (at_fork, told_at_fork) = (events.with(|s| s.events.len()), lines(&story).len());

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
        let (midway, told_midway) = (events.with(|s| s.events.len()), lines(&story).len());
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
        // One story sink: the fork told the reference's lines after them.
        let told = lines(&story);
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

// ---------------------------------------------------------------------
// Re-forks: clone_from into a runner forked from the same line before
// ---------------------------------------------------------------------

/// `fork`, just refreshed from `source`, must equal `source.clone()` field
/// for field, and again after each of a dozen seeded moves made on both.
fn matches_a_clone(fork: &mut Runner<'_>, source: &Runner<'_>, rng: &mut SimRng, label: &str) {
    assert!(caches_coherent(fork), "stale fingerprint cached: {label}");
    let mut reference = source.clone();
    assert_eq!(fork_state(fork), fork_state(&reference), "at the re-fork: {label}");
    let mut moves = rng.clone();
    for step in 0..12 {
        random_move(&mut reference, rng);
        random_move(fork, &mut moves);
        assert!(caches_coherent(fork), "move {step}: {label}");
        assert_eq!(fork_state(fork), fork_state(&reference), "move {step}: {label}");
    }
}

/// The sites' fields, without asking for a digest (which would fill the
/// caches a case may want empty).
fn sites_text(r: &Runner<'_>) -> String {
    format!("{:?}", r.sites())
}

/// The four ways a fork meets its source again, each compared with a fresh
/// clone. Returns, per case, how often the runner refreshed did differ
/// from its source before the refresh.
fn re_forks_match_clones(p: &Protocol, a: &Analysis) -> [usize; 4] {
    let mut differed = [0; 4];
    let stride = 2 * p.n_sites().min(5) - 5;
    for (i, (cfg, tells)) in configs(p, stride).into_iter().enumerate() {
        let label = |case: &str| format!("{} config {i}, {case}: {cfg:?}", p.name);
        let mut rng = SimRng::seed_from_u64(1_000 + i as u64);
        let tracer = if tells { Tracer::to_sink(LinesSink::default()) } else { Tracer::off() };
        let mut source = Runner::with_tracer(p, a, cfg.clone(), tracer);
        for _ in 0..rng.gen_range(0..30) {
            random_move(&mut source, &mut rng);
        }
        // A used target, its caches filled for a state it is about to lose.
        let mut fork = Runner::new(p, a, RunConfig::happy(p.n_sites()));
        (0..i % 7).for_each(|_| random_move(&mut fork, &mut rng));
        fork.digest();
        if i % 2 == 0 {
            source.digest();
        }

        // (a) Forked, the fork moved on, forked again from the same source.
        fork.clone_from(&source);
        (0..1 + i % 4).for_each(|_| random_move(&mut fork, &mut rng));
        if i % 3 != 0 {
            fork.digest();
        }
        differed[0] += usize::from(sites_text(&fork) != sites_text(&source));
        fork.clone_from(&source);
        matches_a_clone(&mut fork, &source, &mut rng, &label("re-forked after the fork moved"));

        // (b) Forked, the source moved on, forked again.
        fork.clone_from(&source);
        if i % 3 == 1 {
            fork.digest();
        }
        let at_fork = sites_text(&source);
        (0..1 + i % 4).for_each(|_| random_move(&mut source, &mut rng));
        assert_eq!(sites_text(&fork), at_fork, "fork moved with its source: {}", label("(b)"));
        differed[1] += usize::from(sites_text(&fork) != sites_text(&source));
        fork.clone_from(&source);
        matches_a_clone(&mut fork, &source, &mut rng, &label("re-forked after the source moved"));

        // (c) A fork of a fork: refreshed from the middle runner after it
        // moved, then from the first source.
        let mut middle = Runner::new(p, a, RunConfig::happy(p.n_sites()));
        middle.clone_from(&source);
        fork.clone_from(&middle);
        (0..1 + i % 4).for_each(|_| random_move(&mut middle, &mut rng));
        if i % 2 == 1 {
            fork.digest();
            middle.digest();
        }
        differed[2] += usize::from(sites_text(&fork) != sites_text(&middle));
        fork.clone_from(&middle);
        matches_a_clone(&mut fork, &middle, &mut rng, &label("fork of a fork, from the middle"));
        fork.clone_from(&source);
        matches_a_clone(&mut fork, &source, &mut rng, &label("fork of a fork, from the first"));

        // (d) Forked, recycled for another run, forked again.
        fork.clone_from(&source);
        let mut fork = fork.recycle(RunConfig::happy(p.n_sites()), Tracer::off());
        if i % 2 == 0 {
            fork.digest();
        }
        differed[3] += usize::from(sites_text(&fork) != sites_text(&source));
        fork.clone_from(&source);
        matches_a_clone(&mut fork, &source, &mut rng, &label("re-forked after a recycle"));
    }
    differed
}

#[test]
fn re_forks_into_runners_forked_before_match_fresh_clones() {
    let mut protocols: Vec<Protocol> = (3..=4).flat_map(catalog).collect();
    protocols.push(paxos_commit(2, 1));
    let mut differed = [0; 4];
    for p in &protocols {
        let a = Analysis::build(p).unwrap();
        let seen = re_forks_match_clones(p, &a);
        differed.iter_mut().zip(seen).for_each(|(total, d)| *total += d);
    }
    assert!(
        differed.iter().all(|&d| d > 0),
        "a case never differed before its re-fork: {differed:?}"
    );
}
