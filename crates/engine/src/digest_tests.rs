//! What [`Runner::digest`] must and must not see, and that caching it per
//! site and copying the caches into forks — fresh ones and recycled ones —
//! changes neither.

use std::cmp::Reverse;

use nbc_core::protocols::{catalog, central_3pc};
use nbc_core::{Analysis, MsgKind, Protocol, StateId};
use nbc_paxos::paxos_commit;
use nbc_simnet::{NetEvent, SimRng};
use nbc_storage::{LogRecord, Wal};

use crate::run::Timer;
use crate::site::Mode;
use crate::{channel_of, RunConfig, Runner, Wire};

// ---------------------------------------------------------------------
// Cache coherence and fork isolation on random schedules
// ---------------------------------------------------------------------

/// One random scheduler action, of every kind the model checker (and the
/// partition experiments) can inject.
fn random_action(r: &mut Runner<'_>, rng: &mut SimRng) {
    let n = r.sites().len();
    let pending: Vec<(u64, NetEvent<Wire>)> = r.pending_events();
    match rng.gen_range(0..10u32) {
        // Deliver some channel's head (weighted: this is what makes runs
        // progress).
        0..=3 if !pending.is_empty() => {
            let ch = channel_of(&pending[rng.gen_range(0..pending.len())].1);
            let (seq, _) = pending.iter().find(|(_, ev)| channel_of(ev) == ch).expect("head");
            r.fire_scheduled(*seq);
        }
        // Drop some link's tail.
        4 if !pending.is_empty() => {
            let ch = channel_of(&pending[rng.gen_range(0..pending.len())].1);
            let (seq, _) = pending.iter().rfind(|(_, ev)| channel_of(ev) == ch).expect("tail");
            r.drop_scheduled(*seq);
        }
        // Crash a site and lose a suffix of its undelivered sends.
        5 => {
            let site = rng.gen_range(0..n);
            let mut sends: Vec<u64> = pending
                .iter()
                .filter(|(_, ev)| matches!(ev, NetEvent::Deliver { src, .. } if *src == site))
                .map(|(seq, _)| *seq)
                .collect();
            r.crash_now(site);
            sends.reverse();
            let lose = rng.gen_range(0..=sends.len());
            for seq in sends.into_iter().take(lose) {
                r.drop_scheduled(seq);
            }
        }
        6 => r.recover_now(rng.gen_range(0..n)),
        7 => r.suspect_now(rng.gen_range(0..n), rng.gen_range(0..n)),
        8 => r.unsuspect_now(rng.gen_range(0..n), rng.gen_range(0..n)),
        _ => {
            if r.net.is_partitioned() {
                r.heal_now();
            } else {
                r.partition_now((0..n).map(|_| rng.gen_range(0..2usize)).collect());
            }
        }
    }
}

fn coherent_and_isolated(protocol: &Protocol, seeds: std::ops::Range<u64>) {
    let analysis = Analysis::build(protocol).expect("analyzable");
    let n = protocol.n_sites();
    // The runner every other fork is copied into: whatever an earlier
    // step, or an earlier seed's run, left in it.
    let mut used = Runner::new(protocol, &analysis, RunConfig::lockstep(n));
    for seed in seeds {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut config = RunConfig::lockstep(n);
        for v in config.votes.iter_mut().take(protocol.n_participants()) {
            *v = rng.gen_ratio(3, 4);
        }
        let mut runner = Runner::new(protocol, &analysis, config);
        for step in 0..60 {
            let ctx = format!("{} seed {seed} step {step}", protocol.name);
            // The parent keeps a fork of the pre-action state, by `clone()`
            // and by `clone_from` into the used runner in turn...
            let parent = if step % 2 == 0 {
                runner.clone()
            } else {
                used.clone_from(&runner);
                used
            };
            let parent_digest = parent.digest();
            assert_eq!(parent_digest, runner.digest(), "fork differs: {ctx}");
            let parent_sites = format!("{:?}", parent.sites);
            random_action(&mut runner, &mut rng);
            // ...which the action on the other fork must not have touched,
            // neither its fields nor its (cached or recomputed) digest.
            assert_eq!(format!("{:?}", parent.sites), parent_sites, "fork leaked: {ctx}");
            assert_eq!(parent.digest(), parent_digest, "parent digest moved: {ctx}");
            assert_eq!(parent.deep_copy().digest(), parent_digest, "parent cache stale: {ctx}");
            // A fork of the mutated runner, into a runner holding a cached
            // fingerprint at every site — of the pre-action state — while
            // the source has none at the sites the action touched, must
            // not keep one of its own.
            used = parent;
            used.clone_from(&runner);
            assert_eq!(used.digest(), runner.deep_copy().digest(), "recycled cache: {ctx}");
            let counters = |r: &Runner<'_>| format!("{:?}", r.net.stats());
            assert_eq!(counters(&used), counters(&runner), "network counters: {ctx}");
            // And the mutated fork's cached digest is the from-scratch one.
            assert_eq!(runner.digest(), runner.deep_copy().digest(), "stale site cache: {ctx}");
            // Leave the used runner somewhere else again, caches filled.
            random_action(&mut used, &mut rng);
            used.digest();
        }
    }
}

#[test]
fn cached_digest_matches_recomputation_and_forks_are_isolated() {
    for protocol in catalog(3) {
        coherent_and_isolated(&protocol, 0..24);
    }
    coherent_and_isolated(&paxos_commit(2, 1), 0..24);
}

// ---------------------------------------------------------------------
// Sensitivity: every covered field moves the digest, nothing else does
// ---------------------------------------------------------------------

/// A mid-run 3PC runner with every digest-covered collection populated
/// (by hand where the run has not got there: the digest does not care how
/// a value arose).
fn busy_runner<'a>(protocol: &'a Protocol, analysis: &'a Analysis) -> Runner<'a> {
    let mut r = Runner::new(protocol, analysis, RunConfig::lockstep(3));
    // Coordinator's xact broadcast is in flight; deliver one copy.
    let (seq, _) = r.pending_events().into_iter().next().expect("xact in flight");
    assert!(r.fire_scheduled(seq));
    let s = &mut *r.sites[1];
    s.inbox = vec![(0, MsgKind::XACT), (2, MsgKind::YES)];
    s.mode = Mode::Terminating { backup: 0 };
    s.aligned_class = Some(1);
    s.outcome = Some(true);
    s.backup_state.phase1_sent = true;
    s.backup_state.pending_acks.insert(2);
    s.backup_state.collected = vec![(0, 1), (2, 2)];
    s.pending_queries = vec![0, 2];
    s.recovery_replies = vec![(0, None, 1), (2, Some(true), 4)];
    s.recovered_peers.insert(0);
    s.suspects.insert(2);
    r.timers.push(Reverse((7, Timer::Recover(2))));
    assert!(r.net.iter_scheduled().count() >= 2, "several messages in flight");
    r
}

fn synced_wal(rec: LogRecord) -> Wal {
    let mut w = Wal::new();
    w.append_sync(&rec).expect("fits");
    w
}

type Mutation = (&'static str, fn(&mut Runner<'_>));

fn progress(state: u32) -> LogRecord {
    LogRecord::Progress { txn: 1, state, class: 1 }
}

/// Each of these changes exactly one covered field and must change the
/// digest — and no two of them may produce the same digest, which is what
/// separates the pairs that differ from *each other* in one field only
/// (the two `wal` rewrites: one payload byte and its checksum; `wal
/// appended` synced and unsynced: `durable_len` alone; the two decisions
/// sent: one payload bit).
const MUST_CHANGE: &[Mutation] = &[
    ("mode", |r| r.sites[1].mode = Mode::Blocked),
    ("backup id", |r| r.sites[1].mode = Mode::Terminating { backup: 2 }),
    ("state", |r| r.sites[1].state = StateId(r.sites[1].state.0 + 1)),
    ("inbox element", |r| r.sites[1].inbox[1] = (2, MsgKind::NO)),
    ("inbox multiplicity +1", |r| r.sites[1].inbox.push((2, MsgKind::YES))),
    // Two more copies: an XOR-combined multiset would cancel them out.
    ("inbox multiplicity +2", |r| r.sites[1].inbox.extend([(0, MsgKind::ACK); 2])),
    ("inbox element removed", |r| r.sites[1].inbox.truncate(1)),
    ("wal rewritten", |r| r.sites[1].wal = synced_wal(progress(7))),
    ("wal byte", |r| r.sites[1].wal = synced_wal(progress(8))),
    ("wal appended", |r| {
        r.sites[1].wal.append_sync(&LogRecord::End { txn: 1 }).expect("fits");
    }),
    ("durable_len", |r| {
        r.sites[1].wal.append(&LogRecord::End { txn: 1 }).expect("fits");
    }),
    ("view bit", |r| r.sites[1].view[2] = false),
    ("aligned class set", |r| r.sites[1].aligned_class = Some(2)),
    ("aligned class cleared", |r| r.sites[1].aligned_class = None),
    ("outcome flipped", |r| r.sites[1].outcome = Some(false)),
    ("outcome cleared", |r| r.sites[1].outcome = None),
    ("phase1_sent", |r| r.sites[1].backup_state.phase1_sent = false),
    ("pending_acks", |r| {
        r.sites[1].backup_state.pending_acks.insert(0);
    }),
    ("collected element", |r| r.sites[1].backup_state.collected[0] = (0, 2)),
    ("collected multiplicity", |r| r.sites[1].backup_state.collected.extend([(2, 2); 2])),
    ("queries", |r| r.sites[1].pending_queries.extend([1, 1])),
    ("replies element", |r| r.sites[1].recovery_replies[0] = (0, Some(false), 1)),
    ("replies added", |r| r.sites[1].recovery_replies.extend([(1, None, 1); 2])),
    ("recovered_peers", |r| {
        r.sites[1].recovered_peers.insert(2);
    }),
    ("suspects", |r| {
        r.sites[1].suspects.insert(0);
    }),
    ("message sent", |r| {
        r.net.send(0, 1, 2, Wire::TermDecision { backup: 1, commit: true });
    }),
    ("message payload", |r| {
        r.net.send(0, 1, 2, Wire::TermDecision { backup: 1, commit: false });
    }),
    ("failure notice", |r| r.net.crash(0, 2)),
    ("timer added", |r| r.timers.push(Reverse((7, Timer::Crash(0))))),
    ("timer time", |r| {
        r.timers.clear();
        r.timers.push(Reverse((8, Timer::Recover(2))));
    }),
    ("partition", |r| r.net.partition_silent(0, vec![0, 0, 1])),
    ("partition groups", |r| r.net.partition_silent(0, vec![0, 1, 1])),
    ("site contents swapped", |r| r.sites.swap(1, 2)),
];

/// Each of these changes arrival order only, or an excluded field, and
/// must leave the digest alone.
const MUST_NOT_CHANGE: &[Mutation] = &[
    ("inbox order", |r| r.sites[1].inbox.reverse()),
    ("collected order", |r| r.sites[1].backup_state.collected.reverse()),
    ("queries order", |r| r.sites[1].pending_queries.reverse()),
    ("replies order", |r| r.sites[1].recovery_replies.reverse()),
    ("now", |r| r.now += 5),
    ("events", |r| r.events += 3),
    ("transitions_attempted", |r| r.sites[1].transitions_attempted += 1),
    ("visited", |r| r.sites[1].visited.iter_mut().for_each(|v| *v = true)),
    ("ever_down", |r| r.sites[1].ever_down = true),
];

#[test]
fn digest_sees_every_covered_field_and_nothing_else() {
    let p = central_3pc(3);
    let a = Analysis::build(&p).unwrap();
    let base = busy_runner(&p, &a);
    let digest = base.digest();
    let mut seen = vec![digest];
    for (what, mutate) in MUST_CHANGE {
        let mut fork = base.clone();
        mutate(&mut fork);
        let d = fork.digest();
        assert_ne!(d, digest, "changing {what} must change the digest");
        assert_eq!(d, fork.deep_copy().digest(), "{what}: cached digest is stale");
        assert!(!seen.contains(&d), "{what} collides with another single-field change");
        seen.push(d);
        assert_eq!(base.digest(), digest, "{what} leaked into the parent");
    }
    for (what, mutate) in MUST_NOT_CHANGE {
        let mut fork = base.clone();
        mutate(&mut fork);
        assert_eq!(fork.digest(), digest, "changing {what} must not change the digest");
    }
}

#[test]
fn in_flight_order_matters_within_a_channel_only() {
    let p = central_3pc(3);
    let a = Analysis::build(&p).unwrap();
    let base = busy_runner(&p, &a);
    let (x, y) = (Wire::WhatHappened, Wire::TermBlocked { backup: 1 });
    let sent = |first: (usize, &Wire), second: (usize, &Wire)| {
        let mut r = base.clone();
        r.net.send(0, 1, first.0, first.1.clone());
        r.net.send(0, 1, second.0, second.1.clone());
        r.digest()
    };
    // Same link: FIFO order is behavior.
    assert_ne!(sent((2, &x), (2, &y)), sent((2, &y), (2, &x)));
    // Different links: which was sent first is not.
    assert_eq!(sent((0, &x), (2, &y)), sent((2, &y), (0, &x)));
}
