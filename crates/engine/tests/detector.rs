//! The imperfect-detector equivalence contract: an *accurate* timeout
//! detector — one whose worst-case heartbeat latency fits inside the
//! timeout — is the paper's perfect detector, byte for byte. Reports,
//! traces, and post-run state digests must all be identical to a run with
//! no detector configured at all, across the whole catalog and Paxos
//! Commit, with and without crashes. Only an *inaccurate* spec (timeout
//! below the jitter ceiling) is allowed to change anything, and even then
//! every run must stay deterministic under its seed.

use nbc_core::protocols::catalog;
use nbc_core::{Analysis, Protocol};
use nbc_engine::{
    run_with, CrashPoint, CrashSpec, DetectorSpec, RunConfig, Runner, TerminationRule,
    TransitionProgress,
};
use nbc_obs::{LinesSink, SharedSink, Tracer};
use nbc_paxos::paxos_commit;
use nbc_simnet::NetEvent;

/// Jitter bounds shared by every spec in these tests.
const JITTER: (u64, u64) = (1, 12);

fn accurate() -> DetectorSpec {
    let spec = DetectorSpec { timeout: JITTER.1, jitter: JITTER, seed: 7 };
    assert!(spec.is_accurate());
    spec
}

fn scenarios(n: usize) -> Vec<RunConfig> {
    let mut out = Vec::new();
    for base in [RunConfig::happy(n), RunConfig::one_no(n, 1)] {
        out.push(base.clone());
        let crash = base.with_crash(CrashSpec {
            site: 0,
            point: CrashPoint::OnTransition {
                ordinal: 2,
                progress: TransitionProgress::AfterMsgs(1),
            },
            recover_at: None,
        });
        out.push(crash.clone());
        out.push(crash.with_rule(TerminationRule::QuorumSkeen));
    }
    out
}

/// Run one config to quiescence, returning the report JSON, the full
/// human-readable trace, and the runner's post-run state digest.
fn outcome(
    protocol: &Protocol,
    analysis: &Analysis,
    cfg: RunConfig,
) -> (String, Vec<String>, u128) {
    let story = SharedSink::new(LinesSink::default());
    let mut runner = Runner::with_tracer(protocol, analysis, cfg, Tracer::to_sink(story.clone()));
    while runner.step() {}
    let lines = story.with(|s| std::mem::take(&mut s.lines));
    (runner.report().to_json(), lines, runner.digest())
}

/// Pins `Runner`'s filter that drops an accurate spec: with it, both
/// runs take the perfect detector's notice path; without it, the
/// accurate spec would run suspicion timers, whose notices arrive at
/// other times, and the bytes would differ.
#[test]
fn accurate_detector_is_the_perfect_detector_byte_for_byte() {
    let mut protocols: Vec<Protocol> = catalog(3);
    protocols.push(paxos_commit(2, 1));
    for protocol in &protocols {
        let analysis = Analysis::build(protocol).unwrap();
        for cfg in scenarios(protocol.n_sites()) {
            let mut with_detector = cfg.clone();
            with_detector.detector = Some(accurate());
            let perfect = outcome(protocol, &analysis, cfg);
            let timed = outcome(protocol, &analysis, with_detector);
            assert_eq!(perfect.0, timed.0, "{}: report JSON diverged", protocol.name);
            assert_eq!(perfect.1, timed.1, "{}: trace diverged", protocol.name);
            assert_eq!(perfect.2, timed.2, "{}: state digest diverged", protocol.name);
        }
    }
}

#[test]
fn accuracy_boundary_is_the_jitter_ceiling() {
    // timeout == worst-case heartbeat latency: accurate, so filtered to
    // the perfect detector; one unit below: live, and allowed to diverge.
    let at = DetectorSpec { timeout: JITTER.1, jitter: JITTER, seed: 0 };
    let below = DetectorSpec { timeout: JITTER.1 - 1, jitter: JITTER, seed: 0 };
    assert!(at.is_accurate());
    assert!(!below.is_accurate());
}

#[test]
fn inaccurate_detector_runs_are_seed_deterministic() {
    let protocol = nbc_core::protocols::central_3pc(3);
    let analysis = Analysis::build(&protocol).unwrap();
    for seed in 0..8u64 {
        let mut cfg = RunConfig::happy(3);
        cfg.detector = Some(DetectorSpec { timeout: 2, jitter: JITTER, seed });
        let a = outcome(&protocol, &analysis, cfg.clone());
        let b = outcome(&protocol, &analysis, cfg);
        assert_eq!(a, b, "seed {seed}: inaccurate-detector run must be deterministic");
    }
}

#[test]
fn aggressive_detector_still_decides_with_quorum_rule() {
    // The quorum termination rule's contract under false suspicion is
    // safety plus eventual progress on the majority side: every seed at
    // every timeout must end consistent, and a generous event budget
    // must suffice for all operational sites to decide.
    let protocol = nbc_core::protocols::central_3pc(3);
    let analysis = Analysis::build(&protocol).unwrap();
    for timeout in [1, 2, 4] {
        for seed in 0..8u64 {
            let mut cfg = RunConfig::happy(3);
            cfg.rule = TerminationRule::QuorumSkeen;
            cfg.detector = Some(DetectorSpec { timeout, jitter: JITTER, seed });
            let r = run_with(&protocol, &analysis, cfg);
            assert!(r.consistent, "timeout {timeout} seed {seed}: {r}");
            assert!(
                r.all_operational_decided,
                "timeout {timeout} seed {seed}: quorum rule must terminate: {r}"
            );
        }
    }
}

#[test]
fn injected_partition_and_heal_go_through_the_detector() {
    // A fault injected at the current instant takes the path a scheduled
    // partition takes. Under an imperfect detector the cut is suspected,
    // never announced; and the heal re-arms the heartbeats across it, so
    // the run ends with every suspicion between live sites cleared.
    let protocol = nbc_core::protocols::central_3pc(3);
    let analysis = Analysis::build(&protocol).unwrap();
    let mut cfg = RunConfig::happy(3).with_rule(TerminationRule::QuorumSkeen);
    cfg.detector = Some(DetectorSpec { timeout: 10, jitter: (1, 11), seed: 3 });
    cfg.max_events = 5_000;
    let mut runner = Runner::new(&protocol, &analysis, cfg);
    runner.partition_now(vec![0, 0, 1]);
    let notices = runner.pending_events().into_iter().filter(|(_, ev)| {
        matches!(ev, NetEvent::FailureNotice { .. } | NetEvent::RecoveryNotice { .. })
    });
    assert_eq!(notices.count(), 0, "an imperfect detector is never sent a notice");
    while runner.now() < 30 && runner.step() {}
    assert!(runner.sites()[2].suspects.contains(&0), "the minority suspects the cut");
    runner.heal_now();
    while runner.step() {}
    let report = runner.report();
    assert!(!report.truncated && report.all_operational_decided, "{report}");
    for site in runner.sites() {
        assert!(site.suspects.is_empty(), "site {} still suspects {:?}", site.id, site.suspects);
    }
}
