//! Determinism: identical configurations must replay identically — the
//! property that makes every sweep and every regression test meaningful.

use nbc_core::protocols::catalog;
use nbc_core::Analysis;
use nbc_core::Protocol;
use nbc_engine::{
    run_traced, run_with, CrashPoint, CrashSpec, RunConfig, RunReport, TerminationRule,
    TransitionProgress,
};
use nbc_obs::{LinesSink, SharedSink, Tracer};
use nbc_simnet::LatencyModel;

fn configs(n: usize) -> Vec<RunConfig> {
    let mut out = vec![RunConfig::happy(n), RunConfig::one_no(n, 1)];
    let mut jitter = RunConfig::happy(n);
    jitter.latency = LatencyModel::uniform(1, 15, 42);
    out.push(jitter);
    let crash = RunConfig::happy(n).with_rule(TerminationRule::Cooperative).with_crash(CrashSpec {
        site: 0,
        point: CrashPoint::OnTransition { ordinal: 2, progress: TransitionProgress::AfterMsgs(1) },
        recover_at: Some(120),
    });
    out.push(crash);
    out
}

#[test]
fn identical_configs_replay_identically() {
    for p in catalog(3) {
        let a = Analysis::build(&p).unwrap();
        for cfg in configs(3) {
            let r1 = run_with(&p, &a, cfg.clone());
            let r2 = run_with(&p, &a, cfg.clone());
            assert_eq!(r1.outcomes, r2.outcomes, "{}", p.name);
            assert_eq!(r1.msgs_sent, r2.msgs_sent, "{}", p.name);
            assert_eq!(r1.finished_at, r2.finished_at, "{}", p.name);
            assert_eq!(r1.events, r2.events, "{}", p.name);
            assert_eq!(r1.consistent, r2.consistent, "{}", p.name);
        }
    }
}

#[test]
fn different_latency_seeds_may_differ_but_stay_correct() {
    let p = nbc_core::protocols::central_3pc(3);
    let a = Analysis::build(&p).unwrap();
    for seed in 0..20u64 {
        let mut cfg = RunConfig::happy(3);
        cfg.latency = LatencyModel::uniform(1, 30, seed);
        let r = run_with(&p, &a, cfg);
        assert!(r.consistent, "seed {seed}: {r}");
        assert_eq!(r.decision(), Some(true), "seed {seed}: {r}");
    }
}

/// Run `cfg` with a story sink attached: the report and the story's lines.
fn told(p: &Protocol, a: &Analysis, cfg: RunConfig) -> (RunReport, Vec<String>) {
    let story = SharedSink::new(LinesSink::default());
    let report = run_traced(p, a, cfg, Tracer::to_sink(story.clone()));
    (report, story.with(|s| std::mem::take(&mut s.lines)))
}

#[test]
fn a_story_sink_narrates_the_run_it_does_not_change() {
    let p = nbc_core::protocols::central_3pc(3);
    let a = Analysis::build(&p).unwrap();
    let untold = run_with(&p, &a, RunConfig::happy(3));
    let (r, story) = told(&p, &a, RunConfig::happy(3));
    assert_eq!(r.to_json(), untold.to_json());
    assert!(!story.is_empty());
    // The trace narrates the whole happy path in order: request, votes,
    // prepares, acks, commits.
    let joined = story.join("\n");
    for needle in ["q1 -> w1", "xact", "yes", "prepare", "ack", "commit", "DECIDED COMMIT"] {
        assert!(joined.contains(needle), "missing {needle:?} in:\n{joined}");
    }
    // Timestamps are non-decreasing.
    let times: Vec<u64> =
        story.iter().map(|l| l[2..l.find(' ').unwrap()].trim().parse().unwrap()).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
}

#[test]
fn trace_narrates_termination_and_recovery() {
    let p = nbc_core::protocols::central_3pc(3);
    let a = Analysis::build(&p).unwrap();
    let cfg = RunConfig::happy(3).with_crash(CrashSpec {
        site: 2,
        point: CrashPoint::OnTransition { ordinal: 2, progress: TransitionProgress::BeforeLog },
        recover_at: Some(100),
    });
    let joined = told(&p, &a, cfg).1.join("\n");
    assert!(joined.contains("CRASH"), "{joined}");
    assert!(joined.contains("RECOVER"), "{joined}");
    assert!(joined.contains("what-happened?"), "{joined}");
    assert!(joined.contains("outcome: committed"), "{joined}");
}
