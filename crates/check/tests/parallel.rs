//! Thread-count invariance of the parallel explorer, and the explicit
//! work-stack's depth independence.
//!
//! The checker's determinism contract says the report — verdicts, stats,
//! and every replayable schedule in it — is a function of the protocol
//! and options alone, not of how the exploration was scheduled. These
//! tests pin that down across the full catalog at 1, 2 and 4 workers,
//! with and without a traversal seed, including a FAILing configuration
//! whose counterexample must come out byte-identical everywhere.

use nbc_check::{run_check, CheckOptions, CheckReport};
use nbc_core::kpc::k_phase_central;
use nbc_core::protocols::{central_2pc, central_3pc, decentralized_2pc, decentralized_3pc, one_pc};
use nbc_core::Protocol;
use nbc_engine::TerminationRule;
use nbc_paxos::paxos_commit;

fn check_at(protocol: &Protocol, threads: usize, seed: Option<u64>) -> CheckReport {
    run_check(protocol, CheckOptions { threads, seed, ..CheckOptions::default() }).unwrap()
}

/// Everything observable about two reports must agree: the full render
/// (which inlines witness and counterexample JSONL), the JSON summary,
/// and the schedules compared bytewise on their own.
fn assert_identical(base: &CheckReport, other: &CheckReport, what: &str) {
    assert_eq!(base.render(), other.render(), "{what}: render diverged");
    assert_eq!(base.to_json(), other.to_json(), "{what}: json diverged");
    match (&base.blocking_witness, &other.blocking_witness) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.to_jsonl(), b.to_jsonl(), "{what}: witness JSONL diverged")
        }
        _ => panic!("{what}: witness presence diverged"),
    }
    assert_eq!(base.failures.len(), other.failures.len(), "{what}: failure count diverged");
    for (a, b) in base.failures.iter().zip(&other.failures) {
        let (ca, cb) = (a.counterexample.as_ref(), b.counterexample.as_ref());
        assert_eq!(
            ca.map(|c| c.to_jsonl()),
            cb.map(|c| c.to_jsonl()),
            "{what}: counterexample JSONL diverged"
        );
    }
}

#[test]
fn full_catalog_is_thread_count_invariant() {
    let catalog: Vec<Protocol> = vec![
        central_2pc(3),
        central_3pc(3),
        decentralized_2pc(3),
        decentralized_3pc(3),
        one_pc(3),
        paxos_commit(2, 1),
    ];
    for (i, protocol) in catalog.iter().enumerate() {
        let base = check_at(protocol, 1, None);
        assert_eq!(base.options.threads, 1);
        for threads in [2, 4] {
            let run = check_at(protocol, threads, None);
            assert_identical(&base, &run, &format!("{} at {threads} threads", protocol.name));
        }
        // A traversal seed perturbs the parallel sweep's visit order;
        // nothing observable may move (the rendered seed line aside).
        let seeded = check_at(protocol, 2, Some(0xfeed + i as u64));
        assert_eq!(base.stats.distinct_states, seeded.stats.distinct_states, "{}", protocol.name);
        assert_eq!(base.stats.actions, seeded.stats.actions, "{}", protocol.name);
        assert_eq!(base.ok(), seeded.ok(), "{}", protocol.name);
        match (&base.blocking_witness, &seeded.blocking_witness) {
            (None, None) => {}
            (Some(a), Some(b)) => assert_eq!(a.to_jsonl(), b.to_jsonl(), "{}", protocol.name),
            _ => panic!("{}: seeded witness presence diverged", protocol.name),
        }
    }
}

#[test]
fn failing_run_produces_byte_identical_counterexamples_at_any_thread_count() {
    // The deliberately unsafe naive concurrency-set rule loses atomicity
    // under two crashes: a known-FAIL configuration whose shrunk
    // counterexample must be reproduced identically however the sweep was
    // scheduled.
    let protocol = central_3pc(3);
    let opts = |threads, seed| CheckOptions {
        rule: TerminationRule::NaiveCs,
        faults: 2,
        threads,
        seed,
        ..CheckOptions::default()
    };
    let base = run_check(&protocol, opts(1, None)).unwrap();
    assert!(!base.ok(), "naive rule with two crashes must violate consistency");
    assert!(base.failures.iter().any(|f| f.oracle == "consistency"));
    assert!(
        base.failures.iter().any(|f| f.counterexample.is_some()),
        "violation must carry a replayable counterexample"
    );
    for (threads, seed) in [(2, None), (4, None), (4, Some(7))] {
        let run = run_check(&protocol, opts(threads, seed)).unwrap();
        assert!(!run.ok());
        for (a, b) in base.failures.iter().zip(&run.failures) {
            assert_eq!(a.oracle, b.oracle);
            assert_eq!(a.detail, b.detail, "threads={threads} seed={seed:?}");
            assert_eq!(
                a.counterexample.as_ref().map(|c| c.to_jsonl()),
                b.counterexample.as_ref().map(|c| c.to_jsonl()),
                "threads={threads} seed={seed:?}"
            );
        }
    }
}

#[test]
fn deep_exploration_runs_on_a_tiny_thread_stack() {
    // Regression: the explorer used to recurse once per schedule action,
    // so a --depth in the thousands was a stack overflow waiting to
    // happen. The k-phase central protocol at k=400 with no fault budget
    // is a ~1600-action serialized chain — the explicit work-stack must
    // walk it (and the canonical witness search must re-walk it) inside a
    // 256 KiB thread stack.
    let handle = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(|| {
            let opts = CheckOptions {
                depth: 2400,
                faults: 0,
                vote_plan: Some(vec![true; 3]),
                ..CheckOptions::default()
            };
            run_check(&k_phase_central(3, 400).expect("kpc builds"), opts).unwrap()
        })
        .expect("spawn deep-exploration thread");
    let report = handle.join().expect("deep exploration must not overflow the stack");
    assert!(report.ok(), "{}", report.render());
    assert!(!report.stats.truncated, "must be exhaustive");
    assert!(report.stats.distinct_states > 1000, "the chain actually is deep");
}

#[test]
fn a_thread_count_over_the_limit_is_refused_not_spawned() {
    use nbc_check::explore::MAX_THREADS;
    use nbc_check::CheckError;
    let p = central_3pc(2);
    for got in [MAX_THREADS + 1, 100_000, usize::MAX] {
        let refused = run_check(&p, CheckOptions { threads: got, ..CheckOptions::default() });
        assert_eq!(refused.err(), Some(CheckError::TooManyThreads { max: MAX_THREADS, got }));
    }
    // The limit itself runs, and reports what one worker reports.
    let at_limit = check_at(&p, MAX_THREADS, None);
    assert_eq!(at_limit.render(), check_at(&p, 1, None).render());
}
