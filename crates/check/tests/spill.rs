//! External-memory and truncation determinism of the checker.
//!
//! Two contracts pin the explorer's "byte-identical report" promise in
//! its two hardest corners:
//!
//! * **Spill equivalence** — a `mem_budget` small enough to force many
//!   spill rounds (and at least one k-way merge compaction) must not
//!   change a byte of the report, the JSON summary, or any replayable
//!   schedule, at any thread count.
//! * **Truncation determinism** — a `--max-states`-truncated run is
//!   redone by the serial canonical sweep, and a `--depth`-truncated one
//!   keeps the depth-left revisit rule's fixpoint, so even their counts
//!   and verdicts are identical across thread counts *and* traversal
//!   seeds.

use nbc_check::{run_check, CheckOptions, CheckReport};
use nbc_core::protocols::{central_2pc, central_3pc, decentralized_3pc};
use nbc_core::Protocol;
use nbc_paxos::paxos_commit;

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
        assert_eq!(
            a.counterexample.as_ref().map(|c| c.to_jsonl()),
            b.counterexample.as_ref().map(|c| c.to_jsonl()),
            "{what}: counterexample JSONL diverged"
        );
    }
}

/// The rendered report minus the `budgets:` line (the one line that
/// legitimately differs across seeds — it prints the seed).
fn render_sans_seed(r: &CheckReport) -> String {
    r.render()
        .lines()
        .filter(|l| !l.trim_start().starts_with("budgets:"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn tiny_mem_budget_is_byte_identical_to_unlimited() {
    // central 2PC n=3 holds ~3k distinct states across its 8 plans
    // (~24 KiB of hot entries per plan), so a 2 KiB budget forces many
    // spill rounds and at least one compaction — while the unlimited
    // baseline never touches disk.
    let protocol = central_2pc(3);
    let base = run_check(&protocol, CheckOptions::default()).unwrap();
    assert_eq!(base.spill.runs_written, 0, "unlimited run must not spill");
    assert!(base.blocking_witness.is_some(), "2PC must yield its blocking witness");
    for threads in [1, 2, 4] {
        let budgeted = run_check(
            &protocol,
            CheckOptions { threads, mem_budget: 2048, ..CheckOptions::default() },
        )
        .unwrap();
        assert!(
            budgeted.spill.runs_written >= 2,
            "threads={threads}: budget must force repeated spilling, got {:?}",
            budgeted.spill
        );
        assert!(
            budgeted.spill.merge_passes >= 1,
            "threads={threads}: enough runs must accumulate to compact, got {:?}",
            budgeted.spill
        );
        assert_identical(&base, &budgeted, &format!("2K budget at {threads} threads"));
    }
}

#[test]
fn sleep_sets_in_spilled_entries_change_no_byte() {
    // A spilled entry carries the sleep set its state was expanded under,
    // and a revisit that wakes a delivery brings it back hot with a smaller
    // one; the fold intersects the copies. At 64 KiB both single-plan
    // walks below spill, and neither the thread count, nor the seed, nor
    // the budget may move a byte but the `budgets:` line.
    let all_yes = |p: &Protocol| CheckOptions {
        vote_plan: Some(vec![true; p.n_sites()]),
        ..CheckOptions::default()
    };
    let cases = [paxos_commit(2, 1), central_2pc(4)].map(|p| (all_yes(&p), p));
    for (opts, protocol) in &cases {
        let base = run_check(protocol, opts.clone()).unwrap();
        assert_eq!(base.spill.runs_written, 0, "unlimited run must not spill");
        for threads in [1, 2, 4] {
            for seed in [1, 7, 99] {
                let o = CheckOptions {
                    threads,
                    seed: Some(seed),
                    mem_budget: 64 << 10,
                    ..opts.clone()
                };
                let run = run_check(protocol, o).unwrap();
                let what = format!("{} at threads={threads} seed={seed}", protocol.name);
                assert!(run.spill.runs_written >= 1, "{what}: the budget must spill");
                assert_eq!(render_sans_seed(&base), render_sans_seed(&run), "{what}");
            }
        }
    }
}

#[test]
fn truncated_runs_are_identical_across_threads_and_seeds() {
    // A per-plan cap of 500 truncates every plan of central 3PC n=3;
    // the canonical redo must make the whole report a function of
    // (protocol, options) — seeds included, which only the rendered
    // `budgets:` line may reflect.
    let protocol = central_3pc(3);
    let opts =
        |threads, seed| CheckOptions { max_states: 500, threads, seed, ..CheckOptions::default() };
    let base = run_check(&protocol, opts(1, None)).unwrap();
    assert!(base.stats.truncated, "the cap must actually truncate");
    for threads in [2, 4] {
        let run = run_check(&protocol, opts(threads, None)).unwrap();
        assert_identical(&base, &run, &format!("truncated at {threads} threads"));
    }
    for (threads, seed) in [(1, Some(0)), (2, Some(0)), (4, Some(7))] {
        let run = run_check(&protocol, opts(threads, seed)).unwrap();
        assert_eq!(
            render_sans_seed(&base),
            render_sans_seed(&run),
            "truncated render diverged at threads={threads} seed={seed:?}"
        );
        assert_eq!(base.stats.distinct_states, run.stats.distinct_states);
        assert_eq!(base.stats.actions, run.stats.actions);
        assert_eq!(
            base.blocking_witness.as_ref().map(|w| w.to_jsonl()),
            run.blocking_witness.as_ref().map(|w| w.to_jsonl()),
            "truncated witness diverged at threads={threads} seed={seed:?}"
        );
    }
}

#[test]
fn depth_truncated_runs_are_identical_across_threads_and_seeds() {
    // A depth bound that cuts leaves no state cap to redo, so these runs
    // keep the parallel sweep's own counts: the depth-left revisit rule
    // must make them a function of (protocol, options) by itself.
    let cases = [(central_2pc(3), 9), (central_3pc(3), 10), (decentralized_3pc(3), 14)];
    for (protocol, depth) in &cases {
        let opts = |threads, seed| CheckOptions {
            depth: *depth,
            threads,
            seed,
            ..CheckOptions::default()
        };
        let base = run_check(protocol, opts(1, None)).unwrap();
        assert!(base.stats.truncated, "depth {depth} must actually truncate");
        for threads in [2, 4] {
            let run = run_check(protocol, opts(threads, None)).unwrap();
            assert_identical(
                &base,
                &run,
                &format!("{} depth {depth} at {threads} threads", protocol.name),
            );
        }
        for (threads, seed) in [(1, 1), (2, 7), (4, 99)] {
            let run = run_check(protocol, opts(threads, Some(seed))).unwrap();
            assert_eq!(
                render_sans_seed(&base),
                render_sans_seed(&run),
                "{} depth {depth} diverged at threads={threads} seed={seed}",
                protocol.name
            );
        }
    }
}

#[test]
fn truncated_and_budgeted_together_stay_identical() {
    // The cap redo and the spill tier interact (the redo preserves the
    // sweep's spill stats but replaces its counts); the report must not
    // notice.
    let protocol = central_3pc(3);
    let base =
        run_check(&protocol, CheckOptions { max_states: 500, ..CheckOptions::default() }).unwrap();
    let run = run_check(
        &protocol,
        CheckOptions { max_states: 500, threads: 4, mem_budget: 4096, ..CheckOptions::default() },
    )
    .unwrap();
    assert!(run.spill.runs_written >= 2, "budget must engage: {:?}", run.spill);
    assert_identical(&base, &run, "truncated + 4K budget at 4 threads");
}
