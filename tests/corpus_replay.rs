//! Regression corpus: checked-in minimal counterexample schedules.
//!
//! Each corpus file is a schedule the checker once produced (or a
//! hand-reduced variant of one), stored in the replayable JSONL form that
//! `nbc simulate --schedule` accepts. CI replays every file byte-for-byte
//! on a fresh engine and asserts the exact outcome it witnesses, so the
//! failure modes these schedules capture can never silently regress:
//!
//! * `linear-2pc-blocking.jsonl` — the chained 2PC's fundamental flaw: a
//!   head-site crash strands both survivors in wait states whose
//!   concurrency sets contain both outcomes, so neither may decide.
//! * `3pc-partition-election.jsonl` — a partition (a deliberate violation
//!   of the paper's network assumptions) masquerades as a crash: the
//!   majority side elects a backup and commits via the quorum rule while
//!   the minority coordinator, alone and short of quorum, blocks —
//!   atomicity holds, termination does not.
//! * `3pc-suspicion-livelock.jsonl` — no site ever crashes, yet 3PC under
//!   Skeen's own termination rule livelocks: one participant's imperfect
//!   detector repeatedly suspects and re-trusts the live coordinator, and
//!   every flip re-runs the election without ever completing a round. The
//!   bounded suspect/unsuspect loop here stands in for the unbounded one —
//!   each cycle adds two elections and decides nothing.
//! * `3pc-suspicion-quorum.jsonl` — the same false-suspicion partition
//!   shape under the quorum rule: the majority side elects a backup,
//!   aligns, and commits, while the minority coordinator — alive the whole
//!   run, merely suspected — falls short of quorum and blocks instead of
//!   deciding the other way. Availability is sacrificed, atomicity is not.

use nonblocking_commit::check::explore::plan_config;
use nonblocking_commit::check::{replay_strict, rule_from_name, Schedule};
use nonblocking_commit::engine::site::Mode;
use nonblocking_commit::engine::Runner;
use nonblocking_commit::model::{protocols, spec, Analysis, Protocol};

fn corpus(name: &str) -> (String, Schedule) {
    let path = format!("{}/tests/corpus/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let schedule = Schedule::from_jsonl(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    (text, schedule)
}

fn resolve(schedule: &Schedule) -> Protocol {
    let protocol = if schedule.protocol.starts_with("linear-2pc") {
        let path = format!("{}/specs/linear-2pc.nbc", env!("CARGO_MANIFEST_DIR"));
        spec::parse(&std::fs::read_to_string(path).unwrap(), schedule.n).unwrap()
    } else {
        protocols::catalog(schedule.n)
            .into_iter()
            .find(|p| p.name == schedule.protocol)
            .unwrap_or_else(|| panic!("unknown corpus protocol {:?}", schedule.protocol))
    };
    assert_eq!(protocol.name, schedule.protocol, "corpus header names the resolved protocol");
    protocol
}

fn replay(schedule: &Schedule, protocol: &Protocol) -> Vec<(Mode, Option<bool>)> {
    let analysis = Analysis::build(protocol).unwrap();
    let rule = rule_from_name(&schedule.rule).expect("corpus rule parses");
    let config = plan_config(schedule.n, &schedule.votes, rule);
    let mut runner = Runner::new(protocol, &analysis, config);
    replay_strict(&mut runner, &schedule.steps)
        .unwrap_or_else(|e| panic!("{}: replay failed at {e}", schedule.protocol));
    assert!(runner.net_quiescent(), "corpus schedules must end quiescent");
    let decided: Vec<bool> = runner.sites().iter().filter_map(|s| s.outcome).collect();
    assert!(
        decided.windows(2).all(|w| w[0] == w[1]),
        "corpus replay must preserve atomicity: {decided:?}"
    );
    runner.sites().iter().map(|s| (s.mode.clone(), s.outcome)).collect()
}

#[test]
fn corpus_files_round_trip_byte_for_byte() {
    for name in [
        "linear-2pc-blocking.jsonl",
        "3pc-partition-election.jsonl",
        "3pc-suspicion-livelock.jsonl",
        "3pc-suspicion-quorum.jsonl",
    ] {
        let (text, schedule) = corpus(name);
        assert_eq!(schedule.to_jsonl(), text, "{name}: parse → serialize must be the identity");
    }
}

#[test]
fn linear_2pc_blocking_witness_replays() {
    let (_, schedule) = corpus("linear-2pc-blocking.jsonl");
    let protocol = resolve(&schedule);
    let sites = replay(&schedule, &protocol);
    assert!(matches!(sites[0].0, Mode::Down), "head site crashed");
    assert!(
        sites.iter().any(|(m, _)| matches!(m, Mode::Blocked)),
        "a survivor must be blocked: {sites:?}"
    );
    assert!(
        sites.iter().all(|(_, outcome)| outcome.is_none()),
        "no site may decide in the blocking witness: {sites:?}"
    );
}

#[test]
fn false_suspicion_livelock_churns_elections_without_deciding() {
    let (_, schedule) = corpus("3pc-suspicion-livelock.jsonl");
    let protocol = resolve(&schedule);
    let analysis = Analysis::build(&protocol).unwrap();
    let rule = rule_from_name(&schedule.rule).unwrap();
    let config = plan_config(schedule.n, &schedule.votes, rule);
    let mut runner = Runner::new(&protocol, &analysis, config);
    replay_strict(&mut runner, &schedule.steps).unwrap_or_else(|e| panic!("replay failed at {e}"));
    assert!(runner.net_quiescent(), "livelock witness must end quiescent");
    let report = runner.report();
    // The loop's signature: every flip of site2's detector re-ran the
    // election (initial suspicion + three unsuspect/suspect cycles), and
    // none of those seven rounds produced a decision anywhere.
    assert_eq!(report.elections, 7, "each suspicion flip must re-run the election");
    assert!(runner.sites().iter().all(|s| s.is_up()), "no site ever crashed");
    assert!(
        runner.sites().iter().all(|s| s.outcome.is_none()),
        "livelock decides nothing: {:?}",
        report.outcomes
    );
    assert!(
        matches!(runner.sites()[2].mode, Mode::Terminating { .. }),
        "the flip-flopping site is stuck mid-termination: {:?}",
        runner.sites()[2].mode
    );
}

#[test]
fn false_suspicion_under_quorum_commits_majority_blocks_suspected_minority() {
    let (_, schedule) = corpus("3pc-suspicion-quorum.jsonl");
    let protocol = resolve(&schedule);
    let sites = replay(&schedule, &protocol);
    // Site 0 is alive and merely suspected; short of quorum it must block
    // rather than decide against the majority.
    assert!(
        matches!(sites[0].0, Mode::Blocked),
        "suspected-but-alive coordinator must block: {sites:?}"
    );
    assert_eq!(sites[0].1, None);
    for i in [1, 2] {
        assert!(matches!(sites[i].0, Mode::Done), "majority site {i} terminates: {sites:?}");
        assert_eq!(sites[i].1, Some(true), "majority commits via elected backup");
    }
}

#[test]
fn partition_election_commits_majority_blocks_minority() {
    let (_, schedule) = corpus("3pc-partition-election.jsonl");
    let protocol = resolve(&schedule);
    let sites = replay(&schedule, &protocol);
    assert!(
        matches!(sites[0].0, Mode::Blocked),
        "minority coordinator must block under quorum: {sites:?}"
    );
    assert_eq!(sites[0].1, None);
    for i in [1, 2] {
        assert!(matches!(sites[i].0, Mode::Done), "majority site {i} terminates: {sites:?}");
        assert_eq!(sites[i].1, Some(true), "majority commits via elected backup");
    }
}
