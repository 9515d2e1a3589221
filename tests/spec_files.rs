//! The shipped `.nbc` spec files must parse, validate, and analyze to the
//! same verdicts as their catalog counterparts, and the three twins of
//! catalog protocols must build the same automata.

use nonblocking_commit::model::protocols::{central_2pc, central_3pc, decentralized_3pc};
use nonblocking_commit::model::{spec, theorem, verify, Protocol};

fn load(name: &str, n: usize) -> Protocol {
    let path = format!("{}/specs/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    spec::parse(&text, n).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Everything of a protocol but its name and its transitions' labels:
/// paradigm, quorum, initial messages, and per site the role, each
/// state's name and class, and each transition's endpoints, consume,
/// emit and vote.
fn structure(p: &Protocol) -> String {
    let sites: Vec<_> = p
        .fsas()
        .iter()
        .map(|f| {
            let transitions: Vec<_> = f
                .transitions()
                .iter()
                .map(|t| (t.from, t.to, &t.consume, &t.emit, t.vote))
                .collect();
            (&f.role, f.states(), f.initial(), transitions)
        })
        .collect();
    format!("{:?} {:?} {:?} {sites:?}", p.paradigm, p.quorum(), p.initial_msgs())
}

#[test]
fn shipped_twins_build_the_catalog_automata() {
    let twins = [
        ("central-2pc.nbc", central_2pc as fn(usize) -> Protocol),
        ("central-3pc.nbc", central_3pc),
        ("decentralized-3pc.nbc", decentralized_3pc),
    ];
    for (file, catalog) in twins {
        for n in 2..=6 {
            assert_eq!(structure(&load(file, n)), structure(&catalog(n)), "{file} at n={n}");
        }
    }
}

#[test]
fn shipped_2pc_spec_is_blocking() {
    let p = load("central-2pc.nbc", 3);
    p.validate_strict().unwrap();
    assert!(!theorem::check(&p).unwrap().nonblocking());
}

#[test]
fn shipped_3pc_specs_are_nonblocking_and_verify() {
    for (file, n) in [("central-3pc.nbc", 4), ("decentralized-3pc.nbc", 3)] {
        let p = load(file, n);
        p.validate_strict().unwrap();
        assert!(theorem::check(&p).unwrap().nonblocking(), "{file}");
        let v = verify::verify_termination(&p).unwrap();
        assert!(v.nonblocking(), "{file}");
    }
}

#[test]
fn spec_protocols_run_in_the_engine() {
    use nonblocking_commit::engine::{enumerate_crash_specs, sweep, RunConfig};
    use nonblocking_commit::model::Analysis;
    let p = load("central-3pc.nbc", 3);
    let a = Analysis::build(&p).unwrap();
    let specs = enumerate_crash_specs(&p, None);
    let s = sweep(&p, &a, &RunConfig::happy(3), &specs);
    assert!(s.all_consistent(), "{:?}", s.inconsistent_runs);
    assert!(s.nonblocking());
}

#[test]
fn linear_2pc_is_a_custom_topology_and_blocking() {
    // A chained commit protocol outside the paper's two paradigms: the
    // theorem still applies and finds it blocking, and the engine agrees.
    use nonblocking_commit::engine::{
        enumerate_crash_specs, run_with, sweep, RunConfig, TerminationRule,
    };
    use nonblocking_commit::model::Analysis;

    let p = load("linear-2pc.nbc", 3);
    p.validate_strict().unwrap();
    assert_eq!(p.paradigm, nonblocking_commit::model::Paradigm::Custom);
    let verdict = theorem::check(&p).unwrap();
    assert!(!verdict.nonblocking(), "chained 2PC must block");

    let a = Analysis::build(&p).unwrap();
    // Happy path commits end to end.
    let r = run_with(&p, &a, RunConfig::happy(3));
    assert!(r.consistent, "{r}");
    assert_eq!(r.decision(), Some(true), "{r}");
    // A no vote anywhere aborts everywhere.
    for no_voter in 0..3 {
        let r = run_with(&p, &a, RunConfig::one_no(3, no_voter));
        assert!(r.consistent, "no@{no_voter}: {r}");
        assert_eq!(r.decision(), Some(false), "no@{no_voter}: {r}");
    }
    // Crash sweep: consistent (the cautious class rule never guesses),
    // with a blocking window as the theorem demands.
    let specs = enumerate_crash_specs(&p, None);
    let base = RunConfig::happy(3).with_rule(TerminationRule::Cooperative);
    let s = sweep(&p, &a, &base, &specs);
    assert!(s.all_consistent(), "{:?}", s.inconsistent_runs);
    assert!(s.blocked > 0, "the theorem promised a blocking window");
}

#[test]
fn linear_2pc_synthesis_is_out_of_scope_and_says_so() {
    use nonblocking_commit::model::synthesis;
    let p = load("linear-2pc.nbc", 3);
    // The paper's buffer-insertion rules are defined for its two
    // paradigms; a custom topology is rejected, not silently mangled.
    assert!(matches!(
        synthesis::make_nonblocking(&p),
        Err(synthesis::SynthesisError::UnsupportedParadigm)
    ));
}

#[test]
fn linear_irrevocable_is_nonblocking_without_buffer_states() {
    // A serendipitous find: a chained protocol whose votes are irrevocable
    // at entry satisfies the fundamental nonblocking theorem with ZERO
    // buffer states — the theorem's conditions, not the 3PC shape, are
    // what matters. The model checker and the engine both confirm it.
    use nonblocking_commit::engine::{enumerate_crash_specs, sweep, RunConfig};
    use nonblocking_commit::model::Analysis;

    let p = load("linear-irrevocable.nbc", 3);
    p.validate_strict().unwrap();
    let verdict = theorem::check(&p).unwrap();
    assert!(verdict.nonblocking(), "{verdict}");

    let v = verify::verify_termination(&p).unwrap();
    assert!(v.nonblocking(), "stuck: {}", v.stuck_cases);

    let a = Analysis::build(&p).unwrap();
    let specs = enumerate_crash_specs(&p, None);
    let s = sweep(&p, &a, &RunConfig::happy(3), &specs);
    assert!(s.all_consistent(), "{:?}", s.inconsistent_runs);
    assert!(s.nonblocking(), "blocked={} decided={}/{}", s.blocked, s.fully_decided, s.total);
}

#[test]
fn linear_irrevocable_no_votes_abort_cleanly() {
    use nonblocking_commit::engine::{run_with, RunConfig};
    use nonblocking_commit::model::Analysis;
    let p = load("linear-irrevocable.nbc", 3);
    let a = Analysis::build(&p).unwrap();
    for no_voter in 0..3 {
        let r = run_with(&p, &a, RunConfig::one_no(3, no_voter));
        assert!(r.consistent, "no@{no_voter}: {r}");
        assert_eq!(r.decision(), Some(false), "no@{no_voter}: {r}");
    }
}
