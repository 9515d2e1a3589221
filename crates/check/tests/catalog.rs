//! The five-spec catalog under the model checker at n=3: the four paper
//! protocols plus the linear (chained) 2PC spec. Each check is exhaustive
//! within the default budgets (one crash, all vote plans), and every
//! report must agree with the fundamental nonblocking theorem — that
//! agreement *is* the nonblocking oracle, so `report.ok()` carries it.

use nbc_check::explore::plan_config;
use nbc_check::{replay_strict, run_check, CheckOptions, Oracles};
use nbc_core::protocols::{central_2pc, central_3pc, one_pc};
use nbc_core::{Analysis, Protocol};
use nbc_engine::Runner;

fn linear_2pc() -> Protocol {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/linear-2pc.nbc"))
            .expect("spec file");
    nbc_core::spec::parse(&text, 3).expect("linear-2pc parses")
}

#[test]
fn central_3pc_passes_all_oracles_exhaustively() {
    let report = run_check(&central_3pc(3), CheckOptions::default()).unwrap();
    assert!(report.ok(), "{}", report.render());
    assert!(report.certified_nonblocking);
    assert!(report.within_resilience);
    assert!(!report.stats.truncated, "must be exhaustive");
    assert!(report.prediction_complete, "every analytic slot witnessed");
    assert!(
        report.blocking_witness.is_none(),
        "a certified-nonblocking protocol must never block within its resilience bound"
    );
}

#[test]
fn blocking_protocols_yield_shrunk_replayable_witnesses() {
    for protocol in [central_2pc(3), one_pc(3), linear_2pc()] {
        let report = run_check(&protocol, CheckOptions::default()).unwrap();
        assert!(report.ok(), "{}", report.render());
        assert!(!report.certified_nonblocking, "{} is blocking", protocol.name);
        assert!(report.prediction_complete, "{}", report.render());
        let witness = report
            .blocking_witness
            .as_ref()
            .unwrap_or_else(|| panic!("{}: blocking protocol must yield a witness", protocol.name));

        // The witness replays strictly on a fresh engine and lands in a
        // quiescent state with a blocked operational site.
        let analysis = Analysis::build(&protocol).unwrap();
        let config = plan_config(3, &witness.votes, CheckOptions::default().rule);
        let mut runner = Runner::new(&protocol, &analysis, config);
        replay_strict(&mut runner, &witness.steps)
            .unwrap_or_else(|e| panic!("{}: replay failed at {e}", protocol.name));
        assert!(runner.net_quiescent(), "{}: witness must end quiescent", protocol.name);
        assert!(
            !Oracles::blocked_sites(&runner).is_empty(),
            "{}: witness must leave a blocked operational site",
            protocol.name
        );

        // 1-minimality: removing any single step breaks the witness.
        for skip in 0..witness.steps.len() {
            let config = plan_config(3, &witness.votes, CheckOptions::default().rule);
            let mut runner = Runner::new(&protocol, &analysis, config);
            let reduced: Vec<_> = witness
                .steps
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, s)| s.clone())
                .collect();
            let still_blocked = replay_strict(&mut runner, &reduced).is_ok()
                && runner.net_quiescent()
                && !Oracles::blocked_sites(&runner).is_empty();
            assert!(
                !still_blocked,
                "{}: witness not 1-minimal, step {skip} removable",
                protocol.name
            );
        }
    }
}

#[test]
fn decentralized_pair_all_yes_plan() {
    // The decentralized protocols explode in debug builds over all eight
    // vote plans; the all-yes plan (where commit and commit-blocking
    // live) keeps this suite fast. CI's release smoke job runs them with
    // the full plan set.
    for (protocol, nonblocking) in [
        (nbc_core::protocols::decentralized_2pc(3), false),
        (nbc_core::protocols::decentralized_3pc(3), true),
    ] {
        let options = CheckOptions { vote_plan: Some(vec![true; 3]), ..CheckOptions::default() };
        let report = run_check(&protocol, options).unwrap();
        assert!(report.ok(), "{}", report.render());
        assert_eq!(report.certified_nonblocking, nonblocking, "{}", protocol.name);
        assert_eq!(report.blocking_witness.is_none(), nonblocking, "{}", protocol.name);
        assert!(!report.stats.truncated);
    }
}

#[test]
fn witness_schedule_round_trips_byte_for_byte() {
    let report = run_check(&central_2pc(3), CheckOptions::default()).unwrap();
    let witness = report.blocking_witness.as_ref().expect("2PC blocks");
    let jsonl = witness.to_jsonl();
    let parsed = nbc_check::Schedule::from_jsonl(&jsonl).expect("own output parses");
    assert_eq!(parsed.to_jsonl(), jsonl, "serialize → parse → serialize is the identity");
}

#[test]
fn reports_are_deterministic_across_runs() {
    let first =
        run_check(&central_3pc(3), CheckOptions { seed: Some(7), ..CheckOptions::default() })
            .unwrap();
    let second =
        run_check(&central_3pc(3), CheckOptions { seed: Some(7), ..CheckOptions::default() })
            .unwrap();
    assert_eq!(first.render(), second.render());
    assert_eq!(first.to_json(), second.to_json());

    // The seed permutes exploration order, never the verdict or stats —
    // and `Some(0)` is a real seed, not a silent "canonical order"
    // sentinel as it once was.
    for seed in [Some(99), Some(0), None] {
        let reseeded =
            run_check(&central_3pc(3), CheckOptions { seed, ..CheckOptions::default() }).unwrap();
        assert!(reseeded.ok());
        assert_eq!(first.stats.distinct_states, reseeded.stats.distinct_states, "seed {seed:?}");
        assert_eq!(first.stats.actions, reseeded.stats.actions, "seed {seed:?}");
    }
}
