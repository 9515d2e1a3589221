//! Quickstart: analyze 2PC and 3PC with the fundamental nonblocking
//! theorem, then watch the termination protocol carry a 3PC transaction
//! through a coordinator crash.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use nonblocking_commit::engine::{run_with, CrashPoint, CrashSpec, RunConfig, TransitionProgress};
use nonblocking_commit::model::protocols::{central_2pc, central_3pc};
use nonblocking_commit::model::{theorem, Analysis};

fn main() {
    // ---------------------------------------------------------------
    // 1. Static analysis: why 2PC blocks and 3PC does not.
    // ---------------------------------------------------------------
    let two_pc = central_2pc(3);
    let three_pc = central_3pc(3);

    println!("== The fundamental nonblocking theorem ==\n");
    println!("{}", theorem::check(&two_pc).unwrap());
    println!("{}", theorem::check(&three_pc).unwrap());

    // ---------------------------------------------------------------
    // 2. Execution: a commit round that survives a coordinator crash.
    // ---------------------------------------------------------------
    println!("== 3PC under a coordinator crash ==\n");
    let analysis = Analysis::build(&three_pc).unwrap();

    // The nastiest single-failure point: the coordinator durably decides
    // commit but reaches only one slave before dying (a non-atomic
    // transition). The termination protocol must carry everyone to commit.
    let config = RunConfig::happy(3).with_crash(CrashSpec {
        site: 0,
        point: CrashPoint::OnTransition {
            ordinal: 3, // the coordinator's commit broadcast
            progress: TransitionProgress::AfterMsgs(1),
        },
        recover_at: None,
    });
    let report = run_with(&three_pc, &analysis, config);
    println!("run: {report}");
    assert!(report.consistent);
    assert_eq!(report.decision(), Some(true));
    println!(
        "\nAll operational sites committed despite the crash — the backup \
         coordinator's decision rule\n(commit iff the concurrency set of its \
         state contains a commit state) carried the day.\n"
    );

    // ---------------------------------------------------------------
    // 3. The same crash under 2PC blocks.
    // ---------------------------------------------------------------
    println!("== The same crash under 2PC ==\n");
    let analysis2 = Analysis::build(&two_pc).unwrap();
    let config2 = RunConfig::happy(3)
        .with_rule(nonblocking_commit::engine::TerminationRule::Cooperative)
        .with_crash(CrashSpec {
            site: 0,
            point: CrashPoint::OnTransition {
                ordinal: 2, // the 2PC commit broadcast
                progress: TransitionProgress::AfterMsgs(0),
            },
            recover_at: None,
        });
    let report2 = run_with(&two_pc, &analysis2, config2);
    println!("run: {report2}");
    assert!(report2.any_blocked);
    println!(
        "\nThe slaves are stuck in their wait states: they can neither commit \
         (the coordinator may\nhave aborted) nor abort (it may have committed). \
         That is blocking — and the paper's\nwhole point.\n"
    );
}
