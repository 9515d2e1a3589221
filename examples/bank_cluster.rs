//! A sharded bank running distributed transfers under failures: the
//! application-level face of nonblocking commit.
//!
//! Accounts are spread over three sites; every transfer debits one site
//! and credits another, so transaction atomicity *is* conservation of
//! money. We run the same crash-ridden workload under 2PC and 3PC and
//! compare what survives.
//!
//! ```text
//! cargo run --example bank_cluster
//! ```

use nonblocking_commit::nbc_engine::{CrashPoint, CrashSpec, TransitionProgress};
use nonblocking_commit::nbc_pipeline::{Pipeline, PipelineConfig, PipelineTxn, MAX_REAP_AFTER};
use nonblocking_commit::nbc_simnet::SimRng;
use nonblocking_commit::nbc_txn::{BankWorkload, ProtocolKind};

fn run(kind: ProtocolKind) {
    let n_sites = 3;
    let w = BankWorkload::new(n_sites, 12, 1_000, 42);
    // One round at a time: a lock conflict is a no vote, and a blocked
    // round keeps its locks until the batch is over.
    let mut sites = Pipeline::new(PipelineConfig {
        max_in_flight: 1,
        group_window: 0,
        die_budget: 0,
        reap_after: MAX_REAP_AFTER,
        ..PipelineConfig::new(n_sites, kind)
    });
    let setup = sites.run(vec![PipelineTxn::from_ops(&w.setup_ops())]);
    assert_eq!(setup.committed, 1);

    let mut transfers = w.clone();
    let mut rng = SimRng::seed_from_u64(99);
    let batch = (0..100)
        .map(|_| {
            let (from, to, amount) = transfers.random_transfer();
            // 20% of commit rounds lose the coordinator at a random point of
            // its decision broadcast.
            let crashes = if rng.gen_bool(0.2) {
                vec![CrashSpec {
                    site: 0,
                    point: CrashPoint::OnTransition {
                        ordinal: 2,
                        progress: TransitionProgress::AfterMsgs(rng.gen_range(0u32..=2)),
                    },
                    recover_at: None,
                }]
            } else {
                vec![]
            };
            PipelineTxn::new(w.transfer_ops(from, to, amount)).with_crashes(crashes)
        })
        .collect();
    // Blocked rounds are resolved after the batch: the recovered
    // coordinator's durable decision if it logged one, else abort.
    let r = sites.run(batch);

    println!("--- {} ---", kind.name());
    println!(
        "  committed: {:>3}   aborted: {:>3}   blocked (locks stranded): {:>3}",
        r.committed, r.aborted, r.blocked,
    );
    println!(
        "  messages: {}   blocked rounds committed on recovery: {}",
        setup.msgs + r.msgs,
        r.reaped_commits
    );

    // Recovery: every site rebuilds its store from its own WAL.
    sites.restart_from_logs();
    let total = sites.total_balance(&w);
    println!(
        "  after recovery: total balance = {} (expected {}) — money {}",
        total,
        w.expected_total(),
        if total == w.expected_total() { "conserved ✓" } else { "LOST ✗" }
    );
    assert_eq!(total, w.expected_total());
    println!();
}

fn main() {
    println!("100 transfers, 20% coordinator-crash rate, 3 sites, 12 accounts\n");
    run(ProtocolKind::Central2pc);
    run(ProtocolKind::Central3pc);
    println!(
        "Shape: both protocols preserve atomicity (money is conserved after \
         recovery), but 2PC\nstrands transactions whose held locks poison \
         later transfers, while 3PC keeps deciding."
    );
}
