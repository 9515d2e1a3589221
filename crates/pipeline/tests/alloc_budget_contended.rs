//! The allocation budget of a commit round under contention: 32 hot
//! accounts and a tenth of the coordinators crashing, so a transaction is
//! refused three to five times before it runs. A refusal must cost the heap
//! nothing — no key built to be dropped on the conflict, no parked-list
//! node, no fresh runner for the round that finally starts. At commit
//! b880787 these batches allocated 19.4 times per transaction.
//!
//! Its own test binary with a single test, like `alloc_budget.rs`, so
//! nothing else allocates while it counts.

mod counting;

use nbc_pipeline::{bank_transfer_txns, Pipeline, PipelineConfig};
use nbc_simnet::SimRng;
use nbc_txn::{BankWorkload, ProtocolKind};

#[global_allocator]
static ALLOCATOR: counting::Counting = counting::Counting;

const TXNS: usize = 1024;
/// Allocation calls per transaction measured for these batches, start-up
/// included (the first failure builds the protocol's analysis). The test
/// allows a fifth more.
const MEASURED_PER_TXN: f64 = 8.4;

#[test]
fn a_contended_crashy_batch_stays_within_its_allocation_budget() {
    let mut calls = 0;
    for kind in [ProtocolKind::Central2pc, ProtocolKind::Central3pc] {
        let bank = BankWorkload::new(4, 32, 0, 31);
        let batch = bank_transfer_txns(&mut bank.clone(), TXNS, 10, &mut SimRng::seed_from_u64(37));
        let mut p = Pipeline::new(PipelineConfig::new(4, kind).with_in_flight(8));

        let before = counting::calls();
        let report = p.run(batch);
        calls += counting::calls() - before;

        assert_eq!(report.decided(), TXNS as u64, "{report}");
        assert!(report.deferrals > TXNS as u64, "the batch must be contended: {report}");
        assert_eq!(p.total_balance(&bank), bank.expected_total());
    }
    let per_txn = calls as f64 / (2 * TXNS) as f64;
    assert!(
        per_txn <= MEASURED_PER_TXN * 1.2,
        "{per_txn:.1} allocations per transaction, budget {:.1}",
        MEASURED_PER_TXN * 1.2
    );
}
