//! The allocation budget of a commit round, so the diet cannot regress
//! silently between benchmark runs: a fault-free batch must cost the heap
//! what its transactions bring (a lock-table copy of each key a site has
//! not seen, the staged value of a key its store has not seen: a balance
//! that replaces one is written into the replaced value's buffer) and a
//! report per round, not a fresh runner
//! or configuration, a stage vector, a scratch payload per log record or a
//! cloned emit list per transition. At commit 55b52a3 this batch allocated
//! ~135 times per transaction, at 9abce70 9.3 times, at 88669f0 5.2.
//!
//! This file is its own test binary with a single test, so nothing else
//! allocates while it counts.

mod counting;

use nbc_pipeline::{bank_transfer_txns, Pipeline, PipelineConfig};
use nbc_simnet::SimRng;
use nbc_txn::{BankWorkload, ProtocolKind};

#[global_allocator]
static ALLOCATOR: counting::Counting = counting::Counting;

const TXNS: usize = 512;
/// Allocation calls per transaction measured for this batch, start-up
/// included (the pipeline's own logs and maps growing, the one runner an
/// untraced batch cycles through). The test allows a fifth more.
const MEASURED_PER_TXN: f64 = 5.0;

#[test]
fn a_fault_free_batch_stays_within_its_allocation_budget() {
    let bank = BankWorkload::new(4, 4096, 0, 31);
    let batch = bank_transfer_txns(&mut bank.clone(), TXNS, 0, &mut SimRng::seed_from_u64(37));
    let mut p = Pipeline::new(PipelineConfig::new(4, ProtocolKind::Central3pc).with_in_flight(8));

    let before = counting::calls();
    let report = p.run(batch);
    let calls = counting::calls() - before;

    assert_eq!((report.decided(), report.blocked), (TXNS as u64, 0), "{report}");
    assert_eq!(p.total_balance(&bank), bank.expected_total());
    let per_txn = calls as f64 / TXNS as f64;
    assert!(
        per_txn <= MEASURED_PER_TXN * 1.2,
        "{per_txn:.1} allocations per transaction, budget {:.1}",
        MEASURED_PER_TXN * 1.2
    );
}
