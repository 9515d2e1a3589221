//! Paxos Commit's side of `crates/core/tests/quotient_contract.rs`: two
//! classes of interchangeable sites (resource managers, acceptors) that
//! talk to each other, and the quorum trigger.

#[path = "../../core/tests/quotient/mod.rs"]
mod quotient;

use nbc_paxos::paxos_commit;

#[test]
fn paxos_commit_streams_to_the_retained_facts_and_counts() {
    for (n, f) in [(2, 1), (3, 1)] {
        let p = paxos_commit(n, f);
        quotient::assert_streamed_equals_retained(&format!("paxos_commit({n}, {f})"), &p);
    }
}
