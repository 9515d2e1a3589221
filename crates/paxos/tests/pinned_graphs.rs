//! Paxos Commit's reachable state graphs, pinned — the quorum-trigger arm
//! of the successor generator, which no `nbc-core` catalog protocol
//! reaches. Same rendering and same parent commit (6201d20) as
//! `crates/core/tests/pinned_graphs.rs`.

#[path = "../../core/tests/pin/mod.rs"]
mod pin;

use nbc_paxos::paxos_commit;

#[test]
fn paxos_commit_graphs_match_the_parent_commit() {
    let mut got = String::new();
    for (n, f) in [(2, 1), (3, 1)] {
        got.push_str(&pin::render(&format!("paxos_commit({n}, {f})"), &paxos_commit(n, f)));
    }
    pin::assert_golden(&got, include_str!("golden/pinned_graphs.txt"));
}
