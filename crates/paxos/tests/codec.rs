//! The compact state codec must round-trip Paxos Commit exactly.
//!
//! Paxos Commit is the one catalog protocol with quorum triggers and an
//! acceptor tail, so its reachable states exercise message-address
//! universes the central/decentralized protocols never produce — every
//! acceptor broadcasts its phase-2b vote to all participants.

use nbc_core::{ReachGraph, StateCodec};
use nbc_paxos::paxos_commit;

#[test]
fn paxos_states_roundtrip_through_the_codec() {
    for (n, f) in [(2, 1), (3, 1)] {
        let protocol = paxos_commit(n, f);
        let graph = ReachGraph::build(&protocol).expect("paxos reach graph builds");
        let codec = StateCodec::new(&protocol).expect("paxos commit lays out");
        assert_eq!(codec.words(), 1, "paxos_commit({n}, {f}) is one word a state");
        let mut words = Vec::new();
        for state in graph.nodes() {
            // `encode_into` refuses a count above its field's bound, so a
            // state that encodes holds every channel within its bound.
            words.clear();
            codec.encode_into(state, &mut words);
            assert_eq!(
                &codec.decode(&words),
                state,
                "paxos_commit({n}, {f}) state failed to round-trip"
            );
        }
        assert!(!graph.nodes().is_empty());
    }
}
