//! Phase synchronicity (paper §"Synchronicity within one state
//! transition").
//!
//! *A protocol is said to be synchronous within one state transition if one
//! site never leads another by more than one state transition during the
//! execution of the protocol.* Both 2PC paradigms — and both 3PC
//! extensions — have this property; it is what licenses the adjacency-based
//! Lemma in [`crate::canonical`]: for such protocols *the concurrency set
//! for a given state can only contain states that are adjacent to the given
//! state and the given state itself*.
//!
//! We check the property through that operative consequence, in the
//! *canonical quotient* of the protocol — the single automaton over state
//! classes (`q`, `w`, `p`, `a`, `c`, …) whose edges are the union of every
//! site's transitions, which is exactly the abstraction under which the
//! paper states the Lemma ("the similarity between 2PC protocols:
//! structural equivalence"). The check: for every occupied local state `s`
//! and every member `t` of its concurrency set, the classes of `s` and `t`
//! must be equal or adjacent in the quotient automaton. This correctly
//! classifies runs where a site *finishes early* by a unilateral abort —
//! such a site trails in raw transition count without ever being
//! concurrent with a non-adjacent class.
//!
//! The raw transition-count lead reads the graph's edges, so it is
//! measured beside the one table that prints it: E12, in `nbc-bench`.

use std::collections::BTreeSet;

use crate::analysis::Analysis;
use crate::error::ProtocolError;
use crate::fsa::StateClass;
use crate::ids::{SiteId, StateId};
use crate::protocol::Protocol;
use crate::reach::ReachOptions;

/// A concurrency-set member outside the adjacency set of the state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdjacencyEscape {
    /// The site whose concurrency set escapes adjacency.
    pub site: SiteId,
    /// The state whose concurrency set escapes adjacency.
    pub state: StateId,
    /// The other site occupying the non-adjacent state.
    pub other_site: SiteId,
    /// The concurrent state that is not adjacent.
    pub other_state: StateId,
}

/// Result of the synchronicity check.
#[derive(Clone, Debug)]
pub struct SyncReport {
    /// Protocol name.
    pub protocol: String,
    /// Concurrency-set members outside adjacency (empty iff the protocol
    /// is synchronous within one state transition in the Lemma-relevant
    /// sense).
    pub escapes: Vec<AdjacencyEscape>,
}

impl SyncReport {
    /// True iff every concurrency set lies within state adjacency — the
    /// property the Lemma requires of protocols synchronous within one
    /// state transition.
    pub fn synchronous_within_one(&self) -> bool {
        self.escapes.is_empty()
    }
}

/// Check synchronicity, building the analysis.
pub fn check(protocol: &Protocol) -> Result<SyncReport, ProtocolError> {
    let analysis = Analysis::build_with(protocol, ReachOptions::default().with_streaming(true))?;
    Ok(check_with(protocol, &analysis))
}

/// Check against a precomputed [`Analysis`].
pub fn check_with(protocol: &Protocol, analysis: &Analysis) -> SyncReport {
    // Canonical quotient adjacency: class pairs connected by some site's
    // transition (undirected), plus reflexivity.
    let mut quotient: BTreeSet<(StateClass, StateClass)> = BTreeSet::new();
    for site in protocol.sites() {
        let fsa = protocol.fsa(site);
        for t in fsa.transitions() {
            let a = fsa.state(t.from).class;
            let b = fsa.state(t.to).class;
            quotient.insert((a, b));
            quotient.insert((b, a));
        }
    }
    let adjacent = |a: StateClass, b: StateClass| a == b || quotient.contains(&(a, b));

    let mut escapes = Vec::new();
    for site in protocol.sites() {
        let fsa = protocol.fsa(site);
        for idx in 0..fsa.state_count() {
            let s = StateId(idx as u32);
            if !analysis.occupied(site, s) {
                continue;
            }
            let s_class = fsa.state(s).class;
            for (j, t) in analysis.concurrency_slots(site, s) {
                let cls = analysis.class_of(j, t);
                if !adjacent(s_class, cls) {
                    escapes.push(AdjacencyEscape { site, state: s, other_site: j, other_state: t });
                }
            }
        }
    }

    SyncReport { protocol: protocol.name.clone(), escapes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsa::{Consume, Envelope, FsaBuilder};
    use crate::ids::MsgKind;
    use crate::protocol::{InitialMsg, Paradigm};

    #[test]
    fn whole_catalog_is_synchronous_within_one() {
        // The paper asserts this for both paradigms, 2PC and 3PC alike.
        for p in crate::protocols::catalog(3) {
            let r = check(&p).unwrap();
            assert!(r.synchronous_within_one(), "{}: escapes {:?}", p.name, r.escapes);
        }
    }

    #[test]
    fn asynchronous_protocol_detected() {
        // Site 0 takes two spontaneous transitions before site 1 can move:
        // site 1's initial state is concurrent with a state two hops away.
        let mut b0 = FsaBuilder::new("runner");
        let q0 = b0.state("q", StateClass::Initial);
        let m0 = b0.state("m", StateClass::Custom(1));
        let z0 = b0.state("z", StateClass::Custom(2));
        let c0 = b0.state("c", StateClass::Committed);
        b0.transition(q0, m0, Consume::Spontaneous, vec![], None, "step1");
        b0.transition(
            m0,
            z0,
            Consume::Spontaneous,
            vec![Envelope::new(SiteId(1), MsgKind::COMMIT)],
            None,
            "step2 / commit",
        );
        b0.transition(z0, c0, Consume::one(SiteId(1), MsgKind::ACK), vec![], None, "ack /");
        let mut b1 = FsaBuilder::new("waiter");
        let q1 = b1.state("q", StateClass::Initial);
        let c1 = b1.state("c", StateClass::Committed);
        b1.transition(
            q1,
            c1,
            Consume::one(SiteId(0), MsgKind::COMMIT),
            vec![Envelope::new(SiteId(0), MsgKind::ACK)],
            None,
            "commit / ack",
        );

        let p = Protocol::new(
            "lead-2 protocol",
            Paradigm::Custom,
            vec![b0.build(), b1.build()],
            vec![],
        );
        let r = check(&p).unwrap();
        // The waiter's q co-occurs with runner states m and z, whose
        // classes are not among waiter-q's adjacent classes — an escape.
        assert!(!r.synchronous_within_one(), "escapes: {:?}", r.escapes);
    }

    #[test]
    fn lockstep_protocol_is_synchronous() {
        let mut b0 = FsaBuilder::new("a");
        let q0 = b0.state("q", StateClass::Initial);
        let c0 = b0.state("c", StateClass::Committed);
        b0.transition(
            q0,
            c0,
            Consume::one(SiteId::CLIENT, MsgKind::REQUEST),
            vec![Envelope::new(SiteId(1), MsgKind::COMMIT)],
            None,
            "request / commit",
        );
        let mut b1 = FsaBuilder::new("b");
        let q1 = b1.state("q", StateClass::Initial);
        let c1 = b1.state("c", StateClass::Committed);
        b1.transition(q1, c1, Consume::one(SiteId(0), MsgKind::COMMIT), vec![], None, "commit");
        let p = Protocol::new(
            "token",
            Paradigm::Custom,
            vec![b0.build(), b1.build()],
            vec![InitialMsg { src: SiteId::CLIENT, dst: SiteId(0), kind: MsgKind::REQUEST }],
        );
        let r = check(&p).unwrap();
        assert!(r.synchronous_within_one());
    }
}
