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
//! For completeness the report also carries the raw maximum
//! transition-count lead, measured by exhaustive exploration of the
//! reachable graph augmented with per-site transition counters.

use std::collections::{BTreeSet, HashSet, VecDeque};

use crate::analysis::Analysis;
use crate::error::ProtocolError;
use crate::fsa::StateClass;
use crate::ids::{SiteId, StateId};
use crate::protocol::Protocol;
use crate::reach::{NodeId, ReachGraph, ReachOptions};

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
    /// Largest observed lead of one still-executing site over another, in
    /// raw transition counts.
    pub max_lead: u32,
    /// Per-site transition counts at the point of maximum lead.
    pub witness: Vec<u32>,
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
    let analysis = Analysis::build(protocol)?;
    Ok(check_with(protocol, &analysis, ReachOptions::default()))
}

/// Check against a precomputed [`Analysis`].
pub fn check_with(protocol: &Protocol, analysis: &Analysis, opts: ReachOptions) -> SyncReport {
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

    // The raw lead measurement walks the retained graph; a streamed
    // analysis has none, so the adjacency verdict stands alone and the
    // lead is reported as zero with an empty witness.
    let (max_lead, witness) = match analysis.graph() {
        Some(graph) => max_transition_lead(protocol, graph, opts),
        None => (0, Vec::new()),
    };

    SyncReport { protocol: protocol.name.clone(), escapes, max_lead, witness }
}

/// Exhaustively measure the largest transition-count lead between two
/// still-executing sites. Sites that have reached a final state are
/// excluded from the spread: a unilateral abort legitimately finishes a
/// site early.
fn max_transition_lead(
    protocol: &Protocol,
    graph: &ReachGraph,
    opts: ReachOptions,
) -> (u32, Vec<u32>) {
    let n = protocol.n_sites();
    let init: (NodeId, Box<[u32]>) = (graph.initial(), vec![0u32; n].into_boxed_slice());
    let mut seen: HashSet<(NodeId, Box<[u32]>)> = HashSet::new();
    seen.insert(init.clone());
    let mut queue = VecDeque::from([init]);

    let mut max_lead = 0u32;
    let mut witness = vec![0u32; n];

    while let Some((node, depths)) = queue.pop_front() {
        let executing: Vec<u32> = graph
            .locals(node)
            .filter(|&(site, s)| !graph.class_of(site, s).is_final())
            .map(|(site, _)| depths[site.index()])
            .collect();
        if executing.len() >= 2 {
            let lead = executing.iter().max().unwrap() - executing.iter().min().unwrap();
            if lead > max_lead {
                max_lead = lead;
                witness = depths.to_vec();
            }
        }
        for e in graph.edges(node) {
            let mut next = depths.clone();
            next[e.site.index()] += 1;
            let key = (e.to, next);
            if !seen.contains(&key) {
                if seen.len() >= opts.max_states {
                    return (max_lead, witness);
                }
                seen.insert(key.clone());
                queue.push_back(key);
            }
        }
    }
    (max_lead, witness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsa::{Consume, Envelope, FsaBuilder};
    use crate::ids::MsgKind;
    use crate::protocol::{InitialMsg, Paradigm};
    use crate::protocols::{central_2pc, central_3pc, decentralized_2pc, decentralized_3pc};

    #[test]
    fn whole_catalog_is_synchronous_within_one() {
        // The paper asserts this for both paradigms, 2PC and 3PC alike.
        for p in crate::protocols::catalog(3) {
            let r = check(&p).unwrap();
            assert!(r.synchronous_within_one(), "{}: escapes {:?}", p.name, r.escapes);
        }
    }

    #[test]
    fn commit_paths_have_lead_at_most_one() {
        for p in [central_2pc(3), central_3pc(3), decentralized_2pc(3), decentralized_3pc(3)] {
            let r = check(&p).unwrap();
            assert!(
                r.max_lead <= 1,
                "{}: still-executing lead {} at {:?}",
                p.name,
                r.max_lead,
                r.witness
            );
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
        // And while the runner sits in z (two transitions in) the waiter is
        // still executing at zero transitions: a raw lead of 2.
        assert_eq!(r.max_lead, 2);
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
        assert!(r.max_lead <= 1);
    }
}
