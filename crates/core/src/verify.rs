//! Exhaustive verification of the termination protocol — the sufficiency
//! direction of the fundamental nonblocking theorem, model-checked.
//!
//! The theorem's sufficiency proof must show that *it is always possible
//! to terminate the protocol, in a consistent state, at all operational
//! sites*. This module checks that claim over the entire state space: for
//! **every** reachable global state `G` and **every** nonempty subset `S`
//! of surviving sites,
//!
//! 1. the decision the elected backup of `S` derives (the backup rule per
//!    [`termination::class_decisions`](crate::termination::class_decisions)
//!    applied to its state class) must not contradict a final state already
//!    present anywhere in `G` — a crashed site may have durably committed
//!    or aborted; and
//! 2. every *possible* backup is covered: crashing sites hands the backup
//!    role down the line, but a crash only shrinks the survivor set, so
//!    enumerating all subsets enumerates every site that can ever decide
//!    with its *own* class. (A backup that inherits a class through
//!    phase-1 alignment re-derives its predecessor's decision by
//!    construction — the rule is a function of the class.)
//!
//! For a protocol satisfying the theorem the check passes with zero
//! witnesses; for 2PC it reports exactly the global states where some
//! survivor subset is stuck or, under the naive rule, would split.

use std::fmt;

use crate::analysis::Analysis;
use crate::error::ProtocolError;
use crate::fsa::StateClass;
use crate::ids::SiteId;
use crate::protocol::Protocol;
use crate::reach::NodeId;
use crate::termination::Decision;

/// A global state + survivor subset where termination misbehaves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TerminationWitness {
    /// The elected backup's decision contradicts a final state in `G`.
    ContradictsFinal {
        /// Graph node id of the global state.
        node: NodeId,
        /// Survivor subset.
        survivors: Vec<usize>,
        /// The backup whose decision contradicts.
        survivor: SiteId,
        /// The site already in a contradicting final state.
        final_site: SiteId,
    },
    /// Some survivor subset cannot decide at all (every survivor's class
    /// decision is `Blocked`). Expected — and reported — for blocking
    /// protocols; fatal for protocols the theorem calls nonblocking.
    Stuck {
        /// Graph node id of the global state.
        node: NodeId,
        /// Survivor subset.
        survivors: Vec<usize>,
    },
}

impl fmt::Display for TerminationWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ContradictsFinal { node, survivors, survivor, final_site } => write!(
                f,
                "node {node}, survivors {survivors:?}: {survivor}'s decision contradicts the final state at {final_site}"
            ),
            Self::Stuck { node, survivors } => {
                write!(f, "node {node}, survivors {survivors:?}: no survivor can decide")
            }
        }
    }
}

/// Result of the exhaustive termination check.
#[derive(Clone, Debug)]
pub struct TerminationVerification {
    /// Protocol name.
    pub protocol: String,
    /// Global states × survivor subsets examined.
    pub cases: usize,
    /// Safety violations (backup decisions contradicting existing final
    /// states). Must be empty for *every* protocol under the class-based
    /// rule.
    pub unsafe_witnesses: Vec<TerminationWitness>,
    /// Liveness failures (stuck survivor subsets). Empty iff the protocol
    /// is nonblocking.
    pub stuck_witnesses: Vec<TerminationWitness>,
}

impl TerminationVerification {
    /// No split decisions and no contradictions.
    pub fn safe(&self) -> bool {
        self.unsafe_witnesses.is_empty()
    }

    /// Safe and never stuck: the full nonblocking property.
    pub fn nonblocking(&self) -> bool {
        self.safe() && self.stuck_witnesses.is_empty()
    }
}

/// Exhaustively verify termination over every reachable global state and
/// every nonempty survivor subset.
pub fn verify_termination(protocol: &Protocol) -> Result<TerminationVerification, ProtocolError> {
    let analysis = Analysis::build(protocol)?;
    Ok(verify_termination_with(protocol, &analysis))
}

/// As [`verify_termination`] with a shared analysis.
pub fn verify_termination_with(
    protocol: &Protocol,
    analysis: &Analysis,
) -> TerminationVerification {
    let decisions = analysis.class_decisions();
    let graph =
        analysis.graph().expect("termination verification requires a graph-retaining analysis");
    let n = protocol.n_sites();
    assert!(n < usize::BITS as usize, "subset enumeration uses a bitmask");

    let mut cases = 0usize;
    let mut unsafe_witnesses = Vec::new();
    let mut stuck_witnesses = Vec::new();

    for node in 0..graph.node_count() as NodeId {
        let g = graph.node(node);
        // Per-site decision the backup rule would derive from this global
        // state, and the final-state facts.
        let mut site_decision = Vec::with_capacity(n);
        let mut final_decision: Vec<Option<bool>> = Vec::with_capacity(n);
        for (i, &s) in g.locals.iter().enumerate() {
            let class = graph.class_of(SiteId(i as u32), s);
            site_decision.push(decisions.get(&class).copied().unwrap_or(Decision::Blocked));
            final_decision.push(match class {
                StateClass::Committed => Some(true),
                StateClass::Aborted => Some(false),
                _ => None,
            });
        }

        for mask in 1u64..(1u64 << n) {
            let survivors: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
            cases += 1;

            // The elected backup is the lowest-id survivor; the decision
            // emitted (if any) comes from its class.
            let backup = survivors[0];
            let backup_decision = site_decision[backup];

            // Safety: the backup's decision vs. any final state in G —
            // including the durable finals of the crashed sites.
            match backup_decision {
                Decision::Commit | Decision::Abort => {
                    let commits = backup_decision == Decision::Commit;
                    for (j, fd) in final_decision.iter().enumerate() {
                        if matches!(fd, Some(f) if *f != commits) {
                            unsafe_witnesses.push(TerminationWitness::ContradictsFinal {
                                node,
                                survivors: survivors.clone(),
                                survivor: SiteId(backup as u32),
                                final_site: SiteId(j as u32),
                            });
                        }
                    }
                }
                Decision::Blocked => {
                    // Liveness: stuck iff no survivor's class can refine
                    // the decision (the cooperative extension).
                    let refinable =
                        survivors.iter().any(|&i| site_decision[i] != Decision::Blocked);
                    if !refinable {
                        stuck_witnesses
                            .push(TerminationWitness::Stuck { node, survivors: survivors.clone() });
                    }
                }
            }
        }
    }

    TerminationVerification {
        protocol: protocol.name.clone(),
        cases,
        unsafe_witnesses,
        stuck_witnesses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kpc::k_phase_central;
    use crate::protocols::{central_2pc, central_3pc, decentralized_2pc, decentralized_3pc};

    #[test]
    fn three_pc_verifies_nonblocking_globally() {
        for n in 2..=4 {
            for p in [central_3pc(n), decentralized_3pc(n)] {
                let v = verify_termination(&p).unwrap();
                assert!(
                    v.safe(),
                    "{}: {:?}",
                    p.name,
                    &v.unsafe_witnesses[..3.min(v.unsafe_witnesses.len())]
                );
                assert!(
                    v.nonblocking(),
                    "{}: {} stuck cases of {}",
                    p.name,
                    v.stuck_witnesses.len(),
                    v.cases
                );
                assert!(v.cases > 0);
            }
        }
    }

    #[test]
    fn two_pc_is_safe_but_gets_stuck() {
        for p in [central_2pc(3), decentralized_2pc(3)] {
            let v = verify_termination(&p).unwrap();
            // The class rule never splits a decision, even for 2PC...
            assert!(
                v.safe(),
                "{}: {:?}",
                p.name,
                &v.unsafe_witnesses[..3.min(v.unsafe_witnesses.len())]
            );
            // ...but some survivor subsets are stuck: that is blocking.
            assert!(!v.stuck_witnesses.is_empty(), "{}", p.name);
        }
    }

    #[test]
    fn stuck_cases_of_2pc_are_all_wait_subsets() {
        // Every stuck witness has all survivors in their wait states.
        let p = central_2pc(3);
        let a = Analysis::build(&p).unwrap();
        let v = verify_termination_with(&p, &a);
        for w in &v.stuck_witnesses {
            let TerminationWitness::Stuck { node, survivors } = w else {
                panic!("unexpected witness kind {w}");
            };
            let graph = a.graph().unwrap();
            let g = graph.node(*node);
            for &i in survivors {
                assert_eq!(graph.class_of(SiteId(i as u32), g.locals[i]), StateClass::Wait);
            }
        }
    }

    #[test]
    fn k_phase_family_verifies() {
        for k in 3..=4u32 {
            let p = k_phase_central(3, k).unwrap();
            let v = verify_termination(&p).unwrap();
            assert!(v.nonblocking(), "{}", p.name);
        }
    }

    #[test]
    fn witness_display() {
        let w = TerminationWitness::Stuck { node: 7, survivors: vec![1, 2] };
        assert!(w.to_string().contains("node 7"));
    }
}
