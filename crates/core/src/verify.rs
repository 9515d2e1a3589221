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
//!
//! A case's verdict depends only on which survivors' classes are blocked
//! and which sites are already final, so the subsets are judged in closed
//! form rather than one by one: each global state is read off its packed
//! words into five site bitmasks (`SiteMasks`), a subset is stuck
//! exactly when it is a nonempty submask of `blocked`, and it is unsafe
//! only when its lowest member decides against a final site. Only a
//! witness is ever spelled out as a survivor list.

use std::fmt;

use crate::analysis::Analysis;
use crate::error::ProtocolError;
use crate::fsa::StateClass;
use crate::ids::{SiteId, StateId};
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
    assert!(n < usize::BITS as usize, "survivor subsets are bitmasks");

    // `table[site][state]`: what the backup rule decides in that local
    // state (a function of its class), and the class itself.
    let table: Vec<Vec<(Decision, StateClass)>> = protocol
        .sites()
        .map(|site| {
            (0..analysis.state_count(site) as u32)
                .map(|s| {
                    let class = graph.class_of(site, StateId(s));
                    (decisions.get(&class).copied().unwrap_or(Decision::Blocked), class)
                })
                .collect()
        })
        .collect();

    let mut unsafe_witnesses = Vec::new();
    let mut stuck_witnesses = Vec::new();
    for node in 0..graph.node_count() as NodeId {
        let mut masks = SiteMasks::default();
        for (site, s) in graph.locals(node) {
            let (decision, class) = table[site.index()][s.index()];
            masks.add(site, decision, class);
        }
        let (contradictions, stuck) = witnesses(node, n, masks);
        unsafe_witnesses.extend(contradictions);
        stuck_witnesses.extend(stuck);
    }

    TerminationVerification {
        protocol: protocol.name.clone(),
        cases: graph.node_count() * ((1usize << n) - 1),
        unsafe_witnesses,
        stuck_witnesses,
    }
}

/// One global state's sites as bitmasks, bit `i` for site `i`: what the
/// backup rule decides from each site's class, and which sites are final.
#[derive(Clone, Copy, Debug, Default)]
struct SiteMasks {
    blocked: u64,
    commit: u64,
    abort: u64,
    final_commit: u64,
    final_abort: u64,
}

impl SiteMasks {
    /// Record that `site` is in a state of `class`, from which the backup
    /// rule decides `decision`.
    fn add(&mut self, site: SiteId, decision: Decision, class: StateClass) {
        let bit = 1u64 << site.index();
        match decision {
            Decision::Commit => self.commit |= bit,
            Decision::Abort => self.abort |= bit,
            Decision::Blocked => self.blocked |= bit,
        }
        match class {
            StateClass::Committed => self.final_commit |= bit,
            StateClass::Aborted => self.final_abort |= bit,
            _ => {}
        }
    }
}

/// The `(unsafe, stuck)` witnesses of global state `node`, whose `n` sites
/// read `m`, in the order a walk over its survivor subsets one by one
/// meets them: subsets ascending as bitmasks, then the contradicted final
/// site ascending.
fn witnesses(
    node: NodeId,
    n: usize,
    m: SiteMasks,
) -> (Vec<TerminationWitness>, Vec<TerminationWitness>) {
    // Safety: the elected backup is the lowest-id survivor, and its
    // decision must not contradict a final state anywhere in G — the
    // durable finals of the crashed sites included.
    let mut leads = 0;
    if m.final_abort != 0 {
        leads |= m.commit;
    }
    if m.final_commit != 0 {
        leads |= m.abort;
    }
    let mut contradictions = Vec::new();
    for mask in led_by(leads, n) {
        let backup = mask.trailing_zeros();
        let against = if m.commit & (1 << backup) != 0 { m.final_abort } else { m.final_commit };
        for final_site in members(against) {
            contradictions.push(TerminationWitness::ContradictsFinal {
                node,
                survivors: survivors(mask),
                survivor: SiteId(backup),
                final_site: SiteId(final_site),
            });
        }
    }
    // Liveness: a subset whose backup is blocked is stuck iff no survivor's
    // class can refine the decision (the cooperative extension) — iff every
    // survivor is blocked.
    let stuck = submasks(m.blocked)
        .map(|mask| TerminationWitness::Stuck { node, survivors: survivors(mask) });
    (contradictions, stuck.collect())
}

/// The members of `set`, ascending.
fn members(set: u64) -> impl Iterator<Item = u32> {
    std::iter::successors(Some(set), |&s| Some(s & s.wrapping_sub(1)))
        .take_while(|&s| s != 0)
        .map(u64::trailing_zeros)
}

/// The survivor list of subset `mask`.
fn survivors(mask: u64) -> Vec<usize> {
    members(mask).map(|i| i as usize).collect()
}

/// The nonempty submasks of `set`, ascending.
fn submasks(set: u64) -> impl Iterator<Item = u64> {
    std::iter::successors(Some(0), move |&s| Some((s | !set).wrapping_add(1) & set))
        .skip(1)
        .take_while(|&s| s != 0)
}

/// The nonempty subsets of `n` sites whose lowest member is in `leads`,
/// ascending. The subsets led by site `b` are the odd multiples of `2^b`,
/// so the next one after `mask` is the least, over `b`, of the first odd
/// multiple of `2^b` above it.
fn led_by(leads: u64, n: usize) -> impl Iterator<Item = u64> {
    let first = (leads != 0).then(|| leads & leads.wrapping_neg());
    std::iter::successors(first, move |&mask| {
        members(leads).map(|b| (((mask >> b) + 1) | 1) << b).min().filter(|&next| next >> n == 0)
    })
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

    /// The case-by-case loop `verify_termination_with` is held to: decode
    /// every node, then build and judge each survivor subset on its own.
    fn per_case_reference(protocol: &Protocol, analysis: &Analysis) -> TerminationVerification {
        let decisions = analysis.class_decisions();
        let graph = analysis.graph().expect("retained");
        let mut v = TerminationVerification {
            protocol: protocol.name.clone(),
            cases: 0,
            unsafe_witnesses: Vec::new(),
            stuck_witnesses: Vec::new(),
        };
        for node in 0..graph.node_count() as NodeId {
            let g = graph.node(node);
            let mut site_decision = Vec::new();
            let mut final_decision = Vec::new();
            for (i, &s) in g.locals.iter().enumerate() {
                let class = graph.class_of(SiteId(i as u32), s);
                site_decision.push(decisions.get(&class).copied().unwrap_or(Decision::Blocked));
                final_decision.push(final_of(class));
            }
            per_case_node(&mut v, node, &site_decision, &final_decision);
        }
        v
    }

    /// `Some(true)` for a committed state, `Some(false)` for an aborted one.
    fn final_of(class: StateClass) -> Option<bool> {
        match class {
            StateClass::Committed => Some(true),
            StateClass::Aborted => Some(false),
            _ => None,
        }
    }

    /// The reference's step over one global state whose sites decide
    /// `site_decision` and are final as `final_decision` says: every
    /// nonempty survivor subset, one at a time.
    fn per_case_node(
        v: &mut TerminationVerification,
        node: NodeId,
        site_decision: &[Decision],
        final_decision: &[Option<bool>],
    ) {
        let n = site_decision.len();
        for mask in 1u64..(1u64 << n) {
            let survivors: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
            v.cases += 1;
            let backup = survivors[0];
            let backup_decision = site_decision[backup];
            match backup_decision {
                Decision::Commit | Decision::Abort => {
                    let commits = backup_decision == Decision::Commit;
                    for (j, fd) in final_decision.iter().enumerate() {
                        if matches!(fd, Some(f) if *f != commits) {
                            v.unsafe_witnesses.push(TerminationWitness::ContradictsFinal {
                                node,
                                survivors: survivors.clone(),
                                survivor: SiteId(backup as u32),
                                final_site: SiteId(j as u32),
                            });
                        }
                    }
                }
                Decision::Blocked => {
                    if survivors.iter().all(|&i| site_decision[i] == Decision::Blocked) {
                        v.stuck_witnesses
                            .push(TerminationWitness::Stuck { node, survivors: survivors.clone() });
                    }
                }
            }
        }
    }

    #[test]
    fn matches_the_per_case_reference() {
        let mut protocols: Vec<Protocol> = (2..=6).flat_map(crate::protocols::catalog).collect();
        protocols.push(k_phase_central(3, 4).unwrap());
        protocols.push(k_phase_central(4, 3).unwrap());
        for p in protocols {
            let a = Analysis::build(&p).unwrap();
            let (v, r) = (verify_termination_with(&p, &a), per_case_reference(&p, &a));
            assert_eq!(v.protocol, r.protocol);
            assert_eq!(v.cases, r.cases, "{}", p.name);
            assert_eq!(v.unsafe_witnesses, r.unsafe_witnesses, "{}", p.name);
            assert_eq!(v.stuck_witnesses, r.stuck_witnesses, "{}", p.name);
        }
    }

    #[test]
    fn one_state_matches_the_per_case_reference_on_random_masks() {
        // No catalog protocol contradicts a final state, so the unsafe
        // branch and its order are held to the reference here: every site
        // draws a decision and a class at random, finals against the rule
        // included.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let decisions = [Decision::Commit, Decision::Abort, Decision::Blocked];
        let classes = [StateClass::Committed, StateClass::Aborted, StateClass::Wait];
        let (mut contradictions, mut stuck) = (0, 0);
        for n in 1..=8 {
            for node in 0..400 {
                let mut masks = SiteMasks::default();
                let (mut site_decision, mut final_decision) = (Vec::new(), Vec::new());
                for site in 0..n {
                    let decision = decisions[(next() % 3) as usize];
                    let class = classes[(next() % 3) as usize];
                    masks.add(SiteId(site), decision, class);
                    site_decision.push(decision);
                    final_decision.push(final_of(class));
                }
                let mut reference = TerminationVerification {
                    protocol: String::new(),
                    cases: 0,
                    unsafe_witnesses: Vec::new(),
                    stuck_witnesses: Vec::new(),
                };
                per_case_node(&mut reference, node, &site_decision, &final_decision);
                let (u, s) = witnesses(node, n as usize, masks);
                assert_eq!(u, reference.unsafe_witnesses, "n={n} {masks:?}");
                assert_eq!(s, reference.stuck_witnesses, "n={n} {masks:?}");
                (contradictions, stuck) = (contradictions + u.len(), stuck + s.len());
            }
        }
        assert!(contradictions > 0 && stuck > 0, "both kinds drawn: {contradictions}, {stuck}");
    }

    #[test]
    fn witness_display() {
        let w = TerminationWitness::Stuck { node: 7, survivors: vec![1, 2] };
        assert!(w.to_string().contains("node 7"));
    }
}
