//! The Fundamental Nonblocking Theorem.
//!
//! Paper (§"The fundamental nonblocking theorem"): *a protocol is
//! nonblocking if and only if, in every participating site, it satisfies
//! both of the following conditions:*
//!
//! 1. *there exists no local state such that its concurrency set contains
//!    both an abort and a commit state;*
//! 2. *there exists no noncommittable state whose concurrency set contains
//!    a commit state.*
//!
//! Necessity follows from the single-operational-site case: such a site
//! must infer the progress of all others solely from its local state. A
//! site can safely abort iff its concurrency set contains no commit state,
//! and can safely commit iff its state is committable and the concurrency
//! set contains no abort state. A state violating either condition can do
//! neither — it *blocks*.

use std::fmt;

use crate::analysis::Analysis;
use crate::error::ProtocolError;
use crate::ids::{SiteId, StateId};
use crate::protocol::Protocol;
use crate::reach::ReachOptions;

/// A concrete witness of a theorem-condition violation.
///
/// `site`/`state` locate the violating local state; the witnesses are
/// concurrency-set members proving the condition.
#[derive(Clone, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum Violation {
    /// Condition 1: the concurrency set of `state` contains both a commit
    /// state and an abort state.
    MixedConcurrency {
        site: SiteId,
        state: StateId,
        commit_witness: (SiteId, StateId),
        abort_witness: (SiteId, StateId),
    },
    /// Condition 2: `state` is noncommittable and its concurrency set
    /// contains a commit state.
    NoncommittableSeesCommit { site: SiteId, state: StateId, commit_witness: (SiteId, StateId) },
}

/// Result of checking the theorem against a protocol.
#[derive(Clone, Debug)]
pub struct TheoremReport {
    /// Protocol name the report refers to.
    pub(crate) protocol: String,
    /// All violations found (empty iff nonblocking).
    pub violations: Vec<Violation>,
    /// Per-site cleanliness: `clean[i]` iff site `i` has no violating
    /// state. The k-resiliency corollary is computed from this.
    pub clean: Vec<bool>,
}

impl TheoremReport {
    /// True iff the protocol satisfies both conditions at every site —
    /// i.e. it is nonblocking (tolerates failure of all but one site).
    pub fn nonblocking(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violations of condition 1 only.
    pub fn mixed_concurrency(&self) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(|v| matches!(v, Violation::MixedConcurrency { .. }))
    }

    /// Violations of condition 2 only.
    pub fn noncommittable_sees_commit(&self) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(|v| matches!(v, Violation::NoncommittableSeesCommit { .. }))
    }
}

impl fmt::Display for TheoremReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.nonblocking() {
            writeln!(f, "{}: NONBLOCKING (both theorem conditions hold)", self.protocol)?;
        } else {
            writeln!(f, "{}: BLOCKING ({} violation(s))", self.protocol, self.violations.len())?;
            for v in &self.violations {
                match v {
                    Violation::MixedConcurrency { site, state, .. } => writeln!(
                        f,
                        "  cond.1 violated: {site} state {state:?} is concurrent with \
                         both a commit and an abort state"
                    )?,
                    Violation::NoncommittableSeesCommit { site, state, .. } => writeln!(
                        f,
                        "  cond.2 violated: {site} state {state:?} is noncommittable \
                         yet concurrent with a commit state"
                    )?,
                }
            }
        }
        Ok(())
    }
}

/// Check the fundamental nonblocking theorem, building the analysis. The
/// theorem reads facts only, so the analysis is streamed: no graph is kept.
pub fn check(protocol: &Protocol) -> Result<TheoremReport, ProtocolError> {
    let analysis = Analysis::build_with(protocol, ReachOptions::default().with_streaming(true))?;
    Ok(check_with(protocol, &analysis))
}

/// Check against a precomputed [`Analysis`] (reusable across checks).
pub fn check_with(protocol: &Protocol, analysis: &Analysis) -> TheoremReport {
    let mut violations = Vec::new();
    let mut clean = vec![true; protocol.n_sites()];

    for site in protocol.sites() {
        let fsa = protocol.fsa(site);
        for idx in 0..fsa.state_count() {
            let s = StateId(idx as u32);
            if !analysis.occupied(site, s) {
                continue;
            }
            // Both witnesses in one pass over the bitset row (minimum
            // commit-class and abort-class members — the same elements the
            // old two linear scans of the BTreeSet found).
            let (commit_witness, abort_witness) = analysis.cs_witnesses(site, s);

            if let (Some(cw), Some(aw)) = (commit_witness, abort_witness) {
                violations.push(Violation::MixedConcurrency {
                    site,
                    state: s,
                    commit_witness: cw,
                    abort_witness: aw,
                });
                clean[site.index()] = false;
            }
            if let Some(cw) = commit_witness {
                if !analysis.committable(site, s) {
                    violations.push(Violation::NoncommittableSeesCommit {
                        site,
                        state: s,
                        commit_witness: cw,
                    });
                    clean[site.index()] = false;
                }
            }
        }
    }

    TheoremReport { protocol: protocol.name.clone(), violations, clean }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{central_2pc, central_3pc, decentralized_2pc, decentralized_3pc};

    #[test]
    fn both_2pc_protocols_block_for_either_reason() {
        // "Notice that both 2PC protocols can block for either reason."
        for p in [central_2pc(3), decentralized_2pc(3)] {
            let r = check(&p).unwrap();
            assert!(!r.nonblocking(), "{}", p.name);
            assert!(r.mixed_concurrency().count() > 0, "{}: cond.1", p.name);
            assert!(r.noncommittable_sees_commit().count() > 0, "{}: cond.2", p.name);
        }
    }

    #[test]
    fn both_3pc_protocols_are_nonblocking() {
        for n in 2..=4 {
            for p in [central_3pc(n), decentralized_3pc(n)] {
                let r = check(&p).unwrap();
                assert!(r.nonblocking(), "{}: {r}", p.name);
                assert!(r.clean.iter().all(|&c| c));
            }
        }
    }

    #[test]
    fn central_2pc_violations_are_at_slave_wait_states() {
        let p = central_2pc(3);
        let r = check(&p).unwrap();
        for v in &r.violations {
            let (Violation::MixedConcurrency { site, state, .. }
            | Violation::NoncommittableSeesCommit { site, state, .. }) = *v;
            assert_ne!(site, SiteId(0), "coordinator states are clean in central 2PC");
            let fsa = p.fsa(site);
            assert_eq!(fsa.state(state).name, "w");
        }
        // Coordinator clean, every slave dirty.
        assert_eq!(r.clean, vec![true, false, false]);
    }

    #[test]
    fn decentralized_2pc_every_site_dirty() {
        let p = decentralized_2pc(4);
        let r = check(&p).unwrap();
        assert!(r.clean.iter().all(|&c| !c));
    }

    #[test]
    fn report_display_mentions_conditions() {
        let r = check(&central_2pc(2)).unwrap();
        let s = r.to_string();
        assert!(s.contains("BLOCKING"));
        assert!(s.contains("cond.1") || s.contains("cond.2"));
        let r = check(&central_3pc(2)).unwrap();
        assert!(r.to_string().contains("NONBLOCKING"));
    }
}
