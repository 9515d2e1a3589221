//! The k-resiliency corollary.
//!
//! Paper (§"A corollary to the fundamental nonblocking theorem"): *a commit
//! protocol is nonblocking with respect to k−1 site failures
//! (2 ≤ k ≤ n) if and only if there is a subset of k sites that obeys both
//! conditions of the fundamental nonblocking theorem.* A protocol with k
//! such sites will be nonblocking as long as one of them remains
//! operational.

use crate::error::ProtocolError;
use crate::protocol::Protocol;
use crate::theorem::{self, TheoremReport};

/// Resiliency analysis of one protocol.
#[derive(Clone, Debug)]
pub struct ResilienceReport {
    /// Protocol name.
    pub protocol: String,
    /// Number of participating sites.
    pub n_sites: usize,
    /// Per-site: does the site obey both theorem conditions?
    pub clean: Vec<bool>,
    /// The largest number of site failures the protocol is nonblocking
    /// with respect to: `max(0, #clean − 1)` bounded to `n−1`.
    pub max_tolerated_failures: usize,
}

impl ResilienceReport {
    /// Number of sites that obey both theorem conditions.
    pub fn clean_count(&self) -> usize {
        self.clean.iter().filter(|&&c| c).count()
    }

    /// Is the protocol nonblocking with respect to `f` site failures?
    ///
    /// By the corollary this requires a clean subset of size `f + 1`,
    /// i.e. at least `f + 1` clean sites.
    pub fn tolerates(&self, f: usize) -> bool {
        f == 0 || self.clean_count() > f
    }
}

/// Run the corollary against a protocol.
pub fn resilience(protocol: &Protocol) -> Result<ResilienceReport, ProtocolError> {
    Ok(resilience_with(protocol, &theorem::check(protocol)?))
}

/// Derive the resiliency report from an existing theorem report.
pub fn resilience_with(protocol: &Protocol, report: &TheoremReport) -> ResilienceReport {
    let clean = report.clean.clone();
    let clean_count = clean.iter().filter(|&&c| c).count();
    let n = protocol.n_sites();
    // Both arms saturate: a 0-site protocol (legal input — `Protocol::new`
    // does not require sites) tolerates no failures rather than panicking
    // on `n - 1`.
    let max_tolerated_failures = clean_count.saturating_sub(1).min(n.saturating_sub(1));
    ResilienceReport { protocol: protocol.name.clone(), n_sites: n, clean, max_tolerated_failures }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{central_2pc, central_3pc, decentralized_2pc, decentralized_3pc};

    #[test]
    fn three_pc_tolerates_all_but_one() {
        for n in 2..=4 {
            for p in [central_3pc(n), decentralized_3pc(n)] {
                let r = resilience(&p).unwrap();
                assert_eq!(r.max_tolerated_failures, n - 1, "{}", p.name);
                assert!(r.tolerates(n - 1));
            }
        }
    }

    #[test]
    fn central_2pc_tolerates_none() {
        // Only the coordinator is clean; a single clean site cannot form a
        // clean subset of size 2, so even one failure can block.
        let r = resilience(&central_2pc(3)).unwrap();
        assert_eq!(r.clean_count(), 1);
        assert_eq!(r.max_tolerated_failures, 0);
        assert!(r.tolerates(0));
        assert!(!r.tolerates(1));
    }

    #[test]
    fn decentralized_2pc_tolerates_none() {
        let r = resilience(&decentralized_2pc(4)).unwrap();
        assert_eq!(r.clean_count(), 0);
        assert_eq!(r.max_tolerated_failures, 0);
        assert!(!r.tolerates(1));
    }

    #[test]
    fn zero_failures_always_tolerated() {
        let r = resilience(&decentralized_2pc(2)).unwrap();
        assert!(r.tolerates(0));
    }

    #[test]
    fn zero_site_protocol_does_not_underflow() {
        // Regression: `min(n - 1)` underflowed for n = 0.
        let p = Protocol::new("empty", crate::Paradigm::Custom, vec![], vec![]);
        let report =
            TheoremReport { protocol: "empty".to_string(), violations: vec![], clean: vec![] };
        let r = resilience_with(&p, &report);
        assert_eq!(r.n_sites, 0);
        assert_eq!(r.max_tolerated_failures, 0);
        assert!(r.tolerates(0));
        assert!(!r.tolerates(1));
    }
}
