//! The protocol catalog: every protocol the paper draws, as a constructor
//! parameterized by the number of participating sites.
//!
//! | Constructor | Paper figure |
//! |---|---|
//! | [`one_pc`] | §"1-Phase Commit Protocol" (prose; inadequate — no unilateral abort) |
//! | [`central_2pc`] | "The FSAs for the 2PC protocol" |
//! | [`decentralized_2pc`] | "The decentralized 2PC protocol" |
//! | [`central_3pc`] | "A nonblocking central site 3PC protocol" |
//! | [`decentralized_3pc`] | "A nonblocking decentralized 3PC protocol" |
//!
//! Each constructor is its spec file in this directory (`one_pc.nbc`,
//! `central_2pc.nbc`, …), in the format of [`crate::spec`], read next to
//! the paper's figure. A text is parsed once per process; a call only
//! instantiates it for `n` sites.
//!
//! The *canonical* single-automaton forms used in the paper's concurrency
//! set discussion live in [`crate::canonical`].

use std::sync::OnceLock;

use crate::protocol::Protocol;
use crate::spec::Spec;

/// Instantiate a catalog text for `n` sites, parsing it on first use.
fn instantiate(spec: &OnceLock<Spec>, text: &str, n: usize) -> Protocol {
    let spec = spec.get_or_init(|| Spec::parse(text).expect("a catalog text parses"));
    spec.instantiate(n).expect("a catalog text instantiates at every n >= 2")
}

/// Build central-site 1PC for `n >= 2` sites (`one_pc.nbc`).
///
/// The client's decision is modeled as coordinator nondeterminism: on the
/// request it either broadcasts `commit` or broadcasts `abort`.
///
/// # Panics
/// Panics if `n < 2`.
pub fn one_pc(n: usize) -> Protocol {
    assert!(n >= 2, "central-site protocols need a coordinator and >=1 slave");
    static SPEC: OnceLock<Spec> = OnceLock::new();
    instantiate(&SPEC, include_str!("one_pc.nbc"), n)
}

/// Build central-site 2PC for `n >= 2` sites, 1 coordinator + `n-1`
/// slaves (`central_2pc.nbc`).
///
/// # Panics
/// Panics if `n < 2`.
pub fn central_2pc(n: usize) -> Protocol {
    assert!(n >= 2, "central-site protocols need a coordinator and >=1 slave");
    static SPEC: OnceLock<Spec> = OnceLock::new();
    instantiate(&SPEC, include_str!("central_2pc.nbc"), n)
}

/// Build central-site 3PC for `n >= 2` sites, 1 coordinator + `n-1`
/// slaves (`central_3pc.nbc`).
///
/// # Panics
/// Panics if `n < 2`.
pub fn central_3pc(n: usize) -> Protocol {
    assert!(n >= 2, "central-site protocols need a coordinator and >=1 slave");
    static SPEC: OnceLock<Spec> = OnceLock::new();
    instantiate(&SPEC, include_str!("central_3pc.nbc"), n)
}

/// Build decentralized 2PC for `n >= 2` peer sites
/// (`decentralized_2pc.nbc`).
///
/// # Panics
/// Panics if `n < 2`.
pub fn decentralized_2pc(n: usize) -> Protocol {
    assert!(n >= 2, "a distributed commit protocol needs at least 2 sites");
    static SPEC: OnceLock<Spec> = OnceLock::new();
    instantiate(&SPEC, include_str!("decentralized_2pc.nbc"), n)
}

/// Build decentralized 3PC for `n >= 2` peer sites
/// (`decentralized_3pc.nbc`).
///
/// # Panics
/// Panics if `n < 2`.
pub fn decentralized_3pc(n: usize) -> Protocol {
    assert!(n >= 2, "a distributed commit protocol needs at least 2 sites");
    static SPEC: OnceLock<Spec> = OnceLock::new();
    instantiate(&SPEC, include_str!("decentralized_3pc.nbc"), n)
}

/// Every catalog protocol instantiated for `n` sites, for sweep-style
/// experiments. 1PC is excluded (it fails strict validation by design).
pub fn catalog(n: usize) -> Vec<Protocol> {
    vec![central_2pc(n), decentralized_2pc(n), central_3pc(n), decentralized_3pc(n)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_catalog_validates_strictly() {
        for n in 2..=5 {
            for p in catalog(n) {
                p.validate_strict().unwrap_or_else(|e| panic!("{} failed: {e}", p.name));
            }
        }
    }

    #[test]
    fn phase_counts_match_names() {
        let cat = catalog(3);
        assert_eq!(cat[0].phase_count(), 2, "central 2PC");
        assert_eq!(cat[1].phase_count(), 2, "decentralized 2PC");
        assert_eq!(cat[2].phase_count(), 3, "central 3PC");
        assert_eq!(cat[3].phase_count(), 3, "decentralized 3PC");
    }

    #[test]
    fn one_pc_fails_strict_validation() {
        let p = one_pc(3);
        p.validate().unwrap();
        assert!(p.validate_strict().is_err(), "1PC has a single phase");
    }

    mod one_pc {
        use crate::fsa::Vote;
        use crate::protocols::one_pc;

        #[test]
        fn slaves_cannot_vote() {
            let p = one_pc(3);
            p.validate().unwrap();
            for site in p.sites().skip(1) {
                let fsa = p.fsa(site);
                assert!(fsa.transitions().iter().all(|t| !matches!(t.vote, Some(Vote::No))));
            }
        }

        #[test]
        fn single_phase() {
            assert_eq!(one_pc(4).phase_count(), 1);
        }
    }

    mod central_2pc {
        use crate::fsa::{Consume, StateClass};
        use crate::ids::SiteId;
        use crate::protocols::central_2pc;

        #[test]
        fn shape_matches_paper_figure() {
            let p = central_2pc(3);
            p.validate_strict().unwrap();
            let coord = p.fsa(SiteId(0));
            assert_eq!(coord.state_count(), 4);
            assert_eq!(coord.transitions().len(), 4);
            let slave = p.fsa(SiteId(1));
            assert_eq!(slave.state_count(), 4);
            assert_eq!(slave.transitions().len(), 4);
        }

        #[test]
        fn coordinator_broadcasts_to_every_slave() {
            let p = central_2pc(4);
            let coord = p.fsa(SiteId(0));
            let q1 = coord.initial();
            let (_, start) = coord.outgoing(q1).next().unwrap();
            assert_eq!(start.emit.len(), 3, "xact to each of the 3 slaves");
        }

        #[test]
        fn slave_votes_are_tagged() {
            let p = central_2pc(2);
            let slave = p.fsa(SiteId(1));
            let votes: Vec<_> = slave.transitions().iter().filter_map(|t| t.vote).collect();
            assert_eq!(votes.len(), 2);
        }

        #[test]
        fn coordinator_can_unilaterally_abort() {
            let p = central_2pc(3);
            let coord = p.fsa(SiteId(0));
            let spont = coord
                .transitions()
                .iter()
                .filter(|t| matches!(t.consume, Consume::Spontaneous))
                .count();
            assert_eq!(spont, 1);
        }

        #[test]
        fn two_phases() {
            assert_eq!(central_2pc(5).phase_count(), 2);
        }

        #[test]
        fn final_states_partitioned() {
            let p = central_2pc(3);
            for site in p.sites() {
                let fsa = p.fsa(site);
                let commits =
                    fsa.states().iter().filter(|s| s.class == StateClass::Committed).count();
                let aborts = fsa.states().iter().filter(|s| s.class == StateClass::Aborted).count();
                assert_eq!((commits, aborts), (1, 1));
            }
        }

        #[test]
        #[should_panic]
        fn rejects_single_site() {
            let _ = central_2pc(1);
        }
    }

    mod central_3pc {
        use crate::fsa::StateClass;
        use crate::ids::SiteId;
        use crate::protocols::central_3pc;

        #[test]
        fn shape_matches_paper_figure() {
            let p = central_3pc(3);
            p.validate_strict().unwrap();
            let coord = p.fsa(SiteId(0));
            assert_eq!(coord.state_count(), 5);
            assert_eq!(coord.transitions().len(), 5);
            let slave = p.fsa(SiteId(1));
            assert_eq!(slave.state_count(), 5);
            assert_eq!(slave.transitions().len(), 5);
        }

        #[test]
        fn three_phases() {
            assert_eq!(central_3pc(4).phase_count(), 3);
        }

        #[test]
        fn buffer_state_sits_between_wait_and_commit() {
            let p = central_3pc(2);
            for site in p.sites() {
                let fsa = p.fsa(site);
                let pi = fsa.state_of_class(StateClass::Prepared).unwrap();
                let ci = fsa.state_of_class(StateClass::Committed).unwrap();
                let wi = fsa.state_of_class(StateClass::Wait).unwrap();
                // p's only successor is c, and its only predecessor is w.
                let succ: Vec<_> = fsa.outgoing(pi).map(|(_, t)| t.to).collect();
                assert_eq!(succ, vec![ci]);
                let preds: Vec<_> =
                    fsa.transitions().iter().filter(|t| t.to == pi).map(|t| t.from).collect();
                assert_eq!(preds, vec![wi]);
            }
        }

        #[test]
        fn no_abort_exit_from_prepared() {
            // In the paper's 3PC figure the prepared state has no abort edge;
            // aborting from p is only done by the termination protocol.
            let p = central_3pc(3);
            for site in p.sites() {
                let fsa = p.fsa(site);
                let pi = fsa.state_of_class(StateClass::Prepared).unwrap();
                for (_, t) in fsa.outgoing(pi) {
                    assert!(fsa.is_commit(t.to));
                }
            }
        }
    }

    mod decentralized_2pc {
        use crate::fsa::{Consume, StateClass};
        use crate::ids::{MsgKind, SiteId};
        use crate::protocols::decentralized_2pc;

        #[test]
        fn all_sites_run_the_same_protocol() {
            let p = decentralized_2pc(4);
            p.validate_strict().unwrap();
            for site in p.sites() {
                let fsa = p.fsa(site);
                assert_eq!(fsa.role, "peer");
                assert_eq!(fsa.state_count(), 4);
                assert_eq!(fsa.transitions().len(), 4);
            }
        }

        #[test]
        fn votes_are_broadcast_including_self() {
            let p = decentralized_2pc(3);
            let fsa = p.fsa(SiteId(1));
            let q = fsa.initial();
            for (_, t) in fsa.outgoing(q) {
                assert_eq!(t.emit.len(), 3, "vote to every site including self");
                assert!(t.emit.iter().any(|e| e.dst == SiteId(1)), "self-send");
            }
        }

        #[test]
        fn every_site_gets_the_xact_stimulus() {
            let p = decentralized_2pc(5);
            assert_eq!(p.initial_msgs().len(), 5);
            for m in p.initial_msgs() {
                assert_eq!(m.src, SiteId::CLIENT);
                assert_eq!(m.kind, MsgKind::XACT);
            }
        }

        #[test]
        fn commit_requires_unanimity() {
            let p = decentralized_2pc(4);
            let fsa = p.fsa(SiteId(0));
            let w = fsa.state_of_class(StateClass::Wait).unwrap();
            let commit_t = fsa.outgoing(w).map(|(_, t)| t).find(|t| fsa.is_commit(t.to)).unwrap();
            match &commit_t.consume {
                Consume::All(v) => assert_eq!(v.len(), 4),
                other => panic!("expected All, got {other:?}"),
            }
        }

        #[test]
        fn two_phases() {
            assert_eq!(decentralized_2pc(3).phase_count(), 2);
        }
    }

    mod decentralized_3pc {
        use crate::fsa::{Consume, StateClass};
        use crate::ids::SiteId;
        use crate::protocols::decentralized_3pc;

        #[test]
        fn shape_matches_paper_figure() {
            let p = decentralized_3pc(3);
            p.validate_strict().unwrap();
            for site in p.sites() {
                let fsa = p.fsa(site);
                assert_eq!(fsa.state_count(), 5);
                assert_eq!(fsa.transitions().len(), 5);
            }
        }

        #[test]
        fn three_phases() {
            assert_eq!(decentralized_3pc(4).phase_count(), 3);
        }

        #[test]
        fn prepare_round_is_a_full_interchange() {
            let p = decentralized_3pc(3);
            let fsa = p.fsa(SiteId(2));
            let w = fsa.state_of_class(StateClass::Wait).unwrap();
            let prep_t = fsa
                .outgoing(w)
                .map(|(_, t)| t)
                .find(|t| fsa.state(t.to).class == StateClass::Prepared)
                .unwrap();
            assert_eq!(prep_t.emit.len(), 3, "prepare broadcast to all");
            let pi = fsa.state_of_class(StateClass::Prepared).unwrap();
            let (_, commit_t) = fsa.outgoing(pi).next().unwrap();
            match &commit_t.consume {
                Consume::All(v) => assert_eq!(v.len(), 3, "prepare from all"),
                other => panic!("expected All, got {other:?}"),
            }
        }

        #[test]
        fn no_exit_from_prepared_except_commit() {
            let p = decentralized_3pc(4);
            for site in p.sites() {
                let fsa = p.fsa(site);
                let pi = fsa.state_of_class(StateClass::Prepared).unwrap();
                let exits: Vec<_> = fsa.outgoing(pi).collect();
                assert_eq!(exits.len(), 1);
                assert!(fsa.is_commit(exits[0].1.to));
            }
        }
    }
}
