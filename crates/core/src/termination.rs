//! Termination decision rules (paper §"Termination Protocols" and
//! §"Decision Rule For Backup Coordinators").
//!
//! A termination protocol is used by the operational sites when crashes of
//! other sites impair the execution of a commit protocol; its purpose is to
//! terminate the transaction at all operational sites in a consistent
//! manner. The *decision* half of the protocol lives here in `core` (it is
//! pure analysis over local states); the *communication* half — election,
//! the two-phase backup broadcast, handling of cascading failures — lives
//! in the `nbc-engine` crate.

use std::collections::BTreeMap;
use std::fmt;

use crate::analysis::Analysis;
use crate::fsa::StateClass;
use crate::ids::{SiteId, StateId};
use crate::protocol::Protocol;

/// Outcome of a termination decision.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Decision {
    /// Commit the transaction at all operational sites.
    Commit,
    /// Abort the transaction at all operational sites.
    Abort,
    /// Neither commit nor abort can be inferred safely — the protocol
    /// *blocks* (possible only for protocols violating the fundamental
    /// nonblocking theorem, e.g. 2PC).
    Blocked,
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Commit => "commit",
            Self::Abort => "abort",
            Self::Blocked => "blocked",
        })
    }
}

/// The paper's decision rule for backup coordinators, applied to the
/// backup's own local state: *if the concurrency set for the current state
/// of the backup coordinator contains a commit state, then the transaction
/// is committed; otherwise, it is aborted.*
///
/// This rule is safe **only** for protocols satisfying the fundamental
/// nonblocking theorem. Applied to a blocking protocol it can violate
/// atomicity (e.g. a 2PC slave in `w` would commit while the crashed
/// coordinator had aborted) — `nbc-engine` demonstrates this, and offers
/// [`cautious_decision`] for the general case.
pub(crate) fn backup_decision(analysis: &Analysis, site: SiteId, state: StateId) -> Decision {
    match analysis.class_of(site, state) {
        StateClass::Committed => Decision::Commit,
        StateClass::Aborted => Decision::Abort,
        _ => {
            if analysis.cs_has_commit(site, state) {
                Decision::Commit
            } else {
                Decision::Abort
            }
        }
    }
}

/// A decision rule that is safe for *any* protocol, at the price of
/// reporting [`Decision::Blocked`] exactly where the theorem says a
/// decision cannot be inferred:
///
/// * a commit state among the collected states → commit;
/// * an abort state → abort (atomicity of the protocol guarantees no
///   commit state can then exist anywhere);
/// * some collected state whose concurrency set contains no commit state
///   → abort (no site, operational or crashed, can have committed);
/// * some collected state that is committable and whose concurrency set
///   contains no abort state → commit;
/// * otherwise → blocked.
///
/// With a single collected state and a nonblocking protocol this coincides
/// with [`backup_decision`]; with the full set of operational states it is
/// the classical *cooperative termination protocol* for 2PC.
pub(crate) fn cautious_decision(analysis: &Analysis, states: &[(SiteId, StateId)]) -> Decision {
    assert!(!states.is_empty(), "termination requires at least one operational site");
    if states.iter().any(|&(i, s)| analysis.class_of(i, s) == StateClass::Committed) {
        return Decision::Commit;
    }
    if states.iter().any(|&(i, s)| analysis.class_of(i, s) == StateClass::Aborted) {
        return Decision::Abort;
    }
    if states.iter().any(|&(i, s)| !analysis.cs_has_commit(i, s)) {
        return Decision::Abort;
    }
    if states.iter().any(|&(i, s)| analysis.committable(i, s) && !analysis.cs_has_abort(i, s)) {
        return Decision::Commit;
    }
    Decision::Blocked
}

/// The class → decision table of one protocol.
pub type ClassDecisionTable = BTreeMap<StateClass, Decision>;

/// The backup decision rule applied per state *class* — the canonical form
/// in which the paper presents its 3PC decision table (commit iff
/// `s ∈ {p, c}`).
///
/// Quantifying over every occupied state of a class across all sites makes
/// the rule a *function* of the class: every backup — the original
/// coordinator, a slave promoted mid-cascade, or a site aligned by a
/// previous backup that crashed — derives the same decision from the same
/// class, which is what keeps cascading backup handoffs consistent.
///
/// Per class:
/// * `Committed` → commit, `Aborted` → abort;
/// * if no occupied state of the class has a commit state in its
///   concurrency set → **abort** (nobody anywhere can have committed);
/// * else if every occupied state of the class is committable and none is
///   concurrent with an abort state → **commit**;
/// * else → **blocked** (a blocking class; impossible for protocols
///   satisfying the fundamental nonblocking theorem).
///
/// This is the derivation; callers should read the table through
/// [`Analysis::class_decisions`], which memoises it per analysis.
pub(crate) fn class_decisions(analysis: &Analysis) -> ClassDecisionTable {
    let mut by_class: BTreeMap<StateClass, Vec<(SiteId, StateId)>> = BTreeMap::new();
    for (site, s, class) in analysis.occupied_states() {
        by_class.entry(class).or_default().push((site, s));
    }
    by_class
        .into_iter()
        .map(|(class, states)| {
            let d = match class {
                StateClass::Committed => Decision::Commit,
                StateClass::Aborted => Decision::Abort,
                _ => {
                    let any_commit_cs = states.iter().any(|&(i, s)| analysis.cs_has_commit(i, s));
                    let all_safe_commit = states
                        .iter()
                        .all(|&(i, s)| analysis.committable(i, s) && !analysis.cs_has_abort(i, s));
                    if all_safe_commit {
                        Decision::Commit
                    } else if !any_commit_cs {
                        Decision::Abort
                    } else {
                        Decision::Blocked
                    }
                }
            };
            (class, d)
        })
        .collect()
}

/// One row of a termination decision table.
#[derive(Clone, Debug)]
pub struct DecisionRow {
    /// Site whose state the row describes.
    pub site: SiteId,
    /// Display name of the state.
    pub state_name: String,
    /// State class.
    pub class: StateClass,
    /// The paper's backup rule applied to this state.
    pub backup: Decision,
    /// The cautious rule applied to this single state.
    pub cautious: Decision,
}

/// The full decision table of a protocol: for every occupied local state,
/// what a backup coordinator holding that state would decide.
///
/// For the canonical 3PC this reproduces the paper's table: commit if
/// `s ∈ {p, c}`, abort if `s ∈ {q, w, a}`.
pub fn decision_table(protocol: &Protocol, analysis: &Analysis) -> Vec<DecisionRow> {
    let mut rows = Vec::new();
    for site in protocol.sites() {
        let fsa = protocol.fsa(site);
        for idx in 0..fsa.state_count() {
            let s = StateId(idx as u32);
            if !analysis.occupied(site, s) {
                continue;
            }
            rows.push(DecisionRow {
                site,
                state_name: fsa.state(s).name.clone(),
                class: fsa.state(s).class,
                backup: backup_decision(analysis, site, s),
                cautious: cautious_decision(analysis, &[(site, s)]),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{central_2pc, central_3pc, decentralized_3pc};

    #[test]
    fn three_pc_backup_rule_matches_paper_table() {
        // Paper table (canonical 3PC): commit iff s ∈ {p, c}. It holds
        // verbatim for every decentralized peer and for central-site
        // slaves. The central-site *coordinator's* p1 is the one exception:
        // no slave can commit before the coordinator reaches c1, so
        // CS(p1) contains no commit state and the rule aborts — which is
        // safe, since nobody can have committed.
        for p in [central_3pc(3), decentralized_3pc(3)] {
            let a = Analysis::build(&p).unwrap();
            for row in decision_table(&p, &a) {
                let coord_p1 = p.paradigm == crate::protocol::Paradigm::CentralSite
                    && row.site == SiteId(0)
                    && row.class == StateClass::Prepared;
                let expected = match row.class {
                    StateClass::Committed => Decision::Commit,
                    StateClass::Prepared if !coord_p1 => Decision::Commit,
                    StateClass::Prepared => Decision::Abort,
                    _ => Decision::Abort,
                };
                assert_eq!(row.backup, expected, "{} {} {}", p.name, row.site, row.state_name);
                // For a nonblocking protocol the cautious rule never blocks
                // and never contradicts safety; where it decides commit the
                // backup rule must also commit.
                assert_ne!(row.cautious, Decision::Blocked, "{} {}", p.name, row.state_name);
            }
        }
    }

    #[test]
    fn two_pc_backup_rule_is_unsafe_where_theorem_predicts() {
        // A 2PC slave in w: CS(w) contains c1, so the naive backup rule
        // says commit — but the crashed coordinator may have aborted.
        let p = central_2pc(3);
        let a = Analysis::build(&p).unwrap();
        let slave = SiteId(1);
        let w = p.fsa(slave).state_by_name("w").unwrap();
        assert_eq!(backup_decision(&a, slave, w), Decision::Commit);
        // The cautious rule refuses to decide: this is the blocking case.
        assert_eq!(cautious_decision(&a, &[(slave, w)]), Decision::Blocked);
    }

    #[test]
    fn two_pc_cooperative_rule_unblocks_with_more_information() {
        let p = central_2pc(3);
        let a = Analysis::build(&p).unwrap();
        let s1 = SiteId(1);
        let s2 = SiteId(2);
        let w = p.fsa(s1).state_by_name("w").unwrap();
        let q = p.fsa(s2).state_by_name("q").unwrap();
        let c = p.fsa(s2).state_by_name("c").unwrap();
        let abort = p.fsa(s2).state_by_name("a").unwrap();
        // Another operational slave still in q: nobody can have committed.
        assert_eq!(cautious_decision(&a, &[(s1, w), (s2, q)]), Decision::Abort);
        // Another slave already committed: propagate.
        assert_eq!(cautious_decision(&a, &[(s1, w), (s2, c)]), Decision::Commit);
        // Another slave already aborted: propagate.
        assert_eq!(cautious_decision(&a, &[(s1, w), (s2, abort)]), Decision::Abort);
        // Both in w: the classical 2PC blocking scenario.
        let w2 = p.fsa(s2).state_by_name("w").unwrap();
        assert_eq!(cautious_decision(&a, &[(s1, w), (s2, w2)]), Decision::Blocked);
    }

    #[test]
    fn final_states_decide_themselves() {
        let p = central_3pc(2);
        let a = Analysis::build(&p).unwrap();
        let coord = SiteId(0);
        let c1 = p.fsa(coord).state_by_name("c1").unwrap();
        let a1 = p.fsa(coord).state_by_name("a1").unwrap();
        assert_eq!(backup_decision(&a, coord, c1), Decision::Commit);
        assert_eq!(backup_decision(&a, coord, a1), Decision::Abort);
    }

    #[test]
    #[should_panic]
    fn cautious_decision_requires_nonempty_input() {
        let p = central_3pc(2);
        let a = Analysis::build(&p).unwrap();
        let _ = cautious_decision(&a, &[]);
    }

    #[test]
    fn decision_display() {
        assert_eq!(Decision::Commit.to_string(), "commit");
        assert_eq!(Decision::Abort.to_string(), "abort");
        assert_eq!(Decision::Blocked.to_string(), "blocked");
    }
}
