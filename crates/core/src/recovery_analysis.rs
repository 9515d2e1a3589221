//! Independent recovery analysis — formalizing when a restarted site can
//! decide without asking anyone.
//!
//! The paper's recovery prose gives one independent rule: *when a failure
//! occurs before the commit point is reached, the site will abort the
//! transaction immediately upon recovering.* This module derives the full
//! per-state classification from the reachable-state analysis:
//!
//! * a state of class `c`/`a` recovers to its own outcome;
//! * a state from which the site provably **never cast a yes vote** (no
//!   path to it passes a yes-vote transition) recovers by unilateral
//!   abort — no global commit can exist, because committable states
//!   require *every* site's yes vote;
//! * everything else **must ask** the operational sites: between the crash
//!   and the recovery the survivors may have run the termination protocol,
//!   whose class-based decisions (see
//!   `termination::class_decisions`)
//!   can go either way from the concurrently-occupiable classes.
//!
//! The classification mirrors — and is cross-validated against — the
//! operational behavior of the engine's recovery protocol and the DT-log
//! summary rules of `nbc-storage`.

use std::fmt;

use crate::analysis::Analysis;
use crate::fsa::StateClass;
use crate::ids::SiteId;
use crate::protocol::Protocol;
use crate::termination::Decision;

/// What a recovering site may conclude from its last durable state alone.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum RecoveryClass {
    /// The durable state is a commit state: finish committing.
    IndependentCommit,
    /// The durable state proves no commit can exist anywhere (own abort
    /// state, or the site never voted yes): abort unilaterally.
    IndependentAbort,
    /// The outcome may have been decided either way by the survivors (or
    /// may still be open): the site must ask.
    MustAsk,
}

impl fmt::Display for RecoveryClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::IndependentCommit => "independent commit",
            Self::IndependentAbort => "independent abort",
            Self::MustAsk => "must ask",
        })
    }
}

/// One classified state.
#[derive(Clone, Debug)]
pub struct RecoveryRow {
    /// Site.
    pub site: SiteId,
    /// Display name.
    pub state_name: String,
    /// Classification.
    pub class: RecoveryClass,
    /// The termination decisions reachable from the concurrently
    /// occupiable classes (why `MustAsk` states must ask).
    pub reachable_decisions: Vec<Decision>,
}

/// The classification alone, `[site][state]`, derived from the analysis
/// (unoccupied states read [`RecoveryClass::MustAsk`]). This is the
/// derivation; read it through [`Analysis::recovery_classes`], which
/// memoises it per analysis.
pub(crate) fn recovery_classes(analysis: &Analysis) -> Vec<Vec<RecoveryClass>> {
    let mut table: Vec<Vec<RecoveryClass>> = (0..analysis.n_sites())
        .map(|i| vec![RecoveryClass::MustAsk; analysis.state_count(SiteId(i as u32))])
        .collect();
    for (site, s, state_class) in analysis.occupied_states() {
        table[site.index()][s.index()] = match state_class {
            StateClass::Committed => RecoveryClass::IndependentCommit,
            StateClass::Aborted => RecoveryClass::IndependentAbort,
            _ if !analysis.yes_voted(site, s) => RecoveryClass::IndependentAbort,
            _ => RecoveryClass::MustAsk,
        };
    }
    table
}

/// Classify every occupied state of the protocol.
pub fn classify(protocol: &Protocol, analysis: &Analysis) -> Vec<RecoveryRow> {
    let decisions = analysis.class_decisions();
    let classes = analysis.recovery_classes();
    let mut rows = Vec::new();
    for (site, s, state_class) in analysis.occupied_states() {
        let fsa = protocol.fsa(site);
        // Decisions the survivors could reach, judging from the
        // classes concurrently occupiable with s.
        let mut reachable: Vec<Decision> = analysis
            .concurrency_classes(site, s)
            .into_iter()
            .chain([state_class])
            .filter_map(|c| decisions.get(&c).copied())
            .collect();
        reachable.sort_by_key(|d| match d {
            Decision::Commit => 0,
            Decision::Abort => 1,
            Decision::Blocked => 2,
        });
        reachable.dedup();
        rows.push(RecoveryRow {
            site,
            state_name: fsa.state(s).name.clone(),
            class: classes[site.index()][s.index()],
            reachable_decisions: reachable,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{central_2pc, central_3pc, decentralized_3pc};

    fn class_of(rows: &[RecoveryRow], site: u32, name: &str) -> RecoveryClass {
        rows.iter()
            .find(|r| r.site == SiteId(site) && r.state_name == name)
            .unwrap_or_else(|| panic!("{site}/{name} missing"))
            .class
    }

    #[test]
    fn initial_states_abort_independently() {
        for p in [central_2pc(3), central_3pc(3), decentralized_3pc(3)] {
            let a = Analysis::build(&p).unwrap();
            let rows = classify(&p, &a);
            for site in p.sites() {
                let q = &p.fsa(site).state(p.fsa(site).initial()).name;
                assert_eq!(
                    class_of(&rows, site.0, q),
                    RecoveryClass::IndependentAbort,
                    "{}",
                    p.name
                );
            }
        }
    }

    #[test]
    fn voted_states_must_ask() {
        let p = central_3pc(3);
        let a = Analysis::build(&p).unwrap();
        let rows = classify(&p, &a);
        // A slave that voted yes (w) or prepared (p) cannot decide alone:
        // the survivors' termination protocol may have gone either way.
        assert_eq!(class_of(&rows, 1, "w"), RecoveryClass::MustAsk);
        assert_eq!(class_of(&rows, 1, "p"), RecoveryClass::MustAsk);
        // The coordinator's p1 casts its yes vote, so it must ask too (a
        // slave backup in p will have committed).
        assert_eq!(class_of(&rows, 0, "p1"), RecoveryClass::MustAsk);
    }

    #[test]
    fn coordinator_wait_state_aborts_independently() {
        // A sharper result than the conservative DT-log rule: the 3PC
        // coordinator in w1 has not yet cast its own (internal) yes vote,
        // so no slave can have prepared and no termination run can commit
        // — the recovered coordinator may abort unilaterally.
        let p = central_3pc(3);
        let a = Analysis::build(&p).unwrap();
        let rows = classify(&p, &a);
        assert_eq!(class_of(&rows, 0, "w1"), RecoveryClass::IndependentAbort);
    }

    #[test]
    fn final_states_are_independent() {
        let p = central_3pc(2);
        let a = Analysis::build(&p).unwrap();
        let rows = classify(&p, &a);
        assert_eq!(class_of(&rows, 0, "c1"), RecoveryClass::IndependentCommit);
        assert_eq!(class_of(&rows, 0, "a1"), RecoveryClass::IndependentAbort);
        assert_eq!(class_of(&rows, 1, "c"), RecoveryClass::IndependentCommit);
        assert_eq!(class_of(&rows, 1, "a"), RecoveryClass::IndependentAbort);
    }

    #[test]
    fn must_ask_states_face_both_decisions_in_3pc() {
        // Why w/p must ask: from their concurrency classes, the survivors
        // can terminate with either outcome.
        let p = central_3pc(3);
        let a = Analysis::build(&p).unwrap();
        let rows = classify(&p, &a);
        let w = rows.iter().find(|r| r.site == SiteId(1) && r.state_name == "w").unwrap();
        assert!(w.reachable_decisions.contains(&Decision::Commit));
        assert!(w.reachable_decisions.contains(&Decision::Abort));
    }

    #[test]
    fn classification_refines_storage_dt_log_rules() {
        // nbc-storage's summarize() is the conservative operational rule:
        // INITIAL progress → abort on recovery, WAIT/PREPARED → must ask,
        // finals → decided. The analysis here may only *refine* it in the
        // safe direction: a MustAsk may sharpen to IndependentAbort (the
        // coordinator's w1), never to IndependentCommit, and the other
        // classes must agree exactly.
        let p = central_3pc(3);
        let a = Analysis::build(&p).unwrap();
        for r in classify(&p, &a) {
            let fsa = p.fsa(r.site);
            let fsa_class = fsa.state(fsa.state_by_name(&r.state_name).unwrap()).class;
            match fsa_class {
                StateClass::Initial => {
                    assert_eq!(r.class, RecoveryClass::IndependentAbort)
                }
                StateClass::Wait | StateClass::Prepared => {
                    assert_ne!(r.class, RecoveryClass::IndependentCommit)
                }
                StateClass::Committed => {
                    assert_eq!(r.class, RecoveryClass::IndependentCommit)
                }
                StateClass::Aborted => {
                    assert_eq!(r.class, RecoveryClass::IndependentAbort)
                }
                StateClass::Custom(_) => {}
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(RecoveryClass::MustAsk.to_string(), "must ask");
        assert_eq!(RecoveryClass::IndependentCommit.to_string(), "independent commit");
    }
}
