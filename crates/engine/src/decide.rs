//! Termination decisions over state *classes* — the engine-facing view of
//! [`Analysis::class_decisions`], addressed by the `u8` class codes that
//! travel in WAL records and wire messages.

use nbc_core::termination::ClassDecisionTable;
use nbc_core::{Analysis, Decision};

use crate::class_map::try_decode_class;

/// The class → decision table of one protocol: a borrowed view of the
/// table its [`Analysis`] derives once and memoises, so every run over
/// that analysis shares it.
#[derive(Debug, Clone, Copy)]
pub struct ClassDecisions<'a> {
    table: &'a ClassDecisionTable,
}

impl<'a> ClassDecisions<'a> {
    /// The analysis's (memoised) table.
    pub fn build(analysis: &'a Analysis) -> Self {
        Self { table: analysis.class_decisions() }
    }

    /// Decision for one class code.
    ///
    /// Unknown codes (possible when a custom protocol aligns to a class
    /// the analysis never saw) conservatively block.
    pub fn decide(&self, class_code: u8) -> Decision {
        try_decode_class(class_code)
            .and_then(|class| self.table.get(&class))
            .copied()
            .unwrap_or(Decision::Blocked)
    }

    /// Cooperative decision over a set of class codes: any committed →
    /// commit; any aborted → abort; any abort-deciding class → abort; any
    /// commit-deciding class → commit; otherwise blocked.
    pub fn decide_cooperative(&self, codes: impl IntoIterator<Item = u8>) -> Decision {
        use nbc_storage::recovery::class_codes;
        let codes: Vec<u8> = codes.into_iter().collect();
        assert!(!codes.is_empty(), "cooperative decision needs at least one state");
        if codes.contains(&class_codes::COMMITTED) {
            return Decision::Commit;
        }
        if codes.contains(&class_codes::ABORTED) {
            return Decision::Abort;
        }
        if codes.iter().any(|&c| self.decide(c) == Decision::Abort) {
            return Decision::Abort;
        }
        if codes.iter().any(|&c| self.decide(c) == Decision::Commit) {
            return Decision::Commit;
        }
        Decision::Blocked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbc_core::protocols::{central_2pc, central_3pc, decentralized_3pc};
    use nbc_storage::recovery::class_codes::*;

    #[test]
    fn three_pc_table_matches_paper() {
        for p in [central_3pc(3), decentralized_3pc(3)] {
            let a = Analysis::build(&p).unwrap();
            let t = ClassDecisions::build(&a);
            assert_eq!(t.decide(INITIAL), Decision::Abort, "{}", p.name);
            assert_eq!(t.decide(WAIT), Decision::Abort, "{}", p.name);
            assert_eq!(t.decide(PREPARED), Decision::Commit, "{}", p.name);
            assert_eq!(t.decide(ABORTED), Decision::Abort, "{}", p.name);
            assert_eq!(t.decide(COMMITTED), Decision::Commit, "{}", p.name);
        }
    }

    #[test]
    fn two_pc_wait_blocks() {
        let p = central_2pc(3);
        let a = Analysis::build(&p).unwrap();
        let t = ClassDecisions::build(&a);
        assert_eq!(t.decide(WAIT), Decision::Blocked);
        assert_eq!(t.decide(INITIAL), Decision::Abort);
    }

    #[test]
    fn cooperative_unblocks_with_knowledge() {
        let p = central_2pc(3);
        let a = Analysis::build(&p).unwrap();
        let t = ClassDecisions::build(&a);
        assert_eq!(t.decide_cooperative([WAIT, WAIT]), Decision::Blocked);
        assert_eq!(t.decide_cooperative([WAIT, COMMITTED]), Decision::Commit);
        assert_eq!(t.decide_cooperative([WAIT, ABORTED]), Decision::Abort);
        assert_eq!(t.decide_cooperative([WAIT, INITIAL]), Decision::Abort);
    }

    #[test]
    fn unknown_class_blocks() {
        let p = central_3pc(2);
        let a = Analysis::build(&p).unwrap();
        let t = ClassDecisions::build(&a);
        assert_eq!(t.decide(200), Decision::Blocked);
    }

    #[test]
    #[should_panic]
    fn cooperative_needs_input() {
        let p = central_3pc(2);
        let a = Analysis::build(&p).unwrap();
        let t = ClassDecisions::build(&a);
        let _ = t.decide_cooperative([]);
    }
}
