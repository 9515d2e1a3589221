//! The local half of the paper's recovery protocol: fold a recovered
//! record stream into per-transaction protocol state.
//!
//! Paper (§"The processing of a single transaction"): *when a failure
//! occurs before the commit point is reached, the site will abort the
//! transaction immediately upon recovering.* A site that progressed past
//! its vote must instead consult the log for the decision or, lacking one,
//! ask the operational sites — that is the engine's job; this module tells
//! it exactly where each transaction stood.

use std::collections::BTreeMap;

use crate::wal::LogRecord;

/// Where a transaction stood at the moment of the crash, from this site's
/// point of view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Decision durable: committed.
    Committed,
    /// Decision durable: aborted.
    Aborted,
    /// The site had begun but not voted yes (no progress past the initial
    /// state): abort unilaterally on recovery.
    AbortOnRecovery,
    /// The site voted yes (progressed to a wait/prepared state) but has no
    /// durable decision: it must ask the other sites.
    MustAsk {
        /// Last durable local state id.
        state: u32,
        /// Last durable state class (engine's encoding).
        class: u8,
        /// Class aligned to by a termination protocol, if any — the state
        /// the site should *report* when a new termination round starts.
        aligned_class: Option<u8>,
    },
}

/// Recovered per-transaction summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredTxn {
    /// Transaction id.
    pub txn: u64,
    /// Protocol position at the crash.
    pub outcome: TxnOutcome,
    /// True if an `End` record made the transaction fully locally applied.
    pub(crate) ended: bool,
}

/// Class encodings the engine uses inside `Progress`/`AlignedTo` records.
/// Kept here so the storage crate can distinguish "hasn't voted" from
/// "voted yes" without depending on `nbc-core`.
pub mod class_codes {
    /// `q` — initial, not voted.
    pub const INITIAL: u8 = 0;
    /// `w` — voted yes, waiting.
    pub const WAIT: u8 = 1;
    /// `p` — prepared to commit.
    pub const PREPARED: u8 = 2;
    /// `a` — aborted.
    pub const ABORTED: u8 = 3;
    /// `c` — committed.
    pub const COMMITTED: u8 = 4;
    /// Custom classes start here.
    pub const CUSTOM_BASE: u8 = 16;
}

/// Fold a record stream into per-transaction summaries, in first-seen
/// order of transaction ids.
pub fn summarize(records: &[LogRecord]) -> Vec<RecoveredTxn> {
    #[derive(Default)]
    struct Acc {
        last_progress: Option<(u32, u8)>,
        aligned: Option<u8>,
        decision: Option<bool>,
        ended: bool,
        order: usize,
    }
    let mut map: BTreeMap<u64, Acc> = BTreeMap::new();
    let mut next_order = 0usize;
    fn touch<'m>(map: &'m mut BTreeMap<u64, Acc>, next_order: &mut usize, txn: u64) -> &'m mut Acc {
        map.entry(txn).or_insert_with(|| {
            let acc = Acc { order: *next_order, ..Acc::default() };
            *next_order += 1;
            acc
        })
    }

    for r in records {
        match r {
            LogRecord::Begin { txn } => {
                touch(&mut map, &mut next_order, *txn);
            }
            LogRecord::Progress { txn, state, class } => {
                let acc = touch(&mut map, &mut next_order, *txn);
                acc.last_progress = Some((*state, *class));
                // Protocol progress supersedes an earlier alignment.
                acc.aligned = None;
            }
            LogRecord::AlignedTo { txn, class } => {
                touch(&mut map, &mut next_order, *txn).aligned = Some(*class);
            }
            LogRecord::Decision { txn, commit } => {
                touch(&mut map, &mut next_order, *txn).decision = Some(*commit);
            }
            LogRecord::End { txn } => {
                touch(&mut map, &mut next_order, *txn).ended = true;
            }
            LogRecord::Put { txn, .. } | LogRecord::Delete { txn, .. } => {
                touch(&mut map, &mut next_order, *txn);
            }
            LogRecord::Checkpoint { .. } => {
                // Checkpoints carry no per-transaction protocol state.
            }
        }
    }

    let mut out: Vec<(usize, RecoveredTxn)> = map
        .into_iter()
        .map(|(txn, acc)| {
            let outcome = match acc.decision {
                Some(true) => TxnOutcome::Committed,
                Some(false) => TxnOutcome::Aborted,
                None => match acc.last_progress {
                    // Progress no further than the initial state: the site
                    // had not voted — abort on recovery.
                    None => TxnOutcome::AbortOnRecovery,
                    Some((_, class)) if class == class_codes::INITIAL => {
                        TxnOutcome::AbortOnRecovery
                    }
                    Some((_, class)) if class == class_codes::ABORTED => TxnOutcome::Aborted,
                    Some((_, class)) if class == class_codes::COMMITTED => TxnOutcome::Committed,
                    Some((state, class)) => {
                        TxnOutcome::MustAsk { state, class, aligned_class: acc.aligned }
                    }
                },
            };
            (acc.order, RecoveredTxn { txn, outcome, ended: acc.ended })
        })
        .collect();
    out.sort_by_key(|(order, _)| *order);
    out.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::class_codes::*;
    use super::*;

    #[test]
    fn not_voted_aborts_on_recovery() {
        let recs = vec![LogRecord::Begin { txn: 1 }];
        let s = summarize(&recs);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].outcome, TxnOutcome::AbortOnRecovery);
        assert!(!s[0].ended);
    }

    #[test]
    fn voted_yes_must_ask() {
        let recs = vec![
            LogRecord::Begin { txn: 1 },
            LogRecord::Progress { txn: 1, state: 1, class: WAIT },
        ];
        let s = summarize(&recs);
        assert_eq!(
            s[0].outcome,
            TxnOutcome::MustAsk { state: 1, class: WAIT, aligned_class: None }
        );
    }

    #[test]
    fn prepared_must_ask() {
        let recs = vec![
            LogRecord::Begin { txn: 1 },
            LogRecord::Progress { txn: 1, state: 1, class: WAIT },
            LogRecord::Progress { txn: 1, state: 3, class: PREPARED },
        ];
        let s = summarize(&recs);
        assert_eq!(
            s[0].outcome,
            TxnOutcome::MustAsk { state: 3, class: PREPARED, aligned_class: None }
        );
    }

    #[test]
    fn durable_decision_wins() {
        let recs = vec![
            LogRecord::Begin { txn: 1 },
            LogRecord::Progress { txn: 1, state: 1, class: WAIT },
            LogRecord::Decision { txn: 1, commit: true },
        ];
        let s = summarize(&recs);
        assert_eq!(s[0].outcome, TxnOutcome::Committed);
    }

    #[test]
    fn local_abort_progress_is_aborted() {
        let recs = vec![
            LogRecord::Begin { txn: 1 },
            LogRecord::Progress { txn: 1, state: 2, class: ABORTED },
        ];
        let s = summarize(&recs);
        assert_eq!(s[0].outcome, TxnOutcome::Aborted);
    }

    #[test]
    fn alignment_is_reported() {
        let recs = vec![
            LogRecord::Begin { txn: 1 },
            LogRecord::Progress { txn: 1, state: 3, class: PREPARED },
            LogRecord::AlignedTo { txn: 1, class: WAIT },
        ];
        let s = summarize(&recs);
        assert_eq!(
            s[0].outcome,
            TxnOutcome::MustAsk { state: 3, class: PREPARED, aligned_class: Some(WAIT) }
        );
    }

    #[test]
    fn progress_supersedes_alignment() {
        let recs = vec![
            LogRecord::Begin { txn: 1 },
            LogRecord::AlignedTo { txn: 1, class: WAIT },
            LogRecord::Progress { txn: 1, state: 3, class: PREPARED },
        ];
        let s = summarize(&recs);
        assert_eq!(
            s[0].outcome,
            TxnOutcome::MustAsk { state: 3, class: PREPARED, aligned_class: None }
        );
    }

    #[test]
    fn multiple_transactions_in_first_seen_order() {
        let recs = vec![
            LogRecord::Begin { txn: 5 },
            LogRecord::Begin { txn: 2 },
            LogRecord::Decision { txn: 5, commit: false },
            LogRecord::Decision { txn: 2, commit: true },
            LogRecord::End { txn: 2 },
        ];
        let s = summarize(&recs);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].txn, 5);
        assert_eq!(s[0].outcome, TxnOutcome::Aborted);
        assert_eq!(s[1].txn, 2);
        assert_eq!(s[1].outcome, TxnOutcome::Committed);
        assert!(s[1].ended);
    }
}
