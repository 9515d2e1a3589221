//! The recovery protocol (paper §"The processing of a single transaction"):
//! a restarted site resumes from its durable log, aborts if it failed
//! before its vote, and otherwise asks the other sites.
//!
//! ## Execution discipline
//!
//! * **Recovery**: a restarted site resumes from its log: decided → done;
//!   crashed before voting → abort unilaterally; otherwise ask the other
//!   sites, with cooperative total-failure recovery once every site is
//!   back and none holds a decision.

use nbc_core::recovery_analysis::RecoveryClass;
use nbc_core::StateId;
use nbc_obs::EventKind;
use nbc_storage::recovery::{class_codes, TxnOutcome};

use crate::run::Runner;
use crate::site::Mode;
use crate::wire::Wire;

impl Runner<'_> {
    pub(crate) fn crash_site(&mut self, ix: usize) {
        if self.sites[ix].mode == Mode::Down {
            return;
        }
        // Volatile state is lost: only the synced WAL prefix survives.
        let (site, io) = self.site_io(ix);
        site.wal.lose_volatile();
        site.inbox.clear();
        site.backup_state.clear();
        site.pending_queries.clear();
        site.recovery_replies.clear();
        site.suspects.clear();
        site.ever_down = true;
        site.mode = Mode::Down;
        io.emit(ix, || EventKind::Crash);
        match self.detector.as_mut() {
            // No oracle notice: peers will suspect the silence, each at
            // its own timeout.
            Some(d) => d.site_down(ix),
            None => self.net.crash(self.now, ix),
        }
    }

    pub(crate) fn recover_site(&mut self, ix: usize) {
        if self.sites[ix].mode != Mode::Down {
            return;
        }
        let durable = self.sites[ix].durable_outcome(self.config.txn_id);
        // Fresh view: the recovering site interacts via the recovery
        // protocol only, so an optimistic view is harmless.
        let n = self.sites.len();
        let (site, io) = self.site_io(ix);
        site.view.fill(true);
        site.recovery_replies.clear();
        io.emit(ix, || EventKind::Recover);
        match self.detector.as_mut() {
            // No oracle notice: peers detect the recovery when heartbeats
            // (or this site's recovery queries) next prove life.
            Some(d) => d.site_up(self.now, ix),
            None => self.net.recover(self.now, ix),
        }

        let acceptor = self.protocol.is_acceptor(ix);
        match durable {
            None | Some(TxnOutcome::AbortOnRecovery) if !acceptor => {
                // Crashed before voting (or before the transaction reached
                // it): abort unilaterally upon recovering.
                self.sites[ix].mode = Mode::Recovering;
                self.finish(ix, false);
                return;
            }
            Some(decided @ (TxnOutcome::Committed | TxnOutcome::Aborted)) => {
                let site = &mut *self.sites[ix];
                site.outcome = Some(decided == TxnOutcome::Committed);
                site.mode = Mode::Done;
                return;
            }
            Some(TxnOutcome::MustAsk { state, aligned_class, .. }) => {
                let site = &mut *self.sites[ix];
                site.enter_state(StateId(state));
                site.aligned_class = aligned_class;
                site.mode = Mode::Recovering;
                // Independent recovery (nbc-core::recovery_analysis): a
                // durable state that provably never cast a yes vote lets
                // the site abort unilaterally — no commit can exist or
                // ever arise, because committable states require every
                // site's vote. Only applicable when no termination-phase
                // alignment intervened (alignment may carry another
                // site's progress) — and never to an acceptor, whose
                // vote is not part of that argument.
                let rc = self.analysis().recovery_classes()[ix][state as usize];
                if !acceptor && aligned_class.is_none() && rc == RecoveryClass::IndependentAbort {
                    self.finish(ix, false);
                    return;
                }
            }
            _ => self.sites[ix].mode = Mode::Recovering,
        }
        // MustAsk from any site — or any undecided acceptor log. An
        // acceptor never decides unilaterally: its local log says nothing
        // about whether the participants already committed through the
        // other acceptors, and its decision record must mirror theirs, so
        // it always asks.
        let mut io = self.io();
        for j in (0..n).filter(|&j| j != ix) {
            io.send(ix, j, Wire::WhatHappened);
        }
    }

    /// `observer` learns that `recovered` is up again; a blocked or
    /// recovering site asks it what happened.
    pub(crate) fn on_recovery_notice(&mut self, observer: usize, recovered: usize) {
        let (site, mut io) = self.site_io(observer);
        site.recovered_peers.insert(recovered);
        if matches!(site.mode, Mode::Blocked | Mode::Recovering) {
            io.send(observer, recovered, Wire::WhatHappened);
        }
    }

    /// Site `ix`'s answer to a recovering site: its outcome, the class it
    /// reports, and whether it is settled — guaranteed not to reach a
    /// decision on its own, once it has decided, blocked, or is itself
    /// recovering.
    fn outcome_is(&self, ix: usize) -> Wire {
        let site = &self.sites[ix];
        Wire::OutcomeIs {
            outcome: site.outcome,
            class: self.reported_class_of(ix),
            settled: site.outcome.is_some()
                || matches!(site.mode, Mode::Blocked | Mode::Recovering | Mode::Done),
        }
    }

    pub(crate) fn on_what_happened(&mut self, ix: usize, from: usize) {
        let reply = self.outcome_is(ix);
        self.io().send(ix, from, reply);
        // Remember an undecided site's asker; answer again on deciding or
        // blocking.
        if self.sites[ix].outcome.is_none() && !self.sites[ix].pending_queries.contains(&from) {
            self.sites[ix].pending_queries.push(from);
        }
    }

    pub(crate) fn answer_pending_queries(&mut self, ix: usize) {
        if self.sites[ix].pending_queries.is_empty() {
            return;
        }
        let reply = self.outcome_is(ix);
        let pending = std::mem::take(&mut self.sites[ix].pending_queries);
        let (sites, mut io) = self.sites_io();
        for q in pending.into_iter().filter(|&q| sites[q].mode != Mode::Down) {
            io.send(ix, q, reply.clone());
        }
    }

    pub(crate) fn on_outcome_is(
        &mut self,
        ix: usize,
        from: usize,
        outcome: Option<bool>,
        class: u8,
        settled: bool,
    ) {
        if self.sites[ix].mode != Mode::Recovering && self.sites[ix].mode != Mode::Blocked {
            return;
        }
        if let Some(commit) = outcome {
            self.finish(ix, commit);
            return;
        }
        if !settled {
            // The responder is still executing or terminating: it
            // registered us as a pending query and will answer again with
            // a settled reply. Counting an unsettled `None` toward the
            // everyone-undecided rule would race the in-flight
            // termination protocol.
            return;
        }
        let replies = &mut self.sites[ix].recovery_replies;
        replies.retain(|&(s, _, _)| s != from);
        replies.push((from, None, class));
        self.try_total_failure_recovery(ix);
    }

    /// Everyone-undecided recovery (total failure being the canonical
    /// case): once every other site has given a *settled* inconclusive
    /// answer — it decided nothing, and it will not decide on its own —
    /// no commit exists or ever will, so the lowest-id recovering site
    /// decides for everyone: commit iff someone durably reached a commit
    /// state (impossible here by construction, but kept for symmetry),
    /// else abort.
    fn try_total_failure_recovery(&mut self, ix: usize) {
        if self.sites[ix].mode != Mode::Recovering {
            return;
        }
        let n = self.sites.len();
        // Require an inconclusive answer from every other site.
        if self.sites[ix].recovery_replies.len() < n - 1 {
            return;
        }
        // Only the lowest-id recovering site drives the decision to avoid
        // duplicate (though identical) broadcasts.
        let lowest_recovering = (0..n).find(|&j| self.sites[j].mode == Mode::Recovering);
        if lowest_recovering != Some(ix) {
            return;
        }
        let replies = &self.sites[ix].recovery_replies;
        let commit = self.reported_class_of(ix) == class_codes::COMMITTED
            || replies.iter().any(|&(_, _, c)| c == class_codes::COMMITTED);
        self.finish(ix, commit);
        let (sites, mut io) = self.sites_io();
        for j in (0..n).filter(|&j| j != ix && sites[j].mode != Mode::Down) {
            io.send(ix, j, Wire::TermDecision { backup: ix, commit });
        }
    }
}
