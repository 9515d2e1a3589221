//! The termination protocol (paper §"Termination Protocols"): once a failure
//! is reported or suspected, elect a backup, align the operational sites to
//! its state, decide by its class and broadcast the decision.
//!
//! ## Execution discipline
//!
//! * **Freeze on failure**: when the failure detector reports a crash to a
//!   site that has not finished, the site abandons the commit protocol and
//!   enters the termination protocol (paper §"Termination Protocols").
//! * **Election**: the backup coordinator is the lowest-id site in the
//!   operational view ("any distributed election mechanism can be used");
//!   views are consistent because the perfect failure detector reports a
//!   crash to everyone with the same delay.
//! * **Two-phase backup protocol**: the backup (unless already in a final
//!   state, where phase 1 "can be omitted") directs every operational site
//!   to make a transition to its local state and awaits acknowledgements;
//!   only then does it decide and broadcast. Cascading backup failures
//!   stay consistent because alignment is durable and the decision is a
//!   function of the aligned class.

use nbc_core::{Decision, SiteId, StateClass};
use nbc_obs::EventKind;
use nbc_storage::LogRecord;

use crate::class_map::decode_class;
use crate::config::TerminationRule;
use crate::decide::ClassDecisions;
use crate::run::Runner;
use crate::site::Mode;
use crate::wire::Wire;

impl<'a> Runner<'a> {
    /// The termination protocol's class → decision table.
    fn decisions(&self) -> ClassDecisions<'a> {
        ClassDecisions::build(self.analysis())
    }

    /// The class site `ix` reports ([`SiteRt::reported_class`]).
    ///
    /// [`SiteRt::reported_class`]: crate::site::SiteRt::reported_class
    pub(crate) fn reported_class_of(&self, ix: usize) -> u8 {
        self.sites[ix].reported_class(self.fsa(ix))
    }

    /// Does the quorum absorb `observer`'s view change about `peer`? In a
    /// quorum-based protocol, acceptor-involved view changes never drive
    /// termination in either direction: an acceptor crash is absorbed by
    /// the quorum (the leader can still assemble f+1 relays), so no one
    /// abandons the commit protocol over it; and acceptors never run the
    /// termination protocol themselves — when a participant crashes they
    /// keep relaying and learn the outcome from the participants' decision
    /// broadcast.
    pub(crate) fn quorum_absorbs(&self, observer: usize, peer: usize) -> bool {
        self.protocol.quorum().is_some()
            && (self.protocol.is_acceptor(peer) || self.protocol.is_acceptor(observer))
    }

    pub(crate) fn on_failure_notice(&mut self, observer: usize, crashed: usize) {
        let site = &mut *self.sites[observer];
        site.view[crashed] = false;
        site.recovered_peers.remove(&crashed);
        if self.quorum_absorbs(observer, crashed) {
            return;
        }
        match self.sites[observer].mode {
            Mode::Down | Mode::Recovering => {}
            Mode::Done => {
                // A finished site elected backup propagates its outcome:
                // the paper's degenerate case where phase 1 is omitted
                // because the backup is already in a commit or abort state.
                if self.sites[observer].elected_backup() == observer {
                    let commit = self.sites[observer].outcome.expect("Done implies an outcome");
                    self.broadcast_decision(observer, commit);
                }
            }
            Mode::Normal | Mode::Terminating { .. } | Mode::Blocked => {
                self.enter_termination(observer);
            }
        }
    }

    /// `observer` now suspects `peer` has failed (imperfect detection:
    /// possibly falsely). Engine-side this is exactly a failure notice —
    /// view change, quorum absorption, termination entry — plus the
    /// revocable bookkeeping that lets an unsuspicion undo it.
    pub(crate) fn on_suspect(&mut self, observer: usize, peer: usize) {
        if observer == peer || self.sites[observer].mode == Mode::Down {
            return;
        }
        if !self.sites[observer].suspects.insert(peer) {
            return; // already suspected
        }
        self.io().emit(observer, || EventKind::Suspect { suspected: peer as u32 });
        self.on_failure_notice(observer, peer);
    }

    /// `observer` clears its suspicion of `peer` — evidence of life from
    /// a heartbeat or a delivered message. The peer rejoins the
    /// operational view; a terminating or blocked observer re-runs the
    /// election over the restored view (the quorum rule is what keeps the
    /// rejoin safe — and under plain Skeen this very re-election is the
    /// livelock loop the checker witnesses).
    pub(crate) fn on_unsuspect(&mut self, observer: usize, peer: usize) {
        if observer == peer || self.sites[observer].mode == Mode::Down {
            return;
        }
        if !self.sites[observer].suspects.contains(&peer) {
            return; // not currently suspected
        }
        let (site, mut io) = self.site_io(observer);
        io.emit(observer, || EventKind::Unsuspect { suspected: peer as u32 });
        site.suspects.remove(&peer);
        site.view[peer] = true;
        // Evidence of life postdating the suspicion plays the role a
        // recovery notice plays for real crashes: a stale AlignTo must not
        // re-mark this peer dead.
        site.recovered_peers.insert(peer);
        // A decided site's decision broadcast skipped every peer it was
        // suspecting at that moment, so restored life doubles as a
        // missed-broadcast signal: resend the outcome. Duplicate
        // decisions are idempotent at the receiver, and a run under the
        // perfect detector never unsuspects, so this arm is dead there.
        if site.mode == Mode::Done {
            if let Some(commit) = site.outcome {
                io.send(observer, peer, Wire::TermDecision { backup: observer, commit });
            }
            return;
        }
        if self.quorum_absorbs(observer, peer) {
            return;
        }
        match self.sites[observer].mode {
            Mode::Terminating { .. } | Mode::Blocked => self.enter_termination(observer),
            Mode::Recovering => self.io().send(observer, peer, Wire::WhatHappened),
            Mode::Down | Mode::Normal | Mode::Done => {}
        }
    }

    /// (Re)enter the termination protocol after a view change. Only an
    /// undecided site does: a decided one is done, or down.
    fn enter_termination(&mut self, ix: usize) {
        self.elections += 1;
        let (site, io) = self.site_io(ix);
        debug_assert!(site.outcome.is_none(), "site {ix} terminates a decided run");
        let backup = site.elected_backup();
        io.emit(ix, || EventKind::Election { backup: backup as u32 });
        site.mode = Mode::Terminating { backup };
        if backup == ix {
            self.start_backup(ix);
        } else if site.backup_state.phase1_sent {
            // This site was the backup of an earlier round; drop that role.
            site.backup_state.clear();
        }
    }

    /// Begin (or refresh) the backup role at `ix`.
    fn start_backup(&mut self, ix: usize) {
        // A backup already in a final state skips phase 1 (paper: "it can
        // be omitted if the backup coordinator is initially in a commit or
        // abort state") and simply propagates its outcome.
        let class = self.fsa(ix).state(self.sites[ix].state).class;
        if class.is_final() {
            self.decide(ix, class == StateClass::Committed);
            return;
        }

        // A backup aligns with every other operational site — restricted
        // to participants for quorum-based protocols, whose acceptors do
        // not align (they adopt the final decision from
        // [`Runner::broadcast_decision`], which still addresses everyone).
        let term_sites = self.protocol.n_participants();
        let my_class = self.reported_class_of(ix);
        let (site, mut io) = self.site_io(ix);
        let bs = &mut site.backup_state;
        bs.pending_acks.clear();
        bs.pending_acks.extend(peers_in(&site.view, term_sites, ix));
        bs.collected.clear();
        bs.phase1_sent = true;
        if bs.pending_acks.is_empty() {
            self.backup_decide(ix);
            return;
        }
        for j in peers_in(&site.view, term_sites, ix) {
            io.send(ix, j, Wire::AlignTo { backup: ix, class: my_class });
        }
    }

    pub(crate) fn on_align_to(&mut self, ix: usize, backup: usize, class: u8) {
        let fsa = self.fsa(ix);
        match self.sites[ix].mode {
            Mode::Down | Mode::Recovering => return,
            Mode::Done => {
                let reported_class = self.reported_class_of(ix);
                self.io().send(ix, backup, Wire::AlignAck { backup, reported_class });
                return;
            }
            Mode::Normal | Mode::Terminating { .. } | Mode::Blocked => {}
        }
        // A durably aligned site never re-aligns to a *different* class.
        // Under crash-stop failures every re-election aligns to the same
        // class, so this cannot trigger; under false suspicion two live
        // backups can run concurrent termination rounds whose "views" are
        // not disjoint partition groups, and a site acking contrary
        // alignments would hand each round a majority — the split-brain
        // of X4 with "down" meaning merely "slow". Ignoring the contrary
        // directive starves that round instead (its backup never
        // completes phase 1): a liveness sacrifice, never a safety one.
        if self.sites[ix].aligned_class.is_some_and(|prev| prev != class) {
            return;
        }
        // The sender elected itself backup only after observing every
        // lower-ranked site crash. Under crash-stop failures its directive
        // is therefore also evidence of those crashes, so adopt the view
        // change even if this site's own failure notice has not arrived
        // yet (skipping peers known to have recovered since — their
        // notices postdate the sender's election). Dropping the directive
        // instead would deadlock the backup's round: it waits for an ack
        // this site would never send.
        for j in 0..backup {
            let site = &self.sites[ix];
            if j != ix && site.view[j] && !site.recovered_peers.contains(&j) {
                self.sites[ix].view[j] = false;
            }
        }
        // Only obey the currently elected backup; stale directives from a
        // previous (now crashed or superseded) backup are ignored.
        if self.sites[ix].elected_backup() != backup {
            return;
        }
        let (site, mut io) = self.site_io(ix);
        let reported_class = site.reported_class(fsa);
        site.mode = Mode::Terminating { backup };
        if !fsa.state(site.state).class.is_final() {
            // Make the transition to the backup's state: durable first.
            site.aligned_class = Some(class);
            io.log(site, LogRecord::AlignedTo { txn: io.txn, class }, "aligned-to");
            io.emit(ix, || EventKind::Aligned { class: decode_class(class).letter().to_string() });
        }
        io.send(ix, backup, Wire::AlignAck { backup, reported_class });
    }

    pub(crate) fn on_align_ack(&mut self, ix: usize, from: usize, reported_class: u8) {
        if !matches!(self.sites[ix].mode, Mode::Terminating { backup } if backup == ix) {
            return;
        }
        let bs = &mut self.sites[ix].backup_state;
        if bs.pending_acks.remove(&from) {
            bs.collected.push((from, reported_class));
        }
        if bs.pending_acks.is_empty() {
            self.backup_decide(ix);
        }
    }

    fn backup_decide(&mut self, ix: usize) {
        let site = &self.sites[ix];
        let my_class = site.reported_class(self.fsa(ix));
        let final_decision = |class| match class {
            StateClass::Committed => Some(Decision::Commit),
            StateClass::Aborted => Some(Decision::Abort),
            _ => None,
        };
        // A peer that acked from a durable final state outranks every
        // class rule: that decision already happened, so the only safe
        // move is to adopt it. Under accurate detection this arm is
        // unreachable — no final state is concurrent with a backup still
        // terminating in a contrary class — but a falsely-elected backup
        // races the still-live coordinator (or a parallel round) that may
        // have decided in the meantime. NaiveCs keeps its paper-verbatim,
        // own-state-only reading: it exists to demonstrate that unsafety.
        let acked = site.backup_state.collected.iter().map(|&(_, c)| c);
        let reported_final = match self.config.rule {
            TerminationRule::NaiveCs => None,
            _ => acked.clone().find_map(|c| final_decision(decode_class(c))),
        };
        let decision = reported_final.unwrap_or_else(|| match self.config.rule {
            // Paper rule verbatim on the backup's own local state —
            // deliberately unsafe for blocking protocols.
            TerminationRule::NaiveCs => final_decision(self.fsa(ix).state(site.state).class)
                .unwrap_or_else(|| {
                    if self.analysis().cs_has_commit(SiteId(ix as u32), site.state) {
                        Decision::Commit
                    } else {
                        Decision::Abort
                    }
                }),
            // Count sites this backup believes operational (itself
            // included); without a strict majority of all n sites the
            // backup must not decide — the other side of a potential
            // partition might.
            TerminationRule::QuorumSkeen
                if 2 * site.view.iter().filter(|&&up| up).count() <= self.sites.len() =>
            {
                Decision::Blocked
            }
            TerminationRule::Skeen | TerminationRule::QuorumSkeen => {
                self.decisions().decide(my_class)
            }
            TerminationRule::Cooperative => match self.decisions().decide(my_class) {
                Decision::Blocked => self.decisions().decide_cooperative(acked.chain([my_class])),
                base => base,
            },
        });
        if decision == Decision::Blocked {
            let term_sites = self.protocol.n_participants();
            let (site, mut io) = self.site_io(ix);
            io.emit(ix, || EventKind::Blocked { backup: ix as u32 });
            site.mode = Mode::Blocked;
            for j in peers_in(&site.view, term_sites, ix) {
                io.send(ix, j, Wire::TermBlocked { backup: ix });
            }
            self.answer_pending_queries(ix);
        } else {
            self.decide(ix, decision == Decision::Commit);
        }
    }

    /// A backup's decision reaches `ix`, which adopts it unless decided.
    pub(crate) fn on_term_decision(&mut self, ix: usize, commit: bool) {
        if self.sites[ix].outcome.is_none() {
            self.finish(ix, commit);
        }
    }

    /// The backup `backup` blocked; so does `ix` if it terminates under it.
    pub(crate) fn on_term_blocked(&mut self, ix: usize, backup: usize) {
        if matches!(self.sites[ix].mode, Mode::Terminating { .. })
            && self.sites[ix].elected_backup() == backup
        {
            self.sites[ix].mode = Mode::Blocked;
            // A blocked site will not decide on its own: give any waiting
            // recoverers a settled answer.
            self.answer_pending_queries(ix);
        }
    }

    /// The backup at `ix` decides: its outcome, then every operational
    /// peer's.
    fn decide(&mut self, ix: usize, commit: bool) {
        self.finish(ix, commit);
        self.broadcast_decision(ix, commit);
    }

    fn broadcast_decision(&mut self, ix: usize, commit: bool) {
        let (sites, mut io) = self.sites_io();
        for j in peers_in(&sites[ix].view, sites.len(), ix) {
            io.send(ix, j, Wire::TermDecision { backup: ix, commit });
        }
    }
}

/// The sites below `upto`, other than `ix` itself, that `view` (site `ix`'s)
/// holds operational.
fn peers_in(view: &[bool], upto: usize, ix: usize) -> impl Iterator<Item = usize> + '_ {
    (0..upto).filter(move |&j| j != ix && view[j])
}
