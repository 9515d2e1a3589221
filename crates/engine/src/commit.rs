//! The commit protocol: each site fires its automaton's enabled transitions
//! under the vote plan. [`Io`] is what every handler sends, logs and traces
//! through.
//!
//! ## Execution discipline
//!
//! * **Write-ahead**: a site logs (and syncs) its `Progress` record before
//!   sending any of the transition's messages. A crash mid-transition
//!   therefore leaves either no trace (`TransitionProgress::BeforeLog`) or
//!   a durable state plus a *prefix* of the outgoing messages — the
//!   paper's non-atomic transition failure.

use std::cmp::Reverse;

use nbc_core::{Fsa, MsgKind, StateClass, Transition, Vote};
use nbc_obs::{Event, EventKind, Tracer};
use nbc_simnet::{Network, Time};
use nbc_storage::LogRecord;

use crate::config::TransitionProgress;
use crate::run::{Runner, Timer};
use crate::site::{Mode, SiteCell, SiteRt};
use crate::wire::Wire;

/// What a handler needs besides the one site it mutates: the network, the
/// tracer and the event skeleton. Borrowed apart from the runner's sites
/// ([`Runner::site_io`]), so a handler holds a single `&mut SiteRt` — its
/// cached fingerprint dropped once — across a whole event. Every send and
/// every traced event of a run goes through it.
pub(crate) struct Io<'r> {
    pub(crate) net: &'r mut Network<Wire>,
    pub(crate) tracer: &'r Tracer,
    pub(crate) now: Time,
    pub(crate) txn: u64,
}

impl Io<'_> {
    /// Event skeleton: current simulation time, this run's transaction.
    pub(crate) fn ev(&self, kind: EventKind) -> Event {
        Event::new(self.now, kind).for_txn(self.txn)
    }

    /// Trace the event `kind` builds at site `ix`; `kind` runs only when a
    /// sink is attached.
    pub(crate) fn emit(&self, ix: usize, kind: impl FnOnce() -> EventKind) {
        self.tracer.emit(|| self.ev(kind()).at_site(ix));
    }

    /// Send with tracing. The send event is emitted even when a partition
    /// swallows the message — the site *did* send it; the network follows
    /// up with a drop event.
    pub(crate) fn send(&mut self, src: usize, dst: usize, wire: Wire) {
        self.emit(src, || EventKind::MsgSend { dst: dst as u32, label: wire.to_string() });
        self.net.send(self.now, src, dst, wire);
    }

    /// Append `record` to `site`'s log and force it, tracing the append
    /// (as `name`) and the force: the one durable write of the engine.
    pub(crate) fn log(&self, site: &mut SiteRt, record: LogRecord, name: &str) {
        site.wal.append_sync(&record).expect("wal record fits");
        self.emit(site.id, || EventKind::WalAppend {
            bytes: record.frame_len(),
            record: name.into(),
        });
        self.emit(site.id, || EventKind::WalFsync { physical: true });
    }

    /// Fire `t` at `site`: consume its messages, move the local state, log
    /// progress.
    pub(crate) fn transition(&self, site: &mut SiteRt, fsa: &Fsa, t: &Transition) {
        let (ix, from, to) = (site.id, site.state, t.to);
        site.consume(&t.consume);
        site.enter_state(to);
        self.emit(ix, || EventKind::Transition {
            from: fsa.state(from).name.clone(),
            to: fsa.state(to).name.clone(),
        });
        if let Some(v) = t.vote {
            self.emit(ix, || EventKind::Vote { yes: v == Vote::Yes });
        }
        let class = crate::class_map::encode_class(fsa.state(to).class);
        self.log(site, LogRecord::Progress { txn: self.txn, state: to.0, class }, "progress");
    }

    /// `site` reaches a final outcome (via the protocol or a decision):
    /// logged unless it already holds one. The caller follows up with
    /// [`Runner::answer_pending_queries`].
    pub(crate) fn finish(&self, site: &mut SiteRt, commit: bool) {
        site.mode = Mode::Done;
        if site.outcome.is_none() {
            site.outcome = Some(commit);
            self.log(site, LogRecord::Decision { txn: self.txn, commit }, "decision");
            self.emit(site.id, || EventKind::Decision { commit });
        }
    }
}

impl Runner<'_> {
    /// The sites beside the rest of the runner a handler sends and traces
    /// through.
    pub(crate) fn sites_io(&mut self) -> (&mut [SiteCell], Io<'_>) {
        let io =
            Io { net: &mut self.net, tracer: &self.tracer, now: self.now, txn: self.config.txn_id };
        (&mut self.sites, io)
    }

    /// Site `ix`, mutably, and the [`Io`].
    pub(crate) fn site_io(&mut self, ix: usize) -> (&mut SiteRt, Io<'_>) {
        let (sites, io) = self.sites_io();
        (&mut *sites[ix], io)
    }

    /// The [`Io`] alone, for a handler that reads other sites.
    pub(crate) fn io(&mut self) -> Io<'_> {
        self.sites_io().1
    }

    /// Take delivery of `arrived` (if any) at `ix`, then fire enabled
    /// transitions there until quiescent (or crash).
    pub(crate) fn pump(&mut self, ix: usize, arrived: Option<(usize, MsgKind)>) {
        let fsa = self.protocol.fsa(nbc_core::SiteId(ix as u32));
        let vote = self.config.votes[ix];
        let crash_point = self.transition_crashes[ix];
        let (site, mut io) = self.site_io(ix);
        site.inbox.extend(arrived);
        while site.mode == Mode::Normal {
            let Some(ti) = site.choose_transition(fsa, vote) else {
                return;
            };
            let t = &fsa.transitions()[ti as usize];

            // Crash-point check: is this the transition we die in?
            site.transitions_attempted += 1;
            if let Some((_, progress, recover_at)) =
                crash_point.filter(|&(ordinal, ..)| ordinal == site.transitions_attempted)
            {
                match progress {
                    TransitionProgress::BeforeLog => {
                        // Nothing durable, nothing sent.
                    }
                    TransitionProgress::AfterMsgs(k) => {
                        io.transition(site, fsa, t);
                        for e in t.emit.iter().take(k as usize) {
                            io.send(ix, e.dst.index(), Wire::Proto(e.kind));
                        }
                    }
                }
                self.transition_crashes[ix] = None;
                if let Some(rt) = recover_at {
                    self.timers.push(Reverse((rt.max(self.now + 1), Timer::Recover(ix))));
                }
                self.crash_site(ix);
                return;
            }

            io.transition(site, fsa, t);
            for e in &t.emit {
                io.send(ix, e.dst.index(), Wire::Proto(e.kind));
            }
            let to_class = fsa.state(t.to).class;
            if to_class.is_final() {
                io.finish(site, to_class == StateClass::Committed);
                self.answer_pending_queries(ix);
                return;
            }
        }
    }

    /// Reach a final outcome at `ix` (via the protocol or a decision), then
    /// answer the recovering sites waiting on it, which reads their modes.
    pub(crate) fn finish(&mut self, ix: usize, commit: bool) {
        let (site, io) = self.site_io(ix);
        io.finish(site, commit);
        self.answer_pending_queries(ix);
    }
}
