//! The discrete-event run loop: executes one distributed transaction under
//! a protocol, a vote plan, and a crash schedule, with the paper's
//! termination and recovery protocols.
//!
//! ## Execution discipline
//!
//! * **Write-ahead**: a site logs (and syncs) its `Progress` record before
//!   sending any of the transition's messages. A crash mid-transition
//!   therefore leaves either no trace (`TransitionProgress::BeforeLog`) or
//!   a durable state plus a *prefix* of the outgoing messages — the
//!   paper's non-atomic transition failure.
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
//! * **Recovery**: a restarted site resumes from its log: decided → done;
//!   crashed before voting → abort unilaterally; otherwise ask the other
//!   sites, with cooperative total-failure recovery once every site is
//!   back and none holds a decision.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};

use nbc_core::recovery_analysis::RecoveryClass;
use nbc_core::{
    Analysis, Fsa, MsgKind, Protocol, ReachOptions, StateClass, StateId, Transition, Vote,
};
use nbc_obs::{Event, EventKind, LinesSink, SharedSink, Tracer};
use nbc_simnet::{DetectorEvent, LatencyModel, NetEvent, Network, Suspicion, Time};
use nbc_storage::recovery::{summarize, TxnOutcome};
use nbc_storage::LogRecord;

use crate::config::{CrashPoint, RunConfig, TerminationRule, TransitionProgress};
use crate::decide::ClassDecisions;
use crate::report::{RunReport, SiteOutcome};
use crate::site::{Mode, SiteCell, SiteRt, CLIENT_SRC};
use crate::wire::Wire;

/// Transaction id used for single-transaction runs.
pub const TXN: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Timer {
    Crash(usize),
    Recover(usize),
    Partition,
}

/// Where a run finds its protocol's [`Analysis`]. The commit protocol
/// itself never consults it — the paper's concurrency sets serve the
/// termination and recovery protocols only — so a run reads it on the
/// failure path alone, and a caller that expects mostly failure-free runs
/// can defer the reachable-state-graph build until one of them needs it.
#[derive(Clone, Copy)]
pub enum AnalysisSource<'a> {
    /// Built up front (sweeps, the checker: many failing runs, one analysis).
    Built(&'a Analysis),
    /// Built, streaming (a run reads facts, never a graph), by the first
    /// failure-path read of any run sharing the cell; failure-free runs
    /// leave it empty.
    OnDemand(&'a OnceLock<Analysis>),
}

impl<'a> From<&'a Analysis> for AnalysisSource<'a> {
    fn from(analysis: &'a Analysis) -> Self {
        Self::Built(analysis)
    }
}

impl<'a> From<&'a OnceLock<Analysis>> for AnalysisSource<'a> {
    fn from(cell: &'a OnceLock<Analysis>) -> Self {
        Self::OnDemand(cell)
    }
}

/// One in-flight simulation.
///
/// `Clone` forks the entire run — sites, WALs, in-flight messages, timers —
/// which is how the model checker (`nbc-check`) branches an execution at a
/// nondeterministic choice point. What is immutable for the run (the
/// configuration; the per-protocol decision tables, which live memoised on
/// the [`Analysis`]) is shared; everything else is copied, and
/// [`Clone::clone_from`] copies it into the storage of a runner the caller
/// already owns — a fork into a recycled runner is a handful of `memcpy`s
/// and no allocation, whatever state the target was left in. A cloned
/// runner also shares the (reference-counted) tracer sinks of its parent,
/// so clone-heavy exploration should run untraced.
pub struct Runner<'a> {
    pub(crate) protocol: &'a Protocol,
    analysis: AnalysisSource<'a>,
    pub(crate) config: Arc<RunConfig>,
    pub(crate) net: Network<Wire>,
    pub(crate) sites: Vec<SiteCell>,
    pub(crate) timers: BinaryHeap<Reverse<(Time, Timer)>>,
    /// Pending `OnTransition` crash points, per site.
    transition_crashes: Vec<Option<(u32, TransitionProgress, Option<Time>)>>,
    /// Recovery times for timed crashes, per site.
    pub(crate) now: Time,
    pub(crate) events: usize,
    truncated: bool,
    /// Timeout-based failure detection, replacing the network's perfect
    /// detector when the config carries an *inaccurate* [`DetectorSpec`]
    /// (accurate specs degenerate to the legacy path by construction —
    /// that equivalence is tested). With a detector, crashes, recoveries
    /// and partitions are learned by suspicion timers, never by notice.
    ///
    /// [`DetectorSpec`]: crate::config::DetectorSpec
    detector: Option<Suspicion>,
    /// Backup elections entered (termination-protocol rounds), for the
    /// run report — a counter, so it works untraced.
    elections: u64,
    /// Observability handle; every protocol action is emitted through it
    /// as a typed event (no-op when no sink is attached).
    tracer: Tracer,
    /// When `config.record_trace`, a [`LinesSink`] attached to the tracer
    /// that re-renders the human-readable trace lines for
    /// [`RunReport::trace`] in their historical format.
    legacy: Option<SharedSink<LinesSink>>,
}

impl Clone for Runner<'_> {
    fn clone(&self) -> Self {
        Self {
            protocol: self.protocol,
            analysis: self.analysis,
            config: Arc::clone(&self.config),
            net: self.net.clone(),
            sites: self.sites.clone(),
            timers: self.timers.clone(),
            transition_crashes: self.transition_crashes.clone(),
            now: self.now,
            events: self.events,
            truncated: self.truncated,
            detector: self.detector.clone(),
            elections: self.elections,
            tracer: self.tracer.clone(),
            legacy: self.legacy.clone(),
        }
    }

    /// Become a fork of `source` in this runner's storage, whatever run it
    /// held: every site slot, WAL buffer, inbox, event heap and link table
    /// is overwritten in place (a site slot's cached fingerprint with the
    /// source's — see [`SiteCell`]). Destructured in full so a new field
    /// cannot be left out of a fork.
    fn clone_from(&mut self, source: &Self) {
        let Self {
            protocol,
            analysis,
            config,
            net,
            sites,
            timers,
            transition_crashes,
            now,
            events,
            truncated,
            detector,
            elections,
            tracer,
            legacy,
        } = self;
        *protocol = source.protocol;
        *analysis = source.analysis;
        if !Arc::ptr_eq(config, &source.config) {
            config.clone_from(&source.config);
        }
        net.clone_from(&source.net);
        sites.clone_from(&source.sites);
        timers.clone_from(&source.timers);
        transition_crashes.clone_from(&source.transition_crashes);
        *now = source.now;
        *events = source.events;
        *truncated = source.truncated;
        detector.clone_from(&source.detector);
        *elections = source.elections;
        tracer.clone_from(&source.tracer);
        legacy.clone_from(&source.legacy);
    }
}

/// What a handler needs besides the one site it mutates: the network, the
/// tracer and the event skeleton. Borrowed apart from the runner's sites
/// ([`Runner::site_io`]), so a handler holds a single `&mut SiteRt` — its
/// cached fingerprint dropped once — across a whole event.
struct Io<'r> {
    net: &'r mut Network<Wire>,
    tracer: &'r Tracer,
    now: Time,
    txn: u64,
}

impl Io<'_> {
    /// Event skeleton: current simulation time, this run's transaction.
    fn ev(&self, kind: EventKind) -> Event {
        Event::new(self.now, kind).for_txn(self.txn)
    }

    /// Send with tracing. The send event is emitted even when a partition
    /// swallows the message — the site *did* send it; the network follows
    /// up with a drop event.
    fn send(&mut self, src: usize, dst: usize, wire: Wire) {
        self.tracer.emit(|| {
            self.ev(EventKind::MsgSend { dst: dst as u32, label: wire.to_string() }).at_site(src)
        });
        self.net.send(self.now, src, dst, wire);
    }

    /// Fire `t` at `site`: consume its messages, log progress, move the
    /// local state.
    fn transition(&self, site: &mut SiteRt, fsa: &Fsa, t: &Transition) {
        let (ix, txn, from, to) = (site.id, self.txn, site.state, t.to);
        let to_class = fsa.state(to).class;
        site.consume(&t.consume);
        site.log_progress(txn, to, to_class);
        site.enter_state(to);
        self.tracer.emit(|| {
            self.ev(EventKind::Transition {
                from: fsa.state(from).name.clone(),
                to: fsa.state(to).name.clone(),
            })
            .at_site(ix)
        });
        if let Some(v) = t.vote {
            self.tracer.emit(|| self.ev(EventKind::Vote { yes: v == Vote::Yes }).at_site(ix));
        }
        self.tracer.emit(|| {
            let rec = LogRecord::Progress {
                txn,
                state: to.0,
                class: crate::class_map::encode_class(to_class),
            };
            self.ev(EventKind::WalAppend { bytes: rec.frame_len(), record: "progress".into() })
                .at_site(ix)
        });
        self.tracer.emit(|| self.ev(EventKind::WalFsync { physical: true }).at_site(ix));
    }

    /// `site` reaches a final outcome (via the protocol or a decision):
    /// logged unless it already holds one. The caller follows up with
    /// [`Runner::answer_pending_queries`].
    fn finish(&self, site: &mut SiteRt, commit: bool) {
        let (ix, txn) = (site.id, self.txn);
        let decides = site.outcome.is_none();
        if decides {
            site.log_decision(txn, commit);
        }
        site.mode = Mode::Done;
        if decides {
            self.tracer.emit(|| {
                let rec = LogRecord::Decision { txn, commit };
                self.ev(EventKind::WalAppend { bytes: rec.frame_len(), record: "decision".into() })
                    .at_site(ix)
            });
            self.tracer.emit(|| self.ev(EventKind::WalFsync { physical: true }).at_site(ix));
            self.tracer.emit(|| self.ev(EventKind::Decision { commit }).at_site(ix));
        }
    }
}

impl<'a> Runner<'a> {
    /// Set up a run.
    ///
    /// # Panics
    /// Panics if `config.votes.len()` differs from the protocol's site
    /// count, or if a [`CrashSpec`](crate::config::CrashSpec) names a site
    /// the protocol does not have.
    pub fn new(
        protocol: &'a Protocol,
        analysis: impl Into<AnalysisSource<'a>>,
        config: RunConfig,
    ) -> Self {
        Self::with_tracer(protocol, analysis, config, Tracer::off())
    }

    /// As [`Runner::new`], emitting every protocol action through `tracer`
    /// as typed [`Event`]s (state transitions, votes, message traffic, WAL
    /// activity, elections, decisions, crashes). The tracer is also handed
    /// to the network, which reports partition drops through it.
    pub fn with_tracer(
        protocol: &'a Protocol,
        analysis: impl Into<AnalysisSource<'a>>,
        config: RunConfig,
        tracer: Tracer,
    ) -> Self {
        // An empty shell — no sites, nothing scheduled — for `arm` to fill.
        let shell = Self {
            protocol,
            analysis: analysis.into(),
            config: Arc::new(config),
            net: Network::new(protocol.n_sites(), LatencyModel::constant(0), 0),
            sites: Vec::with_capacity(protocol.n_sites()),
            timers: BinaryHeap::new(),
            transition_crashes: Vec::new(),
            now: 0,
            events: 0,
            truncated: false,
            tracer,
            legacy: None,
            detector: None,
            elections: 0,
        };
        shell.arm()
    }

    /// Run `config` on this runner's protocol in the storage of a run that
    /// is over: the event heap, the link tables, the timers, the site cells
    /// and their inbox, view and WAL buffers are cleared and re-armed in
    /// place instead of being dropped and allocated again. The result is
    /// indistinguishable from [`Runner::with_tracer`] on the same
    /// protocol, analysis, `config` and `tracer` — same report, same
    /// digest after every step, same WAL bytes, same events.
    ///
    /// # Panics
    /// As [`Runner::new`].
    pub fn recycle(mut self, config: RunConfig, tracer: Tracer) -> Self {
        self.config = Arc::new(config);
        self.tracer = tracer;
        self.arm()
    }

    /// Start the run `self.config` describes, whatever state `self` is in
    /// — the one initialisation path of a fresh shell and of a recycled
    /// runner. Sets every field but the protocol, its analysis, the
    /// configuration and the caller's tracer.
    fn arm(mut self) -> Self {
        let protocol = self.protocol;
        let config = Arc::clone(&self.config);
        let n = protocol.n_sites();
        assert_eq!(config.votes.len(), n, "one vote per site required");
        self.legacy = config.record_trace.then(|| {
            let sink = SharedSink::new(LinesSink::default());
            self.tracer.attach(sink.clone());
            sink
        });
        self.net.reset(config.latency.clone(), config.detect_delay);
        self.net.set_tracer(self.tracer.clone());
        for i in 0..n {
            let fsa = protocol.fsa(nbc_core::SiteId(i as u32));
            match self.sites.get_mut(i) {
                Some(site) => site.reset(fsa, n),
                None => self.sites.push(SiteCell::new(SiteRt::new(i, fsa, n))),
            }
        }
        self.timers.clear();
        self.transition_crashes.clear();
        self.transition_crashes.resize(n, None);
        for spec in &config.crashes {
            assert!(spec.site < n, "crash spec names site {} of {n}", spec.site);
            match spec.point {
                CrashPoint::AtTime(t) => {
                    self.timers.push(Reverse((t, Timer::Crash(spec.site))));
                    if let Some(rt) = spec.recover_at {
                        self.timers.push(Reverse((rt, Timer::Recover(spec.site))));
                    }
                }
                CrashPoint::OnTransition { ordinal, progress } => {
                    self.transition_crashes[spec.site] = Some((ordinal, progress, spec.recover_at));
                }
            }
        }
        if let Some(p) = &config.partition {
            self.timers.push(Reverse((p.at, Timer::Partition)));
        }
        let start_at = config.start_at;
        self.now = start_at;
        self.events = 0;
        self.truncated = false;
        self.elections = 0;
        // An accurate detector (heartbeats always beat the timeout) can
        // never falsely suspect; it is behaviorally the perfect detector,
        // so use the legacy notice path verbatim — the equivalence the
        // property tests pin down byte for byte.
        self.detector = config.detector.filter(|d| !d.is_accurate()).map(|d| {
            let jitter = if d.jitter.0 == d.jitter.1 {
                LatencyModel::constant(d.jitter.0)
            } else {
                LatencyModel::uniform(d.jitter.0, d.jitter.1, d.seed)
            };
            Suspicion::new(n, d.timeout, jitter, start_at)
        });
        // Seed the client stimuli and let every site take its first steps,
        // so the run is steppable from the moment it is constructed.
        for m in protocol.initial_msgs() {
            self.sites[m.dst.index()].inbox.push((CLIENT_SRC, m.kind));
        }
        for i in 0..n {
            self.pump(i, None);
        }
        self
    }

    /// The protocol's analysis — the one accessor every failure-path read
    /// goes through (termination's class decisions and concurrency sets,
    /// recovery's independent-abort classes).
    fn analysis(&self) -> &'a Analysis {
        match self.analysis {
            AnalysisSource::Built(analysis) => analysis,
            AnalysisSource::OnDemand(cell) => cell.get_or_init(|| {
                let opts = ReachOptions::default().with_streaming(true);
                Analysis::build_with(self.protocol, opts).expect("protocol analyzable")
            }),
        }
    }

    /// The termination protocol's class → decision table.
    fn decisions(&self) -> ClassDecisions<'a> {
        ClassDecisions::build(self.analysis())
    }

    /// Execute to quiescence and report.
    pub fn run(mut self) -> RunReport {
        while self.step() {}
        self.report()
    }

    /// The time of the next pending event (network delivery, failure
    /// notice, or timer), or `None` if the run is quiescent. Never moves
    /// backwards; the multiplexer uses it to interleave concurrent runs in
    /// global time order.
    pub fn next_time(&self) -> Option<Time> {
        let net_t = self.net.peek_time();
        let det_t = self.detector_deadline();
        let timer_t = self.timers.peek().map(|Reverse((t, _))| *t);
        [net_t, det_t, timer_t].into_iter().flatten().min()
    }

    /// Next suspicion-timer deadline, when the detector still has work to
    /// do. Gated on some site being up and undecided: once every
    /// operational site holds an outcome, further suspicion cannot change
    /// anything and the run is allowed to quiesce. (A run that *never*
    /// settles — 3PC livelocked by repeated false suspicion — keeps
    /// ticking until the event safety valve truncates it: that truncation
    /// is the livelock, observed.) Clamped to `now` so a deadline the
    /// engine passed while processing same-time messages fires
    /// immediately rather than moving time backwards.
    fn detector_deadline(&self) -> Option<Time> {
        let d = self.detector.as_ref()?;
        if !self.sites.iter().any(|s| s.is_up() && s.outcome.is_none()) {
            return None;
        }
        d.next_deadline().map(|t| t.max(self.now))
    }

    /// The run's current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Process exactly one event. Returns `false` once the run is
    /// quiescent (or the event safety valve tripped).
    pub fn step(&mut self) -> bool {
        if self.events >= self.config.max_events {
            self.truncated = true;
            return false;
        }
        let net_t = self.net.peek_time();
        let det_t = self.detector_deadline();
        let timer_t = self.timers.peek().map(|Reverse((t, _))| *t);
        let Some(t) = [net_t, det_t, timer_t].into_iter().flatten().min() else {
            return false;
        };
        // Tie-breaking order: deliveries before detector checks (a message
        // arriving at the deadline is evidence of life and wins — the
        // timeout boundary), detector checks before crash/recovery timers.
        if net_t == Some(t) {
            let (t, ev) = self.net.next_event().expect("peeked");
            self.now = t;
            self.events += 1;
            self.handle_net(ev);
            return true;
        }
        if det_t == Some(t) {
            self.now = t;
            self.events += 1;
            let fired = self.detector.as_mut().expect("deadline implies a detector").poll(t);
            for e in fired {
                match e {
                    DetectorEvent::Suspect { observer, peer } => self.on_suspect(observer, peer),
                    DetectorEvent::Unsuspect { observer, peer } => {
                        self.on_unsuspect(observer, peer)
                    }
                }
            }
            return true;
        }
        let Reverse((t, timer)) = self.timers.pop().expect("peeked");
        self.now = t;
        self.events += 1;
        match timer {
            Timer::Crash(site) => self.crash_site(site),
            Timer::Recover(site) => self.recover_site(site),
            Timer::Partition => {
                let spec = self.config.partition.clone().expect("partition timer implies a spec");
                self.tracer.emit(|| {
                    self.ev(EventKind::Partition { groups: format!("{:?}", spec.groups) })
                });
                if let Some(d) = self.detector.as_mut() {
                    // Imperfect detection: no failure notices — the cut
                    // is *suspected*, at each observer's own timeout.
                    d.set_groups(self.now, Some(spec.groups.clone()));
                    self.net.partition_silent(self.now, spec.groups);
                } else {
                    self.net.partition(self.now, spec.groups);
                }
            }
        }
        true
    }

    // ------------------------------------------------------------------
    // Tracing
    // ------------------------------------------------------------------

    /// The sites beside the rest of the runner a handler sends and traces
    /// through.
    fn sites_io(&mut self) -> (&mut [SiteCell], Io<'_>) {
        let io =
            Io { net: &mut self.net, tracer: &self.tracer, now: self.now, txn: self.config.txn_id };
        (&mut self.sites, io)
    }

    /// Site `ix`, mutably, and the [`Io`].
    fn site_io(&mut self, ix: usize) -> (&mut SiteRt, Io<'_>) {
        let (sites, io) = self.sites_io();
        (&mut *sites[ix], io)
    }

    /// Event skeleton: current simulation time, this run's transaction.
    fn ev(&self, kind: EventKind) -> Event {
        Event::new(self.now, kind).for_txn(self.config.txn_id)
    }

    fn send(&mut self, src: usize, dst: usize, wire: Wire) {
        self.sites_io().1.send(src, dst, wire);
    }

    // ------------------------------------------------------------------
    // Normal protocol execution
    // ------------------------------------------------------------------

    /// Take delivery of `arrived` (if any) at `ix`, then fire enabled
    /// transitions there until quiescent (or crash).
    fn pump(&mut self, ix: usize, arrived: Option<(usize, MsgKind)>) {
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

    /// Reach a final outcome at `ix` (via the protocol or a decision).
    fn finish(&mut self, ix: usize, commit: bool) {
        let (site, io) = self.site_io(ix);
        io.finish(site, commit);
        self.answer_pending_queries(ix);
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    pub(crate) fn handle_net(&mut self, ev: NetEvent<Wire>) {
        match ev {
            NetEvent::Deliver { src, dst, msg } => {
                // Delivery is traced even to a down site — the network did
                // its job; the dead site just never reads the message. This
                // keeps sent == delivered + dropped at quiescence.
                self.tracer.emit(|| {
                    self.ev(EventKind::MsgDeliver { src: src as u32, label: msg.to_string() })
                        .at_site(dst)
                });
                if self.sites[dst].mode == Mode::Down {
                    return; // lost with the site
                }
                // Any delivered message is evidence of life: it renews the
                // suspicion lease, and — processed *before* the payload —
                // clears a standing false suspicion so the view is honest
                // by the time the message acts.
                if let Some(d) = self.detector.as_mut() {
                    if d.heard(self.now, dst, src) {
                        self.on_unsuspect(dst, src);
                    }
                }
                self.deliver(src, dst, msg);
            }
            NetEvent::FailureNotice { observer, crashed } => {
                if self.sites[observer].mode == Mode::Down {
                    return;
                }
                self.tracer.emit(|| {
                    self.ev(EventKind::FailureNotice { crashed: crashed as u32 }).at_site(observer)
                });
                self.on_failure_notice(observer, crashed);
            }
            NetEvent::RecoveryNotice { observer, recovered } => {
                if self.sites[observer].mode == Mode::Down {
                    return;
                }
                self.tracer.emit(|| {
                    self.ev(EventKind::RecoveryNotice { recovered: recovered as u32 })
                        .at_site(observer)
                });
                self.sites[observer].recovered_peers.insert(recovered);
                // Blocked and recovering sites probe recovered peers.
                if matches!(self.sites[observer].mode, Mode::Blocked | Mode::Recovering) {
                    self.send(observer, recovered, Wire::WhatHappened);
                }
            }
        }
    }

    fn deliver(&mut self, src: usize, dst: usize, msg: Wire) {
        match msg {
            Wire::Proto(kind) => {
                if self.sites[dst].mode == Mode::Normal {
                    self.pump(dst, Some((src, kind)));
                }
                // Frozen (terminating/blocked/recovering/done) sites ignore
                // protocol traffic; the termination or recovery protocol
                // owns the outcome now.
            }
            Wire::AlignTo { backup, class } => self.on_align_to(dst, backup, class),
            Wire::AlignAck { backup, reported_class } => {
                if backup == dst {
                    self.on_align_ack(dst, src, reported_class);
                }
            }
            Wire::TermDecision { commit, .. } => {
                if self.sites[dst].outcome.is_none() && self.sites[dst].mode != Mode::Down {
                    self.finish(dst, commit);
                }
            }
            Wire::TermBlocked { backup } => {
                if matches!(self.sites[dst].mode, Mode::Terminating { .. })
                    && self.sites[dst].elected_backup() == backup
                {
                    self.sites[dst].mode = Mode::Blocked;
                    // A blocked site will not decide on its own: give any
                    // waiting recoverers a settled answer.
                    self.answer_pending_queries(dst);
                }
            }
            Wire::WhatHappened => self.on_what_happened(dst, src),
            Wire::OutcomeIs { outcome, class, settled } => {
                self.on_outcome_is(dst, src, outcome, class, settled)
            }
        }
    }

    // ------------------------------------------------------------------
    // Termination protocol
    // ------------------------------------------------------------------

    /// The class a site reports to the termination and recovery protocols:
    /// a decided site reports its outcome's final class even if its FSA
    /// never reached a final state (it may have adopted a `TermDecision`
    /// while frozen mid-protocol); otherwise the aligned class or the
    /// current state's class.
    fn reported_class_of(&self, ix: usize) -> u8 {
        use nbc_storage::recovery::class_codes;
        match self.sites[ix].outcome {
            Some(true) => class_codes::COMMITTED,
            Some(false) => class_codes::ABORTED,
            None => {
                let fsa = self.protocol.fsa(nbc_core::SiteId(ix as u32));
                self.sites[ix].reported_class(fsa)
            }
        }
    }

    fn on_failure_notice(&mut self, observer: usize, crashed: usize) {
        let site = &mut *self.sites[observer];
        site.view[crashed] = false;
        site.recovered_peers.remove(&crashed);
        if self.protocol.quorum().is_some()
            && (self.protocol.is_acceptor(crashed) || self.protocol.is_acceptor(observer))
        {
            // Quorum-based protocol: an acceptor crash is absorbed by the
            // quorum (the leader can still assemble f+1 relays), so no one
            // abandons the commit protocol over it; and acceptors never run
            // the termination protocol themselves — when a participant
            // crashes they keep relaying and learn the outcome from the
            // participants' decision broadcast.
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
        self.tracer
            .emit(|| self.ev(EventKind::Suspect { suspected: peer as u32 }).at_site(observer));
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
        self.tracer
            .emit(|| self.ev(EventKind::Unsuspect { suspected: peer as u32 }).at_site(observer));
        let site = &mut *self.sites[observer];
        site.suspects.remove(&peer);
        site.view[peer] = true;
        // Evidence of life postdating the suspicion plays the role a
        // recovery notice plays for real crashes: a stale AlignTo must not
        // re-mark this peer dead.
        site.recovered_peers.insert(peer);
        // A decided site's decision broadcast skipped every peer it was
        // suspecting at that moment, so restored life doubles as a
        // missed-broadcast signal: resend the outcome. Duplicate
        // decisions are idempotent at the receiver, and a legacy run
        // never unsuspects, so this arm is dead there.
        if self.sites[observer].mode == Mode::Done {
            if let Some(commit) = self.sites[observer].outcome {
                self.send(observer, peer, Wire::TermDecision { backup: observer, commit });
            }
            return;
        }
        if self.protocol.quorum().is_some()
            && (self.protocol.is_acceptor(peer) || self.protocol.is_acceptor(observer))
        {
            // Mirror of the absorption rule in `on_failure_notice`:
            // acceptor-involved view changes never drive termination in
            // either direction.
            return;
        }
        match self.sites[observer].mode {
            Mode::Terminating { .. } | Mode::Blocked => self.enter_termination(observer),
            Mode::Recovering => self.send(observer, peer, Wire::WhatHappened),
            Mode::Down | Mode::Normal | Mode::Done => {}
        }
    }

    /// (Re)enter the termination protocol after a view change.
    fn enter_termination(&mut self, ix: usize) {
        self.elections += 1;
        let backup = self.sites[ix].elected_backup();
        self.tracer.emit(|| self.ev(EventKind::Election { backup: backup as u32 }).at_site(ix));
        let site = &mut *self.sites[ix];
        site.mode = Mode::Terminating { backup };
        if backup == ix {
            self.start_backup(ix);
        } else if site.backup_state.phase1_sent {
            // This site was the backup of an earlier round; drop that role.
            site.backup_state = Default::default();
        }
    }

    /// Begin (or refresh) the backup role at `ix`.
    fn start_backup(&mut self, ix: usize) {
        // A backup already in a final state skips phase 1 (paper: "it can
        // be omitted if the backup coordinator is initially in a commit or
        // abort state") and simply propagates its outcome.
        if let Some(commit) = self.sites[ix].outcome {
            self.broadcast_decision(ix, commit);
            return;
        }
        let fsa = self.protocol.fsa(nbc_core::SiteId(ix as u32));
        if fsa.state(self.sites[ix].state).class.is_final() {
            let commit = fsa.state(self.sites[ix].state).class == StateClass::Committed;
            self.finish(ix, commit);
            self.broadcast_decision(ix, commit);
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

    fn on_align_to(&mut self, ix: usize, backup: usize, class: u8) {
        match self.sites[ix].mode {
            Mode::Down | Mode::Recovering => return,
            Mode::Done => {
                let reported = self.reported_class_of(ix);
                self.send(ix, backup, Wire::AlignAck { backup, reported_class: reported });
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
        let reported = self.reported_class_of(ix);
        let fsa = self.protocol.fsa(nbc_core::SiteId(ix as u32));
        let (site, mut io) = self.site_io(ix);
        site.mode = Mode::Terminating { backup };
        if !fsa.state(site.state).class.is_final() {
            // Make the transition to the backup's state: durable first.
            let txn = io.txn;
            site.wal.append_sync(&LogRecord::AlignedTo { txn, class }).expect("wal record fits");
            site.aligned_class = Some(class);
            io.tracer.emit(|| {
                let rec = LogRecord::AlignedTo { txn, class };
                io.ev(EventKind::WalAppend { bytes: rec.frame_len(), record: "aligned-to".into() })
                    .at_site(ix)
            });
            io.tracer.emit(|| io.ev(EventKind::WalFsync { physical: true }).at_site(ix));
            io.tracer.emit(|| {
                let letter = crate::class_map::decode_class(class).letter();
                io.ev(EventKind::Aligned { class: letter.to_string() }).at_site(ix)
            });
        }
        io.send(ix, backup, Wire::AlignAck { backup, reported_class: reported });
    }

    fn on_align_ack(&mut self, ix: usize, from: usize, reported_class: u8) {
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
        use nbc_core::Decision;
        let fsa = self.protocol.fsa(nbc_core::SiteId(ix as u32));
        let my_class = self.reported_class_of(ix);
        // A peer that acked from a durable final state outranks every
        // class rule: that decision already happened, so the only safe
        // move is to adopt it. Under accurate detection this arm is
        // unreachable — no final state is concurrent with a backup still
        // terminating in a contrary class — but a falsely-elected backup
        // races the still-live coordinator (or a parallel round) that may
        // have decided in the meantime. NaiveCs keeps its paper-verbatim,
        // own-state-only reading: it exists to demonstrate that unsafety.
        let reported_final = (self.config.rule != TerminationRule::NaiveCs)
            .then(|| {
                self.sites[ix].backup_state.collected.iter().find_map(|&(_, c)| {
                    match crate::class_map::decode_class(c) {
                        StateClass::Committed => Some(Decision::Commit),
                        StateClass::Aborted => Some(Decision::Abort),
                        _ => None,
                    }
                })
            })
            .flatten();
        let decision = if let Some(d) = reported_final {
            d
        } else {
            match self.config.rule {
                TerminationRule::NaiveCs => {
                    // Paper rule verbatim on the backup's own local state —
                    // deliberately unsafe for blocking protocols.
                    let me = self.sites[ix].core_id();
                    let st = self.sites[ix].state;
                    match fsa.state(st).class {
                        StateClass::Committed => Decision::Commit,
                        StateClass::Aborted => Decision::Abort,
                        _ => {
                            if self.analysis().cs_has_commit(me, st) {
                                Decision::Commit
                            } else {
                                Decision::Abort
                            }
                        }
                    }
                }
                TerminationRule::Skeen => self.decisions().decide(my_class),
                TerminationRule::QuorumSkeen => {
                    // Count sites this backup believes operational (itself
                    // included); without a strict majority of all n sites the
                    // backup must not decide — the other side of a potential
                    // partition might.
                    let operational = self.sites[ix].view.iter().filter(|&&up| up).count();
                    if 2 * operational > self.sites.len() {
                        self.decisions().decide(my_class)
                    } else {
                        Decision::Blocked
                    }
                }
                TerminationRule::Cooperative => {
                    let base = self.decisions().decide(my_class);
                    if base == Decision::Blocked {
                        let mut classes: Vec<u8> =
                            self.sites[ix].backup_state.collected.iter().map(|&(_, c)| c).collect();
                        classes.push(my_class);
                        self.decisions().decide_cooperative(classes)
                    } else {
                        base
                    }
                }
            }
        };
        match decision {
            Decision::Commit => {
                self.finish(ix, true);
                self.broadcast_decision(ix, true);
            }
            Decision::Abort => {
                self.finish(ix, false);
                self.broadcast_decision(ix, false);
            }
            Decision::Blocked => {
                self.tracer.emit(|| self.ev(EventKind::Blocked { backup: ix as u32 }).at_site(ix));
                let term_sites = self.protocol.n_participants();
                let (site, mut io) = self.site_io(ix);
                site.mode = Mode::Blocked;
                for j in peers_in(&site.view, term_sites, ix) {
                    io.send(ix, j, Wire::TermBlocked { backup: ix });
                }
                self.answer_pending_queries(ix);
            }
        }
    }

    fn broadcast_decision(&mut self, ix: usize, commit: bool) {
        let (sites, mut io) = self.sites_io();
        for j in peers_in(&sites[ix].view, sites.len(), ix) {
            io.send(ix, j, Wire::TermDecision { backup: ix, commit });
        }
    }

    // ------------------------------------------------------------------
    // Crash and recovery
    // ------------------------------------------------------------------

    pub(crate) fn crash_site(&mut self, ix: usize) {
        if self.sites[ix].mode == Mode::Down {
            return;
        }
        // Volatile state is lost: only the synced WAL prefix survives.
        let site = &mut *self.sites[ix];
        site.wal.lose_volatile();
        site.inbox.clear();
        site.backup_state = Default::default();
        site.pending_queries.clear();
        site.recovery_replies.clear();
        site.suspects.clear();
        site.ever_down = true;
        site.mode = Mode::Down;
        self.tracer.emit(|| self.ev(EventKind::Crash).at_site(ix));
        if let Some(d) = self.detector.as_mut() {
            // No oracle notice: peers will suspect the silence, each at
            // its own timeout.
            d.site_down(ix);
        } else {
            self.net.crash(self.now, ix);
        }
    }

    pub(crate) fn recover_site(&mut self, ix: usize) {
        if self.sites[ix].mode != Mode::Down {
            return;
        }
        let records = nbc_storage::Wal::recover(self.sites[ix].wal.as_bytes()).expect("own log");
        let summaries = summarize(&records);
        let summary = summaries.iter().find(|t| t.txn == self.config.txn_id);
        // Fresh view: the recovering site interacts via the recovery
        // protocol only, so an optimistic view is harmless.
        let n = self.sites.len();
        let site = &mut *self.sites[ix];
        site.view.fill(true);
        site.recovery_replies.clear();
        self.tracer.emit(|| self.ev(EventKind::Recover).at_site(ix));
        if let Some(d) = self.detector.as_mut() {
            // No oracle notice: peers detect the recovery when heartbeats
            // (or this site's recovery queries) next prove life.
            d.site_up(self.now, ix);
        } else {
            self.net.recover(self.now, ix);
        }

        let acceptor = self.protocol.is_acceptor(ix);
        match summary.map(|s| &s.outcome) {
            None | Some(TxnOutcome::AbortOnRecovery) if !acceptor => {
                // Crashed before voting (or before the transaction reached
                // it): abort unilaterally upon recovering.
                self.sites[ix].mode = Mode::Recovering;
                self.finish(ix, false);
            }
            Some(decided @ (TxnOutcome::Committed | TxnOutcome::Aborted)) => {
                let site = &mut *self.sites[ix];
                site.outcome = Some(matches!(decided, TxnOutcome::Committed));
                site.mode = Mode::Done;
            }
            other => {
                // MustAsk from any site — or any undecided acceptor log.
                // An acceptor never decides unilaterally: its local log
                // says nothing about whether the participants already
                // committed through the other acceptors, and its decision
                // record must mirror theirs, so it always asks.
                if let Some(TxnOutcome::MustAsk { state, aligned_class, .. }) = other {
                    let site = &mut *self.sites[ix];
                    site.enter_state(StateId(*state));
                    site.aligned_class = *aligned_class;
                    site.mode = Mode::Recovering;
                    // Independent recovery (nbc-core::recovery_analysis): a
                    // durable state that provably never cast a yes vote lets
                    // the site abort unilaterally — no commit can exist or
                    // ever arise, because committable states require every
                    // site's vote. Only applicable when no termination-phase
                    // alignment intervened (alignment may carry another
                    // site's progress) — and never to an acceptor, whose
                    // vote is not part of that argument.
                    let rc = self.analysis().recovery_classes()[ix][*state as usize];
                    if !acceptor && aligned_class.is_none() && rc == RecoveryClass::IndependentAbort
                    {
                        self.finish(ix, false);
                        return;
                    }
                } else {
                    self.sites[ix].mode = Mode::Recovering;
                }
                for j in 0..n {
                    if j != ix {
                        self.send(ix, j, Wire::WhatHappened);
                    }
                }
            }
        }
    }

    /// Is this site settled — guaranteed not to reach a decision on its
    /// own? True once it has decided, blocked, or is itself recovering.
    fn is_settled(&self, ix: usize) -> bool {
        self.sites[ix].outcome.is_some()
            || matches!(self.sites[ix].mode, Mode::Blocked | Mode::Recovering | Mode::Done)
    }

    fn on_what_happened(&mut self, ix: usize, from: usize) {
        let class = self.reported_class_of(ix);
        let outcome = self.sites[ix].outcome;
        let settled = self.is_settled(ix);
        self.send(ix, from, Wire::OutcomeIs { outcome, class, settled });
        if outcome.is_none() {
            // Remember the asker; answer again on deciding or blocking.
            if !self.sites[ix].pending_queries.contains(&from) {
                self.sites[ix].pending_queries.push(from);
            }
        }
    }

    fn answer_pending_queries(&mut self, ix: usize) {
        if self.sites[ix].pending_queries.is_empty() {
            return;
        }
        let outcome = self.sites[ix].outcome;
        let class = self.reported_class_of(ix);
        let settled = self.is_settled(ix);
        let pending = std::mem::take(&mut self.sites[ix].pending_queries);
        for q in pending {
            if self.sites[q].mode != Mode::Down {
                self.send(ix, q, Wire::OutcomeIs { outcome, class, settled });
            }
        }
    }

    fn on_outcome_is(
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
        use nbc_storage::recovery::class_codes;
        let mut classes: Vec<u8> =
            self.sites[ix].recovery_replies.iter().map(|&(_, _, c)| c).collect();
        classes.push(self.reported_class_of(ix));
        let commit = classes.contains(&class_codes::COMMITTED);
        self.finish(ix, commit);
        for j in 0..n {
            if j != ix && self.sites[j].mode != Mode::Down {
                self.send(ix, j, Wire::TermDecision { backup: ix, commit });
            }
        }
    }

    // ------------------------------------------------------------------
    // Reporting
    // ------------------------------------------------------------------

    /// Assemble the run's current outcome report (callable mid-run by
    /// the multiplexer once [`Runner::next_time`] returns `None`).
    pub fn report(&self) -> RunReport {
        let mut outcomes = Vec::with_capacity(self.sites.len());
        for s in &self.sites {
            let o = if s.mode == Mode::Down {
                // Inspect the durable log of the dead site.
                let recs =
                    nbc_storage::Wal::recover(s.wal.as_bytes()).expect("own log well-formed");
                let txn = self.config.txn_id;
                match summarize(&recs).iter().find(|t| t.txn == txn).map(|t| &t.outcome) {
                    Some(TxnOutcome::Committed) => SiteOutcome::DownCommitted,
                    Some(TxnOutcome::Aborted) => SiteOutcome::DownAborted,
                    _ => SiteOutcome::DownUndecided,
                }
            } else {
                match (s.outcome, &s.mode) {
                    (Some(true), _) => SiteOutcome::Committed,
                    (Some(false), _) => SiteOutcome::Aborted,
                    (None, Mode::Blocked) => SiteOutcome::Blocked,
                    (None, _) => SiteOutcome::InProgress,
                }
            };
            outcomes.push(o);
        }
        let trace = self.legacy.as_ref().map(|l| l.with(|s| s.lines.clone())).unwrap_or_default();
        let mut report = RunReport::assemble_with_trace(
            outcomes,
            self.net.stats().sent(),
            self.now,
            self.events,
            self.truncated,
            trace,
        );
        report.elections = self.elections;
        report
    }
}

/// The sites below `upto`, other than `ix` itself, that `view` (site `ix`'s)
/// holds operational.
fn peers_in(view: &[bool], upto: usize, ix: usize) -> impl Iterator<Item = usize> + '_ {
    (0..upto).filter(move |&j| j != ix && view[j])
}

/// Convenience: run one configuration, analysing the protocol only if
/// the run reaches the failure path.
pub fn run_one(protocol: &Protocol, config: RunConfig) -> RunReport {
    Runner::new(protocol, &OnceLock::new(), config).run()
}

/// As [`run_one`] with a shared analysis (for sweeps).
pub fn run_with<'a>(
    protocol: &'a Protocol,
    analysis: impl Into<AnalysisSource<'a>>,
    config: RunConfig,
) -> RunReport {
    Runner::new(protocol, analysis, config).run()
}

/// As [`run_with`], emitting typed events through `tracer`.
pub fn run_traced<'a>(
    protocol: &'a Protocol,
    analysis: impl Into<AnalysisSource<'a>>,
    config: RunConfig,
    tracer: Tracer,
) -> RunReport {
    Runner::with_tracer(protocol, analysis, config, tracer).run()
}
