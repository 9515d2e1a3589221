//! The discrete-event run loop: executes one distributed transaction under
//! a protocol, a vote plan, and a crash schedule, with the paper's
//! termination and recovery protocols.
//! Its handlers follow the paper's seams: `commit.rs` (normal operation),
//! `termination.rs` and `recovery.rs`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};

use nbc_core::{Analysis, Fsa, Protocol, ReachOptions, SiteId};
use nbc_obs::{EventKind, Tracer};
use nbc_simnet::{DetectorEvent, LatencyModel, NetEvent, Network, Suspicion, Time};
use nbc_storage::recovery::TxnOutcome;

use crate::config::{CrashPoint, RunConfig, TransitionProgress};
use crate::report::{RunReport, SiteOutcome};
use crate::site::{Mode, SiteCell, SiteRt, CLIENT_SRC};
use crate::wire::Wire;

/// Transaction id used for single-transaction runs.
pub(crate) const TXN: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Timer {
    Crash(usize),
    Recover(usize),
    Partition,
}

/// The queues a run's events come from, in tie-break order: at one
/// instant deliveries come before detector checks (a message arriving at
/// the deadline is evidence of life and wins — the timeout boundary), and
/// detector checks before crash, recovery and partition timers.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Queue {
    Net,
    Detector,
    Timer,
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
    pub(crate) transition_crashes: Vec<Option<(u32, TransitionProgress, Option<Time>)>>,
    /// Current simulation time.
    pub(crate) now: Time,
    pub(crate) events: usize,
    truncated: bool,
    /// Timeout-based failure detection, replacing the network's perfect
    /// detector when the config carries an *inaccurate* [`DetectorSpec`]
    /// (accurate specs degenerate to the perfect detector by construction
    /// — that equivalence is tested). With a detector, crashes, recoveries
    /// and partitions are learned by suspicion timers, never by notice.
    ///
    /// [`DetectorSpec`]: crate::config::DetectorSpec
    pub(crate) detector: Option<Suspicion>,
    /// Backup elections entered (termination-protocol rounds), for the
    /// run report — a counter, so it works untraced.
    pub(crate) elections: u64,
    /// Observability handle; every protocol action is emitted through it
    /// as a typed event (no-op when no sink is attached).
    pub(crate) tracer: Tracer,
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
        }
    }

    /// Become a fork of `source` in this runner's storage, whatever run it
    /// held: every site slot, WAL buffer, inbox, event queue and link table
    /// is overwritten in place (a site slot's cached fingerprint with the
    /// source's — see [`SiteCell`]). The source's site slots are stamped
    /// first, so a slot this runner already holds under the same stamp — a
    /// site the last fork from `source` left alone — is not copied at all.
    /// Destructured in full so a new field cannot be left out of a fork.
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
        } = self;
        *protocol = source.protocol;
        *analysis = source.analysis;
        if !Arc::ptr_eq(config, &source.config) {
            config.clone_from(&source.config);
        }
        net.clone_from(&source.net);
        source.sites.iter().for_each(SiteCell::stamp);
        sites.clone_from(&source.sites);
        timers.clone_from(&source.timers);
        transition_crashes.clone_from(&source.transition_crashes);
        *now = source.now;
        *events = source.events;
        *truncated = source.truncated;
        detector.clone_from(&source.detector);
        *elections = source.elections;
        tracer.clone_from(&source.tracer);
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
    /// as typed [`Event`](nbc_obs::Event)s (state transitions, votes,
    /// message traffic, WAL activity, elections, decisions, crashes). The
    /// tracer is also handed to the network, which reports partition drops
    /// through it.
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
            detector: None,
            elections: 0,
        };
        shell.arm()
    }

    /// Run `config` on this runner's protocol in the storage of a run that
    /// is over: the event queue, the link tables, the timers, the site cells
    /// and their inbox, view and WAL buffers are cleared and re-armed in
    /// place instead of being dropped and allocated again. The result is
    /// indistinguishable from [`Runner::with_tracer`] on the same
    /// protocol, analysis, `config` and `tracer` — same report, same
    /// digest after every step, same WAL bytes, same events.
    ///
    /// # Panics
    /// As [`Runner::new`].
    pub fn recycle(self, config: RunConfig, tracer: Tracer) -> Self {
        self.recycle_with(tracer, |_| config)
    }

    /// As [`Runner::recycle`], with the configuration `configure` makes of
    /// the spent run's: the configuration is rewritten in place when this
    /// runner is its only holder, so the round pays for no new one, and
    /// `configure` may keep what storage of the spent one it likes (a vote
    /// vector, say).
    ///
    /// # Panics
    /// As [`Runner::new`].
    pub fn recycle_with(
        mut self,
        tracer: Tracer,
        configure: impl FnOnce(RunConfig) -> RunConfig,
    ) -> Self {
        match Arc::get_mut(&mut self.config) {
            Some(config) => {
                // `happy(0)` allocates nothing: a placeholder while `configure` runs.
                let spent = std::mem::replace(config, RunConfig::happy(0));
                *config = configure(spent);
            }
            None => self.config = Arc::new(configure(RunConfig::clone(&self.config))),
        }
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
        self.net.reset(config.latency.clone(), config.detect_delay);
        self.net.set_tracer(self.tracer.clone());
        for i in 0..n {
            let fsa = protocol.fsa(SiteId(i as u32));
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
        // so the run takes the perfect detector's notices verbatim. The
        // detector tests pin this filter byte for byte.
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
    pub(crate) fn analysis(&self) -> &'a Analysis {
        match self.analysis {
            AnalysisSource::Built(analysis) => analysis,
            AnalysisSource::OnDemand(cell) => cell.get_or_init(|| {
                let opts = ReachOptions::default().with_streaming(true);
                Analysis::build_with(self.protocol, opts).expect("protocol analyzable")
            }),
        }
    }

    /// Site `ix`'s automaton.
    pub(crate) fn fsa(&self, ix: usize) -> &'a Fsa {
        self.protocol.fsa(SiteId(ix as u32))
    }

    /// Execute to quiescence and report.
    pub(crate) fn run(mut self) -> RunReport {
        while self.step() {}
        self.report()
    }

    /// The time of the next pending event (network delivery, failure
    /// notice, or timer), or `None` if the run is quiescent. Never moves
    /// backwards; the multiplexer uses it to interleave concurrent runs in
    /// global time order.
    pub fn next_time(&self) -> Option<Time> {
        self.next_due().map(|(t, _)| t)
    }

    /// The next pending event's time and queue: the earliest time, ties
    /// broken in [`Queue`] order.
    fn next_due(&self) -> Option<(Time, Queue)> {
        let net = self.net.peek_time().map(|t| (t, Queue::Net));
        let detector = self.detector_deadline().map(|t| (t, Queue::Detector));
        let timer = self.timers.peek().map(|&Reverse((t, _))| (t, Queue::Timer));
        [net, detector, timer].into_iter().flatten().min()
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
        let Some((t, queue)) = self.next_due() else {
            return false;
        };
        self.now = t;
        self.events += 1;
        match queue {
            Queue::Net => {
                let (_, ev) = self.net.next_event().expect("peeked");
                self.handle_net(ev);
            }
            Queue::Detector => {
                let fired = self.detector.as_mut().expect("deadline implies a detector").poll(t);
                for e in fired {
                    match e {
                        DetectorEvent::Suspect { observer, peer } => {
                            self.on_suspect(observer, peer)
                        }
                        DetectorEvent::Unsuspect { observer, peer } => {
                            self.on_unsuspect(observer, peer)
                        }
                    }
                }
            }
            Queue::Timer => {
                let Reverse((_, timer)) = self.timers.pop().expect("peeked");
                match timer {
                    Timer::Crash(site) => self.crash_site(site),
                    Timer::Recover(site) => self.recover_site(site),
                    Timer::Partition => {
                        let spec = self.config.partition.as_ref();
                        let groups = spec.expect("partition timer implies a spec").groups.clone();
                        let io = self.io();
                        io.tracer
                            .emit(|| io.ev(EventKind::Partition { groups: format!("{groups:?}") }));
                        self.set_partition(Some(groups));
                    }
                }
            }
        }
        true
    }

    /// Cut the network into `groups` (`groups[i]` is site `i`'s group), or
    /// heal it with `None`: the one partition path. The perfect detector
    /// tells each side the other failed; an imperfect one learns the cut,
    /// suspects across it at each observer's timeout, and re-arms the
    /// heartbeats a heal reconnects.
    pub(crate) fn set_partition(&mut self, groups: Option<Vec<usize>>) {
        if let Some(d) = self.detector.as_mut() {
            d.set_groups(self.now, groups.clone());
        }
        match groups {
            None => self.net.heal(),
            Some(groups) if self.detector.is_some() => self.net.partition_silent(self.now, groups),
            Some(groups) => self.net.partition(self.now, groups),
        }
    }

    pub(crate) fn handle_net(&mut self, ev: NetEvent<Wire>) {
        match ev {
            NetEvent::Deliver { src, dst, msg } => {
                // Delivery is traced even to a down site — the network did
                // its job; the dead site just never reads the message. This
                // keeps sent == delivered + dropped at quiescence.
                self.io().emit(dst, || EventKind::MsgDeliver {
                    src: src as u32,
                    label: msg.to_string(),
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
            // A down site hears no notice.
            NetEvent::FailureNotice { observer, .. }
            | NetEvent::RecoveryNotice { observer, .. }
                if self.sites[observer].mode == Mode::Down => {}
            NetEvent::FailureNotice { observer, crashed } => {
                self.io().emit(observer, || EventKind::FailureNotice { crashed: crashed as u32 });
                self.on_failure_notice(observer, crashed);
            }
            NetEvent::RecoveryNotice { observer, recovered } => {
                self.io()
                    .emit(observer, || EventKind::RecoveryNotice { recovered: recovered as u32 });
                self.on_recovery_notice(observer, recovered);
            }
        }
    }

    /// Hand `msg` to the handler of its protocol; `dst` is up.
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
            Wire::TermDecision { commit, .. } => self.on_term_decision(dst, commit),
            Wire::TermBlocked { backup } => self.on_term_blocked(dst, backup),
            Wire::WhatHappened => self.on_what_happened(dst, src),
            Wire::OutcomeIs { outcome, class, settled } => {
                self.on_outcome_is(dst, src, outcome, class, settled)
            }
        }
    }

    /// Assemble the run's current outcome report (callable mid-run by
    /// the multiplexer once [`Runner::next_time`] returns `None`).
    pub fn report(&self) -> RunReport {
        let mut outcomes = Vec::with_capacity(self.sites.len());
        for s in &self.sites {
            let o = if s.mode == Mode::Down {
                match s.durable_outcome(self.config.txn_id) {
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
        let mut report =
            RunReport::assemble(outcomes, self.net.sent(), self.now, self.events, self.truncated);
        report.elections = self.elections;
        report
    }
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
