//! Deterministic single-step hooks for schedule-exploring model checkers.
//!
//! The normal driver ([`Runner::step`]) pops events in simulation-time
//! order — one fixed interleaving per configuration. A model checker wants
//! the opposite: at every point, *enumerate* the events that could arrive
//! next and branch on each. This module exposes exactly that surface on
//! [`Runner`], without touching the time-ordered path:
//!
//! * [`Runner::pending_events`] — every scheduled network event with its
//!   stable sequence handle, in delivery order ([`Runner::iter_pending`]
//!   is the borrowing form for hot loops; a channel's events come head
//!   first in both);
//! * [`Runner::fire_scheduled`] / [`Runner::drop_scheduled`] — deliver or
//!   lose one chosen event, out of time order (per-link FIFO is the
//!   checker's responsibility: it should only fire a link's *head* event,
//!   which [`channel_of`] makes easy to compute);
//! * [`Runner::crash_now`] / [`Runner::recover_now`] /
//!   [`Runner::partition_now`] — inject a fault at the current instant
//!   instead of a pre-scheduled timer;
//! * [`Runner::digest`] — a canonical 128-bit fingerprint of the
//!   behavioral global state (sites, WALs, in-flight messages), the
//!   dedup key for explored-state sets. The digest deliberately excludes
//!   simulation time, event counts, and monitor-only data (the
//!   visited-state bitmaps), so two interleavings that converge to the
//!   same behavioral state merge;
//! * [`Independence`] — which enabled deliveries commute, and whose form a
//!   persistent set once only deliveries remain (below);
//! * [`Runner::inert`] — whether a pending event changes nothing a later
//!   step reads, so a checker may fire it at once instead of branching
//!   over where it lands (below).
//!
//! Exploration should run with zero latency and zero detection delay
//! (e.g. [`RunConfig::lockstep`](crate::RunConfig::lockstep)): then every
//! scheduled event sits at the same instant and *which one fires next* is
//! pure scheduler choice — logical time disappears from the state, which
//! is what makes the digest converge across interleavings.
//!
//! ## Which deliveries commute, and who may still send where
//!
//! Two deliveries into different sites commute ([`Independence::commute`]):
//! a handler mutates only the site it delivers into ([`Channel::dst`]) and
//! appends its sends to channel tails. Once only deliveries can come,
//! [`Independence::persistent_site`] bounds where the handlers of a site
//! z's future deliveries may send, while one site y stays silent, from z's
//! mode, local state, inbox, pending queries, pending notices and the
//! messages in flight to it. One row per `send` of `commit.rs`,
//! `termination.rs` and `recovery.rs` (a new `send` needs a row first):
//!
//! | z | sends | may send to |
//! |---|---|---|
//! | down | — | nobody |
//! | recovering | `WhatHappened`, `OutcomeIs`, the total-failure `TermDecision` | every site |
//! | backup of its own round | `AlignTo`, `TermDecision`, `TermBlocked` | every site |
//! | holding a failure notice that may elect it backup | the same, or a decided backup's `TermDecision` | every site |
//! | normal | `pump`'s protocol messages | the destinations of every FSA transition reachable from its local state whose trigger can be met without a new message from the silent site (one of its messages in z's inbox or in flight counts as met) |
//! | any up | `OutcomeIs` to its pending queries, on deciding or blocking | the sites in `pending_queries` |
//! | any up | `WhatHappened` on a recovery notice heard while blocked | the recovered site of each pending recovery notice |
//! | any up | `AlignAck`, `OutcomeIs` answering a request | a site with an `AlignTo` or `WhatHappened` in flight to z |
//!
//! A request sent to z later comes from a site that may step, which is
//! never the silent one, so its answer cannot reach the silent site. A
//! notice may elect z when z's view, less the sites its pending notices
//! name, keeps no lower-id site that an `AlignTo` could prune away: one
//! from backup b removes every site below b, and only a backup sends one,
//! so it is in flight already or comes from a site a notice may elect
//! first. `MaySend::closed_to` closes the bound over the sites a delivery
//! can wake and asks whether any of them may write to the silent site on a
//! link that is empty now.
//!
//! ## Inert events
//!
//! [`Runner::inert`] names a pending event e at the head of its channel
//! that commutes with every other step and stays inert until it fires, so
//! firing it at once reaches, for every execution, the state that
//! execution reaches once e has fired. It holds for two kinds:
//!
//! * **(a) A protocol message to a site y that has left the commit
//!   protocol** (y's mode is not `Normal`; y may be down).
//!   `Runner::deliver` drops it unread, as the engine drops every event
//!   into a down site, and only `SiteRt::reset`, at the start of a run,
//!   sets `Normal`: a crash sets `Down`, a restart `Recovering` or `Done`.
//!   So e stays a no-op whatever comes first, and a crash or a restart of
//!   y, before or after it, leaves one state. Under an imperfect detector a
//!   delivery renews a suspicion lease, which is a step of its own, so the
//!   rule needs the lockstep configuration's perfect detector. A crash of
//!   the sender that loses e ends where firing e and losing one send fewer
//!   does; only a lossy network (a budgeted drop of e) tells e's delivery
//!   from its loss, which the caller excludes.
//! * **(b) A failure notice the quorum absorbs, once nothing but
//!   deliveries can come** (`settled`: no crash, recovery, suspicion or
//!   unsuspicion). The notice writes the observer's view bit of the
//!   crashed site and takes it out of `recovered_peers`, and nothing else.
//!   Only a termination round reads those (`elected_backup`, `peers_in`,
//!   the stale-`AlignTo` rule), and in a quorum protocol no termination
//!   round runs: a view change that involves an acceptor never starts one,
//!   and a checker crashes and suspects acceptors only. Recovery rewrites
//!   the view, an unsuspicion sets the bit, a crash of the observer keeps
//!   it in a down site's digest, and a recovery notice on the same feed
//!   re-adds the peer: each would order against e, so `settled` and the
//!   head test exclude them.

use std::cell::RefCell;
use std::cmp::Reverse;

use nbc_core::{Consume, Fp128, Fsa, MsgKind, MultisetFp, Protocol, SiteId, StateId};
use nbc_simnet::{NetEvent, Time};

use crate::config::RunConfig;
use crate::run::{Runner, Timer};
use crate::site::{quorum_candidates, Mode, SiteCell, CLIENT_SRC};
use crate::wire::Wire;

/// The FIFO channel an event belongs to. Protocol and control messages
/// travel ordered per `(src, dst)` link; failure/recovery notices form one
/// ordered feed from the (perfect) detector to each observer. A model
/// checker must deliver events of one channel in order — only each
/// channel's head is a legal next delivery — while events of different
/// channels commute freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Channel {
    /// The `(src, dst)` message link.
    Link(usize, usize),
    /// The failure detector's feed to one observer.
    Detector(usize),
}

impl Channel {
    /// The site a delivery on this channel delivers into, the only one its handler mutates.
    #[inline]
    pub fn dst(self) -> usize {
        match self {
            Channel::Link(_, dst) | Channel::Detector(dst) => dst,
        }
    }
}

/// The channel of a scheduled event.
pub fn channel_of(ev: &NetEvent<Wire>) -> Channel {
    match ev {
        NetEvent::Deliver { src, dst, .. } => Channel::Link(*src, *dst),
        NetEvent::FailureNotice { observer, .. } | NetEvent::RecoveryNotice { observer, .. } => {
            Channel::Detector(*observer)
        }
    }
}

/// The independence relation a model checker's sleep and persistent sets
/// read, built once per protocol (see the module docs).
#[derive(Debug, Clone)]
pub struct Independence {
    n: usize,
    /// The protocol's half of the may-send bound,
    /// `fsa[row[site] + state * (n + 1) + absent]`: the destinations, as a
    /// site mask, of every FSA transition of `site` reachable from `state`
    /// through triggers that can be met without a new message from site
    /// `absent` (`absent == n`: every trigger can be met).
    fsa: Vec<u64>,
    /// `row[site]`: where `site`'s part of `fsa` starts. Empty past 64
    /// sites, the most a site mask holds: then no persistent set is named.
    row: Vec<usize>,
}

/// A state's half of the bound, filled by [`Independence::read`]. Site masks:
/// bit `i` is site `i`.
#[derive(Debug, Clone)]
struct MaySend {
    up: u64,
    /// Sites with an event pending on a channel into them.
    busy: u64,
    /// Sites that may send to every site.
    all: u64,
    /// Sites in [`Mode::Normal`], whose protocol messages depend on who
    /// stays silent.
    normal: u64,
    /// One row per site, the first `n` in use.
    rows: [Row; 64],
}

/// What [`MaySend`] knows of one site z.
#[derive(Debug, Clone, Copy, Default)]
struct Row {
    /// The sites with a message in flight to z.
    into: u64,
    /// The sites with an `AlignTo` or a `WhatHappened` in flight to z,
    /// which z answers.
    asks: u64,
    /// The backups with an `AlignTo` in flight to z.
    aligns: u64,
    /// Where z may send whoever stays silent, the protocol messages of a
    /// normal site aside.
    base: u64,
    /// For a normal z, the sites with a message in its inbox or in flight
    /// to it.
    heard: u64,
    /// The crashed sites of z's pending failure notices; then, if one of
    /// them drives termination, the lower-id sites of z's view none names.
    noticed: u64,
    /// Where z's local state starts in [`Independence::fsa`].
    fsa: usize,
}

impl Default for MaySend {
    fn default() -> Self {
        Self { up: 0, busy: 0, all: 0, normal: 0, rows: [Row::default(); 64] }
    }
}

thread_local! {
    /// [`Independence::persistent_site`]'s scratch: a call zeroes n rows, not 64.
    static MAY_SEND: RefCell<MaySend> = RefCell::new(MaySend::default());
}

fn bit(site: usize) -> u64 {
    1 << site
}

/// The sites below `site`.
fn below(site: usize) -> u64 {
    bit(site) - 1
}

/// The sites below the highest of `sites`.
fn below_highest(sites: u64) -> u64 {
    if sites == 0 {
        0
    } else {
        below(63 - sites.leading_zeros() as usize)
    }
}

/// Can `consume` be met without a new message from `absent`? Client
/// stimuli are in the inbox from the start, and every other site may send.
fn meetable(consume: &Consume, absent: Option<usize>) -> bool {
    let present =
        |&&(src, _): &&(SiteId, MsgKind)| src == SiteId::CLIENT || absent != Some(src.index());
    match consume {
        Consume::Spontaneous => true,
        Consume::All(v) => v.iter().all(|m| present(&m)),
        Consume::Any(v) => v.iter().any(|m| present(&m)),
        Consume::Quorum { k, srcs } => {
            quorum_candidates(srcs).filter(present).count() >= *k as usize
        }
    }
}

/// The destinations of every transition of `fsa` reachable from `from`
/// through triggers that can be met without a new message from `absent`.
/// `seen` and `todo` are scratch, kept for their allocations.
fn reachable_dests(
    fsa: &Fsa,
    from: StateId,
    absent: Option<usize>,
    n: usize,
    (seen, todo): (&mut Vec<bool>, &mut Vec<StateId>),
) -> u64 {
    seen.clear();
    seen.resize(fsa.state_count(), false);
    seen[from.index()] = true;
    todo.push(from);
    let mut dests = 0;
    while let Some(s) = todo.pop() {
        for (_, t) in fsa.outgoing(s).filter(|(_, t)| meetable(&t.consume, absent)) {
            let to = t.emit.iter().map(|e| e.dst.index()).filter(|&d| d < n);
            dests |= to.fold(0, |m, d| m | bit(d));
            if !std::mem::replace(&mut seen[t.to.index()], true) {
                todo.push(t.to);
            }
        }
    }
    dests
}

impl Independence {
    /// The relation for `protocol`, with each site's reachable protocol
    /// messages per local state and per site that may stay silent.
    pub fn new(protocol: &Protocol) -> Self {
        let n = protocol.n_sites();
        let (mut fsa, mut row) = (Vec::new(), Vec::new());
        let (mut seen, mut todo) = (Vec::new(), Vec::new());
        let fsas = if n <= 64 { protocol.fsas() } else { &[] };
        for site in fsas {
            row.push(fsa.len());
            for s in (0..site.state_count()).map(|s| StateId(s as u32)) {
                for absent in (0..n).map(Some).chain([None]) {
                    fsa.push(reachable_dests(site, s, absent, n, (&mut seen, &mut todo)));
                }
            }
        }
        Self { n, fsa, row }
    }

    /// Do the deliveries at the heads of `a` and `b`, both enabled, commute?
    /// They do when they deliver into different sites.
    #[inline]
    pub fn commute(&self, a: Channel, b: Channel) -> bool {
        a.dst() != b.dst()
    }

    /// Does [`Independence::persistent_site`] name sites? Not past 64 sites.
    pub fn names_persistent_sets(&self) -> bool {
        !self.row.is_empty()
    }

    /// The site y whose deliveries form a persistent set at `runner`, a
    /// state where every future step is a delivery and `channels` are
    /// pending: one the may-send bound proves no other site can, while y
    /// takes no step, put a message on an empty link into. Of those, the one
    /// with the fewest of `channels`, the lowest id on a tie. `None` when
    /// none qualifies, or when fewer than two sites have a delivery enabled.
    pub fn persistent_site(&self, runner: &Runner<'_>, channels: &[Channel]) -> Option<usize> {
        if !self.names_persistent_sets() {
            return None;
        }
        // At most 65 channels lead into one site.
        let mut targets: [(u8, u8); 64] = std::array::from_fn(|y| (0, y as u8));
        for &ch in channels {
            targets[ch.dst()].0 += 1;
        }
        let targets = &mut targets[..self.n];
        targets.sort_unstable();
        let first = targets.partition_point(|&(count, _)| count == 0);
        if first + 2 > self.n {
            return None;
        }
        MAY_SEND.with_borrow_mut(|may_send| {
            self.read(runner, may_send);
            let mut sites = targets[first..].iter().map(|&(_, y)| usize::from(y));
            sites.find(|&y| may_send.closed_to(self, y))
        })
    }

    /// Fill `out` with `runner`'s half of the bound. Meaningful only where
    /// every future step is a delivery: no crash, recovery, loss or
    /// suspicion can come, and no event is pending into a down site. Under
    /// an imperfect detector, whose heartbeats are steps of their own,
    /// every site may send anywhere.
    fn read(&self, runner: &Runner<'_>, out: &mut MaySend) {
        let n = self.n;
        let rows = &mut out.rows[..n];
        rows.fill(Row::default());
        let (mut busy, mut electing) = (0u64, 0u64);
        for (_, _, ev) in runner.iter_pending() {
            match *ev {
                NetEvent::Deliver { src, dst, ref msg } => {
                    let row = &mut rows[dst];
                    row.into |= bit(src);
                    busy |= bit(dst);
                    match msg {
                        Wire::AlignTo { .. } => {
                            row.asks |= bit(src);
                            row.aligns |= bit(src);
                        }
                        Wire::WhatHappened => row.asks |= bit(src),
                        _ => {}
                    }
                }
                NetEvent::FailureNotice { observer, crashed } => {
                    rows[observer].noticed |= bit(crashed);
                    busy |= bit(observer);
                    // A notice the quorum absorbs elects nobody.
                    if !runner.quorum_absorbs(observer, crashed) {
                        electing |= bit(observer);
                    }
                }
                NetEvent::RecoveryNotice { observer, recovered } => {
                    rows[observer].base |= bit(recovered);
                    busy |= bit(observer);
                }
            }
        }
        let backups = if electing == 0 { 0 } else { backups(runner, rows, electing) };
        let (mut up, mut all, mut normal) = (0u64, 0u64, 0u64);
        for ((z, site), row) in runner.sites().iter().enumerate().zip(rows.iter_mut()) {
            let zb = bit(z);
            match site.mode {
                Mode::Down => continue,
                Mode::Recovering => all |= zb,
                Mode::Terminating { backup } if backup == z => all |= zb,
                _ if backups & zb != 0 => all |= zb,
                Mode::Normal => {
                    normal |= zb;
                    let inbox = site.inbox.iter().filter(|&&(src, _)| src != CLIENT_SRC);
                    row.heard = row.into | inbox.fold(0, |m, &(src, _)| m | bit(src));
                    row.fsa = self.row[z] + site.state.index() * (n + 1);
                }
                _ => {}
            }
            up |= zb;
            row.base |= site.pending_queries.iter().fold(row.asks, |m, &q| m | bit(q));
        }
        if runner.detector.is_some() {
            all = up;
        }
        (out.up, out.busy, out.all, out.normal) = (up, busy, all, normal);
    }

    /// Where `z` may send while `silent` takes no step.
    fn sends(&self, m: &MaySend, z: usize, silent: usize) -> u64 {
        let zb = bit(z);
        if m.all & zb != 0 {
            return m.up;
        }
        let row = &m.rows[z];
        if m.normal & zb == 0 {
            return row.base;
        }
        let absent = if row.heard & bit(silent) != 0 { self.n } else { silent };
        row.base | self.fsa[row.fsa + absent]
    }
}

/// The `electing` sites a pending failure notice may elect backup. A notice
/// elects z when z's view, less the sites its pending notices name, holds
/// no lower-id site; an `AlignTo` from backup b prunes every site below b
/// from its receiver's view, and one reaches z only if it is in flight
/// already or comes from a site elected before. So the least fixpoint from
/// nobody holds every site that can be elected, in the order they can be.
fn backups(runner: &Runner<'_>, rows: &mut [Row], electing: u64) -> u64 {
    let sites = runner.sites();
    let mut rest = electing;
    while rest != 0 {
        let z = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        let mut lower = 0;
        for (j, &up) in sites[z].view[..z].iter().enumerate() {
            lower |= u64::from(up) << j;
        }
        rows[z].noticed = lower & !rows[z].noticed;
    }
    let mut backups = 0;
    loop {
        let (mut elected, mut rest) = (0, electing);
        while rest != 0 {
            let z = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if rows[z].noticed & !below_highest((rows[z].aligns | backups) & !bit(z)) == 0 {
                elected |= bit(z);
            }
        }
        if elected == backups {
            return backups;
        }
        backups = elected;
    }
}

impl MaySend {
    /// While site `y` takes no step, can no other site put a message on a
    /// link into `y` that is empty now? The sites that may step are those
    /// with an event pending and, closed over `bound`, those another may
    /// send to.
    fn closed_to(&self, bound: &Independence, y: usize) -> bool {
        let yb = bit(y);
        let mut active = self.busy & self.up & !yb;
        let mut todo = active;
        while todo != 0 {
            let z = todo.trailing_zeros() as usize;
            todo &= todo - 1;
            let sends = bound.sends(self, z, y);
            if sends & yb != 0 && self.rows[y].into & bit(z) == 0 {
                return false;
            }
            let woken = sends & self.up & !active & !yb;
            active |= woken;
            todo |= woken;
        }
        true
    }
}

// The parallel model checker forks a `Runner` per explored branch and
// moves forks across worker threads, so `Runner: Send` is part of the
// engine's public contract: a fork owns its sites, WALs and network
// outright, what it shares with its parent is immutable (the run
// configuration, behind `Arc`) or synchronised (a tracer sink, behind
// `Arc<Mutex<_>>`), and the one piece of interior mutability — each site
// slot's cached fingerprint, a `Cell` — is per runner, never shared.
// Keep it compile-time checked so an `Rc`/`RefCell` slipping into the
// engine fails here, not in the checker's thread spawn.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Runner<'static>>();
};

impl RunConfig {
    /// Zero-latency, zero-detection-delay configuration for model-checked
    /// exploration: every consequence of an action is scheduled at the
    /// current instant, so event *order* is entirely the explorer's
    /// choice and the behavioral digest carries no timing residue.
    pub fn lockstep(n: usize) -> Self {
        let mut c = Self::happy(n);
        c.latency = nbc_simnet::LatencyModel::constant(0);
        c.detect_delay = 0;
        c
    }
}

impl<'a> Runner<'a> {
    /// Read-only view of the per-site runtimes (states, inboxes, WALs,
    /// modes, visited-state monitors); each slot derefs to its
    /// [`SiteRt`](crate::site::SiteRt).
    pub fn sites(&self) -> &[SiteCell] {
        &self.sites
    }

    /// Every pending network event as `(time, sequence handle, event)`,
    /// borrowed, in delivery order — the allocation-free form of
    /// [`Runner::pending_events`]. Delivery order (and FIFO order within a
    /// [`Channel`]) is ascending `(time, sequence)`: the first event of a
    /// channel met is its head.
    pub fn iter_pending(&self) -> impl Iterator<Item = (Time, u64, &NetEvent<Wire>)> {
        self.net.iter_scheduled()
    }

    /// Every pending network event as `(sequence handle, event)`, in
    /// delivery order: ascending `(time, send order)`.
    pub fn pending_events(&self) -> Vec<(u64, NetEvent<Wire>)> {
        self.net.scheduled().into_iter().map(|(_, seq, ev)| (seq, ev.clone())).collect()
    }

    /// Deliver one specific pending event now, identified by the sequence
    /// handle from [`Runner::pending_events`], and run every site reaction
    /// it triggers to quiescence. Returns `false` if no such event is
    /// pending.
    pub fn fire_scheduled(&mut self, seq: u64) -> bool {
        let Some((_, ev)) = self.net.take_seq(seq) else {
            return false;
        };
        self.events += 1;
        self.handle_net(ev);
        true
    }

    /// Lose one specific pending event: it is removed and never arrives
    /// (counted as a drop in the network stats). Returns `false` if no
    /// such event is pending.
    pub fn drop_scheduled(&mut self, seq: u64) -> bool {
        self.events += 1;
        self.net.drop_seq(self.now, seq).is_some()
    }

    /// Crash `site` at the current instant: volatile state is lost, the
    /// synced WAL prefix survives, and failure notices are scheduled to
    /// every other site (after the configured detection delay; zero under
    /// [`RunConfig::lockstep`]). No-op if the site is already down.
    pub fn crash_now(&mut self, site: usize) {
        self.events += 1;
        self.crash_site(site);
    }

    /// Restart `site` at the current instant: it replays its durable WAL
    /// and runs the paper's recovery protocol. No-op unless the site is
    /// down.
    pub fn recover_now(&mut self, site: usize) {
        self.events += 1;
        self.recover_site(site);
    }

    /// Partition the network at the current instant (`groups[i]` = site
    /// `i`'s group): in-flight cross-group messages are dropped, future
    /// ones too, and every site learns the other side "failed" — told so
    /// by the perfect detector, or suspecting it under an imperfect one —
    /// the deliberate assumption violation of experiment X3.
    pub fn partition_now(&mut self, groups: Vec<usize>) {
        self.events += 1;
        self.set_partition(Some(groups));
    }

    /// Heal a partition at the current instant. An imperfect detector
    /// re-arms the heartbeats across the old cut, so the suspicions the
    /// cut raised clear.
    pub fn heal_now(&mut self) {
        self.events += 1;
        self.set_partition(None);
    }

    /// Make `observer` suspect `peer` at the current instant — the
    /// checker's handle on imperfect failure detection. Unlike
    /// [`Runner::crash_now`], the peer keeps running: this explores
    /// *false* suspicion of a live site (and true suspicion orderings,
    /// when combined with crashes). The observer reacts exactly as it
    /// would to a failure notice, except the suspicion is revocable via
    /// [`Runner::unsuspect_now`]. No-op if the observer is down or
    /// already suspects the peer.
    pub fn suspect_now(&mut self, observer: usize, peer: usize) {
        self.events += 1;
        self.on_suspect(observer, peer);
    }

    /// Clear `observer`'s suspicion of `peer` at the current instant —
    /// evidence of life arrived. The peer rejoins the observer's view; a
    /// terminating or blocked observer re-elects over the restored view.
    /// No-op unless the suspicion is currently held.
    pub fn unsuspect_now(&mut self, observer: usize, peer: usize) {
        self.events += 1;
        self.on_unsuspect(observer, peer);
    }

    /// Is `pending`, an event of [`Runner::iter_pending`], inert: at the
    /// head of its channel, and commuting with every other step until it
    /// fires (the module docs give both rules and why)? `settled` is the
    /// caller's promise that no crash, recovery, suspicion or unsuspicion
    /// will come; without it only rule (a) applies. Other events into a
    /// down site are the caller's to judge: they are no-ops until a
    /// restart.
    pub fn inert(&self, (_, seq, ev): (Time, u64, &NetEvent<Wire>), settled: bool) -> bool {
        let named = match *ev {
            NetEvent::Deliver { dst, msg: Wire::Proto(_), .. } => {
                self.detector.is_none() && self.sites[dst].mode != Mode::Normal
            }
            NetEvent::FailureNotice { observer, crashed } => {
                settled && self.quorum_absorbs(observer, crashed)
            }
            _ => false,
        };
        if !named {
            return false;
        }
        // Delivery order meets a channel's head first.
        let ch = channel_of(ev);
        let head = self.net.iter_scheduled().find(|&(_, _, ev2)| channel_of(ev2) == ch);
        head.is_some_and(|(_, head, _)| head == seq)
    }

    /// True when no network event is pending — with no fault injection
    /// forthcoming, the run can change state no further.
    pub fn net_quiescent(&self) -> bool {
        self.net.pending() == 0
    }

    /// Canonical 128-bit fingerprint of the behavioral global state: per
    /// site its mode, local FSA state, inbox (as a multiset), full WAL
    /// image with durable watermark, operational view, alignment, backup
    /// bookkeeping, outcome and recovery-protocol bookkeeping; plus the
    /// in-flight messages of every FIFO channel in order, pending timers,
    /// and the partition assignment. Excluded on purpose: simulation time,
    /// event counts, per-site transition-attempt counters (crash-point
    /// bookkeeping) and the visited-state monitors — none of them alter
    /// future behavior under exploration, and including them would stop
    /// converging interleavings from deduplicating.
    ///
    /// One allocation-free pass into the pinned [`Fp128`] hasher: each
    /// site contributes its cached [`SiteCell::digest`] at its own
    /// position (so only sites mutated since the last call are re-hashed,
    /// and swapping two sites' contents changes the result), followed by
    /// the network, the timers and the partition. The order-free parts —
    /// the set of channels, the timer set — are combined commutatively
    /// ([`MultisetFp`]); order *within* a channel is kept by hashing each
    /// event with its rank in its channel.
    pub fn digest(&self) -> u128 {
        let mut h = Fp128::new();
        for s in &self.sites {
            h.write_u128(s.digest());
        }
        let mut in_flight = MultisetFp::default();
        for (i, (_, _, ev)) in self.net.iter_scheduled().enumerate() {
            let ch = channel_of(ev);
            // Delivery order puts a channel's earlier events before it.
            let rank = self
                .net
                .iter_scheduled()
                .take(i)
                .filter(|&(_, _, ev2)| channel_of(ev2) == ch)
                .count();
            let mut eh = Fp128::new();
            match ch {
                Channel::Link(src, dst) => {
                    eh.write_u8(0);
                    eh.write_usize(src);
                    eh.write_usize(dst);
                }
                Channel::Detector(observer) => {
                    eh.write_u8(1);
                    eh.write_usize(observer);
                }
            }
            eh.write_usize(rank);
            match ev {
                NetEvent::Deliver { msg, .. } => {
                    eh.write_u8(0);
                    msg.fingerprint_into(&mut eh);
                }
                NetEvent::FailureNotice { crashed, .. } => {
                    eh.write_u8(1);
                    eh.write_usize(*crashed);
                }
                NetEvent::RecoveryNotice { recovered, .. } => {
                    eh.write_u8(2);
                    eh.write_usize(*recovered);
                }
            }
            in_flight.add(eh.finish());
        }
        in_flight.write_into(&mut h);
        let mut timers = MultisetFp::default();
        for &Reverse((at, timer)) in &self.timers {
            let mut th = Fp128::new();
            th.write_u64(at);
            match timer {
                Timer::Crash(s) => {
                    th.write_u8(0);
                    th.write_usize(s);
                }
                Timer::Recover(s) => {
                    th.write_u8(1);
                    th.write_usize(s);
                }
                Timer::Partition => th.write_u8(2),
            }
            timers.add(th.finish());
        }
        timers.write_into(&mut h);
        match self.net.partition_groups() {
            None => h.write_u8(0),
            Some(groups) => {
                h.write_u8(1);
                h.write_usize(groups.len());
                for &g in groups {
                    h.write_usize(g);
                }
            }
        }
        h.finish()
    }

    /// A fork caching nothing: its [`Runner::digest`] is recomputed from
    /// scratch, which is what the cache-coherence tests compare the cached
    /// value against.
    #[cfg(test)]
    pub(crate) fn deep_copy(&self) -> Self {
        let mut copy = self.clone();
        copy.sites = self.sites.iter().map(SiteCell::deep_copy).collect();
        copy
    }
}
