//! Deterministic single-step hooks for schedule-exploring model checkers.
//!
//! The normal driver ([`Runner::step`]) pops events in simulation-time
//! order — one fixed interleaving per configuration. A model checker wants
//! the opposite: at every point, *enumerate* the events that could arrive
//! next and branch on each. This module exposes exactly that surface on
//! [`Runner`], without touching the time-ordered path:
//!
//! * [`Runner::pending_events`] — every scheduled network event with its
//!   stable sequence handle, in deterministic order ([`Runner::iter_pending`]
//!   is the borrowing, unordered form for hot loops);
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
//!   same behavioral state merge.
//!
//! Exploration should run with zero latency and zero detection delay
//! (e.g. [`RunConfig::lockstep`](crate::RunConfig::lockstep)): then every
//! scheduled event sits at the same instant and *which one fires next* is
//! pure scheduler choice — logical time disappears from the state, which
//! is what makes the digest converge across interleavings.

use std::cmp::Reverse;

use nbc_core::{Fp128, MultisetFp};
use nbc_simnet::{NetEvent, Time};

use crate::config::RunConfig;
use crate::run::{Runner, Timer};
use crate::site::SiteCell;
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

/// The channel of a scheduled event.
pub fn channel_of(ev: &NetEvent<Wire>) -> Channel {
    match ev {
        NetEvent::Deliver { src, dst, .. } => Channel::Link(*src, *dst),
        NetEvent::FailureNotice { observer, .. } | NetEvent::RecoveryNotice { observer, .. } => {
            Channel::Detector(*observer)
        }
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

    /// The protocol this run executes.
    pub fn protocol(&self) -> &'a nbc_core::Protocol {
        self.protocol
    }

    /// Every pending network event as `(time, sequence handle, event)`,
    /// borrowed, in **unspecified** order — the allocation-free form of
    /// [`Runner::pending_events`]. Delivery order (and FIFO order within a
    /// [`Channel`]) is ascending `(time, sequence)`.
    pub fn iter_pending(&self) -> impl Iterator<Item = (Time, u64, &NetEvent<Wire>)> {
        self.net.iter_scheduled()
    }

    /// Every pending network event as `(sequence handle, event)`, in
    /// deterministic `(time, send order)` order.
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
        for (at, seq, ev) in self.net.iter_scheduled() {
            let ch = channel_of(ev);
            let rank = self
                .net
                .iter_scheduled()
                .filter(|&(at2, seq2, ev2)| (at2, seq2) < (at, seq) && channel_of(ev2) == ch)
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
