//! Timeout-based failure suspicion: the imperfect detector.
//!
//! The paper assumes a *perfect* failure detector — every crash is
//! reported, accurately, to every operational site ([`Network::crash`]
//! models exactly that). Real networks only offer *silence*: a site
//! suspects a peer when it has heard nothing for a timeout, and silence
//! cannot distinguish a crashed peer from a slow or partitioned one. This
//! module models that boundary: per-`(observer, peer)` suspicion timers
//! driven by message arrivals, with a configurable timeout and a
//! heartbeat-latency distribution that decides how often a *live* peer is
//! falsely suspected.
//!
//! ## Model
//!
//! Every observer conceptually pings every peer once per `timeout`
//! window. At each check deadline the detector samples the heartbeat's
//! round-trip latency from `jitter`:
//!
//! * a **down or unreachable** peer stays silent — the observer suspects
//!   it (accurate suspicion) and hears nothing more until the peer
//!   recovers or the partition heals;
//! * a live peer whose heartbeat lands within the timeout renews the
//!   lease (and clears a stale suspicion — recovery/heal detection);
//! * a live peer whose heartbeat takes *longer* than the timeout is
//!   **falsely suspected** now and unsuspected when the late heartbeat
//!   lands (`check + (latency − timeout)`).
//!
//! Real protocol messages count as heartbeats too: [`Suspicion::heard`]
//! renews the peer's lease at delivery time, so a chatty link never
//! falsely suspects. Deliveries at exactly the check deadline win the
//! tie — the driver processes network events before detector deadlines at
//! equal times, which fixes the timeout boundary unambiguously (a message
//! at `t` prevents the suspicion scheduled for `t`).
//!
//! With `jitter` bounded by the timeout the detector is *accurate* (it
//! never falsely suspects) and degenerates to the paper's perfect
//! detector with detection latency ≤ `timeout`.
//!
//! [`Network::crash`]: crate::Network::crash

use crate::latency::LatencyModel;
use crate::net::{SiteIx, Time};

/// A suspicion-state change reported by [`Suspicion::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorEvent {
    /// `observer` now suspects `peer` has failed.
    Suspect {
        /// The suspecting site.
        observer: SiteIx,
        /// The suspected site.
        peer: SiteIx,
    },
    /// `observer` clears its suspicion of `peer` (evidence of life).
    Unsuspect {
        /// The site clearing the suspicion.
        observer: SiteIx,
        /// The peer now trusted again.
        peer: SiteIx,
    },
}

/// Parked deadline: the pair cannot change state until an external event
/// (recovery, heal, message arrival) re-arms it.
const PARKED: Time = Time::MAX;

/// One `(observer, peer)` monitoring relationship.
#[derive(Debug, Clone, Copy)]
struct Pair {
    /// Last time the observer had evidence the peer is alive.
    last_heard: Time,
    /// Next suspicion-check deadline ([`PARKED`] while nothing can
    /// change without external input).
    check_at: Time,
    /// Scheduled end of a false suspicion: the late heartbeat's arrival.
    clear_at: Option<Time>,
    /// The observer currently suspects the peer.
    suspected: bool,
}

/// Per-site suspicion timers over `n` sites — the imperfect failure
/// detector. Pure timer arithmetic: the simulation driver feeds it
/// arrivals ([`Suspicion::heard`]) and liveness ground truth
/// ([`Suspicion::site_down`] / [`Suspicion::site_up`] /
/// [`Suspicion::set_groups`]), polls it at its own deadlines, and turns
/// the emitted [`DetectorEvent`]s into protocol reactions.
#[derive(Debug, Clone)]
pub struct Suspicion {
    n: usize,
    timeout: Time,
    jitter: LatencyModel,
    /// `pairs[observer * n + peer]`.
    pairs: Vec<Pair>,
    /// Ground-truth liveness, as told by the driver.
    down: Vec<bool>,
    /// Partition assignment, when partitioned (cross-group pairs are
    /// unreachable and will be — accurately — suspected).
    groups: Option<Vec<usize>>,
}

impl Suspicion {
    /// A detector for `n` sites: suspect after `timeout` units of
    /// silence, heartbeat latency sampled from `jitter` at each check.
    /// All leases start at `start`.
    ///
    /// # Panics
    /// Panics if `timeout` is zero (a zero lease would suspect everyone
    /// instantly and forever).
    pub fn new(n: usize, timeout: Time, jitter: LatencyModel, start: Time) -> Self {
        assert!(timeout > 0, "suspicion timeout must be positive");
        let pair =
            Pair { last_heard: start, check_at: start + timeout, clear_at: None, suspected: false };
        Self { n, timeout, jitter, pairs: vec![pair; n * n], down: vec![false; n], groups: None }
    }

    /// Does `observer` currently suspect `peer`?
    #[cfg(test)]
    pub(crate) fn suspected(&self, observer: SiteIx, peer: SiteIx) -> bool {
        self.pairs[observer * self.n + peer].suspected
    }

    fn cut(&self, a: SiteIx, b: SiteIx) -> bool {
        self.groups.as_ref().is_some_and(|g| g[a] != g[b])
    }

    /// Record evidence of life: a message from `peer` arrived at
    /// `observer` at `now`. Renews the lease and cancels any pending
    /// false-suspicion clearance. Returns `true` if the peer was
    /// suspected — the caller should emit/handle an unsuspicion.
    pub fn heard(&mut self, now: Time, observer: SiteIx, peer: SiteIx) -> bool {
        if observer == peer || self.down[observer] {
            return false;
        }
        let p = &mut self.pairs[observer * self.n + peer];
        p.last_heard = now;
        p.check_at = now + self.timeout;
        p.clear_at = None;
        std::mem::take(&mut p.suspected)
    }

    /// The earliest pending detector deadline (check or scheduled
    /// clearance) over all pairs with an operational observer, or `None`
    /// when every pair is parked — silence that no amount of waiting
    /// will break.
    pub fn next_deadline(&self) -> Option<Time> {
        let mut min: Option<Time> = None;
        for observer in 0..self.n {
            if self.down[observer] {
                continue;
            }
            for peer in 0..self.n {
                if peer == observer {
                    continue;
                }
                let p = &self.pairs[observer * self.n + peer];
                let t = match p.clear_at {
                    Some(c) => c.min(p.check_at),
                    None => p.check_at,
                };
                if t != PARKED {
                    min = Some(min.map_or(t, |m: Time| m.min(t)));
                }
            }
        }
        min
    }

    /// Fire every deadline due by `now`, in `(observer, peer)` order,
    /// and return the suspicion-state changes. Deterministic: the same
    /// call sequence yields the same events (the jitter stream is the
    /// only randomness, and it is seeded).
    pub fn poll(&mut self, now: Time) -> Vec<DetectorEvent> {
        let mut out = Vec::new();
        for observer in 0..self.n {
            if self.down[observer] {
                continue;
            }
            for peer in 0..self.n {
                if peer == observer {
                    continue;
                }
                let cut = self.cut(observer, peer);
                let peer_down = self.down[peer];
                let ix = observer * self.n + peer;
                // A pending clearance: the late heartbeat lands.
                if let Some(t) = self.pairs[ix].clear_at {
                    if t <= now {
                        let p = &mut self.pairs[ix];
                        p.clear_at = None;
                        if p.suspected && !peer_down && !cut {
                            p.suspected = false;
                            p.last_heard = t;
                            p.check_at = t + self.timeout;
                            out.push(DetectorEvent::Unsuspect { observer, peer });
                        } else {
                            // The peer died (or was cut off) while falsely
                            // suspected: the suspicion stands, and nothing
                            // further will arrive.
                            p.check_at = PARKED;
                        }
                    }
                }
                // Check deadlines (possibly several, if time leapt).
                while self.pairs[ix].clear_at.is_none() && self.pairs[ix].check_at <= now {
                    let at = self.pairs[ix].check_at;
                    if peer_down || cut {
                        // Genuine silence: suspect (once) and park — only
                        // recovery or healing re-arms this pair.
                        let p = &mut self.pairs[ix];
                        p.check_at = PARKED;
                        if !p.suspected {
                            p.suspected = true;
                            out.push(DetectorEvent::Suspect { observer, peer });
                        }
                    } else {
                        let hb = self.jitter.sample();
                        if hb > self.timeout {
                            // Late heartbeat: falsely suspect now, clear
                            // when it lands.
                            let p = &mut self.pairs[ix];
                            p.clear_at = Some(at + (hb - self.timeout));
                            p.check_at = PARKED;
                            if !p.suspected {
                                p.suspected = true;
                                out.push(DetectorEvent::Suspect { observer, peer });
                            }
                        } else {
                            // Heartbeat in time: renew the lease; clears a
                            // stale suspicion (recovery/heal detection).
                            let p = &mut self.pairs[ix];
                            if p.suspected {
                                p.suspected = false;
                                out.push(DetectorEvent::Unsuspect { observer, peer });
                            }
                            p.last_heard = at;
                            p.check_at = at + self.timeout;
                        }
                    }
                }
            }
        }
        out
    }

    /// Ground truth: `site` crashed. Its own observations freeze (a dead
    /// observer suspects no one) until [`Suspicion::site_up`].
    pub fn site_down(&mut self, site: SiteIx) {
        self.down[site] = true;
    }

    /// Ground truth: `site` recovered at `now`. Its own monitoring
    /// restarts with a clean slate (a recovered site trusts everyone —
    /// mirroring the engine's fresh recovery view), while its peers'
    /// *standing suspicions of it* are kept and re-armed, so each
    /// observer detects the recovery at its own next check rather than
    /// by oracle.
    pub fn site_up(&mut self, now: Time, site: SiteIx) {
        self.down[site] = false;
        for other in 0..self.n {
            if other == site {
                continue;
            }
            // Peers re-check the recovered site (suspicion kept until a
            // heartbeat proves life).
            let p = &mut self.pairs[other * self.n + site];
            p.last_heard = now;
            p.check_at = now + self.timeout;
            p.clear_at = None;
            // The recovered site starts monitoring afresh.
            let q = &mut self.pairs[site * self.n + other];
            q.last_heard = now;
            q.check_at = now + self.timeout;
            q.clear_at = None;
            q.suspected = false;
        }
    }

    /// Ground truth: the partition assignment changed at `now` (`None` =
    /// healed). Newly-cut pairs will be suspected at their next check;
    /// parked pairs whose peer became reachable again are re-armed so
    /// the heal is detected by heartbeat.
    pub fn set_groups(&mut self, now: Time, groups: Option<Vec<usize>>) {
        self.groups = groups;
        for observer in 0..self.n {
            for peer in 0..self.n {
                if peer == observer || self.down[observer] || self.down[peer] {
                    continue;
                }
                if self.cut(observer, peer) {
                    continue;
                }
                let p = &mut self.pairs[observer * self.n + peer];
                if p.check_at == PARKED && p.clear_at.is_none() {
                    p.last_heard = now;
                    p.check_at = now + self.timeout;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accurate(n: usize, timeout: Time) -> Suspicion {
        // Heartbeats always arrive instantly: never a false suspicion.
        Suspicion::new(n, timeout, LatencyModel::constant(0), 0)
    }

    fn events(v: &[DetectorEvent]) -> Vec<(bool, SiteIx, SiteIx)> {
        v.iter()
            .map(|e| match *e {
                DetectorEvent::Suspect { observer, peer } => (true, observer, peer),
                DetectorEvent::Unsuspect { observer, peer } => (false, observer, peer),
            })
            .collect()
    }

    #[test]
    fn silence_of_a_down_peer_is_suspected_at_exactly_the_timeout() {
        let mut d = accurate(2, 5);
        d.site_down(1);
        // One tick before the deadline: nothing.
        assert!(d.poll(4).is_empty());
        assert!(!d.suspected(0, 1));
        // At the deadline: suspected.
        let evs = d.poll(5);
        assert_eq!(events(&evs), vec![(true, 0, 1)]);
        assert!(d.suspected(0, 1));
        // Suspicion is reported once, then the pair parks.
        assert!(d.poll(100).is_empty());
        assert_eq!(d.next_deadline(), None, "all pairs parked or dead-observer");
    }

    #[test]
    fn hearing_at_the_deadline_wins_the_tie() {
        let mut d = accurate(2, 5);
        d.site_down(1);
        // Evidence of life delivered at exactly t=5 (the driver processes
        // deliveries before detector deadlines at equal times).
        assert!(!d.heard(5, 0, 1));
        assert!(d.poll(5).is_empty(), "lease renewed at the boundary");
        // The renewed lease expires at 10, not before.
        assert!(d.poll(9).is_empty());
        assert_eq!(events(&d.poll(10)), vec![(true, 0, 1)]);
    }

    #[test]
    fn late_heartbeat_falsely_suspects_then_clears_on_arrival() {
        // Heartbeat latency is always 8 > timeout 5: every check falsely
        // suspects, and the heartbeat lands 3 units later.
        let mut d = Suspicion::new(2, 5, LatencyModel::constant(8), 0);
        let evs = d.poll(5);
        // Both observers falsely suspect each other at t=5.
        assert_eq!(events(&evs), vec![(true, 0, 1), (true, 1, 0)]);
        // The late heartbeats land at 5 + (8 - 5) = 8.
        assert_eq!(d.next_deadline(), Some(8));
        assert!(d.poll(7).is_empty());
        let evs = d.poll(8);
        assert_eq!(events(&evs), vec![(false, 0, 1), (false, 1, 0)]);
        assert!(!d.suspected(0, 1));
        // The cleared lease restarts from the arrival: next check at 13.
        assert_eq!(d.next_deadline(), Some(13));
    }

    #[test]
    fn message_arrival_cancels_a_pending_clearance() {
        let mut d = Suspicion::new(2, 5, LatencyModel::constant(8), 0);
        d.poll(5); // false suspicion, clearance scheduled for t=8
                   // A real message at t=6 is earlier evidence of life: the caller
                   // learns the peer was suspected (and emits the unsuspicion).
        assert!(d.heard(6, 0, 1));
        assert!(!d.suspected(0, 1));
        // The stale clearance is gone; the new lease expires at 11.
        let evs = d.poll(8);
        assert_eq!(events(&evs), vec![(false, 1, 0)], "only the other direction clears");
        assert_eq!(
            d.next_deadline(),
            Some(11),
            "observer 0's lease renewed at 6; observer 1 cleared at 8, expires 13"
        );
    }

    #[test]
    fn suspicion_during_an_in_flight_recovery() {
        let mut d = accurate(3, 5);
        d.site_down(2);
        assert_eq!(events(&d.poll(5)), vec![(true, 0, 2), (true, 1, 2)]);
        // Site 2 recovers at t=7: observers keep suspecting until their
        // own next check proves life; site 2 itself trusts everyone.
        d.site_up(7, 2);
        assert!(d.suspected(0, 2));
        assert!(!d.suspected(2, 0));
        let evs = d.poll(12);
        // Observers 0 and 1 detect the recovery by heartbeat at 7+5.
        assert!(events(&evs).contains(&(false, 0, 2)));
        assert!(events(&evs).contains(&(false, 1, 2)));
        assert!(!d.suspected(0, 2));
    }

    #[test]
    fn crash_during_a_pending_clearance_keeps_the_suspicion() {
        // Falsely suspected at 5, clearance scheduled for 8 — but the
        // peer genuinely dies at 6. The unsuspicion must NOT fire.
        let mut d = Suspicion::new(2, 5, LatencyModel::constant(8), 0);
        d.poll(5);
        d.site_down(1);
        assert!(d
            .poll(8)
            .iter()
            .all(|e| !matches!(e, DetectorEvent::Unsuspect { observer: 0, .. })));
        assert!(d.suspected(0, 1), "suspicion stands; the peer really is down");
        // Recovery re-arms the checks — but with constant 8-unit
        // heartbeats every check is late: at 15 the recovered site 1
        // falsely suspects 0 (0's standing suspicion of 1 just
        // re-schedules), and both clear when the heartbeats land at 18.
        d.site_up(10, 1);
        assert_eq!(events(&d.poll(15)), vec![(true, 1, 0)]);
        assert_eq!(events(&d.poll(18)), vec![(false, 0, 1), (false, 1, 0)]);
        assert!(!d.suspected(0, 1));
    }

    #[test]
    fn partition_is_suspected_and_heal_is_detected() {
        let mut d = accurate(2, 5);
        d.set_groups(0, Some(vec![0, 1]));
        assert_eq!(events(&d.poll(5)), vec![(true, 0, 1), (true, 1, 0)]);
        assert_eq!(d.next_deadline(), None, "cut pairs are parked");
        // Heal at t=9: pairs re-arm, life detected one timeout later.
        d.set_groups(9, None);
        assert_eq!(d.next_deadline(), Some(14));
        assert_eq!(events(&d.poll(14)), vec![(false, 0, 1), (false, 1, 0)]);
    }

    #[test]
    fn dead_observers_suspect_no_one() {
        let mut d = accurate(2, 5);
        d.site_down(0);
        d.site_down(1);
        assert!(d.poll(50).is_empty());
        assert_eq!(d.next_deadline(), None);
    }

    #[test]
    fn seeded_jitter_unsuspicion_races_are_deterministic_and_sane() {
        // Uniform heartbeat latency crossing the timeout from both sides:
        // a seeded stream of false suspicions and clearances. Invariants:
        // per pair, Suspect and Unsuspect strictly alternate (starting
        // with Suspect), and the event stream replays identically from
        // the same seed.
        let run = |seed: u64| {
            let mut d = Suspicion::new(3, 4, LatencyModel::uniform(1, 9, seed), 0);
            let mut log = Vec::new();
            let mut now = 0;
            while now < 400 {
                let Some(t) = d.next_deadline() else { break };
                now = t;
                log.extend(events(&d.poll(now)).into_iter().map(|e| (now, e)));
            }
            log
        };
        for seed in [0u64, 1, 7, 0xdead_beef] {
            let log = run(seed);
            assert_eq!(log, run(seed), "seed {seed}: detector stream must be deterministic");
            for a in 0..3usize {
                for b in 0..3usize {
                    if a == b {
                        continue;
                    }
                    let mine: Vec<bool> = log
                        .iter()
                        .filter(|(_, (_, o, p))| *o == a && *p == b)
                        .map(|(_, (s, _, _))| *s)
                        .collect();
                    for (i, s) in mine.iter().enumerate() {
                        assert_eq!(
                            *s,
                            i % 2 == 0,
                            "seed {seed} pair {a}->{b}: suspect/unsuspect must alternate"
                        );
                    }
                }
            }
            // Timestamps non-decreasing (poll is driven at deadlines).
            assert!(log.windows(2).all(|w| w[0].0 <= w[1].0));
        }
    }

    #[test]
    fn accurate_detector_never_falsely_suspects() {
        // jitter max == timeout: every heartbeat lands within the lease.
        let mut d = Suspicion::new(3, 5, LatencyModel::uniform(1, 5, 42), 0);
        let mut now = 0;
        for _ in 0..200 {
            let Some(t) = d.next_deadline() else { break };
            now = t;
            assert!(d.poll(now).is_empty(), "no event without a real failure");
        }
        assert!(now > 0);
    }
}
