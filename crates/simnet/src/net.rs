//! The reliable point-to-point message fabric with a perfect failure
//! detector.

use nbc_obs::{Event, EventKind, Tracer};

use crate::latency::LatencyModel;

/// Logical simulation time.
pub type Time = u64;

/// Site index within one network instance (`0..n`).
pub(crate) type SiteIx = usize;

/// An event surfaced by the network to the simulation driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetEvent<M> {
    /// A message arrives at `dst`.
    Deliver {
        /// Sender.
        src: SiteIx,
        /// Receiver.
        dst: SiteIx,
        /// The payload.
        msg: M,
    },
    /// The failure detector informs `observer` that `crashed` has failed.
    ///
    /// Per the paper's assumption the report is reliable: every site that
    /// is operational when the detection fires receives it.
    FailureNotice {
        /// The operational site being informed.
        observer: SiteIx,
        /// The site that crashed.
        crashed: SiteIx,
    },
    /// The failure detector informs `observer` that `recovered` is back.
    ///
    /// Recovery notices are the symmetric courtesy the recovery protocol
    /// relies on to re-integrate sites; the paper assumes sites can tell
    /// an operational site from a crashed one, which subsumes this.
    RecoveryNotice {
        /// The operational site being informed.
        observer: SiteIx,
        /// The site that recovered.
        recovered: SiteIx,
    },
}

/// Internal scheduled entry.
#[derive(Debug, Clone)]
struct Scheduled<M> {
    at: Time,
    seq: u64,
    event: NetEvent<M>,
}

/// Deterministic reliable network for `n` sites.
///
/// * **Reliable**: every sent message is eventually delivered (even to a
///   crashed site — the dead site simply never reads it; the engine models
///   loss-on-crash at the *site*, not the network, matching the paper's
///   "the network never fails").
/// * **FIFO per link**: delivery times on one `(src, dst)` link are
///   non-decreasing in send order.
/// * **Perfect failure detection**: [`Network::crash`] schedules a
///   [`NetEvent::FailureNotice`] to every other site after
///   `detect_delay`; notices to sites that are themselves crashed at
///   delivery time are suppressed by the driver loop (see
///   [`Network::next_event`] — the network cannot know the future, so the
///   *driver* passes current liveness in).
pub struct Network<M> {
    n: usize,
    latency: LatencyModel,
    detect_delay: Time,
    /// The scheduled events in delivery order, ascending `(at, seq)`, from
    /// `head` on: the live slice. An event due no earlier than the last
    /// appends, as a send at constant latency does; one due earlier (a
    /// sampled latency, a send ahead of a notice due later) is inserted
    /// by binary search. A delivery moves the front event out and steps
    /// `head` past the slot it leaves, so nothing shifts; the delivered
    /// prefix is let go when the queue empties, or reclaimed when the
    /// buffer is full and the prefix is at least half of it.
    queue: Vec<Scheduled<M>>,
    head: usize,
    seq: u64,
    /// `last_delivery[src * n + dst]` = latest delivery time scheduled on
    /// the link, for FIFO enforcement.
    last_delivery: Vec<Time>,
    /// Partition group per site, when partitioned. Messages across groups
    /// are silently dropped — this deliberately violates the paper's
    /// "network never fails" assumption and exists to demonstrate what
    /// that assumption buys (see the `x3` experiment).
    groups: Option<Vec<usize>>,
    /// Messages sent, the swallowed ones included.
    sent: u64,
    /// Observability handle. The network reports only what it alone can
    /// see — messages swallowed by a partition ([`EventKind::MsgDrop`]);
    /// sends and deliveries are emitted by the driver, which knows the
    /// transaction and payload context.
    tracer: Tracer,
}

impl<M: Clone> Clone for Network<M> {
    fn clone(&self) -> Self {
        let mut copy = Self::new(0, LatencyModel::constant(0), 0);
        copy.clone_from(self);
        copy
    }

    /// Copy `source` into this network's storage: the event queue (its
    /// live slice, from the front of the buffer), the link tables and the
    /// partition assignment keep their allocations. Destructured in full
    /// so a new field cannot be left out of the copy.
    fn clone_from(&mut self, source: &Self) {
        let Self {
            n,
            latency,
            detect_delay,
            queue,
            head,
            seq,
            last_delivery,
            groups,
            sent,
            tracer,
        } = self;
        *n = source.n;
        latency.clone_from(&source.latency);
        *detect_delay = source.detect_delay;
        queue.clear();
        queue.extend_from_slice(source.live());
        *head = 0;
        *seq = source.seq;
        last_delivery.clone_from(&source.last_delivery);
        groups.clone_from(&source.groups);
        *sent = source.sent;
        tracer.clone_from(&source.tracer);
    }
}

impl<M> Network<M> {
    /// Create a network for `n` sites.
    pub fn new(n: usize, latency: LatencyModel, detect_delay: Time) -> Self {
        Self {
            n,
            latency,
            detect_delay,
            queue: Vec::new(),
            head: 0,
            seq: 0,
            last_delivery: vec![0; n * n],
            groups: None,
            sent: 0,
            tracer: Tracer::off(),
        }
    }

    /// Back to the state [`Network::new`] returns for the same `n` — nothing
    /// scheduled, sequence numbers from zero, links idle, no partition, no
    /// sends counted, tracing off — keeping the event queue's and the link
    /// tables' allocations.
    pub fn reset(&mut self, latency: LatencyModel, detect_delay: Time) {
        self.latency = latency;
        self.detect_delay = detect_delay;
        self.queue.clear();
        self.head = 0;
        self.seq = 0;
        self.last_delivery.fill(0);
        self.groups = None;
        self.sent = 0;
        self.tracer = Tracer::off();
    }

    /// Attach an observability tracer (drop events are emitted through it).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Total messages sent, the ones a partition swallowed included.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Send `msg` from `src` to `dst` at time `now`; returns the scheduled
    /// delivery time (`None` if a partition swallowed the message).
    pub fn send(&mut self, now: Time, src: SiteIx, dst: SiteIx, msg: M) -> Option<Time>
    where
        M: std::fmt::Display,
    {
        assert!(src < self.n && dst < self.n, "site index out of range");
        if let Some(groups) = &self.groups {
            if groups[src] != groups[dst] {
                self.sent += 1;
                self.tracer.emit(|| {
                    Event::new(now, EventKind::MsgDrop { dst: dst as u32, label: msg.to_string() })
                        .at_site(src)
                });
                return None;
            }
        }
        let lat = self.latency.sample();
        let link = src * self.n + dst;
        let at = (now + lat).max(self.last_delivery[link]);
        self.last_delivery[link] = at;
        self.sent += 1;
        self.push(at, NetEvent::Deliver { src, dst, msg });
        Some(at)
    }

    /// Partition the network at `now`: `assignment[i]` is site `i`'s group.
    /// Messages across groups are dropped from now on, and — because the
    /// failure detector cannot distinguish a dead site from an unreachable
    /// one — every site receives failure notices for every site outside
    /// its group. **This violates the paper's network assumptions on
    /// purpose** (demonstration only).
    pub fn partition(&mut self, now: Time, assignment: Vec<usize>)
    where
        M: std::fmt::Display,
    {
        assert_eq!(assignment.len(), self.n);
        self.cut_in_flight(now, &assignment);
        for observer in 0..self.n {
            for other in 0..self.n {
                if observer != other && assignment[observer] != assignment[other] {
                    self.push(
                        now + self.detect_delay,
                        NetEvent::FailureNotice { observer, crashed: other },
                    );
                }
            }
        }
        self.groups = Some(assignment);
    }

    /// Partition the network at `now` *without* failure notices: the
    /// variant used when an imperfect detector ([`crate::Suspicion`]) is
    /// in charge — unreachable sites are then *suspected* by timeout, not
    /// reported by oracle. In-flight messages crossing the cut still die
    /// with the link.
    pub fn partition_silent(&mut self, now: Time, assignment: Vec<usize>)
    where
        M: std::fmt::Display,
    {
        assert_eq!(assignment.len(), self.n);
        self.cut_in_flight(now, &assignment);
        self.groups = Some(assignment);
    }

    /// In-flight messages crossing the cut die with the link.
    fn cut_in_flight(&mut self, now: Time, assignment: &[usize])
    where
        M: std::fmt::Display,
    {
        // Filtered in place, so drop events are emitted in delivery order.
        self.queue.drain(..self.head);
        self.head = 0;
        let tracer = &self.tracer;
        self.queue.retain(|sch| match &sch.event {
            NetEvent::Deliver { src, dst, msg } if assignment[*src] != assignment[*dst] => {
                tracer.emit(|| {
                    Event::new(now, EventKind::MsgDrop { dst: *dst as u32, label: msg.to_string() })
                        .at_site(*src)
                });
                false
            }
            _ => true,
        });
    }

    /// Heal a partition (messages flow again; no automatic notices).
    pub fn heal(&mut self) {
        self.groups = None;
    }

    /// True while partitioned.
    pub fn is_partitioned(&self) -> bool {
        self.groups.is_some()
    }

    /// Current partition assignment (`groups[i]` = site `i`'s group), if
    /// partitioned. Part of the network's behavioral state, so the model
    /// checker folds it into its global-state digest.
    pub fn partition_groups(&self) -> Option<&[usize]> {
        self.groups.as_deref()
    }

    /// Report that `site` crashed at `now`: schedules failure notices to
    /// every other site at `now + detect_delay`.
    pub fn crash(&mut self, now: Time, site: SiteIx) {
        for observer in 0..self.n {
            if observer != site {
                self.push(
                    now + self.detect_delay,
                    NetEvent::FailureNotice { observer, crashed: site },
                );
            }
        }
    }

    /// Report that `site` recovered at `now`: schedules recovery notices.
    pub fn recover(&mut self, now: Time, site: SiteIx) {
        for observer in 0..self.n {
            if observer != site {
                self.push(
                    now + self.detect_delay,
                    NetEvent::RecoveryNotice { observer, recovered: site },
                );
            }
        }
    }

    /// Time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.live().first().map(|s| s.at)
    }

    /// Pop the next event in time order (ties broken by send order).
    pub fn next_event(&mut self) -> Option<(Time, NetEvent<M>)> {
        let front = self.queue.get_mut(self.head)?;
        // What the delivered slot keeps: an event that owns no message.
        let event = std::mem::replace(
            &mut front.event,
            NetEvent::FailureNotice { observer: 0, crashed: 0 },
        );
        let at = front.at;
        self.head += 1;
        if self.head == self.queue.len() {
            self.queue.clear();
            self.head = 0;
        }
        Some((at, event))
    }

    /// Number of undelivered events still scheduled.
    pub fn pending(&self) -> usize {
        self.queue.len() - self.head
    }

    /// The scheduled events, in delivery order.
    fn live(&self) -> &[Scheduled<M>] {
        &self.queue[self.head..]
    }

    /// Every scheduled event as `(at, seq, event)`, borrowed, in delivery
    /// order: ascending `(at, seq)`, so each FIFO channel's events come
    /// head first (FIFO order on one `(src, dst)` link is exactly
    /// ascending `(at, seq)` order among that link's entries). The
    /// allocation-free view; the sequence number is the handle for
    /// [`Network::take_seq`] / [`Network::drop_seq`], and a model checker
    /// uses it to name the per-channel head events it may deliver next.
    pub fn iter_scheduled(&self) -> impl Iterator<Item = (Time, u64, &NetEvent<M>)> {
        self.live().iter().map(|s| (s.at, s.seq, &s.event))
    }

    /// [`Network::iter_scheduled`], collected.
    pub fn scheduled(&self) -> Vec<(Time, u64, &NetEvent<M>)> {
        self.iter_scheduled().collect()
    }

    /// Remove and return one specific scheduled event by sequence number,
    /// out of time order — the model checker's "deliver this one next"
    /// hook. Returns `None` if no such event is pending. The events
    /// behind it close the gap, in delivery order.
    pub fn take_seq(&mut self, seq: u64) -> Option<(Time, NetEvent<M>)> {
        let at = self.head + self.live().iter().position(|s| s.seq == seq)?;
        let taken = self.queue.remove(at);
        Some((taken.at, taken.event))
    }

    /// Remove one specific scheduled event by sequence number *as a loss*:
    /// the message never arrives. It is reported through the tracer. The model checker uses this to explore
    /// message-loss faults (in particular, in-flight messages of a crashed
    /// sender — the paper's non-atomic transition failure seen from the
    /// network side). Returns the dropped event, `None` if not pending.
    pub fn drop_seq(&mut self, now: Time, seq: u64) -> Option<NetEvent<M>>
    where
        M: std::fmt::Display,
    {
        let (_, ev) = self.take_seq(seq)?;
        if let NetEvent::Deliver { src, dst, msg } = &ev {
            let (src, dst) = (*src, *dst);
            self.tracer.emit(|| {
                Event::new(now, EventKind::MsgDrop { dst: dst as u32, label: msg.to_string() })
                    .at_site(src)
            });
        }
        Some(ev)
    }

    /// Schedule `event` at `at`, behind every event due no later: its
    /// sequence number is the largest yet.
    fn push(&mut self, at: Time, event: NetEvent<M>) {
        let seq = self.seq;
        self.seq += 1;
        if self.queue.len() == self.queue.capacity() && 2 * self.head >= self.queue.len() {
            self.queue.drain(..self.head);
            self.head = 0;
        }
        let scheduled = Scheduled { at, seq, event };
        if self.queue.last().is_none_or(|last| last.at <= at) {
            self.queue.push(scheduled);
        } else {
            let behind = self.head + self.live().partition_point(|s| s.at <= at);
            self.queue.insert(behind, scheduled);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(n: usize) -> Network<&'static str> {
        Network::new(n, LatencyModel::constant(5), 2)
    }

    #[test]
    fn delivers_in_time_order() {
        let mut n = net(3);
        n.send(0, 0, 1, "a");
        n.send(3, 1, 2, "b");
        n.send(1, 2, 0, "c");
        let mut order = Vec::new();
        while let Some((t, e)) = n.next_event() {
            if let NetEvent::Deliver { msg, .. } = e {
                order.push((t, msg));
            }
        }
        assert_eq!(order, vec![(5, "a"), (6, "c"), (8, "b")]);
    }

    #[test]
    fn fifo_per_link_under_variable_latency() {
        let mut n: Network<u32> = Network::new(2, LatencyModel::uniform(1, 50, 9), 0);
        for i in 0..100 {
            n.send(i as Time, 0, 1, i);
        }
        let mut seen = Vec::new();
        while let Some((_, e)) = n.next_event() {
            if let NetEvent::Deliver { msg, .. } = e {
                seen.push(msg);
            }
        }
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(seen, sorted, "per-link FIFO order violated");
    }

    #[test]
    fn ties_break_by_send_order() {
        let mut n = net(3);
        n.send(0, 0, 1, "first");
        n.send(0, 0, 2, "second");
        let (t1, e1) = n.next_event().unwrap();
        let (t2, e2) = n.next_event().unwrap();
        assert_eq!(t1, t2);
        assert!(matches!(e1, NetEvent::Deliver { msg: "first", .. }));
        assert!(matches!(e2, NetEvent::Deliver { msg: "second", .. }));
    }

    #[test]
    fn crash_notifies_everyone_else() {
        let mut n = net(4);
        n.crash(10, 2);
        let mut observers = Vec::new();
        while let Some((t, e)) = n.next_event() {
            if let NetEvent::FailureNotice { observer, crashed } = e {
                assert_eq!(t, 12);
                assert_eq!(crashed, 2);
                observers.push(observer);
            }
        }
        observers.sort_unstable();
        assert_eq!(observers, vec![0, 1, 3]);
    }

    #[test]
    fn recovery_notices_mirror_failure_notices() {
        let mut n = net(3);
        n.recover(7, 0);
        let mut count = 0;
        while let Some((t, e)) = n.next_event() {
            if let NetEvent::RecoveryNotice { recovered, .. } = e {
                assert_eq!(t, 9);
                assert_eq!(recovered, 0);
                count += 1;
            }
        }
        assert_eq!(count, 2);
    }

    #[test]
    fn stats_count_sends_and_deliveries() {
        let mut n = net(2);
        n.send(0, 0, 1, "x");
        n.send(0, 1, 0, "y");
        assert_eq!(n.sent(), 2);
        let mut links = Vec::new();
        while let Some((_, NetEvent::Deliver { src, dst, .. })) = n.next_event() {
            links.push((src, dst));
        }
        assert_eq!(links, [(0, 1), (1, 0)]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_site_rejected() {
        let mut n = net(2);
        n.send(0, 0, 5, "bad");
    }

    #[test]
    fn partition_drops_cross_group_messages() {
        let mut n = net(4);
        // Groups: {0,1} and {2,3}.
        n.partition(0, vec![0, 0, 1, 1]);
        assert!(n.is_partitioned());
        assert_eq!(n.send(5, 0, 1, "same side"), Some(10));
        assert_eq!(n.send(5, 0, 2, "cross"), None);
        // Every site got failure notices for the other side's sites.
        let mut notices = 0;
        while let Some((_, e)) = n.next_event() {
            if let NetEvent::FailureNotice { observer, crashed } = e {
                assert_ne!(observer, crashed);
                notices += 1;
            }
        }
        assert_eq!(notices, 8, "2 sites x 2 unreachable peers x 2 sides");
    }

    #[test]
    fn heal_restores_delivery() {
        let mut n = net(2);
        n.partition(0, vec![0, 1]);
        assert_eq!(n.send(0, 0, 1, "lost"), None);
        n.heal();
        assert!(!n.is_partitioned());
        assert!(n.send(1, 0, 1, "through").is_some());
    }

    #[test]
    fn partition_drops_are_traced() {
        use nbc_obs::{MemorySink, SharedSink};
        let sink = SharedSink::new(MemorySink::default());
        let mut n = net(3);
        n.set_tracer(Tracer::to_sink(sink.clone()));
        n.send(0, 0, 1, "in flight across the cut");
        n.partition(1, vec![0, 1, 1]);
        assert_eq!(n.send(2, 0, 2, "swallowed at send"), None);
        let drops = sink.with(|s| {
            s.events.iter().filter(|e| matches!(e.kind, EventKind::MsgDrop { .. })).count()
        });
        assert_eq!(drops, 2, "one in-flight cut + one swallowed send");
    }

    #[test]
    fn reset_network_behaves_like_a_new_one() {
        let mut used = net(3);
        used.send(0, 0, 1, "a");
        used.send(4, 0, 1, "b");
        used.crash(1, 2);
        used.partition(2, vec![0, 0, 1]);
        used.send(3, 0, 2, "dropped");
        used.reset(LatencyModel::constant(5), 2);
        assert_eq!((used.pending(), used.is_partitioned()), (0, false));
        assert_eq!(used.sent(), 0);
        let mut fresh = net(3);
        for n in [&mut used, &mut fresh] {
            // FIFO floor and sequence numbers restart with the network.
            assert_eq!(n.send(1, 0, 1, "x"), Some(6));
            n.send(1, 2, 1, "y");
        }
        let seqs = |n: &Network<&'static str>| {
            n.scheduled().iter().map(|&(at, seq, ev)| (at, seq, ev.clone())).collect::<Vec<_>>()
        };
        assert_eq!(seqs(&used), seqs(&fresh));
    }

    #[test]
    fn clone_from_overwrites_a_used_network() {
        let mut source = net(3);
        source.send(0, 0, 1, "a");
        source.send(4, 2, 1, "b");
        source.crash(1, 2);
        source.partition_silent(2, vec![0, 0, 1]);
        source.send(3, 0, 2, "dropped");
        // Busier than the source (more events, other links, other groups),
        // idle, and sized for another site count.
        let mut busy = net(3);
        for t in 0..9 {
            busy.send(t, 1, 0, "x");
        }
        busy.partition(3, vec![1, 0, 0]);
        for mut target in [busy, net(3), net(5)] {
            target.clone_from(&source);
            let seqs = |n: &Network<&'static str>| {
                n.scheduled().iter().map(|&(at, seq, ev)| (at, seq, ev.clone())).collect::<Vec<_>>()
            };
            assert_eq!(seqs(&target), seqs(&source));
            assert_eq!(target.sent(), source.sent());
            assert_eq!(target.partition_groups(), source.partition_groups());
            // Sequence numbers, FIFO floors, the cut and the detection
            // delay carry on from the source's.
            let mut twin = source.clone();
            for n in [&mut target, &mut twin] {
                assert_eq!(n.send(1, 0, 1, "y"), Some(6));
                assert_eq!(n.send(5, 0, 2, "cut"), None);
                n.recover(5, 2);
            }
            assert_eq!(seqs(&target), seqs(&twin));
            assert_eq!(target.sent(), twin.sent());
        }
    }

    #[test]
    fn pending_counts_scheduled_events() {
        let mut n = net(2);
        assert_eq!(n.pending(), 0);
        n.send(0, 0, 1, "x");
        n.crash(0, 1);
        assert_eq!(n.pending(), 2); // one delivery + one notice (to site 0)
    }

    /// The queue against a list kept by hand: random sends at constant and
    /// sampled latency, crashes and recoveries (their notices fall due
    /// `detect_delay` later, so they are inserted behind later sends),
    /// partitions with and without notices, heals, deliveries, takes and
    /// drops by sequence number, and forks into fresh and used networks.
    /// After every step the next event and the whole queue must be the
    /// reference sorted by `(at, seq)`.
    #[test]
    fn random_operations_keep_delivery_order() {
        use crate::SimRng;
        type Reference = Vec<(Time, u64, NetEvent<u32>)>;
        let sites = 4;
        for seed in 0..24u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let latency = if seed % 2 == 0 {
                LatencyModel::constant(rng.gen_range(0u64..4))
            } else {
                LatencyModel::uniform(1, 12, seed)
            };
            let detect_delay = rng.gen_range(0u64..20);
            let mut net: Network<u32> = Network::new(sites, latency, detect_delay);
            let (mut reference, mut next_seq, mut now) = (Reference::new(), 0u64, 0);
            let mut groups: Option<Vec<usize>> = None;
            for step in 0..600u32 {
                now += rng.gen_range(0u64..3);
                let notices = |reference: &mut Reference, next_seq: &mut u64, site, back| {
                    for observer in (0..sites).filter(|&o| o != site) {
                        let event = if back {
                            NetEvent::RecoveryNotice { observer, recovered: site }
                        } else {
                            NetEvent::FailureNotice { observer, crashed: site }
                        };
                        reference.push((now + detect_delay, *next_seq, event));
                        *next_seq += 1;
                    }
                };
                match rng.gen_range(0u32..20) {
                    0..=7 => {
                        let (src, dst) = (rng.gen_range(0..sites), rng.gen_range(0..sites));
                        let at = net.send(now, src, dst, step);
                        let cut = groups.as_ref().is_some_and(|g| g[src] != g[dst]);
                        assert_eq!(at.is_none(), cut, "seed {seed} step {step}");
                        if let Some(at) = at {
                            reference.push((
                                at,
                                next_seq,
                                NetEvent::Deliver { src, dst, msg: step },
                            ));
                            next_seq += 1;
                        }
                    }
                    8..=10 => {
                        let want = reference.iter().enumerate().min_by_key(|(_, e)| (e.0, e.1));
                        let want = want.map(|(i, _)| i).map(|i| reference.remove(i));
                        assert_eq!(
                            net.next_event(),
                            want.map(|(at, _, ev)| (at, ev)),
                            "{seed} {step}"
                        );
                    }
                    11 => {
                        let site = rng.gen_range(0..sites);
                        net.crash(now, site);
                        notices(&mut reference, &mut next_seq, site, false);
                    }
                    12 => {
                        let site = rng.gen_range(0..sites);
                        net.recover(now, site);
                        notices(&mut reference, &mut next_seq, site, true);
                    }
                    13 | 14 => {
                        // A pending sequence number, or one long gone.
                        let seq = match reference.len() {
                            0 => next_seq + 1,
                            len => reference[rng.gen_range(0..len)].1,
                        };
                        let want = reference.iter().position(|e| e.1 == seq);
                        let want = want.map(|i| reference.remove(i));
                        if rng.gen_bool(0.5) {
                            let got = net.take_seq(seq);
                            assert_eq!(got, want.map(|(at, _, ev)| (at, ev)), "{seed} {step}");
                        } else {
                            let got = net.drop_seq(now, seq);
                            assert_eq!(got, want.map(|(_, _, ev)| ev), "{seed} {step}");
                        }
                    }
                    15 => {
                        let assignment: Vec<usize> =
                            (0..sites).map(|_| rng.gen_range(0usize..2)).collect();
                        reference.retain(|(_, _, ev)| match ev {
                            NetEvent::Deliver { src, dst, .. } => {
                                assignment[*src] == assignment[*dst]
                            }
                            _ => true,
                        });
                        if rng.gen_bool(0.5) {
                            net.partition_silent(now, assignment.clone());
                        } else {
                            net.partition(now, assignment.clone());
                            for observer in 0..sites {
                                for other in
                                    (0..sites).filter(|&o| assignment[o] != assignment[observer])
                                {
                                    let event =
                                        NetEvent::FailureNotice { observer, crashed: other };
                                    reference.push((now + detect_delay, next_seq, event));
                                    next_seq += 1;
                                }
                            }
                        }
                        groups = Some(assignment);
                    }
                    16 => {
                        net.heal();
                        groups = None;
                    }
                    17 => net = net.clone(),
                    _ => {
                        // Into a used network, with a delivered prefix of its own.
                        let mut used = Network::new(sites, LatencyModel::constant(1), 0);
                        for t in 0..rng.gen_range(0u64..40) {
                            used.send(t, 0, 1, 0);
                        }
                        for _ in 0..rng.gen_range(0u32..30) {
                            used.next_event();
                        }
                        used.clone_from(&net);
                        net = used;
                    }
                }
                reference.sort_by_key(|e| (e.0, e.1));
                let queue: Reference =
                    net.iter_scheduled().map(|(at, seq, ev)| (at, seq, ev.clone())).collect();
                assert_eq!(queue, reference, "seed {seed} step {step}");
                assert_eq!(net.scheduled().len(), reference.len(), "seed {seed} step {step}");
                assert_eq!(net.pending(), reference.len(), "seed {seed} step {step}");
                assert_eq!(net.peek_time(), reference.first().map(|e| e.0), "{seed} {step}");
            }
        }
    }

    /// 100 000 events due at one instant come out in send order, each
    /// delivery stepping past the front slot instead of shifting the
    /// queue: the buffer keeps its length until the last one goes.
    #[test]
    fn a_delivery_steps_past_the_front_and_shifts_nothing() {
        const EVENTS: u32 = 100_000;
        let mut n: Network<u32> = Network::new(3, LatencyModel::constant(0), 0);
        for i in 0..EVENTS {
            n.send(7, (i % 3) as usize, ((i + 1) % 3) as usize, i);
        }
        for i in 0..EVENTS {
            assert_eq!((n.head, n.queue.len()), (i as usize, EVENTS as usize), "before {i}");
            let (at, event) = n.next_event().expect("pending");
            assert!(at == 7 && matches!(event, NetEvent::Deliver { msg, .. } if msg == i), "{i}");
        }
        assert_eq!((n.head, n.queue.len(), n.pending()), (0, 0, 0));
    }
}
