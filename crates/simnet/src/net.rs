//! The reliable point-to-point message fabric with a perfect failure
//! detector.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use nbc_obs::{Event, EventKind, Tracer};

use crate::latency::LatencyModel;
use crate::stats::NetStats;

/// Logical simulation time.
pub type Time = u64;

/// Site index within one network instance (`0..n`).
pub type SiteIx = usize;

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

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
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
    heap: BinaryHeap<Reverse<Scheduled<M>>>,
    seq: u64,
    /// `last_delivery[src * n + dst]` = latest delivery time scheduled on
    /// the link, for FIFO enforcement.
    last_delivery: Vec<Time>,
    /// Partition group per site, when partitioned. Messages across groups
    /// are silently dropped — this deliberately violates the paper's
    /// "network never fails" assumption and exists to demonstrate what
    /// that assumption buys (see the `x3` experiment).
    groups: Option<Vec<usize>>,
    stats: NetStats,
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

    /// Copy `source` into this network's storage: the event heap, the link
    /// tables and the partition assignment keep their allocations.
    /// Destructured in full so a new field cannot be left out of the copy.
    fn clone_from(&mut self, source: &Self) {
        let Self { n, latency, detect_delay, heap, seq, last_delivery, groups, stats, tracer } =
            self;
        *n = source.n;
        latency.clone_from(&source.latency);
        *detect_delay = source.detect_delay;
        heap.clone_from(&source.heap);
        *seq = source.seq;
        last_delivery.clone_from(&source.last_delivery);
        groups.clone_from(&source.groups);
        stats.clone_from(&source.stats);
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
            heap: BinaryHeap::new(),
            seq: 0,
            last_delivery: vec![0; n * n],
            groups: None,
            stats: NetStats::new(n),
            tracer: Tracer::off(),
        }
    }

    /// Back to the state [`Network::new`] returns for the same `n` — nothing
    /// scheduled, sequence numbers from zero, links idle, no partition,
    /// counters zeroed, tracing off — keeping the event heap's and the link
    /// tables' allocations.
    pub fn reset(&mut self, latency: LatencyModel, detect_delay: Time) {
        self.latency = latency;
        self.detect_delay = detect_delay;
        self.heap.clear();
        self.seq = 0;
        self.last_delivery.fill(0);
        self.groups = None;
        self.stats.reset();
        self.tracer = Tracer::off();
    }

    /// Attach an observability tracer (drop events are emitted through it).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Number of sites.
    pub fn n_sites(&self) -> usize {
        self.n
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
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
                self.stats.record_send(src, dst);
                self.stats.record_drop();
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
        self.stats.record_send(src, dst);
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
        // Filter the heap's own buffer and re-heapify it whole: no
        // reallocation, and the same layout a filter-and-collect yields
        // (drop events are emitted in buffer order).
        let (stats, tracer) = (&mut self.stats, &self.tracer);
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.retain(|Reverse(sch)| match &sch.event {
            NetEvent::Deliver { src, dst, msg } if assignment[*src] != assignment[*dst] => {
                stats.record_drop();
                tracer.emit(|| {
                    Event::new(now, EventKind::MsgDrop { dst: *dst as u32, label: msg.to_string() })
                        .at_site(*src)
                });
                false
            }
            _ => true,
        });
        self.heap = entries.into();
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
        self.heap.peek().map(|Reverse(s)| s.at)
    }

    /// Pop the next event in time order (ties broken by send order).
    pub fn next_event(&mut self) -> Option<(Time, NetEvent<M>)> {
        self.heap.pop().map(|Reverse(s)| {
            if matches!(s.event, NetEvent::Deliver { .. }) {
                self.stats.record_delivery();
            }
            (s.at, s.event)
        })
    }

    /// Number of undelivered events still scheduled.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Every scheduled event as `(at, seq, event)`, borrowed, in
    /// **unspecified** order — the allocation-free view. Delivery order is
    /// ascending `(at, seq)`; callers that need it take a `min`/`max` or
    /// use [`Network::scheduled`].
    pub fn iter_scheduled(&self) -> impl Iterator<Item = (Time, u64, &NetEvent<M>)> {
        self.heap.iter().map(|Reverse(s)| (s.at, s.seq, &s.event))
    }

    /// Every scheduled event in deterministic `(at, seq)` order, with its
    /// sequence number. The sequence number is the handle for
    /// [`Network::take_seq`] / [`Network::drop_seq`]; a model checker uses
    /// this to enumerate the per-channel head events it may deliver next
    /// (FIFO order on one `(src, dst)` link is exactly ascending `(at,
    /// seq)` order among that link's entries).
    pub fn scheduled(&self) -> Vec<(Time, u64, &NetEvent<M>)> {
        let mut out: Vec<_> = self.iter_scheduled().collect();
        out.sort_by_key(|&(at, seq, _)| (at, seq));
        out
    }

    /// Remove and return one specific scheduled event by sequence number,
    /// out of time order — the model checker's "deliver this one next"
    /// hook. Counts as a delivery for [`NetStats`] when it is a
    /// [`NetEvent::Deliver`]. Returns `None` if no such event is pending.
    pub fn take_seq(&mut self, seq: u64) -> Option<(Time, NetEvent<M>)> {
        // Remove in place: the heap's own buffer is re-heapified, never
        // reallocated (order-preserving removal keeps the buffer layout a
        // function of the push/remove history alone).
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        let taken =
            entries.iter().position(|Reverse(s)| s.seq == seq).map(|at| entries.remove(at).0);
        self.heap = entries.into();
        let s = taken?;
        if matches!(s.event, NetEvent::Deliver { .. }) {
            self.stats.record_delivery();
        }
        Some((s.at, s.event))
    }

    /// Remove one specific scheduled event by sequence number *as a loss*:
    /// the message never arrives. Counts as a drop for [`NetStats`] and is
    /// reported through the tracer. The model checker uses this to explore
    /// message-loss faults (in particular, in-flight messages of a crashed
    /// sender — the paper's non-atomic transition failure seen from the
    /// network side). Returns the dropped event, `None` if not pending.
    pub fn drop_seq(&mut self, now: Time, seq: u64) -> Option<NetEvent<M>>
    where
        M: std::fmt::Display,
    {
        let (_, ev) = self.take_seq(seq)?;
        if let NetEvent::Deliver { src, dst, msg } = &ev {
            // take_seq counted it as delivered; reclassify as dropped.
            self.stats.undo_delivery();
            self.stats.record_drop();
            let (src, dst) = (*src, *dst);
            self.tracer.emit(|| {
                Event::new(now, EventKind::MsgDrop { dst: dst as u32, label: msg.to_string() })
                    .at_site(src)
            });
        }
        Some(ev)
    }

    fn push(&mut self, at: Time, event: NetEvent<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled { at, seq, event }));
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
        assert_eq!(n.stats().sent(), 2);
        assert_eq!(n.stats().delivered(), 0);
        while n.next_event().is_some() {}
        assert_eq!(n.stats().delivered(), 2);
        assert_eq!(n.stats().link(0, 1), 1);
        assert_eq!(n.stats().link(1, 0), 1);
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
        assert_eq!(n.stats().dropped(), 1);
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
        assert_eq!(
            (used.stats().sent(), used.stats().dropped(), used.stats().link(0, 1)),
            (0, 0, 0)
        );
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
            assert_eq!(format!("{:?}", target.stats()), format!("{:?}", source.stats()));
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
            assert_eq!(format!("{:?}", target.stats()), format!("{:?}", twin.stats()));
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
}
