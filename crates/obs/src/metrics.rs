//! The metrics registry: counters and fixed-bucket histograms derived from
//! the event stream.
//!
//! [`Metrics`] is itself a [`Sink`] — attach it to a [`crate::Tracer`]
//! alongside an export sink and it folds every event into: global message
//! and WAL counters, per-site decision-latency histograms, and per-
//! transaction rollups of the quantities Gray & Lamport use to compare
//! commit protocols (messages and stable writes per transaction), plus
//! election rounds from the termination protocol.
//!
//! Everything is stored in `BTreeMap`s and fixed arrays, so the rendered
//! table is deterministic.

use std::collections::BTreeMap;
use std::fmt;

use crate::event::{Event, EventKind};
use crate::sink::Sink;

/// Number of histogram buckets: bucket `i > 0` holds values in
/// `[2^(i-1), 2^i)`; bucket 0 holds zero. The last bucket absorbs
/// everything `>= 2^(BUCKETS-2)`.
const BUCKETS: usize = 17;

/// A fixed power-of-two-bucket histogram of `u64` samples.
#[derive(Clone, Debug)]
pub(crate) struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self { buckets: [0; BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl Histogram {
    /// Record one sample.
    pub(crate) fn record(&mut self, value: u64) {
        let ix =
            if value == 0 { 0 } else { (64 - value.leading_zeros() as usize).min(BUCKETS - 1) };
        self.buckets[ix] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample seen (0 when empty).
    pub(crate) fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, rounded down (0 when empty).
    pub(crate) fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound (exclusive) of the smallest bucket prefix holding at
    /// least `q` (in per-mille, e.g. 500 = median) of the samples — a
    /// bucket-resolution quantile.
    pub(crate) fn quantile_le(&self, q: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (self.count * q).div_ceil(1000);
        let mut seen = 0;
        for (ix, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return if ix == 0 { 0 } else { 1u64 << ix };
            }
        }
        self.max
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} p50<={} p95<={} p99<={} max={}",
            self.count,
            self.mean(),
            self.quantile_le(500),
            self.quantile_le(950),
            self.quantile_le(990),
            self.max
        )
    }
}

/// Per-transaction rollup (the Gray–Lamport accounting unit).
#[derive(Clone, Debug, Default)]
pub struct TxnStats {
    /// Earliest event time attributed to the transaction.
    pub(crate) start: Option<u64>,
    /// Time of the first decision event, if any site decided.
    pub(crate) decided_at: Option<u64>,
    /// Verdict of the first decision event.
    pub(crate) committed: Option<bool>,
    /// Protocol messages handed to the network.
    pub msgs_sent: u64,
    /// Protocol messages delivered.
    pub(crate) msgs_delivered: u64,
    /// Protocol messages dropped by partitions.
    pub(crate) msgs_dropped: u64,
    /// WAL records appended.
    pub(crate) wal_appends: u64,
    /// WAL bytes appended (full frame size).
    pub(crate) wal_bytes: u64,
    /// Stable writes: physical WAL forces paid on behalf of this
    /// transaction.
    pub stable_writes: u64,
    /// Backup-election rounds entered by sites of this transaction.
    pub(crate) elections: u64,
    /// Sites that reported the round blocked.
    pub(crate) blocked: u64,
}

impl TxnStats {
    /// Decision latency: first decision time minus first event time.
    pub(crate) fn latency(&self) -> Option<u64> {
        Some(self.decided_at?.saturating_sub(self.start?))
    }
}

/// The registry. Feed it events (it is a [`Sink`]) and render it with
/// `Display` or read the public fields.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Total events folded in.
    pub(crate) events: u64,
    /// Global message counters (sent / delivered / dropped).
    pub msgs_sent: u64,
    /// Messages delivered to an up site.
    pub msgs_delivered: u64,
    /// Messages swallowed by partitions.
    pub msgs_dropped: u64,
    /// Local state transitions fired.
    pub(crate) transitions: u64,
    /// Site crashes.
    pub(crate) crashes: u64,
    /// Site recoveries.
    pub(crate) recoveries: u64,
    /// Backup-election rounds.
    pub(crate) elections: u64,
    /// Timeout-based suspicions raised (imperfect detection; counts both
    /// accurate and false suspicions — the detector cannot tell).
    pub(crate) suspicions: u64,
    /// Suspicions revoked by evidence of life. A high revocation share
    /// means the detector is too aggressive for the network's jitter.
    pub(crate) unsuspicions: u64,
    /// Blocked verdicts from backup coordinators.
    pub(crate) blocked: u64,
    /// WAL records appended.
    pub wal_appends: u64,
    /// WAL bytes appended.
    pub wal_bytes: u64,
    /// Physical WAL forces.
    pub wal_fsyncs_physical: u64,
    /// Fsync requests absorbed by an open group-commit batch.
    pub(crate) wal_fsyncs_batched: u64,
    /// Scheduler admissions.
    pub(crate) admits: u64,
    /// Scheduler parks (wait-die waits).
    pub(crate) parks: u64,
    /// Scheduler deaths (wait-die restarts).
    pub(crate) dies: u64,
    /// Blocked rounds reaped via recovery.
    pub(crate) reaps: u64,
    /// Per-site decision latency (decision time − transaction start).
    pub(crate) decision_latency: BTreeMap<u32, Histogram>,
    /// Per-transaction rollups.
    pub txns: BTreeMap<u64, TxnStats>,
}

impl Metrics {
    fn txn_mut(&mut self, event: &Event) -> Option<&mut TxnStats> {
        let txn = event.txn?;
        let stats = self.txns.entry(txn).or_default();
        stats.start = Some(stats.start.map_or(event.time, |s| s.min(event.time)));
        Some(stats)
    }

    /// Election-round distribution: one sample per transaction, counting
    /// the backup-election rounds it entered. Zero rounds means the
    /// commit protocol ran undisturbed; a heavy tail under an aggressive
    /// detector is the elect-and-re-elect churn of false suspicion.
    pub(crate) fn election_rounds(&self) -> Histogram {
        let mut h = Histogram::default();
        for t in self.txns.values() {
            h.record(t.elections);
        }
        h
    }

    /// Encode the registry as one JSON object (fixed key order, so equal
    /// runs produce byte-identical output). Histograms include the
    /// bucket-resolution p50/p95/p99 quantiles.
    pub fn to_json(&self) -> String {
        let hist_json = |h: &Histogram| {
            crate::json::Obj::new()
                .num("n", h.count())
                .num("mean", h.mean())
                .num("p50_le", h.quantile_le(500))
                .num("p95_le", h.quantile_le(950))
                .num("p99_le", h.quantile_le(990))
                .num("max", h.max())
                .build()
        };
        let latency = crate::json::array(self.decision_latency.iter().map(|(site, h)| {
            crate::json::Obj::new()
                .num("site", u64::from(*site))
                .raw("latency", &hist_json(h))
                .build()
        }));
        let txns = crate::json::array(self.txns.iter().map(|(txn, t)| {
            let mut o = crate::json::Obj::new()
                .num("txn", *txn)
                .num("msgs_sent", t.msgs_sent)
                .num("msgs_delivered", t.msgs_delivered)
                .num("msgs_dropped", t.msgs_dropped)
                .num("stable_writes", t.stable_writes)
                .num("wal_bytes", t.wal_bytes)
                .num("elections", t.elections);
            o = match t.latency() {
                Some(l) => o.num("latency", l),
                None => o.raw("latency", "null"),
            };
            o = match t.committed {
                Some(c) => o.bool("committed", c),
                None => o.raw("committed", "null"),
            };
            o.build()
        }));
        crate::json::Obj::new()
            .num("events", self.events)
            .num("msgs_sent", self.msgs_sent)
            .num("msgs_delivered", self.msgs_delivered)
            .num("msgs_dropped", self.msgs_dropped)
            .num("transitions", self.transitions)
            .num("crashes", self.crashes)
            .num("recoveries", self.recoveries)
            .num("elections", self.elections)
            .num("suspicions", self.suspicions)
            .num("unsuspicions", self.unsuspicions)
            .num("blocked", self.blocked)
            .num("wal_appends", self.wal_appends)
            .num("wal_bytes", self.wal_bytes)
            .num("wal_fsyncs_physical", self.wal_fsyncs_physical)
            .num("wal_fsyncs_batched", self.wal_fsyncs_batched)
            .num("admits", self.admits)
            .num("parks", self.parks)
            .num("dies", self.dies)
            .num("reaps", self.reaps)
            .raw("election_rounds", &hist_json(&self.election_rounds()))
            .raw("decision_latency", &latency)
            .raw("txns", &txns)
            .build()
    }
}

impl Sink for Metrics {
    fn record(&mut self, event: &Event) {
        self.events += 1;
        // Track transaction start from every attributed event, so decision
        // latency is measured from the first thing the transaction did.
        let _ = self.txn_mut(event);
        match &event.kind {
            EventKind::Transition { .. } => {
                self.transitions += 1;
            }
            EventKind::MsgSend { .. } => {
                self.msgs_sent += 1;
                if let Some(t) = self.txn_mut(event) {
                    t.msgs_sent += 1;
                }
            }
            EventKind::MsgDeliver { .. } => {
                self.msgs_delivered += 1;
                if let Some(t) = self.txn_mut(event) {
                    t.msgs_delivered += 1;
                }
            }
            EventKind::MsgDrop { .. } => {
                self.msgs_dropped += 1;
                if let Some(t) = self.txn_mut(event) {
                    t.msgs_dropped += 1;
                }
            }
            EventKind::Decision { commit } => {
                let commit = *commit;
                let mut latency = None;
                if let Some(t) = self.txn_mut(event) {
                    if t.decided_at.is_none() {
                        t.decided_at = Some(event.time);
                        t.committed = Some(commit);
                    }
                    latency = t.latency();
                }
                if let (Some(site), Some(lat)) = (event.site, latency) {
                    self.decision_latency.entry(site).or_default().record(lat);
                }
            }
            EventKind::Crash => self.crashes += 1,
            EventKind::Recover => self.recoveries += 1,
            EventKind::Suspect { .. } => self.suspicions += 1,
            EventKind::Unsuspect { .. } => self.unsuspicions += 1,
            EventKind::Election { .. } => {
                self.elections += 1;
                if let Some(t) = self.txn_mut(event) {
                    t.elections += 1;
                }
            }
            EventKind::Blocked { .. } => {
                self.blocked += 1;
                if let Some(t) = self.txn_mut(event) {
                    t.blocked += 1;
                }
            }
            EventKind::WalAppend { bytes, record: _ } => {
                let bytes = *bytes;
                self.wal_appends += 1;
                self.wal_bytes += bytes;
                if let Some(t) = self.txn_mut(event) {
                    t.wal_appends += 1;
                    t.wal_bytes += bytes;
                }
            }
            EventKind::WalFsync { physical } => {
                if *physical {
                    self.wal_fsyncs_physical += 1;
                    if let Some(t) = self.txn_mut(event) {
                        t.stable_writes += 1;
                    }
                } else {
                    self.wal_fsyncs_batched += 1;
                }
            }
            EventKind::Admit => self.admits += 1,
            EventKind::Park => self.parks += 1,
            EventKind::Die => self.dies += 1,
            EventKind::Reap { .. } => self.reaps += 1,
            EventKind::Vote { .. }
            | EventKind::FailureNotice { .. }
            | EventKind::RecoveryNotice { .. }
            | EventKind::Aligned { .. }
            | EventKind::WalCompact { .. }
            | EventKind::Partition { .. }
            | EventKind::Snapshot { .. }
            | EventKind::Note { .. } => {}
        }
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "metrics ({} events)", self.events)?;
        writeln!(
            f,
            "  messages   sent={} delivered={} dropped={}",
            self.msgs_sent, self.msgs_delivered, self.msgs_dropped
        )?;
        writeln!(
            f,
            "  protocol   transitions={} elections={} blocked={} crashes={} recoveries={}",
            self.transitions, self.elections, self.blocked, self.crashes, self.recoveries
        )?;
        if self.suspicions + self.unsuspicions > 0 {
            writeln!(
                f,
                "  detector   suspicions={} unsuspicions={} election-rounds: {}",
                self.suspicions,
                self.unsuspicions,
                self.election_rounds()
            )?;
        }
        writeln!(
            f,
            "  wal        appends={} bytes={} fsync-physical={} fsync-batched={}",
            self.wal_appends, self.wal_bytes, self.wal_fsyncs_physical, self.wal_fsyncs_batched
        )?;
        if self.admits + self.parks + self.dies + self.reaps > 0 {
            writeln!(
                f,
                "  scheduler  admits={} parks={} dies={} reaps={}",
                self.admits, self.parks, self.dies, self.reaps
            )?;
        }
        if !self.decision_latency.is_empty() {
            writeln!(f, "  decision latency by site:")?;
            for (site, h) in &self.decision_latency {
                writeln!(f, "    site{site}: {h}")?;
            }
        }
        if !self.txns.is_empty() {
            writeln!(
                f,
                "  per txn    {:<6} {:>6} {:>8} {:>10} {:>6} {:>8} outcome",
                "txn", "msgs", "stable-w", "wal-bytes", "elect", "latency"
            )?;
            for (txn, t) in &self.txns {
                let outcome = match t.committed {
                    Some(true) => "commit",
                    Some(false) => "abort",
                    None => "-",
                };
                let latency = t.latency().map_or_else(|| "-".to_string(), |l| l.to_string());
                writeln!(
                    f,
                    "             {:<6} {:>6} {:>8} {:>10} {:>6} {:>8} {}",
                    txn, t.msgs_sent, t.stable_writes, t.wal_bytes, t.elections, latency, outcome
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum, 110);
        assert_eq!(h.max(), 100);
        assert_eq!(h.mean(), 18);
        // Median bucket: 3rd sample of 6 lands in the [2,4) bucket.
        assert_eq!(h.quantile_le(500), 4);
        assert_eq!(h.quantile_le(1000), 128);
        // p95/p99 of 6 samples need all of them: the 100 bucket.
        assert_eq!(h.quantile_le(950), 128);
        assert_eq!(h.quantile_le(990), 128);
        let line = h.to_string();
        assert!(line.contains("p50<=4"), "{line}");
        assert!(line.contains("p95<=128"), "{line}");
        assert!(line.contains("p99<=128"), "{line}");
    }

    #[test]
    fn histogram_huge_values_saturate_last_bucket() {
        let mut h = Histogram::default();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn metrics_fold_message_and_decision_flow() {
        let mut m = Metrics::default();
        let evs = [
            Event::new(0, EventKind::Transition { from: "q0".into(), to: "w0".into() })
                .at_site(0)
                .for_txn(1),
            Event::new(1, EventKind::MsgSend { dst: 1, label: "prepare".into() })
                .at_site(0)
                .for_txn(1),
            Event::new(3, EventKind::MsgDeliver { src: 0, label: "prepare".into() })
                .at_site(1)
                .for_txn(1),
            Event::new(3, EventKind::WalAppend { bytes: 22, record: "progress".into() })
                .at_site(1)
                .for_txn(1),
            Event::new(3, EventKind::WalFsync { physical: true }).at_site(1).for_txn(1),
            Event::new(9, EventKind::Decision { commit: true }).at_site(1).for_txn(1),
            Event::new(10, EventKind::Decision { commit: true }).at_site(0).for_txn(1),
        ];
        for e in &evs {
            m.record(e);
        }
        assert_eq!(m.msgs_sent, 1);
        assert_eq!(m.msgs_delivered, 1);
        assert_eq!(m.msgs_dropped, 0);
        assert_eq!(m.wal_bytes, 22);
        assert_eq!(m.wal_fsyncs_physical, 1);
        let t = &m.txns[&1];
        assert_eq!(t.start, Some(0));
        assert_eq!(t.decided_at, Some(9));
        assert_eq!(t.committed, Some(true));
        assert_eq!(t.stable_writes, 1);
        assert_eq!(t.latency(), Some(9));
        // Both deciding sites get a latency sample from txn start.
        assert_eq!(m.decision_latency[&1].count(), 1);
        assert_eq!(m.decision_latency[&0].count(), 1);
        assert_eq!(m.decision_latency[&0].max(), 9);
        let table = m.to_string();
        assert!(table.contains("sent=1 delivered=1 dropped=0"), "{table}");
        assert!(table.contains("decision latency by site:"), "{table}");
        assert!(table.contains("commit"), "{table}");
    }

    #[test]
    fn metrics_json_is_valid_and_carries_quantiles() {
        let mut m = Metrics::default();
        let evs = [
            Event::new(0, EventKind::Transition { from: "q0".into(), to: "w0".into() })
                .at_site(0)
                .for_txn(1),
            Event::new(7, EventKind::Decision { commit: true }).at_site(0).for_txn(1),
        ];
        for e in &evs {
            m.record(e);
        }
        let j = m.to_json();
        crate::json::validate(&j).unwrap();
        let v = crate::json::parse(&j).unwrap();
        assert_eq!(v.get("events").and_then(crate::json::Value::as_u64), Some(2));
        assert!(j.contains("\"p50_le\":8"), "{j}");
        assert!(j.contains("\"p95_le\":8"), "{j}");
        assert!(j.contains("\"p99_le\":8"), "{j}");
        assert!(j.contains("\"latency\":7,\"committed\":true"), "{j}");
    }
}
