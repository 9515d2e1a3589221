//! The read side of observability: parse JSONL traces back into typed
//! events and audit invariants offline.
//!
//! [`fold_jsonl`] inverts the JSONL writer exactly (every [`EventKind`]
//! round-trips; a key no kind carries is refused), reading one line at a
//! time and handing each event on as its line parses. [`AuditSink`]
//! re-checks the engine's core invariants from the trace alone:
//!
//! * **conservation** — every message handed to the network is delivered
//!   or dropped, globally, per channel, and per payload label;
//! * **decision-consistency** — no transaction both commits and aborts
//!   (Skeen's consistency criterion, read off the `decision`/`reap`
//!   events);
//! * **wal-before-send** — a site never sends a protocol message before
//!   logging the transition that produced it (the paper's "transitions
//!   are persisted write-ahead");
//! * **stable-decision** — every decision event is preceded by a durable
//!   decision record at the same site (Gray–Lamport's stable-write
//!   accounting).
//!
//! [`AuditSink`] and [`StatsSink`] are [`Sink`]s: one pass each, keeping
//! no event, through the [`Metrics`] registry `--metrics` fills from a live
//! run.
//!
//! Everything here is a pure function of the event sequence — no maps
//! with nondeterministic iteration, no wall clock — so verifying the same
//! trace twice produces byte-identical reports.

use std::collections::BTreeMap;
use std::io::{self, BufRead};

use crate::event::{Event, EventKind};
use crate::json::{self, Obj, Value};
use crate::metrics::{Metrics, TxnStats};
use crate::sink::Sink;

// ----------------------------------------------------------------------
// Parsing: the inverse of `export::event_json`
// ----------------------------------------------------------------------

/// An event line's fields; bit `i` of `taken` is set once field `i` is read.
struct Fields<'v> {
    fields: &'v [(String, Value)],
    taken: u64,
}

impl<'v> Fields<'v> {
    fn get(&mut self, key: &str) -> Option<&'v Value> {
        let ix = self.fields.iter().position(|(k, _)| k == key)?;
        self.taken |= 1u64.checked_shl(ix as u32).unwrap_or(0);
        Some(&self.fields[ix].1)
    }

    fn need(&mut self, key: &str) -> Result<&'v Value, String> {
        self.get(key).ok_or_else(|| format!("missing field {key:?}"))
    }

    fn u64(&mut self, key: &str) -> Result<u64, String> {
        self.need(key)?.as_u64().ok_or_else(|| format!("field {key:?} is not a u64"))
    }

    fn u32(&mut self, key: &str) -> Result<u32, String> {
        u32::try_from(self.u64(key)?).map_err(|_| format!("field {key:?} exceeds u32"))
    }

    fn str(&mut self, key: &str) -> Result<String, String> {
        let value = self.need(key)?.as_str();
        Ok(value.ok_or_else(|| format!("field {key:?} is not a string"))?.to_string())
    }

    fn bool(&mut self, key: &str) -> Result<bool, String> {
        self.need(key)?.as_bool().ok_or_else(|| format!("field {key:?} is not a bool"))
    }

    /// The first key no reader took (past the 64th field, every key).
    fn untaken(&self) -> Option<&'v str> {
        let taken = |ix: usize| ix < 64 && self.taken >> ix & 1 == 1;
        self.fields.iter().enumerate().find(|&(ix, _)| !taken(ix)).map(|(_, (k, _))| k.as_str())
    }
}

/// Parse one JSONL line back into a typed [`Event`] (the exact inverse of
/// [`crate::export::event_json`]). Unknown kinds, and keys the line's kind
/// does not carry, are an error — the taxonomy is closed.
fn parse_event(line: &str) -> Result<Event, String> {
    let v = json::parse(line)?;
    let mut f = Fields { fields: if let Value::Obj(fields) = &v { fields } else { &[] }, taken: 0 };
    let time = f.u64("t")?;
    let site = if f.get("site").is_some() { Some(f.u32("site")?) } else { None };
    let txn = if f.get("txn").is_some() { Some(f.u64("txn")?) } else { None };
    let kind = match f.str("kind")?.as_str() {
        "transition" => EventKind::Transition { from: f.str("from")?, to: f.str("to")? },
        "vote" => EventKind::Vote { yes: f.bool("yes")? },
        "msg-send" => EventKind::MsgSend { dst: f.u32("dst")?, label: f.str("label")? },
        "msg-deliver" => EventKind::MsgDeliver { src: f.u32("src")?, label: f.str("label")? },
        "msg-drop" => EventKind::MsgDrop { dst: f.u32("dst")?, label: f.str("label")? },
        "decision" => EventKind::Decision { commit: f.bool("commit")? },
        "crash" => EventKind::Crash,
        "recover" => EventKind::Recover,
        "failure-notice" => EventKind::FailureNotice { crashed: f.u32("crashed")? },
        "recovery-notice" => EventKind::RecoveryNotice { recovered: f.u32("recovered")? },
        "suspect" => EventKind::Suspect { suspected: f.u32("suspected")? },
        "unsuspect" => EventKind::Unsuspect { suspected: f.u32("suspected")? },
        "election" => EventKind::Election { backup: f.u32("backup")? },
        "aligned" => EventKind::Aligned { class: f.str("class")? },
        "blocked" => EventKind::Blocked { backup: f.u32("backup")? },
        "wal-append" => EventKind::WalAppend { bytes: f.u64("bytes")?, record: f.str("record")? },
        "wal-fsync" => EventKind::WalFsync { physical: f.bool("physical")? },
        "wal-compact" => EventKind::WalCompact { before: f.u64("before")?, after: f.u64("after")? },
        "admit" => EventKind::Admit,
        "park" => EventKind::Park,
        "die" => EventKind::Die,
        "reap" => EventKind::Reap { commit: f.bool("commit")? },
        "partition" => EventKind::Partition { groups: f.str("groups")? },
        "snapshot" => EventKind::Snapshot {
            committed: f.u64("committed")?,
            in_flight: f.u64("in_flight")?,
            blocked: f.u64("blocked")?,
            wal_bytes: f.u64("wal_bytes")?,
        },
        "note" => EventKind::Note { text: f.str("text")? },
        other => return Err(format!("unknown event kind {other:?}")),
    };
    match f.untaken() {
        Some(key) => Err(format!("unknown key {key:?}")),
        None => Ok(Event { time, site, txn, kind }),
    }
}

/// Parse a JSONL trace (a `--trace` file or a flight-recorder dump) one
/// line at a time, holding that line alone, and hand each event to `each`.
/// A line ends at `\n` or `\r\n`; blank lines are skipped. A line that is
/// not UTF-8 or not an event is an [`io::ErrorKind::InvalidData`] error
/// that starts with its 1-based number; other errors are `input`'s own.
pub fn fold_jsonl(mut input: impl BufRead, mut each: impl FnMut(Event)) -> io::Result<()> {
    let mut buf = Vec::new();
    for number in 1.. {
        buf.clear();
        if input.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        let line = buf.strip_suffix(b"\n").map_or(&buf[..], |l| l.strip_suffix(b"\r").unwrap_or(l));
        let event = match std::str::from_utf8(line) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => parse_event(line),
            Err(_) => Err("stream did not contain valid UTF-8".to_string()),
        };
        let bad = |e| io::Error::new(io::ErrorKind::InvalidData, format!("line {number}: {e}"));
        each(event.map_err(bad)?);
    }
    Ok(())
}

/// Parse a whole JSONL trace into its events (see [`fold_jsonl`]).
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    fold_jsonl(text.as_bytes(), |e| events.push(e)).map_err(|e| e.to_string())?;
    Ok(events)
}

/// True for the bare kebab-case payload labels of *protocol* messages
/// (`yes`, `commit`, `msg3`, ...). Control traffic — termination,
/// recovery, and decision distribution — renders with spaces and
/// punctuation (`align-to(p) from backup site1`), so the label shape
/// separates the two without the analyzer knowing any protocol.
pub(crate) fn is_protocol_label(label: &str) -> bool {
    !label.is_empty()
        && label.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
}

/// A message event's link `(src, dst)` and payload label, and whether it
/// hands the message to the network (`true`: a send) or takes it off (a
/// delivery or a drop). A message event without a site has no link.
fn message(e: &Event) -> Option<(bool, (u32, u32), &str)> {
    let site = e.site?;
    match &e.kind {
        EventKind::MsgSend { dst, label } => Some((true, (site, *dst), label)),
        EventKind::MsgDeliver { src, label } => Some((false, (*src, site), label)),
        EventKind::MsgDrop { dst, label } => Some((false, (site, *dst), label)),
        _ => None,
    }
}

// ----------------------------------------------------------------------
// Trace-based oracles
// ----------------------------------------------------------------------

/// Cap on violation detail lines per check, so a corrupt trace renders a
/// readable report instead of one line per event.
const MAX_VIOLATIONS_SHOWN: usize = 8;

/// One offline oracle's outcome.
pub(crate) struct TraceCheck {
    /// Stable check name (`conservation`, `decision-consistency`, ...).
    pub(crate) name: &'static str,
    /// One-line summary of what was checked (shown even when clean).
    pub(crate) summary: String,
    /// Violation details; empty means the check passed.
    pub(crate) violations: Vec<String>,
}

impl TraceCheck {
    /// True when no violations were found.
    pub(crate) fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Gray–Lamport cost counters read off the trace: the quantities their
/// *Consensus on Transaction Commit* uses to compare commit protocols.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct GlCounters {
    /// Protocol messages sent (control traffic excluded).
    pub(crate) protocol_msgs: u64,
    /// Stable writes: physical WAL forces.
    pub(crate) stable_writes: u64,
    /// Transactions with at least one decision event.
    pub(crate) decided_txns: u64,
    /// Largest first-event → first-decision delay across transactions.
    pub(crate) max_decision_delay: Option<u64>,
}

/// The full offline audit, made by [`AuditSink::finish`].
pub struct TraceReport {
    /// Events analyzed.
    pub(crate) events: u64,
    /// Transactions seen.
    pub(crate) txns: u64,
    /// The oracle outcomes, in fixed order.
    pub(crate) checks: Vec<TraceCheck>,
    /// The Gray–Lamport accounting.
    pub(crate) gl: GlCounters,
}

impl TraceReport {
    /// True when every check passed.
    pub fn ok(&self) -> bool {
        self.checks.iter().all(TraceCheck::ok)
    }

    /// Render the deterministic human-readable report.
    pub fn render(&self) -> String {
        let mut out = format!("trace verify: {} events, {} txns\n", self.events, self.txns);
        for c in &self.checks {
            let verdict = if c.ok() { "ok" } else { "VIOLATION" };
            out.push_str(&format!("  {:<22} {verdict:<9} {}\n", c.name, c.summary));
            for v in &c.violations {
                out.push_str(&format!("    {v}\n"));
            }
        }
        let delay = self.gl.max_decision_delay.map_or_else(|| "-".to_string(), |d| d.to_string());
        out.push_str(&format!(
            "  gray-lamport: protocol-msgs={} stable-writes={} decided-txns={} max-decision-delay={}\n",
            self.gl.protocol_msgs, self.gl.stable_writes, self.gl.decided_txns, delay
        ));
        out.push_str(if self.ok() { "result: PASS\n" } else { "result: FAIL\n" });
        out
    }

    /// Encode the report as one JSON object (fixed key order).
    pub fn to_json(&self) -> String {
        let checks = json::array(self.checks.iter().map(|c| {
            Obj::new()
                .str("name", c.name)
                .bool("ok", c.ok())
                .str("summary", &c.summary)
                .raw("violations", &json::array(c.violations.iter().map(|v| json::string(v))))
                .build()
        }));
        let mut gl = Obj::new()
            .num("protocol_msgs", self.gl.protocol_msgs)
            .num("stable_writes", self.gl.stable_writes)
            .num("decided_txns", self.gl.decided_txns);
        gl = match self.gl.max_decision_delay {
            Some(d) => gl.num("max_decision_delay", d),
            None => gl.raw("max_decision_delay", "null"),
        };
        Obj::new()
            .num("events", self.events)
            .num("txns", self.txns)
            .bool("ok", self.ok())
            .raw("checks", &checks)
            .raw("gray_lamport", &gl.build())
            .build()
    }
}

/// A check's findings: the first [`MAX_VIOLATIONS_SHOWN`] rendered, every
/// one counted.
#[derive(Default)]
struct Findings {
    shown: Vec<String>,
    total: usize,
}

impl Findings {
    fn push(&mut self, finding: impl FnOnce() -> String) {
        self.total += 1;
        if self.shown.len() < MAX_VIOLATIONS_SHOWN {
            self.shown.push(finding());
        }
    }

    /// The check these findings make, saying how many were not shown.
    fn check(self, name: &'static str, summary: String) -> TraceCheck {
        let mut violations = self.shown;
        if self.total > MAX_VIOLATIONS_SHOWN {
            violations.push(format!("... and {} more", self.total - MAX_VIOLATIONS_SHOWN));
        }
        TraceCheck { name, summary, violations }
    }
}

/// Sends and receipts (deliveries and drops) on one `(src, dst)` link.
#[derive(Default)]
struct Link {
    sends: u64,
    receipts: u64,
    /// Sends no receipt has taken yet, per payload label. The network
    /// delivers each `(src, dst, label)` channel in FIFO order, so which
    /// send a receipt takes never matters, only whether one is pending.
    pending: BTreeMap<String, u64>,
}

/// The offline audit: one pass over the events through the one [`Metrics`]
/// registry, keeping beside it what the four oracles read. Feed it a
/// trace's events (it is a [`Sink`]), then call [`AuditSink::finish`],
/// which yields a byte-identical report for the same trace.
#[derive(Default)]
pub struct AuditSink {
    metrics: Metrics,
    links: BTreeMap<(u32, u32), Link>,
    /// Receipts whose channel had no pending send.
    orphans: u64,
    /// Per transaction: (saw a commit, saw an abort).
    verdicts: BTreeMap<u64, (bool, bool)>,
    /// `(site, txn)` pairs with a WAL append: whether one was a decision
    /// record.
    logged: BTreeMap<(u32, u64), bool>,
    protocol_sends: u64,
    sends_before_wal: Findings,
    decisions: u64,
    unlogged_decisions: Findings,
}

impl Sink for AuditSink {
    fn record(&mut self, e: &Event) {
        self.metrics.record(e);
        if let Some((send, link, label)) = message(e) {
            let link = self.links.entry(link).or_default();
            if send {
                link.sends += 1;
                *link.pending.entry(label.to_string()).or_default() += 1;
            } else {
                link.receipts += 1;
                match link.pending.get_mut(label) {
                    Some(n) if *n > 0 => *n -= 1,
                    _ => self.orphans += 1,
                }
            }
        }
        let at = e.site.zip(e.txn);
        match &e.kind {
            EventKind::WalAppend { record, .. } => {
                if let Some(at) = at {
                    *self.logged.entry(at).or_default() |= record == "decision";
                }
            }
            EventKind::MsgSend { dst, label } if is_protocol_label(label) => {
                self.protocol_sends += 1;
                if let Some((site, txn)) = at.filter(|at| !self.logged.contains_key(at)) {
                    self.sends_before_wal.push(|| {
                        format!(
                            "t={} site{site} txn {txn}: sent {label:?} to site{dst} before any WAL append",
                            e.time
                        )
                    });
                }
            }
            EventKind::Decision { commit } => {
                self.decisions += 1;
                if let Some((site, txn)) = at.filter(|at| self.logged.get(at) != Some(&true)) {
                    let verdict = if *commit { "commit" } else { "abort" };
                    self.unlogged_decisions.push(|| {
                        format!(
                            "t={} site{site} txn {txn}: decided {verdict} without a durable decision record",
                            e.time
                        )
                    });
                }
            }
            _ => {}
        }
        if let (EventKind::Decision { commit } | EventKind::Reap { commit }, Some(txn)) =
            (&e.kind, e.txn)
        {
            let (committed, aborted) = self.verdicts.entry(txn).or_default();
            *if *commit { committed } else { aborted } = true;
        }
    }
}

impl AuditSink {
    /// Sends no receipt took: messages in flight when the trace stopped
    /// (zero at quiescence).
    fn in_flight(&self) -> u64 {
        self.links.values().flat_map(|link| link.pending.values()).sum()
    }

    /// The four oracles' outcomes and the Gray–Lamport accounting of the
    /// events recorded.
    pub fn finish(self) -> TraceReport {
        let m = &self.metrics;
        let (sent, delivered, dropped) = (m.msgs_sent, m.msgs_delivered, m.msgs_dropped);
        let mut imbalance = Findings::default();
        if sent != delivered + dropped {
            imbalance.push(|| {
                format!("global: {sent} sent != {delivered} delivered + {dropped} dropped")
            });
        }
        for ((src, dst), link) in &self.links {
            let (s, r) = (link.sends, link.receipts);
            if s != r {
                imbalance
                    .push(|| format!("channel site{src}->site{dst}: {s} sends vs {r} receipts"));
            }
        }
        let orphans = self.orphans;
        if orphans > 0 {
            imbalance.push(|| {
                format!("{orphans} deliveries/drops with no matching send (label-level FIFO)")
            });
        }
        let in_flight = self.in_flight();
        if in_flight > 0 && sent != delivered + dropped {
            imbalance.push(|| format!("{in_flight} sends never delivered or dropped"));
        }
        let mut mixed = Findings::default();
        for (txn, _) in self.verdicts.iter().filter(|(_, (c, a))| *c && *a) {
            mixed.push(|| format!("txn {txn}: both commit and abort observed"));
        }
        let delays = m.txns.values().filter_map(TxnStats::latency);
        TraceReport {
            events: m.events,
            txns: m.txns.len() as u64,
            checks: vec![
                imbalance.check(
                    "conservation",
                    format!("{sent} sent = {delivered} delivered + {dropped} dropped"),
                ),
                mixed
                    .check("decision-consistency", format!("{} decided txns", self.verdicts.len())),
                self.sends_before_wal
                    .check("wal-before-send", format!("{} protocol sends", self.protocol_sends)),
                self.unlogged_decisions
                    .check("stable-decision", format!("{} decision events", self.decisions)),
            ],
            gl: GlCounters {
                protocol_msgs: self.protocol_sends,
                stable_writes: m.wal_fsyncs_physical,
                decided_txns: delays.clone().count() as u64,
                max_decision_delay: delays.max(),
            },
        }
    }
}

// ----------------------------------------------------------------------
// Time-series statistics
// ----------------------------------------------------------------------

/// Decision-latency percentiles and the metrics-snapshot curve, made by
/// [`StatsSink::finish`].
pub struct TraceStats {
    /// Events analyzed.
    pub(crate) events: u64,
    /// Transactions seen.
    pub(crate) txns: u64,
    /// Exact per-transaction decision latencies (first event → first
    /// decision), ascending.
    pub(crate) latencies: Vec<u64>,
    /// The `snapshot` rows, in trace order:
    /// `(t, committed, in_flight, blocked, wal_bytes)`.
    pub(crate) snapshots: Vec<(u64, u64, u64, u64, u64)>,
}

impl TraceStats {
    /// Exact nearest-rank percentile over the latencies (`p` in 1..=100).
    pub(crate) fn percentile(&self, p: u64) -> Option<u64> {
        if self.latencies.is_empty() {
            return None;
        }
        let rank = (self.latencies.len() as u64 * p).div_ceil(100).max(1) as usize;
        Some(self.latencies[rank.min(self.latencies.len()) - 1])
    }

    /// Render the deterministic human-readable summary.
    pub fn render(&self) -> String {
        let mut out = format!("trace stats: {} events, {} txns\n", self.events, self.txns);
        match self.percentile(50) {
            Some(p50) => {
                let (p95, p99) = (self.percentile(95).unwrap(), self.percentile(99).unwrap());
                let max = *self.latencies.last().unwrap();
                out.push_str(&format!(
                    "  decision latency: n={} p50={p50} p95={p95} p99={p99} max={max}\n",
                    self.latencies.len()
                ));
            }
            None => out.push_str("  decision latency: no decided transactions\n"),
        }
        if !self.snapshots.is_empty() {
            out.push_str(&format!(
                "  time series ({} snapshots):\n    {:>8} {:>9} {:>9} {:>8} {:>10} {:>8}\n",
                self.snapshots.len(),
                "t",
                "committed",
                "in-flight",
                "blocked",
                "wal-bytes",
                "goodput"
            ));
            let mut prev: Option<(u64, u64)> = None; // (t, committed)
            for &(t, committed, in_flight, blocked, wal_bytes) in &self.snapshots {
                // Goodput over the preceding interval, in decisions per
                // 1000 time units (integer, so the render is exact).
                let goodput = match prev {
                    Some((pt, pc)) if t > pt => (committed.saturating_sub(pc)) * 1000 / (t - pt),
                    _ => 0,
                };
                out.push_str(&format!(
                    "    {t:>8} {committed:>9} {in_flight:>9} {blocked:>8} {wal_bytes:>10} {goodput:>8}\n"
                ));
                prev = Some((t, committed));
            }
        }
        out
    }

    /// Encode the summary as one JSON object (fixed key order).
    pub fn to_json(&self) -> String {
        let mut latency = Obj::new().num("n", self.latencies.len() as u64);
        for (key, p) in [("p50", 50), ("p95", 95), ("p99", 99)] {
            latency = match self.percentile(p) {
                Some(v) => latency.num(key, v),
                None => latency.raw(key, "null"),
            };
        }
        latency = match self.latencies.last() {
            Some(max) => latency.num("max", *max),
            None => latency.raw("max", "null"),
        };
        let snapshots = json::array(self.snapshots.iter().map(
            |&(t, committed, in_flight, blocked, wal_bytes)| {
                Obj::new()
                    .num("t", t)
                    .num("committed", committed)
                    .num("in_flight", in_flight)
                    .num("blocked", blocked)
                    .num("wal_bytes", wal_bytes)
                    .build()
            },
        ));
        Obj::new()
            .num("events", self.events)
            .num("txns", self.txns)
            .raw("decision_latency", &latency.build())
            .raw("snapshots", &snapshots)
            .build()
    }
}

/// Decision latencies off the one [`Metrics`] registry, and the
/// `snapshot` rows. Feed it a trace's events (it is a
/// [`Sink`]), then call [`StatsSink::finish`].
#[derive(Default)]
pub struct StatsSink {
    metrics: Metrics,
    snapshots: Vec<(u64, u64, u64, u64, u64)>,
}

impl Sink for StatsSink {
    fn record(&mut self, e: &Event) {
        self.metrics.record(e);
        if let EventKind::Snapshot { committed, in_flight, blocked, wal_bytes } = e.kind {
            self.snapshots.push((e.time, committed, in_flight, blocked, wal_bytes));
        }
    }
}

impl StatsSink {
    /// Decision-latency percentiles and the snapshot rows of the events
    /// recorded.
    pub fn finish(self) -> TraceStats {
        let mut latencies: Vec<u64> =
            self.metrics.txns.values().filter_map(TxnStats::latency).collect();
        latencies.sort_unstable();
        TraceStats {
            events: self.metrics.events,
            txns: self.metrics.txns.len() as u64,
            latencies,
            snapshots: self.snapshots,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::collections::{BTreeSet, VecDeque};

    use super::*;
    use crate::export::to_jsonl;

    /// An [`AuditSink`]'s report on `events`.
    fn verify(events: &[Event]) -> TraceReport {
        let mut audit = AuditSink::default();
        events.iter().for_each(|e| audit.record(e));
        audit.finish()
    }

    /// A [`StatsSink`]'s summary of `events`.
    fn stats(events: &[Event]) -> TraceStats {
        let mut sink = StatsSink::default();
        events.iter().for_each(|e| sink.record(e));
        sink.finish()
    }

    /// One event of every kind.
    pub(crate) fn all_kinds() -> Vec<Event> {
        vec![
            Event::new(0, EventKind::Transition { from: "q1".into(), to: "w1".into() })
                .at_site(1)
                .for_txn(1),
            Event::new(1, EventKind::Vote { yes: true }).at_site(1).for_txn(1),
            Event::new(2, EventKind::MsgSend { dst: 0, label: "yes".into() }).at_site(1).for_txn(1),
            Event::new(3, EventKind::MsgDeliver { src: 1, label: "yes".into() })
                .at_site(0)
                .for_txn(1),
            Event::new(4, EventKind::MsgDrop { dst: 2, label: "commit".into() }).at_site(0),
            Event::new(5, EventKind::Decision { commit: true }).at_site(0).for_txn(1),
            Event::new(6, EventKind::Crash).at_site(2),
            Event::new(7, EventKind::Recover).at_site(2),
            Event::new(8, EventKind::FailureNotice { crashed: 2 }).at_site(0),
            Event::new(9, EventKind::RecoveryNotice { recovered: 2 }).at_site(0),
            Event::new(10, EventKind::Suspect { suspected: 2 }).at_site(0),
            Event::new(10, EventKind::Unsuspect { suspected: 2 }).at_site(0),
            Event::new(10, EventKind::Election { backup: 1 }).at_site(1).for_txn(1),
            Event::new(11, EventKind::Aligned { class: "p".into() }).at_site(1).for_txn(1),
            Event::new(12, EventKind::Blocked { backup: 1 }).at_site(1).for_txn(1),
            Event::new(13, EventKind::WalAppend { bytes: 31, record: "progress".into() })
                .at_site(1)
                .for_txn(1),
            Event::new(14, EventKind::WalFsync { physical: true }).at_site(1).for_txn(1),
            Event::new(15, EventKind::WalCompact { before: 400, after: 60 }).at_site(1),
            Event::new(16, EventKind::Admit).for_txn(2),
            Event::new(17, EventKind::Park).for_txn(2),
            Event::new(18, EventKind::Die).for_txn(2),
            Event::new(19, EventKind::Reap { commit: false }).for_txn(2),
            Event::new(20, EventKind::Partition { groups: "[0, 0, 1]".into() }),
            Event::new(
                21,
                EventKind::Snapshot { committed: 5, in_flight: 2, blocked: 1, wal_bytes: 999 },
            ),
            Event::new(22, EventKind::Note { text: "free-form \"quoted\"".into() }),
        ]
    }

    #[test]
    fn every_kind_round_trips_through_jsonl() {
        let events = all_kinds();
        let text = to_jsonl(&events);
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, events);
        // And re-exporting the parse is byte-identical.
        assert_eq!(to_jsonl(&back), text);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_event("{\"t\":0,\"kind\":\"no-such-kind\"}").is_err());
        assert!(parse_event("{\"kind\":\"crash\"}").is_err(), "missing t");
        assert!(parse_event("{\"t\":1,\"kind\":\"vote\"}").is_err(), "missing yes");
        assert!(parse_event("not json").is_err());
        let err = parse_jsonl("{\"t\":1,\"kind\":\"crash\"}\nbroken\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        // A key the line's kind does not carry, a common one included.
        let err = parse_jsonl("\n{\"t\":1,\"kind\":\"crash\",\"zz\":1}\n").unwrap_err();
        assert_eq!(err, "line 2: unknown key \"zz\"");
        let err = parse_event("{\"t\":1,\"kind\":\"vote\",\"yes\":true,\"commit\":true}");
        assert_eq!(err.unwrap_err(), "unknown key \"commit\"");
        let wide: String = (0..70).map(|i| format!(",\"k{i}\":0")).collect();
        let err = parse_event(&format!("{{\"t\":1,\"kind\":\"crash\"{wide}}}"));
        assert_eq!(err.unwrap_err(), "unknown key \"k0\"");
    }

    #[test]
    fn protocol_labels_are_bare_words() {
        for yes in ["yes", "commit", "msg12", "pre-commit"] {
            assert!(is_protocol_label(yes), "{yes}");
        }
        for no in ["", "what-happened?", "align-to(p) from backup site1", "outcome: committed"] {
            assert!(!is_protocol_label(no), "{no}");
        }
    }

    /// A trace with its happens-before structure reconstructed, by brute
    /// force: the reference the sinks' one-pass counts are held to.
    ///
    /// Lamport clocks are assigned in one pass: each chain (a site, or the
    /// virtual chain for site-less events) ticks in program order, and a
    /// delivery additionally dominates its matched send. Sends are matched
    /// to deliveries/drops per `(src, dst, label)` channel in FIFO order —
    /// the network's own delivery discipline.
    struct CausalTrace {
        clock: Vec<u64>,
        /// For deliver/drop events: index of the matched send.
        matched_send: Vec<Option<usize>>,
        /// For send events: index of the matched deliver/drop.
        receipt: Vec<Option<usize>>,
        /// Next event on the same chain, for reachability walks.
        next_in_chain: Vec<Option<usize>>,
    }

    impl CausalTrace {
        fn build(events: &[Event]) -> Self {
            let n = events.len();
            let mut clock = vec![0u64; n];
            let mut matched_send = vec![None; n];
            let mut receipt = vec![None; n];
            let mut next_in_chain = vec![None; n];
            let mut chain_clock: BTreeMap<Option<u32>, u64> = BTreeMap::new();
            let mut chain_last: BTreeMap<Option<u32>, usize> = BTreeMap::new();
            let mut queues: BTreeMap<((u32, u32), String), VecDeque<usize>> = BTreeMap::new();

            for (i, e) in events.iter().enumerate() {
                match message(e) {
                    Some((true, link, label)) => {
                        queues.entry((link, label.to_string())).or_default().push_back(i);
                    }
                    Some((false, link, label)) => {
                        let queue = queues.get_mut(&(link, label.to_string()));
                        if let Some(j) = queue.and_then(VecDeque::pop_front) {
                            matched_send[i] = Some(j);
                            receipt[j] = Some(i);
                        }
                    }
                    None => {}
                }
                let mut c = chain_clock.get(&e.site).copied().unwrap_or(0) + 1;
                if let Some(j) = matched_send[i] {
                    c = c.max(clock[j] + 1);
                }
                clock[i] = c;
                chain_clock.insert(e.site, c);
                if let Some(&prev) = chain_last.get(&e.site) {
                    next_in_chain[prev] = Some(i);
                }
                chain_last.insert(e.site, i);
            }

            Self { clock, matched_send, receipt, next_in_chain }
        }

        /// For a deliver/drop event, the index of the send it consumed.
        fn send_of(&self, ix: usize) -> Option<usize> {
            self.matched_send[ix]
        }

        /// True when event `a` happens-before event `b` in Lamport's sense:
        /// reachable along program order (same chain) and send→receipt
        /// edges.
        fn happens_before(&self, a: usize, b: usize) -> bool {
            if a == b {
                return false;
            }
            let mut frontier = vec![a];
            let mut seen = BTreeSet::new();
            while let Some(i) = frontier.pop() {
                if i == b {
                    return true;
                }
                // The clock is monotone along every edge, so anything at or
                // past b's clock cannot lead back to b.
                if self.clock[i] >= self.clock[b] || !seen.insert(i) {
                    continue;
                }
                if let Some(j) = self.next_in_chain[i] {
                    frontier.push(j);
                }
                if let Some(j) = self.receipt[i] {
                    frontier.push(j);
                }
            }
            false
        }
    }

    fn msg_chain() -> Vec<Event> {
        vec![
            Event::new(0, EventKind::Note { text: "start".into() }).at_site(0),
            Event::new(1, EventKind::MsgSend { dst: 1, label: "m".into() }).at_site(0),
            Event::new(2, EventKind::Note { text: "independent".into() }).at_site(2),
            Event::new(5, EventKind::MsgDeliver { src: 0, label: "m".into() }).at_site(1),
            Event::new(6, EventKind::MsgSend { dst: 2, label: "n".into() }).at_site(1),
            Event::new(9, EventKind::MsgDeliver { src: 1, label: "n".into() }).at_site(2),
        ]
    }

    #[test]
    fn lamport_clocks_respect_message_edges() {
        let ct = CausalTrace::build(&msg_chain());
        // Delivery dominates both its sender chain and its own site chain.
        assert!(ct.clock[3] > ct.clock[1]);
        assert!(ct.clock[5] > ct.clock[4]);
        assert!(ct.clock[5] > ct.clock[2], "site2's chain ticked");
        assert_eq!(ct.send_of(3), Some(1));
        assert_eq!(ct.receipt[1], Some(3));
    }

    /// The audit's label-level FIFO counts are what matching receipts to
    /// sends in [`CausalTrace`] gives — receipts that took no send, sends no
    /// receipt took — over random message events on three sites and two
    /// labels, some without a site.
    #[test]
    fn the_audit_counts_what_causal_matching_counts() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for _ in 0..2_000 {
            let len = next(40);
            let events: Vec<Event> = (0..len)
                .map(|t| {
                    let peer = next(3) as u32;
                    let label = if next(2) == 0 { "yes" } else { "commit" }.to_string();
                    let kind = match next(3) {
                        0 => EventKind::MsgSend { dst: peer, label },
                        1 => EventKind::MsgDeliver { src: peer, label },
                        _ => EventKind::MsgDrop { dst: peer, label },
                    };
                    let event = Event::new(t, kind);
                    if next(8) == 0 {
                        event
                    } else {
                        event.at_site(next(3) as usize)
                    }
                })
                .collect();
            let mut audit = AuditSink::default();
            events.iter().for_each(|e| audit.record(e));
            let causal = CausalTrace::build(&events);
            let receipts: Vec<usize> = (0..events.len())
                .filter(|&i| matches!(message(&events[i]), Some((false, ..))))
                .collect();
            let taken: BTreeSet<usize> =
                receipts.iter().filter_map(|&i| causal.send_of(i)).collect();
            let orphans = receipts.iter().filter(|&&i| causal.send_of(i).is_none()).count();
            let in_flight = (0..events.len())
                .filter(|&i| matches!(message(&events[i]), Some((true, ..))) && !taken.contains(&i))
                .count();
            assert_eq!(audit.orphans, orphans as u64, "{events:?}");
            assert_eq!(audit.in_flight(), in_flight as u64, "{events:?}");
        }
    }

    #[test]
    fn happens_before_follows_program_and_message_order() {
        let ct = CausalTrace::build(&msg_chain());
        assert!(ct.happens_before(0, 1), "program order");
        assert!(ct.happens_before(1, 3), "send -> deliver");
        assert!(ct.happens_before(0, 5), "transitive across two hops");
        assert!(!ct.happens_before(2, 3), "site2's note is concurrent with the delivery");
        assert!(!ct.happens_before(5, 0), "no edge runs backwards");
    }

    /// A minimal clean trace that satisfies all four oracles.
    fn clean_trace() -> Vec<Event> {
        vec![
            Event::new(0, EventKind::WalAppend { bytes: 20, record: "progress".into() })
                .at_site(0)
                .for_txn(1),
            Event::new(0, EventKind::WalFsync { physical: true }).at_site(0).for_txn(1),
            Event::new(1, EventKind::MsgSend { dst: 1, label: "msg1".into() })
                .at_site(0)
                .for_txn(1),
            Event::new(3, EventKind::MsgDeliver { src: 0, label: "msg1".into() })
                .at_site(1)
                .for_txn(1),
            Event::new(3, EventKind::WalAppend { bytes: 24, record: "decision".into() })
                .at_site(1)
                .for_txn(1),
            Event::new(3, EventKind::WalFsync { physical: true }).at_site(1).for_txn(1),
            Event::new(3, EventKind::Decision { commit: true }).at_site(1).for_txn(1),
        ]
    }

    #[test]
    fn verify_passes_a_clean_trace() {
        let report = verify(&clean_trace());
        assert!(report.ok(), "{}", report.render());
        assert_eq!(report.gl.protocol_msgs, 1);
        assert_eq!(report.gl.stable_writes, 2);
        assert_eq!(report.gl.decided_txns, 1);
        assert_eq!(report.gl.max_decision_delay, Some(3));
        let rendered = report.render();
        assert!(rendered.contains("result: PASS"), "{rendered}");
        crate::json::validate(&report.to_json()).unwrap();
    }

    #[test]
    fn verify_flags_a_dropped_deliver() {
        let mut events = clean_trace();
        events.retain(|e| !matches!(e.kind, EventKind::MsgDeliver { .. }));
        let report = verify(&events);
        assert!(!report.ok());
        let rendered = report.render();
        assert!(rendered.contains("conservation"), "{rendered}");
        assert!(rendered.contains("result: FAIL"), "{rendered}");
    }

    #[test]
    fn verify_flags_conflicting_decisions() {
        let mut events = clean_trace();
        events.push(
            Event::new(9, EventKind::WalAppend { bytes: 24, record: "decision".into() })
                .at_site(0)
                .for_txn(1),
        );
        events.push(Event::new(9, EventKind::Decision { commit: false }).at_site(0).for_txn(1));
        let report = verify(&events);
        let bad: Vec<_> = report.checks.iter().filter(|c| !c.ok()).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].name, "decision-consistency");
        assert!(bad[0].violations[0].contains("txn 1"), "{:?}", bad[0].violations);
    }

    #[test]
    fn verify_flags_send_before_wal() {
        let mut events = clean_trace();
        // Move the send in front of its WAL append.
        let send = events.remove(2);
        events.insert(0, send);
        let report = verify(&events);
        let bad: Vec<_> = report.checks.iter().filter(|c| !c.ok()).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].name, "wal-before-send");
    }

    #[test]
    fn verify_flags_unlogged_decision() {
        let mut events = clean_trace();
        events.retain(
            |e| !matches!(&e.kind, EventKind::WalAppend { record, .. } if record == "decision"),
        );
        let report = verify(&events);
        let bad: Vec<_> = report.checks.iter().filter(|c| !c.ok()).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].name, "stable-decision");
    }

    /// Twelve unbalanced channels over four sites make fourteen findings
    /// (the global balance, the channels, the sends in flight): eight are
    /// shown and the other six counted.
    #[test]
    fn verify_counts_every_conservation_finding() {
        let mut events = Vec::new();
        for src in 0..4 {
            for dst in (0..4).filter(|&dst| dst != src) {
                let send = EventKind::MsgSend { dst, label: "m".into() };
                events.push(Event::new(0, send).at_site(src as usize));
            }
        }
        let report = verify(&events);
        let conservation = &report.checks[0];
        assert_eq!(conservation.name, "conservation");
        assert_eq!(conservation.violations.len(), MAX_VIOLATIONS_SHOWN + 1);
        assert_eq!(conservation.violations[0], "global: 12 sent != 0 delivered + 0 dropped");
        assert_eq!(conservation.violations[MAX_VIOLATIONS_SHOWN], "... and 6 more");
    }

    #[test]
    fn verify_is_deterministic() {
        let mut events = clean_trace();
        events.retain(|e| !matches!(e.kind, EventKind::MsgDeliver { .. }));
        let a = verify(&events);
        let b = verify(&events);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn stats_percentiles_are_exact() {
        let mut events = Vec::new();
        for txn in 0..100u64 {
            events.push(Event::new(0, EventKind::Admit).for_txn(txn));
            events.push(
                Event::new(txn + 1, EventKind::Decision { commit: true }).at_site(0).for_txn(txn),
            );
        }
        let s = stats(&events);
        assert_eq!(s.txns, 100);
        assert_eq!(s.percentile(50), Some(50));
        assert_eq!(s.percentile(95), Some(95));
        assert_eq!(s.percentile(99), Some(99));
        assert_eq!(s.percentile(100), Some(100));
        let rendered = s.render();
        assert!(rendered.contains("p50=50 p95=95 p99=99 max=100"), "{rendered}");
        crate::json::validate(&s.to_json()).unwrap();
    }

    /// `stats`' latencies and `verify`'s transaction and Gray–Lamport
    /// counts are what a `Metrics` fold of the same events reads: two
    /// interleaved transactions, one never decided, one with an event timed
    /// before its first line, and a physical force outside any transaction.
    #[test]
    fn the_trace_folds_agree_with_metrics() {
        let fsync = |physical| EventKind::WalFsync { physical };
        let events = vec![
            Event::new(5, EventKind::Transition { from: "q".into(), to: "w".into() })
                .at_site(0)
                .for_txn(1),
            Event::new(6, EventKind::Admit).for_txn(2),
            Event::new(3, EventKind::MsgSend { dst: 1, label: "yes".into() }).at_site(0).for_txn(1),
            Event::new(7, fsync(true)).at_site(1).for_txn(2),
            Event::new(8, fsync(true)).at_site(0).for_txn(1),
            Event::new(9, fsync(false)).at_site(0).for_txn(1),
            Event::new(10, EventKind::MsgDeliver { src: 0, label: "yes".into() })
                .at_site(1)
                .for_txn(1),
            Event::new(12, EventKind::Decision { commit: true }).at_site(1).for_txn(1),
            Event::new(11, EventKind::MsgSend { dst: 0, label: "yes".into() })
                .at_site(1)
                .for_txn(2),
            Event::new(14, EventKind::Decision { commit: true }).at_site(0).for_txn(1),
            Event::new(15, fsync(true)).at_site(2),
        ];
        let mut metrics = crate::Metrics::default();
        for e in &events {
            crate::Sink::record(&mut metrics, e);
        }
        let mut latencies: Vec<u64> =
            metrics.txns.values().filter_map(crate::metrics::TxnStats::latency).collect();
        latencies.sort_unstable();
        assert_eq!(latencies, vec![9]);
        assert_eq!(stats(&events).latencies, latencies);
        let report = verify(&events);
        assert_eq!(report.txns, metrics.txns.len() as u64);
        assert_eq!(report.txns, 2);
        assert_eq!(report.gl.decided_txns, latencies.len() as u64);
        assert_eq!(report.gl.stable_writes, metrics.wal_fsyncs_physical);
        assert_eq!(report.gl.max_decision_delay, latencies.last().copied());
    }

    #[test]
    fn stats_render_the_snapshot_curve() {
        let events = vec![
            Event::new(
                100,
                EventKind::Snapshot { committed: 10, in_flight: 3, blocked: 0, wal_bytes: 500 },
            ),
            Event::new(
                200,
                EventKind::Snapshot { committed: 30, in_flight: 1, blocked: 1, wal_bytes: 900 },
            ),
        ];
        let s = stats(&events);
        assert_eq!(s.snapshots.len(), 2);
        let rendered = s.render();
        assert!(rendered.contains("time series (2 snapshots):"), "{rendered}");
        // Second interval: 20 decisions over 100 units = 200 per 1000.
        assert!(rendered.lines().last().unwrap().trim().ends_with("200"), "{rendered}");
    }
}
