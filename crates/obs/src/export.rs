//! Exporters: JSONL (one event per line) and Chrome trace-event format.
//!
//! Both are deterministic functions of the event sequence — no wall-clock
//! time, no map iteration order — so equal runs export byte-identical
//! files.

use std::collections::{BTreeMap, BTreeSet};

use crate::event::{Event, EventKind};
use crate::json::{array, Obj};

/// Encode one event as a single-line JSON object with a fixed key order:
/// `t`, then `site`/`txn` when present, then `kind`, then the kind's own
/// fields.
pub(crate) fn event_json(event: &Event) -> String {
    let mut o = Obj::new().num("t", event.time);
    if let Some(site) = event.site {
        o = o.num("site", u64::from(site));
    }
    if let Some(txn) = event.txn {
        o = o.num("txn", txn);
    }
    o = o.str("kind", event.kind.name());
    o = match &event.kind {
        EventKind::Transition { from, to } => o.str("from", from).str("to", to),
        EventKind::Vote { yes } => o.bool("yes", *yes),
        EventKind::MsgSend { dst, label } => o.num("dst", u64::from(*dst)).str("label", label),
        EventKind::MsgDeliver { src, label } => o.num("src", u64::from(*src)).str("label", label),
        EventKind::MsgDrop { dst, label } => o.num("dst", u64::from(*dst)).str("label", label),
        EventKind::Decision { commit } => o.bool("commit", *commit),
        EventKind::Crash | EventKind::Recover => o,
        EventKind::FailureNotice { crashed } => o.num("crashed", u64::from(*crashed)),
        EventKind::RecoveryNotice { recovered } => o.num("recovered", u64::from(*recovered)),
        EventKind::Suspect { suspected } | EventKind::Unsuspect { suspected } => {
            o.num("suspected", u64::from(*suspected))
        }
        EventKind::Election { backup } => o.num("backup", u64::from(*backup)),
        EventKind::Aligned { class } => o.str("class", class),
        EventKind::Blocked { backup } => o.num("backup", u64::from(*backup)),
        EventKind::WalAppend { bytes, record } => o.num("bytes", *bytes).str("record", record),
        EventKind::WalFsync { physical } => o.bool("physical", *physical),
        EventKind::WalCompact { before, after } => o.num("before", *before).num("after", *after),
        EventKind::Admit | EventKind::Park | EventKind::Die => o,
        EventKind::Reap { commit } => o.bool("commit", *commit),
        EventKind::Partition { groups } => o.str("groups", groups),
        EventKind::Snapshot { committed, in_flight, blocked, wal_bytes } => o
            .num("committed", *committed)
            .num("in_flight", *in_flight)
            .num("blocked", *blocked)
            .num("wal_bytes", *wal_bytes),
        EventKind::Note { text } => o.str("text", text),
    };
    o.build()
}

/// Encode the events as JSONL: one `event_json` object per line, each
/// line newline-terminated.
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&event_json(e));
        out.push('\n');
    }
    out
}

/// Chrome trace-event key for a timeline track: pid = transaction (0 when
/// unattributed), tid = site.
fn track(event: &Event) -> (u64, u64) {
    (event.txn.unwrap_or(0), u64::from(event.site.unwrap_or(0)))
}

/// Encode the events in Chrome trace-event JSON (load in Perfetto or
/// `chrome://tracing`). Each (transaction, site) pair becomes a named
/// track; state residencies render as `"X"` duration spans and the
/// remaining site-local events as `"i"` instants. Simulation time units
/// map 1:1 onto trace microseconds.
pub fn to_chrome(events: &[Event]) -> String {
    let mut records: Vec<String> = Vec::new();
    let mut tracks: BTreeSet<(u64, u64)> = BTreeSet::new();
    // Open state-residency span per (pid, tid): (start time, state name).
    let mut open: BTreeMap<(u64, u64), (u64, String)> = BTreeMap::new();
    let mut max_time = 0u64;

    let span = |pid: u64, tid: u64, name: &str, start: u64, end: u64| {
        Obj::new()
            .str("name", name)
            .str("ph", "X")
            .num("ts", start)
            .num("dur", end.saturating_sub(start))
            .num("pid", pid)
            .num("tid", tid)
            .build()
    };

    for e in events {
        max_time = max_time.max(e.time);
        let (pid, tid) = track(e);
        tracks.insert((pid, tid));
        match &e.kind {
            EventKind::Transition { from, to } => {
                let start = match open.remove(&(pid, tid)) {
                    Some((start, state)) => {
                        debug_assert_eq!(&state, from);
                        start
                    }
                    // First transition on this track: the site sat in
                    // `from` since t=0.
                    None => {
                        records.push(span(pid, tid, from, 0, e.time));
                        e.time
                    }
                };
                if start < e.time {
                    records.push(span(pid, tid, from, start, e.time));
                }
                open.insert((pid, tid), (e.time, to.clone()));
            }
            EventKind::Crash
            | EventKind::Recover
            | EventKind::Decision { .. }
            | EventKind::Blocked { .. }
            | EventKind::Election { .. }
            | EventKind::Suspect { .. }
            | EventKind::Unsuspect { .. }
            | EventKind::Aligned { .. }
            | EventKind::Admit
            | EventKind::Park
            | EventKind::Die
            | EventKind::Reap { .. }
            | EventKind::Partition { .. }
            | EventKind::MsgDrop { .. } => {
                records.push(
                    Obj::new()
                        .str("name", e.kind.name())
                        .str("ph", "i")
                        .str("s", "t")
                        .num("ts", e.time)
                        .num("pid", pid)
                        .num("tid", tid)
                        .build(),
                );
            }
            // Send/deliver/votes/WAL traffic are high-volume; they stay in
            // the JSONL export and the metrics table rather than cluttering
            // the timeline.
            _ => {}
        }
    }

    // Close the spans still open at the end of the run.
    for ((pid, tid), (start, state)) in open {
        records.push(span(pid, tid, &state, start, max_time + 1));
    }

    // Name each track after its site (and process after its transaction).
    for (pid, tid) in tracks {
        records.push(
            Obj::new()
                .str("name", "thread_name")
                .str("ph", "M")
                .num("pid", pid)
                .num("tid", tid)
                .raw("args", &Obj::new().str("name", &format!("site{tid}")).build())
                .build(),
        );
        records.push(
            Obj::new()
                .str("name", "process_name")
                .str("ph", "M")
                .num("pid", pid)
                .num("tid", tid)
                .raw("args", &Obj::new().str("name", &format!("txn{pid}")).build())
                .build(),
        );
    }

    Obj::new().raw("traceEvents", &array(records)).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    fn sample() -> Vec<Event> {
        vec![
            Event::new(0, EventKind::Transition { from: "q1".into(), to: "w1".into() })
                .at_site(1)
                .for_txn(1),
            Event::new(2, EventKind::MsgSend { dst: 0, label: "yes".into() }).at_site(1).for_txn(1),
            Event::new(4, EventKind::Transition { from: "w1".into(), to: "c1".into() })
                .at_site(1)
                .for_txn(1),
            Event::new(4, EventKind::Decision { commit: true }).at_site(1).for_txn(1),
            Event::new(5, EventKind::Crash).at_site(0),
        ]
    }

    #[test]
    fn jsonl_lines_are_valid_and_ordered() {
        let text = to_jsonl(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        for line in &lines {
            validate(line).unwrap();
        }
        assert_eq!(
            lines[0],
            "{\"t\":0,\"site\":1,\"txn\":1,\"kind\":\"transition\",\"from\":\"q1\",\"to\":\"w1\"}"
        );
        assert_eq!(lines[4], "{\"t\":5,\"site\":0,\"kind\":\"crash\"}");
    }

    #[test]
    fn chrome_export_is_valid_json_with_spans() {
        let chrome = to_chrome(&sample());
        validate(&chrome).unwrap();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        // w1 residency: entered at t=0 transition, left at t=4.
        assert!(chrome.contains("\"name\":\"w1\",\"ph\":\"X\",\"ts\":0,\"dur\":4"));
        // c1 still open at end (max time 5) → closed at 6.
        assert!(chrome.contains("\"name\":\"c1\",\"ph\":\"X\",\"ts\":4,\"dur\":2"));
        assert!(chrome.contains("\"name\":\"decision\",\"ph\":\"i\""));
        assert!(chrome.contains("\"name\":\"site1\""));
    }

    #[test]
    fn exports_are_deterministic() {
        let a = sample();
        let b = sample();
        assert_eq!(to_jsonl(&a), to_jsonl(&b));
        assert_eq!(to_chrome(&a), to_chrome(&b));
    }
}
