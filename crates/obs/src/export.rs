//! The trace file's encoders: JSONL (one event per line) and Chrome
//! trace-event format, in one [`Sink`], [`TraceWriter`], that writes each
//! record as its event arrives.
//!
//! Both are deterministic functions of the event sequence — no wall-clock
//! time, no map iteration order — so equal runs write byte-identical
//! files.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Write};

use crate::event::{Event, EventKind};
use crate::json::Obj;
use crate::sink::Sink;

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

/// A [`Sink`] that writes a trace as its events arrive: one `event_json`
/// line per event ([`TraceWriter::jsonl`]), or Chrome trace-event JSON
/// ([`TraceWriter::chrome`]; load it in Perfetto or `chrome://tracing`).
/// The first write error is kept, the writes after it are skipped, and
/// [`TraceWriter::finish`] returns it.
pub struct TraceWriter<W: Write> {
    out: W,
    /// What Chrome output holds until the end; `None` for JSONL.
    chrome: Option<Chrome>,
    /// Chrome records written, so every one but the first follows a comma.
    records: u64,
    error: Option<io::Error>,
}

impl<W: Write> TraceWriter<W> {
    /// JSONL: one `event_json` object per line, each newline-terminated.
    pub fn jsonl(out: W) -> Self {
        Self { out, chrome: None, records: 0, error: None }
    }

    /// Chrome trace-event JSON. Each (transaction, site) pair becomes a
    /// named track; state residencies render as `"X"` duration spans and
    /// the remaining site-local events as `"i"` instants. Simulation time
    /// units map 1:1 onto trace microseconds.
    pub fn chrome(out: W) -> Self {
        let mut writer = Self { out, chrome: Some(Chrome::default()), records: 0, error: None };
        writer.put(b"{\"traceEvents\":[");
        writer
    }

    fn put(&mut self, bytes: &[u8]) {
        if self.error.is_none() {
            self.error = self.out.write_all(bytes).err();
        }
    }

    fn put_record(&mut self, record: &str) {
        if self.records > 0 {
            self.put(b",");
        }
        self.records += 1;
        self.put(record.as_bytes());
    }

    /// End the trace after its last event: Chrome output closes the spans
    /// still open and names each track, one record at a time, then closes
    /// its array. Flushes, and returns the first write error.
    pub fn finish(&mut self) -> io::Result<()> {
        if let Some(Chrome { tracks, open, max_time }) = self.chrome.take() {
            for ((pid, tid), (start, state)) in open {
                self.put_record(&span(pid, tid, &state, start, max_time + 1));
            }
            for (pid, tid) in tracks {
                self.put_record(&track_name("thread_name", pid, tid, &format!("site{tid}")));
                self.put_record(&track_name("process_name", pid, tid, &format!("txn{pid}")));
            }
            self.put(b"]}");
        }
        self.error.take().map_or_else(|| self.out.flush(), Err)
    }
}

impl<W: Write> Sink for TraceWriter<W> {
    fn record(&mut self, event: &Event) {
        match &mut self.chrome {
            None => self.put((event_json(event) + "\n").as_bytes()),
            Some(chrome) => {
                if let Some(record) = chrome.record(event) {
                    self.put_record(&record);
                }
            }
        }
    }
}

/// Encode the events as JSONL: what [`TraceWriter::jsonl`] writes for
/// them, as a `String`.
pub fn to_jsonl<'a>(events: impl IntoIterator<Item = &'a Event>) -> String {
    let mut out = Vec::new();
    let mut writer = TraceWriter::jsonl(&mut out);
    events.into_iter().for_each(|e| writer.record(e));
    writer.finish().expect("a Vec takes every write");
    String::from_utf8(out).expect("event_json writes UTF-8")
}

/// A state-residency span on track (`pid`, `tid`).
fn span(pid: u64, tid: u64, name: &str, start: u64, end: u64) -> String {
    Obj::new()
        .str("name", name)
        .str("ph", "X")
        .num("ts", start)
        .num("dur", end.saturating_sub(start))
        .num("pid", pid)
        .num("tid", tid)
        .build()
}

/// A metadata record naming track (`pid`, `tid`)'s thread or process.
fn track_name(record: &str, pid: u64, tid: u64, name: &str) -> String {
    Obj::new()
        .str("name", record)
        .str("ph", "M")
        .num("pid", pid)
        .num("tid", tid)
        .raw("args", &Obj::new().str("name", name).build())
        .build()
}

/// What Chrome output holds until the end of the run: the tracks met, the
/// open state span of each, and the latest event time.
#[derive(Default)]
struct Chrome {
    tracks: BTreeSet<(u64, u64)>,
    /// Open state-residency span per track: (start time, state name).
    open: BTreeMap<(u64, u64), (u64, String)>,
    max_time: u64,
}

impl Chrome {
    /// The record `e` puts on the timeline, if any.
    fn record(&mut self, e: &Event) -> Option<String> {
        self.max_time = self.max_time.max(e.time);
        // The track: pid = transaction (0 when unattributed), tid = site.
        let (pid, tid) = (e.txn.unwrap_or(0), u64::from(e.site.unwrap_or(0)));
        self.tracks.insert((pid, tid));
        match &e.kind {
            EventKind::Transition { from, to } => {
                match self.open.insert((pid, tid), (e.time, to.clone())) {
                    Some((start, state)) => {
                        debug_assert_eq!(&state, from);
                        (start < e.time).then(|| span(pid, tid, from, start, e.time))
                    }
                    // First transition on this track: the site sat in
                    // `from` since t=0.
                    None => Some(span(pid, tid, from, 0, e.time)),
                }
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
            | EventKind::MsgDrop { .. } => Some(
                Obj::new()
                    .str("name", e.kind.name())
                    .str("ph", "i")
                    .str("s", "t")
                    .num("ts", e.time)
                    .num("pid", pid)
                    .num("tid", tid)
                    .build(),
            ),
            // Send/deliver/votes/WAL traffic are high-volume; they stay in
            // the JSONL export and the metrics table rather than cluttering
            // the timeline.
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::tests::all_kinds;
    use crate::json::validate;
    use crate::{SharedSink, Tracer};

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

    /// What a writer of `format` writes for `events`, recorded one at a
    /// time.
    fn written(format: fn(Vec<u8>) -> TraceWriter<Vec<u8>>, events: &[Event]) -> String {
        let mut writer = format(Vec::new());
        events.iter().for_each(|e| writer.record(e));
        writer.finish().unwrap();
        String::from_utf8(writer.out).unwrap()
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

    /// A writer a tracer feeds as each event is emitted writes what the
    /// slice form writes: one `event_json` line per event.
    #[test]
    fn the_writer_fed_one_event_at_a_time_equals_the_slice_form() {
        let events = all_kinds();
        let sink = SharedSink::new(TraceWriter::jsonl(Vec::new()));
        let tracer = Tracer::to_sink(sink.clone());
        for e in &events {
            tracer.emit(|| e.clone());
        }
        let streamed = sink.with(|w| {
            w.finish().unwrap();
            String::from_utf8(std::mem::take(&mut w.out)).unwrap()
        });
        let lines: String = events.iter().map(|e| event_json(e) + "\n").collect();
        assert_eq!(streamed, to_jsonl(&events));
        assert_eq!(streamed, lines);
        assert_eq!(written(TraceWriter::jsonl, &events), lines);
    }

    #[test]
    fn chrome_export_is_valid_json_with_spans() {
        let chrome = written(TraceWriter::chrome, &sample());
        validate(&chrome).unwrap();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        // w1 residency: entered at t=0 transition, left at t=4.
        assert!(chrome.contains("\"name\":\"w1\",\"ph\":\"X\",\"ts\":0,\"dur\":4"));
        // c1 still open at end (max time 5) → closed at 6.
        assert!(chrome.contains("\"name\":\"c1\",\"ph\":\"X\",\"ts\":4,\"dur\":2"));
        assert!(chrome.contains("\"name\":\"decision\",\"ph\":\"i\""));
        assert!(chrome.contains("\"name\":\"site1\""));
        validate(&written(TraceWriter::chrome, &all_kinds())).unwrap();
    }

    #[test]
    fn a_chrome_trace_of_no_events_is_an_empty_array() {
        assert_eq!(written(TraceWriter::chrome, &[]), "{\"traceEvents\":[]}");
        assert_eq!(written(TraceWriter::jsonl, &[]), "");
    }

    /// A writer that refuses every byte after the first `room`.
    struct Full {
        room: usize,
        writes: usize,
    }

    impl Write for Full {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            match self.room.min(bytes.len()) {
                0 => Err(io::Error::new(io::ErrorKind::StorageFull, "full")),
                n => {
                    self.room -= n;
                    Ok(n)
                }
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn the_first_write_error_is_kept_and_returned() {
        for format in [TraceWriter::jsonl, TraceWriter::chrome] {
            let mut writer = format(Full { room: 40, writes: 0 });
            sample().iter().for_each(|e| writer.record(e));
            let writes = writer.out.writes;
            assert_eq!(writer.finish().unwrap_err().kind(), io::ErrorKind::StorageFull);
            assert_eq!(writer.out.writes, writes, "no write after the error");
        }
    }

    #[test]
    fn exports_are_deterministic() {
        let a = sample();
        let b = sample();
        assert_eq!(to_jsonl(&a), to_jsonl(&b));
        assert_eq!(written(TraceWriter::chrome, &a), written(TraceWriter::chrome, &b));
    }
}
