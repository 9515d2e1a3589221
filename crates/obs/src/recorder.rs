//! The flight recorder: a bounded ring-buffer [`Sink`].
//!
//! Attach a [`FlightRecorder`] (via [`SharedSink`](crate::SharedSink)) to
//! any traced run and it retains the **last** `capacity` events at a flat
//! cost — one clone and one slot write per event, no growth, no export
//! work — so it can ride along on every run and only pay off when
//! something goes wrong. On an oracle violation, panic, or nonzero exit,
//! [`FlightRecorder::dump_jsonl`] writes the retained tail, oldest first,
//! through the same JSONL writer as a `--trace` file
//! ([`crate::export::TraceWriter`]), ready for `nbc trace` analysis next to
//! the counterexample that produced it.

use crate::event::{Event, EventKind};
use crate::export::to_jsonl;
use crate::sink::Sink;

/// A fixed-capacity, overwrite-oldest event buffer.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    cap: usize,
    buf: Vec<Event>,
    /// Next slot to overwrite once the buffer is full (oldest event).
    next: usize,
    total: u64,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` events (`capacity >= 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "flight recorder needs capacity >= 1");
        Self { cap: capacity, buf: Vec::with_capacity(capacity.min(1024)), next: 0, total: 0 }
    }

    /// Total events observed (including overwritten ones).
    pub fn total_seen(&self) -> u64 {
        self.total
    }

    /// Number of events currently retained (`min(total_seen, capacity)`).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Encode the retained tail as JSONL, preceded by one `note` line
    /// stating how many earlier events the ring dropped — so a reader of
    /// the dump knows whether it is looking at the whole run.
    pub fn dump_jsonl(&self) -> String {
        // Once full, `next` points at the oldest slot.
        let ring = self.buf[self.next..].iter().chain(&self.buf[..self.next]);
        let kept = self.buf.len();
        let header = Event::new(
            ring.clone().next().map_or(0, |e| e.time),
            EventKind::Note {
                text: format!(
                    "flight recorder: last {kept} of {} events ({} overwritten)",
                    self.total,
                    self.total - kept as u64
                ),
            },
        );
        to_jsonl(std::iter::once(&header).chain(ring))
    }
}

impl Sink for FlightRecorder {
    fn record(&mut self, event: &Event) {
        self.total += 1;
        if self.buf.len() < self.cap {
            self.buf.push(event.clone());
        } else {
            self.buf[self.next] = event.clone();
            self.next = (self.next + 1) % self.cap;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The retained events, oldest first.
    fn events_in_order(r: &FlightRecorder) -> Vec<Event> {
        let mut out = r.buf[r.next..].to_vec();
        out.extend_from_slice(&r.buf[..r.next]);
        out
    }

    fn note(t: u64, text: &str) -> Event {
        Event::new(t, EventKind::Note { text: text.into() })
    }

    #[test]
    fn retains_everything_under_capacity() {
        let mut r = FlightRecorder::new(8);
        assert!(r.is_empty());
        for i in 0..5 {
            r.record(&note(i, &format!("e{i}")));
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.total_seen(), 5);
        let times: Vec<u64> = events_in_order(&r).iter().map(|e| e.time).collect();
        assert_eq!(times, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let mut r = FlightRecorder::new(3);
        for i in 0..10 {
            r.record(&note(i, &format!("e{i}")));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.total_seen(), 10);
        let times: Vec<u64> = events_in_order(&r).iter().map(|e| e.time).collect();
        assert_eq!(times, vec![7, 8, 9], "last three survive, oldest first");
    }

    #[test]
    fn dump_reports_overwritten_count() {
        let mut r = FlightRecorder::new(2);
        for i in 0..5 {
            r.record(&note(i, &format!("e{i}")));
        }
        let dump = r.dump_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 3, "header note + 2 retained events");
        assert!(lines[0].contains("last 2 of 5 events (3 overwritten)"), "{}", lines[0]);
        for line in &lines {
            crate::json::validate(line).unwrap();
        }
    }

    #[test]
    fn capacity_one_keeps_the_latest() {
        let mut r = FlightRecorder::new(1);
        r.record(&note(1, "a"));
        r.record(&note(2, "b"));
        assert_eq!(events_in_order(&r)[0].time, 2);
    }
}
