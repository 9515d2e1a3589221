//! Spans recorded from outside: the benchmark wraps its own calls into
//! each crate's public functions; nothing inside the crates is
//! instrumented. A span has a name, a start, an end, the span that caused
//! it and the id of the unit it belongs to. Spans stay in memory and are
//! written out once, when the run ends.
//!
//! [`Spans::span`] always *times* its closure — unit times are sums of
//! these intervals in traced and untraced runs alike — but only *records*
//! when tracing is on.

use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `pipeline.run`.
    pub name: &'static str,
    /// What it ran on, e.g. the segment `c3pc-if8` (may be empty).
    pub label: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The unit (pass) this span belongs to; 0 outside any unit.
    pub op: u64,
    /// How many identical calls the interval covers (micro-probes time
    /// batches; everything else is 1).
    pub calls: u64,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span recorder.
pub struct Spans {
    origin: Instant,
    recording: bool,
    open: Vec<usize>,
    spans: Vec<Span>,
    op: u64,
}

impl Spans {
    /// A recorder; with `recording` off it only times.
    pub fn new(recording: bool) -> Self {
        Self { origin: Instant::now(), recording, open: Vec::new(), spans: Vec::new(), op: 0 }
    }

    /// Set the unit id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Run `f` as one span covering one call. Returns `f`'s result and the
    /// elapsed nanoseconds. `f` gets the recorder back so it can open
    /// child spans.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        label: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, u64) {
        self.span_n(name, label, 1, f)
    }

    /// As [`Spans::span`] for an interval covering `calls` identical calls.
    pub fn span_n<R>(
        &mut self,
        name: &'static str,
        label: &'static str,
        calls: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, u64) {
        if !self.recording {
            let t = Instant::now();
            let r = f(self);
            return (r, t.elapsed().as_nanos() as u64);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            label,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
            calls,
        });
        self.open.push(id);
        let r = f(self);
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.open.pop();
        self.spans[id].end_ns = end_ns;
        (r, end_ns - start_ns)
    }

    /// Everything recorded so far.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Every span's self time: its duration minus the part of that
    /// interval its direct children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for c in &self.spans {
            if let Some(p) = c.parent {
                let s = &self.spans[p];
                covered[p] += c.end_ns.min(s.end_ns).saturating_sub(c.start_ns.max(s.start_ns));
            }
        }
        self.spans.iter().zip(covered).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
    }

    /// `(total duration, total self time)` over every span called `name`.
    pub fn totals(&self, name: &str) -> (u64, u64) {
        let own = self.self_times();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .fold((0, 0), |(dur, own_sum), (s, own)| (dur + s.dur_ns(), own_sum + own))
    }

    /// The trace file: one JSON object with a `spans` array (see README,
    /// "Reading trace-*.json").
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 120);
        out.push_str(&format!(
            "{{\"workload\":\"{workload}\",\"clock\":\"ns since recorder start, monotonic\",\
             \"spans\":["
        ));
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let name = if s.label.is_empty() {
                s.name.to_string()
            } else {
                format!("{}.{}", s.name, s.label)
            };
            out.push_str(&format!(
                "\n{{\"id\":{id},\"name\":\"{name}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{},\"op\":{},\"calls\":{}}}",
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op,
                s.calls,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn span_nesting_records_parents_and_ops() {
        let mut s = Spans::new(true);
        s.set_op(7);
        s.span("unit", "", |s| {
            s.span("pipeline.run", "c2pc-if8", |s| {
                s.span("inner", "", |_| spin(1_000));
            });
            s.span("gate", "", |_| ());
        });
        s.set_op(8);
        s.span("unit", "", |_| ());
        let all = s.all();
        assert_eq!(all.len(), 5);
        assert_eq!(all[0].parent, None);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(1));
        assert_eq!(all[3].parent, Some(0), "the stack pops back to the unit");
        assert_eq!(all[4].parent, None);
        assert_eq!((all[0].op, all[2].op, all[4].op), (7, 7, 8));
        assert!(all[0].start_ns <= all[1].start_ns && all[1].end_ns <= all[0].end_ns);
        let json = s.to_json("w");
        assert!(json.contains("\"name\":\"pipeline.run.c2pc-if8\""));
        assert!(json.contains("\"parent\":null") && json.contains("\"parent\":1"));
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        // Built by hand so the arithmetic is exact.
        let mk = |start_ns, end_ns, parent| Span {
            name: "x",
            label: "",
            start_ns,
            end_ns,
            parent,
            op: 1,
            calls: 1,
        };
        let s = Spans {
            origin: Instant::now(),
            recording: true,
            open: Vec::new(),
            spans: vec![
                mk(0, 100, None),     // 0: unit
                mk(10, 40, Some(0)),  // 1: child, 30 covered
                mk(50, 90, Some(0)),  // 2: child, 40 covered
                mk(55, 65, Some(2)),  // 3: grandchild: counts against 2, not 0
                mk(95, 120, Some(0)), // 4: child overrunning its parent: 5 covered
            ],
            op: 0,
        };
        assert_eq!(s.self_times(), vec![100 - 30 - 40 - 5, 30, 40 - 10, 10, 25]);
        let (dur, own) = s.totals("x");
        assert_eq!(dur, 100 + 30 + 40 + 10 + 25);
        assert_eq!(own, 25 + 30 + 30 + 10 + 25);
    }

    #[test]
    fn a_recorder_that_is_off_still_times() {
        let mut s = Spans::new(false);
        let (v, ns) = s.span("a", "", |_| {
            spin(200_000);
            42
        });
        assert_eq!(v, 42);
        assert!(ns >= 200_000);
        assert!(s.all().is_empty());
    }
}
