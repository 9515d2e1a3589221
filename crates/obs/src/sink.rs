//! Sinks and the tracer handle.
//!
//! A [`Tracer`] is the cheap, cloneable handle instrumented code holds.
//! Disabled, it is a `None` — [`Tracer::emit`] is one branch and the event
//! closure never runs. Enabled, it fans each event out to every attached
//! [`Sink`] in attachment order.

use std::sync::{Arc, Mutex};

use crate::event::{Event, EventKind};

/// A consumer of traced events.
pub trait Sink {
    /// Record one event. Called in emission order.
    fn record(&mut self, event: &Event);
}

/// A sink that buffers every event in memory (the usual collection point
/// before exporting with [`crate::export`]).
#[derive(Clone, Debug, Default)]
pub struct MemorySink {
    /// The recorded events, in emission order.
    pub events: Vec<Event>,
}

impl Sink for MemorySink {
    fn record(&mut self, event: &Event) {
        self.events.push(event.clone());
    }
}

/// A shared, cloneable wrapper around a sink: instrumented code holds one
/// clone (inside a [`Tracer`]), the caller keeps another to read results
/// after the run.
#[derive(Debug, Default)]
pub struct SharedSink<S>(Arc<Mutex<S>>);

impl<S> Clone for SharedSink<S> {
    fn clone(&self) -> Self {
        Self(Arc::clone(&self.0))
    }
}

impl<S> SharedSink<S> {
    /// Wrap a sink for sharing.
    pub fn new(sink: S) -> Self {
        Self(Arc::new(Mutex::new(sink)))
    }

    /// Run `f` with exclusive access to the inner sink (for reading the
    /// collected data back out).
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.0.lock().expect("sink mutex poisoned"))
    }
}

impl<S: Sink> Sink for SharedSink<S> {
    fn record(&mut self, event: &Event) {
        self.0.lock().expect("sink mutex poisoned").record(event);
    }
}

/// The sinks behind an enabled tracer, shared across clones.
type SinkList = Arc<Mutex<Vec<Box<dyn Sink + Send>>>>;

/// The tracer handle: `None` when tracing is off (the zero-overhead
/// default), or a shared list of sinks.
#[derive(Clone, Default)]
pub struct Tracer(Option<SinkList>);

impl Tracer {
    /// A disabled tracer: [`Tracer::emit`] is a no-op branch.
    pub fn off() -> Self {
        Self(None)
    }

    /// A tracer feeding one sink.
    pub fn to_sink(sink: impl Sink + Send + 'static) -> Self {
        let mut t = Self::off();
        t.attach(sink);
        t
    }

    /// Attach another sink (enabling the tracer if it was off). Sinks see
    /// events in attachment order.
    pub fn attach(&mut self, sink: impl Sink + Send + 'static) {
        let sinks = self.0.get_or_insert_with(|| Arc::new(Mutex::new(Vec::new())));
        sinks.lock().expect("tracer mutex poisoned").push(Box::new(sink));
    }

    /// True if at least one sink is attached. Call sites use this to skip
    /// preparatory work; [`Tracer::emit`] re-checks internally.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Emit an event. The closure only runs — and the event is only
    /// constructed — when a sink is attached.
    #[inline]
    pub fn emit(&self, build: impl FnOnce() -> Event) {
        if let Some(sinks) = &self.0 {
            let event = build();
            let mut guard = sinks.lock().expect("tracer mutex poisoned");
            for sink in guard.iter_mut() {
                sink.record(&event);
            }
        }
    }
}

/// Renders the events of a run's human-readable story (`nbc simulate
/// --story`) as `t=...` lines, byte for byte the story's historical
/// format. Attach it to the run's tracer and read `lines` afterwards.
#[derive(Clone, Debug, Default)]
pub struct LinesSink {
    /// The rendered lines, in emission order.
    pub lines: Vec<String>,
}

impl Sink for LinesSink {
    fn record(&mut self, event: &Event) {
        let t = event.time;
        let site = event.site.unwrap_or(0);
        match &event.kind {
            EventKind::Transition { from, to } => {
                self.lines.push(format!("t={t:<4} site{site}: {from} -> {to} (logged)"));
            }
            EventKind::MsgSend { dst, label } => {
                self.lines.push(format!("t={t:<4} site{site} -> site{dst} : {label}"));
            }
            EventKind::Decision { commit } => {
                let verdict = if *commit { "COMMIT" } else { "ABORT" };
                self.lines.push(format!("t={t:<4} site{site}: DECIDED {verdict}"));
            }
            EventKind::Crash => self.lines.push(format!("t={t:<4} site{site}: CRASH")),
            EventKind::Recover => self.lines.push(format!("t={t:<4} site{site}: RECOVER")),
            EventKind::Partition { groups } => {
                self.lines.push(format!("t={t:<4} PARTITION {groups}"));
            }
            EventKind::Note { text } => self.lines.push(format!("t={t:<4} {text}")),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_never_builds_events() {
        let t = Tracer::off();
        assert!(!t.enabled());
        t.emit(|| unreachable!("disabled tracer must not build events"));
    }

    #[test]
    fn events_fan_out_to_all_sinks() {
        let a = SharedSink::new(MemorySink::default());
        let b = SharedSink::new(MemorySink::default());
        let mut t = Tracer::to_sink(a.clone());
        t.attach(b.clone());
        assert!(t.enabled());
        t.emit(|| Event::new(1, EventKind::Crash).at_site(0));
        t.emit(|| Event::new(2, EventKind::Recover).at_site(0));
        assert_eq!(a.with(|s| s.events.len()), 2);
        assert_eq!(b.with(|s| s.events.len()), 2);
        assert_eq!(a.with(|s| s.events[1].kind.name()), "recover");
    }

    #[test]
    fn lines_sink_renders_legacy_format() {
        let mut s = LinesSink::default();
        s.record(
            &Event::new(5, EventKind::Transition { from: "q1".into(), to: "w1".into() }).at_site(1),
        );
        s.record(&Event::new(5, EventKind::MsgSend { dst: 2, label: "yes".into() }).at_site(1));
        s.record(&Event::new(12345, EventKind::Decision { commit: true }).at_site(0));
        s.record(&Event::new(7, EventKind::Vote { yes: true }).at_site(1)); // not rendered
        assert_eq!(
            s.lines,
            vec![
                "t=5    site1: q1 -> w1 (logged)",
                "t=5    site1 -> site2 : yes",
                "t=12345 site0: DECIDED COMMIT",
            ]
        );
    }
}
