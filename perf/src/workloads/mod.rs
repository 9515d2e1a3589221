//! The four workloads. Each is a fixed, seed-generated work list split
//! into named *segments*; one *unit* is one whole pass over the list.
//! Every pass builds its state fresh (`Pipeline::new`, fresh
//! `CheckOptions`, fresh `Analysis`) and drops it, so unit times, counts
//! and peak RSS do not depend on how many passes a run managed.

pub mod check;
pub mod pipeline;
pub mod reach;

use std::collections::BTreeMap;

use nbc_core::protocols::catalog;
use nbc_core::{resilience, theorem, Analysis, Protocol, ReachOptions};
use nbc_obs::{MemorySink, SharedSink, Tracer};

use crate::sink::LayerSink;
use crate::spans::Spans;

/// What one segment of one pass measured.
#[derive(Debug)]
pub struct SegmentRun {
    /// Segment name, e.g. `c3pc-if8`.
    pub name: &'static str,
    /// Nanoseconds inside the system under test (sum of the layer-call
    /// spans; gates and input cloning excluded).
    pub ns: u64,
    /// Operations completed: transactions decided, distinct states
    /// explored, or global states built and analysed.
    pub ops: u64,
    /// The segment's correctness gates.
    pub gate: Result<(), String>,
}

/// Exact counts of one pass, summed over its segments (a peak is raised,
/// not summed). Identical in every pass of a workload;
/// the runner fails a unit whose counts differ from the first pass.
pub type Counts = BTreeMap<&'static str, u64>;

/// One whole pass.
#[derive(Debug, Default)]
pub struct PassRun {
    /// Per-segment results, in work-list order.
    pub segments: Vec<SegmentRun>,
    /// Exact counts.
    pub counts: Counts,
}

impl PassRun {
    /// The unit's time: nanoseconds inside the system under test.
    pub fn ns(&self) -> u64 {
        self.segments.iter().map(|s| s.ns).sum()
    }

    /// Operations in the unit.
    pub fn ops(&self) -> u64 {
        self.segments.iter().map(|s| s.ops).sum()
    }

    /// Operations of segments that failed a gate.
    pub fn failed_ops(&self) -> u64 {
        self.segments.iter().filter(|s| s.gate.is_err()).map(|s| s.ops).sum()
    }

    /// The first failed gate, as `segment: reason`.
    pub fn first_failure(&self) -> Option<String> {
        self.segments.iter().find_map(|s| s.gate.as_ref().err().map(|e| format!("{}: {e}", s.name)))
    }
}

/// What a traced unit's tracer feeds: the benchmark-owned counting sink,
/// and the `MemorySink` a user's `--trace` would pay for (so "tracing on"
/// costs here what it costs them).
#[derive(Clone, Default)]
pub struct SinkRef {
    /// Counts and wall-clock decision latencies.
    pub layer: SharedSink<LayerSink>,
    /// Every event, retained.
    pub memory: SharedSink<MemorySink>,
}

impl SinkRef {
    /// A tracer feeding both sinks.
    pub fn tracer(&self) -> Tracer {
        let mut t = Tracer::to_sink(self.layer.clone());
        t.attach(self.memory.clone());
        t
    }
}

/// A set-up workload, ready to run passes.
pub trait Workload {
    /// Run one whole pass. `sink` attaches the benchmark-owned event sink
    /// where the layer under test takes a tracer (the pipeline); the other
    /// workloads ignore it.
    fn pass(&mut self, spans: &mut Spans, sink: Option<&SinkRef>) -> PassRun;
}

/// Set up a workload from scratch: the deployment pre-flight, the
/// workload's own protocols and analyses, and its seed-generated inputs.
/// This whole function is what `setup_s` times.
pub fn set_up(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    let verdicts = preflight();
    std::hint::black_box(verdicts);
    Some(match name {
        "pipeline-steady" => Box::new(pipeline::PipelineWorkload::steady(seed)),
        "pipeline-faulty" => Box::new(pipeline::PipelineWorkload::faulty(seed)),
        "check-exhaustive" => Box::new(check::CheckWorkload::new()),
        "reach-analysis" => Box::new(reach::ReachWorkload::new()),
        _ => return None,
    })
}

/// Site count the pre-flight confirms its candidates at, sized so a set-up
/// takes about 120 ms on the sizing sandbox (a 9 ms set-up cannot be
/// timed to 10 %).
const PREFLIGHT_SITES: usize = 6;

/// Is `p` nonblocking and tolerant of at least one failure? Streaming:
/// the verdict needs the folded facts, not the graph, and a set-up in
/// mid-run must not lift the process's peak RSS above what the units
/// themselves reach.
fn deployable(p: &Protocol) -> bool {
    let opts = ReachOptions::default().with_threads(1).with_streaming(true);
    let a = Analysis::build_with(p, opts).expect("catalog protocols analyse");
    let t = theorem::check_with(p, &a);
    t.nonblocking() && resilience::resilience_with(p, &t).max_tolerated_failures > 0
}

/// What a deployment does before it runs anything: screen the whole
/// catalog one site short of the deployment's size, then confirm the
/// candidates that passed at full size. Returns how many were confirmed.
fn preflight() -> usize {
    let screened: Vec<bool> = catalog(PREFLIGHT_SITES - 1).iter().map(deployable).collect();
    let confirmed = catalog(PREFLIGHT_SITES)
        .iter()
        .zip(screened)
        .filter(|(p, passed)| *passed && deployable(p))
        .count();
    assert_eq!(confirmed, 2, "3PC is nonblocking in both paradigms, 2PC in neither");
    confirmed
}

/// `Analysis::build` on one thread. (The default options fan frontiers of
/// 512+ states out over every core; no end-to-end unit may use more than
/// one thread.)
pub fn analyse(p: &Protocol) -> Analysis {
    Analysis::build_with(p, ReachOptions::default().with_threads(1))
        .expect("catalog protocols analyse")
}

/// A tracer feeding the sinks, or an off tracer.
pub fn tracer_for(sink: Option<&SinkRef>) -> Tracer {
    sink.map_or_else(Tracer::off, SinkRef::tracer)
}

/// The theorem's verdict, as the reports print it.
pub fn verdict(nonblocking: bool) -> &'static str {
    if nonblocking {
        "NONBLOCKING"
    } else {
        "BLOCKING"
    }
}

/// Add `n` to a count.
pub fn add(counts: &mut Counts, key: &'static str, n: u64) {
    *counts.entry(key).or_insert(0) += n;
}

/// Raise a count to at least `n`.
pub fn raise(counts: &mut Counts, key: &'static str, n: u64) {
    let slot = counts.entry(key).or_insert(0);
    *slot = (*slot).max(n);
}
