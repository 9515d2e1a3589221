//! The traced run (`--trace 1`): the selected workload's units with spans
//! recorded, the event sinks attached on alternate units and the
//! allocator counting; then a few passes of the other workloads (so every
//! segment rate has a value in every traced run); then the layer probes.
//! It prints every per-layer metric and writes the span file.
//!
//! Three kinds of metric come out (README, "Per-layer metrics"):
//! * **counts** (`*_per_op`, `*_share`, `check.distinct_states`,
//!   `pipeline.sim_*`) describe the *selected* workload's own units and
//!   repeat bit for bit; a layer the workload leaves idle reads 0;
//! * **timings and rates** come from the probes and the segment spans and
//!   are measured in every traced run, raw (not calibrated);
//! * **`*_est_share`** = calls per op × probed per-call time ÷ unit time
//!   per op: an estimate, and named as one.

use std::collections::BTreeMap;
use std::path::PathBuf;

use nbc_obs::Event;

use crate::alloc;
use crate::manifest::WORKLOADS;
use crate::probes;
use crate::proc;
use crate::report::{result_line, Metrics};
use crate::run::{RunArgs, Session};
use crate::spans::Spans;
use crate::stats::{median, percentile};
use crate::units::UnitLog;
use crate::workloads::SinkRef;

/// Share of `--seconds` the selected workload's units get; the rest is
/// for the cross passes and the probes.
const UNIT_SHARE: f64 = 0.5;
/// Fewest units the selected workload needs in a traced run: enough for a
/// segment median and, on the pipeline, for sink-on and sink-off units to
/// pair up.
const MIN_TRACED_UNITS: usize = 4;
/// Seconds of units each *other* workload gets (after its warm-up): room
/// for four passes of the longest kind (250 ms) and their reference pairs
/// on a machine a third slower than the sizing sandbox.
const CROSS_SECONDS: f64 = 1.5;

/// Where the span file and the spill probe's temp files go: the
/// benchmark's own `target` directory, inside the checkout.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target"))
}

/// Does this workload's layer take a tracer?
fn takes_tracer(workload: &str) -> bool {
    workload.starts_with("pipeline-")
}

/// Units of one workload, split by whether the sinks were attached.
struct Traced {
    log: UnitLog,
    /// Per-unit flag: were the sinks attached?
    sink_on: Vec<bool>,
    sinks: SinkRef,
}

impl Traced {
    /// The values of the units that ran with the sinks `on` (or off).
    fn select(&self, per_unit: &[u64], on: bool) -> Vec<f64> {
        per_unit
            .iter()
            .zip(&self.sink_on)
            .filter(|(_, &flag)| flag == on)
            .map(|(&ns, _)| ns as f64)
            .collect()
    }

    fn unit_ns(&self, on: bool) -> Vec<f64> {
        self.select(&self.log.unit_ns, on)
    }

    /// Median time of one segment over the sink-off units, nanoseconds.
    fn segment_ns(&self, segment: &str) -> Option<f64> {
        let off = self.select(self.log.segment_ns.get(segment)?, false);
        (!off.is_empty()).then(|| median(&off))
    }

    fn count(&self, key: &str) -> f64 {
        self.log.counts.get(key).copied().unwrap_or(0) as f64
    }
}

/// Run `workload`'s units for `seconds`, sinks on every odd unit if its
/// layer takes a tracer. With `count_allocs`, the allocator counts during
/// the sink-off units (tracing allocates on its own account).
fn trace_units(
    session: &mut Session,
    name: &str,
    seconds: f64,
    count_allocs: bool,
    spans: &mut Spans,
) -> Traced {
    let sinks = SinkRef::default();
    let alternate = takes_tracer(name);
    let mut sink_on = Vec::new();
    // No further set-ups among traced units: `setup_s` is an end-to-end
    // metric, and a traced run does not report it.
    let log = session.measure(seconds, 1, spans, |unit| {
        let on = alternate && unit % 2 == 1;
        sink_on.push(on);
        alloc::set_counting(count_allocs && !on);
        if on {
            // Keep one unit's events, not the run's.
            sinks.memory.with(|m| m.events.clear());
        }
        on.then(|| sinks.clone())
    });
    alloc::set_counting(false);
    Traced { log, sink_on, sinks }
}

/// `a / b`, or 0 when the layer did nothing (`b == 0`).
fn per(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// What a traced run produced.
pub struct Trace {
    /// Every per-layer metric.
    pub metrics: Metrics,
    /// Operations in every unit run, the other workloads' included.
    pub attempted: u64,
    /// Operations of units that failed a gate.
    pub failed: u64,
    /// The recorded spans.
    pub spans: Spans,
    /// One line for the log.
    pub summary: String,
}

/// The traced run as the driver starts it: trace, write the span file,
/// print the result line.
pub fn traced_run(args: &RunArgs) -> Result<(), String> {
    let dir = out_dir();
    let tmp = dir.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    // The spill probe's run files go where `std::env::temp_dir` points;
    // keep them inside the checkout. (One thread at this point.)
    std::env::set_var("TMPDIR", &tmp);

    let t = trace(&args.workload, args.seed, args.seconds as f64 * UNIT_SHARE, CROSS_SECONDS)?;
    let path = dir.join(format!("trace-{}.json", args.workload));
    std::fs::write(&path, t.spans.to_json(&args.workload))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("perf: {}, {} spans in {}", t.summary, t.spans.all().len(), path.display());
    println!("{}", crate::results::header_line(&args.workload, args.seed, args.seconds, true));
    println!("{}", result_line(t.failed == 0, t.attempted, t.failed, &t.metrics));
    Ok(())
}

/// Trace `workload`: `unit_seconds` of its own units, `cross_seconds` of
/// each other workload's, then the probes. Fails if any per-layer metric
/// of the manifest is left without a value.
pub fn trace(
    workload: &str,
    seed: u64,
    unit_seconds: f64,
    cross_seconds: f64,
) -> Result<Trace, String> {
    let mut spans = Spans::new(true);
    let mut m = Metrics::per_layer();

    // ---- The selected workload's units. ----
    let mut session = Session::start(workload, seed);
    let cpu0 = proc::cpu_ns();
    let wall0 = std::time::Instant::now();
    let (calls0, bytes0) = alloc::counted();
    let own = trace_units(&mut session, workload, unit_seconds, true, &mut spans);
    let (calls1, bytes1) = alloc::counted();
    let cpu_share = match (cpu0, proc::cpu_ns()) {
        (Some(a), Some(b)) => (b - a) as f64 / wall0.elapsed().as_nanos() as f64,
        _ => return Err("no /proc/self/schedstat: cannot read CPU time".to_string()),
    };
    let raw_setup_s = session.raw_setup_s();
    let cal_factor = median(&own.log.factors(&session.clock));
    drop(session);
    if own.log.units() < MIN_TRACED_UNITS {
        return Err(format!("only {} traced units; lengthen --seconds", own.log.units()));
    }

    // ---- A few passes of every other workload, for the segment rates. ----
    let mut cross: BTreeMap<&'static str, Traced> = BTreeMap::new();
    for w in WORKLOADS.iter().filter(|w| w.name != workload) {
        spans.set_op(0);
        let (mut other, _) = spans.span("bench.set_up", w.name, |_| Session::start(w.name, seed));
        cross.insert(w.name, trace_units(&mut other, w.name, cross_seconds, false, &mut spans));
    }
    let by_name = |name: &str| if name == workload { &own } else { &cross[name] };
    let failed: u64 = own.log.failed + cross.values().map(|t| t.log.failed).sum::<u64>();
    let attempted: u64 = own.log.attempted + cross.values().map(|t| t.log.attempted).sum::<u64>();

    // ---- Segment rates, from whichever units ran the segment. ----
    let rates: [(&str, &str, &[&str]); 3] = [
        (
            "pipeline.txns_per_s.",
            "pipeline-steady",
            &["c2pc-if8", "c3pc-if8", "c3pc-if1", "c3pc-if64", "paxos1-if8"],
        ),
        ("pipeline.txns_per_s.", "pipeline-faulty", &["c2pc-crash10", "c3pc-crash10"]),
        ("check.states_per_s.", "check-exhaustive", &["c3pc-3", "paxos1-2"]),
    ];
    let reach: (&str, &str, &[&str]) =
        ("core.reach.states_per_s.", "reach-analysis", &["c2pc-7", "c3pc-7-stream", "d3pc-5"]);
    for (prefix, workload, segments) in rates.iter().chain([&reach]) {
        let t = by_name(workload);
        for seg in *segments {
            let ns =
                t.segment_ns(seg).ok_or_else(|| format!("{workload} never ran {seg} untraced"))?;
            m.set(&format!("{prefix}{seg}"), t.log.segment_ops[seg] as f64 / (ns / 1e9));
        }
    }

    // ---- Tracing overhead: pipeline units, sinks on against off. ----
    let traced_pipeline = if takes_tracer(workload) { &own } else { by_name("pipeline-steady") };
    let (on, off) = (traced_pipeline.unit_ns(true), traced_pipeline.unit_ns(false));
    if on.is_empty() || off.is_empty() {
        return Err("too few pipeline units to pair traced with untraced".to_string());
    }
    m.set("obs.trace_overhead_share", (median(&on) - median(&off)) / median(&off));
    let events: Vec<Event> = traced_pipeline.sinks.memory.with(|s| s.events.clone());

    // ---- Probes. ----
    spans.set_op(0);
    probes::run_all(&mut m, &mut spans, &events);
    let probe = |name: &str| m.get(name).expect("the probes set this");
    let step_ns = probe("engine.runner.step_ns");
    let new_ns = probe("engine.runner.new_ns");
    let clone_ns = probe("engine.runner.clone_ns");
    let digest_ns = probe("engine.runner.digest_ns");
    let hop_ns = probe("simnet.send_ns") + probe("simnet.next_event_ns");
    let append_ns = probe("storage.wal.append_ns");
    let sync_ns = probe("storage.wal.sync_batched_ns");
    let request_ns = probe("txn.locks.request_ns");
    let release_ns = probe("txn.locks.release_all_ns");

    // ---- Counts and estimated shares of the selected workload. ----
    let ops = own.log.ops_per_unit() as f64;
    let unit_ns = median(&own.unit_ns(false));
    let ns_per_op = unit_ns / ops;
    let sink_units = own.sink_on.iter().filter(|&&on| on).count() as f64;
    let sink_ops = sink_units * ops;
    let sink = |f: &dyn Fn(&crate::sink::LayerSink) -> u64| own.sinks.layer.with(|s| f(s)) as f64;

    let txns = own.count("pipeline.txns");
    m.set("pipeline.sim_ticks_per_op", per(own.count("pipeline.ticks"), txns));
    m.set("pipeline.commit_share", per(own.count("pipeline.committed"), txns));
    m.set("pipeline.blocked_share", per(own.count("pipeline.blocked"), txns));
    let deferrals_per_op = per(own.count("pipeline.deferrals"), txns);
    m.set("pipeline.deferrals_per_op", deferrals_per_op);
    m.set("pipeline.reaps_per_op", per(sink(&|s| s.count("reap")), sink_ops));
    let (ticks, wall): (Vec<f64>, Vec<f64>) = own.sinks.layer.with(|s| {
        (
            s.decision_sim_ticks.iter().map(|&t| t as f64).collect(),
            s.decision_wall_ns.iter().map(|&t| t as f64).collect(),
        )
    });
    let pct = |v: &[f64], p: u32| if v.is_empty() { 0.0 } else { percentile(v, p) };
    m.set("pipeline.sim_latency_p50_ticks", pct(&ticks, 50));
    m.set("pipeline.sim_latency_p99_ticks", pct(&ticks, 99));
    m.set("pipeline.decision_wall_us_p50", pct(&wall, 50) / 1e3);

    let events_per_op = per(own.count("engine.events"), txns);
    m.set("engine.events_per_op", events_per_op);
    m.set("engine.elections_per_op", per(sink(&|s| s.count("election")), sink_ops));
    let engine_ns = events_per_op * step_ns + new_ns;
    m.set(
        "pipeline.sched_est_share",
        if txns == 0.0 { 0.0 } else { (1.0 - engine_ns / ns_per_op).clamp(0.0, 1.0) },
    );

    let msgs_per_op = per(own.count("simnet.msgs"), txns);
    m.set("simnet.msgs_per_op", msgs_per_op);
    m.set("simnet.dropped_per_op", per(sink(&|s| s.count("msg-drop")), sink_ops));
    m.set("simnet.est_share", msgs_per_op * hop_ns / ns_per_op);

    let appends_per_op = per(sink(&|s| s.count("wal-append")), sink_ops);
    let fsyncs_per_op = per(sink(&|s| s.count("wal-fsync")), sink_ops);
    m.set("storage.wal.appends_per_op", appends_per_op);
    m.set("storage.wal.bytes_per_op", per(sink(&|s| s.wal_bytes), sink_ops));
    m.set("storage.wal.forces_per_op", per(sink(&|s| s.wal_forces), sink_ops));
    m.set("storage.wal.syncs_saved_share", per(own.count("wal.saved"), own.count("wal.syncs")));
    m.set("storage.est_share", (appends_per_op * append_ns + fsyncs_per_op * sync_ns) / ns_per_op);

    // Wait-die: two lock requests per admission attempt; a release per
    // touched site at the end and per site on every death. An upper bound.
    let lock_ns = if txns == 0.0 {
        0.0
    } else {
        2.0 * (1.0 + deferrals_per_op) * request_ns + (2.0 + 4.0 * deferrals_per_op) * release_ns
    };
    m.set("txn.locks.est_share", lock_ns / ns_per_op);

    let states = own.count("check.states");
    let actions_per_state = per(own.count("check.actions"), states);
    m.set("check.distinct_states", states);
    m.set("check.actions_per_state", actions_per_state);
    m.set("check.fused_share", per(own.count("check.fused"), states));
    // The explorer forks and fingerprints the runner once per action.
    m.set("engine.clone_est_share", actions_per_state * clone_ns / ns_per_op);
    m.set("engine.digest_est_share", actions_per_state * digest_ns / ns_per_op);

    m.set(
        "core.reach.edges_per_state",
        per(own.count("core.retained_edges"), own.count("core.retained_nodes")),
    );
    m.set(
        "core.reach.peak_resident_share",
        per(own.count("core.stream_peak_resident"), own.count("core.stream_states")),
    );
    m.set("obs.events_per_op", per(sink(&|s| s.events), sink_ops));

    // ---- The process. ----
    let off_ms: Vec<f64> = own.unit_ns(false).iter().map(|ns| ns / 1e6).collect();
    let (unit_total, unit_self) = spans.totals("unit");
    m.set("proc.cal_factor", cal_factor);
    m.set("proc.raw_ops_per_s", ops / (unit_ns / 1e9));
    m.set("proc.unit_ms_p90", percentile(&off_ms, 90));
    m.set("proc.units", own.log.units() as f64);
    m.set("proc.cpu_util", cpu_share);
    // The allocator counted on the sink-off units only.
    let counted_ops = (own.log.units() as f64 - sink_units) * ops;
    m.set("proc.allocs_per_op", (calls1 - calls0) as f64 / counted_ops);
    m.set("proc.alloc_bytes_per_op", (bytes1 - bytes0) as f64 / counted_ops);
    m.set("proc.bench_self_share", unit_self as f64 / unit_total as f64);

    let missing = m.missing();
    if !missing.is_empty() {
        return Err(format!("the traced run did not produce {missing:?}"));
    }
    for t in [&own].into_iter().chain(cross.values()) {
        if let Some(why) = &t.log.first_failure {
            eprintln!("perf: a unit failed a gate: {why}");
        }
    }
    let summary = format!(
        "{workload} seed {seed} traced: {} units of {ops} ops, raw unit_ms p50 {:.3}, raw set-up {raw_setup_s:.4} s",
        own.log.units(),
        unit_ns / 1e6,
    );
    Ok(Trace { metrics: m, attempted, failed, spans, summary })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_idle_layer_reads_zero_not_nan() {
        assert_eq!(per(5.0, 0.0), 0.0);
        assert_eq!(per(6.0, 4.0), 1.5);
    }

    // The whole traced run, shortened: `trace` fails on any per-layer
    // metric of the manifest it did not emit.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "minutes in a debug build; run the tests with --release")]
    fn the_traced_run_emits_every_per_layer_metric() {
        let _switch = alloc::switch_lock();
        let tmp = out_dir().join("tmp");
        std::fs::create_dir_all(&tmp).expect("the benchmark's own target directory");
        std::env::set_var("TMPDIR", &tmp); // no other test reads the environment
        let t = trace("reach-analysis", 1, 1.0, 0.5).expect("every metric of the manifest");
        assert!(t.metrics.missing().is_empty());
        assert_eq!(t.failed, 0);
        assert!(t.attempted > 0);
        assert_eq!(t.metrics.get("check.distinct_states"), Some(0.0), "check is idle on reach");
        assert!(t.metrics.get("core.reach.edges_per_state").expect("set") > 1.0);
        assert!(t
            .spans
            .all()
            .iter()
            .any(|s| s.name == "core.analysis.build" && s.label == "c2pc-7"));
        assert!(t.summary.contains("reach-analysis seed 1 traced"));
    }

    #[test]
    fn only_the_pipeline_takes_a_tracer() {
        let traced: Vec<&str> =
            WORKLOADS.iter().map(|w| w.name).filter(|n| takes_tracer(n)).collect();
        assert_eq!(traced, ["pipeline-steady", "pipeline-faulty"]);
    }
}
