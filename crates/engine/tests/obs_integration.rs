//! Observability integration: traced runs must be byte-reproducible, the
//! exported JSONL/Chrome artifacts must be well-formed, and the folded
//! metrics must satisfy the conservation invariants the event taxonomy
//! promises (sent = delivered + dropped; decisions match site outcomes).

use nbc_core::protocols::{catalog, central_2pc, central_3pc};
use nbc_core::{Analysis, ReachOptions};
use nbc_engine::{
    enumerate_crash_specs, run_traced, CrashPoint, CrashSpec, RunConfig, TerminationRule,
    TransitionProgress,
};
use nbc_obs::export::{to_jsonl, TraceWriter};
use nbc_obs::{Event, EventKind, MemorySink, Metrics, SharedSink, Sink, Tracer};
use nbc_simnet::LatencyModel;

fn traced(
    p: &nbc_core::Protocol,
    a: &Analysis,
    cfg: RunConfig,
) -> (nbc_engine::RunReport, Vec<Event>) {
    let sink = SharedSink::new(MemorySink::default());
    let report = run_traced(p, a, cfg, Tracer::to_sink(sink.clone()));
    (report, sink.with(|s| s.events.clone()))
}

/// What `--trace-format chrome` writes for `events`.
fn to_chrome(events: &[Event]) -> String {
    let mut out = Vec::new();
    let mut writer = TraceWriter::chrome(&mut out);
    events.iter().for_each(|e| writer.record(e));
    writer.finish().unwrap();
    String::from_utf8(out).unwrap()
}

fn stress_config(n: usize) -> RunConfig {
    let mut cfg = RunConfig::happy(n);
    cfg.latency = LatencyModel::uniform(1, 15, 42);
    cfg.with_rule(TerminationRule::Cooperative).with_crash(CrashSpec {
        site: 0,
        point: CrashPoint::OnTransition { ordinal: 2, progress: TransitionProgress::AfterMsgs(1) },
        recover_at: Some(200),
    })
}

#[test]
fn jsonl_trace_is_byte_identical_across_repeats_and_analysis_threads() {
    let p = central_3pc(3);
    let mut reference: Option<String> = None;
    for threads in [1usize, 2, 4] {
        let opts = ReachOptions { threads, parallel_frontier_min: 1, ..Default::default() };
        let a = Analysis::build_with(&p, opts).unwrap();
        for _ in 0..2 {
            let (report, events) = traced(&p, &a, stress_config(3));
            assert!(report.consistent);
            let jsonl = to_jsonl(&events);
            assert!(!jsonl.is_empty());
            match &reference {
                None => reference = Some(jsonl),
                Some(r) => assert_eq!(&jsonl, r, "threads={threads}"),
            }
        }
    }
}

#[test]
fn exported_artifacts_are_well_formed() {
    let p = central_3pc(3);
    let a = Analysis::build(&p).unwrap();
    let (_, events) = traced(&p, &a, stress_config(3));
    let jsonl = to_jsonl(&events);
    for line in jsonl.lines() {
        nbc_obs::json::validate(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    }
    let chrome = to_chrome(&events);
    nbc_obs::json::validate(&chrome).unwrap();
    assert!(chrome.contains("\"ph\":\"X\""), "expected duration spans");
    assert!(chrome.contains("\"ph\":\"M\""), "expected track metadata");
}

#[test]
fn message_conservation_holds_at_quiescence() {
    // Across every protocol and every enumerated crash point: each message
    // the engine sends is eventually delivered or dropped — the engine
    // emits the deliver event even for down destinations, and the network
    // emits a drop for every partition casualty.
    for p in catalog(3) {
        let a = Analysis::build(&p).unwrap();
        let base = RunConfig::happy(3);
        for spec in enumerate_crash_specs(&p, Some(150)) {
            let mut cfg = base.clone();
            cfg.crashes = vec![spec];
            let sink = SharedSink::new(Metrics::default());
            let report = run_traced(&p, &a, cfg, Tracer::to_sink(sink.clone()));
            if report.truncated {
                continue;
            }
            let m = sink.with(|m| m.clone());
            assert_eq!(
                m.msgs_sent,
                m.msgs_delivered + m.msgs_dropped,
                "{} {spec:?}: sent {} != delivered {} + dropped {}",
                p.name,
                m.msgs_sent,
                m.msgs_delivered,
                m.msgs_dropped
            );
            assert_eq!(m.msgs_sent, report.msgs_sent, "{} {spec:?}", p.name);
        }
    }
}

#[test]
fn decision_events_match_site_outcomes() {
    // Every traced decision belongs to a site whose audited outcome shows
    // exactly that decision — for the nonblocking protocol and for the
    // blocking one under its cooperative termination rule.
    for (p, rule) in
        [(central_3pc(3), TerminationRule::Skeen), (central_2pc(3), TerminationRule::Cooperative)]
    {
        let a = Analysis::build(&p).unwrap();
        for spec in enumerate_crash_specs(&p, None) {
            let cfg = RunConfig::happy(3).with_rule(rule).with_crash(spec);
            let (report, events) = traced(&p, &a, cfg);
            for e in &events {
                if let EventKind::Decision { commit } = e.kind {
                    let site = e.site.expect("decisions are sited") as usize;
                    assert_eq!(
                        report.outcomes[site].decision(),
                        Some(commit),
                        "{} {spec:?}: site{site} traced decision disagrees with outcome {:?}",
                        p.name,
                        report.outcomes[site]
                    );
                }
            }
        }
    }
}

#[test]
fn stable_write_accounting_matches_wal_events() {
    // Gray–Lamport accounting: every physical fsync the engine performs is
    // both a WalFsync event and a per-txn stable write; byte totals agree.
    let p = central_3pc(3);
    let a = Analysis::build(&p).unwrap();
    let sink = SharedSink::new(Metrics::default());
    let mem = SharedSink::new(MemorySink::default());
    let mut tracer = Tracer::to_sink(sink.clone());
    tracer.attach(mem.clone());
    let report = run_traced(&p, &a, RunConfig::happy(3), tracer);
    assert_eq!(report.decision(), Some(true));
    let m = sink.with(|m| m.clone());
    let events = mem.with(|s| s.events.clone());
    let fsyncs =
        events.iter().filter(|e| matches!(e.kind, EventKind::WalFsync { physical: true })).count()
            as u64;
    assert_eq!(m.wal_fsyncs_physical, fsyncs);
    let stable: u64 = m.txns.values().map(|t| t.stable_writes).sum();
    assert_eq!(stable, fsyncs, "every physical force is a per-txn stable write");
    let bytes: u64 = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::WalAppend { bytes, .. } => Some(*bytes),
            _ => None,
        })
        .sum();
    assert_eq!(m.wal_bytes, bytes);
    assert!(m.wal_appends > 0 && m.wal_bytes > 0);
}

#[test]
fn chrome_trace_tracks_are_well_formed() {
    // The Chrome export of a real crashy run must parse as JSON, and on
    // every (pid, tid) track the state-residency spans must tile the
    // timeline: starting at t=0, non-overlapping, each span beginning
    // where the previous one ended.
    use std::collections::BTreeMap;
    let p = central_3pc(3);
    let a = Analysis::build(&p).unwrap();
    let (_, events) = traced(&p, &a, stress_config(3));
    let chrome = to_chrome(&events);
    let doc = nbc_obs::json::parse(&chrome).unwrap();
    let records = match doc.get("traceEvents") {
        Some(nbc_obs::json::Value::Arr(items)) => items,
        other => panic!("traceEvents missing or not an array: {other:?}"),
    };
    assert!(!records.is_empty());
    let mut spans: BTreeMap<(u64, u64), Vec<(u64, u64)>> = BTreeMap::new();
    let mut tracks_named: Vec<(u64, u64)> = Vec::new();
    for r in records {
        let ph = r.get("ph").and_then(|v| v.as_str()).expect("every record has ph");
        assert!(r.get("name").is_some(), "every record is named");
        let pid = r.get("pid").and_then(|v| v.as_u64()).expect("pid");
        let tid = r.get("tid").and_then(|v| v.as_u64()).expect("tid");
        match ph {
            "X" => {
                let ts = r.get("ts").and_then(|v| v.as_u64()).expect("ts");
                let dur = r.get("dur").and_then(|v| v.as_u64()).expect("dur");
                spans.entry((pid, tid)).or_default().push((ts, dur));
            }
            "i" => {
                assert!(r.get("ts").is_some());
            }
            "M" => {
                if r.get("name").and_then(|v| v.as_str()) == Some("thread_name") {
                    tracks_named.push((pid, tid));
                }
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(!spans.is_empty(), "a run with transitions must produce spans");
    for (track, mut sp) in spans {
        sp.sort_unstable();
        assert_eq!(sp[0].0, 0, "{track:?}: first residency starts at t=0");
        for w in sp.windows(2) {
            let ((ts, dur), (next_ts, _)) = (w[0], w[1]);
            assert_eq!(ts + dur, next_ts, "{track:?}: spans must tile without gap or overlap");
        }
        assert!(tracks_named.contains(&track), "{track:?}: every span track is named");
    }
}

#[test]
fn jsonl_export_round_trips_through_the_parser() {
    // analyze::parse_jsonl is the exact inverse of export::to_jsonl on
    // real engine traces: parse(export(events)) == events, for every
    // catalog protocol under a crashy, lossy configuration.
    for p in catalog(3) {
        let a = Analysis::build(&p).unwrap();
        let (_, events) = traced(&p, &a, stress_config(3));
        let jsonl = to_jsonl(&events);
        let parsed =
            nbc_obs::analyze::parse_jsonl(&jsonl).unwrap_or_else(|e| panic!("{}: {e}", p.name));
        assert_eq!(parsed, events, "{}", p.name);
        // And re-export is byte-identical: no information is lost.
        assert_eq!(to_jsonl(&parsed), jsonl, "{}", p.name);
    }
}

#[test]
fn traced_event_names_stay_within_the_taxonomy() {
    // Every name the engine emits is one the offline parser recognizes —
    // a new event kind that misses analyze::parse_event would silently
    // vanish from trace verification.
    let known: &[&str] = &[
        "transition",
        "vote",
        "msg-send",
        "msg-deliver",
        "msg-drop",
        "decision",
        "crash",
        "recover",
        "failure-notice",
        "recovery-notice",
        "election",
        "aligned",
        "blocked",
        "wal-append",
        "wal-fsync",
        "wal-compact",
        "admit",
        "park",
        "die",
        "reap",
        "partition",
        "snapshot",
        "note",
    ];
    let mut seen = std::collections::BTreeSet::new();
    for p in catalog(3) {
        let a = Analysis::build(&p).unwrap();
        let (_, events) = traced(&p, &a, stress_config(3));
        for e in &events {
            assert!(known.contains(&e.kind.name()), "unknown event name {:?}", e.kind.name());
            seen.insert(e.kind.name());
        }
    }
    // The crashy run must exercise the load-bearing core of the taxonomy.
    for must in ["transition", "msg-send", "msg-deliver", "decision", "wal-append", "crash"] {
        assert!(seen.contains(must), "stress runs never emitted {must:?}");
    }
}
