//! The commands that run the engine: `simulate` (and its `--schedule`
//! replay), `sweep` and `paxos`, with the `Observers` a run records into.

use std::fmt::Write as _;

use nonblocking_commit::check::explore::plan_config;
use nonblocking_commit::check::{replay_strict, rule_from_name, Schedule};
use nonblocking_commit::engine::{
    enumerate_crash_specs, run_traced, run_with, sweep, sweep_traced, CrashPoint, CrashSpec,
    DetectorSpec, RunConfig, RunReport, Runner, TransitionProgress,
};
use nonblocking_commit::model::paxos::{gl_2pc_cost, gl_paxos_cost, paxos_commit, CostRow};
use nonblocking_commit::model::protocols::{central_2pc, central_3pc};
use nonblocking_commit::model::{Analysis, Protocol, SiteId};
use nonblocking_commit::net::LatencyModel;
use nonblocking_commit::obs::export::{to_chrome, to_jsonl};
use nonblocking_commit::obs::json::Obj;
use nonblocking_commit::obs::{EventKind, FlightRecorder, MemorySink, Metrics, SharedSink, Tracer};

use crate::args::{Invocation, Value};
use crate::reach::build_analysis;
use crate::{fail, CliError};

/// The run the run flags describe on `protocol`; a flag naming a site the
/// protocol does not have, or a `--crash` transition its site never
/// makes, is a usage error.
fn to_config(inv: &Invocation, protocol: &Protocol) -> Result<RunConfig, CliError> {
    let n = protocol.n_sites();
    let site_of = |flag: &str, site: usize| {
        if site < n {
            Ok(site)
        } else {
            fail(format!("{flag} names site {site}, but the protocol has {n} sites (0..{n})"))
        }
    };
    let mut cfg = RunConfig::happy(n);
    for v in inv.nums("--no-voter") {
        cfg.votes[site_of("--no-voter", v)?] = false;
    }
    cfg.rule = inv.rule();
    let seed = inv.num("--seed").unwrap_or(0);
    if let Some((lo, hi)) = inv.span("--latency") {
        cfg.latency = LatencyModel::uniform(lo, hi, seed);
    }
    if let Some(timeout) = inv.num("--detector-timeout") {
        let jitter = inv.span("--detector-jitter").unwrap_or((1, 12));
        cfg.detector = Some(DetectorSpec { timeout, jitter, seed });
    }
    cfg.record_trace = inv.has("--story");
    if let Some((site, ordinal, msgs)) = inv.crash() {
        let site = site_of("--crash", site)?;
        // A site counts the transitions it starts from 1, and makes at most
        // its automaton's depth of them: any other ordinal never fires.
        let depth = protocol.fsa(SiteId(site as u32)).max_depth();
        if !(1..=depth).contains(&ordinal) {
            return fail(format!(
                "--crash names transition {ordinal} of site {site}, but that site makes \
                 transitions 1..={depth}"
            ));
        }
        cfg.crashes.push(CrashSpec {
            site,
            point: CrashPoint::OnTransition {
                ordinal,
                progress: match msgs {
                    None => TransitionProgress::BeforeLog,
                    Some(k) => TransitionProgress::AfterMsgs(k),
                },
            },
            recover_at: inv.num("--recover"),
        });
    }
    Ok(cfg)
}

/// The sinks a run records into — the event list behind `--trace` (and
/// `--trace-format`), the `--metrics` counters, the `--flight` ring (sized
/// by `--flight-cap`) — and what becomes of them when the run ends.
pub(crate) struct Observers {
    trace_path: Option<String>,
    chrome: bool,
    metrics: bool,
    events: SharedSink<MemorySink>,
    counters: SharedSink<Metrics>,
    pub(crate) flight: Option<(String, SharedSink<FlightRecorder>)>,
}

impl Observers {
    pub(crate) fn of(inv: &Invocation) -> Self {
        let ring = || SharedSink::new(FlightRecorder::new(inv.num("--flight-cap").unwrap_or(256)));
        Self {
            trace_path: inv.text("--trace"),
            chrome: inv.get("--trace-format") == Some(&Value::Chrome(true)),
            metrics: inv.has("--metrics"),
            events: SharedSink::new(MemorySink::default()),
            counters: SharedSink::new(Metrics::default()),
            flight: inv.text("--flight").map(|path| (path, ring())),
        }
    }

    /// A tracer into the sinks, or `None` when no flag asked for one and
    /// the run goes untraced.
    pub(crate) fn tracer(&self) -> Option<Tracer> {
        if self.trace_path.is_none() && !self.metrics && self.flight.is_none() {
            return None;
        }
        let mut tracer = Tracer::to_sink(self.events.clone());
        if self.metrics {
            tracer.attach(self.counters.clone());
        }
        if let Some((_, ring)) = &self.flight {
            tracer.attach(ring.clone());
        }
        Some(tracer)
    }

    /// Write the flight recorder's tail to its path; `why` opens the note
    /// on stderr.
    pub(crate) fn dump_flight(&self, why: &str) -> Result<(), CliError> {
        let Some((path, ring)) = &self.flight else { return Ok(()) };
        let (dump, kept, total) = ring.with(|r| (r.dump_jsonl(), r.len(), r.total_seen()));
        std::fs::write(path, dump).map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
        eprintln!("flight recorder: {why}dumped last {kept} of {total} events to {path}");
        Ok(())
    }

    /// The run is over: write the trace file, dump the flight recorder if
    /// the run `ended_badly` (a clean run leaves nothing behind, so the
    /// file's existence is itself a signal scripts can gate on), and hand
    /// back the counters if they were asked for.
    pub(crate) fn finish(&self, ended_badly: Option<&str>) -> Result<Option<Metrics>, CliError> {
        if let Some(path) = &self.trace_path {
            let export = if self.chrome { to_chrome } else { to_jsonl };
            std::fs::write(path, self.events.with(|s| export(&s.events)))
                .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
        }
        if let Some(why) = ended_badly {
            self.dump_flight(why)?;
        }
        Ok(self.metrics.then(|| self.counters.with(|m| m.clone())))
    }
}

/// The story lines, the report and the atomicity line of a finished run.
fn render_run(out: &mut String, report: &RunReport) {
    for line in &report.trace {
        let _ = writeln!(out, "{line}");
    }
    let _ = writeln!(out, "{report}");
    let _ = writeln!(
        out,
        "atomicity: {}   all operational decided: {}",
        if report.consistent { "preserved" } else { "VIOLATED" },
        report.all_operational_decided
    );
}

/// `nbc simulate PROTO [opts]`
pub(crate) fn cmd_simulate(
    protocol: &Protocol,
    analysis: &Analysis,
    inv: &Invocation,
) -> Result<String, CliError> {
    if let Some(path) = inv.text("--schedule") {
        return cmd_replay(protocol, analysis, &path, inv);
    }
    let cfg = to_config(inv, protocol)?;
    let observers = Observers::of(inv);
    let report = match observers.tracer() {
        Some(tracer) => run_traced(protocol, analysis, cfg, tracer),
        None => run_with(protocol, analysis, cfg),
    };
    let ended_badly = !report.consistent || !report.all_operational_decided;
    let metrics = observers.finish(ended_badly.then_some(""))?;
    if inv.has("--json") {
        // `--json --metrics` nests both documents under fixed keys so a
        // script gets the verdict and the counters in one parse.
        let report = report.to_json();
        return Ok(match &metrics {
            Some(m) => Obj::new().raw("report", &report).raw("metrics", &m.to_json()).build(),
            None => report,
        } + "\n");
    }
    let mut out = String::new();
    render_run(&mut out, &report);
    if let Some(m) = metrics {
        let _ = write!(out, "{m}");
    }
    Ok(out)
}

/// `nbc simulate PROTO --schedule FILE`: strictly replay a recorded
/// `nbc-check` JSONL schedule against the engine in lockstep mode. The
/// schedule header carries the vote plan and termination rule; the
/// protocol on the command line must match the one the schedule was
/// recorded against.
pub(crate) fn cmd_replay(
    protocol: &Protocol,
    analysis: &Analysis,
    path: &str,
    inv: &Invocation,
) -> Result<String, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
    let sched = Schedule::from_jsonl(&text).map_err(|e| CliError(format!("{path}: {e}")))?;
    if sched.n != protocol.n_sites() {
        return fail(format!(
            "{path}: schedule is for n={}, resolved protocol has n={}",
            sched.n,
            protocol.n_sites()
        ));
    }
    if sched.protocol != protocol.name {
        return fail(format!(
            "{path}: schedule was recorded against {:?}, not {:?}",
            sched.protocol, protocol.name
        ));
    }
    let rule = rule_from_name(&sched.rule)
        .ok_or_else(|| CliError(format!("{path}: unknown termination rule {:?}", sched.rule)))?;
    let mut cfg = plan_config(sched.n, &sched.votes, rule);
    cfg.record_trace = inv.has("--story");
    let mut runner = Runner::new(protocol, analysis, cfg);
    replay_strict(&mut runner, &sched.steps)
        .map_err(|e| CliError(format!("{path}: replay failed at {e}")))?;
    let report = runner.report();
    if inv.has("--json") {
        return Ok(format!("{}\n", report.to_json()));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "replayed {} steps from {path} (rule={}, votes={})",
        sched.steps.len(),
        sched.rule,
        sched.votes.iter().map(|&v| if v { 'y' } else { 'n' }).collect::<String>(),
    );
    render_run(&mut out, &report);
    Ok(out)
}

/// Run one happy-path (all-yes, no-failure) transaction through the
/// instrumented engine and fold the event stream into the Gray–Lamport
/// accounting unit: messages sent, stable writes, and sequential message
/// delays (the latest decision latency under the constant-1 lockstep
/// clock) per committed transaction.
fn measured_cost(protocol: &Protocol) -> Result<(CostRow, Metrics), CliError> {
    let analysis = build_analysis(protocol, 0, false, 0)?;
    let cfg = RunConfig::happy(protocol.n_sites());
    let (events, counters) =
        (SharedSink::new(MemorySink::default()), SharedSink::new(Metrics::default()));
    let mut tracer = Tracer::to_sink(events.clone());
    tracer.attach(counters.clone());
    let report = run_traced(protocol, &analysis, cfg, tracer);
    if !report.consistent {
        return fail(format!("{}: happy-path run was inconsistent", protocol.name));
    }
    // Delays: unit network latency makes "time until the last site logs
    // its decision" exactly the sequential-message-delay count.
    let delays = events.with(|s| {
        let start = s.events.iter().map(|e| e.time).min().unwrap_or(0);
        let last = s
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Decision { .. }))
            .map(|e| e.time)
            .max()
            .unwrap_or(start);
        (last - start) as usize
    });
    let m = counters.with(|m| m.clone());
    let row = CostRow {
        messages: m.txns.values().map(|t| t.msgs_sent).sum::<u64>() as usize,
        stable_writes: m.txns.values().map(|t| t.stable_writes).sum::<u64>() as usize,
        delays,
    };
    Ok((row, m))
}

/// `nbc paxos [--sites N] [--faults F] [--metrics] [--json]` — run one
/// happy-path Paxos Commit transaction under the instrumented engine and
/// print the Gray–Lamport cost table: measured messages / stable writes /
/// message delays per committed transaction for Paxos Commit next to this
/// repo's central 2PC and 3PC, plus Gray & Lamport's analytic predictions.
pub(crate) fn cmd_paxos(inv: &Invocation) -> Result<String, CliError> {
    let sites: usize = inv.num("--sites").unwrap_or(3);
    let faults: usize = inv.num("--faults").unwrap_or(1);
    let (want_metrics, json) = (inv.has("--metrics"), inv.has("--json"));
    let paxos = paxos_commit(sites, faults);
    let (px, px_metrics) = measured_cost(&paxos)?;
    let (c2, _) = measured_cost(&central_2pc(sites))?;
    let (c3, _) = measured_cost(&central_3pc(sites))?;
    // Gray & Lamport count resource managers; our leader doubles as the
    // first RM, so n participants = n RMs in their accounting.
    let gl2 = gl_2pc_cost(sites);
    let glp = gl_paxos_cost(sites, faults);

    if json {
        let row = |r: &CostRow| {
            Obj::new()
                .num("messages", r.messages as u64)
                .num("stable_writes", r.stable_writes as u64)
                .num("delays", r.delays as u64)
                .build()
        };
        let measured = Obj::new()
            .raw("paxos", &row(&px))
            .raw("central_2pc", &row(&c2))
            .raw("central_3pc", &row(&c3));
        let predicted = Obj::new().raw("paxos", &row(&glp)).raw("two_pc", &row(&gl2));
        let doc = Obj::new()
            .str("protocol", &paxos.name)
            .num("sites", sites as u64)
            .num("faults", faults as u64)
            .raw("measured", &measured.build())
            .raw("gray_lamport", &predicted.build());
        return Ok(doc.build() + "\n");
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: one committed transaction, all sites vote yes\n\
         quorum: {} acceptors, decision needs {} ack-commit(s)\n",
        paxos.name,
        2 * faults + 1,
        faults + 1
    );
    let _ = writeln!(
        out,
        "cost per committed transaction (measured by the event stream):\n\
         \x20 {:<22} {:>6} {:>14} {:>8}",
        "protocol", "msgs", "stable-writes", "delays"
    );
    for (name, r) in
        [("central-2pc", &c2), ("central-3pc", &c3), (&*format!("paxos-commit f={faults}"), &px)]
    {
        let _ = writeln!(
            out,
            "  {:<22} {:>6} {:>14} {:>8}",
            name, r.messages, r.stable_writes, r.delays
        );
    }
    let _ = writeln!(
        out,
        "\nGray & Lamport analytic predictions ({} resource managers):\n\
         \x20 {:<22} {:>6} {:>14} {:>8}",
        sites, "protocol", "msgs", "stable-writes", "delays"
    );
    for (name, r) in [("two-phase commit", &gl2), (&*format!("paxos commit f={faults}"), &glp)] {
        let _ = writeln!(
            out,
            "  {:<22} {:>6} {:>14} {:>8}",
            name, r.messages, r.stable_writes, r.delays
        );
    }
    let _ = writeln!(
        out,
        "\nDivergence from the paper is structural: Gray & Lamport colocate\n\
         acceptors with RMs and the leader with one acceptor, eliding relay\n\
         messages and acceptor log writes that this model keeps as distinct\n\
         sites (each acceptor adds its own messages and 3 stable writes)."
    );
    if want_metrics {
        let _ = write!(out, "\n{px_metrics}");
    }
    Ok(out)
}

/// `nbc sweep PROTO [opts]`
pub(crate) fn cmd_sweep(
    protocol: &Protocol,
    analysis: &Analysis,
    inv: &Invocation,
) -> Result<String, CliError> {
    let specs = enumerate_crash_specs(protocol, inv.num("--recover"));
    let base = to_config(inv, protocol)?;
    let observers = Observers::of(inv);
    let s = match observers.tracer() {
        Some(tracer) => sweep_traced(protocol, analysis, &base, &specs, tracer),
        None => sweep(protocol, analysis, &base, &specs),
    };
    let metrics_table = observers.finish(None)?;
    if inv.has("--json") {
        return Ok(format!("{}\n", s.to_json()));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} crash points; consistent {}/{}; blocked {}; all-decided {}",
        protocol.name, s.total, s.consistent, s.total, s.blocked, s.fully_decided
    );
    for bad in s.inconsistent_runs.iter().take(5) {
        let _ = writeln!(out, "  ! {bad}");
    }
    let _ = writeln!(
        out,
        "verdict: {}",
        if !s.all_consistent() {
            "ATOMICITY VIOLATED"
        } else if s.nonblocking() {
            "nonblocking"
        } else {
            "blocking window present"
        }
    );
    if let Some(m) = metrics_table {
        let _ = write!(out, "{m}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::tests::{simulate, sweep_of, temp};
    use nonblocking_commit::obs::{analyze, json};
    use std::path::Path;

    #[test]
    fn simulate_happy_path() {
        let out = simulate(&["3pc"]);
        assert!(out.contains("committed"));
        assert!(out.contains("preserved"));
    }

    #[test]
    fn simulate_with_crash_and_recovery() {
        let out = simulate(&["3pc", "--crash", "0:3:1", "--recover", "300"]);
        assert!(out.contains("preserved"), "{out}");
    }

    #[test]
    fn simulate_trace_shows_the_story() {
        // Partial prepare broadcast: the backup must run phase 1
        // (alignment) before deciding, so the whole termination protocol
        // shows up in the trace.
        let out = simulate(&["3pc", "--crash", "0:2:1", "--story"]);
        assert!(out.contains("CRASH"), "{out}");
        assert!(out.contains("align-to"), "{out}");
        assert!(out.contains("align-ack"), "{out}");
        assert!(out.contains("DECIDED COMMIT"), "{out}");
        assert!(out.contains("q1 -> w1"), "{out}");
    }

    #[test]
    fn sweep_verdicts() {
        assert!(sweep_of(&["3pc"]).contains("nonblocking"));
        assert!(sweep_of(&["2pc", "--rule", "cooperative"]).contains("blocking window"));
        let naive = sweep_of(&["2pc", "--rule", "naive", "--no-voter", "0"]);
        assert!(naive.contains("ATOMICITY VIOLATED"), "{naive}");
    }

    #[test]
    fn simulate_json_and_metrics() {
        let out = simulate(&["3pc", "--json"]);
        json::validate(out.trim()).unwrap();
        assert!(out.contains("\"decision\":true"), "{out}");

        let out = simulate(&["3pc", "--metrics"]);
        assert!(out.contains("metrics ("), "{out}");
        assert!(out.contains("messages"), "{out}");
        assert!(out.contains("preserved"), "{out}");

        // The coordinator dies one message into its broadcast and comes
        // back: the counters see the recovery.
        let out = simulate(&["3pc", "--crash", "0:2:1", "--recover", "300", "--metrics"]);
        assert!(out.contains("recoveries=1"), "{out}");
    }

    #[test]
    fn simulate_writes_trace_files() {
        let jsonl = temp("nbc-cli-test-trace.jsonl");
        let chrome = temp("nbc-cli-test-trace.chrome.json");

        simulate(&["3pc", "--trace", &jsonl]);
        let data = std::fs::read_to_string(&jsonl).unwrap();
        assert!(!data.is_empty());
        for line in data.lines() {
            json::validate(line).unwrap();
        }

        simulate(&["3pc", "--trace", &chrome, "--trace-format", "chrome"]);
        let data = std::fs::read_to_string(&chrome).unwrap();
        json::validate(&data).unwrap();
        assert!(data.starts_with("{\"traceEvents\":["), "{data}");

        let _ = std::fs::remove_file(&jsonl);
        let _ = std::fs::remove_file(&chrome);
    }

    #[test]
    fn sweep_json_is_valid() {
        let out = sweep_of(&["3pc", "--json"]);
        json::validate(out.trim()).unwrap();
        assert!(out.contains("\"nonblocking\":true"), "{out}");
    }

    #[test]
    fn simulate_flight_dump_only_on_bad_runs() {
        // Clean run: no dump.
        let clean = temp("nbc-cli-test-flight-clean.jsonl");
        let _ = std::fs::remove_file(&clean);
        simulate(&["3pc", "--flight", &clean]);
        assert!(!Path::new(&clean).exists(), "clean run must not write a flight dump");

        // Blocked run (2PC coordinator crash, cooperative rule): dump.
        let bad = temp("nbc-cli-test-flight-bad.jsonl");
        let _ = std::fs::remove_file(&bad);
        let out = simulate(&[
            "2pc",
            "--crash",
            "0:2:0",
            "--rule",
            "cooperative",
            "--flight",
            &bad,
            "--flight-cap",
            "32",
        ]);
        assert!(out.contains("all operational decided: false"), "{out}");
        let dump = std::fs::read_to_string(&bad).expect("flight dump written");
        assert!(dump.lines().next().unwrap().contains("flight recorder"), "{dump}");
        // The tail minus its header note is a verifiable trace fragment.
        let events = analyze::parse_jsonl(&dump).unwrap();
        assert!(!events.is_empty());
        let _ = std::fs::remove_file(&bad);
    }

    #[test]
    fn simulate_json_with_metrics_nests_both() {
        let out = simulate(&["3pc", "--json", "--metrics"]);
        let v = json::parse(out.trim()).unwrap();
        assert!(v.get("report").is_some(), "{out}");
        assert!(v.get("metrics").is_some(), "{out}");
        assert_eq!(
            v.get("report").and_then(|r| r.get("decision")).and_then(|d| d.as_bool()),
            Some(true),
            "{out}"
        );
    }
}
