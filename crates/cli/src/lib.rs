//! # nbc-cli — the `nbc` command-line tool
//!
//! Analyze, verify, synthesize, simulate, and sweep commit protocols from
//! the command line:
//!
//! ```text
//! nbc list
//! nbc analyze central-3pc -n 5
//! nbc verify decentralized-2pc
//! nbc graph central-2pc -n 2 --dot
//! nbc synthesize central-2pc
//! nbc simulate central-3pc --crash 0:3:1 --recover 200
//! nbc sweep central-2pc --rule cooperative
//! nbc termination central-3pc
//! nbc recovery central-3pc
//! nbc analyze path/to/custom.nbc -n 4      # spec files work everywhere
//! ```
//!
//! The front end is table → [`args::Invocation`] → command: [`args::parse`]
//! is the only code that reads `argv`, [`run_argv`] hands what it accepted
//! to a `cmd_*` function (each returns its output as a string, so all of it
//! is unit-testable), and `main.rs` prints the [`Outcome`] and exits.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod args;

use std::fmt::Write as _;

use args::{Cmd, Invocation, Value};
use nbc_check::{CheckOptions, CheckProgress, Schedule};
use nbc_core::kpc::k_phase_central;
use nbc_core::protocols::{central_2pc, central_3pc, one_pc};
use nbc_core::{
    dot, recovery_analysis, resilience, sync_check, synthesis, termination, theorem, verify,
    Analysis, Count, LevelProgress, Protocol, ProtocolError, ReachGraph, ReachOptions,
};
use nbc_engine::{
    enumerate_crash_specs, run_traced, run_with, sweep, sweep_traced, CrashPoint, CrashSpec,
    DetectorSpec, RunConfig, RunReport, Runner, TerminationRule, TransitionProgress,
};
use nbc_obs::export::{to_chrome, to_jsonl};
use nbc_obs::json::Obj;
use nbc_obs::{analyze, EventKind, FlightRecorder, MemorySink, Metrics, SharedSink, Tracer};
use nbc_simnet::LatencyModel;
use nbc_txn::ProtocolKind;

/// A CLI failure with a user-facing message.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn fail<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// What one command line came to: the exit status (0 = done, and for
/// `check` and `trace verify` every oracle passed; 1 = an oracle reported
/// a violation; 2 = usage or protocol error), everything for stdout, and
/// the error for stderr — followed by the usage text when the command
/// line itself was at fault. Progress, spill statistics and
/// flight-recorder notes go to stderr as the command runs.
#[derive(Debug)]
pub struct Outcome {
    /// The process exit status.
    pub code: i32,
    /// What the command prints.
    pub stdout: String,
    /// `error: ...` when `code` is 2, with the usage text after it if
    /// [`args::parse`] refused the line.
    pub stderr: String,
}

/// Run one `nbc` command line (without the program name). A line the flag
/// table refuses is answered with the error and the synopsis; a command
/// that parsed and then failed — a missing spec file, a protocol error, a
/// spill that could not be written — with the error alone.
pub fn run_argv(args: &[String]) -> Outcome {
    let failed = |stderr| Outcome { code: 2, stdout: String::new(), stderr };
    let inv = match args::parse(args) {
        Ok(inv) => inv,
        Err(e) => return failed(format!("error: {e}\n\n{}\n", args::usage())),
    };
    match run(&inv) {
        Ok(run) => Outcome { code: i32::from(!run.ok), stdout: run.output, stderr: String::new() },
        Err(e) => failed(format!("error: {e}\n")),
    }
}

/// Run the command a parsed command line names.
fn run(inv: &Invocation) -> Result<CheckRun, CliError> {
    let printed = |output| CheckRun { output, ok: true };
    match inv.cmd {
        Cmd::Help => Ok(printed(args::usage())),
        Cmd::List => Ok(printed(cmd_list())),
        Cmd::Check => cmd_check(inv),
        Cmd::Trace => cmd_trace(inv),
        Cmd::Pipeline => cmd_pipeline(inv).map(printed),
        Cmd::Paxos => cmd_paxos(inv).map(printed),
        _ => run_on_protocol(inv).map(printed),
    }
}

/// The eight commands that resolve PROTO and explore its reachable states.
fn run_on_protocol(inv: &Invocation) -> Result<String, CliError> {
    let protocol = resolve_protocol(&inv.operands[0], inv.n())?;
    let progress = inv.has("--progress");
    if inv.cmd == Cmd::Graph {
        return cmd_graph(&protocol, inv.has("--dot"), progress);
    }
    if inv.cmd == Cmd::Verify && protocol.n_sites() > verify::MAX_SITES {
        let (max, name, n) = (verify::MAX_SITES, &protocol.name, protocol.n_sites());
        return fail(format!("verify judges at most {max} sites, and {name} has {n}"));
    }
    // Every remaining command reads facts only; fold them once and share
    // them across the theorem/resilience/termination/report subpaths.
    let (threads, budget) =
        (inv.num("--threads").unwrap_or(0), inv.num("--mem-budget").unwrap_or(0));
    let analysis = build_analysis(&protocol, threads, progress, budget)?;
    let opts = SimOpts::of(inv);
    match inv.cmd {
        Cmd::Analyze => cmd_analyze(&protocol, &analysis),
        Cmd::Verify => cmd_verify(&protocol, &analysis),
        Cmd::Synthesize => cmd_synthesize(&protocol, &analysis),
        Cmd::Simulate => cmd_simulate(&protocol, &analysis, &opts),
        Cmd::Sweep => cmd_sweep(&protocol, &analysis, &opts),
        Cmd::Termination => cmd_termination(&protocol, &analysis, &opts),
        Cmd::Recovery => cmd_recovery(&protocol, &analysis, &opts),
        other => unreachable!("{other:?} does not take the reach flags"),
    }
}

/// What a protocol argument names.
enum Named<'a> {
    /// A protocol `nbc pipeline` can run a cluster on.
    Cluster(ProtocolKind),
    OnePc,
    Kpc(u32),
    Spec(&'a str),
}

/// The one protocol-name table: a catalog name, `kpc:K`, `paxos:F`, or a
/// spec file path (anything containing `/` or ending in `.nbc`).
fn protocol_name(arg: &str) -> Result<Named<'_>, CliError> {
    Ok(match arg {
        "central-2pc" | "2pc" => Named::Cluster(ProtocolKind::Central2pc),
        "central-3pc" | "3pc" => Named::Cluster(ProtocolKind::Central3pc),
        "decentralized-2pc" | "d2pc" => Named::Cluster(ProtocolKind::Decentralized2pc),
        "decentralized-3pc" | "d3pc" => Named::Cluster(ProtocolKind::Decentralized3pc),
        "1pc" | "central-1pc" => Named::OnePc,
        "paxos" | "paxos-commit" => Named::Cluster(ProtocolKind::Paxos { f: 1 }),
        _ if arg.starts_with("paxos:") => {
            let f: usize = arg[6..]
                .parse()
                .map_err(|_| CliError(format!("bad acceptor-fault count in {arg:?}")))?;
            if f as u64 > args::MAX_PAXOS_F {
                let max = args::MAX_PAXOS_F;
                return fail(format!("paxos:F needs F <= {max} (2F+1 acceptor sites)"));
            }
            Named::Cluster(ProtocolKind::Paxos { f })
        }
        _ if arg.starts_with("kpc:") => {
            let k: u32 =
                arg[4..].parse().map_err(|_| CliError(format!("bad phase count in {arg:?}")))?;
            if k < 2 {
                return fail("kpc:K needs K >= 2");
            }
            Named::Kpc(k)
        }
        _ if arg.contains('/') || arg.ends_with(".nbc") => Named::Spec(arg),
        _ => return fail(format!("unknown protocol {arg:?}; try `nbc list` or a spec file path")),
    })
}

/// Resolve a protocol argument: a catalog name, `kpc:K`, `paxos:F`, or a
/// spec file path (anything containing `/` or ending in `.nbc`).
///
/// For `paxos:F`, `n` counts the *participants* (leader + resource
/// managers); the protocol instance adds its `2F + 1` acceptor sites on
/// top, so `paxos:1 -n 3` is a 6-site protocol.
pub fn resolve_protocol(arg: &str, n: usize) -> Result<Protocol, CliError> {
    if n < 2 {
        return Err(args::too_few_sites("-n", n as u64));
    }
    match protocol_name(arg)? {
        Named::Cluster(kind) => Ok(kind.build(n)),
        Named::OnePc => Ok(one_pc(n)),
        Named::Kpc(k) => k_phase_central(n, k).map_err(|e| CliError(e.to_string())),
        Named::Spec(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
            nbc_core::spec::parse(&text, n).map_err(|e| CliError(format!("{path}: {e}")))
        }
    }
}

/// `nbc list`
pub fn cmd_list() -> String {
    "catalog protocols (use with -n N, default 3):\n\
     \x20 central-2pc (alias 2pc)          blocking\n\
     \x20 central-3pc (alias 3pc)          nonblocking\n\
     \x20 decentralized-2pc (alias d2pc)   blocking\n\
     \x20 decentralized-3pc (alias d3pc)   nonblocking\n\
     \x20 central-1pc (alias 1pc)          no unilateral abort (degenerate)\n\
     \x20 kpc:K                            2PC with K-2 buffer rounds\n\
     \x20 paxos:F (alias paxos = paxos:1)  Paxos Commit, n participants + 2F+1 acceptors\n\
     \x20 <path to .nbc spec file>         your own protocol\n"
        .to_string()
}

/// Build the single [`Analysis`] an invocation shares across every
/// facts-only subcommand (theorem, resilience, sync, termination
/// verification, termination, recovery, simulation), honoring
/// `--threads`, `--mem-budget` and `--progress`. The reachability fold
/// retires node payloads level by level and retains no graph; only
/// [`cmd_graph`], which reads edges, builds the graph instead.
pub fn build_analysis(
    protocol: &Protocol,
    threads: usize,
    progress: bool,
    mem_budget: usize,
) -> Result<Analysis, CliError> {
    let mut opts = ReachOptions::default()
        .with_threads(threads)
        .with_streaming(true)
        .with_mem_budget(mem_budget);
    if progress {
        opts = opts.with_progress(print_progress);
    }
    let analysis = Analysis::build_with(protocol, opts).map_err(|e| CliError(e.to_string()))?;
    if mem_budget > 0 {
        let s = analysis.stream_stats().expect("a streamed analysis carries its stats").spill;
        eprintln!(
            "{}",
            nbc_obs::progress::spill_line("reach", s.runs_written, s.bytes_written, s.merge_passes)
        );
    }
    Ok(analysis)
}

/// A failed retained build as a CLI error. One that ran into the state
/// limit names the way out: the streaming fold behind `nbc analyze` holds
/// one representative per orbit of interchangeable sites, and no graph.
fn graph_error(e: ProtocolError) -> CliError {
    match e {
        ProtocolError::GraphTooLarge { .. } => {
            CliError(format!("{e} (`nbc analyze` folds the facts without keeping the graph)"))
        }
        e => CliError(e.to_string()),
    }
}

/// The `--progress` hook: one stderr line per completed BFS level, with a
/// nodes/sec rate derived from a thread-local clock (stderr only — stdout
/// and all results stay byte-identical with or without it).
fn print_progress(p: &LevelProgress) {
    let rate = match tick_rate(u64::try_from(p.new_states).unwrap_or(u64::MAX)) {
        Some(r) => format!(" ({r:.0} states/s)"),
        None => String::new(),
    };
    eprintln!(
        "level {:>3}: frontier {:>7}  new {:>7}  dedup {:>8}  total {:>8}{rate}",
        p.level,
        Count(p.frontier),
        Count(p.new_states),
        Count(p.dedup_hits),
        Count(p.total)
    );
}

/// The `nbc check --progress` hook: one stderr line per reporting
/// interval of the parallel exploration (stderr only — the report stays
/// byte-identical with or without it).
fn print_check_progress(p: &CheckProgress) {
    let rate = match tick_rate(1 << 16) {
        Some(r) => format!(" ({r:.0} expansions/s)"),
        None => String::new(),
    };
    let spill = if p.spill_runs > 0 {
        format!("  spilled {:>4} runs", p.spill_runs)
    } else {
        String::new()
    };
    eprintln!(
        "plans {:>3}/{:<3}  distinct {:>9}  expansions {:>10}{spill}{rate}",
        p.plans_done, p.plans_total, p.distinct_states, p.expansions
    );
}

/// Per-thread progress rate over successive calls (the hooks above are
/// plain `fn` pointers, so their estimator state lives here).
fn tick_rate(events: u64) -> Option<f64> {
    use std::cell::Cell;
    thread_local! {
        static RATE: Cell<nbc_obs::progress::Rate> =
            const { Cell::new(nbc_obs::progress::Rate::new()) };
    }
    RATE.with(|c| {
        let mut r = c.get();
        let rate = r.tick(events);
        c.set(r);
        rate
    })
}

/// `nbc analyze PROTO`
pub fn cmd_analyze(protocol: &Protocol, analysis: &Analysis) -> Result<String, CliError> {
    let report = theorem::check_with(protocol, analysis);
    let res = resilience::resilience_with(protocol, &report);
    let sync = sync_check::check_with(protocol, analysis);

    let mut out = String::new();
    let _ = writeln!(out, "{protocol}");
    let _ = writeln!(out, "reachable state graph: {}", analysis.graph_stats());
    let _ = writeln!(
        out,
        "synchronous within one state transition: {}",
        if sync.synchronous_within_one() { "yes" } else { "NO" }
    );
    let _ = writeln!(out, "\n{report}");
    let _ = writeln!(
        out,
        "resiliency: {} clean site(s) of {}; nonblocking w.r.t. {} failure(s)",
        res.clean_count(),
        res.n_sites,
        res.max_tolerated_failures
    );
    Ok(out)
}

/// `nbc verify PROTO`: the verdict, the counts and the first witnesses.
pub fn cmd_verify(protocol: &Protocol, analysis: &Analysis) -> Result<String, CliError> {
    let v = verify::verify_termination_with(protocol, analysis);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: model-checked {} (global state x survivor subset) cases",
        v.protocol,
        Count(v.cases)
    );
    let _ = writeln!(
        out,
        "safety (no decision contradicts a durable final): {}",
        if v.safe() { "HOLDS" } else { "VIOLATED" }
    );
    for w in &v.unsafe_witnesses {
        let _ = writeln!(out, "  ! {w}");
    }
    let _ = writeln!(
        out,
        "liveness (every survivor subset can decide): {}",
        match v.stuck_cases {
            0 => "HOLDS — nonblocking".to_string(),
            stuck => format!("{} stuck cases — blocking", Count(stuck)),
        }
    );
    for w in &v.stuck_witnesses {
        let _ = writeln!(out, "  . {w}");
    }
    Ok(out)
}

/// `nbc graph PROTO [--dot] [--progress]`: the one command that reads
/// the edges, so the one that builds the retained graph.
pub fn cmd_graph(
    protocol: &Protocol,
    dot_output: bool,
    progress: bool,
) -> Result<String, CliError> {
    let mut opts = ReachOptions::default();
    if progress {
        opts = opts.with_progress(print_progress);
    }
    let g = ReachGraph::build_with(protocol, opts).map_err(graph_error)?;
    if dot_output {
        Ok(dot::reach_graph_to_dot(&g, protocol, true))
    } else {
        Ok(format!("{}\n{}\n", protocol.name, g.stats()))
    }
}

/// `nbc synthesize PROTO`
///
/// The "before" check reuses the invocation's shared analysis; the
/// synthesized protocol is new, so its "after" check builds its own.
pub fn cmd_synthesize(protocol: &Protocol, analysis: &Analysis) -> Result<String, CliError> {
    let before = theorem::check_with(protocol, analysis);
    let fixed = synthesis::make_nonblocking(protocol).map_err(|e| CliError(e.to_string()))?;
    let after = theorem::check(&fixed).map_err(|e| CliError(e.to_string()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "before: {} violation(s), {} phase(s)",
        before.violations.len(),
        protocol.phase_count()
    );
    let _ = writeln!(
        out,
        "after:  {} violation(s), {} phase(s)\n",
        after.violations.len(),
        fixed.phase_count()
    );
    let _ = write!(out, "{fixed}");
    Ok(out)
}

/// Options for `nbc simulate` / `nbc sweep`.
#[derive(Debug, Clone)]
pub struct SimOpts {
    /// Crash spec as `site:ordinal:msgs` (msgs = `log` for before-log).
    pub crash: Option<(usize, u32, Option<u32>)>,
    /// Recovery time for the crash.
    pub recover: Option<u64>,
    /// Sites voting no.
    pub no_voters: Vec<usize>,
    /// Termination rule.
    pub rule: TerminationRule,
    /// Uniform latency bounds (`lo..hi`), else constant 1.
    pub latency: Option<(u64, u64)>,
    /// Timeout-based failure detection: suspect a peer after this many
    /// units of silence (`--detector-timeout`). `None` keeps the paper's
    /// perfect detector.
    pub detector_timeout: Option<u64>,
    /// Inclusive heartbeat-latency bounds for the detector
    /// (`--detector-jitter LO..HI`, default `1..12`).
    pub detector_jitter: Option<(u64, u64)>,
    /// RNG seed for the latency model.
    pub seed: u64,
    /// Record and print the human-readable execution story (`--story`).
    pub trace: bool,
    /// Write the structured event trace to this path (`--trace PATH`).
    pub trace_path: Option<String>,
    /// Export the trace as Chrome trace-event JSON instead of JSONL
    /// (`--trace-format chrome`).
    pub trace_chrome: bool,
    /// Print the metrics table after the run (`--metrics`).
    pub metrics: bool,
    /// Attach a flight recorder and dump its tail to this path when the
    /// run ends badly — atomicity violated or an operational site left
    /// undecided (`--flight PATH`).
    pub flight_path: Option<String>,
    /// Flight-recorder ring capacity in events (`--flight-cap N`).
    pub flight_cap: usize,
    /// Print the machine-readable JSON report instead of the human text
    /// (`--json`).
    pub json: bool,
    /// Replay a recorded `nbc-check` JSONL schedule instead of running the
    /// timed simulation (`--schedule PATH`). Overrides crash/latency/vote
    /// options — the schedule carries its own.
    pub schedule: Option<String>,
}

impl Default for SimOpts {
    fn default() -> Self {
        Self {
            crash: None,
            recover: None,
            no_voters: Vec::new(),
            rule: TerminationRule::Skeen,
            latency: None,
            detector_timeout: None,
            detector_jitter: None,
            seed: 0,
            trace: false,
            trace_path: None,
            trace_chrome: false,
            metrics: false,
            flight_path: None,
            flight_cap: 256,
            json: false,
            schedule: None,
        }
    }
}

impl SimOpts {
    /// The options a parsed command line carries.
    fn of(inv: &Invocation) -> Self {
        Self {
            crash: inv.crash(),
            recover: inv.num("--recover"),
            no_voters: inv.nums("--no-voter").collect(),
            rule: inv.rule(),
            latency: inv.span("--latency"),
            detector_timeout: inv.num("--detector-timeout"),
            detector_jitter: inv.span("--detector-jitter"),
            seed: inv.num("--seed").unwrap_or(0),
            trace: inv.has("--story"),
            trace_path: inv.text("--trace"),
            trace_chrome: inv.get("--trace-format") == Some(&Value::Chrome(true)),
            metrics: inv.has("--metrics"),
            flight_path: inv.text("--flight"),
            flight_cap: inv.num("--flight-cap").unwrap_or(256),
            json: inv.has("--json"),
            schedule: inv.text("--schedule"),
        }
    }

    /// The run these options describe on `n` sites; a flag naming a site
    /// the protocol does not have is a usage error.
    fn to_config(&self, n: usize) -> Result<RunConfig, CliError> {
        let site_of = |flag: &str, site: usize| {
            if site < n {
                Ok(site)
            } else {
                fail(format!("{flag} names site {site}, but the protocol has {n} sites (0..{n})"))
            }
        };
        let mut cfg = RunConfig::happy(n);
        for &v in &self.no_voters {
            cfg.votes[site_of("--no-voter", v)?] = false;
        }
        cfg.rule = self.rule;
        if let Some((lo, hi)) = self.latency {
            cfg.latency = LatencyModel::uniform(lo, hi, self.seed);
        }
        if let Some(timeout) = self.detector_timeout {
            cfg.detector = Some(DetectorSpec {
                timeout,
                jitter: self.detector_jitter.unwrap_or((1, 12)),
                seed: self.seed,
            });
        }
        cfg.record_trace = self.trace;
        if let Some((site, ordinal, msgs)) = self.crash {
            cfg.crashes.push(CrashSpec {
                site: site_of("--crash", site)?,
                point: CrashPoint::OnTransition {
                    ordinal,
                    progress: match msgs {
                        None => TransitionProgress::BeforeLog,
                        Some(k) => TransitionProgress::AfterMsgs(k),
                    },
                },
                recover_at: self.recover,
            });
        }
        Ok(cfg)
    }
}

impl SimOpts {
    /// True when the run must be executed through a tracer (a structured
    /// trace, the metrics table, or a flight recorder was requested).
    fn wants_events(&self) -> bool {
        self.trace_path.is_some() || self.metrics || self.flight_path.is_some()
    }
}

/// The sinks a run records into — the event list behind `--trace` (and
/// `--trace-format`), the `--metrics` counters, the `--flight` ring (sized
/// by `--flight-cap`) — and what becomes of them when the run ends.
struct Observers<'a> {
    trace_path: Option<&'a str>,
    chrome: bool,
    metrics: bool,
    events: SharedSink<MemorySink>,
    counters: SharedSink<Metrics>,
    flight: Option<(&'a str, SharedSink<FlightRecorder>)>,
}

impl<'a> Observers<'a> {
    fn of(opts: &'a SimOpts) -> Self {
        let ring = || SharedSink::new(FlightRecorder::new(opts.flight_cap.max(1)));
        Self {
            trace_path: opts.trace_path.as_deref(),
            chrome: opts.trace_chrome,
            metrics: opts.metrics,
            events: SharedSink::new(MemorySink::default()),
            counters: SharedSink::new(Metrics::default()),
            flight: opts.flight_path.as_deref().map(|path| (path, ring())),
        }
    }

    fn tracer(&self) -> Tracer {
        let mut tracer = Tracer::to_sink(self.events.clone());
        if self.metrics {
            tracer.attach(self.counters.clone());
        }
        if let Some((_, ring)) = &self.flight {
            tracer.attach(ring.clone());
        }
        tracer
    }

    /// Write the flight recorder's tail to its path; `why` opens the note
    /// on stderr.
    fn dump_flight(&self, why: &str) -> Result<(), CliError> {
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
    fn finish(&self, ended_badly: Option<&str>) -> Result<Option<Metrics>, CliError> {
        if let Some(path) = self.trace_path {
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

/// Execute one run through a tracer, honoring the trace/metrics options:
/// writes the trace file (if requested) and returns the report together
/// with the rendered metrics table (if requested).
fn run_observed(
    protocol: &Protocol,
    analysis: &Analysis,
    cfg: RunConfig,
    opts: &SimOpts,
) -> Result<(RunReport, Option<Metrics>), CliError> {
    let observers = Observers::of(opts);
    let report = run_traced(protocol, analysis, cfg, observers.tracer());
    let ended_badly = !report.consistent || !report.all_operational_decided;
    let metrics = observers.finish(ended_badly.then_some(""))?;
    Ok((report, metrics))
}

/// `nbc simulate PROTO [opts]`
pub fn cmd_simulate(
    protocol: &Protocol,
    analysis: &Analysis,
    opts: &SimOpts,
) -> Result<String, CliError> {
    if let Some(path) = &opts.schedule {
        return cmd_replay(protocol, analysis, path, opts);
    }
    let cfg = opts.to_config(protocol.n_sites())?;
    let (report, metrics) = if opts.wants_events() {
        run_observed(protocol, analysis, cfg, opts)?
    } else {
        (run_with(protocol, analysis, cfg), None)
    };
    if opts.json {
        // `--json --metrics` nests both documents under fixed keys so a
        // script gets the verdict and the counters in one parse.
        let report = report.to_json();
        return Ok(match &metrics {
            Some(m) => Obj::new().raw("report", &report).raw("metrics", &m.to_json()).build(),
            None => report,
        } + "\n");
    }
    let mut out = String::new();
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
pub fn cmd_replay(
    protocol: &Protocol,
    analysis: &Analysis,
    path: &str,
    opts: &SimOpts,
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
    let rule = nbc_check::rule_from_name(&sched.rule)
        .ok_or_else(|| CliError(format!("{path}: unknown termination rule {:?}", sched.rule)))?;
    let mut cfg = nbc_check::explore::plan_config(sched.n, &sched.votes, rule);
    cfg.record_trace = opts.trace;
    let mut runner = Runner::new(protocol, analysis, cfg);
    nbc_check::replay_strict(&mut runner, &sched.steps)
        .map_err(|e| CliError(format!("{path}: replay failed at {e}")))?;
    let report = runner.report();
    if opts.json {
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
    Ok(out)
}

/// Outcome of `nbc check`: the rendered report plus the verdict bit the
/// binary turns into its exit status (0 = every oracle passed, 1 = some
/// oracle failed; usage and protocol errors stay on the [`CliError`]
/// path and exit 2).
pub struct CheckRun {
    /// The rendered report (text or `--json`).
    pub output: String,
    /// True iff every oracle passed.
    pub ok: bool,
}

/// `nbc check PROTO [opts]` — run the schedule-exploring model checker.
pub fn cmd_check(inv: &Invocation) -> Result<CheckRun, CliError> {
    let defaults = CheckOptions::default();
    let opts = CheckOptions {
        depth: inv.num("--depth").unwrap_or(defaults.depth),
        faults: inv.num("--faults").unwrap_or(defaults.faults),
        recoveries: inv.num("--recoveries").unwrap_or(defaults.recoveries),
        drops: inv.num("--drops").unwrap_or(defaults.drops),
        suspicions: inv.num("--suspicions").unwrap_or(defaults.suspicions),
        rule: inv.rule(),
        seed: inv.num("--seed"),
        vote_plan: inv.votes(),
        max_states: inv.num("--max-states").unwrap_or(defaults.max_states),
        threads: inv.num("--threads").unwrap_or(defaults.threads),
        progress: inv.has("--progress").then_some(print_check_progress),
        mem_budget: inv.num("--mem-budget").unwrap_or(defaults.mem_budget),
    };
    let (json, trace, cx_path) =
        (inv.has("--json"), inv.has("--trace"), inv.text("--counterexample"));
    let protocol = resolve_protocol(&inv.operands[0], inv.n())?;
    let budgeted = opts.mem_budget > 0;
    let report = nbc_check::run_check(&protocol, opts).map_err(|e| match e {
        nbc_check::CheckError::VotePlanLength { expected, got } => {
            CliError(format!("--votes names {got} sites, protocol has {expected}"))
        }
        e => CliError(e.to_string()),
    })?;
    // Spill stats go to stderr only: the rendered report and JSON stay
    // byte-identical with and without a budget.
    if budgeted {
        let s = report.spill;
        eprintln!(
            "{}",
            nbc_obs::progress::spill_line("check", s.runs_written, s.bytes_written, s.merge_passes)
        );
    }
    if let Some(path) = cx_path {
        let sched = report
            .failures
            .iter()
            .find_map(|f| f.counterexample.as_ref())
            .or(report.blocking_witness.as_ref());
        match sched {
            Some(s) => {
                if let Some(parent) = std::path::Path::new(&path).parent() {
                    if !parent.as_os_str().is_empty() {
                        std::fs::create_dir_all(parent).map_err(|e| {
                            CliError(format!("cannot create {}: {e}", parent.display()))
                        })?;
                    }
                }
                std::fs::write(&path, s.to_jsonl())
                    .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
                // Replay the shrunk schedule with a flight recorder
                // attached and drop its event tail next to the schedule:
                // the causal last moments of the failure, ready for
                // `nbc trace verify`.
                let flight_path = format!("{path}.flight.jsonl");
                match nbc_check::replay_flight_dump(&protocol, s, 256) {
                    Ok(dump) => std::fs::write(&flight_path, dump)
                        .map_err(|e| CliError(format!("cannot write {flight_path}: {e}")))?,
                    Err(e) => eprintln!("note: flight replay failed: {e}"),
                }
            }
            None => eprintln!("note: no counterexample or witness to write to {path}"),
        }
    }
    let ok = report.ok();
    if json {
        return Ok(CheckRun { output: format!("{}\n", report.to_json()), ok });
    }
    let mut out = report.render();
    if trace {
        let mut listing = |label: &str, sched: &Schedule| {
            let _ = writeln!(out, "  {label} steps:");
            for (ix, step) in sched.steps.iter().enumerate() {
                let _ = writeln!(out, "    {ix:3}. {step}");
            }
        };
        if let Some(w) = &report.blocking_witness {
            listing("witness", w);
        }
        for f in &report.failures {
            if let Some(cx) = &f.counterexample {
                listing(f.oracle, cx);
            }
        }
    }
    Ok(CheckRun { output: out, ok })
}

/// `nbc trace verify FILE...` / `nbc trace stats FILE...` — offline
/// analysis of recorded JSONL event traces.
///
/// `verify` re-checks the engine's invariants from the trace alone —
/// message conservation, decision consistency, WAL-before-send ordering,
/// stable decisions — and reports the Gray–Lamport accounting; it shares
/// `nbc check`'s exit contract (0 = every oracle passed, 1 = a violation,
/// 2 = usage error). `stats` derives decision-latency percentiles and the
/// time-series snapshot curve; it always exits 0 unless the trace is
/// unreadable. Both are pure functions of the file bytes: the same trace
/// renders byte-identically on every run.
pub fn cmd_trace(inv: &Invocation) -> Result<CheckRun, CliError> {
    let (sub, files) = inv.operands.split_first().expect("the table asks for a subcommand");
    let verify_mode = match sub.as_str() {
        "verify" => true,
        "stats" => false,
        other => return fail(format!("trace: unknown subcommand {other:?} (verify | stats)")),
    };
    let json = inv.has("--json");
    let mut out = String::new();
    let mut ok = true;
    for path in files {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
        let events = analyze::parse_jsonl(&text).map_err(|e| CliError(format!("{path}: {e}")))?;
        if files.len() > 1 && !json {
            let _ = writeln!(out, "{path}:");
        }
        if verify_mode {
            let report = analyze::verify(&events);
            ok &= report.ok();
            if json {
                let _ = writeln!(out, "{}", report.to_json());
            } else {
                out.push_str(&report.render());
            }
        } else {
            let stats = analyze::stats(&events);
            if json {
                let _ = writeln!(out, "{}", stats.to_json());
            } else {
                out.push_str(&stats.render());
            }
        }
    }
    Ok(CheckRun { output: out, ok })
}

/// Run one happy-path (all-yes, no-failure) transaction through the
/// instrumented engine and fold the event stream into the Gray–Lamport
/// accounting unit: messages sent, stable writes, and sequential message
/// delays (the latest decision latency under the constant-1 lockstep
/// clock) per committed transaction.
fn measured_cost(protocol: &Protocol) -> Result<(nbc_paxos::CostRow, Metrics), CliError> {
    let analysis = build_analysis(protocol, 0, false, 0)?;
    let cfg = RunConfig::happy(protocol.n_sites());
    let opts = SimOpts { metrics: true, ..SimOpts::default() };
    let observers = Observers::of(&opts);
    let report = run_traced(protocol, &analysis, cfg, observers.tracer());
    if !report.consistent {
        return fail(format!("{}: happy-path run was inconsistent", protocol.name));
    }
    // Delays: unit network latency makes "time until the last site logs
    // its decision" exactly the sequential-message-delay count.
    let delays = observers.events.with(|s| {
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
    let m = observers.counters.with(|m| m.clone());
    let row = nbc_paxos::CostRow {
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
pub fn cmd_paxos(inv: &Invocation) -> Result<String, CliError> {
    let sites: usize = inv.num("--sites").unwrap_or(3);
    let faults: usize = inv.num("--faults").unwrap_or(1);
    let (want_metrics, json) = (inv.has("--metrics"), inv.has("--json"));
    let paxos = nbc_paxos::paxos_commit(sites, faults);
    let (px, px_metrics) = measured_cost(&paxos)?;
    let (c2, _) = measured_cost(&central_2pc(sites))?;
    let (c3, _) = measured_cost(&central_3pc(sites))?;
    // Gray & Lamport count resource managers; our leader doubles as the
    // first RM, so n participants = n RMs in their accounting.
    let gl2 = nbc_paxos::gl_2pc_cost(sites);
    let glp = nbc_paxos::gl_paxos_cost(sites, faults);

    if json {
        let row = |r: &nbc_paxos::CostRow| {
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
pub fn cmd_sweep(
    protocol: &Protocol,
    analysis: &Analysis,
    opts: &SimOpts,
) -> Result<String, CliError> {
    let specs = enumerate_crash_specs(protocol, opts.recover);
    let base = opts.to_config(protocol.n_sites())?;
    let observers = Observers::of(opts);
    let s = if opts.wants_events() {
        sweep_traced(protocol, analysis, &base, &specs, observers.tracer())
    } else {
        sweep(protocol, analysis, &base, &specs)
    };
    let metrics_table = observers.finish(None)?;
    if opts.json {
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

/// Append an instrumented exemplar run to a table command's output when
/// `--trace`/`--metrics` asked for one: the coordinator crashes mid-way
/// through its decision broadcast (one message sent), which drives the
/// full termination protocol — election, alignment, backup decision —
/// through the tracer. With `recover` the crashed site comes back and runs
/// the recovery protocol too.
fn demo_run(
    protocol: &Protocol,
    analysis: &Analysis,
    opts: &SimOpts,
    recover: bool,
    out: &mut String,
) -> Result<(), CliError> {
    if !opts.wants_events() {
        return Ok(());
    }
    let mut cfg = opts.to_config(protocol.n_sites())?;
    if cfg.crashes.is_empty() {
        cfg.crashes.push(CrashSpec {
            site: 0,
            point: CrashPoint::OnTransition {
                ordinal: 2,
                progress: TransitionProgress::AfterMsgs(1),
            },
            recover_at: opts.recover.or(if recover { Some(300) } else { None }),
        });
    }
    let _ = writeln!(
        out,
        "exemplar run: site 0 crashes at ordinal 2 after 1 message{}",
        if recover { ", recovers" } else { "" }
    );
    let (report, metrics) = run_observed(protocol, analysis, cfg, opts)?;
    let _ = writeln!(out, "{report}");
    if let Some(m) = metrics {
        let _ = write!(out, "{m}");
    }
    Ok(())
}

/// `nbc termination PROTO`
pub fn cmd_termination(
    protocol: &Protocol,
    analysis: &Analysis,
    opts: &SimOpts,
) -> Result<String, CliError> {
    let mut out = String::new();
    let _ = writeln!(out, "{}: backup-coordinator decision table", protocol.name);
    for row in termination::decision_table(protocol, analysis) {
        let _ = writeln!(
            out,
            "  {} in {:<4} ({}) -> {}",
            row.site,
            row.state_name,
            row.class.letter(),
            row.backup
        );
    }
    demo_run(protocol, analysis, opts, false, &mut out)?;
    Ok(out)
}

/// `nbc recovery PROTO`
pub fn cmd_recovery(
    protocol: &Protocol,
    analysis: &Analysis,
    opts: &SimOpts,
) -> Result<String, CliError> {
    let mut out = String::new();
    let _ = writeln!(out, "{}: independent recovery classification", protocol.name);
    for row in recovery_analysis::classify(protocol, analysis) {
        let _ = writeln!(out, "  {} in {:<4} -> {}", row.site, row.state_name, row.class);
    }
    demo_run(protocol, analysis, opts, true, &mut out)?;
    Ok(out)
}

/// `nbc pipeline PROTO [flags]` — run the concurrent commit scheduler
/// over a bank workload and report throughput, latency percentiles, and
/// group-commit savings, alongside a serial baseline (the same scheduler
/// at in-flight 1 with group commit off).
pub fn cmd_pipeline(inv: &Invocation) -> Result<String, CliError> {
    use nbc_pipeline::{bank_transfer_txns, Pipeline, PipelineConfig, PipelineTxn};
    use nbc_simnet::SimRng;
    use nbc_txn::BankWorkload;

    let kind = match protocol_name(&inv.operands[0])? {
        Named::Cluster(kind) => kind,
        _ => {
            return fail(format!(
                "pipeline runs the cluster protocols only \
                 (central-2pc | central-3pc | decentralized-2pc | decentralized-3pc | paxos:F), \
                 got {:?}",
                inv.operands[0]
            ))
        }
    };
    let n = inv.n();
    let txns: usize = inv.num("--txns").unwrap_or(64);
    let crash_pct: u32 = inv.num("--crash-pct").unwrap_or(0);
    let in_flight: usize = inv.num("--in-flight").unwrap_or(8);
    let window: u64 = inv.num("--window").unwrap_or(2);
    let reap: u64 = inv.num("--reap").unwrap_or(200);
    let seed: u64 = inv.num("--seed").unwrap_or(42);
    let series_every: u64 = inv.num("--series-every").unwrap_or(0);
    let opts = SimOpts::of(inv);
    let observers = Observers::of(&opts);

    let accounts = (n * 4).max(8);
    let mut w = BankWorkload::new(n, accounts, 1_000, seed);
    let mut rng = SimRng::seed_from_u64(seed);
    let batch = bank_transfer_txns(&mut w, txns, crash_pct, &mut rng);

    let run_with = |max_in_flight: usize, group_window: u64, tracer: Option<Tracer>| {
        let mut p = Pipeline::new(
            PipelineConfig::new(n, kind)
                .with_in_flight(max_in_flight)
                .with_group_window(group_window)
                .with_reap_after(reap)
                .with_series_every(series_every),
        );
        p.run(vec![PipelineTxn::from_ops(&w.setup_ops())]);
        // Attach only after the setup transaction: the trace covers the
        // measured batch, not the workload bootstrap.
        if let Some(t) = tracer {
            p.set_tracer(t);
        }
        let start = p.now();
        let r = p.run(batch.clone());
        let conserved = p.total_balance(&w) == w.expected_total() && p.locked_keys() == 0;
        let ticks = r.finished_at - start;
        (r, ticks, conserved)
    };
    let (serial, serial_ticks, serial_ok) = run_with(1, 0, None);
    let tracer = opts.wants_events().then(|| observers.tracer());
    // With a flight recorder attached, a scheduler panic still yields its
    // black box: catch the unwind, dump the ring, then surface the error.
    let (report, pipe_ticks, pipe_ok) = if observers.flight.is_some() {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_with(in_flight, window, tracer)
        })) {
            Ok(r) => r,
            Err(panic) => {
                observers.dump_flight("scheduler panicked; ")?;
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".to_string());
                return fail(format!("pipeline panicked: {msg}"));
            }
        }
    } else {
        run_with(in_flight, window, tracer)
    };
    let metrics = observers.finish((!pipe_ok).then_some("conservation violated; "))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "pipeline: {} x{n} sites, {txns} txns, crash {crash_pct}%, \
         in-flight {in_flight}, window {window}, seed {seed}",
        kind.name()
    );
    let _ = writeln!(out, "{report}");
    let _ = writeln!(
        out,
        "serial baseline (in-flight 1, window 0): {} ticks, {:.2} txn/ktick, {} syncs",
        serial_ticks,
        serial.txns_per_kilotick(),
        serial.wal_forces
    );
    let speedup = serial_ticks as f64 / pipe_ticks.max(1) as f64;
    let _ = writeln!(
        out,
        "speedup over serial: {speedup:.2}x; conservation: {}",
        if serial_ok && pipe_ok { "ok" } else { "VIOLATED" }
    );
    if let Some(m) = metrics {
        let _ = write!(out, "{m}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{
        parse_crash_arg, parse_mem_budget, parse_rule_arg, parse_span, parse_trace_format,
    };

    /// `nbc CMD ARGS...` through the table, as `run_argv` takes it.
    fn parsed(cmd: &str, args: &[String]) -> Result<Invocation, CliError> {
        let words: Vec<String> =
            std::iter::once(cmd.to_string()).chain(args.iter().cloned()).collect();
        args::parse(&words)
    }

    fn pipeline(args: &[String]) -> Result<String, CliError> {
        cmd_pipeline(&parsed("pipeline", args)?)
    }

    fn trace(args: &[String]) -> Result<CheckRun, CliError> {
        cmd_trace(&parsed("trace", args)?)
    }

    #[test]
    fn mem_budget_parses_suffixes() {
        assert_eq!(parse_mem_budget("4096", "--mem-budget").unwrap(), 4096);
        assert_eq!(parse_mem_budget("64K", "--mem-budget").unwrap(), 64 << 10);
        assert_eq!(parse_mem_budget("64k", "--mem-budget").unwrap(), 64 << 10);
        assert_eq!(parse_mem_budget("16M", "--mem-budget").unwrap(), 16 << 20);
        assert_eq!(parse_mem_budget("1g", "--mem-budget").unwrap(), 1 << 30);
        assert!(parse_mem_budget("", "--mem-budget").is_err());
        assert!(parse_mem_budget("K", "--mem-budget").is_err());
        assert!(parse_mem_budget("12Q", "--mem-budget").is_err());
        assert!(parse_mem_budget("999999999999999999G", "--mem-budget").is_err());
    }

    #[test]
    fn a_retained_build_over_the_state_limit_names_the_streaming_fold() {
        // The mapping, not a run: a retained central 3PC n=12 holds 4.2 M
        // nodes and some 17 M edges before it gives up.
        let over = ProtocolError::GraphTooLarge { limit: 4_194_304 };
        assert_eq!(
            graph_error(over).0,
            "reachable state graph exceeds limit of 4194304 global states \
             (`nbc analyze` folds the facts without keeping the graph)"
        );
        // No other error grows a hint.
        let threads = ProtocolError::TooManyThreads { max: 64, got: 65 };
        assert_eq!(graph_error(threads.clone()).0, threads.to_string());
    }

    #[test]
    fn resolve_catalog_names() {
        assert_eq!(resolve_protocol("3pc", 3).unwrap().phase_count(), 3);
        assert_eq!(resolve_protocol("d2pc", 4).unwrap().n_sites(), 4);
        assert_eq!(resolve_protocol("kpc:4", 3).unwrap().phase_count(), 4);
        assert!(resolve_protocol("nope", 3).is_err());
        assert!(resolve_protocol("kpc:1", 3).is_err());
        assert!(resolve_protocol("/does/not/exist.nbc", 3).is_err());
    }

    fn streamed(p: &Protocol) -> Analysis {
        build_analysis(p, 0, false, 0).unwrap()
    }

    #[test]
    fn analyze_reports_verdicts() {
        let p = resolve_protocol("2pc", 3).unwrap();
        let out = cmd_analyze(&p, &streamed(&p)).unwrap();
        assert!(out.contains("BLOCKING"));
        assert!(out.contains("1 clean site(s) of 3"));
        let p = resolve_protocol("3pc", 3).unwrap();
        let out = cmd_analyze(&p, &streamed(&p)).unwrap();
        assert!(out.contains("NONBLOCKING"));
        assert_eq!(out, cmd_analyze(&p, &Analysis::build(&p).unwrap()).unwrap());
    }

    #[test]
    fn budgeted_streamed_analyze_is_byte_identical() {
        // A 1-byte budget forces a spill after every level; the rendered
        // analysis must not change by a byte.
        let p = resolve_protocol("3pc", 3).unwrap();
        let unlimited = cmd_analyze(&p, &build_analysis(&p, 2, false, 0).unwrap()).unwrap();
        let budgeted = cmd_analyze(&p, &build_analysis(&p, 2, false, 1).unwrap()).unwrap();
        assert_eq!(unlimited, budgeted);
    }

    #[test]
    fn verify_distinguishes_blocking() {
        let p = resolve_protocol("3pc", 3).unwrap();
        let out = cmd_verify(&p, &build_analysis(&p, 0, false, 0).unwrap()).unwrap();
        assert!(out.contains("HOLDS — nonblocking"), "{out}");
        let p = resolve_protocol("2pc", 3).unwrap();
        let out = cmd_verify(&p, &build_analysis(&p, 0, false, 0).unwrap()).unwrap();
        assert!(out.contains("stuck cases — blocking"), "{out}");
        assert!(out.contains("  . state (w1, q, q), survivors [0]: no survivor"), "{out}");
        // Survivor subsets are 64-bit masks: 62 participants and three
        // acceptors are refused before anything is walked.
        let refused = run_argv(&["verify", "paxos:1", "-n", "62"].map(String::from));
        assert_eq!(refused.code, 2, "{}", refused.stderr);
        assert!(refused.stderr.contains("at most 64 sites"), "{}", refused.stderr);
    }

    #[test]
    fn simulate_happy_path() {
        let p = resolve_protocol("3pc", 3).unwrap();
        let out = cmd_simulate(&p, &streamed(&p), &SimOpts::default()).unwrap();
        assert!(out.contains("committed"));
        assert!(out.contains("preserved"));
    }

    #[test]
    fn simulate_with_crash_and_recovery() {
        let p = resolve_protocol("3pc", 3).unwrap();
        let opts =
            SimOpts { crash: Some((0, 3, Some(1))), recover: Some(300), ..SimOpts::default() };
        let out = cmd_simulate(&p, &streamed(&p), &opts).unwrap();
        assert!(out.contains("preserved"), "{out}");
    }

    #[test]
    fn simulate_trace_shows_the_story() {
        let p = resolve_protocol("3pc", 3).unwrap();
        // Partial prepare broadcast: the backup must run phase 1
        // (alignment) before deciding, so the whole termination protocol
        // shows up in the trace.
        let opts = SimOpts { crash: Some((0, 2, Some(1))), trace: true, ..SimOpts::default() };
        let out = cmd_simulate(&p, &streamed(&p), &opts).unwrap();
        assert!(out.contains("CRASH"), "{out}");
        assert!(out.contains("align-to"), "{out}");
        assert!(out.contains("align-ack"), "{out}");
        assert!(out.contains("DECIDED COMMIT"), "{out}");
        assert!(out.contains("q1 -> w1"), "{out}");
    }

    #[test]
    fn sweep_verdicts() {
        let p = resolve_protocol("3pc", 3).unwrap();
        assert!(cmd_sweep(&p, &streamed(&p), &SimOpts::default()).unwrap().contains("nonblocking"));
        let p = resolve_protocol("2pc", 3).unwrap();
        let a = streamed(&p);
        let opts = SimOpts { rule: TerminationRule::Cooperative, ..SimOpts::default() };
        assert!(cmd_sweep(&p, &a, &opts).unwrap().contains("blocking window"));
        let opts =
            SimOpts { rule: TerminationRule::NaiveCs, no_voters: vec![0], ..SimOpts::default() };
        assert!(cmd_sweep(&p, &a, &opts).unwrap().contains("ATOMICITY VIOLATED"));
    }

    #[test]
    fn synthesize_2pc() {
        let p = resolve_protocol("2pc", 3).unwrap();
        let out = cmd_synthesize(&p, &streamed(&p)).unwrap();
        assert!(out.contains("after:  0 violation(s), 3 phase(s)"), "{out}");
    }

    #[test]
    fn tables_render() {
        let p = resolve_protocol("3pc", 3).unwrap();
        let a = streamed(&p);
        let o = SimOpts::default();
        assert!(cmd_termination(&p, &a, &o).unwrap().contains("commit"));
        assert!(cmd_recovery(&p, &a, &o).unwrap().contains("must ask"));
        assert!(cmd_graph(&p, false, false).unwrap().contains("global states"));
        assert!(cmd_graph(&p, true, false).unwrap().contains("digraph"));
    }

    #[test]
    fn tables_identical_under_streaming() {
        // Termination and recovery tables are pure concurrency-set
        // queries, so the streamed analysis must produce the retained
        // one's bytes at any thread count.
        let p = resolve_protocol("3pc", 3).unwrap();
        let a = Analysis::build(&p).unwrap();
        let o = SimOpts::default();
        for threads in [1, 2, 4] {
            let s = build_analysis(&p, threads, false, 0).unwrap();
            assert_eq!(cmd_termination(&p, &a, &o).unwrap(), cmd_termination(&p, &s, &o).unwrap());
            assert_eq!(cmd_recovery(&p, &a, &o).unwrap(), cmd_recovery(&p, &s, &o).unwrap());
        }
    }

    #[test]
    fn pipeline_command_reports_speedup() {
        let args: Vec<String> =
            ["3pc", "--txns", "32", "--in-flight", "8", "--window", "3", "--seed", "7"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let out = pipeline(&args).unwrap();
        assert!(out.contains("speedup over serial"), "{out}");
        assert!(out.contains("conservation: ok"), "{out}");
        assert!(out.contains("saved by group commit"), "{out}");
    }

    #[test]
    fn pipeline_command_rejects_junk() {
        let bad = |v: &[&str]| {
            let args: Vec<String> = v.iter().map(|s| s.to_string()).collect();
            pipeline(&args)
        };
        assert!(bad(&[]).is_err());
        assert!(bad(&["1pc"]).is_err(), "non-cluster protocol");
        assert!(bad(&["3pc", "--crash-pct", "101"]).is_err());
        assert!(bad(&["3pc", "--bogus"]).is_err());
    }

    #[test]
    fn simulate_json_and_metrics() {
        let p = resolve_protocol("3pc", 3).unwrap();
        let a = streamed(&p);
        let out = cmd_simulate(&p, &a, &SimOpts { json: true, ..SimOpts::default() }).unwrap();
        nbc_obs::json::validate(out.trim()).unwrap();
        assert!(out.contains("\"decision\":true"), "{out}");

        let out = cmd_simulate(&p, &a, &SimOpts { metrics: true, ..SimOpts::default() }).unwrap();
        assert!(out.contains("metrics ("), "{out}");
        assert!(out.contains("messages"), "{out}");
        assert!(out.contains("preserved"), "{out}");
    }

    #[test]
    fn simulate_writes_trace_files() {
        let p = resolve_protocol("3pc", 3).unwrap();
        let a = streamed(&p);
        let dir = std::env::temp_dir();
        let jsonl = dir.join("nbc-cli-test-trace.jsonl");
        let chrome = dir.join("nbc-cli-test-trace.chrome.json");

        let opts = SimOpts {
            trace_path: Some(jsonl.to_string_lossy().into_owned()),
            ..SimOpts::default()
        };
        cmd_simulate(&p, &a, &opts).unwrap();
        let data = std::fs::read_to_string(&jsonl).unwrap();
        assert!(!data.is_empty());
        for line in data.lines() {
            nbc_obs::json::validate(line).unwrap();
        }

        let opts = SimOpts {
            trace_path: Some(chrome.to_string_lossy().into_owned()),
            trace_chrome: true,
            ..SimOpts::default()
        };
        cmd_simulate(&p, &a, &opts).unwrap();
        let data = std::fs::read_to_string(&chrome).unwrap();
        nbc_obs::json::validate(&data).unwrap();
        assert!(data.starts_with("{\"traceEvents\":["), "{data}");

        let _ = std::fs::remove_file(&jsonl);
        let _ = std::fs::remove_file(&chrome);
    }

    #[test]
    fn sweep_json_is_valid() {
        let p = resolve_protocol("3pc", 3).unwrap();
        let a = streamed(&p);
        let out = cmd_sweep(&p, &a, &SimOpts { json: true, ..SimOpts::default() }).unwrap();
        nbc_obs::json::validate(out.trim()).unwrap();
        assert!(out.contains("\"nonblocking\":true"), "{out}");
    }

    #[test]
    fn tables_append_exemplar_run_when_observed() {
        let p = resolve_protocol("3pc", 3).unwrap();
        let a = streamed(&p);
        let opts = SimOpts { metrics: true, ..SimOpts::default() };
        let out = cmd_termination(&p, &a, &opts).unwrap();
        assert!(out.contains("exemplar run"), "{out}");
        assert!(out.contains("metrics ("), "{out}");
        let out = cmd_recovery(&p, &a, &opts).unwrap();
        assert!(out.contains("recovers"), "{out}");
        assert!(out.contains("recoveries=1"), "{out}");
    }

    #[test]
    fn pipeline_trace_and_metrics() {
        let path = std::env::temp_dir().join("nbc-cli-test-pipeline.jsonl");
        let args: Vec<String> =
            ["3pc", "--txns", "16", "--seed", "7", "--metrics", "--trace", path.to_str().unwrap()]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let out = pipeline(&args).unwrap();
        assert!(out.contains("scheduler"), "{out}");
        assert!(out.contains("admits="), "{out}");
        let data = std::fs::read_to_string(&path).unwrap();
        for line in data.lines() {
            nbc_obs::json::validate(line).unwrap();
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_verify_passes_on_recorded_trace() {
        let p = resolve_protocol("3pc", 3).unwrap();
        let a = streamed(&p);
        let path = std::env::temp_dir().join("nbc-cli-test-trace-verify.jsonl");
        let opts = SimOpts {
            crash: Some((0, 2, Some(1))),
            trace_path: Some(path.to_string_lossy().into_owned()),
            ..SimOpts::default()
        };
        cmd_simulate(&p, &a, &opts).unwrap();
        let args = vec!["verify".to_string(), path.to_string_lossy().into_owned()];
        let run = trace(&args).unwrap();
        assert!(run.ok, "{}", run.output);
        assert!(run.output.contains("result: PASS"), "{}", run.output);
        assert!(run.output.contains("gray-lamport:"), "{}", run.output);
        // Byte-determinism: a second pass over the same file is identical.
        assert_eq!(run.output, trace(&args).unwrap().output);
        // --json emits one valid object with the same verdict.
        let jargs =
            vec!["verify".to_string(), path.to_string_lossy().into_owned(), "--json".into()];
        let jrun = trace(&jargs).unwrap();
        nbc_obs::json::validate(jrun.output.trim()).unwrap();
        assert!(jrun.output.contains("\"ok\":true"), "{}", jrun.output);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_verify_detects_corruption() {
        let p = resolve_protocol("3pc", 3).unwrap();
        let a = streamed(&p);
        let path = std::env::temp_dir().join("nbc-cli-test-trace-corrupt.jsonl");
        let opts =
            SimOpts { trace_path: Some(path.to_string_lossy().into_owned()), ..SimOpts::default() };
        cmd_simulate(&p, &a, &opts).unwrap();
        // Drop one delivery: conservation must notice the orphaned send.
        let text = std::fs::read_to_string(&path).unwrap();
        let corrupted: String = {
            let mut removed = false;
            text.lines()
                .filter(|l| {
                    if !removed && l.contains("\"kind\":\"msg-deliver\"") {
                        removed = true;
                        false
                    } else {
                        true
                    }
                })
                .map(|l| format!("{l}\n"))
                .collect()
        };
        assert_ne!(text, corrupted, "trace had no delivery to remove");
        std::fs::write(&path, corrupted).unwrap();
        let args = vec!["verify".to_string(), path.to_string_lossy().into_owned()];
        let run = trace(&args).unwrap();
        assert!(!run.ok, "{}", run.output);
        assert!(run.output.contains("conservation"), "{}", run.output);
        assert!(run.output.contains("result: FAIL"), "{}", run.output);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_stats_renders_percentiles() {
        let path = std::env::temp_dir().join("nbc-cli-test-trace-stats.jsonl");
        let args: Vec<String> = [
            "3pc",
            "--txns",
            "24",
            "--seed",
            "9",
            "--series-every",
            "64",
            "--trace",
            path.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        pipeline(&args).unwrap();
        let targs = vec!["stats".to_string(), path.to_string_lossy().into_owned()];
        let run = trace(&targs).unwrap();
        assert!(run.ok);
        assert!(run.output.contains("decision latency: n="), "{}", run.output);
        assert!(run.output.contains("p95="), "{}", run.output);
        assert!(run.output.contains("time series ("), "{}", run.output);
        let jargs = vec!["stats".to_string(), path.to_string_lossy().into_owned(), "--json".into()];
        let jrun = trace(&jargs).unwrap();
        nbc_obs::json::validate(jrun.output.trim()).unwrap();
        assert!(jrun.output.contains("\"snapshots\":["), "{}", jrun.output);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_usage_errors() {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(trace(&s(&[])).is_err(), "missing subcommand");
        assert!(trace(&s(&["frob", "x.jsonl"])).is_err(), "unknown subcommand");
        assert!(trace(&s(&["verify"])).is_err(), "missing file");
        assert!(trace(&s(&["verify", "--bogus", "x.jsonl"])).is_err(), "unknown flag");
        assert!(trace(&s(&["verify", "/does/not/exist.jsonl"])).is_err(), "missing file");
    }

    #[test]
    fn simulate_flight_dump_only_on_bad_runs() {
        let dir = std::env::temp_dir();
        // Clean run: no dump.
        let p = resolve_protocol("3pc", 3).unwrap();
        let a = streamed(&p);
        let clean = dir.join("nbc-cli-test-flight-clean.jsonl");
        let _ = std::fs::remove_file(&clean);
        let opts = SimOpts {
            flight_path: Some(clean.to_string_lossy().into_owned()),
            ..SimOpts::default()
        };
        cmd_simulate(&p, &a, &opts).unwrap();
        assert!(!clean.exists(), "clean run must not write a flight dump");

        // Blocked run (2PC coordinator crash, cooperative rule): dump.
        let p = resolve_protocol("2pc", 3).unwrap();
        let a = streamed(&p);
        let bad = dir.join("nbc-cli-test-flight-bad.jsonl");
        let _ = std::fs::remove_file(&bad);
        let opts = SimOpts {
            crash: Some((0, 2, Some(0))),
            rule: TerminationRule::Cooperative,
            flight_path: Some(bad.to_string_lossy().into_owned()),
            flight_cap: 32,
            ..SimOpts::default()
        };
        let out = cmd_simulate(&p, &a, &opts).unwrap();
        assert!(out.contains("all operational decided: false"), "{out}");
        let dump = std::fs::read_to_string(&bad).expect("flight dump written");
        assert!(dump.lines().next().unwrap().contains("flight recorder"), "{dump}");
        // The tail minus its header note is a verifiable trace fragment.
        let events = nbc_obs::analyze::parse_jsonl(&dump).unwrap();
        assert!(!events.is_empty());
        let _ = std::fs::remove_file(&bad);
    }

    #[test]
    fn simulate_json_with_metrics_nests_both() {
        let p = resolve_protocol("3pc", 3).unwrap();
        let a = streamed(&p);
        let opts = SimOpts { json: true, metrics: true, ..SimOpts::default() };
        let out = cmd_simulate(&p, &a, &opts).unwrap();
        let v = nbc_obs::json::parse(out.trim()).unwrap();
        assert!(v.get("report").is_some(), "{out}");
        assert!(v.get("metrics").is_some(), "{out}");
        assert_eq!(
            v.get("report").and_then(|r| r.get("decision")).and_then(|d| d.as_bool()),
            Some(true),
            "{out}"
        );
    }

    #[test]
    fn arg_parsers() {
        assert_eq!(parse_crash_arg("0:3:1").unwrap(), (0, 3, Some(1)));
        assert_eq!(parse_crash_arg("2:1:log").unwrap(), (2, 1, None));
        assert!(parse_crash_arg("1:2").is_err());
        assert_eq!(parse_span("--latency", "1..20").unwrap(), (1, 20));
        assert!(parse_span("--latency", "9..2").is_err());
        assert!(parse_rule_arg("cooperative").is_ok());
        assert!(parse_rule_arg("yolo").is_err());
        assert!(!parse_trace_format("jsonl").unwrap());
        assert!(parse_trace_format("chrome").unwrap());
        assert!(parse_trace_format("svg").is_err());
    }
}
