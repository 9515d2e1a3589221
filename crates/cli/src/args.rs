//! The `nbc` front end: one table of commands and one of flags, and the
//! only code that walks `argv`.
//!
//! A [`Flag`] row says how a flag is spelled, what value it takes and in
//! what range, which commands read it, which other flag it qualifies, and
//! what it does. [`parse`] checks a command line against the rows and
//! [`usage`] prints them, so a flag cannot be parsed and then dropped,
//! accepted without a bound, or documented for a command that ignores it.

use std::fmt::Write as _;

use nbc_engine::TerminationRule;

use crate::{fail, CliError};

/// The most sites `-n` builds: the largest count any test, experiment or
/// ROADMAP target names (`paxos:F` adds its `2F + 1` acceptors on top).
const MAX_SITES: u64 = 64;
/// The most acceptor faults `paxos:F` and `paxos --faults` take.
pub(crate) const MAX_PAXOS_F: u64 = 8;
/// The longest simulated time a flag may name: what the `u64` clock
/// carries without wrapping once delays are added to it.
const MAX_TICKS: u64 = nbc_pipeline::MAX_REAP_AFTER;
/// The largest `pipeline` batch, and the most rounds in flight at once.
const MAX_TXNS: u64 = 1 << 24;
const MAX_SITE_INDEX: u64 = MAX_SITES + 2 * MAX_PAXOS_F;
const U32: u64 = u32::MAX as u64;

/// A subcommand; its discriminant is its bit in a row's command set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
#[allow(missing_docs)]
pub enum Cmd {
    List = 1,
    Analyze = 1 << 1,
    Verify = 1 << 2,
    Graph = 1 << 3,
    Synthesize = 1 << 4,
    Simulate = 1 << 5,
    Check = 1 << 6,
    Sweep = 1 << 7,
    Termination = 1 << 8,
    Recovery = 1 << 9,
    Pipeline = 1 << 10,
    Paxos = 1 << 11,
    Trace = 1 << 12,
    Help = 1 << 13,
}
use Cmd::*;

/// One row of the command table.
pub struct Command {
    /// The subcommand.
    pub cmd: Cmd,
    /// Its spellings on the command line, the synopsis one first.
    pub names: &'static [&'static str],
    /// Its positional operands as the synopsis prints them; one ending
    /// in `...` may repeat.
    pub operands: &'static str,
    /// The paragraph `nbc help` prints for it.
    pub help: &'static str,
}

const fn command(cmd: Cmd, names: &'static [&'static str], operands: &'static str) -> Command {
    Command { cmd, names, operands, help: "" }
}

impl Command {
    const fn help(self, help: &'static str) -> Self {
        Self { help, ..self }
    }
}

/// Every command, in synopsis order.
pub const COMMANDS: &[Command] = &[
    command(List, &["list"], ""),
    command(Analyze, &["analyze"], "PROTO"),
    command(Verify, &["verify"], "PROTO"),
    command(Graph, &["graph"], "PROTO"),
    command(Synthesize, &["synthesize"], "PROTO"),
    command(Simulate, &["simulate"], "PROTO"),
    command(Check, &["check"], "PROTO").help(
        "exhaustively explore every schedule (delivery order, crashes, recoveries, drops, false \
         suspicions via --suspicions) within the budgets and cross-validate the engine against \
         the paper's state-graph analysis with four oracles; shrunk counterexamples replay with \
         `nbc simulate PROTO --schedule FILE`. check exits 0 when every oracle passes, 1 on an \
         oracle violation, and 2 on a usage or protocol error.",
    ),
    command(Sweep, &["sweep"], "PROTO"),
    command(Termination, &["termination"], "PROTO"),
    command(Recovery, &["recovery"], "PROTO"),
    command(Pipeline, &["pipeline"], "PROTO"),
    command(Paxos, &["paxos"], "").help(
        "run one happy-path Paxos Commit transaction (N participants, 2F+1 acceptors) and print \
         the Gray–Lamport cost table — messages, stable writes, and message delays per \
         transaction — next to central 2PC/3PC and the paper's analytic predictions.",
    ),
    command(Trace, &["trace"], "verify|stats FILE...").help(
        "offline analysis of recorded JSONL traces. `verify` re-checks message conservation, \
         decision consistency, WAL-before-send ordering, and stable decisions from the trace \
         alone, and prints the Gray-Lamport message/stable-write/delay accounting; it exits \
         0/1/2 like check. `stats` prints decision-latency percentiles (p50/p95/p99) and the \
         time-series snapshot table recorded by `pipeline --series-every`.",
    ),
    command(Help, &["help", "--help", "-h"], ""),
];

/// How a flag's value is read, and the range it must fall in.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// An integer in `lo..=hi`, counted in the unit named.
    Num(u64, u64, &'static str),
    /// A site count, `2..=MAX_SITES`.
    Sites,
    /// A byte count with an optional `K`/`M`/`G` suffix.
    Bytes,
    /// A path, taken as written.
    Path,
    /// `LO..HI` simulated-time bounds, `LO <= HI <= MAX_TICKS`.
    Span,
    /// `SITE:ORDINAL:MSGS`.
    Crash,
    /// A termination-rule name.
    Rule,
    /// `jsonl` or `chrome`.
    Format,
    /// One `y`/`n` per site.
    Votes,
}

/// A parsed flag value.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum Value {
    On,
    Num(u64),
    Text(String),
    Span(u64, u64),
    Crash(usize, u32, Option<u32>),
    Rule(TerminationRule),
    Chrome(bool),
    Votes(Vec<bool>),
}

/// One row of the flag table.
pub struct Flag {
    /// Its spellings, the synopsis one first.
    pub names: &'static [&'static str],
    /// The metavariable the synopsis prints and how the value is read;
    /// `None` for a switch.
    pub value: Option<(&'static str, Kind)>,
    /// May it be given more than once?
    pub repeat: bool,
    /// The commands that read it (a union of [`Cmd`] bits).
    pub cmds: u16,
    /// The flag it qualifies, and the commands on which it does nothing
    /// without that flag.
    pub requires: Option<(&'static str, u16)>,
    /// The flags that do nothing beside it, because it brings its own
    /// values for what they set.
    pub overrides: &'static [&'static str],
    /// What `nbc help` says about it.
    pub help: &'static str,
}

const fn switch(names: &'static [&'static str], cmds: u16) -> Flag {
    Flag { names, value: None, repeat: false, cmds, requires: None, overrides: &[], help: "" }
}

const fn option(names: &'static [&'static str], meta: &'static str, kind: Kind, cmds: u16) -> Flag {
    Flag { value: Some((meta, kind)), ..switch(names, cmds) }
}

impl Flag {
    const fn help(self, help: &'static str) -> Self {
        Self { help, ..self }
    }

    const fn requires(self, flag: &'static str, on: u16) -> Self {
        Self { requires: Some((flag, on)), ..self }
    }

    const fn overrides(self, overrides: &'static [&'static str]) -> Self {
        Self { overrides, ..self }
    }

    const fn repeatable(self) -> Self {
        Self { repeat: true, ..self }
    }

    /// Does `cmd` read this flag?
    pub fn read_by(&self, cmd: Cmd) -> bool {
        self.cmds & cmd as u16 != 0
    }

    /// The commands that read it, by synopsis name.
    pub fn readers(&self) -> impl Iterator<Item = &'static str> + '_ {
        COMMANDS.iter().filter(|c| self.read_by(c.cmd)).map(|c| c.names[0])
    }
}

/// Commands that build the reachable graph of a PROTO.
const REACH: u16 = Graph as u16 | Verify as u16 | FOLD;
/// Commands that can build it as a streaming fold instead.
const FOLD: u16 = Analyze as u16 | Synthesize as u16 | RUNS;
/// Commands that run the engine on a [`crate::SimOpts`] configuration.
const RUNS: u16 = Simulate as u16 | Sweep as u16 | DEMO;
/// Commands that run it once, under a crash the command line may name.
const DEMO: u16 = Simulate as u16 | Termination as u16 | Recovery as u16;
const CHECK: u16 = Check as u16;
const PIPELINE: u16 = Pipeline as u16;

/// Every flag, in synopsis order. A name appears once per meaning:
/// `--trace` is a path where a run is recorded and a switch on `check`,
/// `--faults` a crash budget on `check` and the acceptor faults of `paxos`.
pub const FLAGS: &[Flag] = &[
    option(&["-n"], "N", Kind::Sites, REACH | CHECK | PIPELINE).help(
        "number of sites (default 3, at most 64); under paxos:F the participants, with the 2F+1 \
         acceptor sites added on top.",
    ),
    option(&["--sites", "-n"], "N", Kind::Sites, Paxos as u16)
        .help("participants of the Paxos Commit instance (default 3)."),
    option(&["--faults", "-f"], "F", Kind::Num(0, MAX_PAXOS_F, "acceptor faults"), Paxos as u16)
        .help("acceptor crashes the instance tolerates, on 2F+1 acceptors (default 1)."),
    switch(&["--dot"], Graph as u16).help("print the reachable graph as Graphviz DOT."),
    option(
        &["--threads"],
        "T",
        Kind::Num(0, nbc_core::MAX_THREADS as u64, "worker threads"),
        REACH | CHECK,
    )
    .help(
        "worker threads for the reachability analysis, or for check's exploration (0 = auto, at \
         most 64; results are identical at any thread count).",
    ),
    switch(&["--stream"], FOLD).help(
        "fold the analysis level by level without retaining the state graph — lower memory, but \
         graph consumers (`verify`, `graph`) need the retaining default.",
    ),
    option(&["--mem-budget"], "B", Kind::Bytes, FOLD | CHECK).requires("--stream", FOLD).help(
        "cap the in-RAM dedup store at B bytes (64K, 16M, 1G, or plain bytes), spilling sorted \
         runs to temp files past it. Results are byte-identical with or without a budget; spill \
         stats print on stderr. Outside check it caps the --stream fold (the retained graph \
         holds every state and has nothing to spill).",
    ),
    switch(&["--progress"], REACH | CHECK).help(
        "per-level BFS progress (frontier, new states, dedup hits, states/sec) on stderr while \
         the analysis builds; on check, exploration counters per reporting interval.",
    ),
    option(&["--crash"], "SITE:ORDINAL:MSGS", Kind::Crash, DEMO).help(
        "crash SITE on its ORDINAL-th transition; MSGS is a number (messages sent before dying) \
         or `log` (crash before the write-ahead record).",
    ),
    option(&["--recover"], "T", Kind::Num(0, MAX_TICKS, "ticks"), RUNS)
        .requires("--crash", Simulate as u16)
        .help("the crashed site comes back at time T (sweep: in every crash run)."),
    option(&["--no-voter"], "K", Kind::Num(0, MAX_SITE_INDEX, "(the highest site index)"), RUNS)
        .repeatable()
        .help("site K votes no."),
    option(&["--rule"], "skeen|cooperative|naive|quorum", Kind::Rule, RUNS | CHECK)
        .help("the termination rule the engine runs under (default skeen)."),
    option(&["--latency"], "LO..HI", Kind::Span, RUNS)
        .help("message latency uniform in LO..HI, seeded by --seed (default: constant 1)."),
    option(&["--seed"], "S", Kind::Num(0, u64::MAX, ""), RUNS | CHECK | PIPELINE).help(
        "seed of the latency model, the detector and the pipeline workload; on check it \
         perturbs traversal order only.",
    ),
    switch(&["--story"], Simulate as u16).help("print the run's human-readable execution trace."),
    option(&["--detector-timeout"], "T", Kind::Num(1, MAX_TICKS, "ticks"), RUNS).help(
        "replace the paper's perfect failure detector with timeout-based suspicion — a site \
         suspects a peer after T units of silence, with heartbeat latency drawn from \
         --detector-jitter LO..HI (default 1..12, seeded by --seed). A timeout below the jitter \
         ceiling can falsely suspect live sites; a timeout at or above it detects only genuine \
         crashes and reproduces the perfect-detector run byte for byte.",
    ),
    option(&["--detector-jitter"], "LO..HI", Kind::Span, RUNS)
        .requires("--detector-timeout", RUNS)
        .help("heartbeat-latency bounds of the timeout detector."),
    option(&["--schedule"], "FILE", Kind::Path, Simulate as u16)
        .overrides(&[
            "--crash",
            "--recover",
            "--no-voter",
            "--rule",
            "--latency",
            "--detector-timeout",
            "--detector-jitter",
            "--seed",
            "--trace",
            "--trace-format",
            "--metrics",
            "--flight",
            "--flight-cap",
        ])
        .help(
            "strictly replay a recorded `nbc check` schedule instead of the timed run; the file \
             carries its own votes, rule and faults, so beside it only --story and --json say \
             anything.",
        ),
    option(&["--depth"], "D", Kind::Num(0, U32, "steps"), CHECK)
        .help("most scheduler actions per execution (default 64)."),
    option(&["--faults"], "F", Kind::Num(0, U32, "crashes"), CHECK)
        .help("crash budget per execution (default 1)."),
    option(&["--recoveries"], "R", Kind::Num(0, U32, "recoveries"), CHECK)
        .help("recovery budget per execution (default 0)."),
    option(&["--drops"], "K", Kind::Num(0, U32, "drops"), CHECK)
        .help("lost-message budget per execution (default 0)."),
    option(&["--suspicions"], "S", Kind::Num(0, U32, "suspicions"), CHECK)
        .help("false-suspicion budget per execution (default 0)."),
    option(&["--votes"], "yyn", Kind::Votes, CHECK)
        .help("check this one vote plan (y or n per site) instead of all 2^n."),
    option(&["--max-states"], "M", Kind::Num(0, usize::MAX as u64, "states"), CHECK)
        .help("stop a vote plan, and report the truncation, past M distinct states."),
    option(&["--counterexample"], "FILE", Kind::Path, CHECK).help(
        "write the shrunk failing schedule (or the blocking witness) to FILE, replay it under a \
         flight recorder and write its event tail to FILE.flight.jsonl.",
    ),
    switch(&["--trace"], CHECK).help("list the steps of each witness and counterexample."),
    option(&["--txns"], "T", Kind::Num(0, MAX_TXNS, "transactions"), PIPELINE)
        .help("bank transfers in the batch (default 64)."),
    option(&["--crash-pct"], "P", Kind::Num(0, 100, "percent"), PIPELINE)
        .help("share of rounds whose coordinator crashes (default 0)."),
    option(&["--in-flight"], "K", Kind::Num(1, MAX_TXNS, "rounds in flight"), PIPELINE)
        .help("commit rounds admitted at once (default 8)."),
    option(&["--window"], "W", Kind::Num(0, MAX_TICKS, "ticks"), PIPELINE)
        .help("group-commit window (default 2)."),
    option(&["--reap"], "T", Kind::Num(0, MAX_TICKS, "ticks"), PIPELINE)
        .help("a blocked round is reaped T ticks after it stalls (default 200)."),
    option(&["--trace"], "PATH", Kind::Path, RUNS | PIPELINE)
        .help("write the structured event trace to PATH."),
    option(&["--trace-format"], "jsonl|chrome", Kind::Format, RUNS | PIPELINE)
        .requires("--trace", RUNS | PIPELINE)
        .help(
            "JSONL (one event object per line, the default) or Chrome trace-event JSON for \
             chrome://tracing / Perfetto.",
        ),
    switch(&["--metrics"], RUNS | PIPELINE | Paxos as u16)
        .help("print message/WAL/latency counters after the run."),
    option(&["--series-every"], "T", Kind::Num(0, MAX_TICKS, "ticks"), PIPELINE).help(
        "emit a metrics snapshot event every T ticks (goodput, in-flight, blocked, WAL bytes) \
         into the trace for `nbc trace stats`.",
    ),
    option(&["--flight"], "PATH", Kind::Path, DEMO | PIPELINE).help(
        "attach a bounded flight recorder and dump its tail to PATH only when the run ends \
         badly — atomicity violated, a site left undecided, or (pipeline) a panic or \
         conservation violation.",
    ),
    option(&["--flight-cap"], "N", Kind::Num(1, 1 << 20, "events"), DEMO | PIPELINE)
        .requires("--flight", DEMO | PIPELINE)
        .help("events the flight recorder keeps (default 256)."),
    switch(&["--json"], Simulate as u16 | Sweep as u16 | CHECK | Paxos as u16 | Trace as u16).help(
        "print the report as JSON on stdout (simulate --json --metrics nests both under \
         {\"report\":..,\"metrics\":..}).",
    ),
];

/// A command line checked against the tables: the command, its operands,
/// and every flag it was given with its parsed value.
#[derive(Debug)]
pub struct Invocation {
    /// The command.
    pub cmd: Cmd,
    /// Its positional operands, in order.
    pub operands: Vec<String>,
    values: Vec<(&'static str, Value)>,
}

impl Invocation {
    /// The value `flag` (a row's first name) was given, if it was.
    pub fn get(&self, flag: &str) -> Option<&Value> {
        debug_assert!(FLAGS.iter().any(|f| f.names[0] == flag), "{flag} is not a row");
        self.values.iter().find(|(name, _)| *name == flag).map(|(_, v)| v)
    }

    /// Was `flag` given?
    pub fn has(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }

    /// The number `flag` was given, as the field that takes it.
    pub fn num<T: TryFrom<u64>>(&self, flag: &str) -> Option<T> {
        self.nums(flag).next()
    }

    /// Every number a repeatable `flag` was given.
    pub fn nums<'a, T: TryFrom<u64>>(&'a self, flag: &'a str) -> impl Iterator<Item = T> + 'a {
        self.values.iter().filter_map(move |(name, v)| match v {
            Value::Num(v) if *name == flag => T::try_from(*v).ok(),
            _ => None,
        })
    }

    /// The path `flag` was given.
    pub fn text(&self, flag: &str) -> Option<String> {
        match self.get(flag)? {
            Value::Text(s) => Some(s.clone()),
            _ => None,
        }
    }

    /// The `LO..HI` bounds `flag` was given.
    pub fn span(&self, flag: &str) -> Option<(u64, u64)> {
        match self.get(flag)? {
            Value::Span(lo, hi) => Some((*lo, *hi)),
            _ => None,
        }
    }

    /// `--crash`, as `(site, ordinal, messages sent or None for "before the log")`.
    pub fn crash(&self) -> Option<(usize, u32, Option<u32>)> {
        match self.get("--crash")? {
            Value::Crash(site, ordinal, msgs) => Some((*site, *ordinal, *msgs)),
            _ => None,
        }
    }

    /// `--rule`, or the paper's rule.
    pub fn rule(&self) -> TerminationRule {
        match self.get("--rule") {
            Some(Value::Rule(rule)) => *rule,
            _ => TerminationRule::Skeen,
        }
    }

    /// `--votes`.
    pub fn votes(&self) -> Option<Vec<bool>> {
        match self.get("--votes")? {
            Value::Votes(plan) => Some(plan.clone()),
            _ => None,
        }
    }

    /// The site count: `-n`, or 3.
    pub fn n(&self) -> usize {
        self.num("-n").unwrap_or(3)
    }
}

fn bad(flag: &str, raw: &str, want: impl std::fmt::Display) -> CliError {
    CliError(format!("bad {flag} value {raw:?} (want {want})"))
}

/// The refusal of a site count below 2, wherever it is caught.
pub(crate) fn too_few_sites(flag: &str, n: u64) -> CliError {
    CliError(format!("{flag} {n}: a commit protocol needs at least 2 sites ({flag} >= 2)"))
}

impl Kind {
    fn parse(self, flag: &str, raw: &str) -> Result<Value, CliError> {
        let (lo, hi, unit) = match self {
            Kind::Num(lo, hi, unit) => (lo, hi, unit),
            Kind::Sites => (2, MAX_SITES, "sites"),
            Kind::Bytes => return parse_mem_budget(raw, flag).map(|b| Value::Num(b as u64)),
            Kind::Path => return Ok(Value::Text(raw.to_string())),
            Kind::Span => return parse_span(flag, raw).map(|(lo, hi)| Value::Span(lo, hi)),
            Kind::Crash => return parse_crash_arg(raw).map(|(s, o, m)| Value::Crash(s, o, m)),
            Kind::Rule => return parse_rule_arg(raw).map(Value::Rule),
            Kind::Format => return parse_trace_format(raw).map(Value::Chrome),
            Kind::Votes => return parse_votes_arg(raw).map(Value::Votes),
        };
        let v: u64 =
            raw.parse().map_err(|_| bad(flag, raw, format_args!("an integer in {lo}..={hi}")))?;
        if v > hi {
            fail(format!("{flag} {v} is over the limit of {hi} {unit}"))
        } else if v < lo && matches!(self, Kind::Sites) {
            Err(too_few_sites(flag, v))
        } else if v < lo {
            fail(format!("{flag} {v} is under the minimum of {lo} {unit}"))
        } else {
            Ok(Value::Num(v))
        }
    }
}

/// Parse a `--mem-budget` byte count: plain digits with an optional
/// case-insensitive `K`/`M`/`G` suffix (KiB/MiB/GiB multipliers).
pub fn parse_mem_budget(s: &str, flag: &str) -> Result<usize, CliError> {
    let (digits, mult) = match s.as_bytes().last() {
        Some(b'k') | Some(b'K') => (&s[..s.len() - 1], 1usize << 10),
        Some(b'm') | Some(b'M') => (&s[..s.len() - 1], 1usize << 20),
        Some(b'g') | Some(b'G') => (&s[..s.len() - 1], 1usize << 30),
        _ => (s, 1usize),
    };
    let value: usize = digits.parse().map_err(|_| bad(flag, s, "BYTES, 64K, 16M, 1G"))?;
    value
        .checked_mul(mult)
        .ok_or_else(|| CliError(format!("{flag} value {s:?} overflows a byte count")))
}

/// Parse `site:ordinal:msgs` (msgs may be `log`).
pub fn parse_crash_arg(arg: &str) -> Result<(usize, u32, Option<u32>), CliError> {
    let want = || bad("--crash", arg, "SITE:ORDINAL:MSGS, MSGS a count or `log`");
    let parts: Vec<&str> = arg.split(':').collect();
    let [site, ordinal, msgs] = parts[..] else { return Err(want()) };
    let msgs = if msgs == "log" { None } else { Some(msgs.parse().map_err(|_| want())?) };
    Ok((site.parse().map_err(|_| want())?, ordinal.parse().map_err(|_| want())?, msgs))
}

/// Parse the `LO..HI` time bounds of `--latency` or `--detector-jitter`.
pub fn parse_span(flag: &str, arg: &str) -> Result<(u64, u64), CliError> {
    let bounds =
        arg.split_once("..").and_then(|(lo, hi)| Some((lo.parse().ok()?, hi.parse().ok()?)));
    match bounds {
        Some((lo, hi)) if lo <= hi && hi <= MAX_TICKS => Ok((lo, hi)),
        _ => Err(bad(flag, arg, format_args!("LO..HI with LO <= HI <= {MAX_TICKS}"))),
    }
}

/// Parse a `--trace-format` value; `true` selects Chrome trace-event JSON.
pub fn parse_trace_format(arg: &str) -> Result<bool, CliError> {
    match arg {
        "jsonl" => Ok(false),
        "chrome" => Ok(true),
        _ => Err(bad("--trace-format", arg, "jsonl | chrome")),
    }
}

/// Parse a termination-rule name.
pub fn parse_rule_arg(arg: &str) -> Result<TerminationRule, CliError> {
    match arg {
        "skeen" => Ok(TerminationRule::Skeen),
        "cooperative" => Ok(TerminationRule::Cooperative),
        "naive" => Ok(TerminationRule::NaiveCs),
        "quorum" => Ok(TerminationRule::QuorumSkeen),
        _ => Err(bad("--rule", arg, "skeen | cooperative | naive | quorum")),
    }
}

/// Parse a `--votes` plan: one `y`/`1` (yes) or `n`/`0` (no) per site,
/// e.g. `yyn`.
pub fn parse_votes_arg(arg: &str) -> Result<Vec<bool>, CliError> {
    arg.chars()
        .map(|c| match c {
            'y' | '1' => Ok(true),
            'n' | '0' => Ok(false),
            _ => Err(bad("--votes", arg, "y/n or 1/0 per site")),
        })
        .collect()
}

/// Check a command line against the tables. Every refusal — an unknown
/// command, a missing or surplus operand, a flag the command does not
/// read, a missing, unparsable or out-of-range value, a flag given twice,
/// a qualifier without its subject, a flag beside one that overrides it —
/// is an error naming what was typed, returned before any protocol is
/// built.
pub fn parse(args: &[String]) -> Result<Invocation, CliError> {
    let Some(word) = args.first() else {
        return Ok(Invocation { cmd: Help, operands: Vec::new(), values: Vec::new() });
    };
    let Some(command) = COMMANDS.iter().find(|c| c.names.contains(&word.as_str())) else {
        return fail(format!("unknown command {word:?}"));
    };
    let (cmd, name) = (command.cmd, command.names[0]);
    let mut inv = Invocation { cmd, operands: Vec::new(), values: Vec::new() };
    let wanted: Vec<&str> = command.operands.split_whitespace().collect();
    // The first operand is positional, `nbc CMD PROTO [flags]`, whatever it
    // looks like; later ones (trace files) may sit among the flags.
    inv.operands.extend(args.get(1).filter(|_| !wanted.is_empty()).cloned());
    let mut i = 1 + inv.operands.len();
    while i < args.len() {
        let arg = args[i].as_str();
        i += 1;
        if !arg.starts_with('-') {
            inv.operands.push(arg.to_string());
            continue;
        }
        let rows = || FLAGS.iter().filter(|f| f.names.contains(&arg));
        let Some(flag) = rows().find(|f| f.read_by(cmd)) else {
            let takers: Vec<&str> = rows().flat_map(Flag::readers).collect();
            return fail(match takers.as_slice() {
                [] => format!("{name}: unknown flag {arg:?}"),
                takers => format!("{name} does not take {arg}, a flag of {}", takers.join(", ")),
            });
        };
        if !flag.repeat && inv.has(flag.names[0]) {
            return fail(format!("{name}: {arg} given twice"));
        }
        let value = match flag.value {
            None => Value::On,
            Some((meta, kind)) => {
                let Some(raw) = args.get(i) else {
                    return fail(format!("{arg} needs a value ({meta})"));
                };
                i += 1;
                kind.parse(arg, raw)?
            }
        };
        inv.values.push((flag.names[0], value));
    }
    if let Some(missing) = wanted.get(inv.operands.len()) {
        return fail(format!("{name}: missing {missing} argument"));
    }
    if let Some(extra) =
        inv.operands.get(wanted.len()).filter(|_| !command.operands.ends_with("..."))
    {
        return fail(format!("{name}: unexpected argument {extra:?}"));
    }
    let given = || FLAGS.iter().filter(|f| f.read_by(cmd) && inv.has(f.names[0]));
    // Overridden before unqualified: `--recover T --schedule F` is told to
    // drop `--recover`, not to add the `--crash` that would be refused next.
    for flag in given() {
        if let Some(idle) = flag.overrides.iter().find(|idle| inv.has(idle)) {
            let flag = flag.names[0];
            return fail(format!("{idle} does nothing on `nbc {name}` beside {flag}; drop it"));
        }
    }
    for flag in given() {
        match flag.requires {
            Some((subject, on)) if on & cmd as u16 != 0 && !inv.has(subject) => {
                let flag = flag.names[0];
                return fail(format!(
                    "{flag} does nothing on `nbc {name}` without {subject}; add {subject}"
                ));
            }
            _ => {}
        }
    }
    Ok(inv)
}

/// Append `items` to `out` after `head`, space-separated and broken before
/// column 79, continuation lines indented by `indent`.
fn fill<'a>(out: &mut String, head: &str, indent: usize, items: impl Iterator<Item = &'a str>) {
    let mut line = head.to_string();
    for item in items {
        if line.chars().count() + 1 + item.chars().count() > 78 {
            let _ = writeln!(out, "{line}");
            line = " ".repeat(indent);
        } else {
            line.push(' ');
        }
        line.push_str(item);
    }
    let _ = writeln!(out, "{}", line.trim_end());
}

/// `nbc help`: the synopsis of every command, generated from the rows in
/// table order, then what each operand, flag and command means.
pub fn usage() -> String {
    let mut out = "nbc — nonblocking commit protocols (Skeen, SIGMOD 1981)\n\nUSAGE:\n".to_string();
    for c in COMMANDS {
        let flags = FLAGS.iter().filter(|f| f.read_by(c.cmd)).map(|f| match f.value {
            None => format!("[{}]", f.names[0]),
            Some((meta, _)) => {
                format!("[{} {meta}]{}", f.names[0], if f.repeat { "..." } else { "" })
            }
        });
        let items: Vec<String> =
            c.operands.split_whitespace().map(str::to_string).chain(flags).collect();
        fill(&mut out, &format!("  nbc {:<11}", c.names[0]), 18, items.iter().map(String::as_str));
    }
    out.push_str(
        "\nPROTO: central-2pc | central-3pc | decentralized-2pc | decentralized-3pc |\n\
         \x20      1pc | kpc:K | paxos:F | a .nbc spec file (see the nbc-spec crate docs)\n\n",
    );
    for f in FLAGS {
        let mut head = f.names.join(" | ");
        if let Some((meta, _)) = f.value {
            let _ = write!(head, " {meta}");
        }
        // A name with two meanings says which commands this one is for.
        if FLAGS.iter().filter(|g| g.names[0] == f.names[0]).count() > 1 {
            let _ = write!(head, " ({})", f.readers().collect::<Vec<_>>().join(", "));
        }
        fill(&mut out, &format!("{head}:"), 4, f.help.split(' '));
    }
    for c in COMMANDS.iter().filter(|c| !c.help.is_empty()) {
        out.push('\n');
        fill(&mut out, &format!("{}:", c.names[0]), 0, c.help.split(' '));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kind: Kind) -> String {
        match kind {
            Kind::Num(lo, _, _) => lo.to_string(),
            Kind::Sites => "2".into(),
            Kind::Bytes => "1K".into(),
            Kind::Path => "x".into(),
            Kind::Span => "1..2".into(),
            Kind::Crash => "0:1:1".into(),
            Kind::Rule => "skeen".into(),
            Kind::Format => "jsonl".into(),
            Kind::Votes => "yy".into(),
        }
    }

    /// `nbc CMD OPERANDS FLAG [VALUE]`, with the flag `FLAG` qualifies.
    fn line(command: &Command, flag: &Flag, name: &str, raw: Option<&str>) -> Vec<String> {
        let mut words = vec![command.names[0].to_string()];
        words.extend(command.operands.split_whitespace().map(str::to_string));
        words.push(name.to_string());
        words.extend(raw.map(str::to_string).or(flag.value.map(|(_, kind)| sample(kind))));
        if let Some((subject, _)) = flag.requires.filter(|(_, on)| on & command.cmd as u16 != 0) {
            let reads = |f: &&Flag| f.names[0] == subject && f.read_by(command.cmd);
            let subject = FLAGS.iter().find(reads).expect("the subject is a row");
            words.push(subject.names[0].to_string());
            words.extend(subject.value.map(|(_, kind)| sample(kind)));
        }
        words
    }

    /// The bracketed items of each command's synopsis, read from `usage()`.
    fn synopsis() -> Vec<(String, Vec<String>)> {
        let text = usage();
        let block = text.split("USAGE:\n").nth(1).unwrap().split("\n\n").next().unwrap();
        let mut commands: Vec<(String, String)> = Vec::new();
        for l in block.lines() {
            match l.strip_prefix("  nbc ") {
                Some(rest) => {
                    let (name, items) = rest.split_once(' ').unwrap_or((rest, ""));
                    commands.push((name.to_string(), items.to_string()));
                }
                None => commands.last_mut().unwrap().1.push_str(l),
            }
        }
        let items = |s: &str| {
            s.split('[').skip(1).map(|i| i.split(']').next().unwrap().to_string()).collect()
        };
        commands.into_iter().map(|(name, rest)| (name, items(&rest))).collect()
    }

    #[test]
    fn the_synopsis_is_the_table_read_back() {
        let synopsis = synopsis();
        assert_eq!(
            synopsis.iter().map(|(name, _)| name.as_str()).collect::<Vec<_>>(),
            COMMANDS.iter().map(|c| c.names[0]).collect::<Vec<_>>()
        );
        for (command, (_, items)) in COMMANDS.iter().zip(&synopsis) {
            let printed: Vec<&str> = items.iter().map(|i| i.split(' ').next().unwrap()).collect();
            // What the synopsis prints parses, with the metavariable it prints.
            for item in items {
                let name = item.split(' ').next().unwrap();
                let row = FLAGS.iter().find(|f| f.names[0] == name && f.read_by(command.cmd));
                let row = row.unwrap_or_else(|| panic!("{}: {item} has no row", command.names[0]));
                assert_eq!(item.split(' ').nth(1), row.value.map(|(meta, _)| meta), "{item}");
                for spelling in row.names {
                    let words = line(command, row, spelling, None);
                    let inv = parse(&words).unwrap_or_else(|e| panic!("{words:?}: {e}"));
                    assert!(inv.has(name), "{words:?}");
                }
            }
            // What it does not print is refused, naming the flag and the command.
            let spelled =
                |name| FLAGS.iter().any(|f| f.read_by(command.cmd) && f.names.contains(name));
            let rows = FLAGS.iter().filter(|f| f.read_by(command.cmd));
            assert_eq!(printed, rows.map(|f| f.names[0]).collect::<Vec<_>>(), "table order");
            for flag in FLAGS.iter().filter(|f| !spelled(&f.names[0])) {
                let words = line(command, flag, flag.names[0], None);
                let err = parse(&words).expect_err(&format!("{words:?}")).0;
                assert!(err.contains(flag.names[0]) && err.contains(command.names[0]), "{err}");
            }
        }
    }

    #[test]
    fn every_number_has_a_floor_and_a_ceiling() {
        for command in COMMANDS {
            for flag in FLAGS.iter().filter(|f| f.read_by(command.cmd)) {
                let (lo, hi) = match flag.value {
                    Some((_, Kind::Num(lo, hi, _))) => (lo, hi),
                    Some((_, Kind::Sites)) => (2, MAX_SITES),
                    _ => continue,
                };
                let name = flag.names[0];
                let try_value = |v: u64| parse(&line(command, flag, name, Some(&v.to_string())));
                assert_eq!(try_value(lo).unwrap().num::<u64>(name), Some(lo), "{name}");
                assert_eq!(try_value(hi).unwrap().num::<u64>(name), Some(hi), "{name}");
                for outside in lo.checked_sub(1).into_iter().chain(hi.checked_add(1)) {
                    let err = try_value(outside).expect_err(name).0;
                    assert!(err.starts_with(&format!("{name} {outside}")), "{err}");
                    assert!(
                        err.contains(&(if outside < lo { lo } else { hi }).to_string()),
                        "{err}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_qualifier_without_its_subject_is_refused() {
        let words = |l: &str| l.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        for (bad, good) in [
            ("analyze 3pc --mem-budget 1K", "analyze 3pc --mem-budget 1K --stream"),
            ("simulate 3pc --detector-jitter 1..5", "check 3pc --mem-budget 1K"),
            ("sweep 3pc --trace-format chrome", "sweep 3pc --recover 5"),
            ("pipeline 3pc --flight-cap 9", "termination 3pc --recover 5"),
            ("simulate 3pc --recover 5", "simulate 3pc --recover 5 --crash 0:1:1"),
        ] {
            let err = parse(&words(bad)).expect_err(bad).0;
            assert!(err.starts_with(bad.split(' ').nth(2).unwrap()), "{bad}: {err}");
            parse(&words(good)).unwrap_or_else(|e| panic!("{good}: {e}"));
        }
    }
}
