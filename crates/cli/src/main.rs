//! The `nbc` command-line entry point. All real work lives in the library
//! (`nbc_cli`) so it is unit-tested; this file only parses `argv`.

use nbc_cli::*;

const USAGE: &str = "\
nbc — nonblocking commit protocols (Skeen, SIGMOD 1981)

USAGE:
  nbc list
  nbc analyze     PROTO [-n N] [--threads T] [--stream] [--mem-budget B] [--progress]
  nbc verify      PROTO [-n N] [--threads T] [--progress]
  nbc graph       PROTO [-n N] [--dot] [--threads T] [--progress]
  nbc synthesize  PROTO [-n N] [--threads T] [--stream] [--mem-budget B] [--progress]
  nbc simulate    PROTO [-n N] [--threads T] [--stream]
                  [--crash SITE:ORDINAL:MSGS] [--recover T]
                  [--no-voter K]... [--rule skeen|cooperative|naive|quorum]
                  [--latency LO..HI] [--seed S] [--story]
                  [--detector-timeout T] [--detector-jitter LO..HI]
                  [--schedule FILE]
                  [--trace PATH] [--trace-format jsonl|chrome] [--metrics] [--json]
                  [--flight PATH] [--flight-cap N]
  nbc check       PROTO [-n N] [--depth D] [--faults F] [--recoveries R]
                  [--drops K] [--suspicions S] [--seed S] [--threads T] [--progress]
                  [--rule skeen|cooperative|naive|quorum]
                  [--votes yyn] [--max-states M] [--mem-budget B]
                  [--counterexample FILE] [--trace] [--json]
  nbc sweep       PROTO [-n N] [--threads T] [--stream] [--recover T] [--rule ...]
                  [--detector-timeout T] [--detector-jitter LO..HI] [--seed S]
                  [--trace PATH] [--trace-format jsonl|chrome] [--metrics] [--json]
  nbc termination PROTO [-n N] [--threads T] [--stream]
                  [--trace PATH] [--trace-format jsonl|chrome] [--metrics]
  nbc recovery    PROTO [-n N] [--threads T] [--stream]
                  [--trace PATH] [--trace-format jsonl|chrome] [--metrics]
  nbc pipeline    PROTO [-n N] [--txns T] [--crash-pct P] [--in-flight K]
                  [--window W] [--reap T] [--seed S]
                  [--trace PATH] [--trace-format jsonl|chrome] [--metrics]
                  [--series-every T] [--flight PATH] [--flight-cap N]
  nbc paxos       [--sites N] [--faults F] [--metrics] [--json]
  nbc trace       verify FILE... [--json]
  nbc trace       stats  FILE... [--json]

PROTO: central-2pc | central-3pc | decentralized-2pc | decentralized-3pc |
       1pc | kpc:K | paxos:F | a .nbc spec file (see the nbc-spec crate docs)

MSGS in --crash: a number (messages sent before dying) or `log`
(crash before the write-ahead record).

--threads T: worker threads for the reachability analysis (0 = auto, at
most 64; more is a usage error).
--stream: fold the analysis level by level without retaining the state
graph — lower memory, but graph consumers (`verify`, `--dot`) need the
retaining default.
--progress: per-level BFS progress (frontier, new states, dedup hits,
states/sec) on stderr while the analysis builds.
--mem-budget B: cap the in-RAM dedup store at B bytes (64K, 16M, 1G, or
plain bytes), spilling sorted runs to temp files past it. Results are
byte-identical with or without a budget; spill stats print on stderr.
Outside check it applies to the --stream reachability fold and is a
usage error without --stream; graph takes neither flag.
--story: print the run's human-readable execution trace.
--detector-timeout T: replace the paper's perfect failure detector with
timeout-based suspicion — a site suspects a peer after T units of
silence, with heartbeat latency drawn from --detector-jitter LO..HI
(default 1..12, seeded by --seed). A timeout below the jitter ceiling
can falsely suspect live sites; a timeout at or above it detects only
genuine crashes and reproduces the perfect-detector run byte for byte.
--trace PATH: write the structured event trace to PATH; --trace-format
picks JSONL (one event object per line, the default) or Chrome
trace-event JSON for chrome://tracing / Perfetto.
--metrics: print message/WAL/latency counters after the run.
--json: emit the run report or sweep summary as JSON on stdout
(simulate --json --metrics nests both under {\"report\":..,\"metrics\":..}).
--flight PATH: attach a bounded flight recorder (last N events,
--flight-cap, default 256) and dump its tail to PATH only when the run
ends badly — atomicity violated, a site left undecided, or (pipeline)
a panic or conservation violation.
--series-every T: pipeline emits a metrics snapshot event every T ticks
(goodput, in-flight, blocked, WAL bytes) into the trace for
`nbc trace stats`.

paxos: run one happy-path Paxos Commit transaction (N participants,
2F+1 acceptors) and print the Gray–Lamport cost table — messages,
stable writes, and message delays per transaction — next to central
2PC/3PC and the paper's analytic predictions.

check: exhaustively explore every schedule (delivery order, crashes,
recoveries, drops, false suspicions via --suspicions) within the
budgets and cross-validate the engine
against the paper's state-graph analysis with four oracles; shrunk
counterexamples replay with `nbc simulate PROTO --schedule FILE`.
check exits 0 when every oracle passes, 1 on an oracle violation, and
2 on a usage or protocol error. `--threads T` fans the exploration out
over T workers (0 = auto, at most 64; results are identical at any
thread count);
`--seed S` perturbs traversal order only. With `--counterexample FILE`
a failing check also replays the shrunk schedule under a flight
recorder and writes its event tail to FILE.flight.jsonl.

trace: offline analysis of recorded JSONL traces. `verify` re-checks
message conservation, decision consistency, WAL-before-send ordering,
and stable decisions from the trace alone, and prints the Gray-Lamport
message/stable-write/delay accounting; it exits 0/1/2 like check.
`stats` prints decision-latency percentiles (p50/p95/p99) and the
time-series snapshot table recorded by `pipeline --series-every`.
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `check` owns its exit status: 0 = every oracle passed, 1 = some
    // oracle reported a violation, 2 = usage or protocol error. The
    // verdict must be scriptable (CI gates on it), not just rendered text.
    if let Some(cmd @ ("check" | "trace")) = args.first().map(String::as_str) {
        let run = if cmd == "check" { cmd_check(&args[1..]) } else { cmd_trace(&args[1..]) };
        match run {
            Ok(run) => {
                print!("{}", run.output);
                std::process::exit(if run.ok { 0 } else { 1 });
            }
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    match run(&args) {
        Ok(output) => print!("{output}"),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("\n{USAGE}");
            std::process::exit(2);
        }
    }
}

fn run(args: &[String]) -> Result<String, CliError> {
    let Some(cmd) = args.first() else {
        return Ok(USAGE.to_string());
    };
    if cmd == "list" {
        return Ok(cmd_list());
    }
    if cmd == "help" || cmd == "--help" || cmd == "-h" {
        return Ok(USAGE.to_string());
    }
    if cmd == "pipeline" {
        return cmd_pipeline(&args[1..]);
    }
    if cmd == "paxos" {
        return cmd_paxos(&args[1..]);
    }

    let Some(proto_arg) = args.get(1) else {
        return Err(CliError(format!("{cmd}: missing protocol argument")));
    };

    // Flag parsing.
    let mut n = 3usize;
    let mut dot = false;
    let mut threads = 0usize; // 0 = auto
    let mut stream = false;
    let mut progress = false;
    let mut mem_budget: Option<usize> = None;
    let mut opts = SimOpts::default();
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "-n" => {
                n = next_val(args, &mut i)?.parse().map_err(|_| CliError("bad -n value".into()))?;
            }
            "--dot" => dot = true,
            "--stream" => stream = true,
            "--progress" => progress = true,
            "--threads" => {
                threads = next_val(args, &mut i)?
                    .parse()
                    .map_err(|_| CliError("bad --threads value".into()))?
            }
            "--mem-budget" => {
                mem_budget = Some(parse_mem_budget(&next_val(args, &mut i)?, "--mem-budget")?)
            }
            "--story" => opts.trace = true,
            "--schedule" => opts.schedule = Some(next_val(args, &mut i)?),
            "--trace" => opts.trace_path = Some(next_val(args, &mut i)?),
            "--trace-format" => opts.trace_chrome = parse_trace_format(&next_val(args, &mut i)?)?,
            "--metrics" => opts.metrics = true,
            "--flight" => opts.flight_path = Some(next_val(args, &mut i)?),
            "--flight-cap" => {
                opts.flight_cap = next_val(args, &mut i)?
                    .parse()
                    .map_err(|_| CliError("bad --flight-cap value".into()))?
            }
            "--json" => opts.json = true,
            "--crash" => opts.crash = Some(parse_crash_arg(&next_val(args, &mut i)?)?),
            "--recover" => {
                opts.recover = Some(
                    next_val(args, &mut i)?
                        .parse()
                        .map_err(|_| CliError("bad --recover value".into()))?,
                )
            }
            "--no-voter" => opts.no_voters.push(
                next_val(args, &mut i)?
                    .parse()
                    .map_err(|_| CliError("bad --no-voter value".into()))?,
            ),
            "--rule" => opts.rule = parse_rule_arg(&next_val(args, &mut i)?)?,
            "--latency" => opts.latency = Some(parse_latency_arg(&next_val(args, &mut i)?)?),
            "--detector-timeout" => {
                opts.detector_timeout = Some(parse_timeout_arg(&next_val(args, &mut i)?)?)
            }
            "--detector-jitter" => {
                opts.detector_jitter = Some(parse_jitter_arg(&next_val(args, &mut i)?)?)
            }
            "--seed" => {
                opts.seed = next_val(args, &mut i)?
                    .parse()
                    .map_err(|_| CliError("bad --seed value".into()))?
            }
            other => return Err(CliError(format!("unknown flag {other:?}"))),
        }
        i += 1;
    }

    const ANALYSIS_CMDS: &[&str] =
        ["analyze", "verify", "synthesize", "simulate", "sweep", "termination", "recovery"]
            .as_slice();
    if cmd != "graph" && !ANALYSIS_CMDS.contains(&cmd.as_str()) {
        return Err(CliError(format!("unknown command {cmd:?}")));
    }

    // A flag the command would parse and then ignore is a usage error,
    // not a quieter run than the one asked for.
    if cmd == "graph" && (stream || mem_budget.is_some()) {
        let flag = if stream { "--stream" } else { "--mem-budget" };
        return Err(CliError(format!(
            "graph retains the reachable graph it prints, so {flag} does not apply; \
             the streaming fold is `nbc analyze PROTO --stream`"
        )));
    }
    if mem_budget.is_some() && !stream {
        return Err(CliError(
            "--mem-budget caps the --stream reachability fold; add --stream \
             (the retained graph holds every state and has nothing to spill)"
                .into(),
        ));
    }

    let protocol = resolve_protocol(proto_arg, n)?;
    if cmd == "graph" {
        return cmd_graph(&protocol, dot, threads, progress);
    }

    // Every remaining command consumes the analysis; build it once and
    // share it across the theorem/resilience/termination/report subpaths.
    let analysis = build_analysis(&protocol, threads, stream, progress, mem_budget.unwrap_or(0))?;
    match cmd.as_str() {
        "analyze" => cmd_analyze(&protocol, &analysis),
        "verify" => cmd_verify(&protocol, &analysis),
        "synthesize" => cmd_synthesize(&protocol, &analysis),
        "simulate" => cmd_simulate(&protocol, &analysis, &opts),
        "sweep" => cmd_sweep(&protocol, &analysis, &opts),
        "termination" => cmd_termination(&protocol, &analysis, &opts),
        "recovery" => cmd_recovery(&protocol, &analysis, &opts),
        _ => unreachable!("command validated above"),
    }
}

fn next_val(args: &[String], i: &mut usize) -> Result<String, CliError> {
    *i += 1;
    args.get(*i).cloned().ok_or_else(|| CliError(format!("{} needs a value", args[*i - 1])))
}
