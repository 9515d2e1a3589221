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
//!
//! This file keeps the dispatch and protocol resolution. The commands live
//! by family: `reach` (analyze, verify, graph, synthesize, termination,
//! recovery), `run` (simulate and its schedule replay, sweep, paxos, and
//! the `Observers` an engine run records into), `check`, `pipeline` and
//! `trace`.

pub mod args;
mod check;
mod pipeline;
mod reach;
mod run;
mod trace;

use args::{Cmd, Invocation};
use check::{cmd_check, CheckRun};
use nonblocking_commit::model::kpc::k_phase_central;
use nonblocking_commit::model::protocols::one_pc;
use nonblocking_commit::model::{spec, verify, Protocol};
use nonblocking_commit::pipeline::ProtocolKind;
use pipeline::cmd_pipeline;
pub use reach::cmd_analyze;
use reach::{build_analysis, cmd_graph, cmd_recovery, cmd_synthesize, cmd_termination, cmd_verify};
use run::{cmd_paxos, cmd_simulate, cmd_sweep};
use trace::cmd_trace;

/// A CLI failure with a user-facing message.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

pub(crate) fn fail<T>(msg: impl Into<String>) -> Result<T, CliError> {
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
    match inv.cmd {
        Cmd::Analyze => cmd_analyze(&protocol, &analysis),
        Cmd::Verify => cmd_verify(&protocol, &analysis),
        Cmd::Synthesize => cmd_synthesize(&protocol, &analysis),
        Cmd::Simulate => cmd_simulate(&protocol, &analysis, inv),
        Cmd::Sweep => cmd_sweep(&protocol, &analysis, inv),
        Cmd::Termination => cmd_termination(&protocol, &analysis),
        Cmd::Recovery => cmd_recovery(&protocol, &analysis),
        other => unreachable!("{other:?} does not take the reach flags"),
    }
}

/// What a protocol argument names.
pub(crate) enum Named<'a> {
    /// A protocol `nbc pipeline` can run a cluster on.
    Cluster(ProtocolKind),
    OnePc,
    Kpc(u32),
    Spec(&'a str),
}

/// The one protocol-name table: a catalog name, `kpc:K`, `paxos:F`, or a
/// spec file path (anything containing `/` or ending in `.nbc`).
pub(crate) fn protocol_name(arg: &str) -> Result<Named<'_>, CliError> {
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
            spec::parse(&text, n).map_err(|e| CliError(format!("{path}: {e}")))
        }
    }
}

/// `nbc list`
pub(crate) fn cmd_list() -> String {
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

/// Per-thread progress rate over successive calls (the hooks above are
/// plain `fn` pointers, so their estimator state lives here).
pub(crate) fn tick_rate(events: u64) -> Option<f64> {
    use nonblocking_commit::obs::progress::Rate;
    use std::cell::Cell;
    thread_local! {
        static RATE: Cell<Rate> = const { Cell::new(Rate::new()) };
    }
    RATE.with(|c| {
        let mut r = c.get();
        let rate = r.tick(events);
        c.set(r);
        rate
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonblocking_commit::model::Analysis;

    /// `nbc CMD ARGS...` through the table, as `run_argv` takes it.
    pub(crate) fn parsed(cmd: &str, args: &[&str]) -> Result<Invocation, CliError> {
        let words: Vec<String> =
            std::iter::once(cmd).chain(args.iter().copied()).map(String::from).collect();
        args::parse(&words)
    }

    /// `nbc simulate ARGS...` or `nbc sweep ARGS...`, on PROTO's streamed
    /// analysis.
    pub(crate) fn run_engine(cmd: &str, args: &[&str]) -> Result<String, CliError> {
        let inv = parsed(cmd, args)?;
        let p = resolve_protocol(&inv.operands[0], inv.n())?;
        match inv.cmd {
            Cmd::Simulate => cmd_simulate(&p, &streamed(&p), &inv),
            _ => cmd_sweep(&p, &streamed(&p), &inv),
        }
    }

    pub(crate) fn simulate(args: &[&str]) -> String {
        run_engine("simulate", args).unwrap_or_else(|e| panic!("{args:?}: {e}"))
    }

    pub(crate) fn sweep_of(args: &[&str]) -> String {
        run_engine("sweep", args).unwrap_or_else(|e| panic!("{args:?}: {e}"))
    }

    pub(crate) fn pipeline(args: &[&str]) -> Result<String, CliError> {
        cmd_pipeline(&parsed("pipeline", args)?)
    }

    pub(crate) fn trace(args: &[&str]) -> Result<CheckRun, CliError> {
        cmd_trace(&parsed("trace", args)?)
    }

    pub(crate) fn temp(name: &str) -> String {
        std::env::temp_dir().join(name).to_string_lossy().into_owned()
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

    pub(crate) fn streamed(p: &Protocol) -> Analysis {
        build_analysis(p, 0, false, 0).unwrap()
    }
}
