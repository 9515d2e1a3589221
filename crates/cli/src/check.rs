//! `nbc check`: the schedule-exploring model checker.

use std::fmt::Write as _;

use nonblocking_commit::check::{
    replay_flight_dump, run_check, CheckError, CheckOptions, CheckProgress, Schedule,
};
use nonblocking_commit::obs::progress::spill_line;

use crate::args::Invocation;
use crate::{resolve_protocol, tick_rate, CliError};

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

/// Outcome of `nbc check`: the rendered report plus the verdict bit the
/// binary turns into its exit status (0 = every oracle passed, 1 = some
/// oracle failed; usage and protocol errors stay on the [`CliError`]
/// path and exit 2).
pub(crate) struct CheckRun {
    /// The rendered report (text or `--json`).
    pub(crate) output: String,
    /// True iff every oracle passed.
    pub(crate) ok: bool,
}

/// `nbc check PROTO [opts]` — run the schedule-exploring model checker.
pub(crate) fn cmd_check(inv: &Invocation) -> Result<CheckRun, CliError> {
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
    let report = run_check(&protocol, opts).map_err(|e| match e {
        CheckError::VotePlanLength { expected, got } => {
            CliError(format!("--votes names {got} sites, protocol has {expected}"))
        }
        e => CliError(e.to_string()),
    })?;
    // Spill stats go to stderr only: the rendered report and JSON stay
    // byte-identical with and without a budget.
    if budgeted {
        let s = report.spill;
        eprintln!("{}", spill_line("check", s.runs_written, s.bytes_written, s.merge_passes));
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
                match replay_flight_dump(&protocol, s, 256) {
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
