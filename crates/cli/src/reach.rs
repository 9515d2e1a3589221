//! The commands that explore a protocol's reachable states: `analyze`,
//! `verify`, `graph`, `synthesize`, and the `termination` and `recovery`
//! tables.

use std::fmt::Write as _;

use nonblocking_commit::model::{
    dot, recovery_analysis, resilience, sync_check, synthesis, termination, theorem, verify,
    Analysis, Count, LevelProgress, Protocol, ProtocolError, ReachGraph, ReachOptions,
};
use nonblocking_commit::obs::progress::spill_line;

use crate::{tick_rate, CliError};

/// Build the single [`Analysis`] an invocation shares across every
/// facts-only subcommand (theorem, resilience, sync, termination
/// verification, termination, recovery, simulation), honoring
/// `--threads`, `--mem-budget` and `--progress`. The reachability fold
/// retires node payloads level by level and retains no graph; only
/// [`cmd_graph`], which reads edges, builds the graph instead.
pub(crate) fn build_analysis(
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
        eprintln!("{}", spill_line("reach", s.runs_written, s.bytes_written, s.merge_passes));
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
pub(crate) fn cmd_verify(protocol: &Protocol, analysis: &Analysis) -> Result<String, CliError> {
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
pub(crate) fn cmd_graph(
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
pub(crate) fn cmd_synthesize(protocol: &Protocol, analysis: &Analysis) -> Result<String, CliError> {
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

/// `nbc termination PROTO`
pub(crate) fn cmd_termination(
    protocol: &Protocol,
    analysis: &Analysis,
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
    Ok(out)
}

/// `nbc recovery PROTO`
pub(crate) fn cmd_recovery(protocol: &Protocol, analysis: &Analysis) -> Result<String, CliError> {
    let mut out = String::new();
    let _ = writeln!(out, "{}: independent recovery classification", protocol.name);
    for row in recovery_analysis::classify(protocol, analysis) {
        let _ = writeln!(out, "  {} in {:<4} -> {}", row.site, row.state_name, row.class);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::streamed;
    use crate::{resolve_protocol, run_argv};

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
    fn synthesize_2pc() {
        let p = resolve_protocol("2pc", 3).unwrap();
        let out = cmd_synthesize(&p, &streamed(&p)).unwrap();
        assert!(out.contains("after:  0 violation(s), 3 phase(s)"), "{out}");
    }

    #[test]
    fn tables_render() {
        let p = resolve_protocol("3pc", 3).unwrap();
        let a = streamed(&p);
        assert!(cmd_termination(&p, &a).unwrap().contains("commit"));
        assert!(cmd_recovery(&p, &a).unwrap().contains("must ask"));
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
        for threads in [1, 2, 4] {
            let s = build_analysis(&p, threads, false, 0).unwrap();
            assert_eq!(cmd_termination(&p, &a).unwrap(), cmd_termination(&p, &s).unwrap());
            assert_eq!(cmd_recovery(&p, &a).unwrap(), cmd_recovery(&p, &s).unwrap());
        }
    }
}
