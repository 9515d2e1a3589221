//! `nbc trace`: offline analysis of recorded JSONL event traces.

use std::fmt::Write as _;

use nonblocking_commit::obs::analyze;

use crate::args::Invocation;
use crate::check::CheckRun;
use crate::{fail, CliError};

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
pub(crate) fn cmd_trace(inv: &Invocation) -> Result<CheckRun, CliError> {
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

#[cfg(test)]
mod tests {
    use crate::tests::{pipeline, simulate, temp, trace};
    use nonblocking_commit::obs::json;

    #[test]
    fn trace_verify_passes_on_recorded_trace() {
        let path = temp("nbc-cli-test-trace-verify.jsonl");
        simulate(&["3pc", "--crash", "0:2:1", "--trace", &path]);
        let run = trace(&["verify", &path]).unwrap();
        assert!(run.ok, "{}", run.output);
        assert!(run.output.contains("result: PASS"), "{}", run.output);
        assert!(run.output.contains("gray-lamport:"), "{}", run.output);
        // Byte-determinism: a second pass over the same file is identical.
        assert_eq!(run.output, trace(&["verify", &path]).unwrap().output);
        // --json emits one valid object with the same verdict.
        let jrun = trace(&["verify", &path, "--json"]).unwrap();
        json::validate(jrun.output.trim()).unwrap();
        assert!(jrun.output.contains("\"ok\":true"), "{}", jrun.output);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_verify_detects_corruption() {
        let path = temp("nbc-cli-test-trace-corrupt.jsonl");
        simulate(&["3pc", "--trace", &path]);
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
        let run = trace(&["verify", &path]).unwrap();
        assert!(!run.ok, "{}", run.output);
        assert!(run.output.contains("conservation"), "{}", run.output);
        assert!(run.output.contains("result: FAIL"), "{}", run.output);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_stats_renders_percentiles() {
        let path = temp("nbc-cli-test-trace-stats.jsonl");
        pipeline(&["3pc", "--txns", "24", "--seed", "9", "--series-every", "64", "--trace", &path])
            .unwrap();
        let run = trace(&["stats", &path]).unwrap();
        assert!(run.ok);
        assert!(run.output.contains("decision latency: n="), "{}", run.output);
        assert!(run.output.contains("p95="), "{}", run.output);
        assert!(run.output.contains("time series ("), "{}", run.output);
        let jrun = trace(&["stats", &path, "--json"]).unwrap();
        json::validate(jrun.output.trim()).unwrap();
        assert!(jrun.output.contains("\"snapshots\":["), "{}", jrun.output);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_usage_errors() {
        assert!(trace(&[]).is_err(), "missing subcommand");
        assert!(trace(&["frob", "x.jsonl"]).is_err(), "unknown subcommand");
        assert!(trace(&["verify"]).is_err(), "missing file");
        assert!(trace(&["verify", "--bogus", "x.jsonl"]).is_err(), "unknown flag");
        assert!(trace(&["verify", "/does/not/exist.jsonl"]).is_err(), "missing file");
    }
}
