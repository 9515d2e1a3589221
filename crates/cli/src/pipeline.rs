//! `nbc pipeline`: the concurrent commit scheduler over a bank workload.

use std::fmt::Write as _;

use nonblocking_commit::obs::Tracer;

use crate::args::Invocation;
use crate::run::Observers;
use crate::{fail, protocol_name, CliError, Named};

/// `nbc pipeline PROTO [flags]` — run the concurrent commit scheduler
/// over a bank workload and report throughput, latency percentiles, and
/// group-commit savings, alongside a serial baseline (the same scheduler
/// at in-flight 1 with group commit off).
pub(crate) fn cmd_pipeline(inv: &Invocation) -> Result<String, CliError> {
    use nonblocking_commit::net::SimRng;
    use nonblocking_commit::pipeline::{
        bank_transfer_txns, BankWorkload, Pipeline, PipelineConfig, PipelineTxn,
    };

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
    let observers = Observers::of(inv)?;

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
    let tracer = observers.tracer();
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
    use crate::tests::{pipeline, temp};
    use nonblocking_commit::obs::json;

    #[test]
    fn pipeline_command_reports_speedup() {
        let out =
            pipeline(&["3pc", "--txns", "32", "--in-flight", "8", "--window", "3", "--seed", "7"])
                .unwrap();
        assert!(out.contains("speedup over serial"), "{out}");
        assert!(out.contains("conservation: ok"), "{out}");
        assert!(out.contains("saved by group commit"), "{out}");
    }

    #[test]
    fn pipeline_command_rejects_junk() {
        assert!(pipeline(&[]).is_err());
        assert!(pipeline(&["1pc"]).is_err(), "non-cluster protocol");
        assert!(pipeline(&["3pc", "--crash-pct", "101"]).is_err());
        assert!(pipeline(&["3pc", "--bogus"]).is_err());
    }

    #[test]
    fn pipeline_trace_and_metrics() {
        let path = temp("nbc-cli-test-pipeline.jsonl");
        let out = pipeline(&["3pc", "--txns", "16", "--seed", "7", "--metrics", "--trace", &path])
            .unwrap();
        assert!(out.contains("scheduler"), "{out}");
        assert!(out.contains("admits="), "{out}");
        let data = std::fs::read_to_string(&path).unwrap();
        for line in data.lines() {
            json::validate(line).unwrap();
        }
        let _ = std::fs::remove_file(&path);
    }
}
