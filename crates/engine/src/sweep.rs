//! Exhaustive crash-point sweeps: the experimental face of the fundamental
//! nonblocking theorem.
//!
//! A sweep enumerates every crash point of a protocol — every site, every
//! transition ordinal, crashing before the write-ahead record or after each
//! possible prefix of the transition's outgoing messages — runs each
//! schedule, and audits every run for atomicity and blocking. For a
//! protocol satisfying the theorem (3PC with the Skeen rule) the sweep
//! must find **zero** inconsistent and **zero** blocked runs; for 2PC it
//! finds the blocking window, and under the deliberately naive rule it
//! finds actual atomicity violations.

use nbc_core::{Analysis, Protocol};
use nbc_obs::json::{array, string, Obj};
use nbc_obs::Tracer;
use nbc_simnet::Time;

use crate::config::{CrashPoint, CrashSpec, RunConfig, TransitionProgress};
use crate::run::{run_traced, run_with};

/// Every single-site crash point of the protocol, bounded by each site's
/// maximum transition count and maximum fan-out.
pub fn enumerate_crash_specs(protocol: &Protocol, recover_at: Option<Time>) -> Vec<CrashSpec> {
    let mut specs = Vec::new();
    for site in protocol.sites() {
        let fsa = protocol.fsa(site);
        let max_ordinal = fsa.max_depth();
        let max_emit = fsa.transitions().iter().map(|t| t.emit.len() as u32).max().unwrap_or(0);
        for ordinal in 1..=max_ordinal {
            specs.push(CrashSpec {
                site: site.index(),
                point: CrashPoint::OnTransition {
                    ordinal,
                    progress: TransitionProgress::BeforeLog,
                },
                recover_at,
            });
            for k in 0..=max_emit {
                specs.push(CrashSpec {
                    site: site.index(),
                    point: CrashPoint::OnTransition {
                        ordinal,
                        progress: TransitionProgress::AfterMsgs(k),
                    },
                    recover_at,
                });
            }
        }
    }
    specs
}

/// Aggregate result of a sweep.
#[derive(Clone, Debug, Default)]
pub struct SweepSummary {
    /// Runs executed.
    pub total: usize,
    /// Runs where the atomicity invariant held.
    pub consistent: usize,
    /// Runs where some operational site ended blocked.
    pub blocked: usize,
    /// Runs where every operational site decided.
    pub fully_decided: usize,
    /// Runs that hit the event limit.
    pub truncated: usize,
    /// Backup elections entered, summed over all runs. Sourced from the
    /// engine's election counter, so the fields are populated whether or
    /// not tracing is on (they used to exist only as trace-derived
    /// metrics).
    pub(crate) elections_total: u64,
    /// Most elections any single run entered.
    pub(crate) elections_max: u64,
    /// Runs that entered the termination protocol at least once.
    pub(crate) election_runs: usize,
    /// Human-readable descriptions of the inconsistent runs (empty for
    /// correct protocol/rule combinations).
    pub inconsistent_runs: Vec<String>,
}

impl SweepSummary {
    /// True iff every run preserved atomicity.
    pub fn all_consistent(&self) -> bool {
        self.consistent == self.total
    }

    /// True iff every run ended with all operational sites decided.
    pub fn nonblocking(&self) -> bool {
        self.blocked == 0 && self.fully_decided == self.total
    }

    /// Fraction of runs that blocked.
    pub fn blocking_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.blocked as f64 / self.total as f64
        }
    }

    fn absorb(&mut self, label: String, report: &crate::report::RunReport) {
        self.total += 1;
        if report.consistent {
            self.consistent += 1;
        } else {
            self.inconsistent_runs.push(format!("{label}: {report}"));
        }
        if report.any_blocked {
            self.blocked += 1;
        }
        if report.all_operational_decided {
            self.fully_decided += 1;
        }
        if report.truncated {
            self.truncated += 1;
        }
        self.elections_total += report.elections;
        self.elections_max = self.elections_max.max(report.elections);
        if report.elections > 0 {
            self.election_runs += 1;
        }
    }

    /// Encode the summary as a JSON object (for `--json` CLI output).
    pub fn to_json(&self) -> String {
        Obj::new()
            .num("total", self.total as u64)
            .num("consistent", self.consistent as u64)
            .num("blocked", self.blocked as u64)
            .num("fully_decided", self.fully_decided as u64)
            .num("truncated", self.truncated as u64)
            .num("elections_total", self.elections_total)
            .num("elections_max", self.elections_max)
            .num("election_runs", self.election_runs as u64)
            .bool("all_consistent", self.all_consistent())
            .bool("nonblocking", self.nonblocking())
            .float("blocking_rate", self.blocking_rate())
            .raw("inconsistent_runs", &array(self.inconsistent_runs.iter().map(|r| string(r))))
            .build()
    }

    /// Fold another partial summary in (chunk merge for parallel sweeps).
    fn merge(&mut self, other: SweepSummary) {
        self.total += other.total;
        self.consistent += other.consistent;
        self.blocked += other.blocked;
        self.fully_decided += other.fully_decided;
        self.truncated += other.truncated;
        self.elections_total += other.elections_total;
        self.elections_max = self.elections_max.max(other.elections_max);
        self.election_runs += other.election_runs;
        self.inconsistent_runs.extend(other.inconsistent_runs);
    }
}

/// Run every spec as a single-crash schedule against the base config.
///
/// Each crash spec is an independent run, so the sweep fans out over
/// scoped threads, chunking the spec list in order and merging the partial
/// summaries in chunk order — the result (including the order of
/// `inconsistent_runs`) is identical to the serial sweep.
pub fn sweep(
    protocol: &Protocol,
    analysis: &Analysis,
    base: &RunConfig,
    specs: &[CrashSpec],
) -> SweepSummary {
    let threads = nbc_core::auto_threads();
    if threads <= 1 || specs.len() < 2 * threads {
        return sweep_serial(protocol, analysis, base, specs);
    }
    let chunk_len = specs.len().div_ceil(threads);
    let partials: Vec<SweepSummary> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(move || sweep_serial(protocol, analysis, base, chunk)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("sweep worker")).collect()
    });
    let mut summary = SweepSummary::default();
    for partial in partials {
        summary.merge(partial);
    }
    summary
}

/// Single-threaded sweep over `specs`, in order.
fn sweep_serial(
    protocol: &Protocol,
    analysis: &Analysis,
    base: &RunConfig,
    specs: &[CrashSpec],
) -> SweepSummary {
    let mut summary = SweepSummary::default();
    for spec in specs {
        let mut cfg = base.clone();
        cfg.crashes = vec![*spec];
        let report = run_with(protocol, analysis, cfg);
        summary.absorb(format!("{spec:?}"), &report);
    }
    summary
}

/// As [`sweep`], emitting every run's events through `tracer`. Runs
/// serially in spec order (a deterministic trace requires a deterministic
/// interleaving), stamping run `i` with transaction id `i + 1` so the
/// events of different crash schedules are distinguishable in the trace.
pub fn sweep_traced(
    protocol: &Protocol,
    analysis: &Analysis,
    base: &RunConfig,
    specs: &[CrashSpec],
    tracer: Tracer,
) -> SweepSummary {
    let mut summary = SweepSummary::default();
    for (i, spec) in specs.iter().enumerate() {
        let mut cfg = base.clone();
        cfg.crashes = vec![*spec];
        cfg.txn_id = i as u64 + 1;
        let report = run_traced(protocol, analysis, cfg, tracer.clone());
        summary.absorb(format!("{spec:?}"), &report);
    }
    summary
}

/// Double-failure sweep: each spec plus a timed crash of every other site
/// at each time in `times` — this is what exercises cascading backup
/// failures during the termination protocol.
pub fn sweep_double(
    protocol: &Protocol,
    analysis: &Analysis,
    base: &RunConfig,
    specs: &[CrashSpec],
    times: impl Iterator<Item = Time> + Clone,
) -> SweepSummary {
    let mut summary = SweepSummary::default();
    let n = protocol.n_sites();
    for spec in specs {
        for second in 0..n {
            if second == spec.site {
                continue;
            }
            for t in times.clone() {
                let mut cfg = base.clone();
                cfg.crashes = vec![
                    *spec,
                    CrashSpec { site: second, point: CrashPoint::AtTime(t), recover_at: None },
                ];
                let report = run_with(protocol, analysis, cfg);
                summary.absorb(format!("{spec:?} + site{second}@t={t}"), &report);
            }
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbc_core::protocols::central_3pc;

    #[test]
    fn enumeration_covers_all_sites_and_ordinals() {
        let p = central_3pc(3);
        let specs = enumerate_crash_specs(&p, None);
        // Coordinator: depth 3, max fan-out 2 -> 3 * (1 + 3) = 12.
        // Each slave: depth 3, max fan-out 1 -> 3 * (1 + 2) = 9.
        assert_eq!(specs.len(), 12 + 9 + 9);
        for site in 0..3 {
            assert!(specs.iter().any(|s| s.site == site));
        }
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let p = central_3pc(3);
        let a = Analysis::build(&p).unwrap();
        let base = RunConfig::happy(3);
        let specs = enumerate_crash_specs(&p, None);
        let par = sweep(&p, &a, &base, &specs);
        let ser = sweep_serial(&p, &a, &base, &specs);
        assert_eq!(par.total, ser.total);
        assert_eq!(par.consistent, ser.consistent);
        assert_eq!(par.blocked, ser.blocked);
        assert_eq!(par.fully_decided, ser.fully_decided);
        assert_eq!(par.truncated, ser.truncated);
        assert_eq!(par.inconsistent_runs, ser.inconsistent_runs);
    }

    #[test]
    fn traced_sweep_matches_untraced_summary() {
        use nbc_obs::{MemorySink, SharedSink};
        let p = central_3pc(3);
        let a = Analysis::build(&p).unwrap();
        let base = RunConfig::happy(3);
        let specs = enumerate_crash_specs(&p, None);
        let plain = sweep(&p, &a, &base, &specs);
        let sink = SharedSink::new(MemorySink::default());
        let traced = sweep_traced(&p, &a, &base, &specs, Tracer::to_sink(sink.clone()));
        assert_eq!(traced.total, plain.total);
        assert_eq!(traced.consistent, plain.consistent);
        assert_eq!(traced.blocked, plain.blocked);
        assert_eq!(traced.inconsistent_runs, plain.inconsistent_runs);
        // Every run is distinguishable by its txn id.
        let max_txn = sink.with(|s| s.events.iter().filter_map(|e| e.txn).max());
        assert_eq!(max_txn, Some(specs.len() as u64));
    }

    #[test]
    fn summary_json_is_valid() {
        let p = central_3pc(3);
        let a = Analysis::build(&p).unwrap();
        let base = RunConfig::happy(3);
        let specs = enumerate_crash_specs(&p, None);
        let j = sweep(&p, &a, &base, &specs).to_json();
        nbc_obs::json::validate(&j).unwrap();
        assert!(j.contains("\"all_consistent\":true"), "{j}");
        assert!(j.contains("\"nonblocking\":true"), "{j}");
    }

    #[test]
    fn election_fields_populated_without_tracing() {
        use nbc_obs::{MemorySink, SharedSink};
        let p = central_3pc(3);
        let a = Analysis::build(&p).unwrap();
        let base = RunConfig::happy(3);
        let specs = enumerate_crash_specs(&p, None);
        // Regression: these fields used to be derivable only from trace
        // metrics; they must now be populated by the engine counter with
        // tracing off.
        let s = sweep(&p, &a, &base, &specs);
        assert!(s.elections_total > 0, "coordinator crashes must trigger elections");
        assert!(s.election_runs > 0 && s.election_runs <= s.total);
        assert!(s.elections_max >= 1);
        let j = s.to_json();
        nbc_obs::json::validate(&j).unwrap();
        assert!(j.contains("\"elections_total\":"), "{j}");
        assert!(j.contains("\"elections_max\":"), "{j}");
        assert!(j.contains("\"election_runs\":"), "{j}");
        // The traced sweep agrees, and the counter matches the trace's
        // election events one for one.
        let sink = SharedSink::new(MemorySink::default());
        let traced = sweep_traced(&p, &a, &base, &specs, Tracer::to_sink(sink.clone()));
        assert_eq!(traced.elections_total, s.elections_total);
        assert_eq!(traced.elections_max, s.elections_max);
        assert_eq!(traced.election_runs, s.election_runs);
        let election_events = sink.with(|st| {
            st.events
                .iter()
                .filter(|e| matches!(e.kind, nbc_obs::EventKind::Election { .. }))
                .count()
        });
        assert_eq!(election_events as u64, s.elections_total);
    }

    #[test]
    fn summary_math() {
        let mut s = SweepSummary::default();
        let good = crate::report::RunReport::assemble(
            vec![crate::report::SiteOutcome::Committed],
            1,
            1,
            1,
            false,
        );
        s.absorb("g".into(), &good);
        assert!(s.all_consistent());
        assert!(s.nonblocking());
        assert_eq!(s.blocking_rate(), 0.0);
    }
}
