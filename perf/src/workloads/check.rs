//! `check-exhaustive`: `run_check` at one thread, a fresh `CheckOptions`
//! (and, inside `run_check`, a fresh `Analysis` and dedup store) per
//! segment per pass.

use nbc_check::{run_check, CheckOptions, CheckReport};
use nbc_core::protocols::central_3pc;
use nbc_core::Protocol;
use nbc_paxos::paxos_commit;

use super::{add, verdict, PassRun, SegmentRun, SinkRef, Workload};
use crate::spans::Spans;

struct Segment {
    name: &'static str,
    protocol: Protocol,
    /// `None` explores every vote plan.
    plan: Option<Vec<bool>>,
    /// The theorem verdict the report must carry.
    nonblocking: bool,
    first: Option<Fingerprint>,
}

/// What must repeat exactly from pass to pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Distinct states explored.
    pub states: u64,
    /// Scheduler actions applied.
    pub actions: u64,
    /// States whose commuting macro-step was taken.
    pub fused: u64,
}

/// The check workload: two protocols and their vote plans. The issue's
/// third, central 2PC n=4 all-yes (9 270 states, ≈ 135 ms), does not fit
/// beside them — the three together take ≈ 290 ms, over the 250 ms a pass
/// may take — and is measured as a traced-run probe instead
/// (`check.states_per_s.c2pc-4`).
pub struct CheckWorkload {
    segments: Vec<Segment>,
}

/// The all-yes vote plan of `p`: one vote per *site*, acceptors included
/// (`paxos:1` n=2 has 5 sites). A plan of any other length panics inside
/// the engine instead of returning an error (README, "Traps").
pub fn all_yes(p: &Protocol) -> Vec<bool> {
    vec![true; p.n_sites()]
}

impl CheckWorkload {
    /// Build the protocols, their analyses and plans. No random input: the
    /// run's seed is deliberately *not* passed on as `CheckOptions::seed`.
    /// That seed only rotates the traversal order — verdicts and counts are
    /// order-independent — but time-to-verdict is not: seeds 1 to 4 read
    /// 176, 167, 170 and 163 ms per pass, each repeating to ±1 % (measured
    /// on an earlier revision's pass of 2PC n=4 and 3PC n=3). An input
    /// that moves the time by 8 % with identical outputs would spend the
    /// whole bound on the choice of seed; the canonical order (`None`,
    /// what `nbc check` runs by default) is measured instead.
    pub fn new() -> Self {
        let paxos = paxos_commit(2, 1);
        let segments = vec![
            Segment {
                name: "c3pc-3",
                plan: None,
                protocol: central_3pc(3),
                nonblocking: true,
                first: None,
            },
            // Skeen's theorem calls Paxos Commit BLOCKING (its promise is
            // conditional on the acceptor quorum); the checker's own
            // nonblocking oracle, part of `ok()`, holds it to that promise.
            Segment {
                name: "paxos1-2",
                plan: Some(all_yes(&paxos)),
                protocol: paxos,
                nonblocking: false,
                first: None,
            },
        ];
        for s in &segments {
            std::hint::black_box(super::analyse(&s.protocol));
        }
        Self { segments }
    }
}

/// The per-unit gates of one check segment: every oracle passed, the
/// exploration was exhaustive, an all-plans run witnessed every analytic
/// state, the theorem verdict is the expected one, and the counts equal
/// the first pass's.
pub fn gate(
    report: &CheckReport,
    all_plans: bool,
    expect_nonblocking: bool,
    first: &Fingerprint,
) -> Result<(), String> {
    if !report.ok() {
        let f = &report.failures[0];
        return Err(format!("oracle {} failed: {}", f.oracle, f.detail));
    }
    if report.stats.truncated {
        return Err("exploration truncated: not exhaustive".to_string());
    }
    if all_plans && !report.prediction_complete {
        return Err(format!("{} analytic slots unwitnessed", report.unwitnessed.len()));
    }
    if report.certified_nonblocking != expect_nonblocking {
        return Err(format!(
            "theorem says {}, expected {}",
            verdict(report.certified_nonblocking),
            verdict(expect_nonblocking)
        ));
    }
    if fingerprint(report) != *first {
        return Err("counts differ from the first pass: units are not identical".to_string());
    }
    Ok(())
}

/// The exact counts of a report.
pub fn fingerprint(report: &CheckReport) -> Fingerprint {
    Fingerprint {
        states: report.stats.distinct_states as u64,
        actions: report.stats.actions,
        fused: report.stats.fused,
    }
}

impl Workload for CheckWorkload {
    fn pass(&mut self, spans: &mut Spans, _sink: Option<&SinkRef>) -> PassRun {
        let mut run = PassRun::default();
        for seg in &mut self.segments {
            let options =
                CheckOptions { vote_plan: seg.plan.clone(), threads: 1, ..CheckOptions::default() };
            let (report, ns) = spans.span("check.run_check", seg.name, |_| {
                run_check(&seg.protocol, options).expect("catalog protocols analyse")
            });
            let fp = fingerprint(&report);
            let (gate, _) = spans.span("bench.gate", seg.name, |_| {
                gate(
                    &report,
                    seg.plan.is_none(),
                    seg.nonblocking,
                    seg.first.as_ref().unwrap_or(&fp),
                )
            });
            let ((), drop_ns) = spans.span("check.drop", seg.name, |_| drop(report));

            add(&mut run.counts, "check.states", fp.states);
            add(&mut run.counts, "check.actions", fp.actions);
            add(&mut run.counts, "check.fused", fp.fused);
            run.segments.push(SegmentRun {
                name: seg.name,
                ns: ns + drop_ns,
                ops: fp.states,
                gate,
            });
            seg.first.get_or_insert(fp);
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_report() -> CheckReport {
        run_check(&central_3pc(2), CheckOptions::default()).expect("analyses")
    }

    #[test]
    fn gates_pass_a_sound_report_and_fire_on_a_broken_one() {
        let r = small_report();
        let fp = fingerprint(&r);
        assert_eq!(gate(&r, true, true, &fp), Ok(()));

        let err = |e: Result<(), String>| e.expect_err("gate must fire");
        assert!(err(gate(&r, true, false, &fp)).contains("expected BLOCKING"));
        let other = Fingerprint { states: fp.states + 1, ..fp.clone() };
        assert!(err(gate(&r, true, true, &other)).contains("differ from the first pass"));

        let mut truncated = small_report();
        truncated.stats.truncated = true;
        assert!(err(gate(&truncated, true, true, &fp)).contains("truncated"));

        let mut incomplete = small_report();
        incomplete.prediction_complete = false;
        assert!(err(gate(&incomplete, true, true, &fp)).contains("unwitnessed"));
        assert_eq!(gate(&incomplete, false, true, &fp), Ok(()), "single plans cannot be complete");

        let mut failed = small_report();
        failed.failures.push(nbc_check::OracleFailure {
            oracle: "consistency",
            detail: "mixed commit and abort".to_string(),
            counterexample: None,
        });
        assert!(err(gate(&failed, true, true, &fp)).contains("oracle consistency failed"));
    }

    #[test]
    fn plans_cover_every_site_acceptors_included() {
        let w = CheckWorkload::new();
        assert_eq!(w.segments[1].name, "paxos1-2");
        assert_eq!(
            w.segments[1].plan.as_ref().map(Vec::len),
            Some(5),
            "2 participants, 3 acceptors"
        );
    }
}
