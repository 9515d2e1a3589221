//! `pipeline-steady` and `pipeline-faulty`: `Pipeline::run` over
//! seed-generated bank transfers, a fresh pipeline per segment per pass.

use nbc_pipeline::{bank_transfer_txns, Pipeline, PipelineConfig, PipelineTxn, ThroughputReport};
use nbc_simnet::SimRng;
use nbc_txn::{BankWorkload, ProtocolKind};

use super::{add, tracer_for, PassRun, SegmentRun, SinkRef, Workload};
use crate::alloc::uncounted;
use crate::spans::Spans;

/// Sites of every pipeline segment.
const SITES: usize = 4;

/// `(segment, protocol, in-flight limit)` of the fault-free workload.
const STEADY: &[(&str, ProtocolKind, usize)] = &[
    ("c2pc-if8", ProtocolKind::Central2pc, 8),
    ("c3pc-if8", ProtocolKind::Central3pc, 8),
    ("c3pc-if1", ProtocolKind::Central3pc, 1),
    ("c3pc-if64", ProtocolKind::Central3pc, 64),
    ("paxos1-if8", ProtocolKind::Paxos { f: 1 }, 8),
];
/// 4096 accounts: conflicts are rare, the happy path dominates.
const STEADY_ACCOUNTS: usize = 4096;
/// Transactions per steady segment (5 segments: 4000 per pass).
const STEADY_TXNS: usize = 800;

/// `(segment, protocol, in-flight limit)` of the faulty workload.
const FAULTY: &[(&str, ProtocolKind, usize)] =
    &[("c2pc-crash10", ProtocolKind::Central2pc, 8), ("c3pc-crash10", ProtocolKind::Central3pc, 8)];
/// 32 hot accounts: wait-die parks, kills and retries constantly.
const FAULTY_ACCOUNTS: usize = 32;
/// Transactions per faulty segment (2 segments: 6000 per pass).
const FAULTY_TXNS: usize = 3000;
/// Share of transactions whose coordinator crashes mid-round (bench B6's
/// injection point, inside `bank_transfer_txns`).
const FAULTY_CRASH_PCT: u32 = 10;

struct Segment {
    name: &'static str,
    cfg: PipelineConfig,
    /// Opening balance 0: `Pipeline` reads a missing account as 0 and
    /// `total_balance` reads it as the opening balance, so with 0 the
    /// bank needs no load transaction and conservation is `total == 0`.
    bank: BankWorkload,
    batch: Vec<PipelineTxn>,
    crash_free: bool,
    first: Option<ThroughputReport>,
}

/// A pipeline workload: its segments and their generated batches.
pub struct PipelineWorkload {
    segments: Vec<Segment>,
}

impl PipelineWorkload {
    /// `pipeline-steady`.
    pub fn steady(seed: u64) -> Self {
        Self::generate(STEADY, STEADY_ACCOUNTS, STEADY_TXNS, 0, seed)
    }

    /// `pipeline-faulty`.
    pub fn faulty(seed: u64) -> Self {
        Self::generate(FAULTY, FAULTY_ACCOUNTS, FAULTY_TXNS, FAULTY_CRASH_PCT, seed)
    }

    fn generate(
        table: &[(&'static str, ProtocolKind, usize)],
        accounts: usize,
        txns: usize,
        crash_pct: u32,
        seed: u64,
    ) -> Self {
        let segments = table
            .iter()
            .zip(0u64..)
            .map(|(&(name, kind, in_flight), i)| {
                // The analysis `Pipeline::run` will build again on every
                // batch; set-up proves it exists before anything is timed.
                std::hint::black_box(super::analyse(&kind.build(SITES)));
                // One transfer stream and one crash stream per segment,
                // both derived from the run's seed.
                let bank =
                    BankWorkload::new(SITES, accounts, 0, seed.wrapping_mul(31).wrapping_add(i));
                let mut crash_rng = SimRng::seed_from_u64(seed.wrapping_mul(37).wrapping_add(i));
                let batch = bank_transfer_txns(&mut bank.clone(), txns, crash_pct, &mut crash_rng);
                Segment {
                    name,
                    cfg: PipelineConfig::new(SITES, kind).with_in_flight(in_flight),
                    bank,
                    batch,
                    crash_free: crash_pct == 0,
                    first: None,
                }
            })
            .collect();
        Self { segments }
    }
}

/// The per-unit gates of one pipeline segment: money conservation, no
/// lock left behind, every transaction decided, and a report identical to
/// the first pass's.
pub fn gate(
    report: &ThroughputReport,
    first: &ThroughputReport,
    crash_free: bool,
    balance: i64,
    expected_balance: i64,
    locked_keys: usize,
) -> Result<(), String> {
    if balance != expected_balance {
        return Err(format!("money not conserved: total {balance}, expected {expected_balance}"));
    }
    if locked_keys != 0 {
        return Err(format!("{locked_keys} keys still locked after the batch"));
    }
    if report.decided() != report.txns {
        return Err(format!("{} of {} transactions decided", report.decided(), report.txns));
    }
    if crash_free && (report.blocked != 0 || report.reaped_commits != 0) {
        return Err(format!("{} rounds blocked without a single crash", report.blocked));
    }
    if report != first {
        return Err("report differs from the first pass: units are not identical".to_string());
    }
    Ok(())
}

impl Workload for PipelineWorkload {
    fn pass(&mut self, spans: &mut Spans, sink: Option<&SinkRef>) -> PassRun {
        let mut run = PassRun::default();
        for seg in &mut self.segments {
            // Harness work: neither the unit's time nor its allocations.
            let batch = uncounted(|| seg.batch.clone());
            let (mut p, new_ns) = spans.span("pipeline.new", seg.name, |_| {
                let mut p = Pipeline::new(seg.cfg.clone());
                p.set_tracer(tracer_for(sink));
                p
            });
            let (report, run_ns) = spans.span("pipeline.run", seg.name, |_| p.run(batch));
            let (gate, _) = spans.span("bench.gate", seg.name, |_| {
                uncounted(|| {
                    gate(
                        &report,
                        seg.first.as_ref().unwrap_or(&report),
                        seg.crash_free,
                        p.total_balance(&seg.bank),
                        seg.bank.expected_total(),
                        p.locked_keys(),
                    )
                })
            });
            let ((), drop_ns) = spans.span("pipeline.drop", seg.name, |_| drop(p));

            let c = &mut run.counts;
            add(c, "pipeline.txns", report.txns);
            add(c, "pipeline.committed", report.committed);
            add(c, "pipeline.blocked", report.blocked);
            add(c, "pipeline.deferrals", report.deferrals);
            add(c, "pipeline.ticks", report.finished_at);
            add(c, "engine.events", report.events);
            add(c, "simnet.msgs", report.msgs);
            add(c, "wal.syncs", report.wal_syncs);
            add(c, "wal.saved", report.syncs_saved);
            run.segments.push(SegmentRun {
                name: seg.name,
                ns: new_ns + run_ns + drop_ns,
                ops: report.decided(),
                gate,
            });
            seg.first.get_or_insert(report);
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> ThroughputReport {
        ThroughputReport {
            txns: 10,
            committed: 8,
            aborted: 2,
            finished_at: 50,
            ..Default::default()
        }
    }

    #[test]
    fn gates_pass_a_sound_report_and_fire_on_a_broken_one() {
        let r = good();
        assert_eq!(gate(&r, &r, true, 0, 0, 0), Ok(()));

        let err = |e: Result<(), String>| e.expect_err("gate must fire");
        assert!(err(gate(&r, &r, true, -5, 0, 0)).contains("money not conserved"));
        assert!(err(gate(&r, &r, true, 0, 0, 3)).contains("still locked"));

        let undecided = ThroughputReport { committed: 7, ..good() };
        assert!(err(gate(&undecided, &undecided, true, 0, 0, 0)).contains("9 of 10"));

        let blocked = ThroughputReport { aborted: 1, blocked: 1, ..good() };
        assert!(err(gate(&blocked, &blocked, true, 0, 0, 0)).contains("blocked without"));
        assert_eq!(gate(&blocked, &blocked, false, 0, 0, 0), Ok(()), "crashes may block 2PC");

        let drifted = ThroughputReport { events: 1, ..good() };
        assert!(err(gate(&drifted, &r, true, 0, 0, 0)).contains("differs from the first pass"));
    }

    #[test]
    fn a_small_pass_decides_everything_and_repeats_exactly() {
        let _switch = crate::alloc::switch_lock();
        let mut w = PipelineWorkload::generate(FAULTY, 8, 40, 25, 7);
        let mut spans = Spans::new(false);
        let a = w.pass(&mut spans, None);
        let b = w.pass(&mut spans, None);
        assert_eq!(a.first_failure(), None);
        assert_eq!(b.first_failure(), None);
        assert_eq!(a.ops(), 80);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.failed_ops(), 0);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let ops = |w: &PipelineWorkload| {
            format!("{:?}", w.segments[0].batch[..5].iter().map(|t| &t.ops).collect::<Vec<_>>())
        };
        let a = PipelineWorkload::generate(STEADY, 64, 10, 0, 1);
        assert_eq!(ops(&a), ops(&PipelineWorkload::generate(STEADY, 64, 10, 0, 1)));
        assert_ne!(ops(&a), ops(&PipelineWorkload::generate(STEADY, 64, 10, 0, 2)));
    }
}
