//! Pipeline transaction descriptions: operations, per-round crash
//! schedules, and the bank-transfer workload generator used by the CLI,
//! the benches, and the property tests.

use nbc_engine::{CrashPoint, CrashSpec, TransitionProgress};
use nbc_simnet::SimRng;
use nbc_txn::{BankWorkload, Op};

/// One transaction submitted to the pipeline: its operations plus the
/// crash schedule injected into its commit round.
#[derive(Clone, Debug, Default)]
pub struct PipelineTxn {
    /// Data operations, executed under wait-die locking at admission.
    pub ops: Vec<Op>,
    /// Crashes injected into this transaction's commit round.
    pub crashes: Vec<CrashSpec>,
}

impl PipelineTxn {
    /// A crash-free transaction.
    pub fn new(ops: Vec<Op>) -> Self {
        Self { ops, crashes: Vec::new() }
    }

    /// Attach a crash schedule for this transaction's commit round.
    pub fn with_crashes(mut self, crashes: Vec<CrashSpec>) -> Self {
        self.crashes = crashes;
        self
    }

    /// A crash-free transaction from a borrowed operation list.
    pub fn from_ops(ops: &[Op]) -> Self {
        Self::new(ops.to_vec())
    }
}

/// Generate `count` random bank transfers as pipeline transactions, each
/// with probability `crash_pct`% of a coordinator crash partway through
/// its second transition (the same injection point as bench B4).
pub fn bank_transfer_txns(
    w: &mut BankWorkload,
    count: usize,
    crash_pct: u32,
    rng: &mut SimRng,
) -> Vec<PipelineTxn> {
    (0..count)
        .map(|_| {
            let (from, to, amount) = w.random_transfer();
            let ops = w.transfer_ops(from, to, amount);
            let crashes = if crash_pct > 0 && rng.gen_ratio(crash_pct, 100) {
                vec![CrashSpec {
                    site: 0,
                    point: CrashPoint::OnTransition {
                        ordinal: 2,
                        progress: TransitionProgress::AfterMsgs(rng.gen_range(0u32..=2)),
                    },
                    recover_at: None,
                }]
            } else {
                Vec::new()
            };
            PipelineTxn::new(ops).with_crashes(crashes)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_borrowed_ops() {
        let ops = vec![
            Op::Read { site: 0, key: b"a".to_vec() },
            Op::Write { site: 1, key: b"b".to_vec(), value: b"v".to_vec() },
        ];
        let t = PipelineTxn::from_ops(&ops);
        assert_eq!(t.ops, ops);
        assert!(t.crashes.is_empty());
    }

    #[test]
    fn generator_shapes_transfers() {
        let mut w = BankWorkload::new(3, 12, 1_000, 9);
        let mut rng = SimRng::seed_from_u64(9);
        let txns = bank_transfer_txns(&mut w, 20, 50, &mut rng);
        assert_eq!(txns.len(), 20);
        for t in &txns {
            assert_eq!(t.ops.len(), 2);
            let deltas: i64 = t
                .ops
                .iter()
                .map(|o| match o {
                    Op::AddI64 { delta, .. } => *delta,
                    _ => panic!("transfers are AddI64 pairs"),
                })
                .sum();
            assert_eq!(deltas, 0, "transfer legs must cancel");
        }
        assert!(txns.iter().any(|t| !t.crashes.is_empty()), "50% crash rate yields some");
        assert!(txns.iter().any(|t| t.crashes.is_empty()));
    }
}
