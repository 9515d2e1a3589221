//! Aggregate throughput metrics for a pipeline run.

use nbc_simnet::Time;
use nbc_storage::SyncStats;

/// Everything a pipeline run measured, in integer simulation units so two
/// runs with the same seed produce bit-identical reports (`Eq` is the
/// determinism test's whole assertion).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ThroughputReport {
    /// Transactions submitted to this run.
    pub txns: u64,
    /// Rounds that decided commit while in flight.
    pub committed: u64,
    /// Rounds that decided abort while in flight (no-votes from lock
    /// conflicts, or crash-induced aborts).
    pub aborted: u64,
    /// Rounds that ended blocked and were later reaped by the
    /// termination/recovery path.
    pub blocked: u64,
    /// Of the blocked rounds, how many the reaper committed (a durable
    /// decision existed at a crashed site).
    pub reaped_commits: u64,
    /// Admission attempts that had to wait for older lock holders
    /// (wait-die backpressure events).
    pub deferrals: u64,
    /// Simulation time at which the last event of the run fired.
    pub finished_at: Time,
    /// Total engine events across all rounds.
    pub events: u64,
    /// Total protocol messages across all rounds.
    pub msgs: u64,
    /// Median commit latency (admission to decision, sim ticks).
    pub p50_commit_latency: Time,
    /// 99th-percentile commit latency (sim ticks).
    pub p99_commit_latency: Time,
    /// WAL sync requests issued during the run (all sites).
    pub wal_syncs: u64,
    /// Physical WAL forces actually performed (all sites).
    pub wal_forces: u64,
    /// Syncs absorbed by group commit: `wal_syncs - wal_forces`.
    pub syncs_saved: u64,
}

impl ThroughputReport {
    /// Rounds that reached *some* outcome (commit, abort, or reap).
    pub fn decided(&self) -> u64 {
        self.committed + self.aborted + self.blocked
    }

    /// Decided transactions per 1000 simulation ticks — the pipeline's
    /// throughput figure (sim time stands in for wall time).
    pub fn txns_per_kilotick(&self) -> f64 {
        self.decided() as f64 * 1000.0 / self.finished_at.max(1) as f64
    }

    /// Fold in the WAL sync counters accumulated between two snapshots.
    pub(crate) fn set_sync_stats(&mut self, requested: u64, physical: u64) {
        self.wal_syncs = requested;
        self.wal_forces = physical;
        self.syncs_saved = requested - physical;
    }

    /// Convenience over [`ThroughputReport::set_sync_stats`] for a stats
    /// delta.
    pub(crate) fn set_sync_delta(&mut self, delta: SyncStats) {
        self.set_sync_stats(delta.requested, delta.physical);
    }
}

impl std::fmt::Display for ThroughputReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} txns in {} ticks ({:.2} txn/ktick): {} committed, {} aborted, \
             {} blocked ({} reap-committed), {} deferrals",
            self.txns,
            self.finished_at,
            self.txns_per_kilotick(),
            self.committed,
            self.aborted,
            self.blocked,
            self.reaped_commits,
            self.deferrals,
        )?;
        writeln!(
            f,
            "  latency p50={} p99={} ticks; {} events, {} msgs",
            self.p50_commit_latency, self.p99_commit_latency, self.events, self.msgs
        )?;
        write!(
            f,
            "  wal: {} syncs requested, {} forced, {} saved by group commit",
            self.wal_syncs, self.wal_forces, self.syncs_saved
        )
    }
}

/// `values` must be sorted ascending; returns the `pct`-th percentile by
/// nearest-rank, or 0 for an empty slice.
pub(crate) fn percentile(values: &[Time], pct: u64) -> Time {
    if values.is_empty() {
        return 0;
    }
    let rank = (pct * values.len() as u64).div_ceil(100).max(1) as usize;
    values[rank.min(values.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<Time> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 99), 7);
    }

    #[test]
    fn report_math_and_display() {
        let mut r = ThroughputReport {
            txns: 10,
            committed: 7,
            aborted: 2,
            blocked: 1,
            finished_at: 500,
            ..Default::default()
        };
        r.set_sync_stats(40, 25);
        assert_eq!(r.decided(), 10);
        assert_eq!(r.syncs_saved, 15);
        assert!((r.txns_per_kilotick() - 20.0).abs() < 1e-9);
        let text = format!("{r}");
        assert!(text.contains("saved by group commit"));
    }
}
