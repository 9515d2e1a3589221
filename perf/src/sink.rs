//! The benchmark-owned `nbc_obs::Sink`: counts the events the crates
//! already emit, at the boundary where the work happens, and stamps
//! admissions and decisions with the wall clock so a traced pipeline unit
//! yields real decision latencies. It keeps no event, so it adds no
//! allocation per event beyond the admission map.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use nbc_obs::{Event, EventKind, Sink};

/// Event counts and wall-clock decision latencies of the units it was
/// attached to.
#[derive(Default)]
pub struct LayerSink {
    /// Events seen, by `EventKind::name()`.
    pub by_kind: BTreeMap<&'static str, u64>,
    /// Total events seen.
    pub events: u64,
    /// Bytes of every WAL frame appended.
    pub wal_bytes: u64,
    /// WAL durability requests that paid a physical force.
    pub wal_forces: u64,
    /// Wall-clock nanoseconds from a transaction's admission to its first
    /// decision (or reap) event.
    pub decision_wall_ns: Vec<u64>,
    /// The same interval in simulated ticks.
    pub decision_sim_ticks: Vec<u64>,
    admitted: HashMap<u64, (Instant, u64)>,
}

impl LayerSink {
    /// Events of one kind.
    pub fn count(&self, kind: &str) -> u64 {
        self.by_kind.get(kind).copied().unwrap_or(0)
    }
}

impl Sink for LayerSink {
    fn record(&mut self, event: &Event) {
        self.events += 1;
        *self.by_kind.entry(event.kind.name()).or_insert(0) += 1;
        match &event.kind {
            EventKind::WalAppend { bytes, .. } => self.wal_bytes += bytes,
            EventKind::WalFsync { physical: true } => self.wal_forces += 1,
            EventKind::Admit => {
                if let Some(txn) = event.txn {
                    self.admitted.insert(txn, (Instant::now(), event.time));
                }
            }
            EventKind::Decision { .. } | EventKind::Reap { .. } => {
                if let Some((at, tick)) = event.txn.and_then(|txn| self.admitted.remove(&txn)) {
                    self.decision_wall_ns.push(at.elapsed().as_nanos() as u64);
                    self.decision_sim_ticks.push(event.time - tick);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_by_kind_and_times_admission_to_first_decision() {
        let mut s = LayerSink::default();
        s.record(&Event::new(0, EventKind::Admit).for_txn(9));
        s.record(
            &Event::new(1, EventKind::WalAppend { bytes: 40, record: "progress".into() })
                .at_site(0)
                .for_txn(9),
        );
        s.record(&Event::new(1, EventKind::WalFsync { physical: true }).at_site(0).for_txn(9));
        s.record(&Event::new(1, EventKind::WalFsync { physical: false }).at_site(1).for_txn(9));
        s.record(&Event::new(3, EventKind::Decision { commit: true }).at_site(0).for_txn(9));
        s.record(&Event::new(3, EventKind::Decision { commit: true }).at_site(1).for_txn(9));
        assert_eq!(s.events, 6);
        assert_eq!(s.count("wal-fsync"), 2);
        assert_eq!(s.count("decision"), 2);
        assert_eq!(s.count("election"), 0);
        assert_eq!((s.wal_bytes, s.wal_forces), (40, 1));
        assert_eq!(s.decision_wall_ns.len(), 1, "only the first decision of a txn is timed");
        assert_eq!(s.decision_sim_ticks, vec![3]);
    }
}
