//! A per-site lock manager with strict two-phase locking and wait-die
//! deadlock avoidance.
//!
//! Wait-die orders transactions by id (smaller id = older): an older
//! transaction may wait for a younger lock holder, but a younger requester
//! conflicting with an older holder *dies* immediately. Deadlock is
//! impossible (waits only go old → young), and a died transaction's site
//! votes no in the commit protocol — the paper's organic source of
//! unilateral aborts.
//!
//! This manager resolves requests eagerly: because the scheduler takes a
//! transaction's locks at admission, "waiting" surfaces as
//! [`LockOutcome::Wait`] and the caller retries after the conflicting
//! transaction finishes.

use std::collections::btree_map::{BTreeMap, Entry::Occupied};
use std::sync::Arc;

/// Lock modes.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LockMode {
    /// Shared (read) lock.
    Shared,
    /// Exclusive (write) lock.
    Exclusive,
}

/// Result of a lock request.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LockOutcome {
    /// Lock granted.
    Granted,
    /// The requester is older than every conflicting holder: it may wait.
    Wait,
    /// The requester is younger than some conflicting holder: wait-die
    /// kills it; its site votes no.
    Die,
}

/// Who holds a locked key. An exclusive lock has exactly one holder, so
/// only shared locks carry a list.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Holders {
    Exclusive(u64),
    Shared(Vec<u64>),
}

/// One site's lock table.
#[derive(Debug, Default, Clone)]
pub struct LockManager {
    /// Locked keys only: an entry leaves with its last holder.
    table: BTreeMap<Arc<[u8]>, Holders>,
    /// One `(txn, key)` per holder of each entry, sorted by transaction, so
    /// a transaction's locks are one run found by binary search: releasing
    /// and counting cost what the transaction holds, not what the table
    /// holds. The key bytes are the table's own, shared.
    held: Vec<(u64, Arc<[u8]>)>,
}

impl LockManager {
    /// Empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request `mode` on `key` for `txn`.
    pub fn request(&mut self, txn: u64, key: &[u8], mode: LockMode) -> LockOutcome {
        // Looked up before anything is built: a refusal — under contention
        // the common outcome — and a re-request cost one descent of the
        // table and leave it untouched; only a new entry pays for its key.
        let Some(holders) = self.table.get_mut(key) else {
            let key: Arc<[u8]> = key.into();
            let holders = match mode {
                LockMode::Exclusive => Holders::Exclusive(txn),
                LockMode::Shared => Holders::Shared(vec![txn]),
            };
            self.table.insert(Arc::clone(&key), holders);
            self.note_held(txn, key);
            return LockOutcome::Granted;
        };
        let sharers = match holders {
            // Re-entrant: the exclusive holder may ask for anything.
            Holders::Exclusive(holder) if *holder == txn => return LockOutcome::Granted,
            Holders::Exclusive(holder) => return wait_die(txn, &[*holder]),
            Holders::Shared(sharers) => sharers,
        };
        let holds = sharers.contains(&txn);
        match mode {
            LockMode::Shared if holds => {}
            LockMode::Shared => {
                sharers.push(txn);
                let (key, _) = self.table.get_key_value(key).expect("found above");
                self.note_held(txn, Arc::clone(key));
            }
            // Upgrade shared -> exclusive: the sole sharer upgrades in place.
            LockMode::Exclusive if holds && sharers.len() == 1 => {
                *holders = Holders::Exclusive(txn);
            }
            // Everyone else sharing the key conflicts.
            LockMode::Exclusive => return wait_die(txn, sharers),
        }
        LockOutcome::Granted
    }

    /// Record that `txn` now holds `key`, after its other keys.
    fn note_held(&mut self, txn: u64, key: Arc<[u8]>) {
        let at = self.held.partition_point(|&(t, _)| t <= txn);
        self.held.insert(at, (txn, key));
    }

    /// The run of `held` that is `txn`'s.
    fn held_range(&self, txn: u64) -> std::ops::Range<usize> {
        let start = self.held.partition_point(|&(t, _)| t < txn);
        start..start + self.held[start..].partition_point(|&(t, _)| t == txn)
    }

    /// Release every lock held by `txn` (strict 2PL: at commit/abort).
    pub fn release_all(&mut self, txn: u64) {
        for (_, key) in self.held.drain(self.held_range(txn)) {
            let Occupied(mut entry) = self.table.entry(key) else {
                unreachable!("a held key is in the table");
            };
            match entry.get_mut() {
                Holders::Shared(sharers) if sharers.len() > 1 => sharers.retain(|&t| t != txn),
                _ => drop(entry.remove()),
            }
        }
    }

    /// Locks currently held by `txn`.
    pub fn held_by(&self, txn: u64) -> usize {
        self.held_range(txn).len()
    }

    /// Total number of locked keys.
    pub fn locked_keys(&self) -> usize {
        self.table.len()
    }
}

/// Wait-die against the other transactions among `holders` (an upgrading
/// sharer is one of them itself): a requester older (smaller id) than all
/// of them waits, a younger one dies.
fn wait_die(requester: u64, holders: &[u64]) -> LockOutcome {
    if holders.iter().all(|&holder| requester <= holder) {
        LockOutcome::Wait
    } else {
        LockOutcome::Die
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_locks_coexist() {
        let mut lm = LockManager::new();
        assert_eq!(lm.request(1, b"k", LockMode::Shared), LockOutcome::Granted);
        assert_eq!(lm.request(2, b"k", LockMode::Shared), LockOutcome::Granted);
        assert_eq!(lm.locked_keys(), 1);
    }

    #[test]
    fn exclusive_conflicts_wait_die() {
        let mut lm = LockManager::new();
        assert_eq!(lm.request(2, b"k", LockMode::Exclusive), LockOutcome::Granted);
        // Older requester (1) waits.
        assert_eq!(lm.request(1, b"k", LockMode::Exclusive), LockOutcome::Wait);
        // Younger requester (3) dies.
        assert_eq!(lm.request(3, b"k", LockMode::Exclusive), LockOutcome::Die);
        // Shared request against exclusive also conflicts.
        assert_eq!(lm.request(3, b"k", LockMode::Shared), LockOutcome::Die);
    }

    #[test]
    fn release_unblocks() {
        let mut lm = LockManager::new();
        lm.request(2, b"k", LockMode::Exclusive);
        lm.release_all(2);
        assert_eq!(lm.request(3, b"k", LockMode::Exclusive), LockOutcome::Granted);
        assert_eq!(lm.locked_keys(), 1);
    }

    #[test]
    fn reentrant_and_upgrade() {
        let mut lm = LockManager::new();
        assert_eq!(lm.request(1, b"k", LockMode::Shared), LockOutcome::Granted);
        assert_eq!(lm.request(1, b"k", LockMode::Shared), LockOutcome::Granted);
        // Sole holder upgrades in place.
        assert_eq!(lm.request(1, b"k", LockMode::Exclusive), LockOutcome::Granted);
        // Exclusive holder asking for shared is a no-op.
        assert_eq!(lm.request(1, b"k", LockMode::Shared), LockOutcome::Granted);
    }

    #[test]
    fn upgrade_with_other_sharers_is_wait_die() {
        let mut lm = LockManager::new();
        lm.request(1, b"k", LockMode::Shared);
        lm.request(3, b"k", LockMode::Shared);
        // 1 is older than 3: it waits for the upgrade.
        assert_eq!(lm.request(1, b"k", LockMode::Exclusive), LockOutcome::Wait);
        // 3 is younger than 1: it dies trying to upgrade.
        assert_eq!(lm.request(3, b"k", LockMode::Exclusive), LockOutcome::Die);
    }

    #[test]
    fn held_by_counts() {
        let mut lm = LockManager::new();
        lm.request(1, b"a", LockMode::Shared);
        lm.request(1, b"b", LockMode::Exclusive);
        lm.request(2, b"c", LockMode::Exclusive);
        assert_eq!(lm.held_by(1), 2);
        assert_eq!(lm.held_by(2), 1);
        lm.release_all(1);
        assert_eq!(lm.held_by(1), 0);
        assert_eq!(lm.locked_keys(), 1);
    }

    /// Panic unless `lm` has the table and the `held` list of `before`.
    #[track_caller]
    fn assert_unchanged(lm: &LockManager, before: &LockManager, what: &str) {
        assert!(
            lm.table == before.table && lm.held == before.held,
            "{what}: {lm:?} from {before:?}"
        );
    }

    #[test]
    fn a_refused_request_leaves_the_table_and_the_held_list_untouched() {
        let mut lm = LockManager::new();
        lm.request(2, b"x", LockMode::Exclusive);
        lm.request(2, b"s", LockMode::Shared);
        lm.request(4, b"s", LockMode::Shared);
        lm.request(1, b"mine", LockMode::Exclusive);
        lm.request(3, b"mine too", LockMode::Shared);
        let before = lm.clone();
        for (txn, key, mode, refusal) in [
            (1, b"x", LockMode::Exclusive, LockOutcome::Wait),
            (1, b"x", LockMode::Shared, LockOutcome::Wait),
            (3, b"x", LockMode::Exclusive, LockOutcome::Die),
            (3, b"x", LockMode::Shared, LockOutcome::Die),
            // Against sharers: a stranger's exclusive request, a sharer's upgrade.
            (1, b"s", LockMode::Exclusive, LockOutcome::Wait),
            (3, b"s", LockMode::Exclusive, LockOutcome::Die),
            (2, b"s", LockMode::Exclusive, LockOutcome::Wait),
            (4, b"s", LockMode::Exclusive, LockOutcome::Die),
        ] {
            assert_eq!(lm.request(txn, key, mode), refusal, "{txn} asks {mode:?} on {key:?}");
            assert_unchanged(&lm, &before, &format!("{txn} was refused {mode:?} on {key:?}"));
        }
    }

    fn holders(entry: &Holders) -> &[u64] {
        match entry {
            Holders::Exclusive(holder) => std::slice::from_ref(holder),
            Holders::Shared(sharers) => sharers,
        }
    }

    /// `held_by` the slow way: scan the whole table.
    fn scan_held_by(lm: &LockManager, txn: u64) -> usize {
        lm.table.values().filter(|e| holders(e).contains(&txn)).count()
    }

    /// The lock table as a flat `(key, txn, mode)` list: the rules spelled
    /// out with no structure to keep in step.
    #[derive(Default)]
    struct Model(Vec<(u8, u64, LockMode)>);

    impl Model {
        fn request(&mut self, txn: u64, key: u8, mode: LockMode) -> LockOutcome {
            let conflicting: Vec<u64> = self
                .0
                .iter()
                .filter(|&&(k, t, held)| {
                    k == key && t != txn && stronger(mode, held) == LockMode::Exclusive
                })
                .map(|&(_, t, _)| t)
                .collect();
            if !conflicting.is_empty() {
                return wait_die(txn, &conflicting);
            }
            match self.0.iter_mut().find(|(k, t, _)| (*k, *t) == (key, txn)) {
                Some((_, _, held)) => *held = stronger(mode, *held),
                None => self.0.push((key, txn, mode)),
            }
            LockOutcome::Granted
        }
    }

    fn stronger(a: LockMode, b: LockMode) -> LockMode {
        if a == LockMode::Exclusive {
            a
        } else {
            b
        }
    }

    #[test]
    fn random_requests_match_the_model_and_held_lists_a_full_table_scan() {
        use nbc_simnet::SimRng;
        let mut rng = SimRng::seed_from_u64(17);
        let (mut lm, mut model) = (LockManager::new(), Model::default());
        for step in 0..4_000 {
            let txn = rng.gen_range(0u64..12);
            if rng.gen_ratio(1, 5) {
                lm.release_all(txn);
                model.0.retain(|&(_, t, _)| t != txn);
                assert_eq!(scan_held_by(&lm, txn), 0, "step {step}: release_all left a lock");
            } else if rng.gen_ratio(1, 4) && !model.0.is_empty() {
                // Asking again for what a transaction holds, at the strength it
                // holds it or weaker, is granted and changes nothing — what a
                // retry that skips the operations already locked relies on.
                let (key, holder, held) =
                    model.0[rng.gen_range(0u32..model.0.len() as u32) as usize];
                let mode = if rng.gen_bool(0.5) { LockMode::Shared } else { held };
                let before = lm.clone();
                assert_eq!(lm.request(holder, &[key], mode), LockOutcome::Granted, "step {step}");
                assert_eq!(model.request(holder, key, mode), LockOutcome::Granted, "step {step}");
                assert_unchanged(&lm, &before, &format!("step {step}: a held lock re-requested"));
            } else {
                let key = rng.gen_range(0u32..10) as u8;
                let mode = if rng.gen_bool(0.5) { LockMode::Shared } else { LockMode::Exclusive };
                assert_eq!(lm.request(txn, &[key], mode), model.request(txn, key, mode), "{step}");
            }
            for t in 0..12 {
                assert_eq!(lm.held_by(t), scan_held_by(&lm, t), "step {step}, txn {t}");
                assert_eq!(lm.held_by(t), model.0.iter().filter(|e| e.1 == t).count(), "{step}");
            }
            assert!(lm.table.values().all(|e| !holders(e).is_empty()), "step {step}: empty entry");
            assert_eq!(lm.held.len(), model.0.len(), "step {step}");
        }
        for t in 0..12 {
            lm.release_all(t);
        }
        assert_eq!((lm.locked_keys(), lm.held.len()), (0, 0));
    }
}
