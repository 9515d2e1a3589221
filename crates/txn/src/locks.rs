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

use std::hash::BuildHasher;

use nbc_core::BytesBuildHasher;

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

/// Who holds a key. An exclusive lock has exactly one holder, so only
/// shared locks carry a list.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Holders {
    /// Nobody: the key was locked once and its last holder has gone.
    Free,
    Exclusive(u64),
    Shared(Vec<u64>),
}

/// One site's lock table.
#[derive(Debug, Default, Clone)]
pub struct LockManager {
    /// Every key ever locked here, to its entry in `entries`: an open
    /// addressing table (linear probing, at most half full) of entry + 1,
    /// 0 for an empty slot. An entry stays, marked free, after its last
    /// holder goes, so a request on a key the site has seen builds nothing
    /// and the table never deletes; it grows to the keys the site's
    /// transactions touch, as the store does.
    slots: Vec<u32>,
    /// Per entry, its key's hash and the end of its bytes in `bytes`
    /// (they start where the previous entry's end): a key is hashed once
    /// per request, and never again when the slots grow.
    keys: Vec<(u64, usize)>,
    /// Every key's bytes, interned in entry order: a key the site has not
    /// seen costs one copy into this buffer, not an allocation of its own.
    bytes: Vec<u8>,
    entries: Vec<Holders>,
    /// One `(txn, entry)` per holder of each entry, sorted by transaction,
    /// so a transaction's locks are one run found by binary search:
    /// releasing and counting cost what the transaction holds, not what
    /// the table holds, and hash no key.
    held: Vec<(u64, usize)>,
    /// Entries that are not free.
    locked: usize,
}

impl LockManager {
    /// Empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request `mode` on `key` for `txn`.
    pub fn request(&mut self, txn: u64, key: &[u8], mode: LockMode) -> LockOutcome {
        let entry = self.entry(key);
        let holders = &mut self.entries[entry];
        let sharers = match holders {
            Holders::Free => {
                *holders = match mode {
                    LockMode::Exclusive => Holders::Exclusive(txn),
                    LockMode::Shared => Holders::Shared(vec![txn]),
                };
                self.locked += 1;
                note_held(&mut self.held, txn, entry);
                return LockOutcome::Granted;
            }
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
                note_held(&mut self.held, txn, entry);
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

    /// The entry of `key`, made free if the site has not seen it. A key
    /// seen before — a refusal under contention, a re-request — costs one
    /// hash and one probe, and leaves the table untouched.
    fn entry(&mut self, key: &[u8]) -> usize {
        let hash = BytesBuildHasher::default().hash_one(key);
        if let Some(entry) = self.find(hash, key) {
            return entry;
        }
        let entry = self.entries.len();
        if 2 * (entry + 1) > self.slots.len() {
            self.grow();
        }
        self.place(hash, entry);
        self.bytes.extend_from_slice(key);
        self.keys.push((hash, self.bytes.len()));
        self.entries.push(Holders::Free);
        entry
    }

    /// The entry of `key`, whose hash is `hash`, if the site has seen it.
    fn find(&self, hash: u64, key: &[u8]) -> Option<usize> {
        self.probe(hash)
            .map_while(|i| self.slots[i].checked_sub(1))
            .map(|entry| entry as usize)
            .find(|&entry| self.keys[entry].0 == hash && self.key(entry) == key)
    }

    /// Put `entry` in the first empty slot `hash` probes.
    fn place(&mut self, hash: u64, entry: usize) {
        let slot = self.probe(hash).find(|&i| self.slots[i] == 0).expect("slots half empty");
        self.slots[slot] = u32::try_from(entry + 1).expect("fewer than 2^32 lock keys");
    }

    /// The slots `hash` probes, in order: every slot once.
    fn probe(&self, hash: u64) -> impl Iterator<Item = usize> {
        let mask = self.slots.len().wrapping_sub(1);
        (0..self.slots.len()).map(move |step| (hash as usize).wrapping_add(step) & mask)
    }

    /// The bytes of `entry`'s key.
    fn key(&self, entry: usize) -> &[u8] {
        let start = entry.checked_sub(1).map_or(0, |before| self.keys[before].1);
        &self.bytes[start..self.keys[entry].1]
    }

    /// Double the slots (16 at first) and place every entry again from its
    /// stored hash.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(16);
        self.slots.clear();
        self.slots.resize(len, 0);
        for entry in 0..self.keys.len() {
            self.place(self.keys[entry].0, entry);
        }
    }

    /// The run of `held` that is `txn`'s.
    fn held_range(&self, txn: u64) -> std::ops::Range<usize> {
        let start = self.held.partition_point(|&(t, _)| t < txn);
        start..start + self.held[start..].partition_point(|&(t, _)| t == txn)
    }

    /// Release every lock held by `txn` (strict 2PL: at commit/abort).
    pub fn release_all(&mut self, txn: u64) {
        for (_, entry) in self.held.drain(self.held_range(txn)) {
            let holders = &mut self.entries[entry];
            match holders {
                Holders::Shared(sharers) if sharers.len() > 1 => sharers.retain(|&t| t != txn),
                _ => {
                    *holders = Holders::Free;
                    self.locked -= 1;
                }
            }
        }
    }

    /// Locks currently held by `txn`.
    pub fn held_by(&self, txn: u64) -> usize {
        self.held_range(txn).len()
    }

    /// Total number of locked keys.
    pub fn locked_keys(&self) -> usize {
        self.locked
    }
}

/// Record in `held` that `txn` now holds `entry`, after its other keys.
fn note_held(held: &mut Vec<(u64, usize)>, txn: u64, entry: usize) {
    let at = held.partition_point(|&(t, _)| t <= txn);
    held.insert(at, (txn, entry));
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
            (&lm.slots, &lm.keys, &lm.bytes) == (&before.slots, &before.keys, &before.bytes)
                && lm.entries == before.entries
                && lm.held == before.held
                && lm.locked == before.locked,
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
            Holders::Free => &[],
            Holders::Exclusive(holder) => std::slice::from_ref(holder),
            Holders::Shared(sharers) => sharers,
        }
    }

    /// `held_by` the slow way: scan the whole table.
    fn scan_held_by(lm: &LockManager, txn: u64) -> usize {
        lm.entries.iter().filter(|e| holders(e).contains(&txn)).count()
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
            // Entries outlive their holders, marked free: every other one
            // has a holder, and they are exactly the keys the model locks.
            let free = |e: &&Holders| matches!(e, Holders::Free);
            assert!(
                lm.entries.iter().filter(|e| !free(e)).all(|e| !holders(e).is_empty()),
                "step {step}: a locked entry with no holder"
            );
            let mut model_keys: Vec<u8> = model.0.iter().map(|&(k, _, _)| k).collect();
            model_keys.sort_unstable();
            model_keys.dedup();
            assert_eq!(lm.locked_keys(), model_keys.len(), "step {step}");
            assert_eq!(lm.entries.iter().filter(|e| !free(e)).count(), lm.locked_keys(), "{step}");
            assert_eq!(lm.held.len(), model.0.len(), "step {step}");
        }
        for t in 0..12 {
            lm.release_all(t);
        }
        assert_eq!((lm.locked_keys(), lm.held.len()), (0, 0));
        assert!(lm.entries.iter().all(|e| *e == Holders::Free), "{lm:?}");
    }

    #[test]
    fn a_released_key_stays_free_and_is_granted_again_in_place() {
        let mut lm = LockManager::new();
        lm.request(1, b"k", LockMode::Shared);
        lm.request(2, b"k", LockMode::Shared);
        lm.release_all(1);
        assert_eq!(lm.locked_keys(), 1, "2 still shares k");
        lm.release_all(2);
        assert_eq!((lm.locked_keys(), lm.keys.len()), (0, 1));
        assert_eq!(lm.request(3, b"k", LockMode::Exclusive), LockOutcome::Granted);
        assert_eq!((lm.locked_keys(), lm.keys.len(), lm.entries.len()), (1, 1, 1));
    }

    /// Keys of every length up to a few bytes, the empty one and keys that
    /// are prefixes of others among them, through several growths of the
    /// slots: each is interned once, found again by its bytes, and a
    /// request on a key seen before leaves the table as it was.
    #[test]
    fn every_key_is_interned_once_and_found_again_after_the_slots_grow() {
        let mut lm = LockManager::new();
        let keys: Vec<Vec<u8>> = (0..3_000u32).map(|i| i.to_string().into_bytes()).collect();
        let keys: Vec<&[u8]> =
            std::iter::once(&[][..]).chain(keys.iter().map(Vec::as_slice)).collect();
        for (txn, key) in keys.iter().enumerate() {
            assert_eq!(lm.request(txn as u64, key, LockMode::Exclusive), LockOutcome::Granted);
        }
        assert_eq!(lm.keys.len(), keys.len());
        assert_eq!(lm.bytes.len(), keys.iter().map(|k| k.len()).sum::<usize>());
        assert!(lm.slots.len() >= 2 * keys.len(), "at most half full");
        let before = lm.clone();
        for (txn, key) in keys.iter().enumerate() {
            let entry = lm.find(BytesBuildHasher::default().hash_one(key), key);
            assert_eq!(entry, Some(txn), "{key:?}");
            assert_eq!(lm.key(txn), *key);
            assert_eq!(lm.request(txn as u64, key, LockMode::Shared), LockOutcome::Granted);
            assert_eq!(lm.request(txn as u64 + 1, key, LockMode::Shared), LockOutcome::Die);
        }
        assert_unchanged(&lm, &before, "every key re-requested");
    }
}
