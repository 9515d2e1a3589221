//! A transactional key-value store with deferred updates.
//!
//! Writes are staged per transaction and applied to the base map only when
//! the commit decision arrives, after the redo images have been logged.
//! An abort simply discards the stage; a crash before the decision loses
//! nothing but the stage — which is the whole point of write-ahead logging.
//!
//! The base map is hashed, so its order is nobody's: [`KvStore::snapshot`]
//! sorts, and it is the only way out for the pairs as a whole. The stage is
//! one list for every transaction in flight, sorted by transaction, so
//! staging costs no allocation of its own once the list has grown to the
//! pipeline's depth, and a read, a redo log, a commit or an abort finds its
//! transaction's writes by binary search: it costs what that transaction
//! staged, not what the pipeline has in flight. A value a commit replaces
//! or an abort discards keeps its buffer in the store, for the next staged
//! value to be written into ([`KvStore::spare_value`]).

use std::collections::{BTreeMap, HashMap};

use nbc_core::BytesBuildHasher;

use crate::wal::{LogRecord, RecordRef, Wal};

/// One staged operation of a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TxnWrite {
    /// Insert or overwrite `key` with `value`.
    Put(Vec<u8>, Vec<u8>),
    /// Remove `key`.
    Delete(Vec<u8>),
}

/// The store: a base map plus the staged writes of every open transaction.
#[derive(Debug, Default, Clone)]
pub struct KvStore {
    base: HashMap<Vec<u8>, Vec<u8>, BytesBuildHasher>,
    /// `(txn, write)` sorted by transaction, each transaction's writes in
    /// staging order: one run per transaction, oldest write first.
    staged: Vec<(u64, TxnWrite)>,
    /// Emptied value buffers, at most [`SPARE_VALUES`].
    spare: Vec<Vec<u8>>,
}

/// How many replaced or discarded value buffers a store keeps: more than a
/// pipeline's depth of transfers stages between two commits.
const SPARE_VALUES: usize = 64;

impl KvStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read a committed value.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.base.get(key).map(Vec::as_slice)
    }

    /// Read through the stage of `txn` (its own writes win), falling back
    /// to the committed value.
    pub fn get_in_txn(&self, txn: u64, key: &[u8]) -> Option<&[u8]> {
        for (_, w) in self.staged[self.run(txn)].iter().rev() {
            match w {
                TxnWrite::Put(k, v) if k == key => return Some(v),
                TxnWrite::Delete(k) if k == key => return None,
                _ => {}
            }
        }
        self.get(key)
    }

    /// The run of `staged` that is `txn`'s.
    fn run(&self, txn: u64) -> std::ops::Range<usize> {
        let start = self.staged.partition_point(|&(t, _)| t < txn);
        start..start + self.staged[start..].partition_point(|&(t, _)| t == txn)
    }

    /// Stage `write` after `txn`'s other writes: an append, unless an
    /// older transaction stages after younger ones.
    fn stage(&mut self, txn: u64, write: TxnWrite) {
        let at = self.staged.partition_point(|&(t, _)| t <= txn);
        self.staged.insert(at, (txn, write));
    }

    /// An empty buffer to stage a value in: one a commit replaced or an
    /// abort discarded, when the store has kept one.
    pub fn spare_value(&mut self) -> Vec<u8> {
        self.spare.pop().unwrap_or_default()
    }

    /// Keep `value`'s buffer for [`KvStore::spare_value`].
    fn recycle(spare: &mut Vec<Vec<u8>>, mut value: Vec<u8>) {
        if spare.len() < SPARE_VALUES {
            value.clear();
            spare.push(value);
        }
    }

    /// Stage a put for `txn`.
    pub fn stage_put(&mut self, txn: u64, key: Vec<u8>, value: Vec<u8>) {
        self.stage(txn, TxnWrite::Put(key, value));
    }

    /// Stage a delete for `txn`.
    pub fn stage_delete(&mut self, txn: u64, key: Vec<u8>) {
        self.stage(txn, TxnWrite::Delete(key));
    }

    /// Log the redo images of `txn`'s staged writes into `wal` (without
    /// applying them). Called when the site votes yes: the paper's commit
    /// point requires the site to be able to finish the transaction even
    /// through failures, so the images must be durable before the vote.
    pub fn log_stage(&self, txn: u64, wal: &mut Wal) {
        for (_, w) in &self.staged[self.run(txn)] {
            let rec = match w {
                TxnWrite::Put(key, value) => RecordRef::Put { txn, key, value },
                TxnWrite::Delete(key) => RecordRef::Delete { txn, key },
            };
            wal.append_ref(rec).expect("wal record fits");
        }
    }

    /// Apply `txn`'s staged writes to the base map (the commit action).
    pub fn commit(&mut self, txn: u64) {
        let run = self.run(txn);
        let Self { base, staged, spare } = self;
        // Drained by value: the key and value bytes move into the map.
        for (_, w) in staged.drain(run) {
            let replaced = match w {
                TxnWrite::Put(k, v) => base.insert(k, v),
                TxnWrite::Delete(k) => base.remove(&k),
            };
            if let Some(old) = replaced {
                Self::recycle(spare, old);
            }
        }
    }

    /// Discard `txn`'s staged writes (the abort action).
    pub fn abort(&mut self, txn: u64) {
        let run = self.run(txn);
        let Self { staged, spare, .. } = self;
        for (_, w) in staged.drain(run) {
            if let TxnWrite::Put(_, v) = w {
                Self::recycle(spare, v);
            }
        }
    }

    /// Rebuild the committed state from a recovered record stream: redo
    /// the `Put`/`Delete` images of every transaction whose `Decision` is
    /// commit; everything else leaves no trace.
    pub fn redo_from_log(records: &[LogRecord]) -> Self {
        let mut committed: BTreeMap<u64, bool> = BTreeMap::new();
        for r in records {
            if let LogRecord::Decision { txn, commit } = r {
                committed.insert(*txn, *commit);
            }
        }
        let mut store = Self::new();
        for r in records {
            match r {
                LogRecord::Put { txn, key, value } if committed.get(txn) == Some(&true) => {
                    store.base.insert(key.clone(), value.clone());
                }
                LogRecord::Delete { txn, key } if committed.get(txn) == Some(&true) => {
                    store.base.remove(key);
                }
                LogRecord::Checkpoint { pairs } => {
                    // A checkpoint supersedes everything before it.
                    store.base.clear();
                    store.base.extend(pairs.iter().cloned());
                }
                _ => {}
            }
        }
        store
    }

    /// Snapshot the committed pairs in key order (for
    /// [`Wal::checkpoint_compact`], whose image is therefore the same
    /// bytes whatever order the map keeps).
    ///
    /// [`Wal::checkpoint_compact`]: crate::wal::Wal::checkpoint_compact
    pub fn snapshot(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut pairs: Vec<_> = self.base.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        pairs.sort_unstable();
        pairs
    }

    /// Redo one committed transaction's images from a record stream into
    /// the base map — the catch-up path of a site that missed a decision
    /// and learns it during recovery.
    pub fn redo_one(&mut self, records: &[LogRecord], txn: u64) {
        for r in records {
            match r {
                LogRecord::Put { txn: t, key, value } if *t == txn => {
                    self.base.insert(key.clone(), value.clone());
                }
                LogRecord::Delete { txn: t, key } if *t == txn => {
                    self.base.remove(key);
                }
                _ => {}
            }
        }
    }

    /// Number of committed keys.
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// True if no committed keys exist.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_writes_invisible_until_commit() {
        let mut kv = KvStore::new();
        kv.stage_put(1, b"x".to_vec(), b"1".to_vec());
        assert_eq!(kv.get(b"x"), None);
        assert_eq!(kv.get_in_txn(1, b"x"), Some(b"1".as_slice()));
        kv.commit(1);
        assert_eq!(kv.get(b"x"), Some(b"1".as_slice()));
    }

    #[test]
    fn abort_leaves_no_trace() {
        let mut kv = KvStore::new();
        kv.stage_put(1, b"x".to_vec(), b"1".to_vec());
        kv.stage_delete(1, b"y".to_vec());
        kv.abort(1);
        assert!(kv.is_empty());
        assert!(kv.staged.is_empty());
    }

    #[test]
    fn txn_reads_its_own_writes_last_wins() {
        let mut kv = KvStore::new();
        kv.stage_put(1, b"x".to_vec(), b"1".to_vec());
        kv.stage_put(1, b"x".to_vec(), b"2".to_vec());
        assert_eq!(kv.get_in_txn(1, b"x"), Some(b"2".as_slice()));
        kv.stage_delete(1, b"x".to_vec());
        assert_eq!(kv.get_in_txn(1, b"x"), None);
    }

    #[test]
    fn delete_applies_on_commit() {
        let mut kv = KvStore::new();
        kv.stage_put(1, b"x".to_vec(), b"1".to_vec());
        kv.commit(1);
        kv.stage_delete(2, b"x".to_vec());
        assert_eq!(kv.get(b"x"), Some(b"1".as_slice()));
        kv.commit(2);
        assert_eq!(kv.get(b"x"), None);
    }

    #[test]
    fn independent_transactions_do_not_interfere() {
        let mut kv = KvStore::new();
        kv.stage_put(1, b"a".to_vec(), b"1".to_vec());
        kv.stage_put(2, b"b".to_vec(), b"2".to_vec());
        kv.abort(1);
        kv.commit(2);
        assert_eq!(kv.get(b"a"), None);
        assert_eq!(kv.get(b"b"), Some(b"2".as_slice()));
    }

    #[test]
    fn redo_from_log_replays_only_committed() {
        let mut wal = Wal::new();
        let mut kv = KvStore::new();
        kv.stage_put(1, b"a".to_vec(), b"1".to_vec());
        kv.stage_put(2, b"b".to_vec(), b"2".to_vec());
        kv.log_stage(1, &mut wal);
        kv.log_stage(2, &mut wal);
        wal.append(&LogRecord::Decision { txn: 1, commit: true }).expect("wal record fits");
        wal.append(&LogRecord::Decision { txn: 2, commit: false }).expect("wal record fits");
        wal.sync();

        let recs = Wal::recover(&wal.crash_image()).unwrap();
        let rebuilt = KvStore::redo_from_log(&recs);
        assert_eq!(rebuilt.get(b"a"), Some(b"1".as_slice()));
        assert_eq!(rebuilt.get(b"b"), None);
    }

    #[test]
    fn redo_handles_deletes() {
        let recs = vec![
            LogRecord::Put { txn: 1, key: b"k".to_vec(), value: b"v".to_vec() },
            LogRecord::Decision { txn: 1, commit: true },
            LogRecord::Delete { txn: 2, key: b"k".to_vec() },
            LogRecord::Decision { txn: 2, commit: true },
        ];
        let rebuilt = KvStore::redo_from_log(&recs);
        assert_eq!(rebuilt.get(b"k"), None);
    }

    /// One step of a store run for the model test.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Stage a put of `len` copies of the byte.
        Put {
            txn: u64,
            key: u8,
            byte: u8,
            len: usize,
        },
        Delete {
            txn: u64,
            key: u8,
        },
        Commit(u64),
        Abort(u64),
        /// `log_stage`, into a scratch WAL and into the run's redo log.
        Log(u64),
        /// `redo_one` from the run's redo log.
        Redo(u64),
    }

    const MODEL_TXNS: u64 = 5;
    const MODEL_KEYS: u8 = 7;

    /// The model's stage: `(txn, key, value or delete)` in staging order.
    type Staged = Vec<(u64, Vec<u8>, Option<Vec<u8>>)>;

    /// `txn`'s staged writes in `staged` as the redo frames `log_stage`
    /// must write, in staging order.
    fn model_frames(staged: &Staged, txn: u64) -> Wal {
        let mut want = Wal::new();
        for (_, key, value) in staged.iter().filter(|w| w.0 == txn) {
            let rec = match value {
                Some(v) => LogRecord::Put { txn, key: key.clone(), value: v.clone() },
                None => LogRecord::Delete { txn, key: key.clone() },
            };
            want.append(&rec).expect("wal record fits");
        }
        want
    }

    /// Run `ops` on a store and on the plainest model of it: a sorted map
    /// and one list of `(txn, key, value or delete)` in staging order.
    /// After every step each transaction must read every key the same
    /// through its stage and log the same redo bytes, and the committed
    /// pairs must snapshot the same, so no order of the store's own can
    /// leak out of it.
    fn match_the_model(ops: &[Op], case: &str) {
        let (mut kv, mut base, mut staged) = (KvStore::new(), BTreeMap::new(), Staged::new());
        // Redo-only frames: what a site that missed the decision logged.
        let mut redo_log = Wal::new();
        for (step, &op) in ops.iter().enumerate() {
            let at = format!("{case} step {step}: {op:?}");
            match op {
                Op::Put { txn, key, byte, len } => {
                    let (key, value) = (vec![b'k', key], vec![byte; len]);
                    kv.stage_put(txn, key.clone(), value.clone());
                    staged.push((txn, key, Some(value)));
                }
                Op::Delete { txn, key } => {
                    kv.stage_delete(txn, vec![b'k', key]);
                    staged.push((txn, vec![b'k', key], None));
                }
                Op::Commit(txn) => {
                    kv.commit(txn);
                    for (_, k, v) in staged.iter().filter(|w| w.0 == txn) {
                        match v {
                            Some(v) => base.insert(k.clone(), v.clone()),
                            None => base.remove(k),
                        };
                    }
                    staged.retain(|w| w.0 != txn);
                }
                Op::Abort(txn) => {
                    kv.abort(txn);
                    staged.retain(|w| w.0 != txn);
                }
                Op::Log(txn) => kv.log_stage(txn, &mut redo_log),
                Op::Redo(txn) => {
                    let records = Wal::recover(redo_log.as_bytes()).expect("clean log");
                    kv.redo_one(&records, txn);
                    for r in &records {
                        match r {
                            LogRecord::Put { txn: t, key, value } if *t == txn => {
                                base.insert(key.clone(), value.clone());
                            }
                            LogRecord::Delete { txn: t, key } if *t == txn => {
                                base.remove(key);
                            }
                            _ => {}
                        }
                    }
                }
            }
            for txn in 0..MODEL_TXNS {
                for k in 0..MODEL_KEYS {
                    let key = [b'k', k];
                    let mine = staged.iter().rev().find(|w| w.0 == txn && w.1 == key);
                    let want = mine.map_or(base.get(key.as_slice()), |w| w.2.as_ref());
                    assert_eq!(kv.get_in_txn(txn, &key), want.map(Vec::as_slice), "{at}");
                }
                let mut got = Wal::new();
                kv.log_stage(txn, &mut got);
                assert_eq!(got.as_bytes(), model_frames(&staged, txn).as_bytes(), "{at}: {txn}");
            }
            for k in 0..MODEL_KEYS {
                let key = [b'k', k];
                assert_eq!(kv.get(&key), base.get(key.as_slice()).map(Vec::as_slice), "{at}");
            }
            let sorted: Vec<_> = base.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            assert_eq!(kv.snapshot(), sorted, "{at}");
            assert_eq!(kv.len(), base.len(), "{at}");
        }
    }

    /// Random stage/commit/abort/log/redo sequences over a few
    /// transactions and short keys, staged in any order of age.
    #[test]
    fn random_sequences_match_a_sorted_map_model() {
        // xorshift64*: the storage crate has no random source of its own.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u64| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d) % bound
        };
        for case in 0..200 {
            let ops: Vec<Op> = (0..next(80))
                .map(|_| {
                    let txn = next(MODEL_TXNS);
                    let key = next(MODEL_KEYS.into()) as u8;
                    match next(7) {
                        0 | 1 => Op::Put { txn, key, byte: next(256) as u8, len: next(3) as usize },
                        2 => Op::Delete { txn, key },
                        3 => Op::Commit(txn),
                        4 => Op::Abort(txn),
                        5 => Op::Log(txn),
                        _ => Op::Redo(txn),
                    }
                })
                .collect();
            match_the_model(&ops, &format!("case {case}"));
        }
    }

    /// A parked retry: the oldest transaction stages after younger ones
    /// have staged (their runs now follow its own), reads through its own
    /// writes, logs them in staging order, and its commit, then a younger
    /// one's abort, leave the other runs as they were.
    #[test]
    fn an_older_transaction_staging_after_younger_ones_matches_the_model() {
        let put = |txn, key, byte| Op::Put { txn, key, byte, len: 2 };
        let ops = [
            put(3, 0, 30),
            put(4, 1, 40),
            put(3, 2, 31),
            Op::Delete { txn: 4, key: 0 },
            put(1, 2, 10),
            put(1, 0, 11),
            Op::Delete { txn: 1, key: 2 },
            put(1, 2, 12),
            put(2, 1, 20),
            Op::Log(1),
            Op::Commit(1),
            Op::Abort(3),
            put(0, 1, 1),
            Op::Commit(4),
            Op::Commit(0),
            Op::Commit(2),
        ];
        match_the_model(&ops, "interleaved");
    }

    /// A replaced or discarded value's buffer is handed out again, empty,
    /// and the store reads as if it had been dropped.
    #[test]
    fn replaced_and_discarded_values_are_spare_buffers() {
        let mut kv = KvStore::new();
        assert_eq!(kv.spare_value().capacity(), 0, "a new store has no spare");
        kv.stage_put(1, b"x".to_vec(), 1i64.to_le_bytes().to_vec());
        kv.commit(1);
        kv.stage_put(2, b"x".to_vec(), 2i64.to_le_bytes().to_vec());
        kv.commit(2);
        let spare = kv.spare_value();
        assert!(spare.is_empty() && spare.capacity() >= 8, "the replaced value's buffer");
        kv.stage_put(3, b"y".to_vec(), spare);
        kv.abort(3);
        assert!(kv.spare_value().capacity() >= 8, "the discarded value's buffer");
        assert_eq!(kv.snapshot(), vec![(b"x".to_vec(), 2i64.to_le_bytes().to_vec())]);
        for txn in 0..2 * SPARE_VALUES as u64 {
            kv.stage_put(txn, b"x".to_vec(), vec![0; 8]);
            kv.commit(txn);
        }
        assert_eq!(kv.spare.len(), SPARE_VALUES, "the spares are bounded");
    }

    #[test]
    fn snapshot_yields_sorted_pairs() {
        let mut kv = KvStore::new();
        kv.stage_put(1, b"b".to_vec(), b"2".to_vec());
        kv.stage_put(1, b"a".to_vec(), b"1".to_vec());
        kv.commit(1);
        assert_eq!(
            kv.snapshot(),
            vec![(b"a".to_vec(), b"1".to_vec()), (b"b".to_vec(), b"2".to_vec())]
        );
        assert_eq!(kv.len(), 2);
    }
}
