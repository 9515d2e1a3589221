//! A transactional key-value store with deferred updates.
//!
//! Writes are staged per transaction and applied to the base map only when
//! the commit decision arrives, after the redo images have been logged.
//! An abort simply discards the stage; a crash before the decision loses
//! nothing but the stage — which is the whole point of write-ahead logging.

use std::collections::BTreeMap;

use crate::wal::{LogRecord, RecordRef, Wal};

/// One staged operation of a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TxnWrite {
    /// Insert or overwrite `key` with `value`.
    Put(Vec<u8>, Vec<u8>),
    /// Remove `key`.
    Delete(Vec<u8>),
}

/// The store: a base map plus per-transaction staging areas.
#[derive(Debug, Default, Clone)]
pub struct KvStore {
    base: BTreeMap<Vec<u8>, Vec<u8>>,
    staged: BTreeMap<u64, Vec<TxnWrite>>,
}

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
        if let Some(writes) = self.staged.get(&txn) {
            for w in writes.iter().rev() {
                match w {
                    TxnWrite::Put(k, v) if k == key => return Some(v),
                    TxnWrite::Delete(k) if k == key => return None,
                    _ => {}
                }
            }
        }
        self.get(key)
    }

    /// Stage a put for `txn`.
    pub fn stage_put(&mut self, txn: u64, key: Vec<u8>, value: Vec<u8>) {
        self.staged.entry(txn).or_default().push(TxnWrite::Put(key, value));
    }

    /// Stage a delete for `txn`.
    pub fn stage_delete(&mut self, txn: u64, key: Vec<u8>) {
        self.staged.entry(txn).or_default().push(TxnWrite::Delete(key));
    }

    /// Log the redo images of `txn`'s staged writes into `wal` (without
    /// applying them). Called when the site votes yes: the paper's commit
    /// point requires the site to be able to finish the transaction even
    /// through failures, so the images must be durable before the vote.
    pub fn log_stage(&self, txn: u64, wal: &mut Wal) {
        if let Some(writes) = self.staged.get(&txn) {
            for w in writes {
                let rec = match w {
                    TxnWrite::Put(key, value) => RecordRef::Put { txn, key, value },
                    TxnWrite::Delete(key) => RecordRef::Delete { txn, key },
                };
                wal.append_ref(rec).expect("wal record fits");
            }
        }
    }

    /// Apply `txn`'s staged writes to the base map (the commit action).
    pub fn commit(&mut self, txn: u64) {
        if let Some(writes) = self.staged.remove(&txn) {
            for w in writes {
                match w {
                    TxnWrite::Put(k, v) => {
                        self.base.insert(k, v);
                    }
                    TxnWrite::Delete(k) => {
                        self.base.remove(&k);
                    }
                }
            }
        }
    }

    /// Discard `txn`'s staged writes (the abort action).
    pub fn abort(&mut self, txn: u64) {
        self.staged.remove(&txn);
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
                    store.base = pairs.iter().cloned().collect::<BTreeMap<Vec<u8>, Vec<u8>>>();
                }
                _ => {}
            }
        }
        store
    }

    /// Snapshot the committed pairs (for [`Wal::checkpoint_compact`]).
    ///
    /// [`Wal::checkpoint_compact`]: crate::wal::Wal::checkpoint_compact
    pub fn snapshot(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.base.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
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

    /// Iterate over committed key-value pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        self.base.iter().map(|(k, v)| (k.as_slice(), v.as_slice()))
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
        assert!(!kv.staged.contains_key(&1));
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

    #[test]
    fn iter_yields_sorted_pairs() {
        let mut kv = KvStore::new();
        kv.stage_put(1, b"b".to_vec(), b"2".to_vec());
        kv.stage_put(1, b"a".to_vec(), b"1".to_vec());
        kv.commit(1);
        let pairs: Vec<_> = kv.iter().collect();
        assert_eq!(
            pairs,
            vec![(b"a".as_slice(), b"1".as_slice()), (b"b".as_slice(), b"2".as_slice())]
        );
        assert_eq!(kv.len(), 2);
    }
}
