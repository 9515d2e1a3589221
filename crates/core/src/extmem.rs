//! External-memory run files: the spill tier shared by the streaming
//! reachability fold and the `nbc-check` explorer's fingerprint store.
//!
//! A [`RunSet`] is a log-structured set of **sorted, immutable run
//! files**, each holding fixed-width records — a 16-byte little-endian
//! `u128` key followed by a `P`-byte payload. Hot in-RAM tiers
//! (`HashMap`/`HashSet`) spill their contents as one sorted run when they
//! cross a byte budget; membership is then answered from the hot tier
//! first and the runs newest-first (the newest copy of a key carries the
//! largest monotone payload, so first hit wins). Three access paths:
//!
//! * [`RunSet::get`] — one exact probe: binary-search the in-RAM sparse
//!   block index (first key of every [`BLOCK_RECORDS`]-record block),
//!   read that one block, binary-search in it. Used by the checker,
//!   whose DFS discovers states in no particular key order.
//! * [`RunSet::contains_batch`] — one sequential pass per run merged
//!   against a sorted query list. Used by the reachability fold, which
//!   naturally batches a whole BFS level at its barrier.
//! * [`RunSet::for_each_merged`] — a k-way merge-dedup over all runs in
//!   ascending key order, combining duplicate keys oldest-to-newest with
//!   a caller-supplied `combine`. Used to fold final statistics.
//!
//! When the run count exceeds `MAX_RUNS`, the whole set is compacted by
//! the same k-way merge into a single run (one "merge pass" in
//! [`SpillStats`]) so probe cost stays bounded however tiny the budget.
//!
//! Run files live in [`std::env::temp_dir`], are never read by anything
//! else (names embed the process id and a global counter), and are
//! deleted on drop. The module is dependency-free `std`.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Records per sparse-index block: an exact probe reads one block, so
/// this bounds the probe's I/O at `BLOCK_RECORDS * (16 + P)` bytes while
/// keeping the in-RAM index at one `u128` per block.
pub(crate) const BLOCK_RECORDS: usize = 64;

/// Compact into a single run past this many runs, so lookup cost is
/// bounded regardless of how many spills a tiny budget forces.
pub(crate) const MAX_RUNS: usize = 8;

static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Counters of external-memory activity, reported out-of-band (stderr /
/// `nbc-obs`-style) — deliberately **not** part of any deterministic
/// report, which must stay byte-identical between budgeted and unlimited
/// runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Sorted runs written (spills plus compaction outputs).
    pub runs_written: u64,
    /// Total bytes written to run files.
    pub bytes_written: u64,
    /// K-way merge compactions performed.
    pub merge_passes: u64,
}

/// One immutable sorted run file plus its sparse in-RAM block index.
struct Run<const P: usize> {
    path: PathBuf,
    /// Persistent read handle for exact probes (seek + read under the
    /// lock); batch scans reopen the path for an independent cursor.
    file: Mutex<File>,
    /// First key of every `BLOCK_RECORDS`-record block, ascending.
    index: Vec<u128>,
    records: u64,
}

impl<const P: usize> Drop for Run<P> {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

const fn rec_len<const P: usize>() -> usize {
    16 + P
}

fn decode_rec<const P: usize>(buf: &[u8]) -> (u128, [u8; P]) {
    let key = u128::from_le_bytes(buf[..16].try_into().expect("record key"));
    let mut payload = [0u8; P];
    payload.copy_from_slice(&buf[16..16 + P]);
    (key, payload)
}

impl<const P: usize> Run<P> {
    /// Write `entries` (sorted by key, keys unique) as one run file.
    fn create(entries: &[(u128, [u8; P])]) -> io::Result<Self> {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "run must be sorted + unique");
        let path = std::env::temp_dir().join(format!(
            "nbc-run-{}-{}.bin",
            std::process::id(),
            RUN_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let mut index = Vec::with_capacity(entries.len().div_ceil(BLOCK_RECORDS));
        // Read+write: the same handle later serves the exact probes.
        let file =
            std::fs::OpenOptions::new().read(true).write(true).create_new(true).open(&path)?;
        let mut w = BufWriter::new(file);
        for (i, (key, payload)) in entries.iter().enumerate() {
            if i % BLOCK_RECORDS == 0 {
                index.push(*key);
            }
            w.write_all(&key.to_le_bytes())?;
            w.write_all(payload)?;
        }
        let mut file = w.into_inner().map_err(|e| e.into_error())?;
        file.flush()?;
        file.seek(SeekFrom::Start(0))?;
        Ok(Self { path, file: Mutex::new(file), index, records: entries.len() as u64 })
    }

    fn bytes(&self) -> u64 {
        self.records * rec_len::<P>() as u64
    }

    /// Exact probe: locate the candidate block via the sparse index, read
    /// it, binary-search the records.
    fn get(&self, key: u128) -> io::Result<Option<[u8; P]>> {
        // Last block whose first key is <= key.
        let block = match self.index.partition_point(|&first| first <= key) {
            0 => return Ok(None),
            b => b - 1,
        };
        let rec = rec_len::<P>();
        let start = block * BLOCK_RECORDS;
        let count = BLOCK_RECORDS.min(self.records as usize - start);
        let mut buf = vec![0u8; count * rec];
        {
            let mut f = self.file.lock().expect("run file poisoned");
            f.seek(SeekFrom::Start((start * rec) as u64))?;
            f.read_exact(&mut buf)?;
        }
        let mut lo = 0usize;
        let mut hi = count;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let k = u128::from_le_bytes(buf[mid * rec..mid * rec + 16].try_into().expect("key"));
            match k.cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => {
                    let mut payload = [0u8; P];
                    payload.copy_from_slice(&buf[mid * rec + 16..mid * rec + 16 + P]);
                    return Ok(Some(payload));
                }
            }
        }
        Ok(None)
    }

    /// A fresh sequential reader over the run's records.
    fn reader(&self) -> io::Result<RunReader<P>> {
        let file = File::open(&self.path)?;
        Ok(RunReader {
            r: BufReader::with_capacity(1 << 16, file),
            remaining: self.records,
            buf: vec![0u8; rec_len::<P>()],
        })
    }
}

/// Streaming cursor over one run, in ascending key order.
struct RunReader<const P: usize> {
    r: BufReader<File>,
    remaining: u64,
    buf: Vec<u8>,
}

impl<const P: usize> RunReader<P> {
    fn next(&mut self) -> io::Result<Option<(u128, [u8; P])>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        self.r.read_exact(&mut self.buf)?;
        Ok(Some(decode_rec(&self.buf)))
    }
}

/// A set of sorted run files answering membership/lookup for spilled
/// `(u128 key, [u8; P] payload)` entries. See the module docs.
pub struct RunSet<const P: usize> {
    /// Oldest first; lookups probe newest-first.
    runs: Vec<Run<P>>,
    stats: SpillStats,
}

impl<const P: usize> Default for RunSet<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const P: usize> RunSet<P> {
    /// An empty run set. No file is touched until the first spill.
    pub fn new() -> Self {
        Self { runs: Vec::new(), stats: SpillStats::default() }
    }

    /// Number of live runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Activity counters so far.
    pub fn stats(&self) -> SpillStats {
        self.stats
    }

    /// Spill one hot tier: sort `entries` by key (keys must be unique —
    /// they come from a map/set drain) and write them as the newest run.
    /// Compacts everything into a single run past `MAX_RUNS`.
    /// `combine(older, newer)` merges payloads of a key present in
    /// several runs during compaction.
    pub fn spill(
        &mut self,
        mut entries: Vec<(u128, [u8; P])>,
        combine: impl Fn(&[u8; P], &[u8; P]) -> [u8; P],
    ) -> io::Result<()> {
        if entries.is_empty() {
            return Ok(());
        }
        entries.sort_unstable_by_key(|e| e.0);
        let run = Run::create(&entries)?;
        self.stats.runs_written += 1;
        self.stats.bytes_written += run.bytes();
        self.runs.push(run);
        if self.runs.len() > MAX_RUNS {
            self.compact(combine)?;
        }
        Ok(())
    }

    /// K-way merge every run into one, combining duplicate keys
    /// oldest-to-newest.
    fn compact(&mut self, combine: impl Fn(&[u8; P], &[u8; P]) -> [u8; P]) -> io::Result<()> {
        let mut merged: Vec<(u128, [u8; P])> = Vec::new();
        self.for_each_merged(&combine, |key, payload| merged.push((key, payload)))?;
        let run = Run::create(&merged)?;
        self.stats.runs_written += 1;
        self.stats.bytes_written += run.bytes();
        self.stats.merge_passes += 1;
        self.runs = vec![run];
        Ok(())
    }

    /// Exact single-key lookup, newest run first. The newest copy of a
    /// key carries the most advanced payload (payloads only grow under
    /// `combine`), so the first hit is authoritative.
    pub fn get(&self, key: u128) -> io::Result<Option<[u8; P]>> {
        for run in self.runs.iter().rev() {
            if let Some(p) = run.get(key)? {
                return Ok(Some(p));
            }
        }
        Ok(None)
    }

    /// Batched membership: `keys` must be sorted ascending and unique.
    /// Returns one flag per key, true iff the key is present in some run.
    /// One sequential merge pass per run — the "level barrier" access
    /// pattern of the streaming reachability fold.
    pub(crate) fn contains_batch(&self, keys: &[u128]) -> io::Result<Vec<bool>> {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "query keys must be sorted + unique");
        let mut present = vec![false; keys.len()];
        for run in &self.runs {
            let mut reader = run.reader()?;
            let mut qi = 0usize;
            while qi < keys.len() {
                match reader.next()? {
                    None => break,
                    Some((key, _)) => {
                        while qi < keys.len() && keys[qi] < key {
                            qi += 1;
                        }
                        if qi < keys.len() && keys[qi] == key {
                            present[qi] = true;
                            qi += 1;
                        }
                    }
                }
            }
        }
        Ok(present)
    }

    /// K-way merge-dedup over all runs in ascending key order. A key
    /// present in several runs is combined oldest-to-newest before `f`
    /// sees it; the hot tier is the caller's to merge in on top.
    pub fn for_each_merged(
        &self,
        combine: impl Fn(&[u8; P], &[u8; P]) -> [u8; P],
        mut f: impl FnMut(u128, [u8; P]),
    ) -> io::Result<()> {
        let mut readers = Vec::with_capacity(self.runs.len());
        let mut heads: Vec<Option<(u128, [u8; P])>> = Vec::with_capacity(self.runs.len());
        for run in &self.runs {
            let mut r = run.reader()?;
            heads.push(r.next()?);
            readers.push(r);
        }
        loop {
            // Runs are few (<= MAX_RUNS + 1): a linear min-scan beats a
            // heap. Index order breaks key ties oldest-first, which is
            // exactly the combine order.
            let Some(min_key) = heads.iter().filter_map(|h| h.as_ref().map(|&(k, _)| k)).min()
            else {
                return Ok(());
            };
            let mut acc: Option<[u8; P]> = None;
            for (i, head) in heads.iter_mut().enumerate() {
                if let Some((k, payload)) = head {
                    if *k == min_key {
                        acc = Some(match acc {
                            None => *payload,
                            Some(older) => combine(&older, payload),
                        });
                        *head = readers[i].next()?;
                    }
                }
            }
            f(min_key, acc.expect("min key came from some head"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Deterministic pseudo-random keys (no external RNG in this
    /// workspace): a splitmix-style scramble of the index.
    fn key(i: u64) -> u128 {
        let mut x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0xdead_beef);
        x ^= x >> 31;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        ((x as u128) << 64) | (i as u128)
    }

    fn payload(v: u32) -> [u8; 4] {
        v.to_le_bytes()
    }

    /// `combine` keeps the larger value — a stand-in for the checker's
    /// monotone `best`.
    fn combine_max(a: &[u8; 4], b: &[u8; 4]) -> [u8; 4] {
        payload(u32::from_le_bytes(*a).max(u32::from_le_bytes(*b)))
    }

    #[test]
    fn spilled_entries_are_found_and_absent_keys_are_not() {
        let mut rs: RunSet<4> = RunSet::new();
        let entries: Vec<_> = (0..1000u64).map(|i| (key(i), payload(i as u32))).collect();
        rs.spill(entries, combine_max).unwrap();
        for i in 0..1000u64 {
            assert_eq!(rs.get(key(i)).unwrap(), Some(payload(i as u32)), "key {i}");
        }
        for i in 1000..1100u64 {
            assert_eq!(rs.get(key(i)).unwrap(), None, "absent key {i}");
        }
    }

    #[test]
    fn multi_run_lookup_matches_hashmap_model_and_compaction_preserves_it() {
        let mut rs: RunSet<4> = RunSet::new();
        let mut model: HashMap<u128, u32> = HashMap::new();
        // 20 spills of overlapping keys — forces at least two compactions
        // at MAX_RUNS = 8. Keys within one spill must be unique, like a
        // map drain, so dedup each batch before feeding both sides.
        for round in 0..20u64 {
            let mut batch: Vec<(u128, [u8; 4])> = (0..97u64)
                .map(|j| (key((round * 31 + j) % 211), payload((round * 1000 + j) as u32)))
                .collect();
            batch.sort_unstable_by_key(|e| e.0);
            batch.dedup_by_key(|e| e.0);
            for &(k, p) in &batch {
                let v = u32::from_le_bytes(p);
                let e = model.entry(k).or_insert(0);
                *e = (*e).max(v);
            }
            rs.spill(batch, combine_max).unwrap();
        }
        assert!(rs.stats().merge_passes >= 2, "expected repeated compaction");
        assert!(rs.run_count() <= MAX_RUNS);
        for (&k, &v) in &model {
            assert_eq!(rs.get(k).unwrap(), Some(payload(v)), "probe disagrees with model");
        }
        // Merged iteration visits every key exactly once with the
        // combined payload, in ascending key order.
        let mut seen = Vec::new();
        rs.for_each_merged(combine_max, |k, p| seen.push((k, u32::from_le_bytes(p)))).unwrap();
        assert!(seen.windows(2).all(|w| w[0].0 < w[1].0), "merged iteration unsorted");
        assert_eq!(seen.len(), model.len());
        for (k, v) in seen {
            assert_eq!(model[&k], v);
        }
    }

    #[test]
    fn batched_membership_agrees_with_exact_probes() {
        let mut rs: RunSet<0> = RunSet::new();
        for round in 0..5u64 {
            let batch: Vec<(u128, [u8; 0])> = (0..50).map(|j| (key(round * 37 + j), [])).collect();
            let mut batch = batch;
            batch.sort_unstable_by_key(|e| e.0);
            batch.dedup_by_key(|e| e.0);
            rs.spill(batch, |_, b| *b).unwrap();
        }
        let mut queries: Vec<u128> = (0..400u64).map(key).collect();
        queries.sort_unstable();
        queries.dedup();
        let flags = rs.contains_batch(&queries).unwrap();
        for (q, flag) in queries.iter().zip(flags) {
            assert_eq!(rs.get(*q).unwrap().is_some(), flag, "batch vs probe for {q:#x}");
        }
    }

    #[test]
    fn empty_spill_writes_nothing() {
        let mut rs: RunSet<8> = RunSet::new();
        rs.spill(Vec::new(), |_, b| *b).unwrap();
        assert_eq!(rs.run_count(), 0);
        assert_eq!(rs.stats(), SpillStats::default());
        assert_eq!(rs.get(42).unwrap(), None);
    }
}
