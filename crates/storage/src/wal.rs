//! The write-ahead log.
//!
//! ## Record framing
//!
//! ```text
//! +----------+----------+---------+-------------------+
//! | len: u32 | crc: u32 | tag: u8 | payload (len-1 B) |
//! +----------+----------+---------+-------------------+
//! ```
//!
//! `len` covers tag + payload; `crc` is CRC-32 over tag + payload. All
//! integers are little-endian. Recovery reads records until the first
//! frame that is truncated or fails its checksum — everything after a torn
//! write is discarded, which is exactly the local atomicity the paper
//! assumes of each site.
//!
//! ## Durability model
//!
//! The log buffer is in memory (the "disk" of the simulation), with an
//! explicit durable watermark: [`Wal::sync`] advances it to the current
//! end. A crash preserves only the synced prefix ([`Wal::crash_image`]).
//! Protocols call `sync` before acting on a state transition — writing the
//! record *ahead* of the action, hence the name.

use crate::codec::{BufExt, BufMutExt};

use crate::crc32::crc32;

/// Byte offset of a record in the log.
pub type Lsn = u64;

/// Errors from log operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// A record frame declared an impossible length.
    BadLength {
        /// Offset of the bad frame.
        at: Lsn,
    },
    /// A record failed its checksum.
    BadChecksum {
        /// Offset of the bad frame.
        at: Lsn,
    },
    /// Unknown record tag (log written by a newer version?).
    UnknownTag {
        /// Offset of the bad frame.
        at: Lsn,
        /// The unrecognized tag byte.
        tag: u8,
    },
    /// The payload of a known tag did not decode.
    Truncated {
        /// Offset of the bad frame.
        at: Lsn,
    },
    /// A record to be appended does not fit the frame format: some u32
    /// length prefix (key/value length, checkpoint pair count, or the
    /// frame's own tag+payload length) would be silently narrowed.
    RecordTooLarge {
        /// Encoded tag+payload size of the offending record.
        len: u64,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadLength { at } => write!(f, "bad record length at lsn {at}"),
            Self::BadChecksum { at } => write!(f, "checksum mismatch at lsn {at}"),
            Self::UnknownTag { at, tag } => write!(f, "unknown record tag {tag} at lsn {at}"),
            Self::Truncated { at } => write!(f, "truncated record payload at lsn {at}"),
            Self::RecordTooLarge { len } => {
                write!(f, "record of {len} encoded bytes exceeds the u32 frame limit")
            }
        }
    }
}

impl std::error::Error for WalError {}

/// A log record: the DT-log records of the commit protocol plus redo
/// images for data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// A distributed transaction arrived at this site.
    Begin {
        /// Transaction id.
        txn: u64,
    },
    /// The site's FSA moved to `state` (of `class`) for `txn`. Persisted
    /// *before* the transition's messages are sent, so a recovering site
    /// knows exactly how far it progressed.
    Progress {
        /// Transaction id.
        txn: u64,
        /// New local state id.
        state: u32,
        /// [`StateClass`](../../nbc_core/fsa/enum.StateClass.html) encoded
        /// via the engine's mapping (the storage layer is agnostic).
        class: u8,
    },
    /// Final decision for `txn`.
    Decision {
        /// Transaction id.
        txn: u64,
        /// `true` = commit, `false` = abort.
        commit: bool,
    },
    /// Termination protocol, phase 1: this site aligned to the backup
    /// coordinator's state class.
    AlignedTo {
        /// Transaction id.
        txn: u64,
        /// The class aligned to.
        class: u8,
    },
    /// A staged write (redo image) for `txn`.
    Put {
        /// Transaction id.
        txn: u64,
        /// Key bytes.
        key: Vec<u8>,
        /// New value bytes.
        value: Vec<u8>,
    },
    /// A staged deletion for `txn`.
    Delete {
        /// Transaction id.
        txn: u64,
        /// Key bytes.
        key: Vec<u8>,
    },
    /// Transaction fully applied locally; earlier records for it may be
    /// garbage-collected.
    End {
        /// Transaction id.
        txn: u64,
    },
    /// A full snapshot of the committed key-value state. Taken at a
    /// quiescent point (no transactions in flight), it makes every earlier
    /// record redundant — the basis of log compaction.
    Checkpoint {
        /// The committed pairs, sorted by key.
        pairs: Vec<(Vec<u8>, Vec<u8>)>,
    },
}

/// A [`LogRecord`] with its key/value bytes borrowed: the one form every
/// append encodes from, so a caller that already holds the bytes (the kv
/// store's stage) logs them without building an owned record first.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RecordRef<'a> {
    Begin { txn: u64 },
    Progress { txn: u64, state: u32, class: u8 },
    Decision { txn: u64, commit: bool },
    AlignedTo { txn: u64, class: u8 },
    Put { txn: u64, key: &'a [u8], value: &'a [u8] },
    Delete { txn: u64, key: &'a [u8] },
    End { txn: u64 },
    Checkpoint { pairs: &'a [(Vec<u8>, Vec<u8>)] },
}

impl RecordRef<'_> {
    fn tag(&self) -> u8 {
        match self {
            Self::Begin { .. } => 1,
            Self::Progress { .. } => 2,
            Self::Decision { .. } => 3,
            Self::AlignedTo { .. } => 4,
            Self::Put { .. } => 5,
            Self::Delete { .. } => 6,
            Self::End { .. } => 7,
            Self::Checkpoint { .. } => 8,
        }
    }

    /// Encoded size of tag + payload, computed without encoding — so a
    /// too-large record can be rejected before any bytes are copied.
    fn encoded_len(&self) -> u64 {
        1 + match self {
            Self::Begin { .. } | Self::End { .. } => 8,
            Self::Progress { .. } => 13,
            Self::Decision { .. } | Self::AlignedTo { .. } => 9,
            Self::Put { key, value, .. } => 16 + key.len() as u64 + value.len() as u64,
            Self::Delete { key, .. } => 12 + key.len() as u64,
            Self::Checkpoint { pairs } => {
                4 + pairs.iter().map(|(k, v)| 8 + k.len() as u64 + v.len() as u64).sum::<u64>()
            }
        }
    }

    /// Check that every u32 length prefix in the frame actually fits:
    /// individual key/value lengths, the checkpoint pair count, and the
    /// frame header's tag+payload length — which is returned. A bare
    /// `len as u32` would silently truncate and produce a frame that
    /// decodes garbage.
    fn check_fits(&self) -> Result<u32, WalError> {
        const MAX: u64 = u32::MAX as u64;
        let fits = |n: usize| n as u64 <= MAX;
        let fields_ok = match self {
            Self::Put { key, value, .. } => fits(key.len()) && fits(value.len()),
            Self::Delete { key, .. } => fits(key.len()),
            Self::Checkpoint { pairs } => {
                fits(pairs.len()) && pairs.iter().all(|(k, v)| fits(k.len()) && fits(v.len()))
            }
            _ => true,
        };
        let len = self.encoded_len();
        if !fields_ok || len > MAX {
            return Err(WalError::RecordTooLarge { len });
        }
        Ok(len as u32)
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Self::Begin { txn } | Self::End { txn } => out.put_u64_le(*txn),
            Self::Progress { txn, state, class } => {
                out.put_u64_le(*txn);
                out.put_u32_le(*state);
                out.put_u8(*class);
            }
            Self::Decision { txn, commit } => {
                out.put_u64_le(*txn);
                out.put_u8(u8::from(*commit));
            }
            Self::AlignedTo { txn, class } => {
                out.put_u64_le(*txn);
                out.put_u8(*class);
            }
            Self::Put { txn, key, value } => {
                out.put_u64_le(*txn);
                out.put_u32_le(key.len() as u32);
                out.put_slice(key);
                out.put_u32_le(value.len() as u32);
                out.put_slice(value);
            }
            Self::Delete { txn, key } => {
                out.put_u64_le(*txn);
                out.put_u32_le(key.len() as u32);
                out.put_slice(key);
            }
            Self::Checkpoint { pairs } => {
                out.put_u32_le(pairs.len() as u32);
                for (k, v) in *pairs {
                    out.put_u32_le(k.len() as u32);
                    out.put_slice(k);
                    out.put_u32_le(v.len() as u32);
                    out.put_slice(v);
                }
            }
        }
    }
}

impl LogRecord {
    fn borrowed(&self) -> RecordRef<'_> {
        match *self {
            Self::Begin { txn } => RecordRef::Begin { txn },
            Self::Progress { txn, state, class } => RecordRef::Progress { txn, state, class },
            Self::Decision { txn, commit } => RecordRef::Decision { txn, commit },
            Self::AlignedTo { txn, class } => RecordRef::AlignedTo { txn, class },
            Self::Put { txn, ref key, ref value } => RecordRef::Put { txn, key, value },
            Self::Delete { txn, ref key } => RecordRef::Delete { txn, key },
            Self::End { txn } => RecordRef::End { txn },
            Self::Checkpoint { ref pairs } => RecordRef::Checkpoint { pairs },
        }
    }

    /// Size in bytes of the full on-log frame for this record: the 4-byte
    /// length prefix, the 4-byte CRC, and the tag + payload. This is what
    /// an append grows the log by — exposed so callers can account for WAL
    /// traffic (e.g. bytes-per-transaction metrics) without re-deriving
    /// the frame layout.
    pub fn frame_len(&self) -> u64 {
        8 + self.borrowed().encoded_len()
    }

    fn decode(tag: u8, mut buf: &[u8], at: Lsn) -> Result<Self, WalError> {
        fn need(buf: &[u8], n: usize, at: Lsn) -> Result<(), WalError> {
            if buf.remaining() < n {
                Err(WalError::Truncated { at })
            } else {
                Ok(())
            }
        }
        match tag {
            1 | 7 => {
                need(buf, 8, at)?;
                let txn = buf.get_u64_le();
                Ok(if tag == 1 { Self::Begin { txn } } else { Self::End { txn } })
            }
            2 => {
                need(buf, 13, at)?;
                let txn = buf.get_u64_le();
                let state = buf.get_u32_le();
                let class = buf.get_u8();
                Ok(Self::Progress { txn, state, class })
            }
            3 => {
                need(buf, 9, at)?;
                let txn = buf.get_u64_le();
                let commit = buf.get_u8() != 0;
                Ok(Self::Decision { txn, commit })
            }
            4 => {
                need(buf, 9, at)?;
                let txn = buf.get_u64_le();
                let class = buf.get_u8();
                Ok(Self::AlignedTo { txn, class })
            }
            5 => {
                need(buf, 12, at)?;
                let txn = buf.get_u64_le();
                let klen = buf.get_u32_le() as usize;
                need(buf, klen + 4, at)?;
                let key = buf[..klen].to_vec();
                buf.advance(klen);
                let vlen = buf.get_u32_le() as usize;
                need(buf, vlen, at)?;
                let value = buf[..vlen].to_vec();
                Ok(Self::Put { txn, key, value })
            }
            6 => {
                need(buf, 12, at)?;
                let txn = buf.get_u64_le();
                let klen = buf.get_u32_le() as usize;
                need(buf, klen, at)?;
                let key = buf[..klen].to_vec();
                Ok(Self::Delete { txn, key })
            }
            8 => {
                need(buf, 4, at)?;
                let count = buf.get_u32_le() as usize;
                let mut pairs = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    need(buf, 4, at)?;
                    let klen = buf.get_u32_le() as usize;
                    need(buf, klen + 4, at)?;
                    let k = buf[..klen].to_vec();
                    buf.advance(klen);
                    let vlen = buf.get_u32_le() as usize;
                    need(buf, vlen, at)?;
                    let v = buf[..vlen].to_vec();
                    buf.advance(vlen);
                    pairs.push((k, v));
                }
                Ok(Self::Checkpoint { pairs })
            }
            other => Err(WalError::UnknownTag { at, tag: other }),
        }
    }
}

/// Counters for the sync path: how many durability requests the log saw
/// and how many turned into physical forces. The gap is the group-commit
/// win ([`SyncStats::saved`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Durability requests ([`Wal::sync`] / [`Wal::sync_batched`] calls).
    pub requested: u64,
    /// Requests that actually forced bytes to stable storage.
    pub physical: u64,
}

impl SyncStats {
    /// Requests absorbed without a physical force (batched into an open
    /// group-commit window, or no-ops with nothing new to force).
    pub fn saved(&self) -> u64 {
        self.requested - self.physical
    }

    /// Accumulate another log's counters (for cluster-wide totals).
    pub fn absorb(&mut self, other: &SyncStats) {
        self.requested += other.requested;
        self.physical += other.physical;
    }
}

/// An in-memory write-ahead log with explicit durability.
#[derive(Debug, Default)]
pub struct Wal {
    buf: Vec<u8>,
    durable: usize,
    sync_stats: SyncStats,
    group_window: u64,
    last_force_at: Option<u64>,
}

impl Clone for Wal {
    fn clone(&self) -> Self {
        let mut copy = Self::new();
        copy.clone_from(self);
        copy
    }

    /// Copy `source` into this log's buffer: no allocation once the buffer
    /// has held a log as long. Destructured in full so a new field cannot
    /// be left out of the copy.
    fn clone_from(&mut self, source: &Self) {
        let Self { buf, durable, sync_stats, group_window, last_force_at } = self;
        buf.clone_from(&source.buf);
        *durable = source.durable;
        *sync_stats = source.sync_stats;
        *group_window = source.group_window;
        *last_force_at = source.last_force_at;
    }
}

impl Wal {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty log, keeping the buffer's allocation: `*self = Wal::new()`
    /// but for the capacity, so a recycled site logs without regrowing.
    pub fn clear(&mut self) {
        self.buf.clear();
        *self = Self { buf: std::mem::take(&mut self.buf), ..Self::default() };
    }

    /// What a crash leaves of this log, in place: the unsynced tail is
    /// gone and the volatile bookkeeping starts over, exactly as in the log
    /// [`Wal::from_image`] restores from [`Wal::crash_image`] — without
    /// decoding a record or touching the allocator (the synced prefix ends
    /// on a frame boundary by construction: [`Wal::sync`] only ever moves
    /// the watermark to the end of a whole append).
    pub fn lose_volatile(&mut self) {
        self.buf.truncate(self.durable);
        self.sync_stats = SyncStats::default();
        self.group_window = 0;
        self.last_force_at = None;
    }

    /// Append a record; returns its LSN. The record is *not* durable until
    /// [`Wal::sync`].
    ///
    /// Fails with [`WalError::RecordTooLarge`] — leaving the log untouched —
    /// if any u32 length prefix of the frame would be narrowed.
    pub fn append(&mut self, rec: &LogRecord) -> Result<Lsn, WalError> {
        self.append_ref(rec.borrowed())
    }

    /// [`Wal::append`] from borrowed bytes. The frame is built in place at
    /// the end of the log: header reserved, tag + payload encoded straight
    /// into the buffer, then length and checksum patched in.
    pub(crate) fn append_ref(&mut self, rec: RecordRef<'_>) -> Result<Lsn, WalError> {
        let at = self.buf.len();
        let len = rec.check_fits()?;
        self.buf.reserve(8 + len as usize);
        self.buf.extend_from_slice(&[0; 8]);
        self.buf.put_u8(rec.tag());
        rec.encode_payload(&mut self.buf);
        let body = &self.buf[at + 8..];
        debug_assert_eq!(body.len(), len as usize, "encoded_len is exact");
        let crc = crc32(body);
        self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
        self.buf[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
        Ok(at as Lsn)
    }

    /// Append and immediately sync (the common protocol-record path —
    /// write-ahead means the record must be durable before the transition's
    /// messages go out).
    pub fn append_sync(&mut self, rec: &LogRecord) -> Result<Lsn, WalError> {
        let lsn = self.append(rec)?;
        self.sync();
        Ok(lsn)
    }

    /// Make everything appended so far durable.
    pub fn sync(&mut self) {
        self.sync_stats.requested += 1;
        if self.durable < self.buf.len() {
            self.sync_stats.physical += 1;
        }
        self.durable = self.buf.len();
    }

    /// Set the group-commit batch window, in simulation ticks. `0`
    /// (the default) disables batching: every [`Wal::sync_batched`] call
    /// with undurable bytes pays a physical force.
    pub fn set_group_window(&mut self, window: u64) {
        self.group_window = window;
    }

    /// Group-commit durability: request a force at simulation time `now`,
    /// coalescing with other requests in the same batch window. Returns
    /// `true` if this call paid a physical force.
    ///
    /// Model: a physical force at time `t` opens a batch window of
    /// `group_window` ticks. A request arriving at `now < t + window` joins
    /// that batch — its bytes ride the batch's single force (which the
    /// batcher completes at window close) and no new physical force is
    /// counted. The watermark still advances immediately: within the
    /// window the simulator injects no crash that could observe the gap
    /// between "joined the batch" and "batch forced", so the accounting is
    /// observationally equivalent to a real delayed group force.
    pub fn sync_batched(&mut self, now: u64) -> bool {
        self.sync_stats.requested += 1;
        if self.durable == self.buf.len() {
            return false; // nothing new to force
        }
        self.durable = self.buf.len();
        if let Some(t) = self.last_force_at {
            if now >= t && now - t < self.group_window {
                return false; // joined the open batch
            }
        }
        self.last_force_at = Some(now);
        self.sync_stats.physical += 1;
        true
    }

    /// Sync-path counters (requests vs. physical forces).
    pub fn sync_stats(&self) -> SyncStats {
        self.sync_stats
    }

    /// Total bytes appended.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Bytes guaranteed to survive a crash.
    pub fn durable_len(&self) -> usize {
        self.durable
    }

    /// The byte image a crash would leave behind: the synced prefix.
    pub fn crash_image(&self) -> Vec<u8> {
        self.buf[..self.durable].to_vec()
    }

    /// Every appended byte, durable or not, borrowed — the read-only view
    /// of [`Wal::full_image`].
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The full byte image (as if shut down cleanly), as an owned copy.
    pub fn full_image(&self) -> Vec<u8> {
        self.buf.clone()
    }

    /// Decode a byte image back into records.
    ///
    /// Stops at the first truncated frame (normal after a crash — the tail
    /// was torn) and returns the records before it. A checksum or tag
    /// failure in the *interior* is still reported as that error on the
    /// offending frame; callers distinguish "clean tail truncation" (an
    /// incomplete final frame, `Ok`) from corruption (`Err`).
    pub fn recover(image: &[u8]) -> Result<Vec<LogRecord>, WalError> {
        let mut recs = Vec::new();
        let mut off = 0usize;
        while off < image.len() {
            let at = off as Lsn;
            if image.len() - off < 8 {
                break; // torn frame header
            }
            let len = u32::from_le_bytes(image[off..off + 4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(image[off + 4..off + 8].try_into().unwrap());
            if len == 0 {
                return Err(WalError::BadLength { at });
            }
            if image.len() - off - 8 < len {
                break; // torn payload
            }
            let payload = &image[off + 8..off + 8 + len];
            if crc32(payload) != crc {
                return Err(WalError::BadChecksum { at });
            }
            let rec = LogRecord::decode(payload[0], &payload[1..], at)?;
            recs.push(rec);
            off += 8 + len;
        }
        Ok(recs)
    }

    /// Compact the log: replace its entire contents with one durable
    /// checkpoint of the given committed pairs. Callers must be quiescent —
    /// any in-flight transaction's redo images are discarded with the old
    /// log, so its decision could no longer be replayed.
    pub fn checkpoint_compact(&mut self, pairs: Vec<(Vec<u8>, Vec<u8>)>) -> Result<Lsn, WalError> {
        let rec = RecordRef::Checkpoint { pairs: &pairs };
        // Validate before clearing — a failed compaction must not lose the
        // existing log.
        rec.check_fits()?;
        self.buf.clear();
        self.durable = 0;
        let lsn = self.append_ref(rec).expect("checked above");
        self.sync();
        Ok(lsn)
    }

    /// Restore a `Wal` from a crash image: the image becomes the durable
    /// prefix, with any torn tail discarded.
    pub fn from_image(image: &[u8]) -> Result<(Self, Vec<LogRecord>), WalError> {
        let recs = Self::recover(image)?;
        // Re-encode nothing: keep only the well-formed prefix length.
        let mut well_formed = 0usize;
        let mut off = 0usize;
        for _ in &recs {
            let len = u32::from_le_bytes(image[off..off + 4].try_into().unwrap()) as usize;
            off += 8 + len;
            well_formed = off;
        }
        let buf = image[..well_formed].to_vec();
        let durable = buf.len();
        Ok((Self { buf, durable, ..Self::default() }, recs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<LogRecord> {
        vec![
            LogRecord::Begin { txn: 7 },
            LogRecord::Progress { txn: 7, state: 1, class: 1 },
            LogRecord::Put { txn: 7, key: b"alice".to_vec(), value: b"100".to_vec() },
            LogRecord::Delete { txn: 7, key: b"bob".to_vec() },
            LogRecord::AlignedTo { txn: 7, class: 2 },
            LogRecord::Decision { txn: 7, commit: true },
            LogRecord::End { txn: 7 },
        ]
    }

    #[test]
    fn roundtrip_all_record_types() {
        let mut wal = Wal::new();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        wal.sync();
        let recovered = Wal::recover(&wal.crash_image()).unwrap();
        assert_eq!(recovered, sample_records());
    }

    #[test]
    fn frame_len_matches_actual_log_growth() {
        let mut wal = Wal::new();
        for r in sample_records() {
            let before = wal.len() as u64;
            wal.append(&r).unwrap();
            assert_eq!(wal.len() as u64 - before, r.frame_len(), "{r:?}");
        }
    }

    #[test]
    fn unsynced_tail_is_lost_on_crash() {
        let mut wal = Wal::new();
        wal.append(&LogRecord::Begin { txn: 1 }).unwrap();
        wal.sync();
        wal.append(&LogRecord::Decision { txn: 1, commit: true }).unwrap();
        // No sync: the decision is not durable.
        let recovered = Wal::recover(&wal.crash_image()).unwrap();
        assert_eq!(recovered, vec![LogRecord::Begin { txn: 1 }]);
    }

    #[test]
    fn append_sync_is_durable() {
        let mut wal = Wal::new();
        wal.append_sync(&LogRecord::Decision { txn: 3, commit: false }).unwrap();
        let recovered = Wal::recover(&wal.crash_image()).unwrap();
        assert_eq!(recovered.len(), 1);
    }

    #[test]
    fn sync_batched_coalesces_within_window() {
        let mut wal = Wal::new();
        wal.set_group_window(3);
        // Three rounds force at t=0..2: one physical force, two batched.
        for t in 0..3u64 {
            wal.append(&LogRecord::Begin { txn: t }).unwrap();
            let physical = wal.sync_batched(t);
            assert_eq!(physical, t == 0);
        }
        // All three records are durable regardless.
        assert_eq!(wal.durable_len(), wal.len());
        assert_eq!(Wal::recover(&wal.crash_image()).unwrap().len(), 3);
        // Past the window, the next request pays a force again.
        wal.append(&LogRecord::Begin { txn: 9 }).unwrap();
        assert!(wal.sync_batched(3));
        let s = wal.sync_stats();
        assert_eq!(s.requested, 4);
        assert_eq!(s.physical, 2);
        assert_eq!(s.saved(), 2);
    }

    #[test]
    fn sync_batched_without_window_forces_every_time() {
        let mut wal = Wal::new();
        for t in 0..3u64 {
            wal.append(&LogRecord::Begin { txn: t }).unwrap();
            assert!(wal.sync_batched(t), "window 0 must always force");
        }
        // A request with nothing new to force is saved, not physical.
        assert!(!wal.sync_batched(3));
        let s = wal.sync_stats();
        assert_eq!((s.requested, s.physical, s.saved()), (4, 3, 1));
    }

    #[test]
    fn torn_tail_is_dropped_cleanly() {
        let mut wal = Wal::new();
        wal.append(&LogRecord::Begin { txn: 1 }).unwrap();
        wal.append(&LogRecord::Decision { txn: 1, commit: true }).unwrap();
        wal.sync();
        let mut image = wal.crash_image();
        // Tear the last record: drop 3 bytes.
        image.truncate(image.len() - 3);
        let recovered = Wal::recover(&image).unwrap();
        assert_eq!(recovered, vec![LogRecord::Begin { txn: 1 }]);
    }

    #[test]
    fn corrupt_interior_detected() {
        let mut wal = Wal::new();
        wal.append(&LogRecord::Begin { txn: 1 }).unwrap();
        wal.append(&LogRecord::End { txn: 1 }).unwrap();
        wal.sync();
        let mut image = wal.crash_image();
        image[10] ^= 0xFF; // flip a bit inside the first payload
        assert!(matches!(Wal::recover(&image), Err(WalError::BadChecksum { at: 0 })));
    }

    #[test]
    fn unknown_tag_detected() {
        // Hand-craft a frame with tag 99.
        let payload = vec![99u8, 0, 0, 0, 0, 0, 0, 0, 0];
        let mut image = Vec::new();
        image.put_u32_le(payload.len() as u32);
        image.put_u32_le(crc32(&payload));
        image.extend_from_slice(&payload);
        assert!(matches!(Wal::recover(&image), Err(WalError::UnknownTag { tag: 99, .. })));
    }

    #[test]
    fn zero_length_frame_rejected() {
        let mut image = Vec::new();
        image.put_u32_le(0);
        image.put_u32_le(0);
        assert!(matches!(Wal::recover(&image), Err(WalError::BadLength { at: 0 })));
    }

    #[test]
    fn from_image_restores_durable_log() {
        let mut wal = Wal::new();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        wal.sync();
        let image = wal.crash_image();
        let (restored, recs) = Wal::from_image(&image).unwrap();
        assert_eq!(recs, sample_records());
        assert_eq!(restored.durable_len(), image.len());
        // And the restored log keeps working.
        let mut restored = restored;
        restored.append_sync(&LogRecord::End { txn: 99 }).unwrap();
        let again = Wal::recover(&restored.crash_image()).unwrap();
        assert_eq!(again.len(), sample_records().len() + 1);
    }

    #[test]
    fn cleared_log_is_a_new_log() {
        let mut wal = Wal::new();
        wal.set_group_window(3);
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        wal.sync_batched(5);
        wal.append(&LogRecord::End { txn: 8 }).unwrap();
        wal.clear();
        assert_eq!(format!("{wal:?}"), format!("{:?}", Wal::new()));
        // Same bytes, same watermark, same force accounting as a new log.
        let mut fresh = Wal::new();
        for w in [&mut wal, &mut fresh] {
            w.append_sync(&LogRecord::Begin { txn: 2 }).unwrap();
            w.append(&LogRecord::Decision { txn: 2, commit: false }).unwrap();
            assert!(w.sync_batched(5), "no group window survives a clear");
        }
        assert_eq!(format!("{wal:?}"), format!("{fresh:?}"));
    }

    /// The crash a site takes in place must leave the log the decode path
    /// left: for every number of synced records, with the rest of the log
    /// cut at every byte (whole unsynced frames, a torn header, a torn
    /// payload, nothing), `lose_volatile` against `from_image` of what a
    /// reader would find on disk.
    #[test]
    fn lose_volatile_equals_restoring_the_crash_image() {
        let mut whole = Wal::new();
        let mut boundaries = vec![0];
        for r in sample_records() {
            whole.append(&r).unwrap();
            boundaries.push(whole.len());
        }
        let image = whole.full_image();
        let mut cases = 0;
        for (synced, &durable) in boundaries.iter().enumerate() {
            for cut in durable..=image.len() {
                // `synced` records forced one by one (the last through an
                // open group window), then `image[durable..cut]` written
                // and never forced.
                let mut wal = Wal::new();
                wal.set_group_window(4);
                for (t, r) in sample_records().iter().take(synced).enumerate() {
                    wal.append(r).unwrap();
                    wal.sync_batched(t as u64);
                }
                assert_eq!(wal.durable_len(), durable);
                wal.buf.extend_from_slice(&image[durable..cut]);

                // The torn tail is dropped by both: decoding `image[..cut]`
                // keeps whole frames only, and nothing past `durable` was
                // promised to survive.
                let (from_disk, _) = Wal::from_image(&wal.crash_image()).unwrap();
                let (from_torn, recs) = Wal::from_image(&image[..cut]).unwrap();
                assert!(recs.len() >= synced && from_torn.len() >= durable, "cut {cut}");
                wal.lose_volatile();
                assert_eq!(format!("{wal:?}"), format!("{from_disk:?}"), "{synced} synced, {cut}");
                assert_eq!(wal.as_bytes(), &from_torn.as_bytes()[..durable]);
                assert_eq!(wal.sync_stats(), SyncStats::default());

                // And both keep working identically: same bytes, same
                // watermark, same force accounting (no window survives).
                let mut restored = from_disk;
                for w in [&mut wal, &mut restored] {
                    w.append_sync(&LogRecord::End { txn: 99 }).unwrap();
                    w.append(&LogRecord::Begin { txn: 100 }).unwrap();
                    assert!(w.sync_batched(1), "no group window survives a crash");
                }
                assert_eq!(format!("{wal:?}"), format!("{restored:?}"), "{synced} synced, {cut}");
                assert_eq!(Wal::recover(wal.as_bytes()).unwrap().len(), synced + 2);
                cases += 1;
            }
        }
        assert!(cases > 300, "every prefix at every tear: {cases}");
    }

    #[test]
    fn clone_from_overwrites_a_used_log() {
        let mut source = Wal::new();
        source.set_group_window(3);
        for (t, r) in sample_records().iter().enumerate() {
            source.append(r).unwrap();
            source.sync_batched(t as u64);
        }
        source.append(&LogRecord::End { txn: 8 }).unwrap();
        // Longer than the source, shorter than it, and empty.
        let mut long = source.clone();
        long.append_sync(&LogRecord::Begin { txn: 9 }).unwrap();
        let mut short = Wal::new();
        short.append_sync(&LogRecord::Begin { txn: 1 }).unwrap();
        for mut target in [long, short, Wal::new()] {
            target.clone_from(&source);
            assert_eq!(format!("{target:?}"), format!("{source:?}"));
        }
    }

    #[test]
    fn lsn_is_byte_offset() {
        let mut wal = Wal::new();
        let l0 = wal.append(&LogRecord::Begin { txn: 1 }).unwrap();
        let l1 = wal.append(&LogRecord::Begin { txn: 2 }).unwrap();
        assert_eq!(l0, 0);
        assert!(l1 > l0);
    }

    #[test]
    fn oversized_record_rejected_before_encoding() {
        // Regression: `key.len() as u32` used to narrow silently, writing a
        // frame whose length prefix disagrees with its bytes. The length
        // check fires before any encoding, so this 4 GiB key is never
        // copied (and, being lazily zeroed, never faulted in).
        let key = vec![0u8; u32::MAX as usize + 1];
        let mut wal = Wal::new();
        let err = wal.append(&LogRecord::Delete { txn: 1, key }).unwrap_err();
        assert!(matches!(err, WalError::RecordTooLarge { .. }));
        assert!(wal.is_empty(), "failed append must leave the log untouched");
        // A failed compaction must not lose the existing log either.
        wal.append_sync(&LogRecord::Begin { txn: 1 }).unwrap();
        let huge = vec![(vec![0u8; u32::MAX as usize + 1], Vec::new())];
        assert!(matches!(wal.checkpoint_compact(huge), Err(WalError::RecordTooLarge { .. })));
        assert_eq!(Wal::recover(&wal.crash_image()).unwrap(), vec![LogRecord::Begin { txn: 1 }]);
    }

    #[test]
    fn empty_image_recovers_empty() {
        assert_eq!(Wal::recover(&[]).unwrap(), vec![]);
        assert!(Wal::new().is_empty());
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::*;
    use crate::kv::KvStore;

    fn populated() -> (Wal, KvStore) {
        let mut wal = Wal::new();
        let mut kv = KvStore::new();
        for i in 0..5u64 {
            kv.stage_put(i, format!("k{i}").into_bytes(), format!("v{i}").into_bytes());
            kv.log_stage(i, &mut wal);
            wal.append(&LogRecord::Decision { txn: i, commit: i != 2 }).unwrap();
            if i != 2 {
                kv.commit(i);
            } else {
                kv.abort(i);
            }
        }
        wal.sync();
        (wal, kv)
    }

    #[test]
    fn checkpoint_roundtrips() {
        let rec = LogRecord::Checkpoint {
            pairs: vec![(b"a".to_vec(), b"1".to_vec()), (b"b".to_vec(), vec![])],
        };
        let mut wal = Wal::new();
        wal.append_sync(&rec).unwrap();
        assert_eq!(Wal::recover(&wal.crash_image()).unwrap(), vec![rec]);
    }

    #[test]
    fn compaction_preserves_committed_state() {
        let (mut wal, kv) = populated();
        let before = KvStore::redo_from_log(&Wal::recover(&wal.crash_image()).unwrap());
        let old_len = wal.len();
        wal.checkpoint_compact(kv.snapshot()).unwrap();
        assert!(wal.len() < old_len, "compaction must shrink this log");
        let after = KvStore::redo_from_log(&Wal::recover(&wal.crash_image()).unwrap());
        let b: Vec<_> = before.iter().collect();
        let a: Vec<_> = after.iter().collect();
        assert_eq!(a, b);
        // The aborted txn's key is absent in both.
        assert_eq!(after.get(b"k2"), None);
        assert_eq!(after.get(b"k3"), Some(b"v3".as_slice()));
    }

    #[test]
    fn post_checkpoint_records_replay_on_top() {
        let (mut wal, kv) = populated();
        wal.checkpoint_compact(kv.snapshot()).unwrap();
        wal.append(&LogRecord::Put { txn: 9, key: b"k0".to_vec(), value: b"new".to_vec() })
            .unwrap();
        wal.append(&LogRecord::Decision { txn: 9, commit: true }).unwrap();
        wal.append(&LogRecord::Put { txn: 10, key: b"k1".to_vec(), value: b"no".to_vec() })
            .unwrap();
        wal.append(&LogRecord::Decision { txn: 10, commit: false }).unwrap();
        wal.sync();
        let rebuilt = KvStore::redo_from_log(&Wal::recover(&wal.crash_image()).unwrap());
        assert_eq!(rebuilt.get(b"k0"), Some(b"new".as_slice()));
        assert_eq!(rebuilt.get(b"k1"), Some(b"v1".as_slice()), "aborted overwrite ignored");
    }

    #[test]
    fn empty_checkpoint_clears_state() {
        let (mut wal, _) = populated();
        wal.checkpoint_compact(Vec::new()).unwrap();
        let rebuilt = KvStore::redo_from_log(&Wal::recover(&wal.crash_image()).unwrap());
        assert!(rebuilt.is_empty());
    }

    #[test]
    fn torn_checkpoint_is_detected_as_truncation() {
        let mut wal = Wal::new();
        wal.checkpoint_compact(vec![(vec![b'x'; 100], vec![b'y'; 100])]).unwrap();
        let mut image = wal.crash_image();
        image.truncate(image.len() - 10);
        // The frame is torn, so recovery sees an empty clean prefix.
        assert_eq!(Wal::recover(&image).unwrap(), vec![]);
    }
}
