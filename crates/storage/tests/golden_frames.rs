//! Golden WAL frames, captured at commit 55b52a3 (`Wal::append` encoding
//! into a scratch `Vec` under a bytewise table CRC) and pinned: however a
//! frame is built, the bytes on the log — length prefix, checksum, tag,
//! payload — and the durable watermark must be these.

use nbc_storage::{KvStore, LogRecord, Wal};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The frame `rec` appends to an empty log.
fn frame(rec: &LogRecord) -> String {
    let mut wal = Wal::new();
    assert_eq!(wal.append(rec).expect("record fits"), 0);
    assert_eq!(wal.len() as u64, rec.frame_len());
    hex(wal.as_bytes())
}

#[test]
fn one_frame_of_each_record_kind() {
    let pair = |k: &[u8], v: &[u8]| (k.to_vec(), v.to_vec());
    #[rustfmt::skip]
    let rows: [(LogRecord, &str); 12] = [
        (LogRecord::Begin { txn: 7 },
         "09000000f409b7fb010700000000000000"),
        (LogRecord::Progress { txn: 0x0102_0304_0506_0708, state: 3, class: 4 },
         "0e00000025acbfdf0208070605040302010300000004"),
        (LogRecord::Decision { txn: 7, commit: true },
         "0a0000002a8edb1b03070000000000000001"),
        (LogRecord::Decision { txn: 7, commit: false },
         "0a000000bcbedc6c03070000000000000000"),
        (LogRecord::AlignedTo { txn: 9, class: 2 },
         "0a0000007b1fcca804090000000000000002"),
        (LogRecord::Put { txn: 7, key: b"alice".to_vec(), value: b"100".to_vec() },
         "19000000e2b5482805070000000000000005000000616c69636503000000313030"),
        (LogRecord::Put { txn: 7, key: Vec::new(), value: Vec::new() },
         "1100000044e5b8c00507000000000000000000000000000000"),
        (LogRecord::Delete { txn: 7, key: b"bob".to_vec() },
         "10000000645f491f06070000000000000003000000626f62"),
        (LogRecord::Delete { txn: 7, key: Vec::new() },
         "0d000000d07009db06070000000000000000000000"),
        (LogRecord::End { txn: u64::MAX },
         "0900000012790ec607ffffffffffffffff"),
        (LogRecord::Checkpoint { pairs: Vec::new() },
         "05000000dcbc52f60800000000"),
        (LogRecord::Checkpoint { pairs: vec![pair(b"a", b"1"), pair(b"bc", b"")] },
         "19000000a24af52108020000000100000061010000003102000000626300000000"),
    ];
    for (rec, golden) in &rows {
        assert_eq!(frame(rec), *golden, "{rec:?}");
    }
}

#[test]
fn three_record_log_with_its_durable_watermark() {
    let begin = LogRecord::Begin { txn: 42 };
    let put = LogRecord::Put {
        txn: 42,
        key: b"acct000007".to_vec(),
        value: 1_000i64.to_le_bytes().to_vec(),
    };
    let decision = LogRecord::Decision { txn: 42, commit: true };
    let mut wal = Wal::new();
    assert_eq!(wal.append(&begin).unwrap(), 0);
    assert_eq!(wal.append_sync(&put).unwrap(), 17);
    assert_eq!(wal.append(&decision).unwrap(), 60);
    assert_eq!((wal.len(), wal.durable_len()), (78, 60));
    assert_eq!(
        hex(wal.as_bytes()),
        "09000000737ec499012a00000000000000\
         23000000b113f46e052a000000000000000a0000006163637430303030303708000000e803000000000000\
         0a000000deeb6568032a0000000000000001"
    );
    assert_eq!(wal.crash_image(), wal.as_bytes()[..60]);
    assert_eq!(Wal::recover(wal.as_bytes()).unwrap(), vec![begin, put, decision]);
}

#[test]
fn staged_writes_log_as_put_and_delete_frames() {
    let mut kv = KvStore::new();
    kv.stage_put(7, b"alice".to_vec(), b"100".to_vec());
    kv.stage_delete(7, b"bob".to_vec());
    let mut wal = Wal::new();
    kv.log_stage(7, &mut wal);
    assert_eq!(
        hex(wal.as_bytes()),
        "19000000e2b5482805070000000000000005000000616c69636503000000313030\
         10000000645f491f06070000000000000003000000626f62"
    );
    assert_eq!(wal.durable_len(), 0, "log_stage appends; the caller forces");
}
