//! Substrate microbenchmarks: WAL append/recover throughput, CRC-32, and
//! the KV store's transactional operations.

use nbc_bench::BenchGroup;
use nonblocking_commit::storage::crc32::crc32;
use nonblocking_commit::storage::{KvStore, LogRecord, Wal};
use std::hint::black_box;

fn bench_wal_append() {
    let mut g = BenchGroup::new("wal_append");
    for &batch in &[100usize, 1000] {
        g.bench(&format!("progress_records/{batch}"), || {
            let mut wal = Wal::new();
            for i in 0..batch as u64 {
                wal.append(&LogRecord::Progress { txn: i, state: 1, class: 1 })
                    .expect("wal record fits");
            }
            wal.sync();
            wal.len()
        });
        let value = vec![0xAAu8; 64];
        g.bench(&format!("put_records_64b/{batch}"), || {
            let mut wal = Wal::new();
            for i in 0..batch as u64 {
                wal.append(&LogRecord::Put {
                    txn: i,
                    key: format!("key{i:08}").into_bytes(),
                    value: value.clone(),
                })
                .expect("wal record fits");
            }
            wal.sync();
            wal.len()
        });
    }
}

fn bench_wal_recover() {
    let mut wal = Wal::new();
    for i in 0..5_000u64 {
        wal.append(&LogRecord::Put {
            txn: i % 50,
            key: format!("key{i:08}").into_bytes(),
            value: vec![0x55u8; 64],
        })
        .expect("wal record fits");
        if i % 50 == 49 {
            wal.append(&LogRecord::Decision { txn: i % 50, commit: i % 2 == 0 })
                .expect("wal record fits");
        }
    }
    wal.sync();
    let image = wal.crash_image();
    let mut g = BenchGroup::new("wal_recover");
    g.bench("decode_5k_records", || Wal::recover(black_box(&image)).unwrap().len());
    let records = Wal::recover(&image).unwrap();
    g.bench("redo_5k_records", || KvStore::redo_from_log(black_box(&records)).len());
}

fn bench_crc32() {
    let mut g = BenchGroup::new("crc32");
    for &size in &[64usize, 4096] {
        let data = vec![0xC3u8; size];
        g.bench(&format!("{size}"), || crc32(black_box(&data)));
    }
}

fn bench_kv_txn() {
    let mut g = BenchGroup::new("kv_txn");
    g.bench("stage_commit_100", || {
        let mut kv = KvStore::new();
        for i in 0..100u64 {
            kv.stage_put(1, format!("k{i}").into_bytes(), vec![0; 16]);
        }
        kv.commit(1);
        kv.len()
    });
}

fn main() {
    bench_wal_append();
    bench_wal_recover();
    bench_crc32();
    bench_kv_txn();
}
