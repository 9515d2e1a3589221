//! Randomized property tests over the core invariants, driven by the
//! workspace's own deterministic [`SimRng`] (seeded sweeps — every case a
//! failure reports is replayable from its printed seed):
//!
//! * **Atomicity under arbitrary failures** — random vote plans and crash
//!   schedules can never make a safe protocol/rule combination produce a
//!   mixed decision.
//! * **Nonblocking under arbitrary failures** — any 3PC run with at least
//!   one survivor terminates at every operational site.
//! * **WAL robustness** — arbitrary record streams roundtrip; arbitrary
//!   truncation yields a clean prefix; arbitrary single-byte corruption is
//!   detected or truncates, never fabricates records.
//! * **Buffer-state synthesis** — on randomly generated canonical commit
//!   automata, `insert_buffer_states` always produces a Lemma-satisfying
//!   automaton.
//! * **KV store model** — staged transactions against a reference model.

use nonblocking_commit::engine::{
    run_with, CrashPoint, CrashSpec, RunConfig, TerminationRule, TransitionProgress,
};
use nonblocking_commit::model::canonical::{insert_buffer_states, CanonicalFsa, CanonicalState};
use nonblocking_commit::model::protocols::{catalog, central_3pc, decentralized_3pc};
use nonblocking_commit::model::{Analysis, StateClass};
use nonblocking_commit::net::SimRng;
use nonblocking_commit::storage::{KvStore, LogRecord, Wal};

// ---------------------------------------------------------------------
// Engine properties
// ---------------------------------------------------------------------

fn random_crash_spec(rng: &mut SimRng, n_sites: usize) -> CrashSpec {
    let site = rng.gen_range(0..n_sites);
    let point = match rng.gen_range(0u32..3) {
        0 => CrashPoint::OnTransition {
            ordinal: rng.gen_range(1u32..=4),
            progress: TransitionProgress::BeforeLog,
        },
        1 => CrashPoint::OnTransition {
            ordinal: rng.gen_range(1u32..=4),
            progress: TransitionProgress::AfterMsgs(rng.gen_range(0u32..=4)),
        },
        _ => CrashPoint::AtTime(rng.gen_range(1u64..40)),
    };
    let recover_at = if rng.gen_bool(0.5) { None } else { Some(rng.gen_range(50u64..300)) };
    CrashSpec { site, point, recover_at }
}

fn random_votes(rng: &mut SimRng, n: usize) -> Vec<bool> {
    (0..n).map(|_| rng.gen_bool(0.5)).collect()
}

#[test]
fn atomicity_survives_random_failures() {
    let mut rng = SimRng::seed_from_u64(0xA70);
    for case in 0..96 {
        let proto_ix = rng.gen_range(0usize..4);
        let p = &catalog(3)[proto_ix];
        let analysis = Analysis::build(p).unwrap();
        let mut cfg = RunConfig::happy(3);
        cfg.votes = random_votes(&mut rng, 3);
        cfg.crashes =
            (0..rng.gen_range(0usize..3)).map(|_| random_crash_spec(&mut rng, 3)).collect();
        cfg.rule =
            if rng.gen_bool(0.5) { TerminationRule::Skeen } else { TerminationRule::Cooperative };
        let r = run_with(p, &analysis, cfg);
        assert!(r.consistent, "case {case}, {}: {r}", p.name);
        assert!(!r.truncated, "case {case}, {}: event-limit hit", p.name);
    }
}

#[test]
fn three_pc_terminates_under_random_failures() {
    let mut rng = SimRng::seed_from_u64(0x3BC);
    for case in 0..96 {
        // One crash, no recovery: at least two survivors must all decide.
        let p = if rng.gen_bool(0.5) { central_3pc(3) } else { decentralized_3pc(3) };
        let analysis = Analysis::build(&p).unwrap();
        let mut cfg = RunConfig::happy(3);
        cfg.votes = random_votes(&mut rng, 3);
        cfg.crashes = vec![CrashSpec { recover_at: None, ..random_crash_spec(&mut rng, 3) }];
        let r = run_with(&p, &analysis, cfg);
        assert!(r.consistent, "case {case}, {}: {r}", p.name);
        assert!(!r.any_blocked, "case {case}, {}: {r}", p.name);
        assert!(r.all_operational_decided, "case {case}, {}: {r}", p.name);
    }
}

// ---------------------------------------------------------------------
// WAL properties
// ---------------------------------------------------------------------

fn random_bytes(rng: &mut SimRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..=max_len);
    (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect()
}

fn random_record(rng: &mut SimRng) -> LogRecord {
    let txn = rng.next_u64();
    match rng.gen_range(0u32..7) {
        0 => LogRecord::Begin { txn },
        1 => LogRecord::Progress {
            txn,
            state: rng.next_u64() as u32,
            class: rng.gen_range(0u32..256) as u8,
        },
        2 => LogRecord::Decision { txn, commit: rng.gen_bool(0.5) },
        3 => LogRecord::AlignedTo { txn, class: rng.gen_range(0u32..256) as u8 },
        4 => LogRecord::Put { txn, key: random_bytes(rng, 23), value: random_bytes(rng, 47) },
        5 => LogRecord::Delete { txn, key: random_bytes(rng, 23) },
        _ => LogRecord::End { txn },
    }
}

#[test]
fn wal_roundtrips_arbitrary_records() {
    let mut rng = SimRng::seed_from_u64(0x11A1);
    for _ in 0..128 {
        let records: Vec<LogRecord> =
            (0..rng.gen_range(0usize..40)).map(|_| random_record(&mut rng)).collect();
        let mut wal = Wal::new();
        for r in &records {
            wal.append(r).unwrap();
        }
        wal.sync();
        let recovered = Wal::recover(&wal.crash_image()).unwrap();
        assert_eq!(recovered, records);
    }
}

#[test]
fn wal_truncation_yields_clean_prefix() {
    let mut rng = SimRng::seed_from_u64(0x11A2);
    for _ in 0..128 {
        let records: Vec<LogRecord> =
            (0..rng.gen_range(1usize..30)).map(|_| random_record(&mut rng)).collect();
        let mut wal = Wal::new();
        for r in &records {
            wal.append(r).unwrap();
        }
        wal.sync();
        let image = wal.crash_image();
        let cut = rng.gen_range(0..=image.len());
        let recovered = Wal::recover(&image[..cut]).unwrap();
        assert!(recovered.len() <= records.len());
        assert_eq!(&records[..recovered.len()], &recovered[..]);
    }
}

#[test]
fn wal_corruption_never_fabricates() {
    let mut rng = SimRng::seed_from_u64(0x11A3);
    for _ in 0..128 {
        let records: Vec<LogRecord> =
            (0..rng.gen_range(1usize..20)).map(|_| random_record(&mut rng)).collect();
        let mut wal = Wal::new();
        for r in &records {
            wal.append(r).unwrap();
        }
        wal.sync();
        let mut image = wal.crash_image();
        let pos = rng.gen_range(0..image.len());
        image[pos] ^= 1 << rng.gen_range(0u32..8);
        match Wal::recover(&image) {
            // Detected corruption: fine.
            Err(_) => {}
            // Or a clean truncation: every decoded record must be a
            // *prefix* record of the original, unaltered. CRC catches
            // payload flips, so a surviving decode can only come from a
            // flipped *length* field interpreted as truncation — anything
            // else is fabrication.
            Ok(recovered) => {
                assert!(recovered.len() <= records.len());
                for (r, orig) in recovered.iter().zip(&records) {
                    assert_eq!(r, orig, "fabricated record");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Canonical synthesis property
// ---------------------------------------------------------------------

fn random_canonical_fsa(rng: &mut SimRng) -> CanonicalFsa {
    // Layered DAG: q (layer 0), `width` wait-ish states per layer, plus
    // final a and c. Every non-final state gets an edge forward (to a
    // later middle state or a final), and extra random edges are added.
    let layers = rng.gen_range(1usize..4);
    let width = rng.gen_range(1usize..3);
    let seeds: Vec<u16> = (0..8).map(|_| rng.next_u64() as u16).collect();

    let mut states =
        vec![CanonicalState { name: "q".into(), class: StateClass::Initial, committable: false }];
    for l in 0..layers {
        for w in 0..width {
            states.push(CanonicalState {
                name: format!("m{l}_{w}"),
                class: StateClass::Wait,
                committable: false,
            });
        }
    }
    let a = states.len() as u32;
    states.push(CanonicalState {
        name: "a".into(),
        class: StateClass::Aborted,
        committable: false,
    });
    let c = states.len() as u32;
    states.push(CanonicalState {
        name: "c".into(),
        class: StateClass::Committed,
        committable: true,
    });

    let mid = |l: usize, w: usize| (1 + l * width + w) as u32;
    let mut edges = Vec::new();
    // q to every first-layer state, plus unilateral abort.
    for w in 0..width {
        edges.push((0, mid(0, w)));
    }
    edges.push((0, a));
    // Forward chain between layers; last layer to finals.
    for l in 0..layers {
        for w in 0..width {
            let from = mid(l, w);
            if l + 1 < layers {
                edges.push((from, mid(l + 1, (w + 1) % width)));
            } else {
                edges.push((from, c));
            }
            // Seeded extra abort edges.
            if seeds[(l * width + w) % seeds.len()].is_multiple_of(3) {
                edges.push((from, a));
            }
            // Seeded shortcut straight to commit (a blocking pattern when
            // the source is abort-adjacent).
            if seeds[(l * width + w + 1) % seeds.len()].is_multiple_of(4) {
                edges.push((from, c));
            }
        }
    }
    CanonicalFsa::new("random canonical", states, edges, 0)
}

#[test]
fn buffer_insertion_always_yields_nonblocking() {
    let mut rng = SimRng::seed_from_u64(0xBF5);
    for case in 0..256 {
        let fsa = random_canonical_fsa(&mut rng);
        let fixed = insert_buffer_states(&fsa);
        assert!(fixed.is_nonblocking(), "case {case} violations: {:?}", fixed.lemma_violations());
        // The fix never removes reachability structure: state count only
        // grows, and the commit/abort states survive.
        assert!(fixed.states().len() >= fsa.states().len());
    }
}

// ---------------------------------------------------------------------
// KV store vs. reference model
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum KvOp {
    Put(u8, Vec<u8>, Vec<u8>),
    Delete(u8, Vec<u8>),
    Commit(u8),
    Abort(u8),
}

fn random_kv_op(rng: &mut SimRng) -> KvOp {
    let t = rng.gen_range(0u32..4) as u8;
    match rng.gen_range(0u32..4) {
        0 => {
            let klen = rng.gen_range(1usize..4);
            let k = (0..klen).map(|_| rng.gen_range(0u32..256) as u8).collect();
            KvOp::Put(t, k, random_bytes(rng, 3))
        }
        1 => {
            let klen = rng.gen_range(1usize..4);
            KvOp::Delete(t, (0..klen).map(|_| rng.gen_range(0u32..256) as u8).collect())
        }
        2 => KvOp::Commit(t),
        _ => KvOp::Abort(t),
    }
}

#[test]
fn kv_store_matches_reference_model() {
    use std::collections::BTreeMap;
    let mut rng = SimRng::seed_from_u64(0x4B5);
    for _ in 0..128 {
        let ops: Vec<KvOp> =
            (0..rng.gen_range(0usize..60)).map(|_| random_kv_op(&mut rng)).collect();
        let mut kv = KvStore::new();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut staged: BTreeMap<u8, Vec<KvOp>> = BTreeMap::new();

        for op in ops {
            match op {
                KvOp::Put(t, ref k, ref v) => {
                    kv.stage_put(t as u64, k.clone(), v.clone());
                    staged.entry(t).or_default().push(op.clone());
                }
                KvOp::Delete(t, ref k) => {
                    kv.stage_delete(t as u64, k.clone());
                    staged.entry(t).or_default().push(op.clone());
                }
                KvOp::Commit(t) => {
                    kv.commit(t as u64);
                    for s in staged.remove(&t).unwrap_or_default() {
                        match s {
                            KvOp::Put(_, k, v) => {
                                model.insert(k, v);
                            }
                            KvOp::Delete(_, k) => {
                                model.remove(&k);
                            }
                            _ => unreachable!(),
                        }
                    }
                }
                KvOp::Abort(t) => {
                    kv.abort(t as u64);
                    staged.remove(&t);
                }
            }
        }
        let got: BTreeMap<Vec<u8>, Vec<u8>> =
            kv.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        assert_eq!(got, model);
    }
}
