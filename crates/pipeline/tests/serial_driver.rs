//! One round at a time: the scheduler at in-flight 1 with a physical
//! force per sync, every lock conflict a no vote, and blocked rounds
//! keeping their locks until the batch is over. Distributed bank
//! transfers under every protocol, with crash injection, blocking and
//! recovery — the atomicity story told through the conservation-of-money
//! invariant. Every case ends on a cold restart from the logs, which must
//! rebuild exactly the stores it replaces.

use nbc_engine::{CrashPoint, CrashSpec, TransitionProgress};
use nbc_pipeline::{Pipeline, PipelineConfig, PipelineTxn, MAX_REAP_AFTER};
use nbc_simnet::SimRng;
use nbc_txn::{BankWorkload, InventoryWorkload, Op, ProtocolKind};

const KINDS: [ProtocolKind; 4] = [
    ProtocolKind::Central2pc,
    ProtocolKind::Central3pc,
    ProtocolKind::Decentralized2pc,
    ProtocolKind::Decentralized3pc,
];

/// The serial driver over `n` sites, seeded by one setup transaction.
fn seeded(kind: ProtocolKind, n: usize, setup: &[Op]) -> Pipeline {
    let mut p = Pipeline::new(PipelineConfig {
        max_in_flight: 1,
        group_window: 0,
        die_budget: 0,
        reap_after: MAX_REAP_AFTER,
        ..PipelineConfig::new(n, kind)
    });
    assert_eq!(p.run(vec![PipelineTxn::from_ops(setup)]).committed, 1, "setup must commit");
    p
}

fn transfer(w: &BankWorkload, from: usize, to: usize, amount: i64) -> PipelineTxn {
    PipelineTxn::new(w.transfer_ops(from, to, amount))
}

/// `count` random transfers, the `i`-th under the crashes `crashes(i)` names.
fn transfers(
    w: &BankWorkload,
    count: u32,
    mut crashes: impl FnMut(u32) -> Vec<CrashSpec>,
) -> Vec<PipelineTxn> {
    let mut gen = w.clone();
    (0..count)
        .map(|i| {
            let (from, to, amount) = gen.random_transfer();
            transfer(w, from, to, amount).with_crashes(crashes(i))
        })
        .collect()
}

fn crash(site: usize, ordinal: u32, progress: TransitionProgress) -> CrashSpec {
    CrashSpec { site, point: CrashPoint::OnTransition { ordinal, progress }, recover_at: None }
}

fn balance(p: &Pipeline, w: &BankWorkload, acct: usize) -> i64 {
    BankWorkload::decode(p.get(w.site_of(acct), &BankWorkload::key_of(acct)).expect("seeded"))
}

/// Cold-restart every site from its own log: each store must come back as
/// the one it replaced (`keys` are all the keys the case ever wrote).
fn assert_restart_is_identity(p: &mut Pipeline, keys: &[Vec<u8>]) {
    let image = |p: &Pipeline| -> Vec<Option<Vec<u8>>> {
        (0..p.n_sites())
            .flat_map(|site| keys.iter().map(move |k| p.get(site, k).map(<[u8]>::to_vec)))
            .collect()
    };
    let before = image(p);
    assert!(before.iter().any(Option::is_some), "the case wrote something");
    p.restart_from_logs();
    assert_eq!(image(p), before, "a restart from the logs changed a store");
}

/// The drained state every case ends in: no lock held, money conserved,
/// and the logs rebuild the stores.
fn assert_settled(p: &mut Pipeline, w: &BankWorkload) {
    assert_eq!(p.locked_keys(), 0);
    assert_eq!(p.total_balance(w), w.expected_total());
    let keys: Vec<_> = (0..w.n_accounts).map(BankWorkload::key_of).collect();
    assert_restart_is_identity(p, &keys);
    assert_eq!(p.total_balance(w), w.expected_total(), "after the restart");
}

#[test]
fn transfers_commit_and_conserve_money() {
    for kind in KINDS {
        let w = BankWorkload::new(3, 9, 1000, 11);
        let mut p = seeded(kind, 3, &w.setup_ops());
        let r = p.run(transfers(&w, 25, |_| vec![]));
        assert_eq!((r.committed, r.aborted, r.blocked), (25, 0, 0), "{}", kind.name());
        assert_settled(&mut p, &w);
    }
}

#[test]
fn three_pc_transfers_survive_coordinator_crashes() {
    for kind in [ProtocolKind::Central3pc, ProtocolKind::Decentralized3pc] {
        let w = BankWorkload::new(3, 9, 1000, 5);
        let mut p = seeded(kind, 3, &w.setup_ops());
        // Crash site 0 at varying points in every third round.
        let r = p.run(transfers(&w, 20, |i| {
            if i % 3 != 0 {
                return vec![];
            }
            let progress = if i % 2 == 0 {
                TransitionProgress::AfterMsgs(1)
            } else {
                TransitionProgress::BeforeLog
            };
            vec![crash(0, 1 + (i / 3) % 3, progress)]
        }));
        assert_eq!(r.blocked, 0, "{}: 3PC never blocks", kind.name());
        assert_eq!(r.decided(), 20, "{}", kind.name());
        assert_settled(&mut p, &w);
    }
}

#[test]
fn two_pc_blocks_and_poisons_locks_until_the_reap() {
    let w = BankWorkload::new(3, 6, 500, 2);
    let mut p = seeded(ProtocolKind::Central2pc, 3, &w.setup_ops());
    let r = p.run(vec![
        // Coordinator dies right after durably committing, telling nobody:
        // the slaves block, the locks on accounts 0 and 1 stay held.
        transfer(&w, 0, 1, 50).with_crashes(vec![crash(0, 2, TransitionProgress::AfterMsgs(0))]),
        // A later transfer touching the same accounts dies on the lock
        // conflict and aborts.
        transfer(&w, 0, 1, 10),
        // A transfer on disjoint accounts still works.
        transfer(&w, 2, 3, 10),
    ]);
    assert_eq!((r.blocked, r.aborted, r.committed), (1, 1, 1), "{r}");
    assert_eq!(r.deferrals, 0, "a conflict is a no vote, never a wait");
    // The reap resolves the blocked round by the coordinator's durable
    // decision (commit), after both later rounds ran against its locks.
    assert_eq!(r.reaped_commits, 1);
    assert!(r.finished_at >= MAX_REAP_AFTER, "the reap comes after the batch");
    assert_eq!(balance(&p, &w, 0), 450, "account 0 debited by the blocked transfer only");
    assert_eq!(balance(&p, &w, 2), 490);
    assert_settled(&mut p, &w);
}

#[test]
fn two_pc_blocked_round_with_undecided_coordinator_is_reaped_to_abort() {
    let w = BankWorkload::new(2, 4, 500, 9);
    let mut p = seeded(ProtocolKind::Central2pc, 2, &w.setup_ops());
    // Coordinator dies undecided in w1 (after collecting the vote but
    // before logging a decision): BeforeLog on its second transition.
    let r = p.run(vec![transfer(&w, 0, 1, 75).with_crashes(vec![crash(
        0,
        2,
        TransitionProgress::BeforeLog,
    )])]);
    assert_eq!((r.blocked, r.reaped_commits), (1, 0), "{r}");
    // Undecided at every site: the reap aborts.
    assert_eq!(balance(&p, &w, 0), 500, "undecided transfer rolled back");
    assert_settled(&mut p, &w);
}

#[test]
fn writes_at_two_sites_commit_and_are_readable() {
    let mut p = seeded(
        ProtocolKind::Central3pc,
        2,
        &[
            Op::Write { site: 0, key: b"k".to_vec(), value: b"1".to_vec() },
            Op::Write { site: 1, key: b"other".to_vec(), value: b"x".to_vec() },
        ],
    );
    assert_eq!(p.get(0, b"k"), Some(b"1".as_slice()));
    assert_eq!(p.get(1, b"other"), Some(b"x".as_slice()));
    assert_eq!(p.get(1, b"k"), None);
    assert_restart_is_identity(&mut p, &[b"k".to_vec(), b"other".to_vec()]);
}

#[test]
fn randomized_crash_storm_conserves_money_for_3pc() {
    let mut rng = SimRng::seed_from_u64(1234);
    for kind in [ProtocolKind::Central3pc, ProtocolKind::Decentralized3pc] {
        let w = BankWorkload::new(4, 12, 1000, 77);
        let mut p = seeded(kind, 4, &w.setup_ops());
        let r = p.run(transfers(&w, 60, |_| {
            if !rng.gen_bool(0.4) {
                return vec![];
            }
            let site = rng.gen_range(0usize..4);
            let ordinal = rng.gen_range(1u32..=3);
            let progress = match rng.gen_range(0usize..3) {
                0 => TransitionProgress::BeforeLog,
                1 => TransitionProgress::AfterMsgs(0),
                _ => TransitionProgress::AfterMsgs(rng.gen_range(1u32..=3)),
            };
            vec![crash(site, ordinal, progress)]
        }));
        assert_eq!(r.blocked, 0, "{}", kind.name());
        assert_eq!(r.decided(), 60, "{}", kind.name());
        assert_settled(&mut p, &w);
    }
}

#[test]
fn randomized_crash_storm_2pc_blocks_but_conserves_after_the_reaps() {
    let mut rng = SimRng::seed_from_u64(4321);
    let w = BankWorkload::new(3, 9, 1000, 99);
    let mut p = seeded(ProtocolKind::Central2pc, 3, &w.setup_ops());
    let r = p.run(transfers(&w, 80, |_| {
        if !rng.gen_bool(0.5) {
            return vec![];
        }
        vec![crash(0, 2, TransitionProgress::AfterMsgs(rng.gen_range(0u32..=2)))]
    }));
    assert!(r.blocked > 0, "2PC coordinator crashes must block sometimes");
    assert_eq!(r.decided(), 80);
    assert_settled(&mut p, &w);
}

#[test]
fn throughput_shape_2pc_strands_transactions_3pc_does_not() {
    // The qualitative claim behind the B4 table: under identical
    // coordinator-crash pressure, every 3PC round decides, while 2PC
    // strands a visible fraction.
    let run = |kind: ProtocolKind| {
        let w = BankWorkload::new(3, 9, 1000, 55);
        let mut p = seeded(kind, 3, &w.setup_ops());
        let r = p.run(transfers(&w, 40, |i| {
            if i % 4 == 0 {
                vec![crash(0, 2, TransitionProgress::AfterMsgs(0))]
            } else {
                vec![]
            }
        }));
        assert_settled(&mut p, &w);
        (r.committed, r.blocked)
    };
    let (committed_2pc, blocked_2pc) = run(ProtocolKind::Central2pc);
    let (committed_3pc, blocked_3pc) = run(ProtocolKind::Central3pc);
    assert!(blocked_2pc > 0, "2PC must strand transactions");
    assert_eq!(blocked_3pc, 0, "3PC must not block");
    assert!(
        committed_3pc > committed_2pc,
        "3PC throughput under failures exceeds 2PC ({committed_3pc} vs {committed_2pc})"
    );
}

#[test]
fn inventory_orders_conserve_stock_under_crashes() {
    let mut rng = SimRng::seed_from_u64(8);
    for kind in [ProtocolKind::Central3pc, ProtocolKind::Decentralized3pc] {
        let w = InventoryWorkload::new(3, 6, 100, 13);
        let mut p = seeded(kind, 3, &w.setup_ops());
        let mut gen = w.clone();
        // An order moves `qty` from an item's stock to its ledger entry at
        // site 0 — two deltas on (usually) different sites.
        let orders = (0..40)
            .map(|_| {
                let (item, qty) = gen.random_order();
                let crashes = if rng.gen_bool(0.3) {
                    let site = rng.gen_range(0usize..3);
                    let ordinal = rng.gen_range(1u32..=3);
                    vec![crash(
                        site,
                        ordinal,
                        TransitionProgress::AfterMsgs(rng.gen_range(0u32..=2)),
                    )]
                } else {
                    vec![]
                };
                PipelineTxn::new(vec![
                    Op::AddI64 {
                        site: w.site_of(item),
                        key: InventoryWorkload::stock_key(item),
                        delta: -qty,
                    },
                    Op::AddI64 { site: 0, key: InventoryWorkload::sold_key(item), delta: qty },
                ])
                .with_crashes(crashes)
            })
            .collect();
        let r = p.run(orders);
        assert_eq!(r.blocked, 0, "{}", kind.name());
        assert!(r.committed > 0, "{}", kind.name());
        let keys: Vec<_> = (0..w.n_items)
            .flat_map(|i| [InventoryWorkload::stock_key(i), InventoryWorkload::sold_key(i)])
            .collect();
        assert_restart_is_identity(&mut p, &keys);
        let count = |site: usize, key: &[u8]| BankWorkload::decode(p.get(site, key).unwrap());
        let mut sold = 0;
        for i in 0..w.n_items {
            let ledger = count(0, &InventoryWorkload::sold_key(i));
            let stock = count(w.site_of(i), &InventoryWorkload::stock_key(i));
            assert_eq!(stock + ledger, 100, "{}: item {i} stock+sold drifted", kind.name());
            sold += ledger;
        }
        assert!(sold > 0, "{}: the committed orders sold something", kind.name());
    }
}

#[test]
fn checkpoint_compacts_and_preserves_state() {
    let w = BankWorkload::new(3, 9, 1000, 21);
    let mut p = seeded(ProtocolKind::Central3pc, 3, &w.setup_ops());
    let mut batch = transfers(&w, 40, |_| vec![]);
    let later = batch.split_off(30);
    assert_eq!(p.run(batch).committed, 30);
    let before_bytes = p.wal_bytes();
    let balances = |p: &Pipeline| (0..9).map(|a| balance(p, &w, a)).collect::<Vec<i64>>();
    let before = balances(&p);
    p.checkpoint();
    assert!(p.wal_bytes() < before_bytes, "compaction must shrink logs");

    // State survives compaction — in the stores and in what the compacted
    // logs rebuild — and the sites keep working.
    assert_eq!(balances(&p), before);
    assert_settled(&mut p, &w);
    assert_eq!(balances(&p), before);
    assert_eq!(p.run(later).committed, 10);
    assert_settled(&mut p, &w);
}

#[test]
fn checkpoint_then_crash_catches_up_from_the_compacted_log() {
    let w = BankWorkload::new(3, 6, 500, 3);
    let mut p = seeded(ProtocolKind::Central3pc, 3, &w.setup_ops());
    p.checkpoint();
    // Post-checkpoint transfers; in the second, site 1 dies before it logs
    // its prepared state. The survivors terminate to commit, so site 1
    // missed a decision and redoes account 1 from the compacted log.
    let r = p.run(vec![
        transfer(&w, 0, 1, 25),
        transfer(&w, 1, 2, 30).with_crashes(vec![crash(1, 2, TransitionProgress::BeforeLog)]),
    ]);
    assert_eq!((r.committed, r.aborted, r.blocked), (2, 0, 0), "{r}");
    assert_eq!(balance(&p, &w, 1), 495, "site 1 caught up on the transfer it missed");
    assert_settled(&mut p, &w);
    // A second compaction, over frames that include the catch-up's.
    p.checkpoint();
    assert_settled(&mut p, &w);
}
