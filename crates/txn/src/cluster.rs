//! A multi-site transactional cluster driving the commit engine.
//!
//! Each site owns a key-value store, a persistent WAL, and a lock manager.
//! A distributed transaction stages its writes under strict 2PL (wait-die
//! kills younger conflicters → organic no votes), then runs one commit
//! round through `nbc-engine` under the configured protocol, optionally
//! with injected crashes.
//!
//! Crashes are transient per round: a site that "crashed" during a round
//! reboots immediately but has *missed* the decision — its committed state
//! is stale until [`Cluster::recover_all`] replays the WAL (the local
//! recovery protocol). A **blocked** round (2PC's fate when the
//! coordinator dies in the window) keeps its locks, poisoning later
//! transactions that touch the same keys — the mechanism by which blocking
//! destroys throughput.

use std::collections::BTreeMap;
use std::ops::Range;

use nbc_core::protocols::{central_2pc, central_3pc, decentralized_2pc, decentralized_3pc};
use nbc_core::{Analysis, Protocol};
use nbc_engine::{run_with, CrashSpec, RunConfig, TerminationRule};
use nbc_simnet::LatencyModel;
use nbc_storage::{KvStore, LogRecord, Wal};

use crate::locks::{LockManager, LockMode, LockOutcome};
use crate::workload::{BankWorkload, InventoryWorkload, Op};

/// Which commit protocol the cluster runs.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ProtocolKind {
    /// Central-site two-phase commit (blocking).
    Central2pc,
    /// Central-site three-phase commit (nonblocking).
    Central3pc,
    /// Decentralized two-phase commit (blocking).
    Decentralized2pc,
    /// Decentralized three-phase commit (nonblocking).
    Decentralized3pc,
    /// Paxos Commit with `2f + 1` acceptor sites riding on top of the
    /// data sites. The data sites are the protocol's participants; the
    /// acceptors carry no keys, locks, or WAL — they exist only inside
    /// the commit round.
    Paxos {
        /// Tolerated acceptor crashes.
        f: usize,
    },
}

impl ProtocolKind {
    /// Instantiate the protocol for `n` sites.
    pub fn build(self, n: usize) -> Protocol {
        match self {
            Self::Central2pc => central_2pc(n),
            Self::Central3pc => central_3pc(n),
            Self::Decentralized2pc => decentralized_2pc(n),
            Self::Decentralized3pc => decentralized_3pc(n),
            Self::Paxos { f } => nbc_paxos::paxos_commit(n, f),
        }
    }

    /// The termination rule a deployment of this protocol would use:
    /// cooperative termination for the blocking protocols, the paper's
    /// rule for the nonblocking ones. Paxos Commit participants behave
    /// like 2PC slaves, so they terminate cooperatively.
    pub fn rule(self) -> TerminationRule {
        match self {
            Self::Central2pc | Self::Decentralized2pc | Self::Paxos { .. } => {
                TerminationRule::Cooperative
            }
            Self::Central3pc | Self::Decentralized3pc => TerminationRule::Skeen,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Central2pc => "central 2PC",
            Self::Central3pc => "central 3PC",
            Self::Decentralized2pc => "decentralized 2PC",
            Self::Decentralized3pc => "decentralized 3PC",
            Self::Paxos { .. } => "paxos commit",
        }
    }
}

/// Cluster configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of sites.
    pub n_sites: usize,
    /// Commit protocol.
    pub kind: ProtocolKind,
    /// Network latency per message.
    pub latency: u64,
    /// Failure detection delay.
    pub detect_delay: u64,
}

impl ClusterConfig {
    /// Defaults: latency 1, detection delay 5.
    pub fn new(n_sites: usize, kind: ProtocolKind) -> Self {
        Self { n_sites, kind, latency: 1, detect_delay: 5 }
    }
}

/// Outcome of one distributed transaction.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TxnResult {
    /// Committed everywhere (stale crashed sites catch up on recovery).
    Committed,
    /// Aborted (vote no, or injected failure before the decision).
    Aborted,
    /// The commit round blocked; locks are still held.
    Blocked,
}

/// Aggregate cluster statistics.
#[derive(Clone, Debug, Default)]
pub struct ClusterStats {
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted.
    pub aborted: u64,
    /// Transactions blocked (locks still held).
    pub blocked: u64,
    /// Total messages across all commit rounds.
    pub messages: u64,
    /// Total simulated time across all commit rounds.
    pub sim_time: u64,
}

/// The cluster.
pub struct Cluster {
    cfg: ClusterConfig,
    protocol: Protocol,
    analysis: Analysis,
    stores: Vec<KvStore>,
    wals: Vec<Wal>,
    locks: Vec<LockManager>,
    next_txn: u64,
    /// Global decision ledger: what actually happened to each transaction
    /// (including decisions durable only at crashed sites).
    ledger: BTreeMap<u64, bool>,
    /// Per-site transactions whose decision the site missed (crashed
    /// during the round), each with the range of its `Begin` + redo frames
    /// in the site's WAL ([`Cluster::checkpoint`], the only compaction,
    /// requires this list to be empty, so a recorded range never moves).
    missed: Vec<Vec<(u64, Range<usize>)>>,
    /// Blocked transactions (locks held).
    blocked_txns: Vec<u64>,
    /// Statistics.
    pub stats: ClusterStats,
}

impl Cluster {
    /// Create a cluster.
    pub fn new(cfg: ClusterConfig) -> Self {
        let protocol = cfg.kind.build(cfg.n_sites);
        let analysis = Analysis::build(&protocol).expect("catalog protocols analyzable");
        let n = cfg.n_sites;
        Self {
            cfg,
            protocol,
            analysis,
            stores: vec![KvStore::new(); n],
            wals: vec![Wal::new(); n],
            locks: vec![LockManager::new(); n],
            next_txn: 1,
            ledger: BTreeMap::new(),
            missed: vec![Vec::new(); n],
            blocked_txns: Vec::new(),
            stats: ClusterStats::default(),
        }
    }

    /// Number of sites.
    pub fn n_sites(&self) -> usize {
        self.cfg.n_sites
    }

    /// Committed value of `key` at `site`.
    pub fn get(&self, site: usize, key: &[u8]) -> Option<&[u8]> {
        self.stores[site].get(key)
    }

    /// Execute a transaction with no injected failures.
    pub fn execute(&mut self, ops: &[Op]) -> TxnResult {
        self.execute_with_crashes(ops, &[])
    }

    /// Bring every site that missed a decision back up to date before it
    /// serves another transaction: the quick-reboot recovery path (the
    /// site asks the survivors — modeled by the ledger — and redoes the
    /// missed transaction from its own WAL images).
    pub(crate) fn catch_up(&mut self) {
        for site in 0..self.cfg.n_sites {
            let mut still_missing = Vec::new();
            for (txn, frames) in std::mem::take(&mut self.missed[site]) {
                match self.ledger.get(&txn).copied() {
                    Some(commit) => {
                        self.wals[site]
                            .append_sync(&LogRecord::Decision { txn, commit })
                            .expect("wal record fits");
                        self.wals[site].append(&LogRecord::End { txn }).expect("wal record fits");
                        if commit {
                            let records = Wal::recover(&self.wals[site].as_bytes()[frames])
                                .expect("cluster WALs are well-formed");
                            self.stores[site].redo_one(&records, txn);
                        }
                    }
                    None => still_missing.push((txn, frames)),
                }
            }
            self.missed[site] = still_missing;
        }
    }

    /// Execute a transaction, injecting `crashes` into its commit round.
    pub fn execute_with_crashes(&mut self, ops: &[Op], crashes: &[CrashSpec]) -> TxnResult {
        self.catch_up();
        let txn = self.next_txn;
        self.next_txn += 1;
        let n = self.cfg.n_sites;
        let mut votes = vec![true; n];
        let mut touched = vec![false; n];
        let mut logged = vec![0..0; n];

        // Acquire locks and stage writes. A conflict (`Die`, or `Wait` on a
        // holder that will never release because it is blocked) makes the
        // site vote no.
        for op in ops {
            let site = op.site();
            assert!(site < n, "op addresses site {site} of {n}");
            touched[site] = true;
            if !votes[site] {
                continue; // site already doomed
            }
            match op {
                Op::Read { key, .. } => {
                    if self.locks[site].request(txn, key, LockMode::Shared) != LockOutcome::Granted
                    {
                        votes[site] = false;
                    }
                }
                Op::Write { key, value, .. } => {
                    if self.locks[site].request(txn, key, LockMode::Exclusive)
                        == LockOutcome::Granted
                    {
                        self.stores[site].stage_put(txn, key.clone(), value.clone());
                    } else {
                        votes[site] = false;
                    }
                }
            }
        }

        // Write-ahead: Begin + redo images, durable before the vote.
        for (site, touched_here) in touched.iter().enumerate() {
            if *touched_here {
                let before = self.wals[site].len();
                self.wals[site].append(&LogRecord::Begin { txn }).expect("wal record fits");
                let store = &self.stores[site];
                store.log_stage(txn, &mut self.wals[site]);
                logged[site] = before..self.wals[site].len();
                self.wals[site].sync();
            }
        }

        // Run the commit round. Quorum protocols bring extra acceptor
        // sites along; they carry no data and always "vote" yes.
        let mut rc = RunConfig::happy(self.protocol.n_sites());
        rc.votes[..n].copy_from_slice(&votes);
        rc.crashes = crashes.to_vec();
        rc.rule = self.cfg.kind.rule();
        rc.latency = LatencyModel::constant(self.cfg.latency);
        rc.detect_delay = self.cfg.detect_delay;
        let report = run_with(&self.protocol, &self.analysis, rc);
        self.stats.messages += report.msgs_sent;
        self.stats.sim_time += report.finished_at;
        assert!(report.consistent, "txn {txn}: commit round violated atomicity: {report}");

        // `RunReport::decision()` is the omniscient auditor's view — it
        // reports a decision durable only in a crashed site's log even
        // when every survivor is blocked. The cluster must act on what the
        // *operational* sites know.
        let blocked = report.any_blocked || !report.all_operational_decided;
        match (blocked, report.decision()) {
            (false, Some(commit)) => {
                self.ledger.insert(txn, commit);
                for (site, touched_here) in touched.iter().enumerate() {
                    let op_outcome = report.outcomes[site];
                    if op_outcome.operational() {
                        self.apply_decision(site, txn, commit);
                    } else if *touched_here {
                        // Crashed during the round: volatile stage lost;
                        // the WAL's redo images remain for recovery.
                        self.stores[site].abort(txn);
                        self.locks[site].release_all(txn);
                        self.missed[site].push((txn, logged[site].clone()));
                    } else {
                        self.locks[site].release_all(txn);
                    }
                }
                if commit {
                    self.stats.committed += 1;
                    TxnResult::Committed
                } else {
                    self.stats.aborted += 1;
                    TxnResult::Aborted
                }
            }
            _ => {
                // Blocked: record a durable decision if one exists only at
                // a crashed site (the survivors don't know it — that is
                // the point of blocking — but the ledger is the omniscient
                // auditor's view, consulted at recovery).
                for o in &report.outcomes {
                    if let Some(commit) = o.decision() {
                        self.ledger.insert(txn, commit);
                    }
                }
                self.blocked_txns.push(txn);
                self.stats.blocked += 1;
                TxnResult::Blocked
            }
        }
    }

    fn apply_decision(&mut self, site: usize, txn: u64, commit: bool) {
        self.wals[site].append_sync(&LogRecord::Decision { txn, commit }).expect("wal record fits");
        if commit {
            self.stores[site].commit(txn);
        } else {
            self.stores[site].abort(txn);
        }
        self.wals[site].append(&LogRecord::End { txn }).expect("wal record fits");
        self.locks[site].release_all(txn);
    }

    /// Resolve every blocked transaction and replay missed decisions at
    /// every site — the cluster-wide recovery protocol. Blocked
    /// transactions whose outcome is durable at a crashed site adopt it;
    /// those whose coordinator died undecided abort (the recovered
    /// coordinator aborts a transaction it never decided).
    pub fn recover_all(&mut self) {
        // Resolve blocked transactions.
        let blocked = std::mem::take(&mut self.blocked_txns);
        for txn in blocked {
            let commit = self.ledger.get(&txn).copied().unwrap_or(false);
            self.ledger.insert(txn, commit);
            for site in 0..self.cfg.n_sites {
                self.apply_decision(site, txn, commit);
            }
        }
        // Replay missed decisions from the WAL redo images.
        for site in 0..self.cfg.n_sites {
            let missed = std::mem::take(&mut self.missed[site]);
            for (txn, _) in missed {
                let commit = *self.ledger.get(&txn).expect("missed txn was decided");
                self.wals[site]
                    .append_sync(&LogRecord::Decision { txn, commit })
                    .expect("wal record fits");
                self.wals[site].append(&LogRecord::End { txn }).expect("wal record fits");
            }
            // Rebuild the store from the durable log: the real recovery
            // path, exercising WAL decode + redo.
            let records =
                Wal::recover(self.wals[site].as_bytes()).expect("cluster WALs are well-formed");
            let rebuilt = KvStore::redo_from_log(&records);
            // Staged-but-undecided data of future transactions does not
            // exist at this point (recover_all resolves everything), so
            // the rebuilt store is authoritative.
            self.stores[site] = rebuilt;
        }
    }

    /// Compact every site's WAL into a single checkpoint record. Requires
    /// quiescence: no blocked transactions and no missed decisions (call
    /// [`Cluster::recover_all`] first if in doubt).
    ///
    /// # Panics
    /// Panics if transactions are still unresolved.
    pub fn checkpoint(&mut self) {
        assert!(self.blocked_txns.is_empty(), "checkpoint requires no blocked transactions");
        assert!(self.missed.iter().all(Vec::is_empty), "checkpoint requires no missed decisions");
        for site in 0..self.cfg.n_sites {
            let snapshot = self.stores[site].snapshot();
            self.wals[site].checkpoint_compact(snapshot).expect("wal record fits");
        }
    }

    /// Total bytes across all site WALs (observability for compaction).
    pub fn wal_bytes(&self) -> usize {
        self.wals.iter().map(Wal::len).sum()
    }

    /// Number of transactions currently blocked.
    pub fn blocked_count(&self) -> usize {
        self.blocked_txns.len()
    }

    /// Total keys currently locked across all sites.
    pub fn locked_keys(&self) -> usize {
        self.locks.iter().map(LockManager::locked_keys).sum()
    }

    /// Execute a bank transfer (helper around [`Cluster::execute`]).
    pub fn transfer(&mut self, w: &BankWorkload, from: usize, to: usize, amount: i64) -> TxnResult {
        self.transfer_with_crashes(w, from, to, amount, &[])
    }

    /// Bank transfer with injected crashes in its commit round.
    pub fn transfer_with_crashes(
        &mut self,
        w: &BankWorkload,
        from: usize,
        to: usize,
        amount: i64,
        crashes: &[CrashSpec],
    ) -> TxnResult {
        // Catch up before reading: a site that missed a decision must not
        // serve stale balances.
        self.catch_up();
        let (fk, tk) = (BankWorkload::key_of(from), BankWorkload::key_of(to));
        let (fs, ts) = (w.site_of(from), w.site_of(to));
        let fb = self.get(fs, &fk).map(BankWorkload::decode).unwrap_or(w.initial_balance);
        let tb = self.get(ts, &tk).map(BankWorkload::decode).unwrap_or(w.initial_balance);
        let ops = vec![
            Op::Read { site: fs, key: fk.clone() },
            Op::Read { site: ts, key: tk.clone() },
            Op::Write { site: fs, key: fk, value: BankWorkload::encode(fb - amount) },
            Op::Write { site: ts, key: tk, value: BankWorkload::encode(tb + amount) },
        ];
        self.execute_with_crashes(&ops, crashes)
    }

    /// Place an inventory order: decrement `item`'s stock, increment its
    /// ledger entry — two writes on (usually) different sites.
    pub fn place_order(
        &mut self,
        w: &InventoryWorkload,
        item: usize,
        qty: i64,
        crashes: &[CrashSpec],
    ) -> TxnResult {
        self.catch_up();
        let (sk, lk) = (InventoryWorkload::stock_key(item), InventoryWorkload::sold_key(item));
        let ss = w.site_of(item);
        let stock = self.get(ss, &sk).map(BankWorkload::decode).unwrap_or(w.initial_stock);
        let sold = self.get(0, &lk).map(BankWorkload::decode).unwrap_or(0);
        let ops = vec![
            Op::Read { site: ss, key: sk.clone() },
            Op::Read { site: 0, key: lk.clone() },
            Op::Write { site: ss, key: sk, value: BankWorkload::encode(stock - qty) },
            Op::Write { site: 0, key: lk, value: BankWorkload::encode(sold + qty) },
        ];
        self.execute_with_crashes(&ops, crashes)
    }

    /// Per-item `stock + sold` sums (each must equal the initial stock).
    pub fn inventory_totals(&self, w: &InventoryWorkload) -> Vec<i64> {
        (0..w.n_items)
            .map(|i| {
                let stock = self
                    .get(w.site_of(i), &InventoryWorkload::stock_key(i))
                    .map(BankWorkload::decode)
                    .unwrap_or(w.initial_stock);
                let sold = self
                    .get(0, &InventoryWorkload::sold_key(i))
                    .map(BankWorkload::decode)
                    .unwrap_or(0);
                stock + sold
            })
            .collect()
    }

    /// Sum of all committed account balances (conservation check). Only
    /// meaningful after [`Cluster::recover_all`] if crashes were injected.
    pub fn total_balance(&self, w: &BankWorkload) -> i64 {
        (0..w.n_accounts)
            .map(|a| {
                self.get(w.site_of(a), &BankWorkload::key_of(a))
                    .map(BankWorkload::decode)
                    .unwrap_or(w.initial_balance)
            })
            .sum()
    }
}
