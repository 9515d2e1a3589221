//! The concurrent commit scheduler: many overlapping commit rounds over
//! one set of sites, with group-committed WALs and wait-die admission.
//!
//! # How the multiplexing works
//!
//! Each admitted transaction runs its own [`Runner`] — an independent
//! commit-protocol round whose WAL records are tagged with the
//! transaction id ([`RunConfig::with_txn_id`]) and whose first stimulus
//! fires at the admission instant ([`RunConfig::with_start_at`]). The
//! scheduler owns the *shared* per-site state — key-value stores, data
//! WALs, lock tables — and interleaves the rounds by always stepping the
//! round with the globally earliest pending event (ties broken by
//! transaction id), so the merged execution is a single deterministic
//! discrete-event timeline.
//!
//! # The agenda
//!
//! The rounds in flight live, boxed, in a min-heap on `(due, txn)`: `due`
//! is the runner's next event time, or `None` — which sorts first — once
//! the round is quiescent and only awaits finalisation. There is exactly
//! one entry per round in flight and no entry is ever stale: only the top
//! round is stepped, it is re-keyed in place before the heap is consulted
//! again, and stepping one round cannot move another's next event (rounds
//! share stores, WALs and locks, never a network). A step therefore costs
//! O(log in-flight). A step turns at most one round quiescent — the one
//! stepped — and a quiescent round is finalised before anything else
//! moves, smallest transaction id first. Blocked rounds wait for their
//! reap timer in a second heap on `(reap_at, txn)`; on a tie a step goes
//! before a reap.
//!
//! # The failure-free path builds no state graph
//!
//! The paper's concurrency sets are consulted by the termination and
//! recovery protocols only, so every round is handed the pipeline's
//! shared, initially empty analysis cell ([`nbc_engine::AnalysisSource`]):
//! the first round that reaches the failure path fills it, later rounds
//! and later batches reuse it, and a fault-free batch never pays for it.
//!
//! # A finished round is the next round's storage
//!
//! A round's runner — its network heap and link tables, its site cells
//! with their inboxes, views and WAL buffers — is sized by the protocol,
//! not by the transaction, so a finalised round is not dropped: it waits
//! in a list local to [`Pipeline::run`] (never longer than
//! [`PipelineConfig::max_in_flight`]) and the next admission re-arms it
//! in place ([`Runner::recycle`]), which is indistinguishable from a
//! fresh [`Runner`] for the new configuration. The list cannot outlive
//! `run`: a [`Runner`] borrows that call's handle on the shared protocol.
//!
//! # Admission (wait-die, with a retry budget)
//!
//! Locks are acquired at admission. A requester older than every
//! conflicting holder *parks holding the locks it already has* (waits are
//! only old → young, so no deadlock); a younger requester *dies*,
//! releasing everything, and retries on a later admission pass with its
//! original id — the classic wait-die restart, which ages it toward
//! victory. A transaction that dies more than [`PipelineConfig::die_budget`]
//! times is admitted anyway with a no vote at the contested site, turning
//! starvation into an ordinary distributed abort (the serial cluster's
//! behaviour).
//!
//! # Blocked rounds
//!
//! A round that ends blocked (2PC's curse) keeps its locks — that is how
//! blocking destroys throughput, and younger transactions now die against
//! the strand-locks. After [`PipelineConfig::reap_after`] ticks the
//! scheduler runs the recovery decision for the round (adopt a durable
//! decision if one exists, else abort) and frees the locks, so blocking
//! is *measurable* (deferrals, latency tails) rather than fatal.

use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use nbc_core::{Analysis, Protocol};
use nbc_engine::{RunConfig, Runner};
use nbc_obs::{Event, EventKind, Tracer};
use nbc_simnet::{LatencyModel, Time};
use nbc_storage::{KvStore, LogRecord, SyncStats, Wal};
use nbc_txn::{BankWorkload, LockManager, LockMode, LockOutcome, ProtocolKind};

use crate::report::{percentile, ThroughputReport};
use crate::txn::{PipeOp, PipelineTxn};

/// Scheduler configuration.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Number of sites.
    pub n_sites: usize,
    /// Commit protocol run by every round.
    pub kind: ProtocolKind,
    /// Maximum concurrent commit rounds.
    pub max_in_flight: usize,
    /// Constant network latency of each round.
    pub latency: Time,
    /// Failure-detection delay of each round.
    pub detect_delay: Time,
    /// Group-commit window in sim ticks: a physical WAL force covers
    /// every sync requested within this window (0 = force every sync).
    pub group_window: u64,
    /// Sim ticks a blocked round may hold its locks before the scheduler
    /// reaps it through the recovery decision.
    pub reap_after: Time,
    /// Wait-die restarts a transaction may suffer before it is admitted
    /// doomed (no vote at the contested site) instead of retried.
    pub die_budget: u32,
    /// Emit a [`EventKind::Snapshot`] metrics row through the tracer every
    /// this many sim ticks (0 = off). Snapshots land on exact interval
    /// boundaries, so the time series is deterministic.
    pub series_every: u64,
}

impl PipelineConfig {
    /// Defaults matching the serial cluster (latency 1, detection 5) with
    /// 8-way concurrency, a 2-tick group-commit window, and patient
    /// reaping.
    pub fn new(n_sites: usize, kind: ProtocolKind) -> Self {
        Self {
            n_sites,
            kind,
            max_in_flight: 8,
            latency: 1,
            detect_delay: 5,
            group_window: 2,
            reap_after: 200,
            die_budget: 3,
            series_every: 0,
        }
    }

    /// Set the concurrency limit.
    pub fn with_in_flight(mut self, max: usize) -> Self {
        self.max_in_flight = max;
        self
    }

    /// Set the group-commit window.
    pub fn with_group_window(mut self, window: u64) -> Self {
        self.group_window = window;
        self
    }

    /// Set the blocked-round reap delay.
    pub fn with_reap_after(mut self, ticks: Time) -> Self {
        self.reap_after = ticks;
        self
    }

    /// Set the metrics-snapshot interval (0 = no snapshots).
    pub fn with_series_every(mut self, ticks: u64) -> Self {
        self.series_every = ticks;
        self
    }
}

/// What every round of a pipeline shares: the commit protocol, and its
/// analysis — built by the first round to reach the failure path, so a
/// fault-free batch never pays for the reachable state graph and a later
/// batch never rebuilds it.
struct Shared {
    protocol: Protocol,
    analysis: OnceLock<Analysis>,
}

/// An admitted round in flight; ordered by `(due, txn)` on the agenda.
struct Round<'a> {
    txn: u64,
    admitted_at: Time,
    /// Per site, the bytes of that site's data WAL holding this
    /// transaction's `Begin` + redo frames (`None`: site not touched).
    logged: Vec<Option<Range<usize>>>,
    /// Time of the runner's next event; `None` once the round is
    /// quiescent (or truncated) and only awaits finalisation.
    due: Option<Time>,
    runner: Runner<'a>,
}

impl Ord for Round<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.due, self.txn).cmp(&(other.due, other.txn))
    }
}

impl PartialOrd for Round<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Round<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Round<'_> {}

/// A transaction waiting for admission (parked on a lock, or restarting
/// after a wait-die death).
struct ParkedTxn {
    spec: PipelineTxn,
    dies: u32,
}

/// What one [`Pipeline::run`] keeps between admissions instead of
/// allocating it again: the finalised rounds (box, `logged` vector and
/// runner, re-armed in place by the next admission) and the per-site
/// scratch of [`Pipeline::try_admit`].
#[derive(Default)]
struct Spare<'a> {
    // Boxed as on the agenda, so the box is recycled with its round.
    #[allow(clippy::vec_box)]
    rounds: Vec<Box<Round<'a>>>,
    votes: Vec<bool>,
    touched: Vec<bool>,
}

enum Admission<'a> {
    /// Round admitted and running.
    Started(Box<Round<'a>>),
    /// Older than a conflicting holder: parked, keeping granted locks.
    Parked,
    /// Younger than a conflicting holder: released everything; retry.
    /// `released` is true if any lock was actually freed.
    Died { released: bool },
}

/// The concurrent commit scheduler. Owns the persistent per-site state
/// (stores, data WALs, lock tables) across [`Pipeline::run`] calls; each
/// call drains a batch of transactions to quiescence.
pub struct Pipeline {
    cfg: PipelineConfig,
    /// Behind an `Arc` so the rounds of a [`Pipeline::run`] can borrow it
    /// while the scheduler mutates everything else.
    shared: Arc<Shared>,
    stores: Vec<KvStore>,
    wals: Vec<Wal>,
    locks: Vec<LockManager>,
    next_txn: u64,
    /// Omniscient decision record (the auditor's view, consulted by
    /// recovery and catch-up).
    ledger: BTreeMap<u64, bool>,
    /// Per-site transactions whose decision the site missed (crashed
    /// during the round), each with its frames' range in the site's WAL.
    missed: Vec<Vec<(u64, Range<usize>)>>,
    /// Persistent simulation clock: a second `run` continues where the
    /// first left off.
    clock: Time,
    /// Observability handle: the scheduler emits admission events
    /// (admit/park/die/reap) and data-WAL activity; each admitted round's
    /// [`Runner`] inherits a clone and emits the protocol events.
    tracer: Tracer,
}

impl Pipeline {
    /// A fresh pipeline: empty stores, group-commit windows armed.
    pub fn new(cfg: PipelineConfig) -> Self {
        assert!(cfg.n_sites >= 2, "need at least 2 sites");
        let n = cfg.n_sites;
        let wals = (0..n)
            .map(|_| {
                let mut w = Wal::new();
                w.set_group_window(cfg.group_window);
                w
            })
            .collect();
        let shared = Shared { protocol: cfg.kind.build(n), analysis: OnceLock::new() };
        Self {
            cfg,
            shared: Arc::new(shared),
            stores: (0..n).map(|_| KvStore::new()).collect(),
            wals,
            locks: (0..n).map(|_| LockManager::new()).collect(),
            next_txn: 1,
            ledger: BTreeMap::new(),
            missed: vec![Vec::new(); n],
            clock: 0,
            tracer: Tracer::off(),
        }
    }

    /// Attach an observability tracer: scheduler admission and data-WAL
    /// events, plus every round's protocol events, flow through it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Number of sites.
    pub fn n_sites(&self) -> usize {
        self.cfg.n_sites
    }

    /// Committed value of `key` at `site`.
    pub fn get(&self, site: usize, key: &[u8]) -> Option<&[u8]> {
        self.stores[site].get(key)
    }

    /// Total keys currently locked across all sites.
    pub fn locked_keys(&self) -> usize {
        self.locks.iter().map(LockManager::locked_keys).sum()
    }

    /// Total WAL bytes across all sites.
    pub fn wal_bytes(&self) -> usize {
        self.wals.iter().map(Wal::len).sum()
    }

    /// Current simulation clock.
    pub fn now(&self) -> Time {
        self.clock
    }

    /// Sum of all committed account balances under the bank workload's
    /// encoding (missing account = not yet materialized = initial).
    pub fn total_balance(&self, w: &BankWorkload) -> i64 {
        (0..w.n_accounts)
            .map(|a| {
                self.get(w.site_of(a), &BankWorkload::key_of(a))
                    .map(BankWorkload::decode)
                    .unwrap_or(w.initial_balance)
            })
            .sum()
    }

    /// Drain `txns` through the scheduler: admit up to
    /// [`PipelineConfig::max_in_flight`] rounds, interleave their events
    /// in global time order, reap blocked rounds, and return the measured
    /// throughput. Deterministic: the same pipeline state and input
    /// produce an identical report.
    pub fn run(&mut self, txns: Vec<PipelineTxn>) -> ThroughputReport {
        let max_in_flight = self.cfg.max_in_flight.max(1);
        let shared = Arc::clone(&self.shared);
        let sync_base = self.sync_totals();

        let mut report = ThroughputReport { txns: txns.len() as u64, ..Default::default() };
        let mut pending: VecDeque<(u64, PipelineTxn)> = txns
            .into_iter()
            .map(|t| {
                let id = self.next_txn;
                self.next_txn += 1;
                (id, t)
            })
            .collect();
        let mut parked: BTreeMap<u64, ParkedTxn> = BTreeMap::new();
        // The agenda: every round in flight, earliest `(due, txn)` on top.
        // Only the top round is ever stepped, and it is re-keyed before the
        // heap is looked at again, so each event costs O(log in-flight).
        let mut agenda: BinaryHeap<Reverse<Box<Round<'_>>>> = BinaryHeap::new();
        let mut spare = Spare::default();
        // Blocked rounds awaiting their reap timer, earliest `(reap_at, txn)` on top.
        let mut blocked: BinaryHeap<Reverse<(Time, u64)>> = BinaryHeap::new();
        let mut latencies: Vec<Time> = Vec::new();
        let mut clock = self.clock;
        let mut dirty = true;
        let mut last_pass_progressed = true;
        // Time-series boundary: the next snapshot lands on the first
        // interval boundary strictly after the starting clock.
        let every = self.cfg.series_every;
        let mut next_snap =
            clock.checked_div(every).map_or(Time::MAX, |intervals| (intervals + 1) * every);

        loop {
            // ---- Time-series snapshots at crossed interval boundaries. ----
            while clock >= next_snap {
                let at = next_snap;
                self.tracer.emit(|| {
                    Event::new(
                        at,
                        EventKind::Snapshot {
                            committed: report.committed,
                            in_flight: agenda.len() as u64,
                            blocked: blocked.len() as u64,
                            wal_bytes: self.wal_bytes() as u64,
                        },
                    )
                });
                next_snap += every;
            }

            // ---- Admission pass (only when something changed). ----
            if dirty {
                dirty = false;
                last_pass_progressed = false;
                self.catch_up(clock);
                // Parked transactions retry first, oldest first; whoever
                // the limit leaves unserved stays parked.
                let mut retry = std::mem::take(&mut parked).into_iter();
                while agenda.len() < max_in_flight {
                    let Some((id, entry)) = retry.next() else { break };
                    match self.try_admit(&shared, &mut spare, id, &entry.spec, entry.dies, clock) {
                        Admission::Started(r) => {
                            agenda.push(Reverse(r));
                            last_pass_progressed = true;
                        }
                        Admission::Parked => {
                            report.deferrals += 1;
                            parked.insert(id, entry);
                        }
                        Admission::Died { released } => {
                            report.deferrals += 1;
                            last_pass_progressed |= released;
                            parked.insert(id, ParkedTxn { dies: entry.dies + 1, ..entry });
                        }
                    }
                }
                parked.extend(retry);
                while agenda.len() < max_in_flight {
                    let Some((id, spec)) = pending.pop_front() else { break };
                    match self.try_admit(&shared, &mut spare, id, &spec, 0, clock) {
                        Admission::Started(r) => {
                            agenda.push(Reverse(r));
                            last_pass_progressed = true;
                        }
                        Admission::Parked => {
                            report.deferrals += 1;
                            parked.insert(id, ParkedTxn { spec, dies: 0 });
                        }
                        Admission::Died { released } => {
                            report.deferrals += 1;
                            last_pass_progressed |= released;
                            parked.insert(id, ParkedTxn { spec, dies: 1 });
                        }
                    }
                }
            }

            // ---- Finalize a quiescent round (`due: None` sorts first,
            // smallest txn id first). ----
            if agenda.peek().is_some_and(|Reverse(r)| r.due.is_none()) {
                let Reverse(round) = agenda.pop().expect("peeked");
                clock = clock.max(round.runner.now());
                self.finalize(&round, &mut report, &mut latencies, &mut blocked);
                spare.rounds.push(round);
                dirty = true;
                continue;
            }

            // ---- Pick the globally earliest event: round step or reap. ----
            let step = agenda
                .peek()
                .map(|Reverse(r)| (r.due.expect("quiescent rounds sort first"), r.txn));
            let reap = blocked.peek().map(|&Reverse(reap)| reap);
            if step.is_some_and(|step| reap.is_none_or(|reap| step <= reap)) {
                // Re-keyed in place; the heap re-sifts when `top` drops.
                let mut top = agenda.peek_mut().expect("peeked");
                let round = &mut top.0;
                let stepped = round.runner.step();
                round.due = if stepped { round.runner.next_time() } else { None };
                clock = clock.max(round.runner.now());
            } else if let Some((reap_at, txn)) = reap {
                blocked.pop();
                clock = clock.max(reap_at);
                if self.reap(txn, reap_at) {
                    report.reaped_commits += 1;
                }
                dirty = true;
            } else {
                if pending.is_empty() && parked.is_empty() {
                    break;
                }
                // Locks can only be held by parked transactions now;
                // an admission pass must admit or free something.
                assert!(
                    last_pass_progressed,
                    "pipeline admission stalled with {} parked, {} pending",
                    parked.len(),
                    pending.len()
                );
                dirty = true;
            }
        }

        self.catch_up(clock);
        // One closing snapshot so the series always covers the batch end.
        if every > 0 {
            self.tracer.emit(|| {
                Event::new(
                    clock,
                    EventKind::Snapshot {
                        committed: report.committed,
                        in_flight: 0,
                        blocked: blocked.len() as u64,
                        wal_bytes: self.wal_bytes() as u64,
                    },
                )
            });
        }
        self.clock = clock;
        latencies.sort_unstable();
        report.p50_commit_latency = percentile(&latencies, 50);
        report.p99_commit_latency = percentile(&latencies, 99);
        report.finished_at = clock;
        let mut delta = self.sync_totals();
        delta.requested -= sync_base.requested;
        delta.physical -= sync_base.physical;
        report.set_sync_delta(delta);
        report
    }

    /// Sum of WAL sync counters across sites.
    fn sync_totals(&self) -> SyncStats {
        let mut total = SyncStats::default();
        for w in &self.wals {
            total.absorb(&w.sync_stats());
        }
        total
    }

    /// Try to start a commit round for `txn` at time `now`.
    fn try_admit<'a>(
        &mut self,
        shared: &'a Shared,
        spare: &mut Spare<'a>,
        txn: u64,
        spec: &PipelineTxn,
        dies: u32,
        now: Time,
    ) -> Admission<'a> {
        let n = self.cfg.n_sites;
        let round_sites = shared.protocol.n_sites();
        for crash in &spec.crashes {
            assert!(
                crash.site < round_sites,
                "crash addresses site {} of {round_sites}",
                crash.site
            );
        }
        let give_up = dies >= self.cfg.die_budget;
        let Spare { rounds, votes, touched } = spare;
        votes.clear();
        votes.resize(n, true);
        touched.clear();
        touched.resize(n, false);

        for op in &spec.ops {
            let site = op.site();
            assert!(site < n, "op addresses site {site} of {n}");
            touched[site] = true;
            if !votes[site] {
                continue; // site already doomed
            }
            let mode = if matches!(op, PipeOp::Read { .. }) {
                LockMode::Shared
            } else {
                LockMode::Exclusive
            };
            match self.locks[site].request(txn, op.key(), mode) {
                LockOutcome::Granted => {}
                LockOutcome::Wait if !give_up => {
                    self.tracer
                        .emit(|| Event::new(now, EventKind::Park).at_site(site).for_txn(txn));
                    return Admission::Parked;
                }
                LockOutcome::Die if !give_up => {
                    let released = self.locks.iter().map(|l| l.held_by(txn)).sum::<usize>() > 0;
                    for l in &mut self.locks {
                        l.release_all(txn);
                    }
                    self.tracer.emit(|| Event::new(now, EventKind::Die).at_site(site).for_txn(txn));
                    return Admission::Died { released };
                }
                _ => votes[site] = false,
            }
        }

        // Stage writes at voting sites (own staged values visible, so
        // repeated AddI64 on one key accumulates).
        for op in &spec.ops {
            let site = op.site();
            if !votes[site] {
                continue;
            }
            match op {
                PipeOp::Read { .. } => {}
                PipeOp::Write { key, value, .. } => {
                    self.stores[site].stage_put(txn, key.clone(), value.clone());
                }
                PipeOp::AddI64 { key, delta, .. } => {
                    let cur =
                        self.stores[site].get_in_txn(txn, key).map(|v| decode_i64(&v)).unwrap_or(0);
                    self.stores[site].stage_put(txn, key.clone(), encode_i64(cur + delta));
                }
            }
        }

        // Admitted. A round that is over lends this one its storage.
        let mut recycled = rounds.pop();
        let mut logged =
            recycled.as_mut().map(|r| std::mem::take(&mut r.logged)).unwrap_or_default();
        logged.clear();
        logged.resize(n, None);

        // Write-ahead: Begin + redo images, group-commit batched.
        for (site, touched_here) in touched.iter().enumerate() {
            if *touched_here {
                let before = self.wals[site].len();
                self.wals[site].append(&LogRecord::Begin { txn }).expect("wal record fits");
                let store = &self.stores[site];
                store.log_stage(txn, &mut self.wals[site]);
                logged[site] = Some(before..self.wals[site].len());
                let appended = (self.wals[site].len() - before) as u64;
                let physical = self.wals[site].sync_batched(now);
                self.tracer.emit(|| {
                    Event::new(
                        now,
                        EventKind::WalAppend { bytes: appended, record: "begin".into() },
                    )
                    .at_site(site)
                    .for_txn(txn)
                });
                self.tracer.emit(|| {
                    Event::new(now, EventKind::WalFsync { physical }).at_site(site).for_txn(txn)
                });
            }
        }

        // Quorum protocols bring extra acceptor sites along; they carry
        // no data and always "vote" yes.
        let mut rc = RunConfig::happy(round_sites);
        rc.votes[..n].copy_from_slice(votes);
        rc.crashes = spec.crashes.clone();
        rc.rule = self.cfg.kind.rule();
        rc.latency = LatencyModel::constant(self.cfg.latency);
        rc.detect_delay = self.cfg.detect_delay;
        let rc = rc.with_txn_id(txn).with_start_at(now);
        self.tracer.emit(|| Event::new(now, EventKind::Admit).for_txn(txn));
        let tracer = self.tracer.clone();
        let round = |runner: Runner<'a>| Round {
            txn,
            admitted_at: now,
            logged,
            due: runner.next_time(),
            runner,
        };
        Admission::Started(match recycled {
            Some(mut spent) => {
                *spent = round(spent.runner.recycle(rc, tracer));
                spent
            }
            None => {
                Box::new(round(Runner::with_tracer(&shared.protocol, &shared.analysis, rc, tracer)))
            }
        })
    }

    /// Post-round bookkeeping, mirroring the serial cluster: apply the
    /// decision at operational sites, queue crashed sites for catch-up,
    /// or park the round as blocked with a reap deadline.
    fn finalize(
        &mut self,
        round: &Round<'_>,
        report: &mut ThroughputReport,
        latencies: &mut Vec<Time>,
        blocked: &mut BinaryHeap<Reverse<(Time, u64)>>,
    ) {
        let txn = round.txn;
        let rr = round.runner.report();
        assert!(rr.consistent, "txn {txn}: commit round violated atomicity: {rr}");
        report.events += rr.events as u64;
        report.msgs += rr.msgs_sent;
        let done_at = rr.finished_at;

        // The operational sites' view, not the omniscient auditor's.
        let is_blocked = rr.any_blocked || !rr.all_operational_decided || rr.truncated;
        match (is_blocked, rr.decision()) {
            (false, Some(commit)) => {
                self.ledger.insert(txn, commit);
                for site in 0..self.cfg.n_sites {
                    if rr.outcomes[site].operational() {
                        self.apply_decision(site, txn, commit, done_at);
                    } else if let Some(frames) = &round.logged[site] {
                        // Crashed during the round: volatile stage lost;
                        // the WAL's redo images remain for catch-up.
                        self.stores[site].abort(txn);
                        self.locks[site].release_all(txn);
                        self.missed[site].push((txn, frames.clone()));
                    } else {
                        self.locks[site].release_all(txn);
                    }
                }
                if commit {
                    report.committed += 1;
                    latencies.push(done_at - round.admitted_at);
                } else {
                    report.aborted += 1;
                }
            }
            _ => {
                // Blocked: locks stay held (the measurable cost). Record
                // any decision durable only at a crashed site in the
                // ledger for the reaper.
                for o in &rr.outcomes {
                    if let Some(commit) = o.decision() {
                        self.ledger.insert(txn, commit);
                    }
                }
                report.blocked += 1;
                blocked.push(Reverse((done_at + self.cfg.reap_after, txn)));
            }
        }
    }

    /// Recovery decision for a blocked round: adopt a decision durable at
    /// a crashed site if one exists, else abort; apply everywhere and free
    /// the strand-locks. Returns true if the reap committed.
    fn reap(&mut self, txn: u64, now: Time) -> bool {
        let commit = self.ledger.get(&txn).copied().unwrap_or(false);
        self.ledger.insert(txn, commit);
        self.tracer.emit(|| Event::new(now, EventKind::Reap { commit }).for_txn(txn));
        for site in 0..self.cfg.n_sites {
            self.apply_decision(site, txn, commit, now);
        }
        commit
    }

    fn apply_decision(&mut self, site: usize, txn: u64, commit: bool, now: Time) {
        let decision = LogRecord::Decision { txn, commit };
        self.wals[site].append(&decision).expect("wal record fits");
        let physical = self.wals[site].sync_batched(now);
        self.tracer.emit(|| {
            Event::new(
                now,
                EventKind::WalAppend { bytes: decision.frame_len(), record: "decision".into() },
            )
            .at_site(site)
            .for_txn(txn)
        });
        self.tracer
            .emit(|| Event::new(now, EventKind::WalFsync { physical }).at_site(site).for_txn(txn));
        if commit {
            self.stores[site].commit(txn);
        } else {
            self.stores[site].abort(txn);
        }
        let end = LogRecord::End { txn };
        self.wals[site].append(&end).expect("wal record fits");
        self.tracer.emit(|| {
            Event::new(now, EventKind::WalAppend { bytes: end.frame_len(), record: "end".into() })
                .at_site(site)
                .for_txn(txn)
        });
        self.locks[site].release_all(txn);
    }

    /// Bring every site that missed a decision back up to date: replay the
    /// decision from the ledger and redo the staged images from the site's
    /// own WAL — decoding only the transaction's own frames, whose range
    /// admission recorded (a pipeline WAL only ever grows, so it holds).
    fn catch_up(&mut self, now: Time) {
        for site in 0..self.cfg.n_sites {
            let mut still_missing = Vec::new();
            for (txn, frames) in std::mem::take(&mut self.missed[site]) {
                match self.ledger.get(&txn).copied() {
                    Some(commit) => {
                        let decision = LogRecord::Decision { txn, commit };
                        let end = LogRecord::End { txn };
                        self.wals[site].append(&decision).expect("wal record fits");
                        let physical = self.wals[site].sync_batched(now);
                        self.wals[site].append(&end).expect("wal record fits");
                        self.tracer.emit(|| {
                            Event::new(
                                now,
                                EventKind::WalAppend {
                                    bytes: decision.frame_len() + end.frame_len(),
                                    record: "catch-up".into(),
                                },
                            )
                            .at_site(site)
                            .for_txn(txn)
                        });
                        self.tracer.emit(|| {
                            Event::new(now, EventKind::WalFsync { physical })
                                .at_site(site)
                                .for_txn(txn)
                        });
                        if commit {
                            let records = Wal::recover(&self.wals[site].as_bytes()[frames])
                                .expect("pipeline WALs are well-formed");
                            assert!(
                                matches!(records[0], LogRecord::Begin { txn: t } if t == txn),
                                "pipeline WALs are never compacted: txn {txn}'s frames moved"
                            );
                            self.stores[site].redo_one(&records, txn);
                        }
                    }
                    None => still_missing.push((txn, frames)),
                }
            }
            self.missed[site] = still_missing;
        }
    }
}

fn encode_i64(v: i64) -> Vec<u8> {
    v.to_le_bytes().to_vec()
}

fn decode_i64(bytes: &[u8]) -> i64 {
    i64::from_le_bytes(bytes.try_into().expect("AddI64 target must be an 8-byte i64 cell"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::bank_transfer_txns;
    use nbc_simnet::SimRng;

    fn seeded_pipeline(kind: ProtocolKind, window: u64) -> (Pipeline, BankWorkload) {
        let w = BankWorkload::new(3, 12, 1_000, 31);
        let mut p = Pipeline::new(PipelineConfig::new(3, kind).with_group_window(window));
        let setup = p.run(vec![PipelineTxn::from_ops(&w.setup_ops())]);
        assert_eq!(setup.committed, 1);
        (p, w)
    }

    #[test]
    fn happy_batch_commits_and_conserves() {
        let (mut p, mut w) = seeded_pipeline(ProtocolKind::Central3pc, 2);
        let mut rng = SimRng::seed_from_u64(11);
        let txns = bank_transfer_txns(&mut w, 24, 0, &mut rng);
        let r = p.run(txns);
        assert_eq!(r.txns, 24);
        assert_eq!(r.decided(), 24);
        assert_eq!(r.blocked, 0, "no crashes, no blocking: {r}");
        assert!(r.committed > 0);
        assert_eq!(p.total_balance(&w), w.expected_total());
        assert_eq!(p.locked_keys(), 0);
    }

    #[test]
    fn group_commit_saves_syncs() {
        let (mut p, mut w) = seeded_pipeline(ProtocolKind::Central3pc, 4);
        let mut rng = SimRng::seed_from_u64(12);
        let r = p.run(bank_transfer_txns(&mut w, 24, 0, &mut rng));
        assert!(r.syncs_saved > 0, "overlapping rounds must batch syncs: {r}");
        assert_eq!(r.wal_syncs, r.wal_forces + r.syncs_saved);
    }

    #[test]
    fn window_zero_forces_every_sync() {
        let (mut p, mut w) = seeded_pipeline(ProtocolKind::Central3pc, 0);
        let mut rng = SimRng::seed_from_u64(12);
        let r = p.run(bank_transfer_txns(&mut w, 12, 0, &mut rng));
        assert_eq!(r.syncs_saved, 0);
    }

    #[test]
    fn conflicting_txns_backpressure() {
        let (mut p, _w) = seeded_pipeline(ProtocolKind::Central3pc, 2);
        // Every transaction hammers the same account pair: heavy
        // contention, so admission must defer or doom most of them.
        let ops = || {
            vec![
                PipeOp::AddI64 { site: 0, key: BankWorkload::key_of(0), delta: -1 },
                PipeOp::AddI64 { site: 1, key: BankWorkload::key_of(1), delta: 1 },
            ]
        };
        let txns: Vec<PipelineTxn> = (0..10).map(|_| PipelineTxn::new(ops())).collect();
        let r = p.run(txns);
        assert_eq!(r.decided(), 10);
        assert!(r.deferrals > 0, "same-key txns must collide: {r}");
        assert_eq!(p.locked_keys(), 0);
        // Conservation even under pure contention.
        let a0 = p.get(0, &BankWorkload::key_of(0)).map(decode_i64).unwrap();
        let a1 = p.get(1, &BankWorkload::key_of(1)).map(decode_i64).unwrap();
        assert_eq!(a0 + a1, 2_000);
    }

    #[test]
    fn blocked_two_pc_rounds_are_reaped() {
        use nbc_engine::{CrashPoint, CrashSpec, TransitionProgress};
        let (mut p, mut w) = seeded_pipeline(ProtocolKind::Central2pc, 2);
        // Coordinator logs its decision and crashes before sending any of
        // it: every operational slave is stuck in wait — 2PC's blocking
        // window, unresolvable even by cooperative termination.
        let crash = CrashSpec {
            site: 0,
            point: CrashPoint::OnTransition {
                ordinal: 2,
                progress: TransitionProgress::AfterMsgs(0),
            },
            recover_at: None,
        };
        let mut txns = bank_transfer_txns(&mut w, 8, 0, &mut SimRng::seed_from_u64(5));
        txns[1].crashes = vec![crash];
        let r = p.run(txns);
        assert_eq!(r.decided(), 8);
        assert!(r.blocked >= 1, "2PC coordinator crash must block: {r}");
        assert_eq!(p.locked_keys(), 0, "reaper must free strand-locks");
        assert_eq!(p.total_balance(&w), w.expected_total());
    }

    #[test]
    #[should_panic(expected = "crash addresses site 7 of 3")]
    fn a_crash_at_a_site_the_round_lacks_is_refused_at_admission() {
        use nbc_engine::{CrashPoint, CrashSpec};
        let (mut p, mut w) = seeded_pipeline(ProtocolKind::Central3pc, 2);
        let mut txns = bank_transfer_txns(&mut w, 2, 0, &mut SimRng::seed_from_u64(5));
        txns[1].crashes =
            vec![CrashSpec { site: 7, point: CrashPoint::AtTime(3), recover_at: None }];
        p.run(txns);
    }

    #[test]
    fn analysis_is_built_by_the_first_crash_and_shared_across_runs() {
        let (mut p, mut w) = seeded_pipeline(ProtocolKind::Central3pc, 2);
        let mut rng = SimRng::seed_from_u64(5);
        p.run(bank_transfer_txns(&mut w, 8, 0, &mut rng));
        assert!(p.shared.analysis.get().is_none(), "fault-free batches never analyse");
        let r = p.run(bank_transfer_txns(&mut w, 16, 50, &mut rng));
        assert_eq!(r.decided(), 16);
        let first: *const Analysis = p.shared.analysis.get().expect("termination ran");
        p.run(bank_transfer_txns(&mut w, 16, 50, &mut rng));
        assert!(std::ptr::eq(first, p.shared.analysis.get().unwrap()), "one build per pipeline");
        assert_eq!(p.total_balance(&w), w.expected_total());
    }

    #[test]
    fn traced_batch_emits_admissions_deterministically() {
        use nbc_obs::{MemorySink, SharedSink};
        let run_traced = || {
            let (mut p, mut w) = seeded_pipeline(ProtocolKind::Central3pc, 2);
            let sink = SharedSink::new(MemorySink::default());
            p.set_tracer(Tracer::to_sink(sink.clone()));
            let mut rng = SimRng::seed_from_u64(11);
            let r = p.run(bank_transfer_txns(&mut w, 12, 0, &mut rng));
            assert_eq!(r.decided(), 12);
            sink.with(|s| s.events.clone())
        };
        let a = run_traced();
        let b = run_traced();
        assert_eq!(a, b, "same seed must produce an identical event stream");
        let admits = a.iter().filter(|e| matches!(e.kind, EventKind::Admit)).count();
        assert_eq!(admits, 12);
        // Every admitted round produced protocol traffic under its txn id.
        assert!(a.iter().any(|e| matches!(e.kind, EventKind::MsgSend { .. }) && e.txn == Some(12)));
    }

    #[test]
    fn series_snapshots_land_on_boundaries() {
        use nbc_obs::{MemorySink, SharedSink};
        let w = BankWorkload::new(3, 12, 1_000, 31);
        let cfg = PipelineConfig::new(3, ProtocolKind::Central3pc).with_series_every(16);
        let mut p = Pipeline::new(cfg);
        let sink = SharedSink::new(MemorySink::default());
        p.set_tracer(Tracer::to_sink(sink.clone()));
        assert_eq!(p.run(vec![PipelineTxn::from_ops(&w.setup_ops())]).committed, 1);
        let mut w2 = w;
        let mut rng = SimRng::seed_from_u64(11);
        let r = p.run(bank_transfer_txns(&mut w2, 12, 0, &mut rng));
        assert_eq!(r.decided(), 12);
        let snaps: Vec<Event> = sink.with(|s| {
            s.events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Snapshot { .. }))
                .cloned()
                .collect()
        });
        assert!(snaps.len() >= 2, "a multi-txn batch spans several intervals");
        // All but the per-run closing snapshots sit on interval boundaries,
        // and times never go backwards.
        let mut last = 0;
        for s in &snaps {
            assert!(s.time >= last, "snapshot times must be monotone");
            last = s.time;
        }
        assert!(snaps.iter().filter(|s| s.time % 16 == 0).count() >= snaps.len() - 2);
        // The committed counter in the final snapshot covers the batch.
        if let EventKind::Snapshot { committed, in_flight, .. } = snaps.last().unwrap().kind {
            assert_eq!(in_flight, 0);
            assert!(committed > 0);
        }
    }

    #[test]
    fn clock_persists_across_runs() {
        let (mut p, mut w) = seeded_pipeline(ProtocolKind::Central3pc, 2);
        let t0 = p.now();
        let mut rng = SimRng::seed_from_u64(3);
        p.run(bank_transfer_txns(&mut w, 4, 0, &mut rng));
        assert!(p.now() > t0);
    }
}
