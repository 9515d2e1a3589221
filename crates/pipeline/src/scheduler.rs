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
//! WALs, lock tables — and touches it at three kinds of moment only: an
//! admission pass, the finalisation of a round that is over, the reap of a
//! blocked one. Those scheduler actions happen in the order of one
//! deterministic discrete-event timeline: a round ends at `(time of its
//! last event, txn)`, a reap falls due at `(reap_at, txn)`, the earliest
//! goes first, and a round goes before a reap on a tie.
//!
//! # Rounds are independent between admission and finalisation
//!
//! Rounds share stores, WALs and locks, never a network, and a round reads
//! or writes none of the three while it runs: its votes are fixed at
//! admission and its decision is applied at finalisation. So the order in
//! which the *steps* of different rounds are taken is observable through
//! the tracer alone. Everything else — the report, the clock, every WAL
//! byte, who gets which lock — follows from the order of scheduler actions
//! above, and that order follows from where each round ends, which no
//! other round can move. An unwatched batch therefore runs each round to
//! its end at admission, on one cache-hot runner; a batch with a tracer
//! attached steps the rounds event by event in global `(time, txn)` order
//! so the event stream is the merged timeline. That is the only
//! difference between the two — one line where a round is admitted — and
//! both go through the same loop.
//!
//! # The agenda
//!
//! The rounds in flight live, boxed, in a min-heap on `(time, txn)`. A
//! *live* round still holds its runner and `time` is its next event's; a
//! round that is *over* (quiescent, or truncated by the event safety
//! valve) has handed its runner back, kept the run's report, and stays
//! where its last step was due. The loop takes the earliest of the top
//! round and the top of a second heap of blocked rounds on `(reap_at,
//! txn)`: a live round is stepped once and re-keyed in place before the
//! heap is consulted again, a round that is over is finalised, a reap is
//! run. A live round that steps to its end keeps its key and is still the
//! minimum, so it is finalised before anything else moves. Unwatched,
//! every round on the agenda is over: an event costs no heap operation at
//! all and a transaction costs one push and one pop; watched, a step costs
//! O(log in-flight).
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
//! not by the transaction, so it is not dropped when its round is over:
//! it waits in a list local to [`Pipeline::run`] (never longer than
//! [`PipelineConfig::max_in_flight`]; a single runner when nobody is
//! watching) and the next admission re-arms it in place, configuration
//! and vote vector included ([`Runner::recycle_with`]), which is
//! indistinguishable from a fresh [`Runner`] for the new configuration.
//! The finalised round's box and `logged` vector wait in a second list the
//! same way. Neither list can outlive `run`: a [`Runner`] borrows that
//! call's handle on the shared protocol.
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
//! starvation into an ordinary distributed abort. At a budget of 0 nobody
//! waits: every conflict is a no vote, which with one round in flight is
//! the serial driver (see [`PipelineConfig`]).
//!
//! Under contention a transaction is refused several times before it
//! runs, so a refusal is kept cheap. The refused wait in a list in id
//! order — they are refused in id order, so a push keeps it sorted — that
//! an admission pass walks in place. A parked transaction remembers the
//! operation it was refused at and its retry resumes there: the operations
//! before it hold their locks, and asking the lock manager again for a
//! held lock is granted and changes nothing (a death starts over). And a
//! refused request leaves the lock table untouched and allocates nothing.
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
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use nbc_core::{Analysis, Protocol};
use nbc_engine::{RunConfig, RunReport, Runner};
use nbc_obs::{Event, EventKind, Tracer};
use nbc_simnet::{LatencyModel, Time};
use nbc_storage::{KvStore, LogRecord, SyncStats, Wal};
use nbc_txn::{BankWorkload, LockManager, LockMode, LockOutcome, Op, ProtocolKind};

use crate::report::{percentile, ThroughputReport};
use crate::txn::PipelineTxn;

/// The longest [`PipelineConfig::reap_after`]: far past the end of any
/// batch (a round is tens of ticks), so it means "reap after the batch",
/// and small enough that the `u64` clock carries millions of such
/// deadlines without wrapping.
pub const MAX_REAP_AFTER: Time = 1 << 40;

/// Scheduler configuration.
///
/// One round at a time — the serial driver the B tables use as their
/// baseline — is this scheduler at `max_in_flight` 1, `group_window` 0
/// (a physical force per sync), `die_budget` 0 (a lock conflict is a no
/// vote, never a wait) and `reap_after` [`MAX_REAP_AFTER`] (a blocked
/// round keeps its locks until the batch is over).
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Number of sites.
    pub n_sites: usize,
    /// Commit protocol run by every round.
    pub kind: ProtocolKind,
    /// Maximum concurrent commit rounds (at least 1).
    pub max_in_flight: usize,
    /// Constant network latency of each round.
    pub latency: Time,
    /// Failure-detection delay of each round.
    pub detect_delay: Time,
    /// Group-commit window in sim ticks: a physical WAL force covers
    /// every sync requested within this window (0 = force every sync).
    pub group_window: u64,
    /// Sim ticks a blocked round may hold its locks before the scheduler
    /// reaps it through the recovery decision (at most [`MAX_REAP_AFTER`]).
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
    /// Defaults: latency 1, detection delay 5, 8-way concurrency, a
    /// 2-tick group-commit window, and patient reaping.
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

/// An admitted round in flight; ordered by `(time, txn)` on the agenda.
#[derive(Default)]
struct Round<'a> {
    txn: u64,
    admitted_at: Time,
    /// Per site, the bytes of that site's data WAL holding this
    /// transaction's `Begin` + redo frames (`None`: site not touched).
    logged: Vec<Option<Range<usize>>>,
    /// While the round is live, the time of its runner's next event; once
    /// it is over, the time its last step was due — its last event's, or
    /// for a truncated run the event the safety valve refused.
    time: Time,
    /// The runner, while the round is live.
    runner: Option<Runner<'a>>,
    /// What the round came to, once it is over (quiescent or truncated)
    /// and only awaits finalisation.
    report: Option<RunReport>,
}

impl<'a> Round<'a> {
    /// Re-key the round after its runner moved. `live` is false when the
    /// runner went as far as it goes; then, or when nothing is pending, the
    /// round is over: it keeps its report and its place on the agenda, and
    /// its runner is free for the next admission.
    fn rekey(&mut self, live: bool, runners: &mut Vec<Runner<'a>>) {
        let runner = self.runner.as_ref().expect("a live round has its runner");
        let next = runner.next_time();
        self.time = next.unwrap_or(runner.now());
        if !live || next.is_none() {
            self.report = Some(runner.report());
            runners.extend(self.runner.take());
        }
    }
}

impl Ord for Round<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.txn).cmp(&(other.time, other.txn))
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

/// A transaction waiting for admission: not tried yet, parked on a lock,
/// or restarting after a wait-die death.
struct Waiting {
    txn: u64,
    spec: PipelineTxn,
    dies: u32,
    /// The operation admission resumes at: the ones before it hold their
    /// locks, and asking again for a held lock changes nothing.
    resume_at: usize,
}

/// What one [`Pipeline::run`] keeps between admissions instead of
/// allocating it again: the finalised rounds (box and `logged` vector),
/// the runners of the rounds that are over (re-armed in place by the next
/// admission) and the per-site scratch of [`Pipeline::try_admit`].
#[derive(Default)]
struct Spare<'a> {
    // Boxed as on the agenda, so the box is recycled with its round.
    #[allow(clippy::vec_box)]
    rounds: Vec<Box<Round<'a>>>,
    runners: Vec<Runner<'a>>,
    votes: Vec<bool>,
    touched: Vec<bool>,
}

enum Admission<'a> {
    /// Round admitted: live, or already over when nobody is watching.
    Started(Box<Round<'a>>),
    /// Older than a conflicting holder: parked where it was refused,
    /// keeping granted locks. Or younger: it died, released everything and
    /// starts over — `freed` is true if any lock was actually released.
    Refused { freed: bool },
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
    /// What the reaper still has to learn: the decision of a blocked round
    /// that is durable only at a crashed site (the auditor's view). An
    /// entry leaves with the reap that reads it.
    ledger: BTreeMap<u64, bool>,
    /// Per site, what it still has to learn: the transactions whose
    /// decision it missed (crashed during the round), each with that
    /// decision and its frames' range in the site's WAL.
    missed: Vec<Vec<(u64, bool, Range<usize>)>>,
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
        assert!(cfg.max_in_flight >= 1, "need room for at least 1 round in flight");
        assert!(
            cfg.reap_after <= MAX_REAP_AFTER,
            "reap_after {} is past the longest reap delay, {MAX_REAP_AFTER}",
            cfg.reap_after
        );
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

    /// Compact every site's WAL into one checkpoint record of its
    /// committed pairs. Sound between any two [`Pipeline::run`] calls: a
    /// run drains its reaps and catch-ups, so no transaction still needs
    /// the redo frames that go, and no recorded frame range outlives them.
    pub fn checkpoint(&mut self) {
        assert!(self.missed.iter().all(Vec::is_empty), "a drained run leaves nothing missed");
        for (store, wal) in self.stores.iter().zip(&mut self.wals) {
            wal.checkpoint_compact(store.snapshot()).expect("wal record fits");
        }
    }

    /// Cold restart: replace every site's store by the one its own log
    /// rebuilds — decode what a crash would leave of the WAL, redo the
    /// committed transactions on top of the last checkpoint. Between runs
    /// that is the store it replaces.
    pub fn restart_from_logs(&mut self) {
        for (store, wal) in self.stores.iter_mut().zip(&self.wals) {
            let records = Wal::recover(&wal.as_bytes()[..wal.durable_len()])
                .expect("pipeline WALs are well-formed");
            *store = KvStore::redo_from_log(&records);
        }
    }

    /// Drain `txns` through the scheduler: admit up to
    /// [`PipelineConfig::max_in_flight`] rounds, finalise them and reap
    /// the blocked ones in global time order, and return the measured
    /// throughput. Deterministic: the same pipeline state and input
    /// produce an identical report, with or without a tracer attached.
    pub fn run(&mut self, txns: Vec<PipelineTxn>) -> ThroughputReport {
        let max_in_flight = self.cfg.max_in_flight;
        let shared = Arc::clone(&self.shared);
        let sync_base = self.sync_totals();

        let mut report = ThroughputReport { txns: txns.len() as u64, ..Default::default() };
        let mut pending: VecDeque<Waiting> = txns
            .into_iter()
            .map(|spec| {
                let txn = self.next_txn;
                self.next_txn += 1;
                Waiting { txn, spec, dies: 0, resume_at: 0 }
            })
            .collect();
        // Refused transactions, oldest first: they arrive in id order, and
        // an admission pass walks them where they sit.
        let mut parked: Vec<Waiting> = Vec::new();
        // The agenda: every round in flight, earliest `(time, txn)` on top.
        // Only the top round is ever touched, and a stepped one is re-keyed
        // before the heap is looked at again.
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
                // Parked transactions retry first, oldest first; the
                // refused, and whoever the limit leaves unserved, stay
                // parked where they are.
                parked.retain_mut(|waiting| {
                    if agenda.len() >= max_in_flight {
                        return true;
                    }
                    match self.try_admit(&shared, &mut spare, waiting, clock) {
                        Admission::Started(r) => {
                            agenda.push(Reverse(r));
                            last_pass_progressed = true;
                            false
                        }
                        Admission::Refused { freed } => {
                            report.deferrals += 1;
                            last_pass_progressed |= freed;
                            true
                        }
                    }
                });
                while agenda.len() < max_in_flight {
                    let Some(mut waiting) = pending.pop_front() else { break };
                    match self.try_admit(&shared, &mut spare, &mut waiting, clock) {
                        Admission::Started(r) => {
                            agenda.push(Reverse(r));
                            last_pass_progressed = true;
                        }
                        Admission::Refused { freed } => {
                            report.deferrals += 1;
                            last_pass_progressed |= freed;
                            parked.push(waiting);
                        }
                    }
                }
            }

            // ---- Earliest key first: a round (it goes first on a tie) or
            // a reap. ----
            let round = agenda.peek().map(|Reverse(r)| (r.time, r.txn));
            let reap = blocked.peek().map(|&Reverse(reap)| reap);
            if round.is_some_and(|round| reap.is_none_or(|reap| round <= reap)) {
                let mut top = agenda.peek_mut().expect("peeked");
                if let Some(runner) = &mut top.0.runner {
                    // Live: one event, re-keyed in place; the heap re-sifts
                    // when `top` drops.
                    let stepped = runner.step();
                    clock = clock.max(runner.now());
                    top.0.rekey(stepped, &mut spare.runners);
                } else {
                    // Over: nothing in flight or blocked comes before its end.
                    let Reverse(round) = PeekMut::pop(top);
                    let done_at = self.finalize(&round, &mut report, &mut latencies, &mut blocked);
                    clock = clock.max(done_at);
                    spare.rounds.push(round);
                    dirty = true;
                }
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

    /// Try to start a commit round for `waiting` at time `now`. A refusal
    /// records in `waiting` where the next attempt resumes; an admission
    /// takes the keys, values and crash schedule out of its spec.
    fn try_admit<'a>(
        &mut self,
        shared: &'a Shared,
        spare: &mut Spare<'a>,
        waiting: &mut Waiting,
        now: Time,
    ) -> Admission<'a> {
        let n = self.cfg.n_sites;
        let round_sites = shared.protocol.n_sites();
        let Waiting { txn, ref mut spec, ref mut dies, ref mut resume_at } = *waiting;
        for crash in &spec.crashes {
            assert!(
                crash.site < round_sites,
                "crash addresses site {} of {round_sites}",
                crash.site
            );
        }
        let give_up = *dies >= self.cfg.die_budget;
        let Spare { rounds, runners, votes, touched } = spare;
        votes.clear();
        votes.resize(n, true);
        touched.clear();
        touched.resize(n, false);

        for (at, op) in spec.ops.iter().enumerate() {
            let site = op.site();
            assert!(site < n, "op addresses site {site} of {n}");
            touched[site] = true;
            if at < *resume_at || !votes[site] {
                continue; // lock held since an earlier attempt, or site already doomed
            }
            let mode =
                if matches!(op, Op::Read { .. }) { LockMode::Shared } else { LockMode::Exclusive };
            match self.locks[site].request(txn, op.key(), mode) {
                LockOutcome::Granted => {}
                LockOutcome::Wait if !give_up => {
                    self.tracer
                        .emit(|| Event::new(now, EventKind::Park).at_site(site).for_txn(txn));
                    *resume_at = at;
                    return Admission::Refused { freed: false };
                }
                LockOutcome::Die if !give_up => {
                    // Whatever it holds, it holds at a site it has touched.
                    let mut freed = false;
                    for held_at in (0..n).filter(|&s| touched[s]) {
                        freed |= self.locks[held_at].held_by(txn) > 0;
                        self.locks[held_at].release_all(txn);
                    }
                    self.tracer.emit(|| Event::new(now, EventKind::Die).at_site(site).for_txn(txn));
                    *resume_at = 0;
                    *dies += 1;
                    return Admission::Refused { freed };
                }
                _ => votes[site] = false,
            }
        }

        // Stage writes at voting sites (own staged values visible, so
        // repeated AddI64 on one key accumulates). The stage takes the
        // key and value bytes the transaction came with; a new balance is
        // written into a buffer the store kept from a replaced value.
        for op in &mut spec.ops {
            let site = op.site();
            if !votes[site] {
                continue;
            }
            let store = &mut self.stores[site];
            match op {
                Op::Read { .. } => {}
                Op::Write { key, value, .. } => {
                    store.stage_put(txn, std::mem::take(key), std::mem::take(value));
                }
                Op::AddI64 { key, delta, .. } => {
                    let cur = store.get_in_txn(txn, key).map_or(0, decode_i64);
                    let mut value = store.spare_value();
                    value.extend_from_slice(&(cur + *delta).to_le_bytes());
                    store.stage_put(txn, std::mem::take(key), value);
                }
            }
        }

        // Admitted. A finalised round lends this one its storage.
        let mut round = rounds.pop().unwrap_or_default();
        round.txn = txn;
        round.admitted_at = now;
        round.logged.clear();
        round.logged.resize(n, None);

        // Write-ahead: Begin + redo images, group-commit batched.
        for (site, touched_here) in touched.iter().enumerate() {
            if *touched_here {
                let before = self.wals[site].len();
                self.wals[site].append(&LogRecord::Begin { txn }).expect("wal record fits");
                let store = &self.stores[site];
                store.log_stage(txn, &mut self.wals[site]);
                round.logged[site] = Some(before..self.wals[site].len());
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

        let crashes = std::mem::take(&mut spec.crashes);
        // The round's configuration, in the vote vector of the spent one.
        let configure = |spent: RunConfig| {
            let mut rc = RunConfig::happy(0);
            rc.votes = spent.votes;
            rc.votes.clear();
            rc.votes.extend_from_slice(votes);
            // Quorum protocols bring extra acceptor sites along; they
            // carry no data and always "vote" yes.
            rc.votes.resize(round_sites, true);
            rc.crashes = crashes;
            rc.rule = self.cfg.kind.rule();
            rc.latency = LatencyModel::constant(self.cfg.latency);
            rc.detect_delay = self.cfg.detect_delay;
            rc.with_txn_id(txn).with_start_at(now)
        };
        self.tracer.emit(|| Event::new(now, EventKind::Admit).for_txn(txn));
        let tracer = self.tracer.clone();
        // A round that is over lends this one its runner and configuration.
        let mut runner = match runners.pop() {
            Some(spent) => spent.recycle_with(tracer, configure),
            None => {
                let rc = configure(RunConfig::happy(0));
                Runner::with_tracer(&shared.protocol, &shared.analysis, rc, tracer)
            }
        };
        // The one line a watched and an unwatched batch differ by. Nothing
        // a round does between admission and finalisation touches what the
        // rounds share, so only a tracer can tell running it to its end
        // here from stepping it event by event through the agenda.
        let watched = self.tracer.enabled();
        if !watched {
            while runner.step() {}
        }
        round.runner = Some(runner);
        round.report = None;
        round.rekey(watched, runners);
        Admission::Started(round)
    }

    /// Post-round bookkeeping: apply the decision at operational sites,
    /// queue crashed sites for catch-up, or park the round as blocked with
    /// a reap deadline. Returns the time of the round's last event.
    fn finalize(
        &mut self,
        round: &Round<'_>,
        report: &mut ThroughputReport,
        latencies: &mut Vec<Time>,
        blocked: &mut BinaryHeap<Reverse<(Time, u64)>>,
    ) -> Time {
        let txn = round.txn;
        let rr = round.report.as_ref().expect("a round that gave up its runner kept its report");
        assert!(rr.consistent, "txn {txn}: commit round violated atomicity: {rr}");
        report.events += rr.events as u64;
        report.msgs += rr.msgs_sent;
        let done_at = rr.finished_at;

        // The operational sites' view, not the omniscient auditor's.
        let is_blocked = rr.any_blocked || !rr.all_operational_decided || rr.truncated;
        match (is_blocked, rr.decision()) {
            (false, Some(commit)) => {
                for site in 0..self.cfg.n_sites {
                    if rr.outcomes[site].operational() {
                        self.apply_decision(site, txn, commit, done_at);
                    } else if let Some(frames) = &round.logged[site] {
                        // Crashed during the round: volatile stage lost;
                        // the WAL's redo images remain for catch-up.
                        self.stores[site].abort(txn);
                        self.locks[site].release_all(txn);
                        self.missed[site].push((txn, commit, frames.clone()));
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
        done_at
    }

    /// Recovery decision for a blocked round: adopt a decision durable at
    /// a crashed site if one exists, else abort; apply everywhere and free
    /// the strand-locks. Returns true if the reap committed.
    fn reap(&mut self, txn: u64, now: Time) -> bool {
        let commit = self.ledger.remove(&txn).unwrap_or(false);
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
    /// decision and redo the staged images from the site's own WAL —
    /// decoding only the transaction's own frames, whose range admission
    /// recorded (within a run a WAL only grows, so it holds).
    fn catch_up(&mut self, now: Time) {
        let Self { missed, wals, stores, tracer, .. } = self;
        for (site, missed) in missed.iter_mut().enumerate() {
            for (txn, commit, frames) in missed.drain(..) {
                let decision = LogRecord::Decision { txn, commit };
                let end = LogRecord::End { txn };
                wals[site].append(&decision).expect("wal record fits");
                let physical = wals[site].sync_batched(now);
                wals[site].append(&end).expect("wal record fits");
                tracer.emit(|| {
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
                tracer.emit(|| {
                    Event::new(now, EventKind::WalFsync { physical }).at_site(site).for_txn(txn)
                });
                if commit {
                    let records = Wal::recover(&wals[site].as_bytes()[frames])
                        .expect("pipeline WALs are well-formed");
                    assert!(
                        matches!(records[0], LogRecord::Begin { txn: t } if t == txn),
                        "a WAL is compacted between runs only: txn {txn}'s frames moved"
                    );
                    stores[site].redo_one(&records, txn);
                }
            }
        }
    }
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
                Op::AddI64 { site: 0, key: BankWorkload::key_of(0), delta: -1 },
                Op::AddI64 { site: 1, key: BankWorkload::key_of(1), delta: 1 },
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
    fn the_longest_reap_delay_reaps_after_the_batch() {
        use nbc_obs::{MemorySink, SharedSink};
        // The serial driver the B tables run: one round in flight, every
        // conflict a no vote, blocked rounds strand their locks until the
        // batch is over.
        let w = BankWorkload::new(3, 12, 1_000, 31);
        let mut p = Pipeline::new(PipelineConfig {
            max_in_flight: 1,
            group_window: 0,
            die_budget: 0,
            reap_after: MAX_REAP_AFTER,
            ..PipelineConfig::new(3, ProtocolKind::Central2pc)
        });
        assert_eq!(p.run(vec![PipelineTxn::from_ops(&w.setup_ops())]).committed, 1);
        let sink = SharedSink::new(MemorySink::default());
        p.set_tracer(Tracer::to_sink(sink.clone()));
        let r = p.run(bank_transfer_txns(&mut w.clone(), 64, 50, &mut SimRng::seed_from_u64(5)));
        assert_eq!(r.decided(), 64);
        assert!(r.blocked > 0 && r.deferrals == 0, "{r}");
        let events = sink.with(|s| s.events.clone());
        let is_reap = |e: &Event| matches!(e.kind, EventKind::Reap { .. });
        let first_reap = events.iter().position(is_reap).expect("blocked rounds are reaped");
        let (rounds, reaps) = events.split_at(first_reap);
        assert!(rounds.last().expect("rounds ran").time < MAX_REAP_AFTER);
        assert!(!reaps.iter().any(|e| matches!(e.kind, EventKind::Admit)), "a round after a reap");
        assert_eq!(reaps.iter().filter(|e| is_reap(e)).count() as u64, r.blocked);
        assert!(reaps.iter().all(|e| e.time >= MAX_REAP_AFTER));
        assert_eq!(p.locked_keys(), 0, "the reaps drain the strand-locks");
        assert_eq!(p.total_balance(&w), w.expected_total());
    }

    #[test]
    #[should_panic(expected = "past the longest reap delay")]
    fn a_reap_delay_the_clock_cannot_carry_is_refused() {
        let cfg = PipelineConfig::new(3, ProtocolKind::Central2pc);
        Pipeline::new(cfg.with_reap_after(Time::MAX));
    }

    #[test]
    fn a_drained_batch_leaves_nothing_to_learn() {
        use nbc_obs::{MemorySink, SharedSink};
        let bank = BankWorkload::new(4, 32, 0, 31);
        let txns = bank_transfer_txns(&mut bank.clone(), 3000, 10, &mut SimRng::seed_from_u64(37));
        let mut p = Pipeline::new(PipelineConfig::new(4, ProtocolKind::Central2pc));
        let sink = SharedSink::new(MemorySink::default());
        p.set_tracer(Tracer::to_sink(sink.clone()));
        let r = p.run(txns);
        assert_eq!(r.decided(), 3000);
        // Both stores were used: the reaper adopted decisions it found in
        // the ledger, and crashed sites caught up on ones they missed.
        assert!(r.reaped_commits > 0, "{r}");
        let caught_up = |e: &Event| matches!(&e.kind, EventKind::WalAppend { record, .. } if record == "catch-up");
        assert!(sink.with(|s| s.events.iter().any(caught_up)));
        assert!(p.ledger.is_empty(), "a reap takes its entry with it: {:?}", p.ledger);
        assert!(p.missed.iter().all(Vec::is_empty), "{:?}", p.missed);
    }

    #[test]
    #[should_panic(expected = "need room for at least 1 round in flight")]
    fn an_in_flight_limit_of_zero_is_refused() {
        Pipeline::new(PipelineConfig::new(3, ProtocolKind::Central3pc).with_in_flight(0));
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

    /// The data WALs a crashy batch leaves (every frame kind the pipeline
    /// writes: `Begin`, redo `Put`s, `Decision`, `End`) and the checkpoint
    /// image that replaces them, which is the committed pairs in key order
    /// whatever order the store keeps them in: both pinned byte for byte
    /// (an `Fp128` over every site's WAL), then rebuilt into the same
    /// stores.
    #[test]
    fn the_checkpoint_image_after_a_crashy_batch_is_pinned() {
        use nbc_core::Fp128;
        let image = |p: &Pipeline| {
            let mut h = Fp128::new();
            for wal in &p.wals {
                h.write_bytes(wal.as_bytes());
            }
            h.finish()
        };
        let bank = BankWorkload::new(4, 64, 0, 31);
        let txns = bank_transfer_txns(&mut bank.clone(), 400, 10, &mut SimRng::seed_from_u64(41));
        let mut p = Pipeline::new(PipelineConfig::new(4, ProtocolKind::Central3pc));
        assert_eq!(p.run(txns).decided(), 400);
        assert_eq!(
            image(&p),
            0xcbfd_7d17_5723_411b_6bf5_126f_720d_e8a2,
            "data WALs, {} bytes",
            p.wal_bytes()
        );
        p.checkpoint();
        assert_eq!(image(&p), 0xd26d_7609_5190_3f52_e587_885c_af81_c125, "{} bytes", p.wal_bytes());
        let before: Vec<_> = p.stores.iter().map(KvStore::snapshot).collect();
        p.restart_from_logs();
        assert_eq!(p.stores.iter().map(KvStore::snapshot).collect::<Vec<_>>(), before);
        assert_eq!(p.total_balance(&bank), bank.expected_total());
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
