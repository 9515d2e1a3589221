//! The schedule explorer: bounded, deterministic, parallel exploration of
//! every interleaving of message delivery, message loss, site crash, site
//! recovery and detector suspicion that the budgets allow.
//!
//! ## State space
//!
//! Exploration runs the real engine [`Runner`] in **lockstep**
//! configuration (zero latency, zero detection delay): every scheduled
//! event sits at the same instant, so *which event fires next* is pure
//! scheduler choice and logical time vanishes from the state. The explored
//! actions are:
//!
//! * **deliver** the head of one FIFO channel (per-link message order and
//!   per-observer detector order are preserved; only heads are legal);
//! * **crash** an up site, losing a *suffix* of its undelivered sends —
//!   one branch per suffix length, which is the explorer-granularity form
//!   of the paper's non-atomic transition failure (crash after sending
//!   only a prefix of a transition's messages);
//! * **recover** a down site (budgeted separately), which replays its WAL
//!   and runs the paper's recovery protocol;
//! * **drop** the most recently sent in-flight message of a link — a
//!   deliberate *assumption violation* (the paper assumes a reliable
//!   network), budgeted separately and off by default;
//! * **suspect** a live in-view peer — the imperfect (timeout-based)
//!   failure detector's false-suspicion choice, budgeted separately and
//!   off by default — and **unsuspect** a standing suspicion, which is
//!   budget-free: once a suspicion exists, the detector may clear it at
//!   any later point, so every revocation ordering is explored.
//!
//! ## Deduplication and pruning
//!
//! States are deduplicated by the engine's behavioral
//! [`digest`](Runner::digest) — a 128-bit fingerprint from the pinned
//! [`Fp128`] hasher, which a runner assembles from per-site fingerprints it
//! caches between mutations — folded together with the four remaining
//! budgets by the same hasher (`state_key`). The key is uniform in both
//! halves, so the dedup maps take it as its own hash ([`FpBuildHasher`]:
//! high half to the table, low bits to the shard index) instead of
//! SipHashing it again.
//!
//! A revisit prunes, so every state is expanded once. That is exact while
//! the depth bound cuts nothing: an uncut walk's visited set is closed
//! under successors, so it is the whole reachable set, and an entry's
//! edges and fused bit are functions of its state. The first expansion
//! that leaves an action out for depth abandons the walk instead, and
//! `walk` runs it again **exact**, under the depth-left revisit rule:
//! the map stores the best remaining depth a state was reached with, a
//! revisit with less is pruned and one with more is re-expanded, so the
//! depth bound never hides a state a shallower path could reach. Under
//! the default depth nothing is cut, and the rule's re-expansions (5 985
//! expansions for central 3PC n=3's 4 402 states) would only revisit
//! known states. The abandoned walk's cost is measured, not bounded: at
//! every depth that cuts decentralized 3PC n=3 or central 3PC n=4 it
//! expanded at most 435 states, 0.12 % of the exact run's expansions.
//!
//! When every fault budget is exhausted and every pending event targets a
//! distinct site, all pending heads are **fused** into one macro-step:
//! handlers of distinct destination sites commute as state transformers,
//! nothing can interleave between them, and decisions are monotone (an
//! oracle violation visible in a skipped intermediate state is still
//! visible in the fused successor — outcomes never unset and the visited
//! monitors are cumulative). Two further sound reductions: events
//! addressed to a permanently-down site (no recovery budget left) are
//! pure no-ops and are drained eagerly rather than branched over, and the
//! behavioral digest canonicalizes arrival-order collections whose
//! consumers are order-independent.
//!
//! ## Parallel exploration and determinism
//!
//! The walk is an **explicit work-stack DFS** (no recursion — `--depth`
//! bounds the schedule, not the call stack) fanned out over
//! [`std::thread::scope`]: the subtrees rooted at (vote plan × root
//! action) seed a shared task queue, and a worker whose neighbor goes
//! idle donates the shallowest untried branch of its own stack as a fresh
//! task. Each vote plan owns a **sharded fingerprint map** (the digest
//! deliberately excludes the vote plan, so identical digests under
//! different plans are different futures and must not merge).
//!
//! Every *reported* quantity is a function of the exploration's
//! order-independent fixpoint, never of scheduling:
//!
//! * the set of visited states — and hence the witnessed-state bitmaps,
//!   per-plan violation flags and per-plan blocking flags — is invariant
//!   (an uncut walk visits the reachable set; in an exact one a state is
//!   expanded whenever reached with more remaining depth than any prior
//!   expansion, so the final map is the same whatever the interleaving);
//! * `distinct_states` counts that map's entries; `actions`, `fused` and
//!   the depth-side of `truncated` are recomputed *per entry at its
//!   deepest expansion* rather than accumulated per traversal event
//!   (an exact walk's re-expansions would otherwise double-count,
//!   differently per run);
//! * concrete witnesses are never taken from the parallel sweep: a
//!   serial, canonical-order run of the least flagged plan reproduces
//!   them (below), byte-identical at any thread count and any seed.
//!
//! ## What a fork costs
//!
//! Every generated successor starts as a copy of its source state, and
//! two in three end in a dedup hit. So a worker never gives a [`Runner`]
//! back to the allocator: one that no frame keeps goes on the worker's
//! free list, the next fork is [`Clone::clone_from`] into it — every site,
//! WAL buffer, inbox and event heap overwritten in place, cached site
//! fingerprints included — and the last untried branch of a frame takes
//! the frame's runner by move instead of forking it. Action lists and the
//! stepper's scratch are recycled the same way; in steady state the walk
//! allocates for dedup-map growth and donated tasks only.
//!
//! ## One walk, run three ways
//!
//! There is one walk — the `Worker`'s explicit-stack loop, its `visit`
//! (judge the oracles, judge blocking, then prune → cap → claim, with the
//! edge stats published at the deepest expansion), the per-plan store and
//! its fold. It runs:
//!
//! 1. **as the parallel sweep**, over every plan with `threads` workers
//!    and the seed's rotation. The sweep only *flags* which plans
//!    violated an oracle or blocked, and always runs to its fixpoint;
//! 2. **alone, as the canonical redo**: one worker on the calling thread,
//!    one plan, no seed. With nobody to donate to, the FIFO queue of root
//!    actions is plain canonical-order DFS. Every plan whose fixpoint
//!    holds at least `max_states` states — the cap tripped, or the insert
//!    count reached it; a property of the state space, not of scheduling
//!    — has its stats, flags and witnessed-state bitmap replaced
//!    wholesale by this run's, which is what makes truncated reports
//!    byte-identical at any thread count **and any seed**;
//! 3. **alone with a target, as the witness search** of the least flagged
//!    plan: the same run, stopping at the first violation (state or
//!    rejected `Recover`), or the first blocked quiescent state, that
//!    `visit` judges — the least (plan, branch path) under the canonical
//!    enumeration order. An uncapped sweep's visited set equals this
//!    run's and a capped plan's flags come from run 2, whose traversal
//!    this one repeats, so a flagged plan always yields its witness.
//!
//! Each of the three first prunes every revisit and, abandoned at a cut,
//! runs again exact at the same thread count. Runs 2 and 3 depend on the
//! order of first visits, not only on the visited set, and that order is
//! the exact run's too as long as nothing was cut before. Every action
//! costs at least one step of depth, so a path back to a state on the DFS
//! stack arrives with strictly less depth left, and the exact rule prunes
//! it. An exact re-expansion therefore revisits a state whose subtree the
//! DFS has already closed, and finds nothing new in it. A target found
//! before the first cut is the exact run's target. One more case runs
//! run 2 again exact: a plan that fills the map to exactly `max_states`
//! with no state turned away. The exact rule's deeper revisits of the full
//! map trip the cap there, and its report says truncated.
//!
//! Because runs 2 and 3 are the sweep's own code they use its store too:
//! the serial passes honour [`CheckOptions::mem_budget`].
//!
//! ## External memory
//!
//! With [`CheckOptions::mem_budget`] set, each plan's fingerprint shards
//! become the hot tier of a two-level store: whenever the hot tier
//! crosses the byte budget, a worker locks *all* of the plan's shards (in
//! index order, then the run-store write lock — probers hold one shard
//! plus the read lock, so the orders cannot deadlock), drains them, and
//! spills the entries as one sorted run file ([`nbc_core::extmem`]).
//! Membership stays *exact* — a hot miss probes the runs before counting
//! an insert — and `best` is monotone while stats merge by deepest
//! `stats_depth`, so reports are byte-identical to the unlimited path at
//! any thread count and seed; only the out-of-band [`SpillStats`]
//! (stderr/bench reporting, never part of a rendered report) differ.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, RwLock};

use nbc_core::{Analysis, Fp128, FpBuildHasher, Protocol, RunSet, SpillStats};
use nbc_engine::{channel_of, Channel, RunConfig, Runner, TerminationRule, Wire};
use nbc_simnet::NetEvent;

use crate::oracle::{Oracles, Witnessed};
use crate::schedule::{channel_head, channel_tail, step_for, Step};

/// Knobs of one check run.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Maximum scheduler actions per execution.
    pub depth: u32,
    /// Crash budget per execution.
    pub faults: u32,
    /// Recovery budget per execution.
    pub recoveries: u32,
    /// Lossy-network drop budget per execution (assumption violation;
    /// default 0).
    pub drops: u32,
    /// Suspicion budget per execution: how many times the (imperfect,
    /// timeout-based) failure detector may start suspecting a site —
    /// possibly falsely, of a live one. Unsuspicions are free: once a
    /// suspicion exists, clearing it at any point is always a legal
    /// detector behavior, so revocations are explored without budget.
    /// Default 0 (the paper's perfect-detector world).
    pub suspicions: u32,
    /// Termination rule the engine runs under.
    pub rule: TerminationRule,
    /// Optional traversal-order perturbation. `None` (the default) keeps
    /// the canonical enumeration order; `Some(s)` rotates each state's
    /// action list by a hash of `s` — including `Some(0)`, which was
    /// formerly a silent "no shuffle" sentinel. Verdicts, stats and
    /// witnesses are order-independent, so the seed only affects
    /// traversal order (and, under a `max_states` truncation, which
    /// states fall inside the cap).
    pub seed: Option<u64>,
    /// Check only this vote plan instead of all `2^n`.
    pub vote_plan: Option<Vec<bool>>,
    /// Safety valve: stop (and report truncation) past this many distinct
    /// states per vote plan.
    pub max_states: usize,
    /// Worker threads for the parallel sweep. `0` = auto (available
    /// parallelism, capped at 8); the default is 1 — results are
    /// identical at any thread count, so threads buy wall-clock only.
    pub threads: usize,
    /// Progress hook, invoked periodically from worker threads with a
    /// snapshot of the exploration counters (stderr-style reporting; all
    /// results stay byte-identical with or without it).
    pub progress: Option<fn(&CheckProgress)>,
    /// Approximate byte budget for the hot in-RAM tier of each plan's
    /// fingerprint store. `0` (the default) keeps everything in RAM; any
    /// other value spills the hot tier to sorted temp-file runs whenever
    /// it crosses the budget (see the module docs). Reports stay
    /// byte-identical either way.
    pub mem_budget: usize,
}

impl Default for CheckOptions {
    fn default() -> Self {
        Self {
            depth: 64,
            faults: 1,
            recoveries: 0,
            drops: 0,
            suspicions: 0,
            rule: TerminationRule::Skeen,
            seed: None,
            vote_plan: None,
            max_states: 1 << 21,
            threads: 1,
            progress: None,
            mem_budget: 0,
        }
    }
}

/// A progress snapshot handed to the [`CheckOptions::progress`] hook.
#[derive(Debug, Clone, Copy)]
pub struct CheckProgress {
    /// Vote plans whose subtree is fully explored.
    pub plans_done: usize,
    /// Vote plans in this run.
    pub plans_total: usize,
    /// Distinct `(digest, budgets)` states inserted so far, over all
    /// plans.
    pub distinct_states: usize,
    /// State expansions performed so far (traversal events, not the
    /// deduplicated `actions` stat of the final report).
    pub expansions: u64,
    /// Sorted runs spilled to disk so far (0 without a
    /// [`CheckOptions::mem_budget`]).
    pub spill_runs: u64,
}

/// Remaining fault budgets along one path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Budgets {
    faults: u32,
    recoveries: u32,
    drops: u32,
    suspicions: u32,
}

impl Budgets {
    fn of(opts: &CheckOptions) -> Self {
        Self {
            faults: opts.faults,
            recoveries: opts.recoveries,
            drops: opts.drops,
            suspicions: opts.suspicions,
        }
    }
}

/// The dedup key of one explored state: the engine's behavioral digest
/// with the remaining budgets folded in (same digest, different budgets =
/// different futures).
fn state_key(digest: u128, b: Budgets) -> u128 {
    let mut h = Fp128::new();
    h.write_u128(digest);
    h.write_u32(b.faults);
    h.write_u32(b.recoveries);
    h.write_u32(b.drops);
    h.write_u32(b.suspicions);
    h.finish()
}

/// A dedup map keyed by [`state_key`]s, which are their own hash.
type KeyMap<V> = HashMap<u128, V, FpBuildHasher>;

/// One branchable scheduler action.
#[derive(Debug, Clone, Copy)]
enum Action {
    /// Deliver the head of this channel.
    Fire(Channel),
    /// Deliver every pending event — this many, each the head of its own
    /// channel — in channel order, as one commuting macro-step.
    Fuse(u32),
    /// Crash `site` and lose the last `lose` of its undelivered sends.
    CrashSuffix { site: usize, lose: usize },
    /// Restart a down site.
    Recover { site: usize },
    /// Lose the most recently sent in-flight message of this link.
    DropTail { src: usize, dst: usize },
    /// `observer` starts (possibly falsely) suspecting `peer`.
    Suspect { observer: usize, peer: usize },
    /// `observer` clears its suspicion of `peer`.
    Unsuspect { observer: usize, peer: usize },
}

impl Action {
    /// Depth cost: the number of schedule steps the action expands to.
    fn cost(&self) -> u32 {
        match self {
            Action::Fire(_)
            | Action::Recover { .. }
            | Action::DropTail { .. }
            | Action::Suspect { .. }
            | Action::Unsuspect { .. } => 1,
            Action::Fuse(heads) => *heads,
            Action::CrashSuffix { lose, .. } => 1 + *lose as u32,
        }
    }
}

/// Exploration counters. Every field is a function of the exploration's
/// order-independent fixpoint (see the module docs), so untruncated runs
/// report identical counters at any thread count and any seed.
#[derive(Debug, Clone, Default)]
pub struct ExploreStats {
    /// Distinct `(behavioral digest, budgets)` states, summed over plans.
    pub distinct_states: usize,
    /// Edges of the deduplicated exploration graph: scheduler actions
    /// applied from each distinct state at its deepest expansion.
    pub actions: u64,
    /// Distinct states whose commuting macro-step was taken.
    pub fused: u64,
    /// Vote plans explored.
    pub plans: usize,
    /// True if the depth bound (judged at each state's deepest expansion)
    /// or the state cap cut any branch short — the exploration was *not*
    /// exhaustive.
    pub truncated: bool,
}

/// Result of exploring one protocol under one option set.
pub struct Exploration<'a> {
    /// Accumulated oracle state (witness bitmap and recovery checks).
    pub oracles: Oracles<'a>,
    /// Counters.
    pub stats: ExploreStats,
    /// The canonical path to a blocked quiescent state, with the vote
    /// plan it occurred under: the first such state the canonical-order
    /// serial search reaches in the least plan containing one. Unshrunk.
    pub blocking_witness: Option<(Vec<bool>, Vec<Step>)>,
    /// Canonical first hard oracle violation: `(oracle, detail, vote
    /// plan, path)`, selected the same way. Unshrunk.
    pub violation: Option<(&'static str, String, Vec<bool>, Vec<Step>)>,
    /// External-memory activity summed over all plans' stores (all zero
    /// without a `mem_budget`). Reported out of band — never part of the
    /// rendered report, which stays byte-identical either way.
    pub spill: SpillStats,
}

/// The transaction id every checked execution runs under.
pub const CHECK_TXN: u64 = 1;

/// Destination site of a pending event — the only site its handler
/// mutates.
fn dest_of(ev: &NetEvent<Wire>) -> usize {
    match ev {
        NetEvent::Deliver { dst, .. } => *dst,
        NetEvent::FailureNotice { observer, .. } | NetEvent::RecoveryNotice { observer, .. } => {
            *observer
        }
    }
}

/// Build the lockstep engine configuration for one vote plan.
pub fn plan_config(n: usize, votes: &[bool], rule: TerminationRule) -> RunConfig {
    let mut config = RunConfig::lockstep(n);
    config.votes = votes.to_vec();
    config.rule = rule;
    config.txn_id = CHECK_TXN;
    config
}

/// The most worker threads [`CheckOptions::threads`] may ask for: the
/// sharded fingerprint maps stop growing at 16 workers (× 4 shards), and
/// every worker is a thread spawned up front, so a count far beyond the
/// machine's is a typing mistake to refuse, not a request to honour. One
/// limit for every exploration in the workspace: `nbc-core`'s graph
/// builders refuse the same counts.
pub use nbc_core::MAX_THREADS;

/// Worker-thread count for an options value (0 = auto).
fn resolved_threads(threads: usize) -> usize {
    if threads == 0 {
        nbc_core::auto_threads()
    } else {
        threads
    }
}

// ---------------------------------------------------------------------
// Shared exploration state
// ---------------------------------------------------------------------

/// Violated-oracle bits (per plan, OR over the plan's visited states —
/// order-independent).
const V_CONSISTENCY: u8 = 1;
const V_PREDICTION: u8 = 2;
const V_RECOVERY: u8 = 4;

fn violation_bit(oracle: &str) -> u8 {
    match oracle {
        "consistency" => V_CONSISTENCY,
        "prediction" => V_PREDICTION,
        _ => V_RECOVERY,
    }
}

/// One dedup entry: the deepest remaining depth the state was expanded
/// with, plus the edge statistics recomputed at that depth (`stats_depth`
/// guards against a shallower racing expansion publishing last).
#[derive(Clone, Copy)]
struct Entry {
    best: u32,
    stats_depth: u32,
    edges: u32,
    fused: bool,
    cut: bool,
}

/// Approximate resident cost of one hot `(u128, Entry)` map entry
/// (key + entry + table overhead), converting
/// [`CheckOptions::mem_budget`] into a spill trigger.
const HOT_ENTRY_COST: usize = 64;

/// On-disk payload width of a spilled [`Entry`].
const ENTRY_BYTES: usize = 16;

fn encode_entry(e: &Entry) -> [u8; ENTRY_BYTES] {
    let mut b = [0u8; ENTRY_BYTES];
    b[0..4].copy_from_slice(&e.best.to_le_bytes());
    b[4..8].copy_from_slice(&e.stats_depth.to_le_bytes());
    b[8..12].copy_from_slice(&e.edges.to_le_bytes());
    b[12] = u8::from(e.fused) | (u8::from(e.cut) << 1);
    b
}

fn decode_entry(b: &[u8; ENTRY_BYTES]) -> Entry {
    Entry {
        best: u32::from_le_bytes(b[0..4].try_into().expect("best")),
        stats_depth: u32::from_le_bytes(b[4..8].try_into().expect("stats_depth")),
        edges: u32::from_le_bytes(b[8..12].try_into().expect("edges")),
        fused: b[12] & 1 != 0,
        cut: b[12] & 2 != 0,
    }
}

/// Merge two spilled copies of the same state: the record expanded at
/// the deepest `stats_depth` carries the authoritative edge stats (tie →
/// the newer copy, mirroring the hot tier's `>=` publish guard), and
/// `best` is the monotone max of both.
fn combine_entries(older: &[u8; ENTRY_BYTES], newer: &[u8; ENTRY_BYTES]) -> [u8; ENTRY_BYTES] {
    let (o, n) = (decode_entry(older), decode_entry(newer));
    let mut r = if n.stats_depth >= o.stats_depth { n } else { o };
    r.best = o.best.max(n.best);
    encode_entry(&r)
}

/// Per-plan stats folded once the plan's last task finishes.
#[derive(Default)]
struct PlanStats {
    distinct: usize,
    edges: u64,
    fused: u64,
    cut: bool,
    /// External-memory activity of this plan's store (all zero without a
    /// budget) — out-of-band reporting only.
    spill: SpillStats,
}

/// What one walk established about one vote plan.
struct PlanResult {
    stats: PlanStats,
    /// OR of [`violation_bit`]s over the plan's visited states.
    violated: u8,
    /// Some non-violating quiescent state has a blocked operational site.
    blocking: bool,
    /// The plan's fixpoint holds at least `max_states` states.
    capped: bool,
    witnessed: Witnessed,
}

/// What a walk run alone stops at.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Target {
    /// The first state, or rejected `Recover`, that violates an oracle.
    Violation,
    /// The first non-violating quiescent state with a blocked site.
    Blocking,
}

/// Where a walk stopped: `(oracle, detail, path)`, the first two empty
/// for [`Target::Blocking`].
type Found = (&'static str, String, Vec<Step>);

/// Per-vote-plan shared exploration state. The fingerprint shards are
/// freed (folded into [`PlanStats`]) as soon as the plan's outstanding
/// task count hits zero, so peak memory tracks the plans in flight, not
/// the whole plan set.
struct PlanShared {
    shards: Vec<Mutex<KeyMap<Entry>>>,
    /// The cold tier: sorted run files the hot shards spill into when a
    /// `mem_budget` is set. Lock order: a spiller holds *all* shard locks
    /// (ascending) before taking the write lock; a prober holds exactly
    /// one shard lock before taking the read lock — no cycle is possible,
    /// and an entry is never in neither tier, so membership (and the
    /// `inserted` cap counting) stays exact.
    store: RwLock<RunSet<ENTRY_BYTES>>,
    /// Distinct states inserted (drives the per-plan `max_states` valve).
    inserted: AtomicUsize,
    /// Outstanding tasks of this plan (seeded tasks + donations).
    pending: AtomicUsize,
    /// The state cap cut this plan short.
    cap_hit: AtomicBool,
    /// OR of [`violation_bit`]s over the plan's visited states.
    violated: AtomicU8,
    /// Some non-violating quiescent state of this plan has a blocked
    /// operational site.
    blocking: AtomicBool,
    folded: Mutex<Option<PlanStats>>,
}

impl PlanShared {
    fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards).map(|_| Mutex::new(KeyMap::default())).collect(),
            store: RwLock::new(RunSet::new()),
            inserted: AtomicUsize::new(0),
            pending: AtomicUsize::new(0),
            cap_hit: AtomicBool::new(false),
            violated: AtomicU8::new(0),
            blocking: AtomicBool::new(false),
            folded: Mutex::new(None),
        }
    }

    /// Sum the shard entries — merged against any spilled runs, each
    /// state counted once with its deepest-expansion stats — into the
    /// final per-plan stats and free the maps. Called exactly once, after
    /// the plan's last task finished. `hot_bytes` is the global hot-tier
    /// gauge to release the drained entries from.
    fn fold(&self, hot_bytes: &AtomicUsize) {
        let mut stats =
            PlanStats { cut: self.cap_hit.load(Ordering::Acquire), ..Default::default() };
        let mut tally = |e: &Entry| {
            stats.distinct += 1;
            stats.edges += u64::from(e.edges);
            stats.fused += u64::from(e.fused);
            stats.cut |= e.cut;
        };
        let mut hot: Vec<(u128, Entry)> = Vec::new();
        for shard in &self.shards {
            let map = std::mem::take(&mut *shard.lock().expect("shard poisoned"));
            hot.extend(map);
        }
        hot_bytes.fetch_sub(hot.len() * HOT_ENTRY_COST, Ordering::Relaxed);
        let store = self.store.read().expect("store poisoned");
        if store.run_count() == 0 {
            for (_, e) in &hot {
                tally(e);
            }
        } else {
            // Two-pointer merge of the sorted hot drain against the k-way
            // merged runs: a state present in both tiers (spilled, then
            // re-expanded hot) is combined, hot side newest.
            hot.sort_unstable_by_key(|&(fp, _)| fp);
            let mut hi = 0usize;
            store
                .for_each_merged(combine_entries, |key, payload| {
                    while hi < hot.len() && hot[hi].0 < key {
                        tally(&hot[hi].1);
                        hi += 1;
                    }
                    let mut e = decode_entry(&payload);
                    if hi < hot.len() && hot[hi].0 == key {
                        let merged = combine_entries(&payload, &encode_entry(&hot[hi].1));
                        e = decode_entry(&merged);
                        hi += 1;
                    }
                    tally(&e);
                })
                .unwrap_or_else(|e| panic!("external-memory fold failed: {e}"));
            while hi < hot.len() {
                tally(&hot[hi].1);
                hi += 1;
            }
        }
        stats.spill = store.stats();
        *self.folded.lock().expect("fold poisoned") = Some(stats);
    }
}

/// One unit of queued work: apply `action` to `runner` (already at
/// `path`, with `depth_left`/`budgets` remaining) and exhaust the
/// resulting subtree.
struct Task<'a> {
    plan: usize,
    runner: Runner<'a>,
    path: Vec<Step>,
    depth_left: u32,
    budgets: Budgets,
    action: Action,
}

struct Shared<'a> {
    protocol: &'a Protocol,
    analysis: &'a Analysis,
    opts: CheckOptions,
    /// What a walk run alone stops at; the sweep and the redo have none.
    stop: Option<Target>,
    /// Re-expand a revisited state reached with more remaining depth (the
    /// depth-left revisit rule). Off, every revisit prunes and the walk is
    /// abandoned at its first depth cut.
    exact: bool,
    /// A walk that is not `exact` left an action out for depth: it stops,
    /// and `walk` runs it again `exact`. A stop signal that publishes no
    /// data, so `Relaxed`; `walk` reads it after joining every worker.
    cut: AtomicBool,
    shard_mask: usize,
    plan_shared: Vec<PlanShared>,
    queue: Mutex<VecDeque<Task<'a>>>,
    available: Condvar,
    /// Workers currently blocked on the queue — the donation signal.
    idle: AtomicUsize,
    /// Unfinished tasks over all plans; 0 = exploration complete.
    outstanding: AtomicUsize,
    done: AtomicBool,
    // Progress counters (reporting only; final stats come from the
    // per-plan folds).
    plans_done: AtomicUsize,
    distinct: AtomicUsize,
    expansions: AtomicU64,
    /// Approximate bytes held by all plans' hot fingerprint tiers — the
    /// spill trigger (only maintained when a `mem_budget` is set).
    hot_bytes: AtomicUsize,
    /// Runs spilled so far, over all plans (progress reporting).
    spill_runs: AtomicU64,
}

impl<'a> Shared<'a> {
    fn new(
        protocol: &'a Protocol,
        analysis: &'a Analysis,
        opts: CheckOptions,
        plans: usize,
        stop: Option<Target>,
        exact: bool,
    ) -> Self {
        let shards = (resolved_threads(opts.threads) * 4).next_power_of_two().min(64);
        Self {
            protocol,
            analysis,
            opts,
            stop,
            exact,
            cut: AtomicBool::new(false),
            shard_mask: shards - 1,
            plan_shared: (0..plans).map(|_| PlanShared::new(shards)).collect(),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            idle: AtomicUsize::new(0),
            outstanding: AtomicUsize::new(0),
            done: AtomicBool::new(false),
            plans_done: AtomicUsize::new(0),
            distinct: AtomicUsize::new(0),
            expansions: AtomicU64::new(0),
            hot_bytes: AtomicUsize::new(0),
            spill_runs: AtomicU64::new(0),
        }
    }

    /// Mark one task of `plan` finished; fold the plan when it was the
    /// last one and flip the global done flag when nothing is left.
    fn finish_task(&self, plan: usize) {
        let ps = &self.plan_shared[plan];
        if ps.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            ps.fold(&self.hot_bytes);
            self.plans_done.fetch_add(1, Ordering::Relaxed);
        }
        if self.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
            let guard = self.queue.lock().expect("queue poisoned");
            self.done.store(true, Ordering::Release);
            drop(guard);
            self.available.notify_all();
        }
    }

    /// What the finished walk established about each plan; `wits` are the
    /// workers' per-plan bitmaps, OR'd (order-independent).
    fn results(&self, wits: &[Vec<Option<Witnessed>>]) -> Vec<PlanResult> {
        let per_plan = |(idx, ps): (usize, &PlanShared)| {
            let mut wit = Witnessed::for_protocol(self.protocol);
            wits.iter().filter_map(|w| w[idx].as_ref()).for_each(|w| wit.merge(w));
            PlanResult {
                stats: ps.folded.lock().expect("fold poisoned").take().expect("plan not folded"),
                violated: ps.violated.load(Ordering::Acquire),
                blocking: ps.blocking.load(Ordering::Acquire),
                // `cap_hit` covers every schedule that tripped the cap, the
                // `inserted` test the knife-edge fixpoint == max_states
                // schedules that filled the map without tripping it.
                capped: ps.cap_hit.load(Ordering::Acquire)
                    || ps.inserted.load(Ordering::Acquire) >= self.opts.max_states,
                witnessed: wit,
            }
        };
        self.plan_shared.iter().enumerate().map(per_plan).collect()
    }
}

// ---------------------------------------------------------------------
// The stepper: action enumeration and application
// ---------------------------------------------------------------------

/// Enumerates and applies scheduler actions while maintaining the current
/// schedule path and the per-walker oracle accumulators.
struct Stepper<'a> {
    protocol: &'a Protocol,
    oracles: Oracles<'a>,
    path: Vec<Step>,
    // Scratch, empty between calls and kept for its allocation: what
    // `enumerate` sorts (the channels with something in flight, the pending
    // events' destinations) and what `apply` snapshots before the first
    // handler runs (the heads a macro-step fires, the sends a crash may
    // lose).
    channels: Vec<Channel>,
    dests: Vec<usize>,
    heads: Vec<(Channel, u64, Step)>,
    sends: Vec<(u64, usize)>,
}

impl<'a> Stepper<'a> {
    fn new(protocol: &'a Protocol, analysis: &'a Analysis) -> Self {
        Self {
            protocol,
            oracles: Oracles::new(protocol, analysis, CHECK_TXN),
            path: Vec::new(),
            channels: Vec::new(),
            dests: Vec::new(),
            heads: Vec::new(),
            sends: Vec::new(),
        }
    }

    /// Fill `actions` with all branchable actions in `runner` under
    /// remaining budgets `b`, in deterministic order.
    fn enumerate(&mut self, runner: &Runner<'a>, b: Budgets, actions: &mut Vec<Action>) {
        actions.clear();
        // The channels with something in flight, in canonical order.
        let channels = &mut self.channels;
        channels.clear();
        for (_, _, ev) in runner.iter_pending() {
            let ch = channel_of(ev);
            if !channels.contains(&ch) {
                channels.push(ch);
            }
        }
        channels.sort_unstable();

        // Fusion is sound only when no scheduler-injected action can
        // interleave between the fused deliveries: every fault budget must
        // be spent AND no standing suspicion remain (Unsuspect actions are
        // budget-free, so they exist as long as any suspicion does).
        let no_faults = b.faults == 0
            && b.recoveries == 0
            && b.drops == 0
            && b.suspicions == 0
            && runner.sites().iter().all(|s| s.suspects.is_empty());
        if no_faults && !channels.is_empty() {
            let dests = &mut self.dests;
            dests.clear();
            dests.extend(runner.iter_pending().map(|(_, _, ev)| dest_of(ev)));
            dests.sort_unstable();
            let distinct = dests.windows(2).all(|w| w[0] != w[1]);
            if distinct {
                // Every pending event is its channel's head and targets
                // its own site: all interleavings commute, and no fault
                // can intervene — fire them all as one macro-step.
                actions.push(Action::Fuse(dests.len() as u32));
                return;
            }
        }

        // Events to a down site are still fired (the dead site simply
        // never reads them) — leaving them pending would stall quiescence
        // detection forever.
        actions.extend(channels.iter().map(|&ch| Action::Fire(ch)));
        if b.drops > 0 {
            for &ch in channels.iter() {
                if let Channel::Link(src, dst) = ch {
                    actions.push(Action::DropTail { src, dst });
                }
            }
        }
        if b.faults > 0 {
            for (site, s) in runner.sites().iter().enumerate() {
                if !s.is_up() {
                    continue;
                }
                // Quorum-based protocols promise nonblocking only against
                // acceptor crashes; participant crashes are outside the
                // verified fault model, so the budget is spent on the
                // crashes the quorum must absorb.
                if self.protocol.quorum().is_some() && !self.protocol.is_acceptor(site) {
                    continue;
                }
                let in_flight = runner
                    .iter_pending()
                    .filter(
                        |(_, _, ev)| matches!(ev, NetEvent::Deliver { src, .. } if *src == site),
                    )
                    .count();
                for lose in 0..=in_flight {
                    actions.push(Action::CrashSuffix { site, lose });
                }
            }
        }
        if b.recoveries > 0 {
            for (site, s) in runner.sites().iter().enumerate() {
                if !s.is_up() {
                    actions.push(Action::Recover { site });
                }
            }
        }
        if b.suspicions > 0 {
            for (observer, s) in runner.sites().iter().enumerate() {
                if !s.is_up() {
                    continue;
                }
                for (peer, p) in runner.sites().iter().enumerate() {
                    // Suspicion of a *live, in-view* peer is the interesting
                    // (imperfect-detector) choice: suspecting a down or
                    // already-suspected peer adds nothing the crash notices
                    // don't cover.
                    if peer == observer || !p.is_up() || !s.view[peer] || s.suspects.contains(&peer)
                    {
                        continue;
                    }
                    // Quorum-based protocols promise nonblocking only
                    // against acceptor failures; mirror the CrashSuffix
                    // guard and spend the budget on acceptor suspicions.
                    if self.protocol.quorum().is_some() && !self.protocol.is_acceptor(peer) {
                        continue;
                    }
                    actions.push(Action::Suspect { observer, peer });
                }
            }
        }
        // Revocations: always explorable while a suspicion stands
        // (budget-free — see `CheckOptions::suspicions`).
        for (observer, s) in runner.sites().iter().enumerate() {
            if !s.is_up() {
                continue;
            }
            for &peer in &s.suspects {
                if runner.sites()[peer].is_up() {
                    actions.push(Action::Unsuspect { observer, peer });
                }
            }
        }
    }

    /// Apply one action, appending its schedule steps to the path and
    /// returning the remaining budgets. `Err(detail)` means the recovery
    /// oracle rejected a `Recover` (the path ends at the rejected step).
    fn apply(
        &mut self,
        runner: &mut Runner<'a>,
        action: Action,
        b: Budgets,
    ) -> Result<Budgets, String> {
        let b2 = self.apply_inner(runner, action, b)?;
        // Events addressed to a down site are pure no-ops (the engine
        // discards them before touching any state), and once the recovery
        // budget is spent the site stays down forever — so fire them
        // eagerly instead of branching over every position they could
        // occupy in the schedule. Recovering sites are *not* drained:
        // their protocol traffic is live.
        if b2.recoveries == 0 {
            loop {
                // Earliest first, as the time-ordered driver would.
                let dead = runner
                    .iter_pending()
                    .filter(|(_, _, ev)| !runner.sites()[dest_of(ev)].is_up())
                    .min_by_key(|&(at, seq, _)| (at, seq))
                    .map(|(_, seq, ev)| (seq, step_for(ev)));
                let Some((seq, step)) = dead else { break };
                self.path.push(step);
                runner.fire_scheduled(seq);
            }
        }
        Ok(b2)
    }

    fn apply_inner(
        &mut self,
        runner: &mut Runner<'a>,
        action: Action,
        b: Budgets,
    ) -> Result<Budgets, String> {
        match action {
            Action::Fire(ch) => {
                let (seq, ev) = channel_head(runner, ch).expect("enumerated channel has a head");
                self.path.push(step_for(ev));
                runner.fire_scheduled(seq);
                Ok(b)
            }
            Action::Fuse(_) => {
                // Snapshot the heads — every pending event, see
                // `enumerate` — first: a fired handler's new sends must
                // not join this macro-step.
                let pending = runner.iter_pending();
                self.heads.extend(pending.map(|(_, seq, ev)| (channel_of(ev), seq, step_for(ev))));
                self.heads.sort_unstable_by_key(|&(ch, ..)| ch);
                for (_, seq, step) in self.heads.drain(..) {
                    self.path.push(step);
                    runner.fire_scheduled(seq);
                }
                Ok(b)
            }
            Action::CrashSuffix { site, lose } => {
                self.path.push(Step::Crash { site });
                // Identify the suffix before crashing: the notices the
                // crash schedules are not deliveries and never match, but
                // snapshotting first keeps the intent obvious.
                self.sends.extend(runner.iter_pending().filter_map(|(_, seq, ev)| match ev {
                    NetEvent::Deliver { src, dst, .. } if *src == site => Some((seq, *dst)),
                    _ => None,
                }));
                runner.crash_now(site);
                // Lose the `lose` most recent sends, newest first — each
                // is the current tail of its link, which is what the
                // `Drop` step replays.
                self.sends.sort_unstable_by_key(|&(seq, _)| std::cmp::Reverse(seq));
                for &(seq, dst) in self.sends.iter().take(lose) {
                    self.path.push(Step::Drop { src: site, dst });
                    runner.drop_scheduled(seq);
                }
                self.sends.clear();
                Ok(Budgets { faults: b.faults - 1, ..b })
            }
            Action::Recover { site } => {
                self.path.push(Step::Recover { site });
                self.oracles.check_recovery(runner, site)?;
                runner.recover_now(site);
                Ok(Budgets { recoveries: b.recoveries - 1, ..b })
            }
            Action::DropTail { src, dst } => {
                self.path.push(Step::Drop { src, dst });
                let (seq, _) =
                    channel_tail(runner, Channel::Link(src, dst)).expect("link has tail");
                runner.drop_scheduled(seq);
                Ok(Budgets { drops: b.drops - 1, ..b })
            }
            Action::Suspect { observer, peer } => {
                self.path.push(Step::Suspect { observer, peer });
                runner.suspect_now(observer, peer);
                Ok(Budgets { suspicions: b.suspicions - 1, ..b })
            }
            Action::Unsuspect { observer, peer } => {
                self.path.push(Step::Unsuspect { observer, peer });
                runner.unsuspect_now(observer, peer);
                Ok(b)
            }
        }
    }
}

/// One node of the explicit DFS stack: a state, its remaining depth and
/// budgets, and the (cost-filtered) actions not yet branched on.
struct Frame<'a> {
    runner: Runner<'a>,
    depth_left: u32,
    budgets: Budgets,
    actions: Vec<Action>,
    next: usize,
    /// `path.len()` at this node; truncating to it re-anchors the path
    /// before each sibling branch.
    mark: usize,
}

// ---------------------------------------------------------------------
// The walk
// ---------------------------------------------------------------------

struct Worker<'w, 'a> {
    shared: &'w Shared<'a>,
    stepper: Stepper<'a>,
    stack: Vec<Frame<'a>>,
    plan: usize,
    /// Witnessed-state bitmaps by vote plan, `Some` for the plans this
    /// worker touched. Kept per plan (not merged into the worker's
    /// oracles) so a state-cap-truncated plan's bitmap can be replaced
    /// wholesale by the redo's.
    wit: Vec<Option<Witnessed>>,
    /// Where this worker met [`Shared::stop`]'s target.
    found: Option<Found>,
    /// Runners no frame holds any more — dedup hits, leaves, finished
    /// frames — kept so the next fork is a `clone_from` into storage this
    /// worker already owns instead of an allocation per site, WAL and
    /// heap. What state a spare was left in is irrelevant: `clone_from`
    /// overwrites all of it.
    spare: Vec<Runner<'a>>,
    /// The action lists of finished frames, kept for their allocation.
    spare_actions: Vec<Vec<Action>>,
}

impl<'w, 'a> Worker<'w, 'a> {
    fn new(shared: &'w Shared<'a>) -> Self {
        Self {
            shared,
            stepper: Stepper::new(shared.protocol, shared.analysis),
            stack: Vec::new(),
            plan: 0,
            wit: vec![None; shared.plan_shared.len()],
            found: None,
            spare: Vec::new(),
            spare_actions: Vec::new(),
        }
    }

    /// Expand each plan's root on this thread (observing it and claiming
    /// it in the plan's map), then queue one task per root action. Roots
    /// go through `visit` like every other state, so root handling and
    /// inner-node handling cannot drift apart.
    fn seed(&mut self, plans: &[Vec<bool>]) {
        let shared = self.shared;
        let mut queue = shared.queue.lock().expect("queue poisoned");
        for (idx, votes) in plans.iter().enumerate() {
            self.plan = idx;
            let config = plan_config(shared.protocol.n_sites(), votes, shared.opts.rule);
            let root = Runner::new(shared.protocol, shared.analysis, config);
            self.visit(root, shared.opts.depth, Budgets::of(&shared.opts));
            match self.stack.pop() {
                Some(f) => {
                    let k = f.actions.len();
                    shared.plan_shared[idx].pending.store(k, Ordering::Release);
                    shared.outstanding.fetch_add(k, Ordering::AcqRel);
                    for action in f.actions {
                        queue.push_back(Task {
                            plan: idx,
                            runner: f.runner.clone(),
                            path: Vec::new(),
                            depth_left: f.depth_left,
                            budgets: f.budgets,
                            action,
                        });
                    }
                }
                // Root is terminal (or violating): the plan is already
                // fully explored.
                None => {
                    shared.plan_shared[idx].fold(&shared.hot_bytes);
                    shared.plans_done.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if shared.outstanding.load(Ordering::Acquire) == 0 {
            shared.done.store(true, Ordering::Release);
        }
    }

    /// Take tasks until the exploration is complete. Once the target is
    /// found, or the walk is abandoned at a cut, the remaining tasks are
    /// finished unrun, so the plan still folds and the queue still drains.
    fn run(&mut self) {
        while let Some(task) = self.next_task() {
            let plan = task.plan;
            if self.found.is_none() && !self.shared.cut.load(Ordering::Relaxed) {
                self.run_task(task);
            }
            self.shared.finish_task(plan);
        }
    }

    fn next_task(&self) -> Option<Task<'a>> {
        let mut q = self.shared.queue.lock().expect("queue poisoned");
        loop {
            if let Some(t) = q.pop_front() {
                return Some(t);
            }
            if self.shared.done.load(Ordering::Acquire) {
                return None;
            }
            self.shared.idle.fetch_add(1, Ordering::Release);
            q = self.shared.available.wait(q).expect("queue poisoned");
            self.shared.idle.fetch_sub(1, Ordering::Release);
        }
    }

    fn run_task(&mut self, task: Task<'a>) {
        self.plan = task.plan;
        self.stepper.path = task.path;
        self.branch(task.runner, task.action, task.depth_left, task.budgets);
        self.drain_stack();
        self.stepper.path.clear();
    }

    /// Apply `action` to a fork of its source state and visit the
    /// successor.
    fn branch(&mut self, mut runner: Runner<'a>, action: Action, depth_left: u32, b: Budgets) {
        match self.stepper.apply(&mut runner, action, b) {
            Err(detail) => {
                self.flag_violation("recovery", detail);
                self.retire(runner);
            }
            Ok(b2) => self.visit(runner, depth_left - action.cost(), b2),
        }
    }

    /// Keep a runner no frame holds for a later fork to overwrite. The
    /// walk itself hands back exactly what it took, but every task arrives
    /// with a runner of its own, so the list is capped at what the deepest
    /// stack the depth bound allows could ever fork from it.
    fn retire(&mut self, runner: Runner<'a>) {
        if self.spare.len() <= self.shared.opts.depth as usize {
            self.spare.push(runner);
        }
    }

    /// Flag the plan; a violation search ends here (the path stops at the
    /// violating state or rejected step).
    fn flag_violation(&mut self, oracle: &'static str, detail: String) {
        self.shared.plan_shared[self.plan]
            .violated
            .fetch_or(violation_bit(oracle), Ordering::AcqRel);
        if self.shared.stop == Some(Target::Violation) {
            self.stop_at(oracle, detail);
        }
    }

    /// Record the target and abandon the rest of the walk.
    fn stop_at(&mut self, oracle: &'static str, detail: String) {
        self.found = Some((oracle, detail, self.stepper.path.clone()));
        self.stack.clear();
    }

    /// Exhaust the explicit DFS stack, donating the shallowest untried
    /// branch whenever another worker is starved, unless some worker
    /// abandons the walk at a cut.
    fn drain_stack(&mut self) {
        loop {
            if self.shared.cut.load(Ordering::Relaxed) {
                self.stack.clear();
            }
            self.maybe_donate();
            let Some(f) = self.stack.last_mut() else { break };
            // Re-anchor the path before each sibling branch (and on the
            // way out).
            self.stepper.path.truncate(f.mark);
            let Some(&action) = f.actions.get(f.next) else {
                // Every branch tried (the last one perhaps donated).
                let f = self.stack.pop().expect("frame just seen");
                self.spare_actions.push(f.actions);
                self.retire(f.runner);
                continue;
            };
            f.next += 1;
            let (depth_left, budgets) = (f.depth_left, f.budgets);
            // The last branch of a frame takes the frame's runner itself;
            // every earlier one forks it, into a spare runner when there
            // is one.
            let runner = if f.next == f.actions.len() {
                let f = self.stack.pop().expect("frame just seen");
                self.spare_actions.push(f.actions);
                f.runner
            } else if let Some(mut fork) = self.spare.pop() {
                fork.clone_from(&f.runner);
                fork
            } else {
                f.runner.clone()
            };
            self.branch(runner, action, depth_left, budgets);
        }
    }

    /// Hand the shallowest untried branch of this stack to an idle worker
    /// as a fresh task. Donation only reorders the traversal, which no
    /// reported quantity depends on.
    fn maybe_donate(&mut self) {
        if self.shared.idle.load(Ordering::Relaxed) == 0 {
            return;
        }
        let top = self.stack.len().wrapping_sub(1);
        for (i, f) in self.stack.iter_mut().enumerate() {
            if f.next >= f.actions.len() {
                continue;
            }
            if i == top && f.actions.len() - f.next <= 1 {
                // Keep the last branch of the top frame for ourselves —
                // donating it would just move this worker to the queue.
                return;
            }
            let action = f.actions[f.next];
            f.next += 1;
            let task = Task {
                plan: self.plan,
                runner: f.runner.clone(),
                path: self.stepper.path[..f.mark].to_vec(),
                depth_left: f.depth_left,
                budgets: f.budgets,
                action,
            };
            let ps = &self.shared.plan_shared[self.plan];
            ps.pending.fetch_add(1, Ordering::AcqRel);
            self.shared.outstanding.fetch_add(1, Ordering::AcqRel);
            self.shared.queue.lock().expect("queue poisoned").push_back(task);
            self.shared.available.notify_one();
            return;
        }
    }

    /// Observe one reached state, claim it in the plan's fingerprint
    /// store (hot tier, spilled runs consulted on a hot miss), and push
    /// its expansion frame if it survived dedup and the caps. A runner no
    /// frame keeps — a violation, a stop target, a dedup hit, the cap, a
    /// leaf: two successors in three — is retired for the next fork.
    fn visit(&mut self, runner: Runner<'a>, depth_left: u32, b: Budgets) {
        if let Some(unkept) = self.expand(runner, depth_left, b) {
            self.retire(unkept);
        }
    }

    /// [`Worker::visit`] proper; hands the runner back unless a frame took
    /// it.
    fn expand(&mut self, runner: Runner<'a>, depth_left: u32, b: Budgets) -> Option<Runner<'a>> {
        let shared = self.shared;
        let ps = &shared.plan_shared[self.plan];
        let wit =
            self.wit[self.plan].get_or_insert_with(|| Witnessed::for_protocol(shared.protocol));
        if let Err((oracle, detail)) = self.stepper.oracles.observe_state(wit, &runner) {
            // Violating states are never expanded (and never counted).
            self.flag_violation(oracle, detail);
            return Some(runner);
        }
        // Judged before dedup and the cap, as the oracles are: a state the
        // cap turns away still counts.
        if runner.net_quiescent() && Oracles::any_blocked(&runner) {
            ps.blocking.store(true, Ordering::Release);
            if shared.stop == Some(Target::Blocking) {
                self.stop_at("", String::new());
                return Some(runner);
            }
        }

        let budget = self.shared.opts.mem_budget;
        let digest = runner.digest();
        let fp = state_key(digest, b);
        let shard = &ps.shards[(fp as usize) & self.shared.shard_mask];
        // A revisit prunes unless the depth-left rule asks for a deeper
        // expansion.
        let prunes = |e: &Entry| !shared.exact || e.best >= depth_left;
        {
            let mut map = shard.lock().expect("shard poisoned");
            let hot = match map.get(&fp) {
                Some(e) if prunes(e) => return Some(runner),
                Some(_) => true,
                None => false,
            };
            // Hot miss with a budget: the entry may have been spilled.
            // One shard lock + the store read lock — see the lock-order
            // note on `PlanShared::store`.
            let mut carried: Option<Entry> = None;
            if !hot && budget > 0 {
                let spilled = ps
                    .store
                    .read()
                    .expect("store poisoned")
                    .get(fp)
                    .unwrap_or_else(|e| panic!("external-memory probe failed: {e}"));
                if let Some(payload) = spilled {
                    let e = decode_entry(&payload);
                    if prunes(&e) {
                        return Some(runner);
                    }
                    carried = Some(e);
                }
            }
            if ps.inserted.load(Ordering::Relaxed) >= self.shared.opts.max_states {
                ps.cap_hit.store(true, Ordering::Release);
                return Some(runner);
            }
            if hot {
                map.get_mut(&fp).expect("hot entry just probed").best = depth_left;
            } else {
                match carried {
                    // Deepening a spilled state: bring its record back
                    // hot (stats carried over; the fold's deepest-wins
                    // combine resolves the duplicate) without recounting
                    // it as an insert.
                    Some(mut e) => {
                        e.best = depth_left;
                        map.insert(fp, e);
                    }
                    None => {
                        map.insert(
                            fp,
                            Entry {
                                best: depth_left,
                                stats_depth: 0,
                                edges: 0,
                                fused: false,
                                cut: false,
                            },
                        );
                        ps.inserted.fetch_add(1, Ordering::Relaxed);
                        self.shared.distinct.fetch_add(1, Ordering::Relaxed);
                    }
                }
                if budget > 0 {
                    self.shared.hot_bytes.fetch_add(HOT_ENTRY_COST, Ordering::Relaxed);
                }
            }
        }

        let mut actions = self.spare_actions.pop().unwrap_or_default();
        self.stepper.enumerate(&runner, b, &mut actions);
        if let Some(seed) = self.shared.opts.seed {
            if actions.len() > 1 {
                let mut h = Fp128::new();
                h.write_u64(seed);
                h.write_u128(digest);
                h.write_u32(depth_left);
                let rot = h.finish() as usize;
                let len = actions.len();
                actions.rotate_left(rot % len);
            }
        }
        // Edge stats at *this* depth; published under the stats_depth
        // guard so the deepest expansion's numbers win whatever order the
        // racing expansions finish in.
        let mut edges = 0u32;
        let mut fused = false;
        let mut cut = false;
        actions.retain(|a| {
            if a.cost() <= depth_left {
                edges += 1;
                fused |= matches!(a, Action::Fuse(_));
                true
            } else {
                cut = true;
                false
            }
        });
        if cut && !shared.exact {
            // Pruning every revisit reaches what the depth-left rule
            // reaches only when nothing is cut: abandon the walk.
            shared.cut.store(true, Ordering::Relaxed);
            self.stack.clear();
            self.spare_actions.push(actions);
            return Some(runner);
        }
        {
            let mut map = shard.lock().expect("shard poisoned");
            match map.get_mut(&fp) {
                Some(e) => {
                    if depth_left >= e.stats_depth {
                        e.stats_depth = depth_left;
                        e.edges = edges;
                        e.fused = fused;
                        e.cut = cut;
                    }
                }
                // The claimed entry was spilled between the two critical
                // sections: publish the stats as a fresh hot record — the
                // fold's deepest-wins combine merges it with the spilled
                // copy, exactly like the in-RAM `>=` guard would have.
                None => {
                    map.insert(
                        fp,
                        Entry { best: depth_left, stats_depth: depth_left, edges, fused, cut },
                    );
                    if budget > 0 {
                        self.shared.hot_bytes.fetch_add(HOT_ENTRY_COST, Ordering::Relaxed);
                    }
                }
            }
        }
        if budget > 0 && self.shared.hot_bytes.load(Ordering::Relaxed) > budget {
            self.spill_plan();
        }
        self.progress_tick();
        if actions.is_empty() {
            self.spare_actions.push(actions);
            return Some(runner);
        }
        self.stack.push(Frame {
            mark: self.stepper.path.len(),
            runner,
            depth_left,
            budgets: b,
            actions,
            next: 0,
        });
        None
    }

    /// Drain the current plan's hot shards into one sorted run. All shard
    /// locks are taken in index order before the store write lock (see
    /// the lock-order note on `PlanShared::store`); racing spillers
    /// serialize here and the loser finds the shards already empty.
    fn spill_plan(&self) {
        let ps = &self.shared.plan_shared[self.plan];
        let mut guards: Vec<_> =
            ps.shards.iter().map(|s| s.lock().expect("shard poisoned")).collect();
        let mut entries: Vec<(u128, [u8; ENTRY_BYTES])> = Vec::new();
        for g in &mut guards {
            entries.extend(g.drain().map(|(fp, e)| (fp, encode_entry(&e))));
        }
        if entries.is_empty() {
            return;
        }
        let freed = entries.len() * HOT_ENTRY_COST;
        ps.store
            .write()
            .expect("store poisoned")
            .spill(entries, combine_entries)
            .unwrap_or_else(|e| panic!("external-memory spill failed: {e}"));
        self.shared.hot_bytes.fetch_sub(freed, Ordering::Relaxed);
        self.shared.spill_runs.fetch_add(1, Ordering::Relaxed);
    }

    fn progress_tick(&self) {
        let e = self.shared.expansions.fetch_add(1, Ordering::Relaxed) + 1;
        if e.is_multiple_of(1 << 16) {
            if let Some(hook) = self.shared.opts.progress {
                hook(&CheckProgress {
                    plans_done: self.shared.plans_done.load(Ordering::Relaxed),
                    plans_total: self.shared.plan_shared.len(),
                    distinct_states: self.shared.distinct.load(Ordering::Relaxed),
                    expansions: e,
                    spill_runs: self.shared.spill_runs.load(Ordering::Relaxed),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------

/// Run the walk over `plans` plans with `run`, pruning every revisit; if
/// the depth bound cut it, run it again under the depth-left revisit
/// rule. With `knife_edge`, also if a plan filled the map to exactly
/// `max_states` with no state turned away: the rule's deeper revisits of
/// the full map trip the cap there, so only the exact run reports what the
/// rule reports. Hands back the run that counts.
fn walk<'a, T>(
    protocol: &'a Protocol,
    analysis: &'a Analysis,
    opts: &CheckOptions,
    plans: usize,
    stop: Option<Target>,
    knife_edge: bool,
    run: impl Fn(&Shared<'a>) -> T,
) -> (Shared<'a>, T) {
    let pruning = Shared::new(protocol, analysis, opts.clone(), plans, stop, false);
    let out = run(&pruning);
    let filled = |ps: &PlanShared| {
        !ps.cap_hit.load(Ordering::Acquire)
            && ps.inserted.load(Ordering::Relaxed) >= opts.max_states
    };
    let filled = knife_edge && pruning.plan_shared.iter().any(filled);
    if !pruning.cut.load(Ordering::Relaxed) && !filled {
        return (pruning, out);
    }
    drop((pruning, out));
    let exact = Shared::new(protocol, analysis, opts.clone(), plans, stop, true);
    let out = run(&exact);
    (exact, out)
}

/// The parallel sweep proper: the roots are expanded on the calling
/// thread, then `threads` workers drain the queue. Hands back every
/// worker's witnessed-state bitmaps and the seeder's oracles.
fn sweep<'a>(
    shared: &Shared<'a>,
    plans: &[Vec<bool>],
) -> (Vec<Vec<Option<Witnessed>>>, Oracles<'a>) {
    let mut seeder = Worker::new(shared);
    seeder.seed(plans);
    let mut wits: Vec<Vec<Option<Witnessed>>> = std::thread::scope(|s| {
        let work = || {
            let mut worker = Worker::new(shared);
            worker.run();
            worker.wit
        };
        let threads = resolved_threads(shared.opts.threads);
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(work)).collect();
        handles.into_iter().map(|h| h.join().expect("explorer worker panicked")).collect()
    });
    wits.push(seeder.wit);
    (wits, seeder.stepper.oracles)
}

/// Run the walk alone: one worker on the calling thread, one plan, no
/// seed rotation — so the result depends only on (protocol, options),
/// never on thread count or seed. With a `stop` the walk ends at its
/// first target and hands back where; without one it is the canonical
/// redo, whose stats count even at the knife edge.
fn alone<'a>(
    protocol: &'a Protocol,
    analysis: &'a Analysis,
    opts: &CheckOptions,
    votes: &Vec<bool>,
    stop: Option<Target>,
) -> (PlanResult, Option<Found>) {
    let opts = CheckOptions { threads: 1, seed: None, progress: None, ..opts.clone() };
    let redo = stop.is_none();
    let (shared, (wit, found)) = walk(protocol, analysis, &opts, 1, stop, redo, |shared| {
        let mut worker = Worker::new(shared);
        worker.seed(std::slice::from_ref(votes));
        worker.run();
        (worker.wit, worker.found)
    });
    (shared.results(&[wit]).remove(0), found)
}

/// Every vote plan `opts` asks for: the one `opts.vote_plan` fixes, or all
/// of them, all-yes first (the plan where commit — and hence
/// commit-blocking — lives). Quorum-based protocols enumerate over
/// participants only: acceptor transitions are untagged (acceptors hold
/// no vote), so acceptor plan bits would only replicate each execution
/// 2^(2f+1) times.
fn vote_plans(protocol: &Protocol, opts: &CheckOptions) -> Vec<Vec<bool>> {
    if let Some(p) = &opts.vote_plan {
        return vec![p.clone()];
    }
    let (n, np) = (protocol.n_sites(), protocol.n_participants());
    (0..1u32 << np).map(|bits| (0..n).map(|i| i >= np || bits & (1 << i) == 0).collect()).collect()
}

/// Explore every schedule of `protocol` within `opts`' budgets, for every
/// vote plan (or the one plan `opts.vote_plan` fixes), fanning the
/// subtrees out over `opts.threads` workers. See the module docs for the
/// determinism contract.
///
/// # Panics
/// Panics if `opts.threads` exceeds [`MAX_THREADS`], which
/// [`run_check`](crate::run_check) refuses with a typed error first.
pub fn explore<'a>(
    protocol: &'a Protocol,
    analysis: &'a Analysis,
    opts: &CheckOptions,
) -> Exploration<'a> {
    assert!(opts.threads <= MAX_THREADS, "at most {MAX_THREADS} worker threads");
    let plans = vote_plans(protocol, opts);

    // Phase 1: the parallel sweep. A plan at the knife edge is capped, and
    // phase 1b replaces its stats.
    let (shared, (wits, mut oracles)) =
        walk(protocol, analysis, opts, plans.len(), None, false, |shared| sweep(shared, &plans));
    let mut results = shared.results(&wits);

    // Phase 1b: a capped plan's scheduling-dependent results are replaced
    // wholesale by the walk run alone (the disk activity of both counts).
    for (result, votes) in results.iter_mut().zip(&plans) {
        if result.capped {
            let sweep = std::mem::take(&mut result.stats.spill);
            *result = alone(protocol, analysis, opts, votes, None).0;
            add_spill(&mut result.stats.spill, sweep);
        }
    }

    let mut stats = ExploreStats { plans: plans.len(), ..ExploreStats::default() };
    let mut spill = SpillStats::default();
    for result in &results {
        oracles.absorb(&result.witnessed);
        stats.distinct_states += result.stats.distinct;
        stats.actions += result.stats.edges;
        stats.fused += result.stats.fused;
        stats.truncated |= result.stats.cut;
        add_spill(&mut spill, result.stats.spill);
    }

    // Phase 2: canonical witnesses for the least flagged plans.
    let violation = results.iter().position(|r| r.violated != 0).map(|idx| {
        let votes = plans[idx].clone();
        match alone(protocol, analysis, opts, &votes, Some(Target::Violation)).1 {
            Some((oracle, detail, path)) => (oracle, detail, votes, path),
            // Defensive: a flagged plan always yields its witness (see
            // the module docs).
            None => {
                let bits = results[idx].violated;
                let oracle = if bits & V_CONSISTENCY != 0 {
                    "consistency"
                } else if bits & V_PREDICTION != 0 {
                    "prediction"
                } else {
                    "recovery"
                };
                let detail = "violation observed during a state-cap-truncated \
                              exploration; raise --max-states for a replayable witness"
                    .to_string();
                (oracle, detail, votes, Vec::new())
            }
        }
    });
    let blocking_witness = results.iter().position(|r| r.blocking).and_then(|idx| {
        let votes = plans[idx].clone();
        let found = alone(protocol, analysis, opts, &votes, Some(Target::Blocking)).1;
        found.map(|(_, _, path)| (votes, path))
    });

    Exploration { oracles, stats, blocking_witness, violation, spill }
}

fn add_spill(total: &mut SpillStats, s: SpillStats) {
    total.runs_written += s.runs_written;
    total.bytes_written += s.bytes_written;
    total.merge_passes += s.merge_passes;
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use nbc_core::kpc::k_phase_central;
    use nbc_core::protocols::{
        central_2pc, central_3pc, decentralized_2pc, decentralized_3pc, one_pc,
    };
    use nbc_core::ReachOptions;
    use nbc_paxos::paxos_commit;

    use super::*;

    fn analyse(protocol: &Protocol) -> Analysis {
        Analysis::build_with(protocol, ReachOptions::default().with_streaming(true))
            .expect("catalog protocols analyse")
    }

    /// The parallel sweep as `explore` runs it, with the `Shared` it ended
    /// with and what it established about each plan.
    fn swept<'a>(
        protocol: &'a Protocol,
        analysis: &'a Analysis,
        opts: &CheckOptions,
    ) -> (Shared<'a>, Vec<PlanResult>) {
        let plans = vote_plans(protocol, opts);
        let (shared, (wits, _)) =
            walk(protocol, analysis, opts, plans.len(), None, false, |s| sweep(s, &plans));
        let results = shared.results(&wits);
        (shared, results)
    }

    #[test]
    fn an_uncut_walk_expands_every_state_once() {
        let catalog = [
            central_2pc(3),
            central_3pc(3),
            decentralized_2pc(3),
            decentralized_3pc(3),
            one_pc(3),
            k_phase_central(3, 4).expect("kpc builds"),
            paxos_commit(2, 1),
        ];
        for protocol in &catalog {
            let analysis = analyse(protocol);
            let (shared, results) = swept(protocol, &analysis, &CheckOptions::default());
            assert!(!shared.exact, "{}: the default depth cut the walk", protocol.name);
            let distinct: usize = results.iter().map(|r| r.stats.distinct).sum();
            let expansions = shared.expansions.load(Ordering::Relaxed);
            assert_eq!(expansions, distinct as u64, "{}", protocol.name);
        }
        // The depth-left rule re-expands: 5 985 expansions for 4 402
        // states on central 3PC.
        let protocol = central_3pc(3);
        let analysis = analyse(&protocol);
        let opts = CheckOptions::default();
        let plans = vote_plans(&protocol, &opts);
        let exact = Shared::new(&protocol, &analysis, opts, plans.len(), None, true);
        sweep(&exact, &plans);
        assert_eq!(exact.expansions.load(Ordering::Relaxed), 5_985);
    }

    #[test]
    fn a_cut_walk_is_abandoned_and_rerun_exact() {
        let rows = [
            (central_2pc(3), 9, (4_038, 8_670, 1_009)),
            (central_3pc(3), 10, (4_207, 9_162, 1_266)),
            (decentralized_3pc(3), 14, (101_291, 367_537, 7_458)),
        ];
        for (protocol, depth, (states, actions, fused)) in rows {
            let analysis = analyse(&protocol);
            let opts = CheckOptions { depth, ..CheckOptions::default() };
            let plans = vote_plans(&protocol, &opts);
            // The pruning walk stops at its first cut, past the roots and
            // long before it has seen every state.
            let pruning = Shared::new(&protocol, &analysis, opts.clone(), plans.len(), None, false);
            sweep(&pruning, &plans);
            assert!(pruning.cut.load(Ordering::Relaxed), "depth {depth} must cut");
            let expanded = pruning.expansions.load(Ordering::Relaxed);
            assert!(expanded > 0 && expanded < states as u64 / 4, "depth {depth}: {expanded}");
            // The walk that counts is the exact re-run, and it reproduces
            // the pinned rows.
            let (shared, results) = swept(&protocol, &analysis, &opts);
            assert!(shared.exact);
            let got = results.iter().fold((0, 0, 0, false), |(d, a, f, c), r| {
                (d + r.stats.distinct, a + r.stats.edges, f + r.stats.fused, c | r.stats.cut)
            });
            assert_eq!(got, (states, actions, fused, true), "{} at depth {depth}", protocol.name);
        }
    }

    /// Call `at` on every state a walk under `opts` expands in the plan
    /// `votes`, with whether the walk fuses it: a depth-first search over
    /// the stepper that prunes every revisit.
    fn search<'a>(
        protocol: &'a Protocol,
        analysis: &'a Analysis,
        opts: &CheckOptions,
        votes: &[bool],
        mut at: impl FnMut(&Runner<'a>, bool),
    ) {
        let mut stepper = Stepper::new(protocol, analysis);
        let mut seen = HashSet::new();
        let config = plan_config(protocol.n_sites(), votes, opts.rule);
        let root = Runner::new(protocol, analysis, config);
        let mut todo = vec![(root, opts.depth, Budgets::of(opts))];
        while let Some((runner, depth_left, b)) = todo.pop() {
            if !seen.insert(state_key(runner.digest(), b)) {
                continue;
            }
            let mut actions = Vec::new();
            stepper.enumerate(&runner, b, &mut actions);
            at(&runner, matches!(actions[..], [Action::Fuse(_)]));
            for action in actions.into_iter().filter(|a| a.cost() <= depth_left) {
                let mut next = runner.clone();
                stepper.path.clear();
                if let Ok(b2) = stepper.apply(&mut next, action, b) {
                    todo.push((next, depth_left - action.cost(), b2));
                }
            }
        }
    }

    /// `Action::Fuse` fires every pending head in channel order because
    /// heads addressed to distinct sites commute: fired in either order,
    /// two of them leave the same behavioral state.
    #[test]
    fn heads_to_distinct_sites_commute() {
        let budgets = |f: fn(&mut CheckOptions)| {
            let mut o = CheckOptions::default();
            f(&mut o);
            o
        };
        let cases = [
            (central_2pc(3), budgets(|_| {})),
            (central_3pc(3), budgets(|_| {})),
            (paxos_commit(2, 1), budgets(|o| o.vote_plan = Some(vec![true; 5]))),
            (central_3pc(3), budgets(|o| o.drops = 1)),
            (central_3pc(3), budgets(|o| o.recoveries = 1)),
            (central_3pc(3), budgets(|o| o.suspicions = 1)),
        ];
        for (protocol, opts) in &cases {
            let mut pairs = [0usize; 2];
            let analysis = analyse(protocol);
            for votes in vote_plans(protocol, opts) {
                search(protocol, &analysis, opts, &votes, |runner, fused| {
                    let mut channels: Vec<Channel> =
                        runner.iter_pending().map(|(_, _, ev)| channel_of(ev)).collect();
                    channels.sort_unstable();
                    channels.dedup();
                    let heads: Vec<(u64, usize)> = channels
                        .iter()
                        .map(|&ch| channel_head(runner, ch).expect("channel has a head"))
                        .map(|(seq, ev)| (seq, dest_of(ev)))
                        .collect();
                    let fire = |first: u64, second: u64| {
                        let mut r = runner.clone();
                        assert!(r.fire_scheduled(first) && r.fire_scheduled(second));
                        r.digest()
                    };
                    for (i, &(a, site_a)) in heads.iter().enumerate() {
                        for &(b, site_b) in heads[i + 1..].iter().filter(|h| h.1 != site_a) {
                            assert_eq!(
                                fire(a, b),
                                fire(b, a),
                                "{}: heads to site{site_a} and site{site_b} do not commute",
                                protocol.name
                            );
                            pairs[usize::from(fused)] += 1;
                        }
                    }
                });
            }
            // Not vacuous: pairs at fused and at unfused states alike.
            assert!(pairs.iter().all(|&p| p > 0), "{}: {pairs:?}", protocol.name);
        }
    }
}
