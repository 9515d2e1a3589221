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
//! A revisit prunes unless it wakes a slept delivery (below), so every
//! state is expanded in full once. That is exact while the depth bound
//! cuts nothing: an uncut walk's visited set is closed under successors —
//! each enabled action of a visited state is applied from it or, slept,
//! reaches a state the walk visits anyway — so it is the whole reachable
//! set, and an entry's edge count is a function of its state. The first
//! expansion that leaves an action out for depth abandons the walk
//! instead, and `walk` runs it again **exact**, under the depth-left
//! revisit rule: the map stores the best remaining depth a state was
//! reached with, a revisit with less is pruned (unless it wakes a slept
//! delivery) and one with more is re-expanded, so the depth bound never
//! hides a state a shallower path could reach. Under the default depth
//! nothing is cut, and the rule's re-expansions (6 346 full expansions for
//! central 3PC n=3's 4 676 states) would only revisit known states. The
//! abandoned walk stops at its first cut, long before it has seen a
//! quarter of the states (`a_cut_walk_is_abandoned_and_rerun_exact`).
//!
//! Two further sound reductions: events addressed to a permanently-down
//! site (no recovery budget left) are pure no-ops and are drained eagerly
//! rather than branched over, and the behavioral digest canonicalizes
//! arrival-order collections whose consumers are order-independent.
//!
//! ## Sleep sets
//!
//! Two deliveries into different sites commute. A handler mutates only the
//! site it delivers into and appends its sends to channel tails, so it
//! neither changes nor disables another channel's head; fired in either
//! order, with the dead-site drain after each, the two leave one state and
//! spend no budget (`heads_to_distinct_sites_commute` checks every such
//! pair at every state of nine walks). Every other action — crash,
//! recover, drop, suspect, unsuspect — is taken to depend on every action.
//! That is the independence relation of Godefroid's sleep sets (LNCS 1032,
//! 1996), which the walk keeps over `Fire` actions:
//!
//! * **Branching.** A frame's actions start with the deliveries it
//!   *sleeps on*, which it does not apply. The branch on `Fire(c)` into
//!   site d sleeps on every delivery before it in the frame, slept on or
//!   branched on, except those into d. A branch on any other action sleeps
//!   on nothing. Seeded and donated tasks carry their branch's set.
//! * **Revisits.** A dedup entry stores the set its state was expanded
//!   under. A revisit under Z prunes iff the stored set ⊆ Z. Otherwise it
//!   applies only the *woken* deliveries, stored \ Z (still under the
//!   `cost ≤ depth_left` filter, which cuts a woken delivery like any
//!   other), sleeps on stored ∩ Z, and stores stored ∩ Z. Under the
//!   depth-left rule a deeper revisit re-expands in full and stores its own
//!   set; a shallower one applies the woken deliveries and leaves the
//!   stored set as it was, since they were applied with less depth than
//!   the entry claims.
//! * **Stats.** `actions` counts a state's *enabled* actions at its deepest
//!   expansion, slept or left out of a persistent set or not: a function
//!   of the state.
//!
//! Why no state is lost: a delivery t sleeps at s only because a frame on
//! the path to s applied t in an earlier branch, and every step from that
//! frame to s is a delivery independent of t. Commuting t forward along
//! those steps, one at a time, shows s·t is reached from that earlier
//! branch by the same steps, with the same remaining depth, since every
//! delivery costs one. The stored set keeps this true across revisits: an
//! entry never claims a delivery applied that no expansion at its depth
//! applied. So sleep sets prune transitions, never states: outside the
//! delivery-only region (below) the walk reaches exactly the unreduced
//! walk's states.
//!
//! The stored set is a `Sleep` mask over the state's own pending
//! channels in canonical order. Every slept delivery is pending at its
//! state, so 32 bits name the sleepers of any state with at most 32
//! channels in flight, for any number of sites; a delivery past the last
//! bit is applied, never slept. An entry stays 16 bytes, its hot slot 32.
//!
//! ## Persistent sets in the delivery-only region
//!
//! Most of the state space comes after the last fault: at states with no
//! fault, recovery, drop or suspicion budget left and no standing
//! suspicion, only deliveries are enabled, and the sleep sets still visit
//! every interleaving of them. That is the **delivery-only region**.
//! Budgets only fall and only an `Unsuspect` clears a suspicion, so the
//! region is absorbing, and a walk enters it only by a budget-spending or
//! unsuspect branch, which sleeps on nothing. Outside it a persistent set
//! could not help: a crash depends on every delivery into or from its
//! site and schedules a notice into every site, so a persistent set that
//! holds one closes over every delivery.
//!
//! In the region the walk expands a persistent set (Godefroid, LNCS 1032,
//! ch. 4): the deliveries T_y into one site y, when no other site can,
//! while y takes no step, put a message on a channel into y that is empty
//! now. Deliveries into other sites commute with T_y, and a tail append
//! does not change a head, so every delivery outside T_y is independent of
//! T_y in every state reachable without it. The engine's
//! [`SendBound`] bounds where each site may still send (one row per send
//! site, `nbc_engine::explore`'s module docs); y is the qualifying site
//! with the fewest enabled channels, the lowest id on a tie. The choice is
//! made only where two or more sites have a delivery enabled, since
//! otherwise the set is everything.
//!
//! * **No sleep sets.** Every T_y delivers into one site, so a sleep set
//!   has nothing to prune there. A region state takes and stores an empty
//!   one, so the states the walk visits are a function of each state's
//!   own choice, and reports stay byte-identical at any thread count and
//!   seed.
//! * **No proviso.** The region has no cycle (`the_region_is_acyclic`):
//!   every execution in it ends quiescent, so no enabled delivery can be
//!   ignored forever.
//! * **What the oracles keep.** A persistent-set search of an acyclic
//!   graph reaches every terminal state, and for every execution an
//!   equivalent one. Here the terminal states are the quiescent ones, so
//!   the blocking oracle sees every quiescent state it saw before;
//!   outcomes are durable (no site crashes in the region), so a mixed
//!   outcome reaches a terminal state and the consistency oracle sees it;
//!   and equivalent executions deliver into each site in the same order,
//!   so each site visits the same local states and the prediction oracle
//!   and the witnessed bitmaps see the same slots.
//! * **Depth.** A walk abandoned at a depth cut runs again exact without
//!   persistent sets: the walk every cut row was counted with.
//!
//! `persistent_sets_are_persistent` checks every choice the walk makes on
//! the explicit unreduced graph of the `heads_to_distinct_sites_commute`
//! walks, central 3PC at n=4 and Paxos Commit; the `*_unreduced` tests
//! hold the walk to a test-only walk with neither sleep nor persistent
//! sets on the catalog, every pinned budget row and Paxos Commit: equal
//! verdicts, flags, witnessed bitmaps and quiescent and blocked state sets.
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
//! * `distinct_states` counts that map's entries; `actions` and the
//!   depth-side of `truncated` are recomputed *per entry at its deepest
//!   expansion* rather than accumulated per traversal event (an exact
//!   walk's re-expansions would otherwise double-count, differently per
//!   run);
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
//! the frame's runner by move instead of forking it. The seeded root tasks
//! and donated ones fork through the free list too. Action lists and the
//! stepper's scratch are recycled the same way; in steady state the walk
//! allocates for dedup-map growth and a donated task's path only.
//!
//! Most of a fork is not copied at all. Every action changes one site,
//! besides the network, and the engine
//! stamps each site slot a fork is taken from (`SiteCell` in
//! `nbc-engine`). A spare that was the previous sibling's fork still holds
//! the frame's other sites under the frame's stamps, so the next sibling
//! copies the one site the previous one dirtied. Runners are boxed on the
//! stack, in tasks and on the free list, so `branch`, `visit`, `expand`
//! and `retire` hand one over as a pointer.
//!
//! ## One walk, run three ways
//!
//! There is one walk — the `Worker`'s explicit-stack loop, its `visit`
//! (judge the oracles, judge blocking, then prune or wake → cap → claim,
//! with the edge stats published at the deepest expansion), the per-plan
//! store and its fold. It runs:
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
//! Each of the three first re-expands no revisit and, abandoned at a cut,
//! runs again exact at the same thread count. Runs 2 and 3 depend on the
//! order of first visits, not only on the visited set, and that order is
//! the exact run's too as long as nothing was cut before. Every action
//! costs at least one step of depth, so a path back to a state on the DFS
//! stack arrives with strictly less depth left, and the exact rule does
//! not re-expand it. An exact re-expansion therefore revisits a state
//! whose subtree the DFS has already closed, and finds nothing new in it;
//! nor does a woken delivery, which an earlier, closed branch applied
//! first (see "Sleep sets"). A target found
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
use nbc_engine::{channel_of, Channel, MaySend, RunConfig, Runner, SendBound, TerminationRule};
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

    fn spent(&self) -> bool {
        *self == Self { faults: 0, recoveries: 0, drops: 0, suspicions: 0 }
    }
}

/// Is the state in the *delivery-only region*: no fault, recovery, drop or
/// suspicion budget left and no standing suspicion to clear, so every
/// enabled action is a delivery? Budgets only fall and only an `Unsuspect`
/// clears a suspicion, so no action leads out of the region. A walk with
/// no suspicion budget never has a suspicion to clear: `suspicious` false
/// spares the look.
fn delivery_only(runner: &Runner<'_>, b: Budgets, suspicious: bool) -> bool {
    let sites = runner.sites();
    let standing =
        || sites.iter().any(|s| s.is_up() && s.suspects.iter().any(|&p| sites[p].is_up()));
    b.spent() && !(suspicious && standing())
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
    /// Edges of the exploration graph: the scheduler actions enabled at
    /// each distinct state at its deepest expansion, whether the walk
    /// applied them, slept through them or left them out of a persistent
    /// set (see the module docs) — a function of the state. The unreduced
    /// walk visits more states and counts more.
    pub actions: u64,
    /// Always 0: distinct states whose commuting macro-step was taken, when
    /// the walk had one. Sleep sets replaced it; the field stays for the
    /// callers that read it.
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

/// The site a delivery on `ch` delivers into — the only site its handler
/// mutates. Two deliveries are independent exactly when they deliver into
/// different sites.
fn into_site(ch: Channel) -> usize {
    match ch {
        Channel::Link(_, dst) => dst,
        Channel::Detector(observer) => observer,
    }
}

/// A stored sleep set: bit `i` stands for the `i`-th channel with
/// something in flight at the state, in canonical order. A state's slept
/// deliveries are all pending at it (only a delivery into its site could
/// disable one, and that delivery wakes it), so the state's own channels
/// name them, for any number of sites. A delivery past the last bit cannot
/// be named: it is explored, never slept.
type Sleep = u32;

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
/// guards against a shallower racing expansion publishing last), and the
/// deliveries no expansion at depth `best` has applied. Sixteen bytes, so a
/// hot `(u128, Entry)` slot stays at 32.
#[derive(Clone, Copy)]
struct Entry {
    best: u32,
    stats_depth: u32,
    /// Enabled actions at `stats_depth`, with [`CUT`] set if the depth
    /// bound left one of them out.
    edges: u32,
    sleep: Sleep,
}

/// The flag bit of [`Entry::edges`]: the depth bound cut the expansion.
const CUT: u32 = 1 << 31;

/// What a visit does with a state the store already holds.
enum Claim {
    /// Nothing new: every delivery it could apply has been applied, or is
    /// slept along this path.
    Prune,
    /// Expand it in full: it is new, or deeper than before under the
    /// depth-left rule.
    Expand,
    /// Apply only the `woken` deliveries; the frame sleeps on `asleep`.
    Wake { woken: Sleep, asleep: Sleep },
}

impl Entry {
    /// The revisit rule: under sleep set `z` with `depth_left` to go, a
    /// revisit prunes unless it wakes a slept delivery — one the entry has
    /// not applied that `z` does not sleep on — or the depth-left rule asks
    /// for a deeper expansion. Updates the entry to what the visit will
    /// have applied: an expansion at its best depth shrinks the stored set
    /// to the intersection; a deeper one stores `z` afresh.
    fn revisit(&mut self, depth_left: u32, z: Sleep, exact: bool) -> Claim {
        if exact && depth_left > self.best {
            self.best = depth_left;
            self.sleep = z;
            return Claim::Expand;
        }
        let woken = self.sleep & !z;
        if woken == 0 {
            return Claim::Prune;
        }
        let asleep = self.sleep & z;
        // A shallower revisit's deliveries do not count at `best`.
        if !exact || depth_left == self.best {
            self.sleep = asleep;
        }
        Claim::Wake { woken, asleep }
    }
}

/// Approximate resident cost of one hot `(u128, Entry)` map entry
/// (key + entry + table overhead), converting
/// [`CheckOptions::mem_budget`] into a spill trigger.
const HOT_ENTRY_COST: usize = 64;

/// On-disk payload width of a spilled [`Entry`].
const ENTRY_BYTES: usize = 16;

fn encode_entry(e: &Entry) -> [u8; ENTRY_BYTES] {
    let mut b = [0u8; ENTRY_BYTES];
    for (i, word) in [e.best, e.stats_depth, e.edges, e.sleep].into_iter().enumerate() {
        b[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
    }
    b
}

fn decode_entry(b: &[u8; ENTRY_BYTES]) -> Entry {
    let word = |i: usize| u32::from_le_bytes(b[4 * i..4 * i + 4].try_into().expect("four bytes"));
    Entry { best: word(0), stats_depth: word(1), edges: word(2), sleep: word(3) }
}

/// Merge two spilled copies of the same state: the record expanded at
/// the deepest `stats_depth` carries the authoritative edge stats (tie →
/// the newer copy, mirroring the hot tier's `>=` publish guard), `best` is
/// the monotone max of both, and the sleep set is the deeper copy's, or
/// the intersection of two at one depth — what either copy applied at
/// that depth has been applied.
fn combine_entries(older: &[u8; ENTRY_BYTES], newer: &[u8; ENTRY_BYTES]) -> [u8; ENTRY_BYTES] {
    let (o, n) = (decode_entry(older), decode_entry(newer));
    let mut r = if n.stats_depth >= o.stats_depth { n } else { o };
    r.best = o.best.max(n.best);
    r.sleep = match o.best.cmp(&n.best) {
        std::cmp::Ordering::Less => n.sleep,
        std::cmp::Ordering::Greater => o.sleep,
        std::cmp::Ordering::Equal => o.sleep & n.sleep,
    };
    encode_entry(&r)
}

/// Per-plan stats folded once the plan's last task finishes.
#[derive(Default)]
struct PlanStats {
    distinct: usize,
    edges: u64,
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
    /// The keys of the plan's non-violating quiescent states, each with
    /// whether a site is blocked there: what the tests hold a reduction to.
    #[cfg(test)]
    quiescent: Mutex<std::collections::BTreeMap<u128, bool>>,
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
            #[cfg(test)]
            quiescent: Mutex::default(),
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
            stats.edges += u64::from(e.edges & !CUT);
            stats.cut |= e.edges & CUT != 0;
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
/// resulting subtree under the sleep set `sleep`.
struct Task<'a> {
    plan: usize,
    runner: Box<Runner<'a>>,
    path: Vec<Step>,
    depth_left: u32,
    budgets: Budgets,
    action: Action,
    sleep: Vec<Channel>,
}

struct Shared<'a> {
    protocol: &'a Protocol,
    analysis: &'a Analysis,
    /// Where each site may still send in the delivery-only region: what
    /// the persistent sets rest on. `None` past 64 sites, where the walk
    /// keeps no persistent sets.
    bound: Option<SendBound>,
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
    /// Successors applied, summed as each worker finishes.
    #[cfg(test)]
    applied: AtomicU64,
    /// The unreduced walk the tests hold the reduction against: every
    /// sleep set empty and no persistent set, so every enabled action of
    /// every state is applied.
    #[cfg(test)]
    unreduced: bool,
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
            bound: SendBound::new(protocol),
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
            #[cfg(test)]
            applied: AtomicU64::new(0),
            #[cfg(test)]
            unreduced: tests::UNREDUCED.get(),
        }
    }

    /// The bound this walk's persistent sets in the delivery-only region
    /// rest on, if it keeps any. The exact re-run after a depth cut does
    /// not: it is the walk every cut row was counted with.
    fn persistent_sets(&self) -> Option<&SendBound> {
        #[cfg(test)]
        if self.unreduced {
            return None;
        }
        self.bound.as_ref().filter(|_| !self.exact)
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
    /// The channels with something in flight at the state last passed to
    /// [`Stepper::collect`], in canonical order.
    channels: Vec<Channel>,
    /// Scratch, empty between calls and kept for its allocation: the sends
    /// a crash may lose, snapshotted before the crash.
    sends: Vec<(u64, usize)>,
    /// Scratch for [`Stepper::persistent_site`]: `(enabled channels, site)` per
    /// site with a delivery enabled, and the state's half of the send bound.
    targets: Vec<(usize, usize)>,
    may_send: MaySend,
}

impl<'a> Stepper<'a> {
    fn new(protocol: &'a Protocol, analysis: &'a Analysis) -> Self {
        Self {
            protocol,
            oracles: Oracles::new(protocol, analysis, CHECK_TXN),
            path: Vec::new(),
            channels: Vec::new(),
            sends: Vec::new(),
            targets: Vec::new(),
            may_send: MaySend::default(),
        }
    }

    /// Collect `runner`'s channels with something in flight, in canonical
    /// order, for [`Stepper::sleep_mask`] and [`Stepper::enumerate`].
    fn collect(&mut self, runner: &Runner<'a>) {
        let channels = &mut self.channels;
        channels.clear();
        for (_, _, ev) in runner.iter_pending() {
            let ch = channel_of(ev);
            if !channels.contains(&ch) {
                channels.push(ch);
            }
        }
        channels.sort_unstable();
    }

    /// Bit `i` of the collected channels' [`Sleep`] mask, if it has one.
    fn bit(&self, ch: Channel) -> Option<Sleep> {
        let i = self.channels.iter().position(|&c| c == ch)?;
        (i < Sleep::BITS as usize).then(|| 1 << i)
    }

    /// The nameable part of the sleep set `sleep` at the collected state.
    fn sleep_mask(&self, sleep: &[Channel]) -> Sleep {
        sleep.iter().filter_map(|&ch| self.bit(ch)).fold(0, |z, bit| z | bit)
    }

    /// Move the deliveries `z` sleeps on to the front of `actions`, keeping
    /// the order of the rest, and count them.
    fn sleep_first(&self, actions: &mut [Action], z: Sleep) -> usize {
        if z == 0 {
            return 0;
        }
        let mut slept = 0;
        for i in 0..actions.len() {
            if let Action::Fire(ch) = actions[i] {
                if self.bit(ch).is_some_and(|bit| z & bit != 0) {
                    actions[slept..=i].rotate_right(1);
                    slept += 1;
                }
            }
        }
        slept
    }

    /// The site whose deliveries form a delivery-only state's persistent
    /// set: a site y for which `bound` proves that no other site can, while
    /// y takes no step, put a message on a link into y that is empty now.
    /// Every other delivery then commutes with those into y and none
    /// enables a new one into y. Of the sites that qualify, y has the
    /// fewest enabled channels, the lowest id on a tie. `None` when none
    /// qualifies, or when fewer than two sites have a delivery enabled and
    /// there is nothing to cut. Reads the channels [`Stepper::collect`]
    /// took from the same runner.
    fn persistent_site(&mut self, runner: &Runner<'a>, bound: &SendBound) -> Option<usize> {
        let targets = &mut self.targets;
        targets.clear();
        for &ch in &self.channels {
            let y = into_site(ch);
            match targets.iter_mut().find(|(_, site)| *site == y) {
                Some((count, _)) => *count += 1,
                None => targets.push((1, y)),
            }
        }
        if targets.len() < 2 {
            return None;
        }
        targets.sort_unstable();
        bound.read(runner, &mut self.may_send);
        let may_send = &self.may_send;
        targets.iter().map(|&(_, y)| y).find(|&y| may_send.closed_to(bound, y))
    }

    /// Fill `actions` with all branchable actions in `runner` under
    /// remaining budgets `b`, in deterministic order. Reads the channels
    /// [`Stepper::collect`] took from the same runner.
    fn enumerate(&mut self, runner: &Runner<'a>, b: Budgets, actions: &mut Vec<Action>) {
        actions.clear();
        let channels = &self.channels;

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
                    .filter(|(_, _, ev)| !runner.sites()[into_site(channel_of(ev))].is_up())
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
/// budgets, and its (cost-filtered) actions. The first `next` are done:
/// the deliveries the frame sleeps on, then the branches already taken.
struct Frame<'a> {
    runner: Box<Runner<'a>>,
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

/// A fork of `source`: [`Clone::clone_from`] into a spare runner when
/// there is one, so it copies only the sites the spare does not hold
/// already, else a fresh clone.
fn fork<'a>(spare: &mut Vec<Box<Runner<'a>>>, source: &Runner<'a>) -> Box<Runner<'a>> {
    match spare.pop() {
        Some(mut runner) => {
            Runner::clone_from(&mut runner, source);
            runner
        }
        None => Box::new(source.clone()),
    }
}

/// Fill `out` with the sleep set of the branch on `actions[i]`: the
/// deliveries done before it in its frame — slept on or branched on — less
/// those into the site it delivers into. Every other action depends on
/// every action, so its branch sleeps on nothing.
fn sleep_of(actions: &[Action], i: usize, out: &mut Vec<Channel>) {
    out.clear();
    let Action::Fire(c) = actions[i] else { return };
    let site = into_site(c);
    out.extend(actions[..i].iter().filter_map(|a| match *a {
        Action::Fire(ch) if into_site(ch) != site => Some(ch),
        _ => None,
    }));
}

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
    /// overwrites all of it. Boxed as on the stack and in tasks, so a
    /// runner changes hands as a pointer.
    #[allow(clippy::vec_box)]
    spare: Vec<Box<Runner<'a>>>,
    /// The action lists of finished frames, kept for their allocation.
    spare_actions: Vec<Vec<Action>>,
    /// The sleep set of the branch being taken, kept for its allocation.
    sleep: Vec<Channel>,
    /// Successors this worker applied.
    #[cfg(test)]
    applied: u64,
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
            sleep: Vec::new(),
            #[cfg(test)]
            applied: 0,
        }
    }

    /// Expand each plan's root on this thread (observing it and claiming
    /// it in the plan's map), then queue one task per root action, with
    /// its sleep set. Roots go through `visit` like every other state, so
    /// root handling and inner-node handling cannot drift apart.
    fn seed(&mut self, plans: &[Vec<bool>]) {
        let shared = self.shared;
        let mut queue = shared.queue.lock().expect("queue poisoned");
        for (idx, votes) in plans.iter().enumerate() {
            self.plan = idx;
            let config = plan_config(shared.protocol.n_sites(), votes, shared.opts.rule);
            let root = Box::new(Runner::new(shared.protocol, shared.analysis, config));
            self.visit(root, shared.opts.depth, Budgets::of(&shared.opts), &[]);
            match self.stack.pop() {
                Some(f) => {
                    let branches = f.next..f.actions.len();
                    shared.plan_shared[idx].pending.store(branches.len(), Ordering::Release);
                    shared.outstanding.fetch_add(branches.len(), Ordering::AcqRel);
                    for i in branches {
                        let mut sleep = Vec::new();
                        sleep_of(&f.actions, i, &mut sleep);
                        queue.push_back(Task {
                            plan: idx,
                            runner: fork(&mut self.spare, &f.runner),
                            path: Vec::new(),
                            depth_left: f.depth_left,
                            budgets: f.budgets,
                            action: f.actions[i],
                            sleep,
                        });
                    }
                    self.retire(f.runner);
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
        #[cfg(test)]
        self.shared.applied.fetch_add(self.applied, Ordering::Relaxed);
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
        self.branch(task.runner, task.action, task.depth_left, task.budgets, &task.sleep);
        self.drain_stack();
        self.stepper.path.clear();
    }

    /// Apply `action` to a fork of its source state and visit the
    /// successor under the sleep set `sleep`.
    fn branch(
        &mut self,
        mut runner: Box<Runner<'a>>,
        action: Action,
        depth_left: u32,
        b: Budgets,
        sleep: &[Channel],
    ) {
        #[cfg(test)]
        {
            self.applied += 1;
        }
        match self.stepper.apply(&mut runner, action, b) {
            Err(detail) => {
                self.flag_violation("recovery", detail);
                self.retire(runner);
            }
            Ok(b2) => self.visit(runner, depth_left - action.cost(), b2, sleep),
        }
    }

    /// Keep a runner no frame holds for a later fork to overwrite. The
    /// walk itself hands back exactly what it took, but every task arrives
    /// with a runner of its own, so the list is capped at what the deepest
    /// stack the depth bound allows could ever fork from it.
    fn retire(&mut self, runner: Box<Runner<'a>>) {
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
            sleep_of(&f.actions, f.next, &mut self.sleep);
            f.next += 1;
            let (depth_left, budgets) = (f.depth_left, f.budgets);
            // The last branch of a frame takes the frame's runner itself;
            // every earlier one forks it, into a spare runner when there
            // is one.
            let runner = if f.next == f.actions.len() {
                let f = self.stack.pop().expect("frame just seen");
                self.spare_actions.push(f.actions);
                f.runner
            } else {
                fork(&mut self.spare, &f.runner)
            };
            let sleep = std::mem::take(&mut self.sleep);
            self.branch(runner, action, depth_left, budgets, &sleep);
            self.sleep = sleep;
        }
    }

    /// Hand the shallowest untried branch of this stack, with its sleep
    /// set, to an idle worker as a fresh task. Donation only reorders the
    /// traversal, which no reported quantity depends on.
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
            let mut sleep = Vec::new();
            sleep_of(&f.actions, f.next, &mut sleep);
            let action = f.actions[f.next];
            f.next += 1;
            let task = Task {
                plan: self.plan,
                runner: fork(&mut self.spare, &f.runner),
                path: self.stepper.path[..f.mark].to_vec(),
                depth_left: f.depth_left,
                budgets: f.budgets,
                action,
                sleep,
            };
            let ps = &self.shared.plan_shared[self.plan];
            ps.pending.fetch_add(1, Ordering::AcqRel);
            self.shared.outstanding.fetch_add(1, Ordering::AcqRel);
            self.shared.queue.lock().expect("queue poisoned").push_back(task);
            self.shared.available.notify_one();
            return;
        }
    }

    /// Observe one state reached under the sleep set `sleep`, claim it in
    /// the plan's fingerprint store (hot tier, spilled runs consulted on a
    /// hot miss), and push its expansion frame if it survived dedup and the
    /// caps. A runner no frame keeps — a violation, a stop target, a
    /// pruned revisit, the cap, a leaf — is retired for the next fork.
    fn visit(&mut self, runner: Box<Runner<'a>>, depth_left: u32, b: Budgets, sleep: &[Channel]) {
        if let Some(unkept) = self.expand(runner, depth_left, b, sleep) {
            self.retire(unkept);
        }
    }

    /// [`Worker::visit`] proper; hands the runner back unless a frame took
    /// it.
    fn expand(
        &mut self,
        runner: Box<Runner<'a>>,
        depth_left: u32,
        b: Budgets,
        sleep: &[Channel],
    ) -> Option<Box<Runner<'a>>> {
        let shared = self.shared;
        let ps = &shared.plan_shared[self.plan];
        let wit =
            self.wit[self.plan].get_or_insert_with(|| Witnessed::for_protocol(shared.protocol));
        if let Err((oracle, detail)) = self.stepper.oracles.observe_state(wit, &runner) {
            // Violating states are never expanded (and never counted).
            self.flag_violation(oracle, detail);
            return Some(runner);
        }
        #[cfg(test)]
        if runner.net_quiescent() {
            let key = state_key(runner.digest(), b);
            let blocked = Oracles::any_blocked(&runner);
            ps.quiescent.lock().expect("quiescent poisoned").insert(key, blocked);
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

        let budget = shared.opts.mem_budget;
        let digest = runner.digest();
        let fp = state_key(digest, b);
        let shard = &ps.shards[(fp as usize) & shared.shard_mask];
        #[cfg(test)]
        let sleep = if shared.unreduced { &[][..] } else { sleep };
        // A delivery-only state takes and stores no sleep set: each of its
        // persistent sets delivers into one site, which leaves a sleep set
        // nothing to prune, and a state expanded under none is expanded
        // the same whichever path reached it first.
        let persistent = shared
            .persistent_sets()
            .filter(|_| delivery_only(&runner, b, shared.opts.suspicions > 0));
        let sleep = if persistent.is_some() { &[][..] } else { sleep };
        // The channels name the sleep set; a state reached with none is
        // spared collecting them unless it is expanded.
        let z = if sleep.is_empty() {
            0
        } else {
            self.stepper.collect(&runner);
            self.stepper.sleep_mask(sleep)
        };
        let claim = {
            let mut map = shard.lock().expect("shard poisoned");
            let hot = map.get(&fp).copied();
            // Hot miss with a budget: the entry may have been spilled.
            // One shard lock + the store read lock — see the lock-order
            // note on `PlanShared::store`.
            let spilled = match hot {
                None if budget > 0 => ps
                    .store
                    .read()
                    .expect("store poisoned")
                    .get(fp)
                    .unwrap_or_else(|e| panic!("external-memory probe failed: {e}"))
                    .map(|payload| decode_entry(&payload)),
                _ => None,
            };
            let (claim, entry) = match hot.or(spilled) {
                Some(mut e) => (e.revisit(depth_left, z, shared.exact), e),
                None => {
                    let e = Entry { best: depth_left, stats_depth: 0, edges: 0, sleep: z };
                    (Claim::Expand, e)
                }
            };
            match claim {
                Claim::Prune => return Some(runner),
                Claim::Expand if ps.inserted.load(Ordering::Relaxed) >= shared.opts.max_states => {
                    ps.cap_hit.store(true, Ordering::Release);
                    return Some(runner);
                }
                _ => {}
            }
            // A spilled state comes back hot with its stats (the fold's
            // combine resolves the duplicate) and is not recounted.
            if hot.is_none() {
                if spilled.is_none() {
                    ps.inserted.fetch_add(1, Ordering::Relaxed);
                    shared.distinct.fetch_add(1, Ordering::Relaxed);
                }
                if budget > 0 {
                    shared.hot_bytes.fetch_add(HOT_ENTRY_COST, Ordering::Relaxed);
                }
            }
            map.insert(fp, entry);
            claim
        };
        if sleep.is_empty() {
            self.stepper.collect(&runner);
        }

        let mut actions = self.spare_actions.pop().unwrap_or_default();
        let slept = match claim {
            Claim::Prune => unreachable!("a pruned visit has returned"),
            Claim::Expand => {
                self.stepper.enumerate(&runner, b, &mut actions);
                if let Some(seed) = shared.opts.seed {
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
                // Edge stats at *this* depth, over every enabled action,
                // slept or not; published under the stats_depth guard so
                // the deepest expansion's numbers win whatever order the
                // racing expansions finish in.
                let mut edges = 0u32;
                let mut cut = false;
                actions.retain(|a| {
                    let kept = a.cost() <= depth_left;
                    edges += u32::from(kept);
                    cut |= !kept;
                    kept
                });
                if cut && !shared.exact {
                    return self.abandon(runner, actions);
                }
                let edges = if cut { edges | CUT } else { edges };
                let mut map = shard.lock().expect("shard poisoned");
                match map.get_mut(&fp) {
                    Some(e) => {
                        if depth_left >= e.stats_depth {
                            e.stats_depth = depth_left;
                            e.edges = edges;
                        }
                    }
                    // The claimed entry was spilled between the two
                    // critical sections: publish the stats as a fresh hot
                    // record — the fold's deepest-wins combine merges it
                    // with the spilled copy, exactly like the in-RAM `>=`
                    // guard would have.
                    None => {
                        let e =
                            Entry { best: depth_left, stats_depth: depth_left, edges, sleep: z };
                        map.insert(fp, e);
                        if budget > 0 {
                            shared.hot_bytes.fetch_add(HOT_ENTRY_COST, Ordering::Relaxed);
                        }
                    }
                }
                drop(map);
                self.progress_tick();
                if let Some(bound) = persistent {
                    if let Some(y) = self.stepper.persistent_site(&runner, bound) {
                        actions.retain(|a| matches!(*a, Action::Fire(ch) if into_site(ch) == y));
                    }
                }
                self.stepper.sleep_first(&mut actions, z)
            }
            Claim::Wake { woken, asleep } => {
                actions.clear();
                let channels = &self.stepper.channels;
                let fires = |mask: Sleep| {
                    let named = channels.iter().take(Sleep::BITS as usize).enumerate();
                    named
                        .filter(move |&(i, _)| mask & (1 << i) != 0)
                        .map(|(_, &ch)| Action::Fire(ch))
                };
                actions.extend(fires(asleep));
                let slept = actions.len();
                actions.extend(fires(woken));
                if actions.iter().any(|a| a.cost() > depth_left) {
                    if !shared.exact {
                        return self.abandon(runner, actions);
                    }
                    actions.clear();
                }
                slept
            }
        };
        if budget > 0 && shared.hot_bytes.load(Ordering::Relaxed) > budget {
            self.spill_plan();
        }
        if slept == actions.len() {
            self.spare_actions.push(actions);
            return Some(runner);
        }
        self.stack.push(Frame {
            mark: self.stepper.path.len(),
            runner,
            depth_left,
            budgets: b,
            actions,
            next: slept,
        });
        None
    }

    /// Pruning every revisit reaches what the depth-left rule reaches only
    /// when nothing is cut: abandon the walk, and hand back what the
    /// expansion held.
    fn abandon(
        &mut self,
        runner: Box<Runner<'a>>,
        actions: Vec<Action>,
    ) -> Option<Box<Runner<'a>>> {
        self.shared.cut.store(true, Ordering::Relaxed);
        self.stack.clear();
        self.spare_actions.push(actions);
        Some(runner)
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
    use std::cell::Cell;
    use std::collections::HashSet;

    use nbc_core::kpc::k_phase_central;
    use nbc_core::protocols::{
        central_2pc, central_3pc, decentralized_2pc, decentralized_3pc, one_pc,
    };
    use nbc_core::ReachOptions;
    use nbc_paxos::paxos_commit;

    use super::*;

    thread_local! {
        /// Read by [`Shared::new`]: set, a walk started on this thread is
        /// the unreduced one.
        pub(super) static UNREDUCED: Cell<bool> = const { Cell::new(false) };
    }

    /// `f`, with every walk it starts unreduced.
    fn unreduced<T>(f: impl FnOnce() -> T) -> T {
        UNREDUCED.set(true);
        let out = f();
        UNREDUCED.set(false);
        out
    }

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
        // The depth-left rule re-expands: 6 346 full expansions for 4 676
        // states on central 3PC.
        let protocol = central_3pc(3);
        let analysis = analyse(&protocol);
        let opts = CheckOptions::default();
        let plans = vote_plans(&protocol, &opts);
        let exact = Shared::new(&protocol, &analysis, opts, plans.len(), None, true);
        sweep(&exact, &plans);
        assert_eq!(exact.expansions.load(Ordering::Relaxed), 6_346);
    }

    /// The reductions' saving, pinned on the two walks the benchmark's
    /// `check-exhaustive` pass runs: one worker applies a successor per
    /// enabled action of each state it visits, less the slept ones and
    /// those a persistent set leaves out. Under sleep sets alone the rows
    /// read `(4_676, 10_604, 7_936)` and `(6_517, 27_480, 14_216)`.
    #[test]
    fn the_walk_applies_fewer_successors_than_it_counts_edges() {
        let paxos = paxos_commit(2, 1);
        let rows = [
            (central_3pc(3), CheckOptions::default(), (3_290, 7_707, 5_355)),
            (paxos, with(|o| o.vote_plan = Some(vec![true; 5])), (3_220, 14_004, 7_175)),
        ];
        for (protocol, opts, want) in rows {
            let analysis = analyse(&protocol);
            let (shared, results) = swept(&protocol, &analysis, &opts);
            let distinct = results.iter().map(|r| r.stats.distinct).sum::<usize>();
            let edges = results.iter().map(|r| r.stats.edges).sum::<u64>();
            let applied = shared.applied.load(Ordering::Relaxed);
            assert_eq!((distinct, edges, applied), want, "{}", protocol.name);
        }
    }

    #[test]
    fn a_cut_walk_is_abandoned_and_rerun_exact() {
        let rows = [
            (central_2pc(3), 9, (4_290, 9_701)),
            (central_3pc(3), 10, (4_449, 10_144)),
            (decentralized_3pc(3), 14, (101_662, 373_530)),
        ];
        for (protocol, depth, (states, actions)) in rows {
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
            let got = results.iter().fold((0, 0, false), |(d, a, c), r| {
                (d + r.stats.distinct, a + r.stats.edges, c | r.stats.cut)
            });
            assert_eq!(got, (states, actions, true), "{} at depth {depth}", protocol.name);
        }
    }

    /// Call `at` on every state the unreduced walk under `opts` expands in
    /// the plan `votes`, with the stepper and the state's budgets: a
    /// depth-first search over the stepper that prunes every revisit.
    fn search<'a>(
        protocol: &'a Protocol,
        analysis: &'a Analysis,
        opts: &CheckOptions,
        votes: &[bool],
        mut at: impl FnMut(&mut Stepper<'a>, &Runner<'a>, Budgets),
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
            at(&mut stepper, &runner, b);
            let mut actions = Vec::new();
            stepper.collect(&runner);
            stepper.enumerate(&runner, b, &mut actions);
            for action in actions.into_iter().filter(|a| a.cost() <= depth_left) {
                let mut next = runner.clone();
                stepper.path.clear();
                if let Ok(b2) = stepper.apply(&mut next, action, b) {
                    todo.push((next, depth_left - action.cost(), b2));
                }
            }
        }
    }

    /// The independence the sleep sets rest on: two deliveries into
    /// distinct sites commute. Applied as the walk applies them —
    /// `Stepper::apply`, dead-site drain included — in either order, from
    /// every state of the unreduced walk, they leave the same behavioral
    /// state and the same budgets.
    #[test]
    fn heads_to_distinct_sites_commute() {
        for (protocol, opts) in &commuting_cases() {
            let mut pairs = 0usize;
            let analysis = analyse(protocol);
            for votes in vote_plans(protocol, opts) {
                search(protocol, &analysis, opts, &votes, |stepper, runner, b| {
                    stepper.collect(runner);
                    let channels = stepper.channels.clone();
                    let mut fire = |first: Channel, second: Channel| {
                        let mut r = runner.clone();
                        let b1 = stepper.apply(&mut r, Action::Fire(first), b);
                        let b2 = stepper.apply(&mut r, Action::Fire(second), b);
                        assert_eq!((b1, b2), (Ok(b), Ok(b)), "a delivery spends no budget");
                        r.digest()
                    };
                    for (i, &a) in channels.iter().enumerate() {
                        for &c in
                            channels[i + 1..].iter().filter(|&&c| into_site(c) != into_site(a))
                        {
                            assert_eq!(
                                fire(a, c),
                                fire(c, a),
                                "{}: {a:?} and {c:?} do not commute",
                                protocol.name
                            );
                            pairs += 1;
                        }
                    }
                });
            }
            // Not vacuous.
            assert!(pairs > 0, "{}: no pair to commute", protocol.name);
        }
    }

    /// The configurations of `heads_to_distinct_sites_commute`.
    fn commuting_cases() -> Vec<(Protocol, CheckOptions)> {
        vec![
            (central_2pc(3), CheckOptions::default()),
            (central_3pc(3), CheckOptions::default()),
            (paxos_commit(2, 1), with(|o| o.vote_plan = Some(vec![true; 5]))),
            (paxos_commit(2, 1), CheckOptions::default()),
            (central_3pc(3), with(|o| o.faults = 2)),
            (central_3pc(3), with(|o| o.rule = TerminationRule::QuorumSkeen)),
            (central_3pc(3), with(|o| o.drops = 1)),
            (central_3pc(3), with(|o| o.recoveries = 1)),
            (central_3pc(3), with(|o| o.suspicions = 1)),
        ]
    }

    /// One state of an explicit unreduced graph.
    struct Node {
        /// In the delivery-only region.
        region: bool,
        /// No action is enabled.
        terminal: bool,
        quiescent: bool,
        /// `chans[y]`: the channels into `y` with a delivery enabled, bit
        /// `b` for `Link(b, y)` and bit `n` for `Detector(y)`.
        chans: Vec<u64>,
        /// Every action's successor that violates no oracle, with the site
        /// a delivery delivers into (`None` for any other action).
        succs: Vec<(Option<usize>, usize)>,
        /// The site whose deliveries the walk's persistent set keeps.
        chosen: Option<usize>,
    }

    /// The explicit unreduced graph of one plan, root first: every state
    /// the unreduced walk reaches and does not find violating, with every
    /// action's successor.
    fn graph(
        protocol: &Protocol,
        analysis: &Analysis,
        opts: &CheckOptions,
        votes: &[bool],
    ) -> Vec<Node> {
        let n = protocol.n_sites();
        let bound = SendBound::new(protocol).expect("a catalog protocol has at most 64 sites");
        let mut stepper = Stepper::new(protocol, analysis);
        let mut wit = Witnessed::for_protocol(protocol);
        let mut index: HashMap<u128, usize> = HashMap::new();
        let mut nodes: Vec<Node> = Vec::new();
        let mut edges: Vec<Vec<(Option<usize>, u128)>> = Vec::new();
        let config = plan_config(n, votes, opts.rule);
        let root = Runner::new(protocol, analysis, config);
        let mut todo = vec![(root, opts.depth, Budgets::of(opts))];
        while let Some((runner, depth_left, b)) = todo.pop() {
            let key = state_key(runner.digest(), b);
            if index.contains_key(&key) || stepper.oracles.observe_state(&mut wit, &runner).is_err()
            {
                continue;
            }
            index.insert(key, nodes.len());
            stepper.collect(&runner);
            let mut chans = vec![0u64; n];
            for &ch in &stepper.channels {
                match ch {
                    Channel::Link(src, dst) => chans[dst] |= 1 << src,
                    Channel::Detector(observer) => chans[observer] |= 1 << n,
                }
            }
            let region = delivery_only(&runner, b, true);
            let chosen = if region { stepper.persistent_site(&runner, &bound) } else { None };
            let mut actions = Vec::new();
            stepper.enumerate(&runner, b, &mut actions);
            assert!(actions.iter().all(|a| a.cost() <= depth_left), "the depth bound cuts");
            let mut out = Vec::new();
            for action in actions.iter().copied() {
                let mut next = runner.clone();
                stepper.path.clear();
                if let Ok(b2) = stepper.apply(&mut next, action, b) {
                    let into = match action {
                        Action::Fire(ch) => Some(into_site(ch)),
                        _ => None,
                    };
                    out.push((into, state_key(next.digest(), b2)));
                    todo.push((next, depth_left - action.cost(), b2));
                }
            }
            let (terminal, quiescent) = (actions.is_empty(), runner.net_quiescent());
            nodes.push(Node { region, terminal, quiescent, chans, succs: Vec::new(), chosen });
            edges.push(out);
        }
        for (node, out) in nodes.iter_mut().zip(edges) {
            node.succs =
                out.into_iter().filter_map(|(into, k)| Some((into, *index.get(&k)?))).collect();
        }
        nodes
    }

    /// The region's states in an order where every successor comes before
    /// its source, or `Err` with a state on a cycle.
    fn region_order(nodes: &[Node]) -> Result<Vec<usize>, usize> {
        // 0 unseen, 1 on the stack, 2 done.
        let mut mark = vec![0u8; nodes.len()];
        let mut order = Vec::new();
        for start in (0..nodes.len()).filter(|&i| nodes[i].region) {
            if mark[start] != 0 {
                continue;
            }
            mark[start] = 1;
            let mut stack = vec![(start, 0usize)];
            while let Some(&mut (u, ref mut next)) = stack.last_mut() {
                if let Some(&(_, v)) = nodes[u].succs.get(*next) {
                    *next += 1;
                    assert!(nodes[v].region, "a region state has a successor outside it");
                    match mark[v] {
                        0 => {
                            mark[v] = 1;
                            stack.push((v, 0));
                        }
                        1 => return Err(v),
                        _ => {}
                    }
                } else {
                    mark[u] = 2;
                    order.push(u);
                    stack.pop();
                }
            }
        }
        Ok(order)
    }

    /// How many states a walk reaches from the root that expands, at each
    /// region state, only the deliveries into the site `choose` names.
    fn reached(nodes: &[Node], choose: impl Fn(usize) -> Option<usize>) -> usize {
        let mut seen = vec![false; nodes.len()];
        seen[0] = true;
        let mut todo = vec![0];
        while let Some(u) = todo.pop() {
            let y = choose(u);
            for &(into, v) in &nodes[u].succs {
                if (y.is_none() || into == y) && !std::mem::replace(&mut seen[v], true) {
                    todo.push(v);
                }
            }
        }
        seen.iter().filter(|&&s| s).count()
    }

    /// Persistence checked on the explicit unreduced graph, at every region
    /// state where the walk keeps the deliveries into one site y: no state
    /// reachable by deliveries into other sites enables a delivery into y
    /// on a channel that is empty at the state. The graph's count of the
    /// walk's choices must be the walk's own count; an exact choice, the
    /// y with the fewest channels among the sites that pass that test, is
    /// printed beside it.
    #[test]
    fn persistent_sets_are_persistent() {
        let mut cases = commuting_cases();
        cases.push((central_3pc(4), CheckOptions::default()));
        cases.push((paxos_commit(2, 1), CheckOptions::default()));
        let mut checked = 0;
        for (protocol, opts) in &cases {
            let analysis = analyse(protocol);
            let n = protocol.n_sites();
            let (mut chosen, mut achieved, mut exact) = (0usize, 0usize, 0usize);
            for votes in vote_plans(protocol, opts) {
                let nodes = graph(protocol, &analysis, opts, &votes);
                let order = region_order(&nodes).expect("the region is acyclic");
                // `enabled[u][y]`: the channels into y a delivery into y
                // finds enabled at a state reachable from u by deliveries
                // into other sites, u included.
                let mut enabled: Vec<Vec<u64>> = vec![Vec::new(); nodes.len()];
                for &u in &order {
                    let mut e = nodes[u].chans.clone();
                    for &(into, v) in &nodes[u].succs {
                        let into = into.expect("only deliveries in the region");
                        for (y, mask) in e.iter_mut().enumerate().filter(|&(y, _)| y != into) {
                            *mask |= enabled[v][y];
                        }
                    }
                    enabled[u] = e;
                }
                let persistent = |u: usize, y: usize| enabled[u][y] & !nodes[u].chans[y] == 0;
                for &u in &order {
                    if let Some(y) = nodes[u].chosen {
                        assert!(
                            persistent(u, y),
                            "{}: the deliveries into site{y} are not persistent",
                            protocol.name
                        );
                        chosen += 1;
                    }
                }
                let exact_choice = |u: usize| {
                    let node = &nodes[u];
                    let sites = (0..n).filter(|&y| node.chans[y] != 0);
                    if !node.region || sites.clone().count() < 2 {
                        return None;
                    }
                    sites.filter(|&y| persistent(u, y)).min_by_key(|&y| node.chans[y].count_ones())
                };
                achieved += reached(&nodes, |u| nodes[u].chosen);
                exact += reached(&nodes, exact_choice);
            }
            let report =
                crate::run_check(protocol, opts.clone()).expect("catalog protocols analyse");
            assert_eq!(achieved, report.stats.distinct_states, "{}", protocol.name);
            checked += chosen;
            println!(
                "{} (faults {} recoveries {} drops {} suspicions {} plans {}): {} persistent sets \
                 checked; the walk reaches {} states, an exact choice {}",
                protocol.name,
                opts.faults,
                opts.recoveries,
                opts.drops,
                opts.suspicions,
                report.stats.plans,
                chosen,
                achieved,
                exact
            );
        }
        // Not vacuous (after two crashes of three sites there is no choice).
        assert!(checked > 0, "no persistent set to check");
    }

    /// Persistent sets need no proviso against ignoring a delivery here:
    /// the region has no cycle, so every execution in it is finite and
    /// ends at a state with nothing enabled, which is quiescent.
    #[test]
    fn the_region_is_acyclic() {
        for (protocol, opts) in &commuting_cases() {
            let analysis = analyse(protocol);
            let mut region = 0;
            for votes in vote_plans(protocol, opts) {
                let nodes = graph(protocol, &analysis, opts, &votes);
                if let Err(u) = region_order(&nodes) {
                    panic!("{}: region state {u} lies on a cycle", protocol.name);
                }
                for node in nodes.iter().filter(|node| node.region) {
                    region += 1;
                    assert!(!node.terminal || node.quiescent, "{}", protocol.name);
                }
            }
            assert!(region > 0, "{}: no region state", protocol.name);
        }
    }

    /// What a reduction must keep of a check: per plan, the oracles its
    /// visited states violated, its blocking flag, its witnessed bitmap and
    /// its quiescent and blocked quiescent states (sorted state keys); and
    /// the report's verdict, failed oracles, prediction completeness,
    /// unwitnessed slots, whether the depth bound or the cap cut it and
    /// whether it has a blocking witness.
    #[derive(Debug, PartialEq)]
    struct Kept {
        plans: Vec<KeptPlan>,
        ok: bool,
        failed: Vec<&'static str>,
        prediction_complete: bool,
        unwitnessed: Vec<String>,
        truncated: bool,
        blocking: bool,
    }

    /// What a reduction must keep of one plan.
    #[derive(Debug, PartialEq)]
    struct KeptPlan {
        violated: u8,
        blocking: bool,
        witnessed: Witnessed,
        quiescent: Vec<u128>,
        blocked: Vec<u128>,
    }

    /// What `kept` keeps, the run's stats, and the successors its sweep
    /// applied.
    fn kept(
        protocol: &Protocol,
        opts: &CheckOptions,
        verdict_only: bool,
    ) -> (Kept, ExploreStats, u64) {
        let analysis = analyse(protocol);
        let (plans, applied) = if verdict_only {
            (Vec::new(), 0)
        } else {
            let (shared, results) = swept(protocol, &analysis, opts);
            let plans = results.into_iter().zip(&shared.plan_shared).map(|(r, ps)| {
                let quiescent = std::mem::take(&mut *ps.quiescent.lock().expect("poisoned"));
                let blocked = quiescent.iter().filter(|&(_, &b)| b).map(|(&k, _)| k).collect();
                KeptPlan {
                    violated: r.violated,
                    blocking: r.blocking,
                    witnessed: r.witnessed,
                    quiescent: quiescent.into_keys().collect(),
                    blocked,
                }
            });
            (plans.collect(), shared.applied.load(Ordering::Relaxed))
        };
        let report = crate::run_check(protocol, opts.clone()).expect("catalog protocols analyse");
        let kept = Kept {
            plans,
            ok: report.ok(),
            failed: report.failures.iter().map(|f| f.oracle).collect(),
            prediction_complete: report.prediction_complete,
            unwitnessed: report.unwitnessed,
            truncated: report.stats.truncated,
            blocking: report.blocking_witness.is_some(),
        };
        (kept, report.stats, applied)
    }

    /// Run `opts` on `protocol` with the walk and with the unreduced walk,
    /// and hold the two to the same verdicts and the same quiescent and
    /// blocked states. With `verdict_only` (a run the state cap cuts, whose
    /// per-plan sweep results depend on scheduling), only the report's are
    /// compared.
    fn holds(protocol: &Protocol, opts: CheckOptions, verdict_only: bool) {
        let (got, stats, applied) = kept(protocol, &opts, verdict_only);
        let (want, full, all) = unreduced(|| kept(protocol, &opts, verdict_only));
        assert_eq!(got, want, "{}: the walk and the unreduced walk disagree", protocol.name);
        println!(
            "{} (depth {} faults {} recoveries {} drops {} suspicions {} plans {}): \
             {} states, {} actions, {} successors applied; unreduced {} states, {} actions, \
             {} applied",
            protocol.name,
            opts.depth,
            opts.faults,
            opts.recoveries,
            opts.drops,
            opts.suspicions,
            stats.plans,
            stats.distinct_states,
            stats.actions,
            applied,
            full.distinct_states,
            full.actions,
            all
        );
    }

    fn with(f: fn(&mut CheckOptions)) -> CheckOptions {
        let mut o = CheckOptions::default();
        f(&mut o);
        o
    }

    #[test]
    fn the_catalog_keeps_its_verdicts_unreduced() {
        for protocol in [
            central_2pc(3),
            central_3pc(3),
            decentralized_2pc(3),
            decentralized_3pc(3),
            one_pc(3),
            k_phase_central(3, 4).expect("kpc builds"),
        ] {
            holds(&protocol, CheckOptions::default(), false);
        }
    }

    /// Every budget row `pinned_counts.rs` pins but the catalog's.
    #[test]
    fn every_pinned_budget_keeps_its_verdicts_unreduced() {
        holds(&central_2pc(4), with(|o| o.vote_plan = Some(vec![true; 4])), false);
        holds(&central_3pc(3), with(|o| o.recoveries = 1), false);
        holds(&central_3pc(3), with(|o| o.drops = 1), false);
        holds(&central_3pc(3), with(|o| o.faults = 2), false);
        holds(&central_3pc(3), with(|o| o.max_states = 500), true);
        holds(&central_2pc(3), with(|o| o.depth = 9), false);
        holds(&central_3pc(3), with(|o| o.depth = 10), false);
        holds(&decentralized_3pc(3), with(|o| o.depth = 14), false);
        holds(&central_3pc(3), with(|o| o.suspicions = 1), false);
        holds(&central_2pc(3), with(|o| o.recoveries = 1), false);
    }

    #[test]
    fn paxos_commit_keeps_its_verdicts_unreduced() {
        let p = paxos_commit(2, 1);
        holds(&p, with(|o| o.vote_plan = Some(vec![true; 5])), false);
        holds(&p, CheckOptions::default(), false);
    }
}
