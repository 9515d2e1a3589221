//! Global transaction states and the reachable state graph.
//!
//! The paper defines the *global state* of a distributed transaction as a
//! vector containing the local states of all FSAs plus the outstanding
//! messages in the network; it "defines the complete processing state of a
//! transaction". The graph of all global states reachable from the initial
//! global state is the *reachable state graph*, from which concurrency
//! sets, committability, and the fundamental nonblocking theorem are all
//! computed.
//!
//! Classification of global states (paper §"Comments on reachable state
//! graphs"):
//! * **final** — every local state in the vector is final;
//! * **terminal** — no immediately reachable successors;
//! * **deadlocked** — terminal but not final;
//! * **inconsistent** — contains both a local commit and a local abort
//!   state. A protocol that preserves transaction atomicity can have *no*
//!   reachable inconsistent state.
//!
//! The graph "grows exponentially with the number of sites, but, in
//! practice, we seldom need to actually build it" — we do build it (that is
//! the point of the reproduction), with a configurable node bound.
//!
//! ## A state is a few machine words
//!
//! Construction never touches a [`GlobalState`]. [`StateCodec`] gives every
//! state of a protocol the same fixed-width bit layout — a field per site's
//! local state, a count field per message address, `W` words in all (one
//! for central 2PC n=7, two for central 3PC n=7..10, three for
//! decentralized 3PC n=6; [`crate::codec`] has the argument that bounds a
//! channel) — and the protocol's transitions are compiled against it once
//! (`Program`): which fields a trigger needs and how many of each, which
//! fields an emission raises.
//!
//! ## One generator, one fingerprint, three walks
//!
//! Every builder enumerates successors with `for_each_successor`: copy the
//! `W` words into a caller-owned scratch, subtract the consumed counts, set
//! the firing site's field, add the emitted counts. States are identified
//! by `fingerprint`, one [`Fp128`] pass over the `W`
//! words. A builder probes its tables with the scratch words and copies
//! them into an arena only when the state is new.
//!
//! [`ReachGraph::build_with`] grows the graph level by level. A narrow
//! frontier (and every frontier at one thread — the serial reference,
//! [`ReachGraph::build_serial`]) is expanded inline, interning straight
//! into the graph. A wide one is split into contiguous chunks, one scoped
//! worker each: a worker resolves every successor against the prior
//! levels' table (immutable while the level is in flight) or a chunk-local
//! one, and copies only the states new to its chunk; the coordinator then
//! walks the chunks *in order*, interns each chunk's new states in their
//! first-occurrence order and appends the remapped edges. Ids are thus
//! assigned in (chunk, first occurrence in chunk) order, which is first
//! occurrence in the level's successor stream — the discovery order of the
//! serial FIFO BFS. The result is **bit-identical** for any thread count:
//! same node ids, same edge order, same classification counts
//! (`tests/pinned_graphs.rs` holds the bytes). Retained graphs are exact:
//! a hash hit is confirmed by comparing words (`IdTable`).
//!
//! The retained builders build and nothing else. An analysis reaches the
//! states by one of two routes: [`ReachGraph::fold_nodes`], a pass over the
//! finished arena, or the third walk, `fold_reachable`, which keeps no
//! graph — a frontier of orbit representatives and a fingerprint set — and
//! folds the facts as it goes ([`crate::Analysis::build_with`] picks by
//! [`ReachOptions::stream`]).
//!
//! ## Nodes on demand
//!
//! The finished [`ReachGraph`] keeps its nodes as it built them: one flat
//! arena, `W` words a node. Classification ([`ReachGraph::is_final`],
//! [`ReachGraph::stats`]), the analysis fold and the transition-lead walk
//! of [`crate::sync_check`] read the site-local fields straight from the
//! words, so `analyze`, the theorem and resilience never build a
//! [`GlobalState`]. [`ReachGraph::node`] and [`ReachGraph::nodes`] decode
//! the whole node vector once, on first use — what termination
//! verification, DOT rendering and any caller that reads a node's messages
//! pays, and nobody else.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::OnceLock;

use crate::codec::{Field, PackedArena, StateCodec};
use crate::error::ProtocolError;
use crate::extmem::{RunSet, SpillStats};
use crate::fp128::{Fp128, FpBuildHasher};
use crate::fsa::{Consume, StateClass};
use crate::ids::{MsgKind, SiteId, StateId};
use crate::protocol::Protocol;
use crate::symmetry::Symmetry;

/// Index of a node in the reachable state graph.
pub type NodeId = u32;

/// Most worker threads a state-space exploration accepts — this module's
/// builders and the model checker's walk alike. A request beyond it is a
/// typed error, never a spawn per frontier state.
pub const MAX_THREADS: usize = 64;

/// Address of an outstanding message: who sent it, to whom, what kind.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct MsgAddr {
    /// Sender.
    pub src: SiteId,
    /// Receiver.
    pub dst: SiteId,
    /// Message kind.
    pub kind: MsgKind,
}

/// The multiset of outstanding messages, kept as a sorted vector of
/// `(address, count)` pairs with strictly positive counts so that equal
/// multisets are structurally equal (and hash equal).
#[derive(Clone, PartialEq, Eq, Hash, Default, Debug)]
pub struct Msgs(Vec<(MsgAddr, u16)>);

impl Msgs {
    /// Empty multiset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from addresses (duplicates accumulate).
    pub fn from_addrs(iter: impl IntoIterator<Item = MsgAddr>) -> Result<Self, ProtocolError> {
        let mut m = Self::new();
        for a in iter {
            m.add(a)?;
        }
        Ok(m)
    }

    /// Number of outstanding messages (with multiplicity).
    pub fn len(&self) -> usize {
        self.0.iter().map(|&(_, c)| c as usize).sum()
    }

    /// True if no messages are outstanding.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Multiplicity of `addr`.
    pub fn count(&self, addr: MsgAddr) -> u16 {
        match self.0.binary_search_by_key(&addr, |&(a, _)| a) {
            Ok(i) => self.0[i].1,
            Err(_) => 0,
        }
    }

    /// True if at least one message with this address is outstanding.
    pub fn contains(&self, addr: MsgAddr) -> bool {
        self.count(addr) > 0
    }

    /// Add one message.
    ///
    /// Fails with [`ProtocolError::MsgOverflow`] if the multiplicity of
    /// `addr` would exceed `u16::MAX` — in release builds an unchecked
    /// increment would silently wrap to 0 and corrupt the multiset.
    pub fn add(&mut self, addr: MsgAddr) -> Result<(), ProtocolError> {
        match self.0.binary_search_by_key(&addr, |&(a, _)| a) {
            Ok(i) => {
                self.0[i].1 = self.0[i].1.checked_add(1).ok_or(ProtocolError::MsgOverflow {
                    src: addr.src,
                    dst: addr.dst,
                    kind: addr.kind,
                })?;
            }
            Err(i) => self.0.insert(i, (addr, 1)),
        }
        Ok(())
    }

    /// Remove one message; panics if absent (callers check first).
    pub fn remove(&mut self, addr: MsgAddr) {
        let Ok(i) = self.0.binary_search_by_key(&addr, |&(a, _)| a) else {
            panic!("removing absent message {addr:?}")
        };
        if self.0[i].1 == 1 {
            self.0.remove(i);
        } else {
            self.0[i].1 -= 1;
        }
    }

    /// Iterate over `(address, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (MsgAddr, u16)> + '_ {
        self.0.iter().copied()
    }

    /// Number of distinct addresses with outstanding messages.
    pub fn distinct_addrs(&self) -> usize {
        self.0.len()
    }

    /// Rebuild from `(address, count)` pairs already sorted by address
    /// with strictly positive counts — the codec's decode path, which
    /// reconstructs counts wholesale instead of `add`ing one at a time.
    pub(crate) fn from_sorted_counts(v: Vec<(MsgAddr, u16)>) -> Self {
        debug_assert!(v.windows(2).all(|w| w[0].0 < w[1].0), "addresses must be sorted");
        debug_assert!(v.iter().all(|&(_, c)| c > 0), "counts must be positive");
        Self(v)
    }
}

/// One global transaction state, as a reader sees it. The builders work on
/// its packed form ([`StateCodec`]); a graph decodes its nodes into this
/// on first request.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct GlobalState {
    /// `locals[i]` = local state of site `i`.
    pub locals: Box<[StateId]>,
    /// Outstanding messages on the network tape.
    pub msgs: Msgs,
}

/// An edge of the reachable state graph: site `site` fired transition
/// `transition` (an index into its FSA's transition table). For `Any`
/// triggers, `any_choice` records which source's message was consumed.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Edge {
    /// Successor global state.
    pub to: NodeId,
    /// Site whose transition fired.
    pub site: SiteId,
    /// Index into the firing site's transition table.
    pub transition: u32,
    /// For `Any` triggers, the source whose message was consumed.
    pub any_choice: Option<SiteId>,
}

/// A per-level progress snapshot reported by graph construction when
/// [`ReachOptions::progress`] is set. One snapshot is delivered (from the
/// coordinating thread, after the level barrier) for every completed BFS
/// level; the hook observes the build but cannot perturb it — node ids,
/// edge order, and fold results are identical with or without it.
///
/// The counts describe the reachable graph, whoever reports them: the
/// streaming fold, which expands one representative per orbit of the
/// protocol's site symmetry, reports the exact sums over the orbits, and
/// those can outgrow a `u64` (see [`Count`]).
#[derive(Copy, Clone, Debug)]
pub struct LevelProgress {
    /// The completed BFS level (`0` holds only the initial state).
    pub level: usize,
    /// States expanded at this level (the frontier width).
    pub frontier: u128,
    /// Distinct new states this level's expansion discovered.
    pub new_states: u128,
    /// Successor occurrences that resolved to already-known states.
    pub dedup_hits: u128,
    /// Distinct states discovered so far, this level included.
    pub total: u128,
}

/// A count of global states or successor occurrences, for display. The
/// streaming fold adds such counts up in `u128` with saturating
/// arithmetic, so `u128::MAX` means "at least this many" and is printed
/// that way: a count never wraps, is never a float, and never fails the
/// analysis it describes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Count(pub u128);

impl fmt::Display for Count {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            u128::MAX => f.pad(&format!("at least {}", u128::MAX)),
            exact => fmt::Display::fmt(&exact, f),
        }
    }
}

/// Options for graph construction.
#[derive(Copy, Clone, Debug)]
pub struct ReachOptions {
    /// Abort with [`ProtocolError::GraphTooLarge`] beyond this many nodes.
    /// The bound is on what a builder holds and expands: nodes for the
    /// retained builders, orbit representatives for the streaming fold,
    /// whose `distinct_states` may be far larger.
    pub max_states: usize,
    /// Worker threads for frontier expansion. `0` (the default) picks
    /// [`std::thread::available_parallelism`] capped at 8; `1` forces the
    /// serial reference path; more than [`MAX_THREADS`] is refused with
    /// [`ProtocolError::TooManyThreads`] by every builder.
    pub threads: usize,
    /// Frontiers smaller than this are expanded inline even when `threads`
    /// allows fan-out — thread spawn overhead dwarfs the work on the
    /// shallow levels every graph starts with.
    pub parallel_frontier_min: usize,
    /// Fold the analysis over a stream of states instead of a retained
    /// graph: [`crate::Analysis::build_with`] folds its facts level by
    /// level and retires node payloads as soon as a level has been
    /// expanded, keeping only the current frontier resident. The resulting analysis has no
    /// [`ReachGraph`] (`Analysis::graph()` returns `None`), so graph
    /// consumers (`dot`, termination verification, lead measurement) need
    /// the default retaining mode. Ignored by [`ReachGraph::build_with`]
    /// itself — a graph is inherently retained.
    pub stream: bool,
    /// Called once per completed BFS level with a [`LevelProgress`]
    /// snapshot. A plain `fn` pointer (not a closure) so the options stay
    /// `Copy`; `None` (the default) costs nothing.
    pub progress: Option<fn(&LevelProgress)>,
    /// Approximate byte budget for the streaming fold's retired-level
    /// fingerprint set. `0` (the default) keeps everything in RAM; any
    /// other value makes the fold spill the hot set to sorted temp-file
    /// runs ([`crate::extmem`]) whenever it outgrows the budget, answering
    /// membership at each level barrier by one batched merge pass. Every
    /// deterministic output — fold results, [`StreamStats`] counts,
    /// [`LevelProgress`] snapshots — is byte-identical to the unlimited
    /// path; only [`StreamStats::spill`] differs. Ignored by the retaining
    /// graph builders, which must hold every node anyway.
    pub mem_budget: usize,
}

impl Default for ReachOptions {
    fn default() -> Self {
        Self {
            max_states: 1 << 22,
            threads: 0,
            parallel_frontier_min: 512,
            stream: false,
            progress: None,
            mem_budget: 0,
        }
    }
}

impl ReachOptions {
    /// Same options with an explicit thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Same options with streaming (non-retaining) analysis toggled.
    pub fn with_streaming(mut self, stream: bool) -> Self {
        self.stream = stream;
        self
    }

    /// Same options with a per-level progress hook installed.
    pub fn with_progress(mut self, hook: fn(&LevelProgress)) -> Self {
        self.progress = Some(hook);
        self
    }

    /// Same options with a spill byte budget for the streaming fold.
    pub fn with_mem_budget(mut self, bytes: usize) -> Self {
        self.mem_budget = bytes;
        self
    }

    /// The effective worker count for these options.
    fn resolved_threads(&self) -> Result<usize, ProtocolError> {
        match self.threads {
            0 => Ok(std::thread::available_parallelism().map_or(1, |p| p.get()).min(8)),
            t if t > MAX_THREADS => Err(ProtocolError::TooManyThreads { max: MAX_THREADS, got: t }),
            t => Ok(t),
        }
    }
}

/// The reachable state graph of a protocol (in the absence of failures).
#[derive(Clone)]
pub struct ReachGraph {
    /// The layout `arena`'s states are packed in.
    codec: StateCodec,
    /// Every node's packed state, in node-id order.
    arena: PackedArena,
    /// The same nodes decoded, once somebody asks to read one.
    nodes: OnceLock<Vec<GlobalState>>,
    /// Every node's out-edges, back to back in node-id order.
    edges: Vec<Edge>,
    /// `edge_ends[id]` = one past node `id`'s last edge in `edges`.
    edge_ends: Vec<usize>,
    initial: NodeId,
    /// `classes[i][s]` = class of state `s` of site `i` (copied from the
    /// protocol so the graph is self-contained for classification).
    classes: Vec<Vec<StateClass>>,
}

/// An analysis folded over the distinct reachable global states. It has
/// two routes to them: [`ReachGraph::fold_nodes`] over a finished graph,
/// every node once in id order, and [`fold_reachable`] over a stream —
/// there each state belongs to exactly one BFS frontier and is folded when
/// that frontier is expanded, wide frontiers by workers holding a `split`
/// each. The retained builders know nothing of folders.
///
/// The contract that keeps the streamed, parallel fold bit-identical to
/// the pass over the graph: `fold` must only accumulate *monotone,
/// order-independent* facts (set-once bits), `split` must return an empty
/// accumulator sharing only read-only inputs (workers call it on the
/// shared original, hence `Sync`), and `absorb` must merge with a
/// commutative, associative, idempotent operation (bit-OR for the
/// concurrency facts). Then any chunking of the frontier and any absorb
/// order produce identical bits.
///
/// The pass over a graph folds every state. The streaming fold folds one
/// representative of each orbit of the protocol's site symmetry and then
/// closes the accumulator under the group with `close_under_swap`.
pub(crate) trait StateFolder: Send + Sync {
    /// Fold one distinct reachable global state, given as its site-local
    /// states (`locals[i]` = local state of site `i`), read off the packed
    /// words: no folder looks at the messages.
    fn fold(&mut self, locals: &[StateId]);
    /// An empty accumulator for a worker thread to fold its chunk into.
    fn split(&self) -> Self
    where
        Self: Sized;
    /// Merge a worker's accumulator back at the level barrier.
    fn absorb(&mut self, other: Self)
    where
        Self: Sized;
    /// OR in the image of what has been folded under swapping the
    /// interchangeable sites `a` and `b` — what folding every state with
    /// the two renamed would have added; true if anything was new.
    fn close_under_swap(&mut self, a: SiteId, b: SiteId) -> bool;
}

/// What a compiled transition reads, as ranges of [`Program::pool`].
enum Trigger {
    /// Nothing: enabled while the site occupies the source state.
    Spontaneous,
    /// Every listed field, the pair's number many copies of each (a
    /// trigger naming one address twice needs two outstanding).
    All(Range<usize>),
    /// One listed field that holds a message, tried in trigger order; the
    /// pair's number is the source site the edge records.
    Any(Range<usize>),
    /// `k` of the listed fields that hold a message.
    Quorum { k: usize, of: Range<usize> },
}

/// One transition compiled against the layout.
struct Step {
    /// Index into the firing site's transition table.
    transition: u32,
    /// The target local state.
    to: u64,
    trigger: Trigger,
    /// The count fields the transition raises, one pool entry per emitted
    /// message, in emit order.
    emit: Range<usize>,
}

/// One site's share of a [`Program`].
struct SiteSteps {
    /// The site's local-state field.
    local: Field,
    /// `outgoing[s]` = the steps leaving local state `s`, as a range of
    /// [`Program::steps`] in transition-table order.
    outgoing: Vec<Range<usize>>,
}

/// A protocol's transitions compiled against its [`StateCodec`], once per
/// build: what `for_each_successor` runs instead of walking `Consume`
/// lists and searching a sorted message vector per transition.
struct Program {
    sites: Vec<SiteSteps>,
    steps: Vec<Step>,
    /// `(count field, number)` pairs the steps' ranges point into.
    pool: Vec<(Field, u32)>,
}

impl Program {
    /// Compile `protocol` against its own `codec`. A transition whose
    /// trigger can never be met is left out (see [`Program::trigger`]).
    fn compile(protocol: &Protocol, codec: &StateCodec) -> Self {
        let mut program = Self { sites: Vec::new(), steps: Vec::new(), pool: Vec::new() };
        for (i, fsa) in protocol.fsas().iter().enumerate() {
            let site = SiteId(i as u32);
            let inbox = |&(src, kind): &(SiteId, MsgKind)| {
                codec.count_field(MsgAddr { src, dst: site, kind })
            };
            let mut outgoing = Vec::with_capacity(fsa.state_count());
            for s in 0..fsa.state_count() {
                let first = program.steps.len();
                for (transition, t) in fsa.outgoing(StateId(s as u32)) {
                    let Some(trigger) = program.trigger(&t.consume, inbox) else { continue };
                    let emit_at = program.pool.len();
                    program.pool.extend(t.emit.iter().map(|e| {
                        let addr = MsgAddr { src: site, dst: e.dst, kind: e.kind };
                        (codec.count_field(addr).expect("every emission is in the universe"), 0)
                    }));
                    program.steps.push(Step {
                        transition,
                        to: u64::from(t.to.0),
                        trigger,
                        emit: emit_at..program.pool.len(),
                    });
                }
                outgoing.push(first..program.steps.len());
            }
            program.sites.push(SiteSteps { local: codec.local_field(i), outgoing });
        }
        program
    }

    /// Compile one trigger onto the end of the pool; `inbox` finds the
    /// count field of a listed `(source, kind)`. An address no transition
    /// emits and no initial message carries is outside the universe and
    /// holds nothing in any reachable state: an `All` naming one can never
    /// be met (`None`), an `Any` or `Quorum` never picks it.
    fn trigger(
        &mut self,
        consume: &Consume,
        inbox: impl Fn(&(SiteId, MsgKind)) -> Option<Field>,
    ) -> Option<Trigger> {
        let pool = &mut self.pool;
        let at = pool.len();
        Some(match consume {
            Consume::Spontaneous => Trigger::Spontaneous,
            Consume::All(v) => {
                if v.iter().any(|m| inbox(m).is_none()) {
                    return None;
                }
                for field in v.iter().filter_map(&inbox) {
                    match pool[at..].iter_mut().find(|(f, _)| *f == field) {
                        Some((_, copies)) => *copies += 1,
                        None => pool.push((field, 1)),
                    }
                }
                Trigger::All(at..pool.len())
            }
            Consume::Any(v) => {
                pool.extend(v.iter().filter_map(|m| Some((inbox(m)?, m.0 .0))));
                Trigger::Any(at..pool.len())
            }
            Consume::Quorum { k, srcs } => {
                // A quorum counts distinct respondents (validation insists
                // the list is distinct already).
                for field in srcs.iter().filter_map(&inbox) {
                    if pool[at..].iter().all(|&(f, _)| f != field) {
                        pool.push((field, 0));
                    }
                }
                Trigger::Quorum { k: *k as usize, of: at..pool.len() }
            }
        })
    }
}

/// The 128-bit fingerprint of a packed state: one [`Fp128`] pass over its
/// words. The streaming fold deduplicates by it alone — hash compaction,
/// collision probability about `N² / 2^129` for `N` distinct states — and
/// spills it to [`crate::extmem`] run files, which is why the algorithm is
/// a pinned one.
#[inline]
fn fingerprint(words: &[u64]) -> u128 {
    let mut h = Fp128::new();
    for &w in words {
        h.write_u64(w);
    }
    h.finish()
}

/// The high half of [`fingerprint`]: the key of the retained builders'
/// [`IdTable`]s, which confirm a hit by comparing words.
#[inline]
fn state_hash(words: &[u64]) -> u64 {
    (fingerprint(words) >> 64) as u64
}

/// An exact `hash → id` index over states kept elsewhere: the first id
/// recorded under a hash sits in the map, later ones (a 64-bit collision
/// between distinct states) in an overflow list, and the caller's `same`
/// confirms a candidate id by comparing states. The serial loop, the
/// parallel coordinator and the workers' chunk-local maps all intern
/// through it; the hash is an argument so a test can force a collision.
#[derive(Default)]
struct IdTable {
    first: HashMap<u64, u32, FpBuildHasher>,
    overflow: Vec<(u64, u32)>,
}

impl IdTable {
    /// The id recorded under `hash` that `same` confirms.
    fn find(&self, hash: u64, same: impl Fn(u32) -> bool) -> Option<u32> {
        Self::confirm(*self.first.get(&hash)?, &self.overflow, hash, same)
    }

    /// As [`IdTable::find`]; when nothing matches, records `fresh` under
    /// `hash` and returns `None`.
    fn intern(&mut self, hash: u64, fresh: u32, same: impl Fn(u32) -> bool) -> Option<u32> {
        match self.first.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(fresh);
                None
            }
            Entry::Occupied(slot) => {
                let found = Self::confirm(*slot.get(), &self.overflow, hash, same);
                if found.is_none() {
                    self.overflow.push((hash, fresh));
                }
                found
            }
        }
    }

    fn confirm(
        first: u32,
        overflow: &[(u64, u32)],
        hash: u64,
        same: impl Fn(u32) -> bool,
    ) -> Option<u32> {
        if same(first) {
            return Some(first);
        }
        overflow.iter().find(|&&(h, id)| h == hash && same(id)).map(|&(_, id)| id)
    }
}

/// Where a worker's edge leads: a node of a prior level, or the chunk's
/// `n`-th new state, which has no id until the coordinator merges it.
#[derive(Copy, Clone)]
enum Target {
    Old(NodeId),
    Fresh(u32),
}

/// What one expansion worker hands the coordinator.
struct Chunk {
    /// States no prior level holds, packed, in the order the chunk first
    /// met them...
    fresh: PackedArena,
    /// ...and the hash of each.
    hashes: Vec<u64>,
    /// The chunk's successor stream.
    edges: Vec<(Target, Edge)>,
    /// One past each source node's last edge in `edges`.
    edge_ends: Vec<usize>,
}

/// Run `work` over `0..len` cut into `parts` contiguous ranges, one scoped
/// worker each, and return what they made in range order.
fn fan_out<T: Send>(len: usize, parts: usize, work: impl Fn(Range<usize>) -> T + Sync) -> Vec<T> {
    let chunk_len = len.div_ceil(parts);
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..len)
            .step_by(chunk_len)
            .map(|start| scope.spawn(move || work(start..(start + chunk_len).min(len))))
            .collect();
        handles.into_iter().map(|h| h.join().expect("reach worker")).collect()
    })
}

impl ReachGraph {
    /// Build the reachable state graph with default options.
    pub fn build(protocol: &Protocol) -> Result<Self, ProtocolError> {
        Self::build_with(protocol, ReachOptions::default())
    }

    /// Build with explicit options.
    ///
    /// With `threads > 1` (or `threads == 0` on a multicore machine) wide
    /// frontiers are expanded in parallel; the output is bit-identical to
    /// [`ReachGraph::build_serial`] in every case.
    pub fn build_with(protocol: &Protocol, opts: ReachOptions) -> Result<Self, ProtocolError> {
        let threads = opts.resolved_threads()?;
        let codec = StateCodec::new(protocol)?;
        let program = Program::compile(protocol, &codec);
        let initial = codec.initial(protocol)?;
        let mut table = IdTable::default();
        table.intern(state_hash(&initial), 0, |_| false);
        let mut arena = PackedArena::new(codec.words());
        arena.push(&initial);
        let (mut source, mut scratch) = (initial.clone(), initial);
        let mut g = Self {
            codec,
            arena,
            nodes: OnceLock::new(),
            edges: Vec::new(),
            edge_ends: Vec::new(),
            initial: 0,
            classes: class_table(protocol),
        };
        let mut level: Range<usize> = 0..1;
        let mut level_no = 0usize;

        while !level.is_empty() {
            let edges_before = g.edges.len();
            if threads > 1 && level.len() >= opts.parallel_frontier_min {
                let (codec, arena, first) = (&g.codec, &g.arena, level.start);
                let chunks = fan_out(level.len(), threads, |range| {
                    let frontier = first + range.start..first + range.end;
                    expand_chunk(&program, codec, frontier, arena, &table)
                });
                for chunk in chunks {
                    g.merge_chunk(chunk?, &mut table, opts.max_states)?;
                }
            } else {
                for id in level.clone() {
                    // The arena grows under the expansion, so the source
                    // is read from a copy.
                    source.copy_from_slice(g.arena.get(id));
                    let (arena, edges) = (&mut g.arena, &mut g.edges);
                    for_each_successor(&program, &g.codec, &source, &mut scratch, |succ, edge| {
                        let to = intern_node(
                            arena,
                            &mut table,
                            opts.max_states,
                            state_hash(succ),
                            succ,
                        )?;
                        edges.push(Edge { to, ..edge });
                        Ok(())
                    })?;
                    g.edge_ends.push(g.edges.len());
                }
            }
            if let Some(hook) = opts.progress {
                let new_states = g.node_count() - level.end;
                hook(&LevelProgress {
                    level: level_no,
                    frontier: level.len() as u128,
                    new_states: new_states as u128,
                    dedup_hits: (g.edges.len() - edges_before - new_states) as u128,
                    total: g.node_count() as u128,
                });
            }
            level_no += 1;
            level = level.end..g.node_count();
        }
        Ok(g)
    }

    /// The serial reference: every level expanded inline, in id order —
    /// the FIFO BFS the parallel construction is tested (and benchmarked)
    /// against.
    pub fn build_serial(protocol: &Protocol, opts: ReachOptions) -> Result<Self, ProtocolError> {
        Self::build_with(protocol, opts.with_threads(1))
    }

    /// Append one worker's chunk: intern its new states in the order the
    /// chunk met them (an earlier chunk of the level may have met one
    /// first), then its edges with every target resolved to a node id.
    fn merge_chunk(
        &mut self,
        chunk: Chunk,
        table: &mut IdTable,
        max_states: usize,
    ) -> Result<(), ProtocolError> {
        let mut ids = Vec::with_capacity(chunk.hashes.len());
        for (ix, &hash) in chunk.hashes.iter().enumerate() {
            ids.push(intern_node(&mut self.arena, table, max_states, hash, chunk.fresh.get(ix))?);
        }
        let base = self.edges.len();
        self.edges.extend(chunk.edges.into_iter().map(|(target, edge)| {
            let to = match target {
                Target::Old(id) => id,
                Target::Fresh(ix) => ids[ix as usize],
            };
            Edge { to, ..edge }
        }));
        self.edge_ends.extend(chunk.edge_ends.into_iter().map(|end| base + end));
        Ok(())
    }

    /// Number of reachable global states.
    pub fn node_count(&self) -> usize {
        self.arena.len()
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The initial global state's node id.
    pub fn initial(&self) -> NodeId {
        self.initial
    }

    /// The global state at `id`. The first call (of this or of
    /// [`ReachGraph::nodes`]) decodes every node; classification, the
    /// fold and `analyze` never make it.
    pub fn node(&self, id: NodeId) -> &GlobalState {
        &self.nodes()[id as usize]
    }

    /// All nodes, decoded from their packed form on first use: one locals
    /// box per node, and one message vector per node that holds messages.
    pub fn nodes(&self) -> &[GlobalState] {
        self.nodes.get_or_init(|| {
            (0..self.node_count()).map(|id| self.codec.decode(self.arena.get(id))).collect()
        })
    }

    /// The site-local states of node `id`, read from its packed words —
    /// all that classification, the fold and the transition-lead walk
    /// need of a node.
    pub(crate) fn locals(&self, id: NodeId) -> impl Iterator<Item = (SiteId, StateId)> + '_ {
        (0u32..).map(SiteId).zip(self.codec.locals(self.arena.get(id as usize)))
    }

    /// Out-edges of `id`.
    pub fn edges(&self, id: NodeId) -> &[Edge] {
        let id = id as usize;
        let start = if id == 0 { 0 } else { self.edge_ends[id - 1] };
        &self.edges[start..self.edge_ends[id]]
    }

    /// Class of local state `s` of site `i`.
    pub fn class_of(&self, site: SiteId, s: StateId) -> StateClass {
        self.classes[site.index()][s.index()]
    }

    /// A global state is *final* if all local states are final.
    pub fn is_final(&self, id: NodeId) -> bool {
        self.locals(id).all(|(site, s)| self.class_of(site, s).is_final())
    }

    /// A global state is *terminal* if it has no immediately reachable
    /// successors.
    pub fn is_terminal(&self, id: NodeId) -> bool {
        self.edges(id).is_empty()
    }

    /// A terminal state that is not final is *deadlocked*.
    pub fn is_deadlocked(&self, id: NodeId) -> bool {
        self.is_terminal(id) && !self.is_final(id)
    }

    /// A global state is *inconsistent* if it contains both a local commit
    /// and a local abort state.
    pub fn is_inconsistent(&self, id: NodeId) -> bool {
        let mut commit = false;
        let mut abort = false;
        for (site, s) in self.locals(id) {
            match self.class_of(site, s) {
                StateClass::Committed => commit = true,
                StateClass::Aborted => abort = true,
                _ => {}
            }
        }
        commit && abort
    }

    /// Summary statistics over the whole graph.
    pub fn stats(&self) -> GraphStats {
        let mut st = GraphStats {
            nodes: self.node_count(),
            edges: self.edge_count(),
            ..GraphStats::default()
        };
        for id in 0..self.node_count() as NodeId {
            if self.is_final(id) {
                st.final_states += 1;
            }
            if self.is_terminal(id) {
                st.terminal_states += 1;
            }
            if self.is_deadlocked(id) {
                st.deadlocked_states += 1;
            }
            if self.is_inconsistent(id) {
                st.inconsistent_states += 1;
            }
        }
        st
    }
}

/// Aggregate classification counts for a reachable state graph.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Reachable global states.
    pub nodes: usize,
    /// Transitions between them.
    pub edges: usize,
    /// States where every local state is final.
    pub final_states: usize,
    /// States with no successors.
    pub terminal_states: usize,
    /// Terminal but not final.
    pub deadlocked_states: usize,
    /// States containing both a local commit and a local abort.
    pub inconsistent_states: usize,
}

impl fmt::Display for GraphStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} global states, {} edges; {} final, {} terminal, {} deadlocked, {} inconsistent",
            self.nodes,
            self.edges,
            self.final_states,
            self.terminal_states,
            self.deadlocked_states,
            self.inconsistent_states
        )
    }
}

/// Statistics of a streaming (non-retaining) reachability fold.
///
/// `distinct_states` and `levels` describe the reachable graph and equal
/// the retained build's node count and depth; `representatives` and
/// `peak_resident` describe the fold, which holds and expands one state
/// per orbit of the protocol's site symmetry ([`crate::symmetry`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Distinct reachable global states: the sizes of the orbits the fold
    /// met, summed (see [`Count`] for a sum past `u128`).
    pub distinct_states: u128,
    /// Orbit representatives folded and expanded — all the fold ever
    /// holds, and what [`ReachOptions::max_states`] bounds. Equal to
    /// `distinct_states` for a protocol without interchangeable sites.
    pub representatives: usize,
    /// BFS levels expanded (graph depth + 1).
    pub levels: usize,
    /// Peak number of simultaneously resident state payloads: a frontier
    /// of representatives plus its successor stream, the latter already
    /// canonical and filtered against the prior levels' fingerprints — the
    /// streaming analogue of the retained path's full node vector, and
    /// the memory-headroom figure of merit.
    pub peak_resident: usize,
    /// External-memory activity when [`ReachOptions::mem_budget`] is set
    /// (all zero otherwise). Deliberately excluded from the `Display`
    /// rendering: the human-readable analysis output must stay
    /// byte-identical between budgeted and unlimited runs.
    pub spill: SpillStats,
}

impl fmt::Display for StreamStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} global states across {} levels; peak resident {} states (graph not retained)",
            Count(self.distinct_states),
            self.levels,
            self.peak_resident
        )
    }
}

/// A 128-bit fingerprint of any hashable value: two SipHash passes of the
/// standard library's default hasher, the second domain-separated.
///
/// Nothing in this repository's crates calls it: the streaming fold and
/// the retained builders identify states by the pinned
/// [`Fp128`](crate::fp128::Fp128), and so has `nbc-check` since its dedup
/// store moved to `Fp128`. It stays exported — and [`GlobalState`] stays
/// `Hash` — only because the benchmark's `core.fingerprint128_ns` probe
/// times it; ROADMAP item 3(a) retires both in a `benchmark` PR. The
/// algorithm is unspecified across Rust releases, so its output must not
/// be stored.
pub fn fingerprint128<T: Hash + ?Sized>(value: &T) -> u128 {
    let mut h1 = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut h1);
    let mut h2 = std::collections::hash_map::DefaultHasher::new();
    h2.write_u64(0x9e37_79b9_7f4a_7c15);
    value.hash(&mut h2);
    ((h1.finish() as u128) << 64) | h2.finish() as u128
}

/// The streaming fold's set of [`fingerprint`]s; the keys are uniform
/// already, so the table reads them as they are.
type FpSet = HashSet<u128, FpBuildHasher>;

/// Approximate resident cost of one fingerprint in the hot [`FpSet`]
/// (key + table overhead), used to convert [`ReachOptions::mem_budget`]
/// into a spill trigger.
const SEEN_ENTRY_COST: usize = 48;

fn spill_io(e: std::io::Error) -> ProtocolError {
    ProtocolError::SpillIo { detail: e.to_string() }
}

/// One worker's successor stream: the packed representatives that
/// survived its filters, their fingerprints, and how many successor
/// occurrences its chunk of the frontier stands for in the full graph.
struct Stream {
    states: PackedArena,
    fps: Vec<u128>,
    occurrences: u128,
}

/// Fold `folder` over the reachable global states *without* retaining the
/// graph, and modulo the protocol's site symmetry ([`Symmetry`]): every
/// successor is rewritten to the representative of its orbit before it is
/// fingerprinted, so the frontier (a [`PackedArena`] in the protocol's
/// [`StateCodec`] layout), its successor stream, the `seen` set, the
/// workers' chunk-local sets and the spill runs all hold representatives,
/// one per orbit. Depth, out-degree and what a folder reads are the same
/// for every state of an orbit, so the fold reports the full graph's
/// counts — [`StreamStats::distinct_states`], every [`LevelProgress`]
/// field — as sums weighted by orbit size, folds each representative
/// once, and closes `folder` under the group after the last level: the
/// facts are those of folding every state. A protocol without
/// interchangeable sites takes the same path with every orbit of size 1.
///
/// Only the current frontier and its stream are ever resident, and states
/// are deduplicated by 128-bit fingerprint (see [`fingerprint`]).
/// Frontiers at least [`ReachOptions::parallel_frontier_min`] wide are
/// expanded by scoped workers folding into [`StateFolder::split`]s,
/// OR-merged at the level barrier.
///
/// With [`ReachOptions::mem_budget`] set, the retired-level fingerprint
/// set additionally spills to sorted temp-file runs whenever it outgrows
/// the budget; spilled fingerprints are re-checked by one batched merge
/// pass per level barrier, *before* any residency accounting, so every
/// deterministic output is byte-identical to the unlimited path.
///
/// Returns the fold's [`StreamStats`]; fails with
/// [`ProtocolError::GraphTooLarge`] at `opts.max_states` representatives.
pub(crate) fn fold_reachable<F: StateFolder>(
    protocol: &Protocol,
    opts: ReachOptions,
    folder: &mut F,
) -> Result<StreamStats, ProtocolError> {
    let threads = opts.resolved_threads()?;
    let codec = StateCodec::new(protocol)?;
    let symmetry = Symmetry::of(protocol, &codec);
    let program = Program::compile(protocol, &codec);
    let mut initial = codec.initial(protocol)?;
    let mut keys: Vec<u64> = Vec::new();
    symmetry.canonicalise(&mut initial, &mut keys);
    let mut seen = FpSet::default();
    seen.insert(fingerprint(&initial));
    let mut runs: RunSet<0> = RunSet::new();
    // The frontier's representatives, the size of each one's orbit, and
    // the sizes' sum: the full graph's frontier width.
    let mut frontier = PackedArena::new(codec.words());
    frontier.push(&initial);
    let mut orbits: Vec<u128> = vec![symmetry.orbit_size(&initial, &mut keys)];
    let mut width = orbits[0];
    let mut stats = StreamStats {
        distinct_states: width,
        representatives: 1,
        levels: 0,
        peak_resident: 1,
        spill: SpillStats::default(),
    };

    while !frontier.is_empty() {
        stats.levels += 1;
        // Workers filter successors against the prior levels' hot `seen`
        // set (immutable while a level is in flight) and a chunk-local
        // dedup set, so the successor stream holds only states plausibly
        // new at this level — without it, high-multiplicity levels would
        // make the stream outgrow the retained node vector it is meant to
        // undercut. Cross-chunk duplicates (the same state discovered by
        // two workers) survive to the merge below, which is the arbiter of
        // what is new. Fingerprints already spilled to disk are filtered
        // at the level barrier instead.
        let expand = |range: Range<usize>, fold: &mut F| -> Result<Stream, ProtocolError> {
            let mut scratch = vec![0u64; codec.words()];
            let mut canon = vec![0u64; codec.words()];
            let mut keys: Vec<u64> = Vec::new();
            let mut locals: Vec<StateId> = Vec::new();
            // Sized for a stream as long as the chunk is wide, which most
            // are within a factor of two of: the buffers grow once or
            // twice a level instead of ten times.
            let width = range.len();
            let mut local = FpSet::with_capacity_and_hasher(width, FpBuildHasher::default());
            let mut out = Stream {
                states: PackedArena::with_capacity(codec.words(), width),
                fps: Vec::with_capacity(width),
                occurrences: 0,
            };
            for i in range {
                let source = frontier.get(i);
                locals.clear();
                locals.extend(codec.locals(source));
                fold.fold(&locals);
                let mut fanout = 0u128;
                for_each_successor(&program, &codec, source, &mut scratch, |succ, _| {
                    canon.copy_from_slice(succ);
                    symmetry.canonicalise(&mut canon, &mut keys);
                    let fp = fingerprint(&canon);
                    if !seen.contains(&fp) && local.insert(fp) {
                        out.states.push(&canon);
                        out.fps.push(fp);
                    }
                    fanout += 1;
                    Ok(())
                })?;
                // Every state of the source's orbit has as many successors.
                out.occurrences = out.occurrences.saturating_add(orbits[i].saturating_mul(fanout));
            }
            Ok(out)
        };
        // A wide frontier goes to workers, each folding into a split of
        // `folder`; the splits are absorbed back at the barrier, and an
        // OR-merge's order cannot change the bits.
        let streams: Vec<Stream> = if threads > 1 && frontier.len() >= opts.parallel_frontier_min {
            let empty = &*folder;
            let split = fan_out(frontier.len(), threads, |range| {
                let mut fold = empty.split();
                let stream = expand(range, &mut fold);
                (fold, stream)
            });
            split
                .into_iter()
                .map(|(fold, stream)| {
                    folder.absorb(fold);
                    stream
                })
                .collect::<Result<_, _>>()?
        } else {
            vec![expand(0..frontier.len(), folder)?]
        };

        // Disk filter at the level barrier, BEFORE the residency
        // accounting: occurrences whose fingerprint lives in a spilled run
        // are exactly those the unlimited path's workers would have
        // filtered against its complete in-RAM `seen`, so dropping them
        // here keeps `streamed`, `peak_resident`, and every progress
        // snapshot byte-identical to the unlimited path.
        let mut on_disk: Vec<u128> = Vec::new();
        if runs.run_count() > 0 {
            let mut cand: Vec<u128> = streams.iter().flat_map(|s| &s.fps).copied().collect();
            cand.sort_unstable();
            cand.dedup();
            let flags = runs.contains_batch(&cand).map_err(spill_io)?;
            on_disk = cand.into_iter().zip(flags).filter_map(|(k, hit)| hit.then_some(k)).collect();
        }

        // Retire the expanded frontier; keep only this level's new
        // representatives, each with its orbit's size.
        let mut streamed = 0usize;
        let survivors = streams.iter().map(|s| s.fps.len()).sum();
        let mut next = PackedArena::with_capacity(codec.words(), survivors);
        let mut next_orbits: Vec<u128> = Vec::with_capacity(survivors);
        let mut new_states = 0u128;
        for stream in &streams {
            for (i, &fp) in stream.fps.iter().enumerate() {
                if on_disk.binary_search(&fp).is_ok() {
                    continue;
                }
                streamed += 1;
                // A miss here is a cross-chunk duplicate: the same state
                // surfaced from two workers' chunk-local streams.
                if seen.insert(fp) {
                    if stats.representatives >= opts.max_states {
                        return Err(ProtocolError::GraphTooLarge { limit: opts.max_states });
                    }
                    stats.representatives += 1;
                    let state = stream.states.get(i);
                    let orbit = symmetry.orbit_size(state, &mut keys);
                    new_states = new_states.saturating_add(orbit);
                    next.push(state);
                    next_orbits.push(orbit);
                }
            }
        }
        stats.distinct_states = stats.distinct_states.saturating_add(new_states);
        stats.peak_resident = stats.peak_resident.max(frontier.len() + streamed);
        if let Some(hook) = opts.progress {
            // Every successor occurrence of the level either discovered a
            // state or hit a known one; a saturated sum stays saturated.
            let occurrences =
                streams.iter().fold(0u128, |sum, s| sum.saturating_add(s.occurrences));
            hook(&LevelProgress {
                level: stats.levels - 1,
                frontier: width,
                new_states,
                dedup_hits: match occurrences {
                    u128::MAX => u128::MAX,
                    exact => exact - new_states,
                },
                total: stats.distinct_states,
            });
        }
        // Spill the whole hot set once it outgrows the budget. Only at a
        // level boundary, and only the complete set: a partial or mid-level
        // spill could split one level's fingerprints between tiers and
        // misattribute a dedup hit between the worker filter and the
        // barrier filter.
        if opts.mem_budget > 0 && seen.len() * SEEN_ENTRY_COST > opts.mem_budget {
            let entries: Vec<(u128, [u8; 0])> = seen.drain().map(|fp| (fp, [])).collect();
            runs.spill(entries, |_, b| *b).map_err(spill_io)?;
        }
        (frontier, orbits, width) = (next, next_orbits, new_states);
    }
    symmetry.close(folder);
    stats.spill = runs.stats();
    Ok(stats)
}

impl ReachGraph {
    /// Fold `folder` over every node in id order — the graph's one
    /// meeting point with an analysis.
    pub(crate) fn fold_nodes<F: StateFolder>(&self, folder: &mut F) {
        let mut locals: Vec<StateId> = Vec::new();
        for id in 0..self.node_count() {
            locals.clear();
            locals.extend(self.codec.locals(self.arena.get(id)));
            folder.fold(&locals);
        }
    }
}

/// Resolve the packed `state` to its node id, copying it onto the end of
/// `arena` as a new node when no node equals it.
fn intern_node(
    arena: &mut PackedArena,
    table: &mut IdTable,
    max_states: usize,
    hash: u64,
    state: &[u64],
) -> Result<NodeId, ProtocolError> {
    let fresh = arena.len() as NodeId;
    if let Some(id) = table.intern(hash, fresh, |id| arena.get(id as usize) == state) {
        return Ok(id);
    }
    if arena.len() >= max_states {
        return Err(ProtocolError::GraphTooLarge { limit: max_states });
    }
    arena.push(state);
    Ok(fresh)
}

/// One worker's share of a level: expand the nodes `frontier` of `arena`,
/// resolving each successor against the prior levels (`arena` and
/// `table`, immutable while the level is in flight) or the chunk's own
/// new states.
fn expand_chunk(
    program: &Program,
    codec: &StateCodec,
    frontier: Range<usize>,
    arena: &PackedArena,
    table: &IdTable,
) -> Result<Chunk, ProtocolError> {
    let mut chunk = Chunk {
        fresh: PackedArena::new(codec.words()),
        hashes: Vec::new(),
        edges: Vec::new(),
        edge_ends: Vec::with_capacity(frontier.len()),
    };
    let mut local = IdTable::default();
    let mut scratch = vec![0u64; codec.words()];
    for id in frontier {
        let source = arena.get(id);
        let Chunk { fresh, hashes, edges, .. } = &mut chunk;
        for_each_successor(program, codec, source, &mut scratch, |succ, edge| {
            let hash = state_hash(succ);
            let target = match table.find(hash, |id| arena.get(id as usize) == succ) {
                Some(id) => Target::Old(id),
                None => {
                    let next = fresh.len() as u32;
                    let met = local.intern(hash, next, |ix| fresh.get(ix as usize) == succ);
                    if met.is_none() {
                        fresh.push(succ);
                        hashes.push(hash);
                    }
                    Target::Fresh(met.unwrap_or(next))
                }
            };
            edges.push((target, edge));
            Ok(())
        })?;
        chunk.edge_ends.push(chunk.edges.len());
    }
    Ok(chunk)
}

fn class_table(protocol: &Protocol) -> Vec<Vec<StateClass>> {
    protocol.fsas().iter().map(|f| f.states().iter().map(|s| s.class).collect()).collect()
}

/// Visit the ordered successors of the packed `state`, each assembled in
/// `scratch` (as many words; overwritten) and lent to `visit` with its
/// edge, whose target is left 0. The enumeration order — sites ascending,
/// transitions in table order, `Any` choices in trigger order, `Quorum`
/// subsets lexicographic — is what fixes node ids and edge order, so every
/// builder shares this single implementation. Nothing is allocated outside
/// the `Quorum` arm. An emission into a count field already at its maximum
/// is [`ProtocolError::MsgOverflow`].
fn for_each_successor(
    program: &Program,
    codec: &StateCodec,
    state: &[u64],
    scratch: &mut [u64],
    mut visit: impl FnMut(&[u64], Edge) -> Result<(), ProtocolError>,
) -> Result<(), ProtocolError> {
    for (i, site) in program.sites.iter().enumerate() {
        // With the trigger's messages consumed from `scratch`: move the
        // site, emit, and hand the successor over.
        let mut fire = |scratch: &mut [u64], step: &Step, any_choice| {
            site.local.set(scratch, step.to);
            for &(field, _) in &program.pool[step.emit.clone()] {
                if field.get(scratch) == field.max() {
                    return Err(codec.overflow(field));
                }
                field.add(scratch, 1);
            }
            let edge =
                Edge { to: 0, site: SiteId(i as u32), transition: step.transition, any_choice };
            visit(scratch, edge)
        };
        let local = site.local.get(state) as usize;
        for step in &program.steps[site.outgoing[local].clone()] {
            match &step.trigger {
                Trigger::Spontaneous => {
                    scratch.copy_from_slice(state);
                    fire(scratch, step, None)?;
                }
                Trigger::All(needs) => {
                    let needs = &program.pool[needs.clone()];
                    if needs.iter().all(|&(field, copies)| field.get(state) >= u64::from(copies)) {
                        scratch.copy_from_slice(state);
                        for &(field, copies) in needs {
                            field.sub(scratch, u64::from(copies));
                        }
                        fire(scratch, step, None)?;
                    }
                }
                Trigger::Any(choices) => {
                    for &(field, src) in &program.pool[choices.clone()] {
                        if field.get(state) > 0 {
                            scratch.copy_from_slice(state);
                            field.sub(scratch, 1);
                            fire(scratch, step, Some(SiteId(src)))?;
                        }
                    }
                }
                Trigger::Quorum { k, of } => {
                    // One successor per k-subset of the listed fields that
                    // hold a message.
                    let avail: Vec<Field> = program.pool[of.clone()]
                        .iter()
                        .filter_map(|&(field, _)| (field.get(state) > 0).then_some(field))
                        .collect();
                    for_each_k_subset(avail.len(), *k, |combo| {
                        scratch.copy_from_slice(state);
                        for &ix in combo {
                            avail[ix].sub(scratch, 1);
                        }
                        fire(scratch, step, None)
                    })?;
                }
            }
        }
    }
    Ok(())
}

/// Visit every `k`-element index subset of `0..len`, in lexicographic
/// order, advancing one index array in place.
fn for_each_k_subset(
    len: usize,
    k: usize,
    mut visit: impl FnMut(&[usize]) -> Result<(), ProtocolError>,
) -> Result<(), ProtocolError> {
    if k > len {
        return Ok(());
    }
    let mut combo: Vec<usize> = (0..k).collect();
    loop {
        visit(&combo)?;
        let Some(i) = (0..k).rev().find(|&i| combo[i] != i + len - k) else { return Ok(()) };
        combo[i] += 1;
        for j in i + 1..k {
            combo[j] = combo[j - 1] + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsa::{Envelope, FsaBuilder};
    use crate::protocol::{InitialMsg, Paradigm};
    use crate::protocols::{
        catalog, central_2pc, central_3pc, decentralized_2pc, decentralized_3pc,
    };

    #[test]
    fn msgs_multiset_semantics() {
        let a = MsgAddr { src: SiteId(0), dst: SiteId(1), kind: MsgKind::YES };
        let b = MsgAddr { src: SiteId(1), dst: SiteId(0), kind: MsgKind::NO };
        let mut m = Msgs::new();
        assert!(m.is_empty());
        m.add(a).unwrap();
        m.add(a).unwrap();
        m.add(b).unwrap();
        assert_eq!(m.len(), 3);
        assert_eq!(m.count(a), 2);
        assert!(m.contains(b));
        m.remove(a);
        assert_eq!(m.count(a), 1);
        m.remove(a);
        assert!(!m.contains(a));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn msgs_equality_is_order_independent() {
        let a = MsgAddr { src: SiteId(0), dst: SiteId(1), kind: MsgKind::YES };
        let b = MsgAddr { src: SiteId(1), dst: SiteId(0), kind: MsgKind::NO };
        let m1 = Msgs::from_addrs([a, b]).unwrap();
        let m2 = Msgs::from_addrs([b, a]).unwrap();
        assert_eq!(m1, m2);
    }

    #[test]
    fn msgs_multiplicity_overflow_is_an_error_not_a_wrap() {
        // Regression: u16::MAX identical messages used to wrap to 0 on the
        // next add in release builds, silently emptying the address.
        let a = MsgAddr { src: SiteId(0), dst: SiteId(1), kind: MsgKind::YES };
        let mut m = Msgs::new();
        for _ in 0..u16::MAX {
            m.add(a).unwrap();
        }
        assert_eq!(m.count(a), u16::MAX);
        let err = m.add(a).unwrap_err();
        assert_eq!(
            err,
            ProtocolError::MsgOverflow { src: SiteId(0), dst: SiteId(1), kind: MsgKind::YES }
        );
        // The failed add must leave the multiset untouched.
        assert_eq!(m.count(a), u16::MAX);
    }

    #[test]
    #[should_panic]
    fn removing_absent_message_panics() {
        let a = MsgAddr { src: SiteId(0), dst: SiteId(1), kind: MsgKind::YES };
        Msgs::new().remove(a);
    }

    #[test]
    fn duplicate_address_all_trigger_respects_multiplicity() {
        // Regression: a `Consume::All` listing the same (src, kind) twice
        // used to pass the containment guard with a single outstanding copy
        // and then panic inside `Msgs::remove`. With the multiplicity-aware
        // guard, one copy must NOT enable the transition...
        let build = |copies: usize| {
            let mut coord = FsaBuilder::new("coordinator");
            let q = coord.state("q", StateClass::Initial);
            let c = coord.state("c", StateClass::Committed);
            let a = coord.state("a", StateClass::Aborted);
            coord.transition(
                q,
                c,
                Consume::All(vec![(SiteId(1), MsgKind::YES), (SiteId(1), MsgKind::YES)]),
                vec![Envelope::new(SiteId(1), MsgKind::COMMIT)],
                None,
                "yes yes / commit",
            );
            coord.transition(q, a, Consume::Spontaneous, vec![], None, "(no)");
            let mut slave = FsaBuilder::new("slave");
            let q2 = slave.state("q", StateClass::Initial);
            let c2 = slave.state("c", StateClass::Committed);
            slave.transition(
                q2,
                c2,
                Consume::one(SiteId(0), MsgKind::COMMIT),
                vec![],
                None,
                "commit /",
            );
            let inits = (0..copies)
                .map(|_| crate::protocol::InitialMsg {
                    src: SiteId(1),
                    dst: SiteId(0),
                    kind: MsgKind::YES,
                })
                .collect();
            Protocol::new(
                "dup-trigger",
                Paradigm::Custom,
                vec![coord.build(), slave.build()],
                inits,
            )
        };

        let g1 = ReachGraph::build(&build(1)).unwrap();
        // Only the spontaneous abort is enabled from the initial state.
        assert_eq!(g1.edges(g1.initial()).len(), 1);
        for (copies, nodes) in [(1, 2), (2, 4), (3, 4)] {
            for got in three_builders(&build(copies), 100) {
                assert_eq!(got, Ok(nodes), "{copies} copies outstanding");
            }
        }

        // ...while two copies enable it and both are consumed.
        let g2 = ReachGraph::build(&build(2)).unwrap();
        let fired: Vec<_> = g2.edges(g2.initial()).to_vec();
        assert_eq!(fired.len(), 2, "commit transition and spontaneous abort");
        let commit_edge = fired.iter().find(|e| e.transition == 0).unwrap();
        assert!(g2.node(commit_edge.to).msgs.contains(MsgAddr {
            src: SiteId(0),
            dst: SiteId(1),
            kind: MsgKind::COMMIT
        }));
        assert!(!g2.node(commit_edge.to).msgs.contains(MsgAddr {
            src: SiteId(1),
            dst: SiteId(0),
            kind: MsgKind::YES
        }));
    }

    /// What the three builders make of `p`: the serial inline loop, the
    /// chunked workers and the streaming fold (workers forced on a
    /// frontier of any width), as reachable-state counts.
    fn three_builders(p: &Protocol, max_states: usize) -> [Result<u128, ProtocolError>; 3] {
        let serial = ReachOptions { max_states, threads: 1, ..ReachOptions::default() };
        let forced = ReachOptions { threads: 2, parallel_frontier_min: 1, ..serial };
        [
            ReachGraph::build_with(p, serial).map(|g| g.node_count() as u128),
            ReachGraph::build_with(p, forced).map(|g| g.node_count() as u128),
            fold_reachable(p, forced, &mut NoFolder).map(|st| st.distinct_states),
        ]
    }

    /// A protocol `validate` refuses (`Cyclic`): site 0 re-enters `q`
    /// sending every reader a yes each time, each of the `readers` sites
    /// after it reads one. `preloaded` yes messages to each are outstanding
    /// at the start.
    fn looping_sender(readers: u32, preloaded: usize) -> Protocol {
        let yes = |r| InitialMsg { src: SiteId(0), dst: SiteId(r), kind: MsgKind::YES };
        let mut sender = FsaBuilder::new("sender");
        let q = sender.state("q", StateClass::Initial);
        sender.transition(
            q,
            q,
            Consume::Spontaneous,
            (1..=readers).map(|r| Envelope::new(SiteId(r), MsgKind::YES)).collect(),
            None,
            "/ yes",
        );
        let mut fsas = vec![sender.build()];
        for _ in 0..readers {
            let mut reader = FsaBuilder::new("reader");
            let q1 = reader.state("q", StateClass::Initial);
            let c1 = reader.state("c", StateClass::Committed);
            reader.transition(q1, c1, Consume::one(SiteId(0), MsgKind::YES), vec![], None, "yes /");
            fsas.push(reader.build());
        }
        let tape = (1..=readers).flat_map(|r| vec![yes(r); preloaded]).collect();
        let p = Protocol::new("looping sender", Paradigm::Custom, fsas, tape);
        assert_eq!(p.validate(), Err(ProtocolError::Cyclic { site: SiteId(0) }));
        p
    }

    #[test]
    fn a_looping_sender_ends_in_a_typed_error_from_every_builder() {
        // One reader, and two that the streaming fold finds interchangeable
        // and sorts — 16-bit count fields and all.
        for readers in [1, 2] {
            // Unbounded channel, bounded graph: the state cap stops it...
            for got in three_builders(&looping_sender(readers, 0), 100) {
                assert_eq!(got, Err(ProtocolError::GraphTooLarge { limit: 100 }));
            }
            // ...and under the default cap the channel's count does, five
            // emissions short of it here.
            let overflow =
                ProtocolError::MsgOverflow { src: SiteId(0), dst: SiteId(1), kind: MsgKind::YES };
            let default_cap = ReachOptions::default().max_states;
            let nearly_full = looping_sender(readers, usize::from(u16::MAX) - 5);
            for got in three_builders(&nearly_full, default_cap) {
                assert_eq!(got, Err(overflow.clone()));
            }
        }
        let codec = StateCodec::new(&looping_sender(2, 0)).unwrap();
        let found = Symmetry::of(&looping_sender(2, 0), &codec);
        assert_eq!(found.classes().collect::<Vec<_>>(), [[SiteId(1), SiteId(2)]]);
        // From an empty channel the serial loop walks all 65 536 counts.
        let serial = ReachOptions::default().with_threads(1);
        let overflow =
            ProtocolError::MsgOverflow { src: SiteId(0), dst: SiteId(1), kind: MsgKind::YES };
        assert_eq!(ReachGraph::build_with(&looping_sender(1, 0), serial).err(), Some(overflow));
    }

    #[test]
    fn triggers_on_addresses_nobody_emits_never_fire() {
        // Site 1 would commit on a COMMIT nobody sends, alone or as one
        // half of an `All`; of the `Any` pair only the ABORT can arrive.
        let mut coord = FsaBuilder::new("coordinator");
        let q = coord.state("q", StateClass::Initial);
        let a = coord.state("a", StateClass::Aborted);
        coord.transition(
            q,
            a,
            Consume::Spontaneous,
            vec![Envelope::new(SiteId(1), MsgKind::ABORT)],
            None,
            "/ abort",
        );
        let mut slave = FsaBuilder::new("slave");
        let q1 = slave.state("q", StateClass::Initial);
        let c1 = slave.state("c", StateClass::Committed);
        let a1 = slave.state("a", StateClass::Aborted);
        let (commit, abort) = ((SiteId(0), MsgKind::COMMIT), (SiteId(0), MsgKind::ABORT));
        slave.transition(q1, c1, Consume::All(vec![commit]), vec![], None, "commit /");
        slave.transition(q1, c1, Consume::All(vec![abort, commit]), vec![], None, "both /");
        slave.transition(q1, a1, Consume::Any(vec![commit, abort]), vec![], None, "either /");
        let p = Protocol::new(
            "phantom trigger",
            Paradigm::Custom,
            vec![coord.build(), slave.build()],
            vec![],
        );
        for got in three_builders(&p, 100) {
            assert_eq!(got, Ok(3), "q q, a q + abort, a a");
        }
        let g = ReachGraph::build(&p).unwrap();
        let fired: Vec<_> = (0..3).flat_map(|id| g.edges(id).to_vec()).collect();
        assert_eq!(fired.len(), 2);
        assert_eq!((fired[1].site, fired[1].transition), (SiteId(1), 2));
        assert_eq!(fired[1].any_choice, Some(SiteId(0)));
    }

    #[test]
    fn two_site_2pc_graph_is_consistent_and_live() {
        // Paper figure: "Reachable state graph for the 2-site 2PC protocol".
        let p = central_2pc(2);
        let g = ReachGraph::build(&p).unwrap();
        let st = g.stats();
        assert!(st.nodes > 5, "nontrivial graph, got {}", st.nodes);
        assert_eq!(st.inconsistent_states, 0, "2PC preserves atomicity without failures");
        assert_eq!(st.deadlocked_states, 0, "no deadlock without failures");
        assert!(st.final_states >= 2, "both outcomes reachable");
    }

    #[test]
    fn all_catalog_graphs_are_consistent() {
        for n in 2..=3 {
            for p in crate::protocols::catalog(n) {
                let g = ReachGraph::build(&p).unwrap();
                let st = g.stats();
                assert_eq!(st.inconsistent_states, 0, "{}", p.name);
                assert_eq!(st.deadlocked_states, 0, "{}", p.name);
            }
        }
    }

    #[test]
    fn both_outcomes_reachable_everywhere() {
        for p in [central_2pc(3), central_3pc(3), decentralized_2pc(3), decentralized_3pc(3)] {
            let g = ReachGraph::build(&p).unwrap();
            let mut commit_reachable = false;
            let mut abort_reachable = false;
            for id in 0..g.node_count() as NodeId {
                if g.is_final(id) {
                    let all_commit =
                        g.node(id).locals.iter().enumerate().all(|(i, &s)| {
                            g.class_of(SiteId(i as u32), s) == StateClass::Committed
                        });
                    if all_commit {
                        commit_reachable = true;
                    } else {
                        abort_reachable = true;
                    }
                }
            }
            assert!(commit_reachable && abort_reachable, "{}", p.name);
        }
    }

    #[test]
    fn terminal_states_have_all_final_locals() {
        for p in crate::protocols::catalog(3) {
            let g = ReachGraph::build(&p).unwrap();
            for id in 0..g.node_count() as NodeId {
                if g.is_terminal(id) {
                    assert!(g.is_final(id), "{}: node {id} terminal but not final", p.name);
                }
            }
        }
    }

    #[test]
    fn graph_limit_enforced() {
        let p = central_3pc(3);
        for threads in [1, 2, 4] {
            let opts = ReachOptions { max_states: 4, threads, ..ReachOptions::default() };
            let err = ReachGraph::build_with(&p, opts);
            assert!(matches!(err, Err(ProtocolError::GraphTooLarge { limit: 4 })));
        }
    }

    #[test]
    fn three_pc_graph_larger_than_two_pc() {
        // The buffer state adds a phase, so the graph must grow.
        let g2 = ReachGraph::build(&central_2pc(3)).unwrap();
        let g3 = ReachGraph::build(&central_3pc(3)).unwrap();
        assert!(g3.node_count() > g2.node_count());
    }

    #[test]
    fn edges_record_firing_site() {
        let p = central_2pc(2);
        let g = ReachGraph::build(&p).unwrap();
        // The initial state's only enabled transition is the coordinator's
        // request consumption... plus nothing else (slaves have no input yet).
        let init_edges = g.edges(g.initial());
        assert_eq!(init_edges.len(), 1);
        assert_eq!(init_edges[0].site, SiteId(0));
    }

    #[test]
    fn colliding_hashes_keep_distinct_states_apart() {
        // Four distinct states interned under one forced 64-bit hash: the
        // first sits in the map, the rest in the overflow list, and each
        // is found again only by comparing words.
        let graph = ReachGraph::build(&central_2pc(2)).unwrap();
        let states: Vec<&[u64]> = (0..4).map(|id| graph.arena.get(id)).collect();
        let (mut arena, mut table) = (PackedArena::new(graph.codec.words()), IdTable::default());
        let mut intern =
            |s: &&[u64]| intern_node(&mut arena, &mut table, usize::MAX, 7, s).unwrap();
        let first: Vec<NodeId> = states.iter().map(&mut intern).collect();
        assert_eq!(first, [0, 1, 2, 3], "distinct ids in first-come order");
        let again: Vec<NodeId> = states.iter().rev().map(&mut intern).collect();
        assert_eq!(again, [3, 2, 1, 0], "a state met before keeps its id");
        assert_eq!(arena.len(), 4, "nothing was interned twice");
        assert_eq!(table.overflow.len(), 3);
        for (id, s) in states.iter().enumerate() {
            assert_eq!(arena.get(id), *s);
            assert_eq!(table.find(7, |i| arena.get(i as usize) == *s), Some(id as u32));
        }
        assert_eq!(table.find(8, |_| true), None, "another hash holds nothing");
    }

    #[test]
    fn k_subsets_enumerate_lexicographically() {
        let subsets = |len, k| {
            let mut out: Vec<Vec<usize>> = Vec::new();
            for_each_k_subset(len, k, |c| {
                out.push(c.to_vec());
                Ok(())
            })
            .unwrap();
            out
        };
        assert_eq!(subsets(4, 2), [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]);
        assert_eq!(subsets(3, 3), [[0, 1, 2]]);
        assert_eq!(subsets(2, 3), Vec::<Vec<usize>>::new(), "fewer available than the quorum");
    }

    /// Node-for-node, edge-for-edge equality of two graphs.
    fn assert_identical(a: &ReachGraph, b: &ReachGraph, context: &str) {
        assert_eq!(a.node_count(), b.node_count(), "{context}: node counts differ");
        assert_eq!(a.initial(), b.initial(), "{context}: initial ids differ");
        for id in 0..a.node_count() as NodeId {
            assert_eq!(a.node(id), b.node(id), "{context}: node {id} differs");
            assert_eq!(a.edges(id), b.edges(id), "{context}: edges of {id} differ");
        }
        assert_eq!(a.stats(), b.stats(), "{context}: classification differs");
    }

    #[test]
    fn parallel_graph_is_bit_identical_to_serial() {
        // Every catalog protocol, thread counts 1/2/4, with the inline
        // threshold forced to 1 so the parallel machinery actually runs on
        // these small graphs.
        for n in [2usize, 4] {
            for p in catalog(n) {
                let serial = ReachGraph::build_serial(&p, ReachOptions::default()).unwrap();
                for threads in [1usize, 2, 4] {
                    let opts = ReachOptions {
                        threads,
                        parallel_frontier_min: 1,
                        ..ReachOptions::default()
                    };
                    let par = ReachGraph::build_with(&p, opts).unwrap();
                    assert_identical(&serial, &par, &format!("{} threads={threads}", p.name));
                }
            }
        }
    }

    /// Folds nothing: for the tests that want a walk's counts alone.
    struct NoFolder;

    impl StateFolder for NoFolder {
        fn fold(&mut self, _: &[StateId]) {}
        fn split(&self) -> Self {
            NoFolder
        }
        fn absorb(&mut self, _: Self) {}
        fn close_under_swap(&mut self, _: SiteId, _: SiteId) -> bool {
            false
        }
    }

    /// Counts folds — the simplest possible [`StateFolder`], used to pin
    /// the "every distinct state is folded exactly once" invariant that
    /// the analysis relies on.
    struct CountFolder(usize);

    impl StateFolder for CountFolder {
        fn fold(&mut self, _: &[StateId]) {
            self.0 += 1;
        }
        fn split(&self) -> Self {
            CountFolder(0)
        }
        fn absorb(&mut self, other: Self) {
            self.0 += other.0;
        }
        fn close_under_swap(&mut self, _: SiteId, _: SiteId) -> bool {
            false
        }
    }

    #[test]
    fn folders_visit_every_state_or_every_representative_exactly_once() {
        for p in catalog(3) {
            let expect =
                ReachGraph::build_serial(&p, ReachOptions::default()).unwrap().node_count();
            for threads in [1usize, 2, 4] {
                let opts =
                    ReachOptions { threads, parallel_frontier_min: 1, ..ReachOptions::default() };
                // A fold over the retained graph visits every node once...
                let mut c = CountFolder(0);
                let g = ReachGraph::build_with(&p, opts).unwrap();
                g.fold_nodes(&mut c);
                assert_eq!(g.node_count(), expect, "{} retained threads={threads}", p.name);
                assert_eq!(c.0, expect, "{} retained folds threads={threads}", p.name);

                // ...the streaming fold every representative once, and the
                // orbits of what it folded add up to the node count.
                let mut c = CountFolder(0);
                let st = fold_reachable(&p, opts, &mut c).unwrap();
                assert_eq!(c.0, st.representatives, "{} stream folds threads={threads}", p.name);
                assert_eq!(
                    st.distinct_states, expect as u128,
                    "{} stream count threads={threads}",
                    p.name
                );
                assert!(st.levels > 1 && st.peak_resident >= 1, "{}", p.name);
            }
        }
        // Two interchangeable slaves fold to fewer representatives than
        // states; peers that talk to each other are not reduced.
        let reps = |p: &Protocol| {
            let st = fold_reachable(p, ReachOptions::default(), &mut NoFolder).unwrap();
            (st.representatives as u128, st.distinct_states)
        };
        assert_eq!(reps(&central_2pc(3)), (24, 38));
        let (folded, states) = reps(&decentralized_2pc(3));
        assert_eq!(folded, states);
    }

    #[test]
    fn progress_snapshots_identical_across_all_build_paths() {
        use std::sync::Mutex;
        type Snap = (usize, u128, u128, u128, u128);
        static SNAPS: Mutex<Vec<Snap>> = Mutex::new(Vec::new());
        fn hook(p: &LevelProgress) {
            SNAPS.lock().unwrap().push((p.level, p.frontier, p.new_states, p.dedup_hits, p.total));
        }
        let take = || std::mem::take(&mut *SNAPS.lock().unwrap());

        let p = central_3pc(3);
        let serial =
            ReachGraph::build_serial(&p, ReachOptions::default().with_progress(hook)).unwrap();
        let reference = take();
        assert!(reference.len() > 2, "expected several levels, got {reference:?}");
        for (i, s) in reference.iter().enumerate() {
            assert_eq!(s.0, i, "levels are numbered consecutively");
        }
        assert_eq!(reference.last().unwrap().4, serial.node_count() as u128);
        assert_eq!(reference.last().unwrap().2, 0, "final level discovers nothing");

        for threads in [2usize, 4] {
            let opts = ReachOptions { threads, parallel_frontier_min: 1, ..Default::default() }
                .with_progress(hook);
            let par = ReachGraph::build_with(&p, opts).unwrap();
            assert_eq!(par.node_count(), serial.node_count());
            assert_eq!(take(), reference, "parallel threads={threads}");

            let st = fold_reachable(&p, opts, &mut NoFolder).unwrap();
            assert_eq!(st.distinct_states, serial.node_count() as u128);
            assert_eq!(take(), reference, "streaming threads={threads}");
        }
    }

    #[test]
    fn streaming_spill_path_is_byte_identical_to_unlimited() {
        use crate::extmem::SpillStats;
        use std::sync::Mutex;
        type Snap = (usize, u128, u128, u128, u128);
        static SNAPS: Mutex<Vec<Snap>> = Mutex::new(Vec::new());
        fn hook(p: &LevelProgress) {
            SNAPS.lock().unwrap().push((p.level, p.frontier, p.new_states, p.dedup_hits, p.total));
        }
        let take = || std::mem::take(&mut *SNAPS.lock().unwrap());

        let p = central_3pc(3);
        for threads in [1usize, 2, 4] {
            // The unlimited reference at the same thread count —
            // `peak_resident` counts the pre-merge successor stream, whose
            // cross-chunk duplicates depend on the chunking, so the
            // byte-identity claim is budget-vs-no-budget, per thread count.
            let base = ReachOptions { threads, parallel_frontier_min: 1, ..Default::default() }
                .with_progress(hook);
            let unlimited = fold_reachable(&p, base, &mut NoFolder).unwrap();
            let reference = take();
            assert_eq!(unlimited.spill, SpillStats::default(), "no budget, no spill");

            // A 1-byte budget drains the hot fingerprint set at every
            // level boundary — many spill rounds and (with more levels
            // than MAX_RUNS) at least one compaction.
            let opts = ReachOptions { mem_budget: 1, ..base };
            let mut c = CountFolder(0);
            let st = fold_reachable(&p, opts, &mut c).unwrap();
            assert!(st.spill.runs_written >= 2, "budget of 1 byte must force repeated spilling");
            assert!(st.spill.bytes_written > 0);
            assert_eq!(c.0, unlimited.representatives, "folds diverged threads={threads}");
            assert_eq!(take(), reference, "progress diverged threads={threads}");
            assert_eq!(
                StreamStats { spill: SpillStats::default(), ..st },
                unlimited,
                "stats diverged threads={threads}"
            );
        }
    }

    #[test]
    fn streaming_limit_enforced() {
        let p = central_3pc(3);
        for threads in [1, 2, 4] {
            let opts = ReachOptions {
                max_states: 4,
                threads,
                parallel_frontier_min: 1,
                ..ReachOptions::default()
            };
            let err = fold_reachable(&p, opts, &mut NoFolder);
            assert!(matches!(err, Err(ProtocolError::GraphTooLarge { limit: 4 })));
        }
    }

    #[test]
    fn default_options_match_serial() {
        // The auto-threaded default path (whatever this machine resolves it
        // to) must agree with the reference implementation too.
        let p = central_3pc(4);
        let serial = ReachGraph::build_serial(&p, ReachOptions::default()).unwrap();
        let auto = ReachGraph::build(&p).unwrap();
        assert_identical(&serial, &auto, "central 3PC n=4 auto");
    }

    #[test]
    fn a_thread_count_over_the_limit_is_refused_by_every_builder() {
        // `fan_out` spawns a worker per part: 1 000 000 threads used to
        // abort the process on a frontier wide enough to cut that often.
        let p = central_2pc(3);
        for got in [MAX_THREADS + 1, 1_000_000, usize::MAX] {
            let opts =
                ReachOptions { threads: got, parallel_frontier_min: 1, ..Default::default() };
            let refused = ProtocolError::TooManyThreads { max: MAX_THREADS, got };
            assert_eq!(ReachGraph::build_with(&p, opts).err(), Some(refused.clone()));
            assert_eq!(fold_reachable(&p, opts, &mut NoFolder).err(), Some(refused.clone()));
            for stream in [false, true] {
                let built = crate::Analysis::build_with(&p, opts.with_streaming(stream));
                assert_eq!(built.err(), Some(refused.clone()));
            }
        }
        // The limit itself is a count that runs.
        let opts =
            ReachOptions { threads: MAX_THREADS, parallel_frontier_min: 1, ..Default::default() };
        let serial = ReachGraph::build_serial(&p, ReachOptions::default()).unwrap();
        assert_identical(&serial, &ReachGraph::build_with(&p, opts).unwrap(), "64 threads");
        assert_eq!(
            fold_reachable(&p, opts, &mut NoFolder).unwrap().distinct_states,
            serial.node_count() as u128
        );
    }

    #[test]
    fn nodes_decode_on_first_use_and_classification_never_needs_them() {
        for p in catalog(4) {
            let g = ReachGraph::build(&p).unwrap();
            // Classification reads the packed words alone...
            let from_words = g.stats();
            assert!(g.nodes.get().is_none(), "{}: stats() decoded the nodes", p.name);
            let mut facts = CountFolder(0);
            g.fold_nodes(&mut facts);
            assert!(g.nodes.get().is_none(), "{}: the fold decoded the nodes", p.name);
            assert_eq!(facts.0, g.node_count());

            // ...and so do the analyses that walk the graph node by node.
            let analysis = crate::Analysis::from_graph(&p, g.clone());
            let _ = crate::sync_check::check_with(&p, &analysis, ReachOptions::default());
            let _ = crate::theorem::check_with(&p, &analysis);
            let walked = analysis.graph().expect("retained");
            assert!(walked.nodes.get().is_none(), "{}: an analysis decoded the nodes", p.name);

            // Classification says what the decoded states say.
            let classes = |s: &GlobalState| -> Vec<StateClass> {
                s.locals.iter().zip(p.fsas()).map(|(&l, fsa)| fsa.state(l).class).collect()
            };
            let mut from_states = GraphStats {
                nodes: g.nodes().len(),
                edges: g.edge_count(),
                ..GraphStats::default()
            };
            for (id, s) in g.nodes().iter().enumerate() {
                let (classes, terminal) = (classes(s), g.edges(id as NodeId).is_empty());
                let all_final = classes.iter().all(|c| c.is_final());
                from_states.final_states += usize::from(all_final);
                from_states.terminal_states += usize::from(terminal);
                from_states.deadlocked_states += usize::from(terminal && !all_final);
                from_states.inconsistent_states += usize::from(
                    classes.contains(&StateClass::Committed)
                        && classes.contains(&StateClass::Aborted),
                );
            }
            assert_eq!(from_words, from_states, "{}", p.name);

            // The lazily held vector is every node decoded, once: a clone
            // taken before the first read decodes its own, equal one.
            let fresh = ReachGraph::build(&p).unwrap();
            let copy = fresh.clone();
            let eager: Vec<GlobalState> =
                (0..g.node_count()).map(|id| g.codec.decode(g.arena.get(id))).collect();
            assert_eq!(g.nodes(), eager, "{}", p.name);
            assert!(std::ptr::eq(g.nodes(), g.nodes()), "decoded once, lent thereafter");
            assert_eq!(fresh.node(3), &eager[3]);
            assert!(copy.nodes.get().is_none(), "a clone shares nothing with its source");
            assert_eq!(copy.nodes(), eager);
        }
    }

    /// The successors of `state` as the model defines them, worked out on
    /// a [`GlobalState`] with [`Msgs`] arithmetic straight from the
    /// transition tables, in the generator's enumeration order: the
    /// reference the compiled word generator is held to.
    fn reference_successors(p: &Protocol, state: &GlobalState) -> Vec<(GlobalState, Edge)> {
        let mut out = Vec::new();
        for (i, &local) in state.locals.iter().enumerate() {
            let site = SiteId(i as u32);
            let addr = |&(src, kind): &(SiteId, MsgKind)| MsgAddr { src, dst: site, kind };
            for (transition, t) in p.fsa(site).outgoing(local) {
                // Each way the trigger can be met: what it takes off the
                // tape, and the choice the edge records.
                let mut ways: Vec<(Vec<MsgAddr>, Option<SiteId>)> = Vec::new();
                match &t.consume {
                    Consume::Spontaneous => ways.push((vec![], None)),
                    Consume::All(v) => ways.push((v.iter().map(addr).collect(), None)),
                    Consume::Any(v) => ways.extend(v.iter().map(|m| (vec![addr(m)], Some(m.0)))),
                    Consume::Quorum { k, srcs } => {
                        let avail: Vec<MsgAddr> =
                            srcs.iter().map(addr).filter(|&a| state.msgs.contains(a)).collect();
                        for_each_k_subset(avail.len(), *k as usize, |combo| {
                            ways.push((combo.iter().map(|&ix| avail[ix]).collect(), None));
                            Ok(())
                        })
                        .unwrap();
                    }
                }
                for (taken, any_choice) in ways {
                    let mut next = state.clone();
                    // One by one, so an address listed twice must be
                    // outstanding twice.
                    let met = taken.iter().all(|&a| {
                        let there = next.msgs.contains(a);
                        if there {
                            next.msgs.remove(a);
                        }
                        there
                    });
                    if !met {
                        continue;
                    }
                    next.locals[i] = t.to;
                    for e in &t.emit {
                        next.msgs.add(MsgAddr { src: site, dst: e.dst, kind: e.kind }).unwrap();
                    }
                    out.push((next, Edge { to: 0, site, transition, any_choice }));
                }
            }
        }
        out
    }

    /// Three voters and a collector that commits on any two yes votes or
    /// aborts on the first no.
    fn two_of_three() -> Protocol {
        let votes = |kind| (1..=3).map(|s| (SiteId(s), kind)).collect::<Vec<_>>();
        let mut collector = FsaBuilder::new("collector");
        let q = collector.state("q", StateClass::Initial);
        let c = collector.state("c", StateClass::Committed);
        let a = collector.state("a", StateClass::Aborted);
        let quorum = Consume::Quorum { k: 2, srcs: votes(MsgKind::YES) };
        collector.transition(q, c, quorum, vec![], None, "2 of 3 yes /");
        collector.transition(q, a, Consume::Any(votes(MsgKind::NO)), vec![], None, "no /");
        let mut fsas = vec![collector.build()];
        for _ in 1..=3 {
            let mut voter = FsaBuilder::new("voter");
            let q = voter.state("q", StateClass::Initial);
            let w = voter.state("w", StateClass::Wait);
            let a = voter.state("a", StateClass::Aborted);
            let vote = |kind| vec![Envelope::new(SiteId(0), kind)];
            voter.transition(q, w, Consume::Spontaneous, vote(MsgKind::YES), None, "/ yes");
            voter.transition(q, a, Consume::Spontaneous, vote(MsgKind::NO), None, "/ no");
            fsas.push(voter.build());
        }
        Protocol::new("two of three", Paradigm::Custom, fsas, vec![])
    }

    #[test]
    fn every_edge_is_its_transition_applied_to_its_source() {
        let mut protocols: Vec<Protocol> = (2..=4).flat_map(catalog).collect();
        protocols.push(crate::kpc::k_phase_central(3, 5).unwrap());
        protocols.push(two_of_three());
        for p in &protocols {
            let g = ReachGraph::build(p).unwrap();
            for id in 0..g.node_count() as NodeId {
                let built: Vec<(GlobalState, Edge)> = g
                    .edges(id)
                    .iter()
                    .map(|e| (g.node(e.to).clone(), Edge { to: 0, ..*e }))
                    .collect();
                assert_eq!(built, reference_successors(p, g.node(id)), "{}: node {id}", p.name);
            }
        }
        let quorum = ReachGraph::build(&two_of_three()).unwrap();
        assert!(
            (0..quorum.node_count() as NodeId).any(|id| {
                quorum.edges(id).iter().filter(|e| e.site == SiteId(0) && e.transition == 0).count()
                    == 3
            }),
            "three yes votes outstanding are three ways to take two"
        );
    }
}
