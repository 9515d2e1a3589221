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
//! decentralized 3PC n=6; `codec` has the argument that bounds a
//! channel) — and the protocol's transitions are compiled against it once
//! (`Program`): which fields a trigger needs and how many of each, which
//! fields an emission raises.
//!
//! ## One generator, one fingerprint, two walks
//!
//! Both walks enumerate successors with `for_each_successor`: copy the
//! `W` words into a caller-owned scratch, subtract the consumed counts, set
//! the firing site's field, add the emitted counts. States are identified
//! by `fingerprint`, one [`Fp128`] pass over the `W`
//! words. A walk probes its tables with the scratch words and copies
//! them into an arena only when the state is new.
//!
//! [`ReachGraph::build_with`] grows the graph level by level in one serial
//! loop, a FIFO BFS that interns every successor straight into the graph,
//! so node ids are discovery order (`tests/pinned_graphs.rs` holds the
//! bytes). Retained graphs are exact: a hash hit is confirmed by comparing
//! words (`IdTable`). The builder builds and nothing else, and only what
//! reads edges needs it: `nbc graph` and library callers, such as the
//! transition-lead walk behind the experiments' E12 table.
//!
//! An analysis reaches the states by one of two routes:
//! `ReachGraph::fold_nodes`, a pass over the finished arena, or the second
//! walk, `fold_reachable`, which keeps no graph — a frontier of orbit
//! representatives and a fingerprint set, wide frontiers fanned out to
//! scoped workers — and folds the facts and counts the graph's
//! `GraphStats` as it goes ([`crate::Analysis::build_with`] picks by
//! [`ReachOptions::stream`]; every facts-only `nbc` command streams).
//!
//! ## Nodes on demand
//!
//! The finished [`ReachGraph`] keeps its nodes as it built them: one flat
//! arena, `W` words a node. Classification ([`ReachGraph::is_final`],
//! [`ReachGraph::stats`]) and the analysis fold read the site-local fields
//! straight from the words, so the theorem and resilience never build a
//! [`GlobalState`] from a retained graph either. [`ReachGraph::node`] and
//! [`ReachGraph::nodes`] decode the whole node vector once, on first use —
//! what DOT rendering and any caller that reads a node pays, and nobody
//! else.
//!
//! ## Where things live
//!
//! This file holds what a reader of the graph sees — [`GlobalState`],
//! [`Msgs`], [`Edge`] — and what a caller sets, [`ReachOptions`]. The
//! compiled transitions and the successor generator are in `program`, the
//! retained graph and its builder in `graph`, the streaming fold and the
//! `StateFolder` both routes feed in `stream`.
//!
//! [`StateCodec`]: crate::StateCodec

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;

use crate::error::ProtocolError;
use crate::fp128::Fp128;
use crate::ids::{MsgKind, SiteId, StateId};

mod graph;
mod program;
mod stream;

pub(crate) use graph::GraphStats;
pub use graph::ReachGraph;
pub use stream::StreamStats;
pub(crate) use stream::{fold_reachable, StateFolder, Visit};

/// Index of a node in the reachable state graph.
pub type NodeId = u32;

/// Most worker threads a state-space exploration accepts — this module's
/// streaming fold and the model checker's walk alike. A request beyond it
/// is a typed error, never a spawn per frontier state.
pub const MAX_THREADS: usize = 64;

/// The worker count a thread option of `0` stands for, wherever this
/// workspace fans work out: [`std::thread::available_parallelism`] capped
/// at 8, and 1 when it cannot be read. Read once per process: the call
/// reads cgroup files, tens of microseconds that every check, analysis
/// and sweep would otherwise pay again.
pub fn auto_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()).min(8))
}

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
    pub(crate) fn new() -> Self {
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
    #[cfg(test)]
    pub(crate) fn count(&self, addr: MsgAddr) -> u16 {
        match self.0.binary_search_by_key(&addr, |&(a, _)| a) {
            Ok(i) => self.0[i].1,
            Err(_) => 0,
        }
    }

    /// True if at least one message with this address is outstanding.
    #[cfg(test)]
    pub(crate) fn contains(&self, addr: MsgAddr) -> bool {
        self.count(addr) > 0
    }

    /// Add one message.
    ///
    /// Fails with [`ProtocolError::MsgOverflow`] if the multiplicity of
    /// `addr` would exceed `u16::MAX` — in release builds an unchecked
    /// increment would silently wrap to 0 and corrupt the multiset.
    pub(crate) fn add(&mut self, addr: MsgAddr) -> Result<(), ProtocolError> {
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
    #[cfg(test)]
    pub(crate) fn remove(&mut self, addr: MsgAddr) {
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

/// One global transaction state, as a reader sees it. The walks work on
/// its packed form ([`StateCodec`]); a graph decodes its nodes into this
/// on first request.
///
/// [`StateCodec`]: crate::StateCodec
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
    /// The bound is on what a walk holds and expands: nodes for the
    /// retained builder, orbit representatives for the streaming fold,
    /// whose `distinct_states` may be far larger.
    pub max_states: usize,
    /// Worker threads for the streaming fold's frontier expansion. `0`
    /// (the default) picks [`auto_threads`]; `1` expands every frontier
    /// inline; more than [`MAX_THREADS`] is refused with
    /// [`ProtocolError::TooManyThreads`]. Ignored by
    /// [`ReachGraph::build_with`], which runs one serial loop, as it
    /// ignores `stream` and `mem_budget`.
    pub threads: usize,
    /// Frontiers smaller than this are expanded inline even when `threads`
    /// allows fan-out — thread spawn overhead dwarfs the work on the
    /// shallow levels every graph starts with.
    pub parallel_frontier_min: usize,
    /// Fold the analysis over a stream of states instead of a retained
    /// graph: [`crate::Analysis::build_with`] folds its facts level by
    /// level and retires node payloads as soon as a level has been
    /// expanded, keeping only the current frontier resident. The resulting
    /// analysis has no [`ReachGraph`] (`Analysis::graph()` returns `None`),
    /// so what reads edges (DOT rendering, a walk over the edges) needs
    /// the default retaining mode; termination verification does not.
    /// Ignored by [`ReachGraph::build_with`] itself — a graph is inherently
    /// retained.
    pub stream: bool,
    /// Called once per completed BFS level with a [`LevelProgress`]
    /// snapshot. A plain `fn` pointer (not a closure) so the options stay
    /// `Copy`; `None` (the default) costs nothing.
    pub progress: Option<fn(&LevelProgress)>,
    /// Approximate byte budget for the streaming fold's retired-level
    /// fingerprint set. `0` (the default) keeps everything in RAM; any
    /// other value makes the fold spill the hot set to sorted temp-file
    /// runs (`extmem`) whenever it outgrows the budget, answering
    /// membership at each level barrier by one batched merge pass. Every
    /// deterministic output — fold results, [`StreamStats`] counts,
    /// [`LevelProgress`] snapshots — is byte-identical to the unlimited
    /// path; only [`StreamStats::spill`] differs. Ignored by the retaining
    /// graph builder, which must hold every node anyway.
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
            0 => Ok(auto_threads()),
            t if t > MAX_THREADS => Err(ProtocolError::TooManyThreads { max: MAX_THREADS, got: t }),
            t => Ok(t),
        }
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

/// A 128-bit fingerprint of any hashable value: two SipHash passes of the
/// standard library's default hasher, the second domain-separated.
///
/// Nothing in this repository's crates calls it: the streaming fold and
/// the retained builder identify states by the pinned [`Fp128`], and so
/// has `nbc-check` since its dedup store moved to `Fp128`. It stays
/// exported — and [`GlobalState`] stays `Hash` — only because the
/// benchmark's `core.fingerprint128_ns` probe times it; ROADMAP item 3(b)
/// retires both in a `benchmark` PR. The algorithm is unspecified across
/// Rust releases, so its output must not be stored.
pub fn fingerprint128<T: Hash + ?Sized>(value: &T) -> u128 {
    let mut h1 = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut h1);
    let mut h2 = std::collections::hash_map::DefaultHasher::new();
    h2.write_u64(0x9e37_79b9_7f4a_7c15);
    value.hash(&mut h2);
    ((h1.finish() as u128) << 64) | h2.finish() as u128
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
