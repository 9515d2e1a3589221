//! The fold: [`StateFolder`], the analysis accumulator's interface, and its
//! two routes to the reachable states — `ReachGraph::fold_nodes` over a
//! finished graph and [`fold_reachable`] over a stream that retains none,
//! walking one representative per orbit of the protocol's site symmetry
//! and counting the graph's [`GraphStats`] as it goes.

use std::collections::HashSet;
use std::fmt;
use std::ops::Range;

use super::graph::{class_table, classify, GraphStats};
use super::program::{for_each_successor, Program};
use super::{fan_out, fingerprint, Count, LevelProgress, ReachGraph, ReachOptions};
use crate::codec::{PackedArena, StateCodec};
use crate::error::ProtocolError;
use crate::extmem::{RunSet, SpillStats};
use crate::fp128::FpBuildHasher;
use crate::ids::{SiteId, StateId};
use crate::protocol::Protocol;
use crate::symmetry::Symmetry;

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
/// A folder that counts instead (termination verification) folds each
/// state once, so a saturating sum merges as well as an OR does.
///
/// The pass over a graph folds every state. The streaming fold folds one
/// representative of each orbit of the protocol's site symmetry and then
/// closes the accumulator under the group with `close_under_swap`.
pub(crate) trait StateFolder: Send + Sync {
    /// Fold one distinct reachable global state.
    fn fold(&mut self, state: &Visit<'_>);
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

/// A state as a [`StateFolder`] is handed it. No folder looks at the
/// messages.
pub(crate) struct Visit<'a> {
    /// The site-local states read off the packed words: `locals[i]` is the
    /// local state of site `i`.
    pub(crate) locals: &'a [StateId],
    /// The packed words: on the stream, the canonical representative of
    /// the orbit.
    pub(crate) words: &'a [u64],
    /// How many states of the graph the visit stands for: the orbit's size
    /// on the stream (saturating, like [`Count`]).
    pub(crate) orbit: u128,
    /// The state's BFS level, the same for every state of its orbit.
    pub(crate) level: usize,
}

/// Statistics of a streaming (non-retaining) reachability fold.
///
/// `graph`, `distinct_states` and `levels` describe the reachable graph
/// and equal the retained build's statistics, node count and depth;
/// `representatives` and `peak_resident` describe the fold, which holds
/// and expands one state per orbit of the protocol's site symmetry
/// ([`crate::symmetry`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// The reachable graph's classification counts, each a sum over the
    /// orbits the fold met: what [`ReachGraph::stats`] says of the
    /// retained graph.
    pub graph: GraphStats,
    /// Distinct reachable global states: the sizes of the orbits the fold
    /// met, summed (see [`Count`] for a sum past `u128`); `graph.nodes`.
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
/// survived its filters, their fingerprints, and what its chunk of the
/// frontier stands for in the full graph — states, their successor
/// occurrences (`counts.edges`) and their classification.
struct Stream {
    states: PackedArena,
    fps: Vec<u128>,
    counts: GraphStats,
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
/// facts are those of folding every state. The same weights turn each
/// representative's locals and out-degree into the graph's
/// [`StreamStats::graph`] counts, since classification and out-degree are
/// constant on an orbit too. A protocol without interchangeable sites
/// takes the same path with every orbit of size 1.
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
    let classes = class_table(protocol);
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
        graph: GraphStats::default(),
        distinct_states: width,
        representatives: 1,
        levels: 0,
        peak_resident: 1,
        spill: SpillStats::default(),
    };

    while !frontier.is_empty() {
        let level = stats.levels;
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
                counts: GraphStats::default(),
            };
            for i in range {
                let source = frontier.get(i);
                locals.clear();
                locals.extend(codec.locals(source));
                fold.fold(&Visit { locals: &locals, words: source, orbit: orbits[i], level });
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
                // Every state of the source's orbit has as many successors,
                // and is classified alike.
                out.counts.add(orbits[i], fanout, classify(&classes, locals.iter().copied()));
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
        for stream in &streams {
            stats.graph.absorb(&stream.counts);
        }
        if let Some(hook) = opts.progress {
            // Every successor occurrence of the level either discovered a
            // state or hit a known one; a saturated sum stays saturated.
            let occurrences =
                streams.iter().fold(0u128, |sum, s| sum.saturating_add(s.counts.edges));
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
    debug_assert_eq!(stats.graph.nodes, stats.distinct_states);
    stats.spill = runs.stats();
    Ok(stats)
}

impl ReachGraph {
    /// Fold `folder` over every node in id order — the graph's one
    /// meeting point with an analysis. Each node is its own orbit, and
    /// is handed at level 0: the graph keeps no levels, and the facts,
    /// the one folder that meets it, read neither.
    pub(crate) fn fold_nodes<F: StateFolder>(&self, folder: &mut F) {
        let mut locals: Vec<StateId> = Vec::new();
        for words in (0..self.node_count()).map(|id| self.arena.get(id)) {
            locals.clear();
            locals.extend(self.codec.locals(words));
            folder.fold(&Visit { locals: &locals, words, orbit: 1, level: 0 });
        }
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::super::MAX_THREADS;
    use super::*;
    use crate::protocols::{catalog, central_2pc, central_3pc, decentralized_2pc};

    /// Folds nothing: for the tests that want a walk's counts alone.
    pub(crate) struct NoFolder;

    impl StateFolder for NoFolder {
        fn fold(&mut self, _: &Visit<'_>) {}
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
    pub(crate) struct CountFolder(pub(crate) usize);

    impl StateFolder for CountFolder {
        fn fold(&mut self, _: &Visit<'_>) {
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
            // A fold over the retained graph visits every node once...
            let g = ReachGraph::build(&p).unwrap();
            let mut c = CountFolder(0);
            g.fold_nodes(&mut c);
            assert_eq!(c.0, g.node_count(), "{} retained folds", p.name);
            for threads in [1usize, 2, 4] {
                let opts =
                    ReachOptions { threads, parallel_frontier_min: 1, ..ReachOptions::default() };
                // ...the streaming fold every representative once, and the
                // orbits of what it folded add up to the graph's counts.
                let mut c = CountFolder(0);
                let st = fold_reachable(&p, opts, &mut c).unwrap();
                assert_eq!(c.0, st.representatives, "{} stream folds threads={threads}", p.name);
                assert_eq!(st.graph, g.stats(), "{} stream counts threads={threads}", p.name);
                assert_eq!(st.distinct_states, g.node_count() as u128, "{}", p.name);
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
    fn progress_snapshots_identical_across_both_walks() {
        use std::sync::Mutex;
        type Snap = (usize, u128, u128, u128, u128);
        static SNAPS: Mutex<Vec<Snap>> = Mutex::new(Vec::new());
        fn hook(p: &LevelProgress) {
            SNAPS.lock().unwrap().push((p.level, p.frontier, p.new_states, p.dedup_hits, p.total));
        }
        let take = || std::mem::take(&mut *SNAPS.lock().unwrap());

        let p = central_3pc(3);
        let serial =
            ReachGraph::build_with(&p, ReachOptions::default().with_progress(hook)).unwrap();
        let reference = take();
        assert!(reference.len() > 2, "expected several levels, got {reference:?}");
        for (i, s) in reference.iter().enumerate() {
            assert_eq!(s.0, i, "levels are numbered consecutively");
        }
        assert_eq!(reference.last().unwrap().4, serial.node_count() as u128);
        assert_eq!(reference.last().unwrap().2, 0, "final level discovers nothing");

        for threads in [1usize, 2, 4] {
            let opts = ReachOptions { threads, parallel_frontier_min: 1, ..Default::default() }
                .with_progress(hook);
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
    fn a_thread_count_over_the_limit_is_refused_by_the_fold() {
        // `fan_out` spawns a worker per part: 1 000 000 threads used to
        // abort the process on a frontier wide enough to cut that often.
        // The retained builder runs one loop and reads no thread count.
        let p = central_2pc(3);
        let nodes = ReachGraph::build(&p).unwrap().node_count();
        for got in [MAX_THREADS + 1, 1_000_000, usize::MAX] {
            let opts =
                ReachOptions { threads: got, parallel_frontier_min: 1, ..Default::default() };
            let refused = ProtocolError::TooManyThreads { max: MAX_THREADS, got };
            assert_eq!(fold_reachable(&p, opts, &mut NoFolder).err(), Some(refused.clone()));
            let built = crate::Analysis::build_with(&p, opts.with_streaming(true));
            assert_eq!(built.err(), Some(refused));
            assert_eq!(ReachGraph::build_with(&p, opts).unwrap().node_count(), nodes);
        }
        // The limit itself is a count that runs.
        let opts =
            ReachOptions { threads: MAX_THREADS, parallel_frontier_min: 1, ..Default::default() };
        assert_eq!(fold_reachable(&p, opts, &mut NoFolder).unwrap().distinct_states, nodes as u128);
    }
}
