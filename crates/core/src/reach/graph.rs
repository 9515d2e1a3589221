//! The retained reachable state graph: the exact id table, the serial loop
//! and the chunked workers that build it, and what a finished
//! [`ReachGraph`] answers. The builders build and nothing else — an
//! analysis meets the graph afterwards, through `ReachGraph::fold_nodes`.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;

use super::program::{for_each_successor, Program};
use super::{fan_out, fingerprint, Edge, GlobalState, LevelProgress, NodeId, ReachOptions};
use crate::codec::{PackedArena, StateCodec};
use crate::error::ProtocolError;
use crate::fp128::FpBuildHasher;
use crate::fsa::StateClass;
use crate::ids::{SiteId, StateId};
use crate::protocol::Protocol;

/// The reachable state graph of a protocol (in the absence of failures).
#[derive(Clone)]
pub struct ReachGraph {
    /// The layout `arena`'s states are packed in.
    pub(super) codec: StateCodec,
    /// Every node's packed state, in node-id order.
    pub(super) arena: PackedArena,
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

#[cfg(test)]
pub(super) mod tests {
    use super::super::stream::tests::CountFolder;
    use super::*;
    use crate::protocols::{
        catalog, central_2pc, central_3pc, decentralized_2pc, decentralized_3pc,
    };

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

    /// Node-for-node, edge-for-edge equality of two graphs.
    pub(crate) fn assert_identical(a: &ReachGraph, b: &ReachGraph, context: &str) {
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
            let _ = crate::verify::verify_termination_with(&p, &analysis);
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
}
