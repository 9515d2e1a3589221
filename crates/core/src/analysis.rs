//! Per-local-state analysis derived from the reachable state graph:
//! occupancy, concurrency sets, and committable states.
//!
//! * The **concurrency set** of local state `s` of site `i` is the set of
//!   local states that *other* sites may occupy concurrently with `i` being
//!   in `s` — i.e. all `(j, t)` with `j ≠ i` such that some reachable
//!   global state has site `i` in `s` and site `j` in `t` (paper
//!   §"Comments on reachable state graphs").
//!
//! * A local state is **committable** if occupancy of that state by any
//!   site implies that all sites have voted yes on committing the
//!   transaction; a state that is not committable is *noncommittable*
//!   (paper §"Committable States"). "To call noncommittable states
//!   abortable would be misleading": a transaction not yet in a final
//!   commit state at any site can still be aborted.
//!
//! Whether a site "has voted yes" in a global state is derived from the
//! [`Vote`] tags on transitions: a local state `t` is *yes-voted* iff every
//! FSA path from the initial state to `t` passes a `Vote::Yes` transition.
//! This is a per-state (path-insensitive) approximation: a site that voted
//! yes and later aborted is treated as not-yes-voted in its abort state.
//! The approximation is conservative for the nonblocking theorem — it can
//! only shrink the committable set, never grow it — and it is exact for
//! every protocol in the catalog.
//!
//! ## Bitset-backed computation, two routes to the states
//!
//! All facts are stored as packed bitsets over *(site, state) slots* (see
//! [`crate::facts`](self)) and are accumulated by one `StateFolder`, which
//! reads a state's site-local fields off its packed words. Queries like
//! [`cs_has_commit`] are word-wise intersections against a precomputed
//! commit mask instead of `BTreeSet` scans. The `BTreeSet` form of a
//! concurrency set is still available through [`concurrency_set`] and is
//! materialized lazily, once, on first request.
//!
//! By default [`Analysis::build_with`] builds the [`ReachGraph`] and then
//! folds its nodes in one pass ([`Analysis::from_graph`]): the builders
//! know nothing of the analysis. The pass used to run inside the BFS; with
//! a node `W` words in a flat arena it costs the same either way (DESIGN,
//! "Bitset analysis"), so there is one retained path, not two.
//!
//! With [`ReachOptions::stream`] set, the fold runs over a *stream*
//! instead: node payloads are retired as soon as their BFS level has been
//! expanded, only the current frontier stays resident, and no
//! [`ReachGraph`] is kept — [`Analysis::graph`] returns `None`, while
//! [`Analysis::graph_stats`] reads the same counts either way. Every
//! facts-only `nbc` command streams, `verify` included: termination
//! verification ([`crate::verify`]) walks the states a second time, with
//! the options the analysis was built with. Only what reads edges (DOT
//! rendering, a walk over the edges) needs the default retaining mode.
//!
//! [`Vote`]: crate::fsa::Vote
//! [`cs_has_commit`]: Analysis::cs_has_commit
//! [`concurrency_set`]: Analysis::concurrency_set

use std::collections::BTreeSet;
use std::sync::OnceLock;

use crate::error::ProtocolError;
use crate::facts::{
    bit_clear, bit_get, bit_set, first_common, intersects, iter_ones, ConcurrencyFacts, SlotMap,
};
use crate::fsa::StateClass;
use crate::ids::{SiteId, StateId};
use crate::protocol::Protocol;
use crate::reach::{self, GraphStats, ReachGraph, ReachOptions, StreamStats};
use crate::recovery_analysis::{self, RecoveryClass};
use crate::termination::{self, ClassDecisionTable};

/// A concurrency-set member serving as a theorem witness: the occupied
/// `(site, state)` pair that puts a commit or abort state in the set.
pub type Witness = (SiteId, StateId);

/// All per-state facts the theorem and termination rules need, accumulated
/// in one pass over the reachable global states.
pub struct Analysis {
    n_sites: usize,
    slots: SlotMap,
    /// Bitset row width in 64-bit words.
    words: usize,
    /// Row-major concurrency bits, own-site slots already masked out:
    /// `cs[slot * words ..][..words]` = concurrency set of `slot`.
    cs: Vec<u64>,
    /// `occupied` bit per slot: appears in some reachable global state.
    occupied: Vec<u64>,
    /// `yes_voted` bit per slot: every FSA path casts a yes vote.
    yes_voted: Vec<u64>,
    /// `committable` bit per slot (unoccupied states keep their vacuous
    /// default of set).
    committable: Vec<u64>,
    /// Slots whose class is [`StateClass::Committed`] / [`StateClass::Aborted`].
    commit_mask: Vec<u64>,
    abort_mask: Vec<u64>,
    /// `classes[i][s]` = state class, for commit/abort queries.
    classes: Vec<Vec<StateClass>>,
    /// Lazily materialized `BTreeSet` view of each slot's concurrency row.
    cs_views: Vec<OnceLock<BTreeSet<(SiteId, StateId)>>>,
    /// Lazily derived per-protocol tables the engine consults on every
    /// run: memoised here so a batch of runs over one analysis derives
    /// them once, not once per `Runner`.
    class_decisions: OnceLock<ClassDecisionTable>,
    recovery_classes: OnceLock<Vec<Vec<RecoveryClass>>>,
    /// The retained graph, unless the analysis was streamed.
    graph: Option<ReachGraph>,
    /// Streaming statistics, when the analysis was streamed.
    stream: Option<StreamStats>,
    /// The options the states were walked with, less the progress hook
    /// (the defaults for an analysis made [`from_graph`](Self::from_graph)):
    /// what a second walk over them, termination verification's, reuses.
    pub(crate) walk: ReachOptions,
}

impl Analysis {
    /// Build the reachable state graph and run the full analysis.
    pub fn build(protocol: &Protocol) -> Result<Self, ProtocolError> {
        Self::build_with(protocol, ReachOptions::default())
    }

    /// As [`Analysis::build`] with explicit graph options: the graph is
    /// built and then folded ([`Analysis::from_graph`]), or, with
    /// [`ReachOptions::stream`] set, the facts are folded level by level as
    /// the states are met — per-worker accumulators OR-merged at each level
    /// barrier, bit-identical for any thread count — and no graph is
    /// retained.
    pub fn build_with(protocol: &Protocol, opts: ReachOptions) -> Result<Self, ProtocolError> {
        let walk = ReachOptions { progress: None, ..opts };
        if !opts.stream {
            let graph = ReachGraph::build_with(protocol, opts)?;
            return Ok(Self { walk, ..Self::from_graph(protocol, graph) });
        }
        let mut facts = ConcurrencyFacts::new(protocol);
        let stats = reach::fold_reachable(protocol, opts, &mut facts)?;
        Ok(Self { walk, ..Self::finish(protocol, facts, None, Some(stats)) })
    }

    /// Run the analysis over an already-built graph: one pass over its
    /// nodes in id order, reading each node's site-local states off the
    /// packed words; it decodes no [`GlobalState`](crate::GlobalState).
    pub fn from_graph(protocol: &Protocol, graph: ReachGraph) -> Self {
        let mut facts = ConcurrencyFacts::new(protocol);
        graph.fold_nodes(&mut facts);
        Self::finish(protocol, facts, Some(graph), None)
    }

    /// Turn the raw accumulator into the queryable analysis: build the
    /// class masks, mask each site's own slots out of its rows, and invert
    /// noncommittability.
    fn finish(
        protocol: &Protocol,
        facts: ConcurrencyFacts,
        graph: Option<ReachGraph>,
        stream: Option<StreamStats>,
    ) -> Self {
        let (slots, yes_voted, mut cs, occupied, noncommittable) = facts.into_parts();
        let words = slots.words();
        let total = slots.total();

        let classes: Vec<Vec<StateClass>> =
            protocol.fsas().iter().map(|f| f.states().iter().map(|s| s.class).collect()).collect();

        let mut commit_mask = vec![0u64; words];
        let mut abort_mask = vec![0u64; words];
        for (i, fsa) in protocol.fsas().iter().enumerate() {
            for (s, info) in fsa.states().iter().enumerate() {
                let slot = slots.slot(SiteId(i as u32), StateId(s as u32));
                match info.class {
                    StateClass::Committed => bit_set(&mut commit_mask, slot),
                    StateClass::Aborted => bit_set(&mut abort_mask, slot),
                    _ => {}
                }
            }
        }

        // The accumulator records full co-occupancy (a state is trivially
        // concurrent with its own site); the paper's C(s) ranges over
        // *other* sites only, so clear each site's slot range from its own
        // rows once, here, rather than branching in the hot fold.
        for i in 0..protocol.n_sites() {
            let range = slots.site_range(SiteId(i as u32));
            for slot in range.clone() {
                let row = &mut cs[slot as usize * words..(slot as usize + 1) * words];
                for b in range.clone() {
                    bit_clear(row, b);
                }
            }
        }

        let mut committable: Vec<u64> = noncommittable.iter().map(|&w| !w).collect();
        let tail = total % 64;
        if tail != 0 {
            *committable.last_mut().expect("at least one word") &= (1u64 << tail) - 1;
        }

        Self {
            n_sites: protocol.n_sites(),
            words,
            cs,
            occupied,
            yes_voted,
            committable,
            commit_mask,
            abort_mask,
            classes,
            cs_views: (0..total).map(|_| OnceLock::new()).collect(),
            class_decisions: OnceLock::new(),
            recovery_classes: OnceLock::new(),
            graph,
            stream,
            walk: ReachOptions::default(),
            slots,
        }
    }

    /// One slot's concurrency row.
    #[inline]
    fn cs_row(&self, slot: u32) -> &[u64] {
        &self.cs[slot as usize * self.words..(slot as usize + 1) * self.words]
    }

    /// The underlying reachable state graph, unless this analysis was
    /// built in streaming mode (in which case no graph was retained).
    pub fn graph(&self) -> Option<&ReachGraph> {
        self.graph.as_ref()
    }

    /// Streaming statistics, when this analysis was built with
    /// [`ReachOptions::stream`].
    pub fn stream_stats(&self) -> Option<&StreamStats> {
        self.stream.as_ref()
    }

    /// The reachable graph's classification counts, whichever route built
    /// the analysis: [`ReachGraph::stats`] of the retained graph, or the
    /// equal orbit-weighted sums the streaming fold counted.
    pub fn graph_stats(&self) -> GraphStats {
        match &self.graph {
            Some(graph) => graph.stats(),
            None => self.stream.expect("an analysis without a graph was streamed").graph,
        }
    }

    /// Number of sites of the analyzed protocol.
    pub fn n_sites(&self) -> usize {
        self.n_sites
    }

    /// Every occupied `(site, state)` with its class, in ascending
    /// `(SiteId, StateId)` order.
    pub fn occupied_states(&self) -> impl Iterator<Item = (SiteId, StateId, StateClass)> + '_ {
        self.classes.iter().enumerate().flat_map(move |(i, classes)| {
            let site = SiteId(i as u32);
            classes.iter().enumerate().filter_map(move |(s, &class)| {
                let s = StateId(s as u32);
                self.occupied(site, s).then_some((site, s, class))
            })
        })
    }

    /// The backup-coordinator decision per state class (see
    /// [`termination::class_decisions`]), derived on first request and
    /// cached for the life of the analysis.
    pub fn class_decisions(&self) -> &ClassDecisionTable {
        self.class_decisions.get_or_init(|| termination::class_decisions(self))
    }

    /// `recovery_classes()[site][state]`: what a site recovering in that
    /// durable state may conclude on its own (see
    /// [`recovery_analysis::recovery_classes`]); unoccupied states read
    /// [`RecoveryClass::MustAsk`]. Derived on first request and cached.
    pub fn recovery_classes(&self) -> &[Vec<RecoveryClass>] {
        self.recovery_classes.get_or_init(|| recovery_analysis::recovery_classes(self))
    }

    /// Number of local states of `site`'s automaton.
    pub fn state_count(&self, site: SiteId) -> usize {
        self.classes[site.index()].len()
    }

    /// The concurrency set of `(site, state)` as `(other_site, state)` pairs.
    ///
    /// Materialized lazily from the bitset row on first request and cached;
    /// queries that only need membership or witnesses should prefer
    /// [`concurrency_slots`](Self::concurrency_slots),
    /// [`cs_has_commit`](Self::cs_has_commit) /
    /// [`cs_has_abort`](Self::cs_has_abort), or
    /// [`cs_witnesses`](Self::cs_witnesses), which never allocate.
    pub fn concurrency_set(&self, site: SiteId, s: StateId) -> &BTreeSet<(SiteId, StateId)> {
        let slot = self.slots.slot(site, s);
        self.cs_views[slot as usize]
            .get_or_init(|| iter_ones(self.cs_row(slot)).map(|b| self.slots.unslot(b)).collect())
    }

    /// Iterate the concurrency set of `(site, s)` in ascending
    /// `(SiteId, StateId)` order straight off the bitset row, without
    /// materializing a `BTreeSet`.
    pub fn concurrency_slots(
        &self,
        site: SiteId,
        s: StateId,
    ) -> impl Iterator<Item = (SiteId, StateId)> + '_ {
        iter_ones(self.cs_row(self.slots.slot(site, s))).map(move |b| self.slots.unslot(b))
    }

    /// True if the state occurs in some reachable global state.
    pub fn occupied(&self, site: SiteId, s: StateId) -> bool {
        bit_get(&self.occupied, self.slots.slot(site, s))
    }

    /// True if every path to this state casts a yes vote.
    pub fn yes_voted(&self, site: SiteId, s: StateId) -> bool {
        bit_get(&self.yes_voted, self.slots.slot(site, s))
    }

    /// True if occupancy of this state implies all sites voted yes.
    ///
    /// Meaningful only for occupied states (unoccupied states return their
    /// vacuous default of `true`).
    pub fn committable(&self, site: SiteId, s: StateId) -> bool {
        bit_get(&self.committable, self.slots.slot(site, s))
    }

    /// Class of a local state.
    pub fn class_of(&self, site: SiteId, s: StateId) -> StateClass {
        self.classes[site.index()][s.index()]
    }

    /// Does the concurrency set of `(site, s)` contain a commit state?
    /// One word-wise intersection against the commit mask.
    pub fn cs_has_commit(&self, site: SiteId, s: StateId) -> bool {
        intersects(self.cs_row(self.slots.slot(site, s)), &self.commit_mask)
    }

    /// Does the concurrency set of `(site, s)` contain an abort state?
    /// One word-wise intersection against the abort mask.
    pub fn cs_has_abort(&self, site: SiteId, s: StateId) -> bool {
        intersects(self.cs_row(self.slots.slot(site, s)), &self.abort_mask)
    }

    /// Both theorem witnesses of `(site, s)` in a single pass over its
    /// concurrency row: the minimum commit-state member and the minimum
    /// abort-state member (each in `(SiteId, StateId)` order — the same
    /// elements a linear scan of [`concurrency_set`](Self::concurrency_set)
    /// would find first).
    pub fn cs_witnesses(&self, site: SiteId, s: StateId) -> (Option<Witness>, Option<Witness>) {
        let row = self.cs_row(self.slots.slot(site, s));
        let commit = first_common(row, &self.commit_mask).map(|b| self.slots.unslot(b));
        let abort = first_common(row, &self.abort_mask).map(|b| self.slots.unslot(b));
        (commit, abort)
    }

    /// The concurrency set projected to state *classes* — the form the
    /// paper's tables use (e.g. `CS(w) = {q, w, a, c}`).
    pub fn concurrency_classes(&self, site: SiteId, s: StateId) -> BTreeSet<StateClass> {
        self.concurrency_slots(site, s).map(|(j, t)| self.class_of(j, t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{central_2pc, central_3pc, decentralized_2pc, decentralized_3pc};

    fn classes_of(
        a: &Analysis,
        site: u32,
        name_to_id: &dyn Fn(&str) -> StateId,
        name: &str,
    ) -> BTreeSet<StateClass> {
        a.concurrency_classes(SiteId(site), name_to_id(name))
    }

    #[test]
    fn decentralized_2pc_concurrency_sets_match_paper_table() {
        // Paper: CS(q)={q,w,a}, CS(w)={q,w,a,c}, CS(a)={q,w,a}, CS(c)={w,c}.
        let p = decentralized_2pc(2);
        let a = Analysis::build(&p).unwrap();
        let fsa = p.fsa(SiteId(0));
        let id = |n: &str| fsa.state_by_name(n).unwrap();
        use StateClass::*;
        assert_eq!(classes_of(&a, 0, &id, "q"), BTreeSet::from([Initial, Wait, Aborted]));
        assert_eq!(
            classes_of(&a, 0, &id, "w"),
            BTreeSet::from([Initial, Wait, Aborted, Committed])
        );
        assert_eq!(classes_of(&a, 0, &id, "a"), BTreeSet::from([Initial, Wait, Aborted]));
        assert_eq!(classes_of(&a, 0, &id, "c"), BTreeSet::from([Wait, Committed]));
    }

    #[test]
    fn central_2pc_slave_wait_sees_both_outcomes() {
        let p = central_2pc(2);
        let a = Analysis::build(&p).unwrap();
        let slave = SiteId(1);
        let w = p.fsa(slave).state_by_name("w").unwrap();
        assert!(a.cs_has_commit(slave, w));
        assert!(a.cs_has_abort(slave, w));
        assert!(!a.committable(slave, w));
    }

    #[test]
    fn central_2pc_coordinator_wait_is_safe() {
        // The coordinator's wait state never co-exists with a slave commit:
        // slaves commit only after the coordinator has left w1.
        let p = central_2pc(3);
        let a = Analysis::build(&p).unwrap();
        let w1 = p.fsa(SiteId(0)).state_by_name("w1").unwrap();
        assert!(!a.cs_has_commit(SiteId(0), w1));
        assert!(a.cs_has_abort(SiteId(0), w1), "slaves can unilaterally abort");
    }

    #[test]
    fn committable_states_2pc_vs_3pc() {
        // "A blocking protocol usually has only one committable state,
        // while nonblocking protocols always have more than one."
        let p2 = central_2pc(3);
        let a2 = Analysis::build(&p2).unwrap();
        for site in p2.sites() {
            let fsa = p2.fsa(site);
            let committable: Vec<_> = (0..fsa.state_count())
                .map(|i| StateId(i as u32))
                .filter(|&s| a2.occupied(site, s) && a2.committable(site, s))
                .collect();
            assert_eq!(committable.len(), 1, "2PC {site}: only c is committable");
            assert_eq!(fsa.state(committable[0]).class, StateClass::Committed);
        }

        let p3 = central_3pc(3);
        let a3 = Analysis::build(&p3).unwrap();
        for site in p3.sites() {
            let fsa = p3.fsa(site);
            let committable: BTreeSet<_> = (0..fsa.state_count())
                .map(|i| StateId(i as u32))
                .filter(|&s| a3.occupied(site, s) && a3.committable(site, s))
                .map(|s| fsa.state(s).class)
                .collect();
            assert_eq!(
                committable,
                BTreeSet::from([StateClass::Prepared, StateClass::Committed]),
                "3PC {site}: p and c are committable"
            );
        }
    }

    #[test]
    fn three_pc_prepared_never_concurrent_with_abort() {
        for p in [central_3pc(3), decentralized_3pc(3)] {
            let a = Analysis::build(&p).unwrap();
            for site in p.sites() {
                if let Some(ps) = p.fsa(site).state_of_class(StateClass::Prepared) {
                    assert!(
                        !a.cs_has_abort(site, ps),
                        "{}: CS(p) must not contain an abort state",
                        p.name
                    );
                }
            }
        }
    }

    #[test]
    fn three_pc_prepared_commit_concurrency_depends_on_role() {
        // A decentralized peer in p can co-exist with a committed peer
        // (the other peer may have collected all prepares first), and so
        // can a central-site *slave* in p (the coordinator may have
        // committed). The central-site *coordinator* in p1 cannot: slaves
        // commit only after the coordinator has entered c1.
        let pd = decentralized_3pc(3);
        let ad = Analysis::build(&pd).unwrap();
        let pd0 = pd.fsa(SiteId(0)).state_of_class(StateClass::Prepared).unwrap();
        assert!(ad.cs_has_commit(SiteId(0), pd0));

        let pc = central_3pc(3);
        let ac = Analysis::build(&pc).unwrap();
        let slave_p = pc.fsa(SiteId(1)).state_of_class(StateClass::Prepared).unwrap();
        assert!(ac.cs_has_commit(SiteId(1), slave_p));
        let coord_p = pc.fsa(SiteId(0)).state_of_class(StateClass::Prepared).unwrap();
        assert!(!ac.cs_has_commit(SiteId(0), coord_p));
    }

    #[test]
    fn three_pc_wait_never_concurrent_with_commit() {
        for p in [central_3pc(3), decentralized_3pc(3)] {
            let a = Analysis::build(&p).unwrap();
            for site in p.sites() {
                let ws = p.fsa(site).state_of_class(StateClass::Wait).unwrap();
                assert!(
                    !a.cs_has_commit(site, ws),
                    "{}: CS(w) must not contain a commit state",
                    p.name
                );
            }
        }
    }

    #[test]
    fn yes_voted_analysis() {
        let p = central_2pc(2);
        let a = Analysis::build(&p).unwrap();
        let slave = SiteId(1);
        let fsa = p.fsa(slave);
        let id = |n: &str| fsa.state_by_name(n).unwrap();
        assert!(!a.yes_voted(slave, id("q")));
        assert!(a.yes_voted(slave, id("w")));
        assert!(a.yes_voted(slave, id("c")));
        // a is reachable via the no-vote, so it is not yes-voted.
        assert!(!a.yes_voted(slave, id("a")));
    }

    #[test]
    fn all_states_occupied_in_catalog() {
        for p in crate::protocols::catalog(3) {
            let a = Analysis::build(&p).unwrap();
            for site in p.sites() {
                for i in 0..p.fsa(site).state_count() {
                    assert!(
                        a.occupied(site, StateId(i as u32)),
                        "{} {site} state {i} unoccupied",
                        p.name
                    );
                }
            }
        }
    }

    #[test]
    fn concurrency_set_excludes_own_site() {
        let p = decentralized_2pc(3);
        let a = Analysis::build(&p).unwrap();
        let s0 = SiteId(0);
        for i in 0..p.fsa(s0).state_count() {
            for &(j, _) in a.concurrency_set(s0, StateId(i as u32)) {
                assert_ne!(j, s0);
            }
        }
    }

    #[test]
    fn lazy_set_view_matches_slot_iterator_and_witnesses() {
        let p = central_3pc(3);
        let a = Analysis::build(&p).unwrap();
        for site in p.sites() {
            for i in 0..p.fsa(site).state_count() {
                let s = StateId(i as u32);
                let set = a.concurrency_set(site, s);
                let from_slots: BTreeSet<_> = a.concurrency_slots(site, s).collect();
                assert_eq!(*set, from_slots);
                let (commit, abort) = a.cs_witnesses(site, s);
                let want_commit =
                    set.iter().find(|&&(j, t)| a.class_of(j, t) == StateClass::Committed).copied();
                let want_abort =
                    set.iter().find(|&&(j, t)| a.class_of(j, t) == StateClass::Aborted).copied();
                assert_eq!(commit, want_commit);
                assert_eq!(abort, want_abort);
                assert_eq!(a.cs_has_commit(site, s), commit.is_some());
                assert_eq!(a.cs_has_abort(site, s), abort.is_some());
            }
        }
    }

    #[test]
    fn streaming_build_retains_no_graph_but_same_facts() {
        let p = central_2pc(3);
        let retained = Analysis::build(&p).unwrap();
        let streamed =
            Analysis::build_with(&p, ReachOptions::default().with_streaming(true)).unwrap();
        assert!(retained.graph().is_some() && retained.stream_stats().is_none());
        assert!(streamed.graph().is_none());
        let stats = streamed.stream_stats().unwrap();
        assert_eq!(stats.distinct_states, retained.graph().unwrap().node_count() as u128);
        assert_eq!(streamed.graph_stats(), retained.graph_stats());
        assert!(stats.levels > 1 && stats.peak_resident >= 1);
        for site in p.sites() {
            for i in 0..p.fsa(site).state_count() {
                let s = StateId(i as u32);
                assert_eq!(retained.concurrency_set(site, s), streamed.concurrency_set(site, s));
                assert_eq!(retained.occupied(site, s), streamed.occupied(site, s));
                assert_eq!(retained.committable(site, s), streamed.committable(site, s));
                assert_eq!(retained.yes_voted(site, s), streamed.yes_voted(site, s));
            }
        }
    }
}
