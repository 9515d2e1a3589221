//! A protocol's transitions compiled against its [`StateCodec`], and the one
//! successor generator every walk of the reachable graph shares: the
//! enumeration order below is what fixes node ids and edge order.

use std::ops::Range;

use super::{Edge, MsgAddr};
use crate::codec::{Field, StateCodec};
use crate::error::ProtocolError;
use crate::fsa::Consume;
use crate::ids::{MsgKind, SiteId, StateId};
use crate::protocol::Protocol;

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
pub(super) struct Program {
    sites: Vec<SiteSteps>,
    steps: Vec<Step>,
    /// `(count field, number)` pairs the steps' ranges point into.
    pool: Vec<(Field, u32)>,
}

impl Program {
    /// Compile `protocol` against its own `codec`. A transition whose
    /// trigger can never be met is left out (see [`Program::trigger`]).
    pub(super) fn compile(protocol: &Protocol, codec: &StateCodec) -> Self {
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

/// Visit the ordered successors of the packed `state`, each assembled in
/// `scratch` (as many words; overwritten) and lent to `visit` with its
/// edge, whose target is left 0. The enumeration order — sites ascending,
/// transitions in table order, `Any` choices in trigger order, `Quorum`
/// subsets lexicographic — is what fixes node ids and edge order, so every
/// builder shares this single implementation. Nothing is allocated outside
/// the `Quorum` arm. An emission into a count field already at its maximum
/// is [`ProtocolError::MsgOverflow`].
pub(super) fn for_each_successor(
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
    use super::super::stream::tests::NoFolder;
    use super::super::{fold_reachable, GlobalState, NodeId, ReachGraph, ReachOptions};
    use super::*;
    use crate::fsa::{Envelope, FsaBuilder, StateClass};
    use crate::protocol::{InitialMsg, Paradigm};
    use crate::protocols::catalog;
    use crate::symmetry::Symmetry;

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
